#include "src/cluster/router.h"

#include <algorithm>

#include "src/cluster/overload.h"
#include "src/obs/trace_recorder.h"
#include "src/server/server_runtime.h"
#include "src/util/assert.h"

namespace arv::cluster {

RouterConfig RouterConfig::validated() const {
  RouterConfig v = *this;
  v.arrivals_per_sec = std::max(0.0, v.arrivals_per_sec);
  v.max_retries = std::max(0, v.max_retries);
  v.breaker_threshold = std::max(1, v.breaker_threshold);
  if (v.breaker_open <= 0) {
    v.breaker_open = RouterConfig{}.breaker_open;
  }
  return v;
}

RequestRouter::RequestRouter(Cluster& cluster, RouterConfig config)
    : cluster_(cluster), config_(config.validated()) {
  if (obs::TraceRecorder* trace = cluster_.trace()) {
    trace->add_counter("router.generated", "", [this] {
      return static_cast<std::int64_t>(generated_);
    });
    trace->add_counter("router.routed", "", [this] {
      return static_cast<std::int64_t>(routed_);
    });
    trace->add_counter("router.unroutable", "", [this] {
      return static_cast<std::int64_t>(unroutable_);
    });
    trace->add_counter("router.dropped", "", [this] {
      return static_cast<std::int64_t>(dropped_);
    });
    trace->add_counter("router.shed", "",
                       [this] { return static_cast<std::int64_t>(shed_); });
    trace->add_counter("router.retries", "", [this] {
      return static_cast<std::int64_t>(retries_);
    });
    trace->add_counter("router.rejected", "", [this] {
      return static_cast<std::int64_t>(rejected_);
    });
    trace->add_counter("router.degraded", "", [this] {
      return static_cast<std::int64_t>(degraded_);
    });
    trace->add_counter("router.breaker_trips", "", [this] {
      return static_cast<std::int64_t>(breaker_trips_);
    });
    trace->add_gauge("router.open_breakers", "",
                     [this] { return open_breakers(); });
  }
}

bool RequestRouter::add_replica(int pod_id) {
  server::WorkerPoolServer* s = sink(pod_id);
  ARV_ASSERT_MSG(s != nullptr || cluster_.pod(pod_id).in_flight(),
                 "replica pod has no request sink");
  const bool duplicate =
      std::any_of(replicas_.begin(), replicas_.end(),
                  [pod_id](const Replica& r) { return r.pod == pod_id; });
  if (duplicate) {
    return false;  // already in rotation; double arrivals would corrupt JSQ
  }
  Replica replica;
  replica.pod = pod_id;
  replicas_.push_back(replica);
  return true;
}

void RequestRouter::set_rate(double arrivals_per_sec) {
  config_.arrivals_per_sec = std::max(0.0, arrivals_per_sec);
}

void RequestRouter::attach_admission(AdmissionController* admission, int slot) {
  ARV_ASSERT_MSG(admission_ == nullptr || admission == admission_,
                 "router already has an admission controller");
  admission_ = admission;
  admission_slot_ = slot;
}

int RequestRouter::live_replicas() {
  resolve_live();
  return static_cast<int>(live_.size());
}

server::WorkerPoolServer* RequestRouter::sink(int pod_id) const {
  Pod& pod = cluster_.pod(pod_id);
  return pod.workload == nullptr ? nullptr : pod.workload->request_sink();
}

BreakerState RequestRouter::breaker(int pod_id) const {
  for (const Replica& replica : replicas_) {
    if (replica.pod == pod_id) {
      return replica.state;
    }
  }
  ARV_ASSERT_MSG(false, "pod is not a replica of this router");
  return BreakerState::kClosed;
}

int RequestRouter::open_breakers() const {
  int open = 0;
  for (const Replica& replica : replicas_) {
    open += replica.state == BreakerState::kOpen ? 1 : 0;
  }
  return open;
}

bool RequestRouter::admits(Replica& replica, SimTime now) {
  switch (replica.state) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kOpen:
      if (now >= replica.open_until) {
        replica.state = BreakerState::kHalfOpen;  // one probe goes through
        return true;
      }
      return false;
    case BreakerState::kHalfOpen:
      // Injection resolves synchronously, so a half-open replica has no
      // probe outstanding: the next request is (another) probe.
      return true;
  }
  return false;
}

void RequestRouter::record_success(Replica& replica) {
  replica.consecutive_failures = 0;
  if (replica.state != BreakerState::kClosed) {
    replica.state = BreakerState::kClosed;
    ++breaker_closes_;
  }
}

void RequestRouter::record_failure(Replica& replica, SimTime now) {
  ++replica.consecutive_failures;
  const bool reopen = replica.state == BreakerState::kHalfOpen;
  const bool trip = replica.state == BreakerState::kClosed &&
                    replica.consecutive_failures >= config_.breaker_threshold;
  if (reopen || trip) {
    replica.state = BreakerState::kOpen;
    replica.open_until = now + config_.breaker_open;
    ++breaker_trips_;
  }
}

void RequestRouter::resolve_live() {
  // Live = the shared fleet snapshot shows the replica running AND its sink
  // exists right now (not stopped, crashed, or frozen mid-migration). The
  // snapshot is lazily fresh, so a replica that stopped earlier this round
  // is already out of rotation here — the router and the control loops act
  // on the same view of the fleet.
  const FleetView& fleet = cluster_.fleet_view();
  live_.clear();
  for (Replica& replica : replicas_) {
    if (replica.pod >= fleet.pod_count() ||
        !fleet.pods[static_cast<std::size_t>(replica.pod)].running) {
      continue;
    }
    if (server::WorkerPoolServer* s = sink(replica.pod)) {
      live_.push_back({&replica, s, s->queue_depth(), false});
    }
  }
}

void RequestRouter::inject_batch(SimTime now, const CpuTime* costs,
                                 std::size_t n) {
  bool resolved = false;
  const int max_attempts = 1 + config_.max_retries;
  for (std::size_t r = 0; r < n; ++r) {
    ++generated_;
    // Front-door admission (overload.h): criticality-class shedding and the
    // tenant's token bucket run before any replica is considered, so
    // rejected requests cost nothing downstream.
    if (admission_ != nullptr && !admission_->admit(admission_slot_, now)) {
      ++rejected_;
      continue;
    }
    ++admitted_;
    if (!resolved) {  // where a per-request scan would first pull the view
      resolve_live();
      resolved = true;
    }
    if (live_.empty()) {
      ++unroutable_;  // the fleet has no replica at all
      continue;
    }
    // Every live breaker is asked once before any attempt: admits() promotes
    // open → half-open.
    int remaining = 0;
    for (LiveReplica& member : live_) {
      member.candidate = admits(*member.replica, now);
      remaining += member.candidate ? 1 : 0;
    }
    if (remaining == 0) {
      ++shed_;  // replicas exist but every breaker is open: protect them
      continue;
    }
    // Brownout is sampled once per request: the whole request is served
    // degraded or not, however many attempts it takes.
    const bool degraded = admission_ != nullptr && admission_->brownout();
    // Bounded retry: attempt the JSQ-best candidate (ties to the lowest
    // rotation index), then the next-best on a refused injection, never
    // re-trying a replica within one request. Every retry draws on the
    // fleet-wide budget, so a failover cannot become a retry storm.
    bool served = false;
    for (int attempt = 0; attempt < max_attempts && remaining > 0; ++attempt) {
      if (attempt > 0 && admission_ != nullptr && !admission_->allow_retry()) {
        break;  // budget exhausted: give up instead of amplifying
      }
      LiveReplica* best = nullptr;
      for (LiveReplica& member : live_) {
        if (member.candidate && (best == nullptr || member.depth < best->depth)) {
          best = &member;
        }
      }
      ++attempts_;
      retries_ += attempt > 0 ? 1 : 0;
      served = best->sink->inject_request(now, costs[r], degraded);
      if (served) {
        ++best->depth;
        record_success(*best->replica);
        break;
      }
      record_failure(*best->replica, now);  // the refused queue is unchanged
      best->candidate = false;
      --remaining;
    }
    if (!served) {
      ++dropped_;  // every allowed attempt was refused (or the budget ran dry)
      continue;
    }
    ++routed_;
    degraded_ += degraded ? 1 : 0;
    if (admission_ != nullptr) {
      admission_->on_success();
    }
  }
}

void RequestRouter::tick(SimTime now, SimDuration dt) {
  accumulator_ += config_.arrivals_per_sec * static_cast<double>(dt) /
                  static_cast<double>(units::sec);
  std::size_t n = 0;
  for (; accumulator_ >= 1.0; ++n) {
    accumulator_ -= 1.0;
  }
  tick_costs_.resize(std::max(n, tick_costs_.size()));  // 0 = service_cpu
  inject_batch(now, tick_costs_.data(), n);
}

server::RequestStats RequestRouter::aggregate() const {
  server::RequestStats total;
  for (const Replica& replica : replicas_) {
    total.merge(cluster_.pod(replica.pod).archived);
    if (const server::WorkerPoolServer* s = sink(replica.pod)) {
      total.merge(s->stats());
    }
  }
  return total;
}

std::uint64_t RequestRouter::queued() const {
  std::uint64_t depth = 0;
  for (const Replica& replica : replicas_) {
    if (const server::WorkerPoolServer* s = sink(replica.pod)) {
      depth += s->queue_depth();
    }
  }
  return depth;
}

}  // namespace arv::cluster
