// RequestRouter exactness oracle. The router resolves its live replica set
// once per batch and keeps the JSQ queue depths in the batch; the oracle
// below is the per-request router it replaced (one fleet-snapshot pull, one
// live scan and one JSQ scan over the real queues per request), kept
// verbatim. Twin fleets are built identically; one routes through
// RequestRouter, the other through the oracle, and randomized scripts drive
// both in lockstep: batches of 0-200 requests, single injections, the
// router's own tick() arrivals, queue limits small enough to force refusals,
// retries and breaker trips, an AdmissionController with shedding, token
// buckets, a thin retry budget and brownout, and replicas stopped, crashed,
// restarted and migrated between batches. After every batch and every step
// every router counter, breaker, admission counter, queue depth and
// RequestStats block must be equal.
#include "src/cluster/router.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/overload.h"
#include "src/cluster/pod_workloads.h"
#include "src/cluster/scheduler.h"
#include "src/util/rng.h"

namespace arv::cluster {
namespace {

using namespace arv::units;

/// The per-request router, as RequestRouter::route_one routed before batch
/// resolution. Same decisions, same order, same counters.
class OracleRouter : public sim::TickComponent {
 public:
  struct Replica {
    int pod = -1;
    BreakerState state = BreakerState::kClosed;
    int consecutive_failures = 0;
    SimTime open_until = 0;
  };

  OracleRouter(Cluster& cluster, RouterConfig config)
      : cluster_(cluster), config_(config.validated()) {}

  void add_replica(int pod_id) {
    Replica replica;
    replica.pod = pod_id;
    replicas_.push_back(replica);
  }
  void attach_admission(AdmissionController* admission, int slot) {
    admission_ = admission;
    admission_slot_ = slot;
  }
  void set_rate(double arrivals_per_sec) {
    config_.arrivals_per_sec = std::max(0.0, arrivals_per_sec);
  }
  void inject(SimTime now, CpuTime cost) { route_one(now, cost); }
  void inject_batch(SimTime now, const CpuTime* costs, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      route_one(now, costs[i]);
    }
  }

  void tick(SimTime now, SimDuration dt) override {
    accumulator_ += config_.arrivals_per_sec * static_cast<double>(dt) /
                    static_cast<double>(units::sec);
    while (accumulator_ >= 1.0) {
      accumulator_ -= 1.0;
      route_one(now, 0);
    }
  }
  std::string name() const override { return "cluster.router"; }
  SimDuration tick_period() const override { return 0; }

  const std::vector<Replica>& replicas() const { return replicas_; }

  std::uint64_t generated = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t degraded = 0;
  std::uint64_t routed = 0;
  std::uint64_t unroutable = 0;
  std::uint64_t dropped = 0;
  std::uint64_t shed = 0;
  std::uint64_t attempts = 0;
  std::uint64_t retries = 0;
  std::uint64_t breaker_trips = 0;
  std::uint64_t breaker_closes = 0;
  /// Half-open probes refused (half-open → open); coverage only, not a
  /// RequestRouter counter.
  std::uint64_t reopens = 0;

 private:
  server::WorkerPoolServer* sink(int pod_id) const {
    Pod& pod = cluster_.pod(pod_id);
    return pod.workload == nullptr ? nullptr : pod.workload->request_sink();
  }

  bool admits(Replica& replica, SimTime now) {
    switch (replica.state) {
      case BreakerState::kClosed:
        return true;
      case BreakerState::kOpen:
        if (now >= replica.open_until) {
          replica.state = BreakerState::kHalfOpen;
          return true;
        }
        return false;
      case BreakerState::kHalfOpen:
        return true;
    }
    return false;
  }

  void record_success(Replica& replica) {
    replica.consecutive_failures = 0;
    if (replica.state != BreakerState::kClosed) {
      replica.state = BreakerState::kClosed;
      ++breaker_closes;
    }
  }

  void record_failure(Replica& replica, SimTime now) {
    ++replica.consecutive_failures;
    const bool reopen = replica.state == BreakerState::kHalfOpen;
    const bool trip = replica.state == BreakerState::kClosed &&
                      replica.consecutive_failures >= config_.breaker_threshold;
    if (reopen || trip) {
      replica.state = BreakerState::kOpen;
      replica.open_until = now + config_.breaker_open;
      ++breaker_trips;
      reopens += reopen ? 1 : 0;
    }
  }

  void route_one(SimTime now, CpuTime cost) {
    ++generated;
    if (admission_ != nullptr && !admission_->admit(admission_slot_, now)) {
      ++rejected;
      return;
    }
    ++admitted;
    const FleetView& fleet = cluster_.fleet_view();
    bool any_live = false;
    candidates_.clear();
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
      const int pod = replicas_[i].pod;
      if (pod >= fleet.pod_count() ||
          !fleet.pods[static_cast<std::size_t>(pod)].running ||
          sink(pod) == nullptr) {
        continue;
      }
      any_live = true;
      if (admits(replicas_[i], now)) {
        candidates_.push_back(i);
      }
    }
    if (!any_live) {
      ++unroutable;
      return;
    }
    if (candidates_.empty()) {
      ++shed;
      return;
    }
    const bool brownout = admission_ != nullptr && admission_->brownout();
    const int max_attempts = 1 + config_.max_retries;
    for (int attempt = 0; attempt < max_attempts && !candidates_.empty();
         ++attempt) {
      if (attempt > 0 && admission_ != nullptr && !admission_->allow_retry()) {
        break;
      }
      std::size_t best_pos = 0;
      std::size_t best_depth = 0;
      for (std::size_t pos = 0; pos < candidates_.size(); ++pos) {
        const std::size_t depth =
            sink(replicas_[candidates_[pos]].pod)->queue_depth();
        if (pos == 0 || depth < best_depth) {
          best_pos = pos;
          best_depth = depth;
        }
      }
      Replica& replica = replicas_[candidates_[best_pos]];
      ++attempts;
      if (attempt > 0) {
        ++retries;
      }
      if (sink(replica.pod)->inject_request(now, cost, brownout)) {
        record_success(replica);
        ++routed;
        if (brownout) {
          ++degraded;
        }
        if (admission_ != nullptr) {
          admission_->on_success();
        }
        return;
      }
      record_failure(replica, now);
      candidates_.erase(candidates_.begin() +
                        static_cast<std::ptrdiff_t>(best_pos));
    }
    ++dropped;
  }

  Cluster& cluster_;
  RouterConfig config_;
  AdmissionController* admission_ = nullptr;
  int admission_slot_ = -1;
  std::vector<Replica> replicas_;
  std::vector<std::size_t> candidates_;
  double accumulator_ = 0;
};

/// Everything a script draws before the run starts.
struct Setup {
  int hosts = 3;
  RouterConfig router;
  std::vector<server::WebConfig> webs;  ///< one per initial replica
  bool admission = false;
  AdmissionConfig admission_config;
  Criticality criticality = Criticality::kNormal;
  TenantRate rate;
};

/// One fleet of the twin pair. `oracle` selects the routing side: the
/// RequestRouter routes in the subject fleet; in the oracle fleet it stays
/// enrolled at rate 0 (never injected into, never ticked) only so the
/// AdmissionController reads the same queues, replicas and histories
/// through it, while OracleRouter does the routing.
class Fleet {
 public:
  Fleet(const Setup& setup, bool oracle)
      : scheduler_(cluster_),
        router_(cluster_, oracle ? shadow(setup.router) : setup.router) {
    for (int h = 0; h < setup.hosts; ++h) {
      container::HostConfig host;
      host.cpus = 4;
      host.ram = 16 * GiB;
      cluster_.add_host(host);
    }
    if (setup.admission) {
      admission_ =
          std::make_unique<AdmissionController>(cluster_, setup.admission_config);
      admission_->register_tenant("web", router_, setup.criticality);
      if (setup.rate.tokens_per_sec > 0) {
        admission_->set_rate_limit("web", setup.rate);
      }
      cluster_.add_component(admission_.get());
    }
    if (oracle) {
      oracle_ = std::make_unique<OracleRouter>(cluster_, setup.router);
      if (admission_) {
        oracle_->attach_admission(admission_.get(), 0);
      }
      cluster_.add_component(oracle_.get());
    } else {
      cluster_.add_component(&router_);
    }
    for (const server::WebConfig& web : setup.webs) {
      add_replica(web);
    }
  }

  /// Place one more replica and enroll it; returns its pod id (-1 if no
  /// host could take it).
  int add_replica(const server::WebConfig& web) {
    container::K8sResources r;
    r.request_millicpu = 500;
    r.request_memory = 256 * MiB;
    const int pod = scheduler_.place(
        "requests", {"web-" + std::to_string(cluster_.pod_count()), r},
        web_replica(web));
    if (pod >= 0) {
      EXPECT_TRUE(router_.add_replica(pod));
      if (oracle_) {
        oracle_->add_replica(pod);
      }
    }
    return pod;
  }

  void inject_batch(const std::vector<CpuTime>& costs) {
    if (oracle_) {
      oracle_->inject_batch(cluster_.now(), costs.data(), costs.size());
    } else {
      router_.inject_batch(cluster_.now(), costs.data(), costs.size());
    }
  }
  void inject(CpuTime cost) {
    if (oracle_) {
      oracle_->inject(cluster_.now(), cost);
    } else {
      router_.inject(cluster_.now(), cost);
    }
  }
  void set_rate(double rate) {
    if (oracle_) {
      oracle_->set_rate(rate);
    } else {
      router_.set_rate(rate);
    }
  }

  Cluster& cluster() { return cluster_; }
  RequestRouter& router() { return router_; }
  OracleRouter* oracle() { return oracle_.get(); }
  AdmissionController* admission() { return admission_.get(); }

 private:
  static RouterConfig shadow(RouterConfig config) {
    config.arrivals_per_sec = 0;
    return config;
  }

  Cluster cluster_;
  ClusterScheduler scheduler_;
  RequestRouter router_;
  std::unique_ptr<AdmissionController> admission_;
  std::unique_ptr<OracleRouter> oracle_;
};

void expect_same_stats(const server::RequestStats& a,
                       const server::RequestStats& b, const std::string& what) {
  EXPECT_EQ(a.completed, b.completed) << what;
  EXPECT_EQ(a.arrived, b.arrived) << what;
  EXPECT_EQ(a.dropped, b.dropped) << what;
  EXPECT_EQ(a.degraded, b.degraded) << what;
  EXPECT_EQ(a.latency_hist.count(), b.latency_hist.count()) << what;
  EXPECT_EQ(a.latency_hist.sum(), b.latency_hist.sum()) << what;
  EXPECT_EQ(a.latency_hist.min(), b.latency_hist.min()) << what;
  EXPECT_EQ(a.latency_hist.max(), b.latency_hist.max()) << what;
  for (const double p : {10.0, 50.0, 90.0, 99.0}) {
    EXPECT_EQ(a.latency_hist.percentile(p), b.latency_hist.percentile(p))
        << what << " p" << p;
  }
}

/// `==` on everything routing can touch. False once anything in the test
/// has failed, so a diverging script stops at its first bad checkpoint.
bool expect_identical(Fleet& subject, Fleet& twin, const std::string& where) {
  const RequestRouter& r = subject.router();
  const OracleRouter& o = *twin.oracle();
  EXPECT_EQ(r.generated(), o.generated) << where;
  EXPECT_EQ(r.admitted(), o.admitted) << where;
  EXPECT_EQ(r.rejected(), o.rejected) << where;
  EXPECT_EQ(r.routed(), o.routed) << where;
  EXPECT_EQ(r.unroutable(), o.unroutable) << where;
  EXPECT_EQ(r.dropped(), o.dropped) << where;
  EXPECT_EQ(r.shed(), o.shed) << where;
  EXPECT_EQ(r.degraded(), o.degraded) << where;
  EXPECT_EQ(r.attempts(), o.attempts) << where;
  EXPECT_EQ(r.retries(), o.retries) << where;
  EXPECT_EQ(r.breaker_trips(), o.breaker_trips) << where;
  EXPECT_EQ(r.breaker_closes(), o.breaker_closes) << where;
  EXPECT_EQ(r.replica_count(), static_cast<int>(o.replicas().size())) << where;
  for (const OracleRouter::Replica& replica : o.replicas()) {
    const std::string pod = where + " pod " + std::to_string(replica.pod);
    EXPECT_EQ(r.breaker(replica.pod), replica.state) << pod;
    Pod& a = subject.cluster().pod(replica.pod);
    Pod& b = twin.cluster().pod(replica.pod);
    expect_same_stats(a.archived, b.archived, pod + " archived");
    const server::WorkerPoolServer* sa =
        a.workload == nullptr ? nullptr : a.workload->request_sink();
    const server::WorkerPoolServer* sb =
        b.workload == nullptr ? nullptr : b.workload->request_sink();
    EXPECT_EQ(sa == nullptr, sb == nullptr) << pod;
    if (sa != nullptr && sb != nullptr) {
      EXPECT_EQ(sa->queue_depth(), sb->queue_depth()) << pod;
      EXPECT_EQ(sa->queue_limit(), sb->queue_limit()) << pod;
      expect_same_stats(sa->stats(), sb->stats(), pod + " live");
    }
  }
  if (AdmissionController* a = subject.admission()) {
    AdmissionController* b = twin.admission();
    EXPECT_EQ(a->admitted(), b->admitted()) << where;
    EXPECT_EQ(a->rejected(), b->rejected()) << where;
    EXPECT_EQ(a->retries_allowed(), b->retries_allowed()) << where;
    EXPECT_EQ(a->retries_denied(), b->retries_denied()) << where;
    EXPECT_EQ(a->retry_tokens_milli(), b->retry_tokens_milli()) << where;
    EXPECT_EQ(a->brownout(), b->brownout()) << where;
    EXPECT_EQ(a->shed_level(), b->shed_level()) << where;
  }
  EXPECT_EQ(subject.cluster().fleet_rows_reused(),
            twin.cluster().fleet_rows_reused())
      << where;
  return !::testing::Test::HasFailure();
}

Setup draw_setup(Rng& rng) {
  Setup s;
  s.hosts = static_cast<int>(rng.uniform_int(2, 4));
  s.router.arrivals_per_sec = rng.chance(0.3) ? 0 : rng.uniform(50, 3000);
  s.router.max_retries = static_cast<int>(rng.uniform_int(0, 3));
  s.router.breaker_threshold = static_cast<int>(rng.uniform_int(1, 6));
  s.router.breaker_open = rng.uniform_int(2, 120) * msec;
  const int replicas = static_cast<int>(rng.uniform_int(1, 6));
  for (int i = 0; i < replicas; ++i) {
    server::WebConfig web;
    web.service_cpu = rng.uniform_int(1, 20) * msec;
    web.max_queue = static_cast<std::size_t>(rng.uniform_int(1, 40));
    s.webs.push_back(web);
  }
  s.admission = rng.chance(0.6);
  if (s.admission) {
    AdmissionConfig& a = s.admission_config;
    a.period = rng.uniform_int(5, 50) * msec;
    a.queue_ref_depth = static_cast<int>(rng.uniform_int(1, 8));
    a.shed_enter_permille = rng.uniform_int(300, 1200);
    a.shed_step_permille = rng.uniform_int(100, 600);
    a.release_rounds = static_cast<int>(rng.uniform_int(1, 3));
    a.brownout_enter_permille = rng.uniform_int(200, 900);
    a.brownout_exit_permille = rng.uniform_int(50, 200);
    a.brownout_rounds = static_cast<int>(rng.uniform_int(1, 3));
    a.retry_budget_permille = rng.uniform_int(0, 200);
    a.retry_budget_cap = rng.uniform_int(1, 5);
    a.retry_budget_floor = rng.uniform_int(0, 2);
    a.adaptive_limits = rng.chance(0.5);
    a.initial_limit = static_cast<int>(rng.uniform_int(2, 16));
    a.min_limit = 1;
    a.limit_increase = static_cast<int>(rng.uniform_int(1, 4));
    s.criticality = static_cast<Criticality>(rng.uniform_int(0, 3));
    if (rng.chance(0.5)) {
      s.rate.tokens_per_sec = rng.uniform(200, 4000);
      s.rate.burst_tokens = rng.uniform(2, 60);
    }
  }
  return s;
}

/// What the script saw happen, summed over every script, so the test can
/// insist the interesting paths were actually exercised.
struct Coverage {
  std::uint64_t retries = 0;
  std::uint64_t dropped = 0;
  std::uint64_t shed = 0;
  std::uint64_t unroutable = 0;
  std::uint64_t rejected = 0;
  std::uint64_t degraded = 0;
  std::uint64_t trips = 0;
  std::uint64_t closes = 0;
  std::uint64_t reopens = 0;
  std::uint64_t retries_denied = 0;
  std::uint64_t stops = 0;
  std::uint64_t crashes = 0;
  std::uint64_t migrations = 0;
  std::uint64_t empty_batches = 0;
  std::uint64_t max_batch = 0;
};

void run_script(std::uint64_t seed, Coverage& cov) {
  Rng rng(seed);
  const Setup setup = draw_setup(rng);
  Fleet subject(setup, /*oracle=*/false);
  Fleet twin(setup, /*oracle=*/true);
  ASSERT_TRUE(expect_identical(subject, twin, "setup"));
  const int steps = static_cast<int>(rng.uniform_int(300, 600));
  for (int step = 0; step < steps; ++step) {
    const std::string at =
        "seed " + std::to_string(seed) + " step " + std::to_string(step);
    // Zero or more scripted events between two cluster steps; mutations
    // may land between two batches of the same gap.
    const int events = static_cast<int>(rng.uniform_int(0, 3));
    for (int e = 0; e < events; ++e) {
      const std::int64_t kind = rng.uniform_int(0, 99);
      Cluster& c = subject.cluster();
      const int pods = c.pod_count();
      const int pod = pods == 0 ? -1 : static_cast<int>(rng.uniform_int(0, pods - 1));
      if (kind < 45) {
        const std::size_t n = rng.chance(0.1)
                                  ? 0
                                  : static_cast<std::size_t>(rng.uniform_int(1, 200));
        std::vector<CpuTime> costs(n);
        for (CpuTime& cost : costs) {
          cost = rng.chance(0.3) ? 0 : rng.uniform_int(1, 30) * msec;
        }
        subject.inject_batch(costs);
        twin.inject_batch(costs);
        cov.empty_batches += n == 0 ? 1 : 0;
        cov.max_batch = std::max<std::uint64_t>(cov.max_batch, n);
      } else if (kind < 60) {
        const CpuTime cost = rng.chance(0.5) ? 0 : rng.uniform_int(1, 30) * msec;
        subject.inject(cost);
        twin.inject(cost);
      } else if (kind < 66) {
        const double rate = rng.chance(0.2) ? 0 : rng.uniform(10, 4000);
        subject.set_rate(rate);
        twin.set_rate(rate);
      } else if (kind < 72 && pod >= 0 && c.pod(pod).host >= 0) {
        subject.cluster().stop_pod(pod);
        twin.cluster().stop_pod(pod);
        ++cov.stops;
      } else if (kind < 80 && pod >= 0 && c.pod(pod).running()) {
        subject.cluster().crash_pod(pod);
        twin.cluster().crash_pod(pod);
        ++cov.crashes;
      } else if (kind < 86 && pod >= 0 && c.pod(pod).failed &&
                 c.pod(pod).host >= 0 && c.host_up(c.pod(pod).host)) {
        subject.cluster().restart_pod(pod);
        twin.cluster().restart_pod(pod);
      } else if (kind < 93 && pod >= 0 && c.pod(pod).running()) {
        const int target = (c.pod(pod).host + 1) % c.host_count();
        if (c.host_up(target)) {
          subject.cluster().migrate_pod(pod, target);
          twin.cluster().migrate_pod(pod, target);
          ++cov.migrations;
        }
      } else if (kind < 96) {
        server::WebConfig web;
        web.service_cpu = rng.uniform_int(1, 20) * msec;
        web.max_queue = static_cast<std::size_t>(rng.uniform_int(1, 40));
        const int a = subject.add_replica(web);
        const int b = twin.add_replica(web);
        ASSERT_EQ(a, b) << at;
      }
      ASSERT_TRUE(expect_identical(subject, twin, at + " event"));
    }
    subject.cluster().step();
    twin.cluster().step();
    ASSERT_TRUE(expect_identical(subject, twin, at));
  }
  const RequestRouter& r = subject.router();
  EXPECT_EQ(r.generated(), r.admitted() + r.rejected());
  EXPECT_EQ(r.admitted(),
            r.routed() + r.dropped() + r.unroutable() + r.shed());
  cov.retries += r.retries();
  cov.dropped += r.dropped();
  cov.shed += r.shed();
  cov.unroutable += r.unroutable();
  cov.rejected += r.rejected();
  cov.degraded += r.degraded();
  cov.trips += r.breaker_trips();
  cov.closes += r.breaker_closes();
  cov.reopens += twin.oracle()->reopens;
  if (subject.admission() != nullptr) {
    cov.retries_denied += subject.admission()->retries_denied();
  }
}

TEST(RouterOracle, BatchRoutingMatchesPerRequestRouting) {
  Coverage cov;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    run_script(seed, cov);
    if (::testing::Test::HasFailure()) {
      return;
    }
  }
  // Every disposition and breaker transition must have been exercised, or
  // the lockstep equality above proves less than it claims.
  EXPECT_GT(cov.retries, 0u);
  EXPECT_GT(cov.dropped, 0u);
  EXPECT_GT(cov.shed, 0u);
  EXPECT_GT(cov.unroutable, 0u);
  EXPECT_GT(cov.rejected, 0u);
  EXPECT_GT(cov.degraded, 0u);
  EXPECT_GT(cov.trips, 0u);
  EXPECT_GT(cov.closes, 0u);   // open → half-open → closed
  EXPECT_GT(cov.reopens, 0u);  // open → half-open → open
  EXPECT_GT(cov.retries_denied, 0u);
  EXPECT_GT(cov.stops, 0u);
  EXPECT_GT(cov.crashes, 0u);
  EXPECT_GT(cov.migrations, 0u);
  EXPECT_GT(cov.empty_batches, 0u);
  EXPECT_EQ(cov.max_batch, 200u);
}

}  // namespace
}  // namespace arv::cluster
