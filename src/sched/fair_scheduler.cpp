#include "src/sched/fair_scheduler.h"

#include <algorithm>
#include <cmath>

#include "src/obs/trace_recorder.h"
#include "src/util/assert.h"

namespace arv::sched {
namespace {

/// Water-filling convergence: rounds are geometric, so a dozen suffices for
/// sub-microsecond residuals at 1 ms ticks.
constexpr int kMaxRounds = 16;
constexpr double kEpsilonUs = 1e-6;

}  // namespace

FairScheduler::FairScheduler(cgroup::Tree& tree, int online_cpus)
    : tree_(tree), online_cpus_(online_cpus) {
  ARV_ASSERT(online_cpus > 0 && online_cpus <= CpuSet::kMaxCpus);
  ARV_ASSERT_MSG(online_cpus == tree.online_cpus(),
                 "scheduler and cgroup tree must agree on CPU count");
}

void FairScheduler::attach(cgroup::CgroupId id, Schedulable* consumer) {
  ARV_ASSERT(tree_.exists(id));
  ARV_ASSERT(consumer != nullptr);
  auto& entity = entities_[id];
  ARV_ASSERT_MSG(std::find(entity.consumers.begin(), entity.consumers.end(),
                           consumer) == entity.consumers.end(),
                 "consumer attached twice");
  entity.consumers.push_back(consumer);
}

void FairScheduler::detach(cgroup::CgroupId id, Schedulable* consumer) {
  const auto it = entities_.find(id);
  if (it == entities_.end()) {
    return;
  }
  auto& consumers = it->second.consumers;
  consumers.erase(std::remove(consumers.begin(), consumers.end(), consumer),
                  consumers.end());
  // Keep the entity: its cumulative stats stay readable after detach.
}

bool FairScheduler::attached(cgroup::CgroupId id) const {
  const auto it = entities_.find(id);
  return it != entities_.end() && !it->second.consumers.empty();
}

void FairScheduler::refresh_inputs(cgroup::CgroupId id, Entity& entity) {
  const std::uint64_t generation = tree_.cpu_generation();
  if (entity.inputs_generation == generation) {
    return;
  }
  entity.inputs_generation = generation;
  entity.alive = tree_.exists(id);
  if (!entity.alive) {
    return;
  }
  entity.mask = tree_.effective_cpuset(id);
  ARV_ASSERT_MSG(!entity.mask.empty(), "effective cpuset must be non-empty");
  entity.mask_count = entity.mask.count();
  entity.shares = tree_.get(id).cpu().shares;
  // Nested cgroups inherit the tightest bandwidth cap along their path.
  entity.bandwidth = tree_.effective_bandwidth(id);
}

void FairScheduler::refill_quota(Entity& entity, SimTime now) {
  const auto& bandwidth = entity.bandwidth;
  if (bandwidth.quota_us == kUnlimited) {
    entity.quota_remaining = kUnlimited;
    return;
  }
  if (now >= entity.next_refill) {
    entity.quota_remaining = bandwidth.quota_us;
    // Align the next refill to the period grid, skipping missed periods.
    const SimDuration period = bandwidth.period_us;
    entity.next_refill = now + period - (now % period);
  }
}

void FairScheduler::tick(SimTime now, SimDuration dt) {
  claims_.swap(memo_claims_);  // the previous tick's claims become the memo
  claims_.clear();
  int runnable_total = 0;

  for (auto& [id, entity] : entities_) {
    refresh_inputs(id, entity);
    if (!entity.alive) {
      continue;  // cgroup destroyed with consumers still attached
    }
    refill_quota(entity, now);
    entity.stats.last_tick_grant = 0;
    int runnable = 0;
    for (const Schedulable* consumer : entity.consumers) {
      runnable += consumer->runnable_threads();
    }
    if (runnable <= 0) {
      continue;
    }
    runnable_total += runnable;

    const double thread_cap =
        static_cast<double>(std::min(runnable, entity.mask_count)) *
        static_cast<double>(dt);
    double quota_cap = thread_cap;
    if (entity.quota_remaining != kUnlimited) {
      quota_cap = std::min(thread_cap, static_cast<double>(entity.quota_remaining));
    }
    claims_.push_back(Claim{.entity = &entity,
                            .mask = entity.mask,
                            .shares = entity.shares,
                            .demand = quota_cap,
                            .throttled = thread_cap - quota_cap,
                            .runnable = runnable});
  }

  nr_running_ = runnable_total;
  loadavg_.add(static_cast<double>(runnable_total));

  if (fill_memo_matches(dt)) {
    ++fill_memo_hits_;
    for (std::size_t index = 0; index < claims_.size(); ++index) {
      claims_[index].alloc = memo_claims_[index].alloc;
    }
  } else {
    ++fill_memo_misses_;
    water_fill(dt);
    memo_generation_ = tree_.cpu_generation();
    memo_dt_ = dt;
  }

  // --- accounting + delivery -----------------------------------------------
  CpuTime granted_total = 0;
  for (const Claim& claim : claims_) {
    Entity& entity = *claim.entity;
    const double credited = claim.alloc + entity.fraction_carry;
    const auto grant = static_cast<CpuTime>(credited);  // floor
    entity.fraction_carry = credited - static_cast<double>(grant);
    granted_total += grant;
    entity.stats.total_usage += grant;
    entity.stats.last_tick_grant = grant;
    entity.stats.throttled_time += static_cast<CpuTime>(std::llround(claim.throttled));
    if (entity.quota_remaining != kUnlimited) {
      entity.quota_remaining = std::max<CpuTime>(0, entity.quota_remaining - grant);
    }
    deliver(entity, claim.runnable, grant, now, dt);
  }

  const CpuTime capacity_total = static_cast<CpuTime>(online_cpus_) * dt;
  // Each claimant may release up to 1 us of credit banked from earlier
  // under-granted ticks, so the per-tick bound has that much slack; the
  // cumulative bound (tested separately) stays exact.
  ARV_ASSERT_MSG(granted_total <=
                     capacity_total + static_cast<CpuTime>(claims_.size()) + 1,
                 "allocated more CPU time than physically exists");
  last_tick_slack_ = std::max<CpuTime>(0, capacity_total - granted_total);
  total_slack_ += last_tick_slack_;
}

void FairScheduler::add_weight(const Claim& claim, std::int64_t delta) {
  for (int cpu = 0; cpu < online_cpus_; ++cpu) {
    if (claim.mask.contains(cpu)) {
      cpu_weight_[static_cast<std::size_t>(cpu)] += delta;
    }
  }
}

bool FairScheduler::fill_memo_matches(SimDuration dt) const {
  if (memo_generation_ != tree_.cpu_generation() || memo_dt_ != dt ||
      memo_claims_.size() != claims_.size()) {
    return false;
  }
  for (std::size_t index = 0; index < claims_.size(); ++index) {
    const Claim& current = claims_[index];
    const Claim& previous = memo_claims_[index];
    if (current.entity != previous.entity || current.demand != previous.demand) {
      return false;
    }
  }
  return true;
}

// Per-CPU weighted water-filling. Each CPU pass offers the CPU's remaining
// capacity to the hungry claims that may run there, in proportion to shares
// over the pass's starting weight sum. That sum is kept incrementally: shares
// are integers, so an int64 sum is exact in any order and equals the double
// sum a full rescan would produce while it stays below 2^53 (with the
// kernel's shares range [2, 262144], below 2^35 claims). `used` is summed in
// claim order and `alloc` in CPU order, exactly as a rescan would.
void FairScheduler::water_fill(SimDuration dt) {
  const auto cpus = static_cast<std::size_t>(online_cpus_);
  cpu_capacity_.assign(cpus, static_cast<double>(dt));
  cpu_weight_.assign(cpus, 0);
  hungry_.clear();
  for (std::size_t index = 0; index < claims_.size(); ++index) {
    const Claim& claim = claims_[index];
    if (claim.demand <= kEpsilonUs) {
      continue;
    }
    hungry_.push_back(index);
    add_weight(claim, claim.shares);
  }

  for (int round = 0; round < kMaxRounds && !hungry_.empty(); ++round) {
    double progress = 0.0;
    for (int cpu = 0; cpu < online_cpus_; ++cpu) {
      double& capacity = cpu_capacity_[static_cast<std::size_t>(cpu)];
      if (capacity <= kEpsilonUs) {
        continue;
      }
      const std::int64_t weight_sum = cpu_weight_[static_cast<std::size_t>(cpu)];
      if (weight_sum <= 0) {
        continue;
      }
      const double available = capacity;
      const auto weight_sum_d = static_cast<double>(weight_sum);
      double used = 0.0;
      // The offer depends only on the claim's shares within a pass.
      std::int64_t memo_shares = 0;
      double memo_offer = 0.0;
      std::size_t kept = 0;
      for (std::size_t h = 0; h < hungry_.size(); ++h) {
        const std::size_t index = hungry_[h];
        Claim& claim = claims_[index];
        if (claim.mask.contains(cpu)) {
          if (claim.shares != memo_shares) {
            memo_shares = claim.shares;
            memo_offer = available * static_cast<double>(claim.shares) / weight_sum_d;
          }
          const double take = std::min(memo_offer, claim.demand - claim.alloc);
          claim.alloc += take;
          used += take;
          if (claim.demand - claim.alloc <= kEpsilonUs) {
            add_weight(claim, -claim.shares);  // satisfied: leaves every CPU's sum
            continue;
          }
        }
        hungry_[kept++] = index;
      }
      hungry_.resize(kept);
      capacity -= used;
      progress += used;
    }
    if (progress <= kEpsilonUs) {
      break;
    }
  }
}

// Split the grant across consumers proportionally to runnable threads,
// remainder to the last consumer with runnable threads (deterministic), so
// every granted microsecond is delivered.
void FairScheduler::deliver(Entity& entity, int runnable, CpuTime grant,
                            SimTime now, SimDuration dt) {
  if (entity.consumers.size() == 1) {
    Schedulable* only = entity.consumers.front();
    if (only->runnable_threads() > 0) {
      only->consume(now, dt, grant);
    }
    return;
  }
  // Snapshot: consume() may detach.
  consumer_snapshot_.assign(entity.consumers.begin(), entity.consumers.end());
  std::size_t last = consumer_snapshot_.size();
  while (last > 0 && consumer_snapshot_[last - 1]->runnable_threads() <= 0) {
    --last;
  }
  CpuTime left = grant;
  for (std::size_t k = 0; k < last; ++k) {
    Schedulable* consumer = consumer_snapshot_[k];
    const int threads = consumer->runnable_threads();
    if (threads <= 0) {
      continue;
    }
    CpuTime piece = k + 1 == last ? left : grant * threads / std::max(1, runnable);
    piece = std::min(piece, left);
    left -= piece;
    consumer->consume(now, dt, piece);
  }
}

bool FairScheduler::idle() const {
  for (const auto& [id, entity] : entities_) {
    if (!tree_.exists(id)) {
      continue;  // tick() skips destroyed cgroups too
    }
    for (const Schedulable* consumer : entity.consumers) {
      if (consumer->runnable_threads() > 0) {
        return false;
      }
    }
  }
  return true;
}

void FairScheduler::accrue_idle(SimDuration dt, SimDuration tick_length) {
  ARV_ASSERT_MSG(idle(), "accrue_idle on a scheduler with runnable work");
  ARV_ASSERT(dt > 0 && tick_length > 0 && dt % tick_length == 0);
  for (auto& [id, entity] : entities_) {
    if (!tree_.exists(id)) {
      continue;
    }
    entity.stats.last_tick_grant = 0;
  }
  nr_running_ = 0;
  // Sample-by-sample, not pow(decay, n): repeated multiplication is what a
  // tick-by-tick run produces, and traces compare bit-for-bit.
  const SimDuration ticks = dt / tick_length;
  for (SimDuration i = 0; i < ticks; ++i) {
    loadavg_.add(0.0);
  }
  last_tick_slack_ = static_cast<CpuTime>(online_cpus_) * tick_length;
  total_slack_ += static_cast<CpuTime>(online_cpus_) * dt;
}

CpuTime FairScheduler::total_usage(cgroup::CgroupId id) const {
  const auto it = entities_.find(id);
  return it == entities_.end() ? 0 : it->second.stats.total_usage;
}

CpuTime FairScheduler::throttled_time(cgroup::CgroupId id) const {
  const auto it = entities_.find(id);
  return it == entities_.end() ? 0 : it->second.stats.throttled_time;
}

EntityStats FairScheduler::stats(cgroup::CgroupId id) const {
  const auto it = entities_.find(id);
  return it == entities_.end() ? EntityStats{} : it->second.stats;
}

SimDuration FairScheduler::scheduling_period() const {
  if (nr_running_ <= 8) {
    return 24 * units::msec;
  }
  return static_cast<SimDuration>(nr_running_) * 3 * units::msec;
}

void FairScheduler::set_loadavg_decay(double decay) {
  ARV_ASSERT(decay > 0.0 && decay < 1.0);
  loadavg_ = Ema(decay);
}

void FairScheduler::register_trace(obs::TraceRecorder& trace) const {
  trace.add_counter("sched.slack_total", "", [this] { return total_slack_; });
  trace.add_gauge("sched.slack_tick", "", [this] { return last_tick_slack_; });
  trace.add_gauge("sched.nr_running", "",
                  [this] { return static_cast<std::int64_t>(nr_running_); });
  // Fixed-point milli-loads: traces stay integer-valued end to end.
  trace.add_gauge("sched.loadavg_milli", "", [this] {
    return static_cast<std::int64_t>(loadavg_.value() * 1000.0);
  });
}

}  // namespace arv::sched
