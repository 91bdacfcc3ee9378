// Exactness oracle for FairScheduler. ReferenceScheduler below is the
// straightforward form of the same model: every tick it walks the cgroup
// tree for every entity (effective cpuset, bandwidth, shares), then fills
// each CPU with two passes over all claims (weight sum, then offers). The
// real scheduler caches the tree's inputs by generation, keeps the weight
// sums incrementally and reuses the previous tick's fill when its input
// repeats; both run in lockstep on twin trees with twin consumers under
// randomized knob changes, and every observable must match with ==.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/cgroup/cgroup.h"
#include "src/sched/fair_scheduler.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "tests/testing/fake_consumer.h"

namespace arv::sched {
namespace {

using arv::testing::FakeConsumer;
using namespace arv::units;

class ReferenceScheduler {
 public:
  ReferenceScheduler(cgroup::Tree& tree, int online_cpus)
      : tree_(tree), online_cpus_(online_cpus) {}

  void attach(cgroup::CgroupId id, Schedulable* consumer) {
    entities_[id].consumers.push_back(consumer);
  }

  void detach(cgroup::CgroupId id, Schedulable* consumer) {
    auto& consumers = entities_[id].consumers;
    consumers.erase(std::remove(consumers.begin(), consumers.end(), consumer),
                    consumers.end());
  }

  void tick(SimTime now, SimDuration dt) {
    struct Claim {
      Entity* entity = nullptr;
      CpuSet mask;
      double weight = 0.0;
      double demand = 0.0;
      double alloc = 0.0;
      double throttled = 0.0;
      int runnable = 0;
    };
    std::vector<Claim> claims;
    int runnable_total = 0;
    for (auto& [id, entity] : entities_) {
      if (!tree_.exists(id)) {
        continue;
      }
      refill_quota(id, entity, now);
      entity.stats.last_tick_grant = 0;
      int runnable = 0;
      for (const Schedulable* consumer : entity.consumers) {
        runnable += consumer->runnable_threads();
      }
      if (runnable <= 0) {
        continue;
      }
      runnable_total += runnable;
      Claim claim;
      claim.entity = &entity;
      claim.mask = tree_.effective_cpuset(id);
      claim.weight = static_cast<double>(tree_.get(id).cpu().shares);
      claim.runnable = runnable;
      const double thread_cap =
          static_cast<double>(std::min(runnable, claim.mask.count())) *
          static_cast<double>(dt);
      double quota_cap = thread_cap;
      if (entity.quota_remaining != kUnlimited) {
        quota_cap = std::min(thread_cap, static_cast<double>(entity.quota_remaining));
      }
      claim.demand = quota_cap;
      claim.throttled = thread_cap - quota_cap;
      claims.push_back(claim);
    }
    nr_running_ = runnable_total;
    loadavg_.add(static_cast<double>(runnable_total));

    std::vector<double> cpu_capacity(static_cast<std::size_t>(online_cpus_),
                                     static_cast<double>(dt));
    for (int round = 0; round < kMaxRounds; ++round) {
      double progress = 0.0;
      for (int cpu = 0; cpu < online_cpus_; ++cpu) {
        double& capacity = cpu_capacity[static_cast<std::size_t>(cpu)];
        if (capacity <= kEpsilonUs) {
          continue;
        }
        double weight_sum = 0.0;
        for (const Claim& claim : claims) {
          if (claim.demand - claim.alloc > kEpsilonUs && claim.mask.contains(cpu)) {
            weight_sum += claim.weight;
          }
        }
        if (weight_sum <= 0.0) {
          continue;
        }
        const double available = capacity;
        double used = 0.0;
        for (Claim& claim : claims) {
          const double unmet = claim.demand - claim.alloc;
          if (unmet <= kEpsilonUs || !claim.mask.contains(cpu)) {
            continue;
          }
          const double offer = available * claim.weight / weight_sum;
          const double take = std::min(offer, unmet);
          claim.alloc += take;
          used += take;
          if (claim.demand - claim.alloc <= kEpsilonUs && cpu + 1 < online_cpus_) {
            ++satisfied_mid_round_;
          }
        }
        capacity -= used;
        progress += used;
      }
      if (progress <= kEpsilonUs) {
        break;
      }
      if (round > 0) {
        ++extra_rounds_;
      }
    }

    CpuTime granted_total = 0;
    for (Claim& claim : claims) {
      Entity& entity = *claim.entity;
      const double credited = claim.alloc + entity.fraction_carry;
      const auto grant = static_cast<CpuTime>(credited);
      entity.fraction_carry = credited - static_cast<double>(grant);
      granted_total += grant;
      entity.stats.total_usage += grant;
      entity.stats.last_tick_grant = grant;
      entity.stats.throttled_time += static_cast<CpuTime>(std::llround(claim.throttled));
      if (entity.quota_remaining != kUnlimited) {
        entity.quota_remaining = std::max<CpuTime>(0, entity.quota_remaining - grant);
      }
      // The remainder goes to the last consumer with runnable threads.
      CpuTime left = grant;
      const auto consumers = entity.consumers;
      std::size_t last = consumers.size();
      while (last > 0 && consumers[last - 1]->runnable_threads() <= 0) {
        --last;
      }
      for (std::size_t k = 0; k < last; ++k) {
        const int threads = consumers[k]->runnable_threads();
        if (threads <= 0) {
          continue;
        }
        CpuTime piece =
            k + 1 == last ? left : grant * threads / std::max(1, claim.runnable);
        piece = std::min(piece, left);
        left -= piece;
        consumers[k]->consume(now, dt, piece);
      }
    }
    const CpuTime capacity_total = static_cast<CpuTime>(online_cpus_) * dt;
    last_tick_slack_ = std::max<CpuTime>(0, capacity_total - granted_total);
    total_slack_ += last_tick_slack_;
  }

  EntityStats stats(cgroup::CgroupId id) const {
    const auto it = entities_.find(id);
    return it == entities_.end() ? EntityStats{} : it->second.stats;
  }
  CpuTime total_slack() const { return total_slack_; }
  CpuTime last_tick_slack() const { return last_tick_slack_; }
  int nr_running() const { return nr_running_; }
  double loadavg() const { return loadavg_.value(); }

  /// Coverage: fill rounds past the first that made progress, and claims
  /// satisfied before the last CPU of a round (so later CPUs of the same
  /// round see a smaller weight sum).
  long extra_rounds() const { return extra_rounds_; }
  long satisfied_mid_round() const { return satisfied_mid_round_; }

 private:
  static constexpr int kMaxRounds = 16;
  static constexpr double kEpsilonUs = 1e-6;

  struct Entity {
    std::vector<Schedulable*> consumers;
    CpuTime quota_remaining = kUnlimited;
    SimTime next_refill = 0;
    double fraction_carry = 0.0;
    EntityStats stats;
  };

  void refill_quota(cgroup::CgroupId id, Entity& entity, SimTime now) {
    const auto bandwidth = tree_.effective_bandwidth(id);
    if (bandwidth.quota_us == kUnlimited) {
      entity.quota_remaining = kUnlimited;
      return;
    }
    if (now >= entity.next_refill) {
      entity.quota_remaining = bandwidth.quota_us;
      const SimDuration period = bandwidth.period_us;
      entity.next_refill = now + period - (now % period);
    }
  }

  cgroup::Tree& tree_;
  int online_cpus_;
  std::map<cgroup::CgroupId, Entity> entities_;
  CpuTime total_slack_ = 0;
  CpuTime last_tick_slack_ = 0;
  int nr_running_ = 0;
  Ema loadavg_{0.99993};
  long extra_rounds_ = 0;
  long satisfied_mid_round_ = 0;
};

/// Twin trees driven by one random script: every knob change is applied to
/// both, so cgroup ids match, and each leaf's consumers come in twins.
class Lockstep {
 public:
  Lockstep(int cpus, std::uint64_t seed)
      : cpus_(cpus), rng_(seed), real_tree_(cpus), ref_tree_(cpus),
        real_(real_tree_, cpus), ref_(ref_tree_, cpus) {
    const int pods = static_cast<int>(rng_.uniform_int(0, 3));
    for (int p = 0; p < pods; ++p) {
      const auto id = create("pod" + std::to_string(p), cgroup::kRootCgroup);
      pods_.push_back(id);
      randomize(id);
    }
    const int leaves = static_cast<int>(rng_.uniform_int(1, 10));
    for (int l = 0; l < leaves; ++l) {
      add_leaf();
    }
  }

  /// One tick: random script step, then both schedulers tick and every
  /// observable is compared.
  ::testing::AssertionResult step(SimTime now) {
    perturb();
    return tick_and_compare(now);
  }

  /// The knob changes a steady script makes, one per tick at most.
  enum class Change { kNone, kShares, kCpuset, kQuota, kAttach, kDetach };

  /// One tick of a steady script: thread counts stay put and only `change`
  /// is applied, so the ticks in between repeat the previous fill's input.
  ::testing::AssertionResult step_steady(SimTime now, Change change) {
    switch (change) {
      case Change::kNone:
        break;
      case Change::kShares:
        write_shares();
        break;
      case Change::kCpuset:
        write_cpuset();
        break;
      case Change::kQuota:
        write_quota();
        break;
      case Change::kAttach:
        if (Leaf* leaf = random_live_leaf(); leaf != nullptr) {
          attach_consumer(*leaf);
        }
        break;
      case Change::kDetach:
        detach_consumer();
        break;
    }
    return tick_and_compare(now);
  }

  const ReferenceScheduler& reference() const { return ref_; }
  const FairScheduler& scheduler() const { return real_; }

 private:
  static constexpr SimDuration kTick = 1 * msec;

  struct Leaf {
    cgroup::CgroupId id = -1;
    cgroup::CgroupId parent = cgroup::kRootCgroup;
    bool alive = true;
    std::vector<std::unique_ptr<FakeConsumer>> real;
    std::vector<std::unique_ptr<FakeConsumer>> ref;
  };

  ::testing::AssertionResult tick_and_compare(SimTime now) {
    real_.tick(now, kTick);
    ref_.tick(now, kTick);
    return compare();
  }

  cgroup::CgroupId create(const std::string& name, cgroup::CgroupId parent) {
    const auto id = real_tree_.create(name, parent);
    EXPECT_EQ(ref_tree_.create(name, parent), id);
    return id;
  }

  template <typename F>
  void both(F apply) {
    apply(real_tree_);
    apply(ref_tree_);
  }

  /// Uniform index in [0, n); n > 0.
  std::size_t random_index(std::size_t n) {
    return static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  }

  /// Random non-empty subset of `within`.
  CpuSet random_mask(const CpuSet& within) {
    CpuSet mask;
    std::vector<int> allowed;
    for (int cpu = 0; cpu < cpus_; ++cpu) {
      if (within.contains(cpu)) {
        allowed.push_back(cpu);
        if (rng_.chance(0.5)) {
          mask.set(cpu);
        }
      }
    }
    if (mask.empty()) {
      mask.set(allowed[random_index(allowed.size())]);
    }
    return mask;
  }

  std::int64_t random_shares() {
    static constexpr std::int64_t kShares[] = {2,    3,    7,    100,   512,   1000,
                                               1024, 1024, 2048, 4096, 65536, 262144};
    if (rng_.chance(0.2)) {
      return rng_.uniform_int(2, 262144);
    }
    return kShares[random_index(std::size(kShares))];
  }

  std::int64_t random_quota() {
    if (rng_.chance(0.4)) {
      return kUnlimited;
    }
    return rng_.uniform_int(1, static_cast<std::int64_t>(cpus_) * 120'000);
  }

  /// Every cgroup's effective cpuset must stay non-empty: a pod's mask always
  /// covers its children's own masks, and a leaf's own mask is drawn inside
  /// its pod's.
  CpuSet pod_mask(cgroup::CgroupId pod) {
    if (rng_.chance(0.3)) {
      return CpuSet{};
    }
    CpuSet mask = random_mask(CpuSet::all(cpus_));
    for (const Leaf& leaf : leaves_) {
      if (leaf.alive && leaf.parent == pod) {
        mask = mask | real_tree_.get(leaf.id).cpu().cpuset;
      }
    }
    return mask;
  }

  CpuSet leaf_mask(const Leaf& leaf) {
    if (rng_.chance(0.4)) {
      return CpuSet{};
    }
    return random_mask(real_tree_.effective_cpuset(leaf.parent));
  }

  void randomize(cgroup::CgroupId id) {
    const auto shares = random_shares();
    const auto quota = random_quota();
    const auto period = rng_.uniform_int(1000, 200'000);
    both([&](cgroup::Tree& t) {
      t.set_cpu_shares(id, shares);
      t.set_cfs_period(id, period);
      t.set_cfs_quota(id, quota);
    });
  }

  void add_leaf() {
    Leaf leaf;
    if (!pods_.empty() && rng_.chance(0.6)) {
      leaf.parent = pods_[random_index(pods_.size())];
    }
    leaf.id = create("leaf" + std::to_string(next_leaf_++), leaf.parent);
    randomize(leaf.id);
    const CpuSet mask = leaf_mask(leaf);
    both([&](cgroup::Tree& t) { t.set_cpuset(leaf.id, mask); });
    const int consumers = static_cast<int>(rng_.uniform_int(1, 3));
    for (int c = 0; c < consumers; ++c) {
      attach_consumer(leaf);
    }
    leaves_.push_back(std::move(leaf));
  }

  void attach_consumer(Leaf& leaf) {
    const int threads = static_cast<int>(rng_.uniform_int(0, cpus_ + 2));
    leaf.real.push_back(std::make_unique<FakeConsumer>(threads));
    leaf.ref.push_back(std::make_unique<FakeConsumer>(threads));
    real_.attach(leaf.id, leaf.real.back().get());
    ref_.attach(leaf.id, leaf.ref.back().get());
  }

  /// Detaches and drops the newest consumer of a random live leaf.
  void detach_consumer() {
    Leaf* leaf = random_live_leaf();
    if (leaf == nullptr || leaf->real.empty()) {
      return;
    }
    real_.detach(leaf->id, leaf->real.back().get());
    ref_.detach(leaf->id, leaf->ref.back().get());
    leaf->real.pop_back();
    leaf->ref.pop_back();
  }

  Leaf* random_live_leaf() {
    std::vector<Leaf*> live;
    for (Leaf& leaf : leaves_) {
      if (leaf.alive) {
        live.push_back(&leaf);
      }
    }
    if (live.empty()) {
      return nullptr;
    }
    return live[random_index(live.size())];
  }

  /// A random live cgroup: a leaf or, as often as not, a pod (an ancestor).
  cgroup::CgroupId random_target() {
    if (!pods_.empty() && rng_.chance(0.5)) {
      return pods_[random_index(pods_.size())];
    }
    const Leaf* leaf = random_live_leaf();
    return leaf == nullptr ? -1 : leaf->id;
  }

  void perturb() {
    for (Leaf& leaf : leaves_) {
      for (std::size_t c = 0; c < leaf.real.size(); ++c) {
        if (rng_.chance(0.3)) {
          const int threads = static_cast<int>(rng_.uniform_int(0, cpus_ + 2));
          leaf.real[c]->set_threads(threads);
          leaf.ref[c]->set_threads(threads);
        }
      }
    }
    if (rng_.chance(0.05)) {
      write_shares();
    }
    if (rng_.chance(0.05)) {
      write_quota();
    }
    if (rng_.chance(0.03)) {
      if (const auto id = random_target(); id >= 0) {
        const auto period = rng_.uniform_int(1000, 200'000);
        both([&](cgroup::Tree& t) { t.set_cfs_period(id, period); });
      }
    }
    if (rng_.chance(0.05)) {
      write_cpuset();
    }
    if (rng_.chance(0.02)) {
      add_leaf();
    }
    if (rng_.chance(0.015)) {
      if (Leaf* leaf = random_live_leaf(); leaf != nullptr) {
        // Half the time the consumers stay attached to the dead cgroup.
        if (rng_.chance(0.5)) {
          for (std::size_t c = 0; c < leaf->real.size(); ++c) {
            real_.detach(leaf->id, leaf->real[c].get());
            ref_.detach(leaf->id, leaf->ref[c].get());
          }
        }
        both([&](cgroup::Tree& t) { t.destroy(leaf->id); });
        leaf->alive = false;
      }
    }
  }

  void write_shares() {
    if (const auto id = random_target(); id >= 0) {
      const auto shares = random_shares();
      both([&](cgroup::Tree& t) { t.set_cpu_shares(id, shares); });
    }
  }

  void write_quota() {
    if (const auto id = random_target(); id >= 0) {
      const auto quota = random_quota();
      both([&](cgroup::Tree& t) { t.set_cfs_quota(id, quota); });
    }
  }

  void write_cpuset() {
    const auto id = random_target();
    const auto pod = std::find(pods_.begin(), pods_.end(), id);
    if (pod != pods_.end()) {
      const CpuSet mask = pod_mask(id);
      both([&](cgroup::Tree& t) { t.set_cpuset(id, mask); });
    } else if (Leaf* leaf = random_live_leaf(); leaf != nullptr) {
      const CpuSet mask = leaf_mask(*leaf);
      both([&](cgroup::Tree& t) { t.set_cpuset(leaf->id, mask); });
    }
  }

  ::testing::AssertionResult compare() const {
    if (real_.total_slack() != ref_.total_slack() ||
        real_.last_tick_slack() != ref_.last_tick_slack() ||
        real_.nr_running() != ref_.nr_running() || real_.loadavg() != ref_.loadavg()) {
      return ::testing::AssertionFailure()
             << "host-wide: total_slack " << real_.total_slack() << " vs "
             << ref_.total_slack() << ", last_tick_slack " << real_.last_tick_slack()
             << " vs " << ref_.last_tick_slack() << ", nr_running "
             << real_.nr_running() << " vs " << ref_.nr_running();
    }
    for (const Leaf& leaf : leaves_) {
      const EntityStats a = real_.stats(leaf.id);
      const EntityStats b = ref_.stats(leaf.id);
      if (a.last_tick_grant != b.last_tick_grant || a.total_usage != b.total_usage ||
          a.throttled_time != b.throttled_time) {
        return ::testing::AssertionFailure()
               << "cgroup " << leaf.id << ": last_tick_grant " << a.last_tick_grant
               << " vs " << b.last_tick_grant << ", total_usage " << a.total_usage
               << " vs " << b.total_usage << ", throttled_time " << a.throttled_time
               << " vs " << b.throttled_time;
      }
      for (std::size_t c = 0; c < leaf.real.size(); ++c) {
        if (leaf.real[c]->total() != leaf.ref[c]->total()) {
          return ::testing::AssertionFailure()
                 << "cgroup " << leaf.id << " consumer " << c << ": "
                 << leaf.real[c]->total() << " vs " << leaf.ref[c]->total();
        }
      }
    }
    return ::testing::AssertionSuccess();
  }

  int cpus_;
  Rng rng_;
  cgroup::Tree real_tree_;
  cgroup::Tree ref_tree_;
  FairScheduler real_;
  ReferenceScheduler ref_;
  std::vector<cgroup::CgroupId> pods_;
  std::vector<Leaf> leaves_;
  int next_leaf_ = 0;
};

/// The reference's coverage counters, summed over seeds.
struct Coverage {
  long extra_rounds = 0;
  long satisfied_mid_round = 0;
};

/// Steps `seeds` random scripts of `ticks` ticks on `cpus` CPUs, stopping at
/// the first mismatch.
Coverage run_oracle(int cpus, std::uint64_t first_seed, int seeds, int ticks) {
  Coverage coverage;
  for (int k = 0; k < seeds; ++k) {
    const std::uint64_t seed = first_seed + static_cast<std::uint64_t>(k);
    Lockstep world(cpus, seed);
    for (int t = 1; t <= ticks; ++t) {
      const auto result = world.step(t * msec);
      if (!result) {
        ADD_FAILURE() << "cpus " << cpus << " seed " << seed << " tick " << t << ": "
                      << result.message();
        return coverage;
      }
    }
    coverage.extra_rounds += world.reference().extra_rounds();
    coverage.satisfied_mid_round += world.reference().satisfied_mid_round();
  }
  return coverage;
}

TEST(WaterFillOracle, MatchesReferenceOnSmallHosts) {
  for (const int cpus : {1, 2, 3, 4, 7, 8}) {
    const Coverage coverage = run_oracle(cpus, 1, 12, 400);
    if (cpus > 1) {
      EXPECT_GT(coverage.satisfied_mid_round, 0) << "cpus " << cpus;
    }
  }
}

TEST(WaterFillOracle, MatchesReferenceOnPaperSizedHosts) {
  for (const int cpus : {16, 20}) {
    const Coverage coverage = run_oracle(cpus, 100, 12, 400);
    EXPECT_GT(coverage.extra_rounds, 0) << "cpus " << cpus;
    EXPECT_GT(coverage.satisfied_mid_round, 0) << "cpus " << cpus;
  }
}

TEST(WaterFillOracle, MatchesReferenceAcrossMaskWords) {
  // Masks spanning several 64-bit words of the CpuSet bitset.
  for (const int cpus : {65, 130}) {
    const Coverage coverage = run_oracle(cpus, 200, 4, 200);
    EXPECT_GT(coverage.satisfied_mid_round, 0) << "cpus " << cpus;
  }
}

TEST(WaterFillOracle, MemoMatchesReferenceThroughSteadyStretches) {
  // Long stretches with nothing changing, broken by one change of each kind.
  using Change = Lockstep::Change;
  constexpr int kTicks = 1200;
  const std::map<int, Change> script = {
      {150, Change::kShares}, {350, Change::kCpuset}, {550, Change::kQuota},
      {750, Change::kAttach}, {950, Change::kDetach}};
  for (const int cpus : {4, 20}) {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    for (std::uint64_t seed = 300; seed < 316; ++seed) {
      Lockstep world(cpus, seed);
      for (int t = 1; t <= kTicks; ++t) {
        const auto it = script.find(t);
        const auto result =
            world.step_steady(t * msec, it == script.end() ? Change::kNone : it->second);
        ASSERT_TRUE(result) << "cpus " << cpus << " seed " << seed << " tick " << t
                            << ": " << result.message();
      }
      hits += world.scheduler().fill_memo_hits();
      misses += world.scheduler().fill_memo_misses();
    }
    EXPECT_GT(hits, 0u) << "cpus " << cpus;
    EXPECT_GT(misses, 0u) << "cpus " << cpus;
  }
}

}  // namespace
}  // namespace arv::sched
