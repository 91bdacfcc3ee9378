// FleetView battery (`ctest -L fleetview`): the shared cluster snapshot must
// be invisible in every observable. The same fleet — profile placement, all
// control loops on — is replayed with the idle-host skip on and off and must
// produce byte-identical traces (bar the skip counter's own column) *and*
// byte-identical /sys/arv/fleet/ renders; the incremental dirty-row refresh
// must equal a forced full re-observe and the fully stepped twin tick by
// tick; the generation must advance only on content change so pseudo-file
// renders cache; and a serial-phase probe pins that components always read a
// snapshot standing at cluster time.
#include "src/cluster/fleet_view.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/autoscale.h"
#include "src/cluster/cluster.h"
#include "src/cluster/faults.h"
#include "src/cluster/pod_workloads.h"
#include "src/cluster/profile.h"
#include "src/cluster/router.h"
#include "src/container/host.h"
#include "src/harness/scenario.h"
#include "tests/testing/trace_csv.h"

namespace arv::cluster {
namespace {

using namespace arv::units;

int sweep_iterations() {
  const char* env = std::getenv("ARV_CHAOS_ITERS");
  if (env == nullptr) {
    return 2;
  }
  const int iters = std::atoi(env);
  return iters > 0 ? iters : 2;
}

container::K8sResources res(std::int64_t millicpu, Bytes memory) {
  container::K8sResources r;
  r.request_millicpu = millicpu;
  r.request_memory = memory;
  return r;
}

container::HostConfig small_host(int cpus = 4, Bytes ram = 8 * GiB) {
  container::HostConfig config;
  config.cpus = cpus;
  config.ram = ram;
  return config;
}

HostView idle_view(int index, std::int64_t capacity_millicpu = 4000,
                   Bytes capacity_memory = 8 * GiB) {
  HostView view;
  view.index = index;
  view.capacity_millicpu = capacity_millicpu;
  view.capacity_memory = capacity_memory;
  view.slack_millicpu = capacity_millicpu;
  view.free_memory = capacity_memory;
  return view;
}

// --- snapshot-object units --------------------------------------------------

TEST(FleetView, FromHostsWrapsHandBuiltViews) {
  const FleetView fleet = FleetView::from_hosts({idle_view(0), idle_view(1)});
  EXPECT_EQ(fleet.host_count(), 2);
  EXPECT_EQ(fleet.pod_count(), 0);
  EXPECT_EQ(fleet.hosts[1].index, 1);
  EXPECT_EQ(fleet.service_name(-1), "?");
}

TEST(FleetView, ClaimChargesTheHostAndAddsASyntheticRow) {
  FleetView fleet = FleetView::from_hosts({idle_view(0)});
  PodSpec spec;
  spec.name = "web-0";
  spec.service = "web";
  spec.resources = res(1000, 1 * GiB);
  fleet.claim(0, spec);
  const HostView& view = fleet.hosts[0];
  EXPECT_EQ(view.requested_millicpu, 1000);
  EXPECT_EQ(view.requested_memory, 1 * GiB);
  EXPECT_EQ(view.slack_millicpu, 3000);
  EXPECT_EQ(view.free_memory, 7 * GiB);
  EXPECT_EQ(view.pods, 1);
  ASSERT_EQ(fleet.pod_count(), 1);
  const PodRow& row = fleet.pods[0];
  EXPECT_EQ(row.id, -1);  // synthetic: not a real pod yet
  EXPECT_EQ(row.host, 0);
  EXPECT_TRUE(row.running);
  EXPECT_EQ(fleet.service_name(row.service), "web");
}

TEST(FleetView, ReserveDeductsOnlyObservedAxes) {
  FleetView fleet = FleetView::from_hosts({idle_view(0)});
  fleet.reserve(0, res(1500, 2 * GiB));
  const HostView& view = fleet.hosts[0];
  EXPECT_EQ(view.slack_millicpu, 2500);
  EXPECT_EQ(view.free_memory, 6 * GiB);
  EXPECT_EQ(view.requested_millicpu, 0);  // ledger untouched
  EXPECT_EQ(view.pods, 0);
  // Deductions clamp at zero — an over-reserve never goes negative.
  fleet.reserve(0, res(1000000, 1024 * GiB));
  EXPECT_EQ(fleet.hosts[0].slack_millicpu, 0);
  EXPECT_EQ(fleet.hosts[0].free_memory, 0);
}

TEST(FleetView, SameContentIgnoresGenerationAndTimestamp) {
  FleetView a = FleetView::from_hosts({idle_view(0)});
  FleetView b = FleetView::from_hosts({idle_view(0)});
  b.generation = 42;
  b.at = 1 * sec;
  EXPECT_TRUE(a.same_content(b));
  b.hosts[0].slack_millicpu -= 1;
  EXPECT_FALSE(a.same_content(b));
}

TEST(FleetViewDiff, ReportsAddedRemovedAndMovedPods) {
  FleetView prev = FleetView::from_hosts({idle_view(0), idle_view(1)});
  FleetView cur = prev;
  auto row = [](int id, int host) {
    PodRow r;
    r.id = id;
    r.host = host;
    r.running = host >= 0;
    return r;
  };
  prev.pods = {row(0, 0), row(1, 0), row(2, 1)};
  prev.generation = 7;
  cur.pods = {row(0, 1), row(1, -1), row(2, 1), row(3, 0)};
  cur.generation = 9;
  const FleetViewDiff diff = cur.diff(prev);
  EXPECT_EQ(diff.from, 7u);
  EXPECT_EQ(diff.to, 9u);
  EXPECT_EQ(diff.added, std::vector<int>{3});
  EXPECT_EQ(diff.removed, std::vector<int>{1});
  ASSERT_EQ(diff.moved.size(), 1u);
  EXPECT_EQ(diff.moved[0], (PodMove{0, 0, 1}));
  EXPECT_TRUE(diff.hosts.empty()) << "zero-delta hosts must be omitted";
  EXPECT_FALSE(diff.empty());
  const std::string rendered = diff.render();
  EXPECT_NE(rendered.find("+pod3"), std::string::npos);
  EXPECT_NE(rendered.find("-pod1"), std::string::npos);
  EXPECT_NE(rendered.find("pod0 h0->h1"), std::string::npos);
}

TEST(FleetViewDiff, IdenticalSnapshotsDiffEmpty) {
  FleetView fleet = FleetView::from_hosts({idle_view(0)});
  EXPECT_TRUE(fleet.diff(fleet).empty());
}

// --- generation + render caching --------------------------------------------

TEST(FleetViewGeneration, StableOnAnIdleFleet) {
  Cluster cluster;
  cluster.add_host(small_host());
  cluster.add_host(small_host());
  cluster.run_for(300 * msec);
  const vfs::Generation settled = cluster.fleet_generation();
  EXPECT_GT(settled, 0u);  // the first refresh did publish content
  cluster.run_for(500 * msec);
  // Nothing moved: window rolls re-observe rows but the content — and hence
  // the generation — must not change.
  EXPECT_EQ(cluster.fleet_generation(), settled);
}

TEST(FleetViewGeneration, AdvancesWhenAPodLands) {
  Cluster cluster;
  cluster.add_host(small_host());
  cluster.run_for(100 * msec);
  const vfs::Generation before = cluster.fleet_generation();
  cluster.create_pod(0, {"web", res(500, 512 * MiB)},
                     cpu_hog_workload(1, 10 * sec));
  cluster.step();
  EXPECT_GT(cluster.fleet_generation(), before);
}

TEST(FleetViewGeneration, RowsAreReusedForQuiescentHosts) {
  ClusterConfig config;
  config.skip_idle_hosts = true;
  Cluster cluster(config);
  for (int i = 0; i < 4; ++i) {
    cluster.add_host(small_host());
  }
  cluster.create_pod(0, {"hog", res(500, 512 * MiB)},
                     cpu_hog_workload(1, 60 * sec));
  cluster.run_for(500 * msec);
  // Three of four hosts never receive work; their rows must have been copied
  // forward, not re-observed, on (nearly) every refresh.
  EXPECT_GT(cluster.fleet_rows_reused(), 0u);
}

TEST(FleetViewGeneration, RowsReusedCountsEveryRowOutsideTheRebuiltSet) {
  Cluster cluster;  // skip on, 100 ms window
  for (int i = 0; i < 4; ++i) {
    cluster.add_host(small_host());
  }
  cluster.create_pod(0, {"hog-0", res(500, 512 * MiB)},
                     cpu_hog_workload(1, 60 * sec));
  cluster.run_for(150 * msec);  // h1..h3 frozen, mid-window
  auto reused_by_step = [&cluster] {
    const std::uint64_t before = cluster.fleet_rows_reused();
    cluster.step();
    return cluster.fleet_rows_reused() - before;
  };
  // Only h0 stepped: its row and its pod's are re-observed.
  EXPECT_EQ(reused_by_step(), 3u);
  // A new pod re-observes its host (touched, now stepping) and is built;
  // the frozen hosts' rows stay.
  const int pod = cluster.create_pod(1, {"hog-1", res(500, 512 * MiB)},
                                     cpu_hog_workload(1, 60 * sec));
  EXPECT_EQ(reused_by_step(), 2u);
  // Stopping it touches h1: both pods are filed under rebuilt hosts.
  cluster.stop_pod(pod);
  EXPECT_EQ(reused_by_step(), 2u);
  // A window roll re-observes every host and every placed pod; only the
  // stopped pod's row is kept.
  cluster.run_for(200 * msec - cluster.now() - 1 * msec);
  EXPECT_EQ(reused_by_step(), 1u);
  EXPECT_EQ(cluster.now(), 200 * msec);
}

TEST(FleetViewFiles, RenderAndCacheOnTheGeneration) {
  harness::FleetScenario fleet;
  fleet.add_host(small_host());
  fleet.place_pod("effective", res(500, 512 * MiB),
                  cpu_hog_workload(1, 60 * sec));
  fleet.run(200 * msec);
  Cluster& cluster = fleet.cluster();
  const vfs::PseudoFs& fs = cluster.host(0).sysfs().host_fs();

  const auto generation = fs.read("/sys/arv/fleet/generation");
  ASSERT_TRUE(generation.has_value());
  EXPECT_EQ(*generation,
            std::to_string(cluster.fleet_generation()) + "\n");

  const auto hosts = fs.read("/sys/arv/fleet/hosts");
  ASSERT_TRUE(hosts.has_value());
  EXPECT_NE(hosts->find("generation"), std::string::npos);
  const auto pods = fs.read("/sys/arv/fleet/pods");
  ASSERT_TRUE(pods.has_value());
  EXPECT_NE(pods->find("pod0"), std::string::npos);

  // Re-reading without a generation change must serve the cached render.
  const std::uint64_t hits = fs.render_cache_hits();
  EXPECT_EQ(fs.read("/sys/arv/fleet/hosts"), hosts);
  EXPECT_EQ(fs.read("/sys/arv/fleet/pods"), pods);
  EXPECT_GE(fs.render_cache_hits(), hits + 2);

  // An idle stretch: the generation holds, so renders stay cached.
  fleet.run(300 * msec);
  const std::uint64_t idle_hits = fs.render_cache_hits();
  EXPECT_EQ(*fs.read("/sys/arv/fleet/generation"),
            std::to_string(cluster.fleet_generation()) + "\n");
  EXPECT_GE(fs.render_cache_hits(), idle_hits + 1);
}

TEST(FleetViewFiles, DiffFileReportsTheChangeThatMadeTheGeneration) {
  harness::FleetScenario fleet;
  fleet.add_host(small_host());
  fleet.add_host(small_host());
  fleet.run(100 * msec);
  const int pod = fleet.place_pod("effective", res(500, 512 * MiB),
                                  cpu_hog_workload(1, 60 * sec));
  ASSERT_GE(pod, 0);
  // Read right after the landing tick: the diff renders against the snapshot
  // published at the previous boundary, so this is the generation whose
  // change *is* the landing. (Later generations — window rolls, memory
  // charges — publish their own deltas and the landing scrolls out.)
  Cluster& cluster = fleet.cluster();
  cluster.step();
  const auto diff = cluster.host(0).sysfs().host_fs().read("/sys/arv/fleet/diff");
  ASSERT_TRUE(diff.has_value());
  EXPECT_NE(diff->find("+pod" + std::to_string(pod)), std::string::npos);
}

// --- incremental refresh vs full re-observe ---------------------------------

/// Forces a full row re-observe plus a mid-tick refresh every component
/// round. If copying rows of provably-unchanged hosts ever diverged from
/// re-observing them, a fleet running this spy would trace differently from
/// one without it.
class FullRebuildSpy final : public sim::TickComponent {
 public:
  explicit FullRebuildSpy(Cluster& cluster) : cluster_(cluster) {}

  void tick(SimTime now, SimDuration /*dt*/) override {
    cluster_.invalidate_fleet_view();
    const FleetView& fleet = cluster_.fleet_view();
    EXPECT_EQ(fleet.at, now);
    EXPECT_GE(fleet.generation, last_generation_);
    last_generation_ = fleet.generation;
  }
  std::string name() const override { return "test.full_rebuild_spy"; }
  SimDuration tick_period() const override { return 0; }

 private:
  Cluster& cluster_;
  vfs::Generation last_generation_ = 0;
};

struct SweepResult {
  std::string trace;  ///< without the cluster.hosts_skipped column
  std::string hosts_render;
  std::string pods_render;
  vfs::Generation generation = 0;
  std::uint64_t rows_reused = 0;
  std::uint64_t migrations = 0;
  std::uint64_t routed = 0;
};

SweepResult run_sweep_fleet(bool skip_idle_hosts,
                            bool full_rebuild_every_round,
                            std::uint64_t chaos_seed = 0) {
  ClusterConfig config;
  config.seed = 42;
  config.enable_tracing = true;
  config.trace_interval = 10 * msec;
  config.skip_idle_hosts = skip_idle_hosts;
  harness::FleetScenario fleet(config);
  for (int i = 0; i < 4; ++i) {
    fleet.add_host(small_host());
  }
  fleet.enable_router(250.0);
  fleet.enable_recovery();
  RebalanceConfig rebalance;
  rebalance.period = 250 * msec;
  fleet.enable_rebalancer(rebalance);
  ProfileConfig profiles;
  profiles.period = 50 * msec;
  profiles.window_rounds = 16;
  profiles.min_samples = 4;
  fleet.enable_profiles(profiles);
  fleet.use_placement("profile");

  Cluster& cluster = fleet.cluster();
  FullRebuildSpy spy(cluster);
  if (full_rebuild_every_round) {
    cluster.add_component(&spy);
  }
  server::WebConfig web;
  web.service_cpu = 6 * msec;
  web.max_queue = 100;
  for (int i = 0; i < 2; ++i) {
    EXPECT_GE(fleet.place_web_pod(res(1000, 1 * GiB), web), 0);
  }
  EXPECT_GE(fleet.place_pod(res(500, 512 * MiB),
                            cpu_hog_workload(1, 60 * sec)),
            0);
  if (chaos_seed != 0) {
    Rng chaos_rng(chaos_seed);
    ChaosOptions chaos;
    chaos.horizon = 1 * sec;
    fleet.enable_faults(
        FaultPlan::random(chaos_rng, chaos, 4, cluster.pod_count()));
  }
  fleet.run(2 * sec);

  SweepResult result;
  result.trace = arv::testing::without_skip_column(cluster.trace()->to_csv());
  const FleetView& final_view = cluster.fleet_view();
  result.hosts_render = final_view.render_hosts();
  result.pods_render = final_view.render_pods();
  result.generation = cluster.fleet_generation();
  result.rows_reused = cluster.fleet_rows_reused();
  result.migrations = cluster.migrations();
  result.routed = fleet.router()->routed();
  return result;
}

TEST(FleetViewDeterminism, ByteIdenticalWithIdleSkipOnAndOff) {
  const SweepResult stepped = run_sweep_fleet(/*skip_idle_hosts=*/false, false);
  ASSERT_FALSE(stepped.trace.empty());
  ASSERT_FALSE(stepped.hosts_render.empty());
  const SweepResult skipped = run_sweep_fleet(/*skip_idle_hosts=*/true, false);
  EXPECT_EQ(stepped.trace, skipped.trace);
  EXPECT_EQ(stepped.hosts_render, skipped.hosts_render);
  EXPECT_EQ(stepped.pods_render, skipped.pods_render);
  EXPECT_EQ(stepped.generation, skipped.generation);
  EXPECT_EQ(stepped.migrations, skipped.migrations);
  EXPECT_EQ(stepped.routed, skipped.routed);
  // rows_reused is not compared: frozen hosts' rows are copied, so the
  // count legitimately grows with the skip on.
}

TEST(FleetViewDeterminism, IncrementalRefreshEqualsFullRebuild) {
  // Same fleet, one run copying rows of provably-unchanged hosts, the other
  // forced to re-observe every row every round. Every observable — trace
  // included — must match; only the reuse counter itself may differ.
  const SweepResult incremental = run_sweep_fleet(true, false);
  const SweepResult full = run_sweep_fleet(true, true);
  EXPECT_EQ(incremental.trace, full.trace);
  EXPECT_EQ(incremental.hosts_render, full.hosts_render);
  EXPECT_EQ(incremental.pods_render, full.pods_render);
  EXPECT_EQ(incremental.generation, full.generation);
  EXPECT_EQ(incremental.migrations, full.migrations);
  EXPECT_EQ(incremental.routed, full.routed);
  // Both runs reuse rows at refresh boundaries (the exact counts differ —
  // the spy's mid-round rebuild absorbs profile invalidations the plain run
  // pays for at its next boundary); what matters is the path is exercised.
  EXPECT_GT(incremental.rows_reused, 0u);
  EXPECT_GT(full.rows_reused, 0u);
}

TEST(FleetViewDeterminism, ChaosFleetsAreIdenticalWithIdleSkipOnAndOff) {
  const int iters = sweep_iterations();
  for (int i = 0; i < iters; ++i) {
    const std::uint64_t seed = 0xf1ee7u + static_cast<std::uint64_t>(i);
    SCOPED_TRACE("chaos seed " + std::to_string(seed));
    const SweepResult stepped = run_sweep_fleet(false, false, seed);
    const SweepResult skipped = run_sweep_fleet(true, false, seed);
    EXPECT_EQ(stepped.trace, skipped.trace);
    EXPECT_EQ(stepped.hosts_render, skipped.hosts_render);
    EXPECT_EQ(stepped.pods_render, skipped.pods_render);
    EXPECT_EQ(stepped.generation, skipped.generation);
    EXPECT_EQ(stepped.migrations, skipped.migrations);
  }
}

// --- incremental refresh vs the fully stepped twin --------------------------

enum class TwinFleet { kChaos, kAutoscale, kProfile };

/// One of the twin fleets: every fleet parks idle hosts for the skip to
/// freeze, and every one churns pods — faults and failover, autoscaler scale
/// up/down with the CA (un)cordoning parked hosts, or profile placement with
/// profile rounds invalidating the snapshot.
std::unique_ptr<harness::FleetScenario> build_twin(TwinFleet kind,
                                                   bool skip_idle_hosts) {
  ClusterConfig config;
  config.seed = 42;
  config.skip_idle_hosts = skip_idle_hosts;
  auto fleet = std::make_unique<harness::FleetScenario>(config);
  const int hosts = 6;
  for (int i = 0; i < hosts; ++i) {
    fleet->add_host(small_host());
  }
  Cluster& cluster = fleet->cluster();
  server::WebConfig web;
  web.service_cpu = 6 * msec;
  web.max_queue = 100;
  switch (kind) {
    case TwinFleet::kChaos: {
      fleet->enable_router(300.0);
      DetectorConfig detector;
      detector.period = 100 * msec;
      detector.miss_threshold = 2;
      fleet->enable_recovery(detector);
      RebalanceConfig rebalance;
      rebalance.period = 250 * msec;
      fleet->enable_rebalancer(rebalance);
      for (int h = 0; h < 2; ++h) {
        const int pod = cluster.create_pod(
            h, {"web-" + std::to_string(h), res(1000, 1 * GiB)},
            web_replica(web));
        EXPECT_TRUE(fleet->router()->add_replica(pod));
      }
      cluster.create_pod(0, {"hog", res(500, 512 * MiB)},
                         cpu_hog_workload(1, 60 * sec));
      Rng chaos_rng(0xf1ee7u);
      ChaosOptions chaos;
      chaos.horizon = 1 * sec;
      fleet->enable_faults(
          FaultPlan::random(chaos_rng, chaos, hosts, cluster.pod_count()));
      break;
    }
    case TwinFleet::kAutoscale: {
      for (int h = 3; h < hosts; ++h) {
        cluster.cordon_host(h, true);  // parked for the CA to grow into
      }
      RouterConfig router;
      router.arrivals_per_sec = 1500;
      router.max_retries = 2;
      fleet->enable_router(router);
      fleet->enable_recovery();
      PodSpec replica;
      replica.name = "web";
      replica.resources = res(1000, 1 * GiB);
      replica.cpu_mode = CpuMode::kBurstable;
      HpaConfig hpa;
      hpa.period = 250 * msec;
      hpa.min_replicas = 2;
      hpa.max_replicas = 6;
      hpa.request_cpu = 6 * msec;
      hpa.up_stabilization = 250 * msec;
      hpa.down_stabilization = 1 * sec;
      fleet->enable_hpa(replica, web, hpa);
      for (int h = 0; h < 2; ++h) {
        PodSpec seed = replica;
        seed.name = "web-seed-" + std::to_string(h);
        const int pod = cluster.create_pod(h, seed, web_replica(web));
        EXPECT_TRUE(fleet->router()->add_replica(pod));
        fleet->hpa()->adopt(pod);
      }
      VpaConfig vpa;
      vpa.period = 100 * msec;
      vpa.window_rounds = 10;
      vpa.recommend_every = 5;
      fleet->enable_vpa(vpa);
      CaConfig ca;
      ca.period = 500 * msec;
      ca.min_hosts = 1;
      ca.band_rounds = 2;
      ca.cooldown = 500 * msec;
      fleet->enable_cluster_autoscaler(ca);
      break;
    }
    case TwinFleet::kProfile: {
      fleet->enable_router(250.0);
      fleet->enable_recovery();
      RebalanceConfig rebalance;
      rebalance.period = 250 * msec;
      fleet->enable_rebalancer(rebalance);
      ProfileConfig profiles;
      profiles.period = 50 * msec;
      profiles.window_rounds = 16;
      profiles.min_samples = 4;
      fleet->enable_profiles(profiles);
      fleet->use_placement("profile");
      for (int i = 0; i < 2; ++i) {
        EXPECT_GE(fleet->place_web_pod(res(1000, 1 * GiB), web), 0);
      }
      EXPECT_GE(fleet->place_pod(res(500, 512 * MiB),
                                 cpu_hog_workload(1, 60 * sec)),
                0);
      break;
    }
  }
  return fleet;
}

/// Steps a skip-on fleet and its fully stepped twin side by side. After
/// every step the incrementally refreshed snapshot, the previous-boundary
/// snapshot and the diff file must match the twin's (whose every refresh
/// re-observes every row), and the previous-boundary snapshot must be what
/// fleet_view() returned at the end of the tick before. Every 50 ticks a
/// forced full re-observe of the same cluster must change nothing. At tick
/// 700 both twins migrate a pod, so every fleet re-files rows at least once.
void expect_twins_agree(TwinFleet kind) {
  const auto on = build_twin(kind, true);
  const auto off = build_twin(kind, false);
  Cluster& a = on->cluster();
  Cluster& b = off->cluster();
  const vfs::PseudoFs& fs_a = a.host(0).sysfs().host_fs();
  const vfs::PseudoFs& fs_b = b.host(0).sysfs().host_fs();
  FleetView seen_a = a.fleet_view();
  b.fleet_view();
  for (int tick = 1; tick <= 2000; ++tick) {
    SCOPED_TRACE("tick " + std::to_string(tick));
    if (tick == 700) {
      // A migration on top of the fleet's own churn: the first running pod
      // moves to the last up host that does not hold it.
      int pod = 0;
      while (!a.pod(pod).running()) {
        ++pod;
      }
      int target = a.host_count() - 1;
      while (!a.host_up(target) || target == a.pod(pod).host) {
        --target;
      }
      a.migrate_pod(pod, target);
      b.migrate_pod(pod, target);
    }
    a.step();
    b.step();
    const FleetView& prev_a = a.previous_fleet_view();
    ASSERT_TRUE(prev_a.same_content(seen_a));
    ASSERT_EQ(prev_a.generation, seen_a.generation);
    ASSERT_TRUE(prev_a.same_content(b.previous_fleet_view()));
    const FleetView& view_a = a.fleet_view();
    const FleetView& view_b = b.fleet_view();
    ASSERT_TRUE(view_a.same_content(view_b));
    ASSERT_EQ(view_a.generation, view_b.generation);
    ASSERT_EQ(fs_a.read("/sys/arv/fleet/diff"),
              fs_b.read("/sys/arv/fleet/diff"));
    if (tick % 50 == 0) {
      for (Cluster* cluster : {&a, &b}) {
        const FleetView incremental = cluster->fleet_view();
        const vfs::Generation generation = cluster->fleet_generation();
        cluster->invalidate_fleet_view();
        ASSERT_TRUE(cluster->fleet_view().same_content(incremental));
        ASSERT_EQ(cluster->fleet_generation(), generation);
      }
    }
    seen_a = a.fleet_view();
  }
  EXPECT_GT(a.fleet_generation(), 10u);
  EXPECT_EQ(a.migrations(), 1u);
  EXPECT_GT(a.hosts_skipped(), 0u);
  EXPECT_EQ(b.hosts_skipped(), 0u);
  EXPECT_GT(a.fleet_rows_reused(), b.fleet_rows_reused());
}

TEST(FleetViewIncremental, ChaosFleetMatchesTheSteppedTwin) {
  expect_twins_agree(TwinFleet::kChaos);
}

TEST(FleetViewIncremental, AutoscaledFleetMatchesTheSteppedTwin) {
  expect_twins_agree(TwinFleet::kAutoscale);
}

TEST(FleetViewIncremental, ProfiledFleetMatchesTheSteppedTwin) {
  expect_twins_agree(TwinFleet::kProfile);
}

// --- serial-phase contract ----------------------------------------------------

/// Registered before the fault machinery: at every component round the
/// snapshot must stand exactly at cluster time, list every host, and carry a
/// well-formed CSR index — even right before a crash lands.
class SnapshotProbe final : public sim::TickComponent {
 public:
  explicit SnapshotProbe(Cluster& cluster) : cluster_(cluster) {}

  void tick(SimTime now, SimDuration /*dt*/) override {
    ++rounds_;
    const FleetView& fleet = cluster_.fleet_view();
    EXPECT_EQ(fleet.at, now);
    EXPECT_EQ(fleet.host_count(), cluster_.host_count());
    EXPECT_EQ(fleet.pod_count(), cluster_.pod_count());
    ASSERT_EQ(fleet.host_pod_offsets.size(),
              static_cast<std::size_t>(fleet.host_count() + 1));
    for (int h = 0; h < fleet.host_count(); ++h) {
      for (int i = fleet.host_pod_offsets[static_cast<std::size_t>(h)];
           i < fleet.host_pod_offsets[static_cast<std::size_t>(h) + 1]; ++i) {
        const int pod = fleet.host_pod_ids[static_cast<std::size_t>(i)];
        EXPECT_EQ(fleet.pods[static_cast<std::size_t>(pod)].host, h);
      }
    }
  }
  std::string name() const override { return "test.snapshot_probe"; }
  SimDuration tick_period() const override { return 0; }

  std::uint64_t rounds() const { return rounds_; }

 private:
  Cluster& cluster_;
  std::uint64_t rounds_ = 0;
};

TEST(FleetViewDeterminism, SnapshotIsCoherentEveryRoundUnderFaults) {
  ClusterConfig config;
  config.seed = 42;
  harness::FleetScenario fleet(config);
  for (int i = 0; i < 3; ++i) {
    fleet.add_host(small_host());
  }
  fleet.enable_router(150.0);
  fleet.enable_recovery();
  Cluster& cluster = fleet.cluster();
  SnapshotProbe probe(cluster);
  cluster.add_component(&probe);
  server::WebConfig web;
  web.service_cpu = 5 * msec;
  for (int h = 0; h < 2; ++h) {
    const int pod = cluster.create_pod(
        h, {"web-" + std::to_string(h), res(1000, 1 * GiB)}, web_replica(web));
    EXPECT_TRUE(fleet.router()->add_replica(pod));
  }
  FaultPlan plan;
  plan.add({FaultEvent::Kind::kPodCrash, 200 * msec, -1, 0, 0, 0, 0});
  plan.add({FaultEvent::Kind::kHostCrash, 300 * msec, 1, -1, 500 * msec, 0, 0});
  fleet.enable_faults(plan);
  fleet.run(2 * sec);
  EXPECT_GT(probe.rounds(), 0u);
  EXPECT_TRUE(fleet.injector()->done());
  EXPECT_EQ(cluster.host_crashes(), 1u);
}

}  // namespace
}  // namespace arv::cluster
