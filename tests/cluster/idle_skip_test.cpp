// Idle-skip battery (`ctest -L idle_skip`): the cluster's quiescence fast
// path must be invisible in every observable. Fleets — golden and
// randomized, calm and under fault chaos — are replayed with the idle-host
// skip on and off; traces must come out byte-identical apart from the skip
// counter's own column, and every conservation counter equal. Each wake
// path (a serial-phase touch of a frozen host) must get the host re-judged
// on the next tick, and the window-roll audit must kill a run whose frozen
// host was mutated behind the cluster's back. Seed coverage scales with
// ARV_CHAOS_ITERS like the chaos suite.
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/faults.h"
#include "src/cluster/pod_workloads.h"
#include "src/cluster/recovery.h"
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
    return 3;
  }
  const int iters = std::atoi(env);
  return iters > 0 ? iters : 3;
}

container::K8sResources res(std::int64_t millicpu, Bytes memory) {
  container::K8sResources r;
  r.request_millicpu = millicpu;
  r.request_memory = memory;
  return r;
}

container::HostConfig small_host() {
  container::HostConfig config;
  config.cpus = 4;
  config.ram = 8 * GiB;
  return config;
}

/// Everything a run observably produces. Two runs of the same fleet must
/// compare equal on all of it but hosts_skipped, whatever the skip setting.
struct FleetResult {
  std::string trace;  ///< without the cluster.hosts_skipped column
  std::uint64_t hosts_skipped = 0;
  std::uint64_t migrations = 0;
  std::uint64_t pod_crashes = 0;
  std::uint64_t host_crashes = 0;
  std::uint64_t restarts = 0;
  std::uint64_t failovers = 0;
  std::uint64_t generated = 0;
  std::uint64_t routed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t unroutable = 0;
  std::uint64_t shed = 0;
  std::uint64_t completed = 0;
  std::vector<CpuTime> slack_totals;  ///< per host, analytic (no sync)
};

void expect_equal(const FleetResult& a, const FleetResult& b) {
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.pod_crashes, b.pod_crashes);
  EXPECT_EQ(a.host_crashes, b.host_crashes);
  EXPECT_EQ(a.restarts, b.restarts);
  EXPECT_EQ(a.failovers, b.failovers);
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.routed, b.routed);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.unroutable, b.unroutable);
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.slack_totals, b.slack_totals);
}

struct FleetOptions {
  bool skip_idle_hosts = true;
  int hosts = 4;
  int busy_hosts = 2;           ///< hosts that receive pods; the rest idle
  std::uint64_t chaos_seed = 0; ///< 0 = fault-free
  SimDuration run = 4 * sec;
};

/// One full fleet: router + recovery + rebalancer + web replicas and hogs on
/// the first `busy_hosts` hosts, optional randomized fault plan.
FleetResult run_fleet(const FleetOptions& options) {
  ClusterConfig config;
  config.seed = 42;
  config.enable_tracing = true;
  config.trace_interval = 10 * msec;
  config.skip_idle_hosts = options.skip_idle_hosts;
  harness::FleetScenario fleet(config);
  for (int i = 0; i < options.hosts; ++i) {
    fleet.add_host(small_host());
  }
  RouterConfig router;
  router.arrivals_per_sec = 300;
  router.max_retries = 2;
  fleet.enable_router(router);
  DetectorConfig detector;
  detector.period = 100 * msec;
  detector.miss_threshold = 2;
  RestartConfig restart;
  restart.period = 50 * msec;
  restart.backoff_base = 100 * msec;
  restart.backoff_cap = 1 * sec;
  fleet.enable_recovery(detector, restart);
  RebalanceConfig rebalance;
  rebalance.period = 250 * msec;
  fleet.enable_rebalancer(rebalance);

  Cluster& cluster = fleet.cluster();
  server::WebConfig web;
  web.service_cpu = 6 * msec;
  web.max_queue = 100;
  const int busy = std::min(options.busy_hosts, options.hosts);
  for (int h = 0; h < busy; ++h) {
    const int pod = cluster.create_pod(
        h, {"web-" + std::to_string(h), res(1000, 1 * GiB)}, web_replica(web));
    EXPECT_TRUE(fleet.router()->add_replica(pod));
  }
  cluster.create_pod(0, {"hog", res(500, 512 * MiB)},
                     cpu_hog_workload(1, 60 * sec));
  if (options.chaos_seed != 0) {
    Rng chaos_rng(options.chaos_seed);
    ChaosOptions chaos;
    chaos.horizon = options.run / 2;  // leave a recovery tail
    fleet.enable_faults(FaultPlan::random(chaos_rng, chaos, options.hosts,
                                          cluster.pod_count()));
  }
  fleet.run(options.run);

  FleetResult result;
  result.trace = arv::testing::without_skip_column(cluster.trace()->to_csv());
  result.hosts_skipped = cluster.hosts_skipped();
  result.migrations = cluster.migrations();
  result.pod_crashes = cluster.pod_crashes();
  result.host_crashes = cluster.host_crashes();
  result.restarts = cluster.restarts();
  result.failovers = cluster.failovers();
  const RequestRouter& r = *fleet.router();
  result.generated = r.generated();
  result.routed = r.routed();
  result.dropped = r.dropped();
  result.unroutable = r.unroutable();
  result.shed = r.shed();
  result.completed = r.aggregate().completed;
  // Request conservation must hold with the skip on and off, not only in the
  // default configuration the chaos suite verifies.
  EXPECT_EQ(result.generated,
            result.routed + result.dropped + result.unroutable + result.shed);
  for (int i = 0; i < cluster.host_count(); ++i) {
    result.slack_totals.push_back(cluster.host_slack_total(i));
  }
  return result;
}

// --- the golden sweep -------------------------------------------------------

TEST(IdleSkipDeterminism, GoldenFleetIsByteIdenticalWithIdleSkipOnAndOff) {
  FleetOptions options;
  options.skip_idle_hosts = false;
  const FleetResult reference = run_fleet(options);
  ASSERT_FALSE(reference.trace.empty());
  options.skip_idle_hosts = true;
  expect_equal(reference, run_fleet(options));
}

TEST(IdleSkipDeterminism, RandomizedFleetsAndFaultPlansAreIdenticalWithIdleSkipOnAndOff) {
  const int iters = sweep_iterations();
  for (int i = 0; i < iters; ++i) {
    const std::uint64_t seed = 0x9a7a11e1u + static_cast<std::uint64_t>(i);
    SCOPED_TRACE("sweep seed " + std::to_string(seed));
    FleetOptions options;
    // Fleet shape varies with the seed so the sweep covers different
    // host/pod/fault geometries, not one fixture many times.
    options.hosts = 3 + static_cast<int>(seed % 5);
    options.busy_hosts = 1 + static_cast<int>(seed % 3);
    options.chaos_seed = seed;
    options.skip_idle_hosts = false;
    const FleetResult reference = run_fleet(options);
    options.skip_idle_hosts = true;
    expect_equal(reference, run_fleet(options));
  }
}

// --- the quiescence fast path -----------------------------------------------

TEST(IdleSkipDeterminism, IdleHostSkipIsExact) {
  FleetOptions options;
  options.hosts = 12;
  options.busy_hosts = 2;
  options.skip_idle_hosts = true;
  const FleetResult on = run_fleet(options);
  options.skip_idle_hosts = false;
  const FleetResult off = run_fleet(options);
  // Ten of twelve hosts never receive work: the fast path must have fired
  // heavily with the skip on, and not at all with it off.
  EXPECT_GT(on.hosts_skipped, 0u);
  EXPECT_EQ(off.hosts_skipped, 0u);
  // Everything else — including per-host slack series for the frozen hosts
  // — must be identical; only the skip counter's own column may differ.
  expect_equal(on, off);
}

TEST(IdleSkipDeterminism, AdvanceIdleMatchesTickByTickExactly) {
  container::HostConfig config;
  config.cpus = 8;
  config.ram = 16 * GiB;
  container::Host stepped(config);
  container::Host jumped(config);
  ASSERT_TRUE(jumped.quiescent());
  const SimDuration span = 500 * msec;
  stepped.run_for(span);
  jumped.advance_idle(span);
  EXPECT_EQ(stepped.now(), jumped.now());
  EXPECT_EQ(stepped.engine().ticks_executed(), jumped.engine().ticks_executed());
  EXPECT_EQ(stepped.scheduler().total_slack(), jumped.scheduler().total_slack());
  EXPECT_EQ(stepped.scheduler().last_tick_slack(),
            jumped.scheduler().last_tick_slack());
  EXPECT_EQ(stepped.scheduler().nr_running(), jumped.scheduler().nr_running());
  // Bit-exact, not approximately equal: accrue_idle replays the loadavg
  // decay sample by sample so later arithmetic diverges nowhere.
  EXPECT_EQ(stepped.scheduler().loadavg(), jumped.scheduler().loadavg());
  EXPECT_EQ(stepped.memory().free_memory(), jumped.memory().free_memory());
}

// --- fault ordering vs the host phase ---------------------------------------

/// A serial-phase spy registered *before* the fault injector: at every
/// component round it demands that each host — through the syncing accessor,
/// the same single serialization point the fault machinery uses — stands
/// exactly at cluster time. If a frozen host ever reached the serial phases
/// without catching up, a crash fired right after this probe would observe
/// it lagging; this pins that it cannot.
class PhaseProbe final : public sim::TickComponent {
 public:
  explicit PhaseProbe(Cluster& cluster) : cluster_(cluster) {}

  void tick(SimTime now, SimDuration /*dt*/) override {
    ++rounds_;
    EXPECT_EQ(now, cluster_.now());
    for (int i = 0; i < cluster_.host_count(); ++i) {
      EXPECT_EQ(cluster_.host(i).now(), now) << "host " << i;
    }
  }
  std::string name() const override { return "test.phase_probe"; }
  SimDuration tick_period() const override { return 0; }

  std::uint64_t rounds() const { return rounds_; }

 private:
  Cluster& cluster_;
  std::uint64_t rounds_ = 0;
};

TEST(IdleSkipDeterminism, FaultsObserveFullySteppedHostsOnly) {
  auto run = [](bool skip_idle_hosts) {
    ClusterConfig config;
    config.seed = 42;
    config.enable_tracing = true;
    config.trace_interval = 10 * msec;
    config.skip_idle_hosts = skip_idle_hosts;
    harness::FleetScenario fleet(config);
    for (int i = 0; i < 4; ++i) {
      fleet.add_host(small_host());
    }
    fleet.enable_router(200.0);
    fleet.enable_recovery();
    Cluster& cluster = fleet.cluster();
    server::WebConfig web;
    web.service_cpu = 5 * msec;
    for (int h = 0; h < 2; ++h) {
      const int pod = cluster.create_pod(
          h, {"web-" + std::to_string(h), res(1000, 1 * GiB)},
          web_replica(web));
      EXPECT_TRUE(fleet.router()->add_replica(pod));
    }
    PhaseProbe probe(cluster);
    cluster.add_component(&probe);  // before the injector => runs first
    FaultPlan plan;
    plan.add({FaultEvent::Kind::kPodCrash, 200 * msec, -1, 0, 0, 0, 0});
    plan.add({FaultEvent::Kind::kHostCrash, 300 * msec, 1, -1, 500 * msec, 0, 0});
    plan.add({FaultEvent::Kind::kMonitorStall, 350 * msec, 3, -1, 200 * msec, 0, 0});
    plan.add({FaultEvent::Kind::kMemoryPressure, 400 * msec, 2, -1, 300 * msec, 0, 800});
    fleet.enable_faults(plan);
    fleet.run(2 * sec);
    EXPECT_GT(probe.rounds(), 0u);
    EXPECT_TRUE(fleet.injector()->done());
    EXPECT_EQ(cluster.host_crashes(), 1u);
    EXPECT_TRUE(cluster.host_up(1));  // rebooted
    return arv::testing::without_skip_column(cluster.trace()->to_csv());
  };
  // The probe syncs every host every tick; that must not perturb anything
  // (sync is an exact replay), so the run still matches the fully stepped
  // reference.
  const std::string skipped = run(true);
  const std::string stepped = run(false);
  EXPECT_EQ(skipped, stepped);
  EXPECT_FALSE(skipped.empty());
}

// --- the awake list: wake paths and the roll-time audit ---------------------

/// One cluster of the wake-path twins: h0 and h1 run CPU hogs, h2 and h3 are
/// parked. `hosts` holds pointers taken before the first step, so reading
/// them later never syncs or wakes anything.
struct WakeFleet {
  explicit WakeFleet(bool skip_idle_hosts) {
    ClusterConfig config;
    config.seed = 42;
    config.skip_idle_hosts = skip_idle_hosts;
    cluster = std::make_unique<Cluster>(config);
    for (int i = 0; i < 4; ++i) {
      cluster->add_host(small_host());
    }
    for (int i = 0; i < 4; ++i) {
      hosts.push_back(&cluster->host(i));
    }
    for (int h = 0; h < 2; ++h) {
      cluster->create_pod(h, {"hog-" + std::to_string(h), res(500, 512 * MiB)},
                          cpu_hog_workload(1, 60 * sec));
    }
  }

  int quiescent_hosts() const {
    int quiescent = 0;
    for (const container::Host* host : hosts) {
      quiescent += host->quiescent() ? 1 : 0;
    }
    return quiescent;
  }
  bool frozen(int index) const {
    return hosts[static_cast<std::size_t>(index)]->now() < cluster->now();
  }

  std::unique_ptr<Cluster> cluster;
  std::vector<container::Host*> hosts;
};

/// Lets the parked hosts freeze, then steps a skip-on and a fully stepped
/// twin side by side for 300 ticks (three slack windows), calling
/// `touch(cluster, tick)` on both before every step. Each tick the skip-on
/// twin must skip exactly the hosts the stepped twin finds quiescent going
/// into it — the hosts a walk over the whole fleet would skip — so a touched
/// host is re-judged on the very next tick. Returns the skip-on twin.
std::unique_ptr<WakeFleet> expect_rejudged(
    const std::function<void(Cluster&, int)>& touch) {
  auto on = std::make_unique<WakeFleet>(true);
  WakeFleet off(false);
  on->cluster->run_for(50 * msec);
  off.cluster->run_for(50 * msec);
  EXPECT_TRUE(on->frozen(2) && on->frozen(3)) << "parked hosts must freeze";
  for (int tick = 0; tick < 300; ++tick) {
    touch(*on->cluster, tick);
    touch(*off.cluster, tick);
    const int expected = off.quiescent_hosts();
    const std::uint64_t before = on->cluster->hosts_skipped();
    on->cluster->step();
    off.cluster->step();
    EXPECT_EQ(on->cluster->hosts_skipped() - before,
              static_cast<std::uint64_t>(expected))
        << "tick " << tick;
  }
  EXPECT_EQ(off.cluster->hosts_skipped(), 0u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(on->cluster->window_slack(i), off.cluster->window_slack(i))
        << "host " << i;
    EXPECT_EQ(on->cluster->host_slack_total(i),
              off.cluster->host_slack_total(i))
        << "host " << i;
  }
  EXPECT_TRUE(
      on->cluster->fleet_view().same_content(off.cluster->fleet_view()));
  return on;
}

TEST(IdleSkipWake, HostAccessorWakesAParkedHost) {
  const auto fleet = expect_rejudged([](Cluster& cluster, int tick) {
    if (tick == 0 || tick == 150) {
      // A stalled monitor is not quiescent: h2 must step until unstalled.
      cluster.host(2).monitor().set_stalled(tick == 0);
    }
  });
  EXPECT_TRUE(fleet->frozen(2));  // quiescent again after the unstall
}

TEST(IdleSkipWake, RuntimeAccessorWakesAParkedHost) {
  const auto fleet = expect_rejudged([](Cluster& cluster, int tick) {
    if (tick == 0) {
      // A container with a registered view keeps the host awake.
      cluster.runtime(2).run(
          container::pod_container("raw", res(500, 256 * MiB)));
    }
  });
  EXPECT_FALSE(fleet->frozen(2));
}

TEST(IdleSkipWake, CordonReJudgesButLeavesAQuiescentHostFrozen) {
  const auto fleet = expect_rejudged([](Cluster& cluster, int tick) {
    if (tick == 0 || tick == 120) {
      cluster.cordon_host(3, tick == 0);
    }
  });
  EXPECT_TRUE(fleet->frozen(3));
  EXPECT_FALSE(fleet->cluster->host_cordoned(3));
}

TEST(IdleSkipWake, CreatePodWakesAParkedHost) {
  const auto fleet = expect_rejudged([](Cluster& cluster, int tick) {
    if (tick == 0) {
      cluster.create_pod(2, {"late", res(500, 512 * MiB)},
                         cpu_hog_workload(1, 60 * sec));
    }
  });
  EXPECT_FALSE(fleet->frozen(2));
}

TEST(IdleSkipWake, MigrationLandingWakesTheTarget) {
  const auto fleet = expect_rejudged([](Cluster& cluster, int tick) {
    if (tick == 0) {
      cluster.migrate_pod(0, 3);
    }
  });
  EXPECT_TRUE(fleet->cluster->pod(0).running());
  EXPECT_EQ(fleet->cluster->pod(0).host, 3);
  EXPECT_FALSE(fleet->frozen(3));
}

TEST(IdleSkipWake, CrashAndRebootReJudgeTheHost) {
  const auto fleet = expect_rejudged([](Cluster& cluster, int tick) {
    if (tick == 0) {
      cluster.crash_host(1);
    } else if (tick == 100) {
      cluster.reboot_host(1);
    } else if (tick == 200) {
      cluster.restart_pod(1);
    }
  });
  EXPECT_TRUE(fleet->cluster->host_up(1));
  EXPECT_TRUE(fleet->cluster->pod(1).running());
  EXPECT_FALSE(fleet->frozen(1));
}

TEST(IdleSkipWake, FailoverWakesTheTarget) {
  const auto fleet = expect_rejudged([](Cluster& cluster, int tick) {
    if (tick == 0) {
      cluster.crash_host(1);
    } else if (tick == 50) {
      cluster.failover_pod(1, 2);
    }
  });
  EXPECT_EQ(fleet->cluster->pod(1).host, 2);
  EXPECT_TRUE(fleet->cluster->pod(1).running());
  EXPECT_FALSE(fleet->frozen(2));
}

TEST(IdleSkipDeathTest, RollAuditCatchesAHostMutatedWhileFrozen) {
  EXPECT_DEATH(
      {
        ClusterConfig config;
        Cluster cluster(config);
        cluster.add_host(small_host());
        cluster.add_host(small_host());
        container::Host& held = cluster.host(1);
        cluster.run_for(10 * msec);  // h1 is quiescent: it freezes
        // A stimulus behind the cluster's back: no sync, no wake. Only the
        // audit at the next window roll can see it.
        held.engine().schedule_after(1 * sec, [] {});
        cluster.run_for(config.observe_window);
      },
      "frozen host is no longer quiescent");
}

}  // namespace
}  // namespace arv::cluster
