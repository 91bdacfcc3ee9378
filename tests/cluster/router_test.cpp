// RequestRouter: join-shortest-queue balancing, unroutable accounting, and
// request-stats continuity across a replica migration. Plus the FleetScenario
// builder that wires all of it together.
#include "src/cluster/router.h"

#include <gtest/gtest.h>

#include "src/cluster/cluster.h"
#include "src/cluster/pod_workloads.h"
#include "src/cluster/scheduler.h"
#include "src/harness/scenario.h"

namespace arv::cluster {
namespace {

using namespace arv::units;

container::K8sResources res(std::int64_t millicpu, Bytes memory) {
  container::K8sResources r;
  r.request_millicpu = millicpu;
  r.request_memory = memory;
  return r;
}

container::HostConfig small_host(int cpus, Bytes ram) {
  container::HostConfig config;
  config.cpus = cpus;
  config.ram = ram;
  return config;
}

server::WebConfig replica_web() {
  server::WebConfig web;
  web.service_cpu = 4 * msec;
  return web;
}

TEST(RequestRouter, BalancesAcrossReplicas) {
  Cluster cluster;
  cluster.add_host(small_host(4, 8 * GiB));
  cluster.add_host(small_host(4, 8 * GiB));
  ClusterScheduler scheduler(cluster);
  RouterConfig config;
  config.arrivals_per_sec = 400;
  RequestRouter router(cluster, config);
  cluster.add_component(&router);
  const int a = scheduler.place("requests", {"web-a", res(1000, 1 * GiB)},
                                web_replica(replica_web()));
  const int b = scheduler.place("requests", {"web-b", res(1000, 1 * GiB)},
                                web_replica(replica_web()));
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);
  router.add_replica(a);
  router.add_replica(b);
  cluster.run_for(5 * sec);

  EXPECT_EQ(router.unroutable(), 0u);
  EXPECT_GT(router.routed(), 1900u);  // ~400/s for 5s
  const auto& stats_a = cluster.pod(a).workload->request_sink()->stats();
  const auto& stats_b = cluster.pod(b).workload->request_sink()->stats();
  EXPECT_GT(stats_a.completed, 0u);
  EXPECT_GT(stats_b.completed, 0u);
  // JSQ keeps the split close to even on symmetric replicas.
  const auto hi = std::max(stats_a.arrived, stats_b.arrived);
  const auto lo = std::min(stats_a.arrived, stats_b.arrived);
  EXPECT_LT(hi - lo, hi / 4) << "arrivals skewed: " << stats_a.arrived
                             << " vs " << stats_b.arrived;
  const server::RequestStats total = router.aggregate();
  EXPECT_EQ(total.arrived, stats_a.arrived + stats_b.arrived);
}

TEST(RequestRouter, CountsUnroutableWhenNoReplicaIsUp) {
  Cluster cluster;
  cluster.add_host(small_host(2, 4 * GiB));
  RouterConfig config;
  config.arrivals_per_sec = 100;
  RequestRouter router(cluster, config);
  cluster.add_component(&router);
  cluster.run_for(1 * sec);
  EXPECT_EQ(router.routed(), 0u);
  EXPECT_GE(router.unroutable(), 99u);
}

TEST(RequestRouter, StatsSurviveReplicaMigration) {
  Cluster cluster;
  cluster.add_host(small_host(4, 8 * GiB));
  cluster.add_host(small_host(4, 8 * GiB));
  ClusterScheduler scheduler(cluster);
  RouterConfig config;
  config.arrivals_per_sec = 200;
  RequestRouter router(cluster, config);
  cluster.add_component(&router);
  const int pod = scheduler.place("requests", {"web", res(1000, 1 * GiB)},
                                  web_replica(replica_web()));
  ASSERT_GE(pod, 0);
  router.add_replica(pod);
  cluster.run_for(2 * sec);
  const std::uint64_t before = router.aggregate().completed;
  ASSERT_GT(before, 0u);

  cluster.migrate_pod(pod, cluster.pod(pod).host == 0 ? 1 : 0);
  cluster.run_for(3 * sec);  // freeze passes, replica resumes on the target
  const server::RequestStats after = router.aggregate();
  EXPECT_TRUE(cluster.pod(pod).running());
  EXPECT_GT(after.completed, before)
      << "migrated replica stopped serving, or its history was lost";
  // Requests that arrived during the freeze had no replica to go to.
  EXPECT_GT(router.unroutable(), 0u);
}

// Satellite regression: enrolling the same pod twice used to double its
// arrivals (two JSQ entries over one queue) and double-count its history in
// aggregate(). Duplicates are now rejected.
TEST(RequestRouter, RejectsDuplicateReplica) {
  Cluster cluster;
  cluster.add_host(small_host(4, 8 * GiB));
  ClusterScheduler scheduler(cluster);
  RouterConfig config;
  config.arrivals_per_sec = 100;
  RequestRouter router(cluster, config);
  cluster.add_component(&router);
  const int pod = scheduler.place("requests", {"web", res(1000, 1 * GiB)},
                                  web_replica(replica_web()));
  ASSERT_GE(pod, 0);
  EXPECT_TRUE(router.add_replica(pod));
  EXPECT_FALSE(router.add_replica(pod));
  cluster.run_for(1 * sec);
  // One rotation entry: history counted once.
  const auto& live = cluster.pod(pod).workload->request_sink()->stats();
  EXPECT_EQ(router.aggregate().arrived, live.arrived);
}

// An overloaded replica refuses injections once its accept queue fills; the
// breaker opens after `breaker_threshold` consecutive refusals, sheds load
// while open, probes half-open after `breaker_open`, and closes again once
// the replica drains. Shed (breaker open) stays distinct from unroutable
// (no replica exists).
TEST(RequestRouter, BreakerTripsShedsAndRecloses) {
  Cluster cluster;
  cluster.add_host(small_host(4, 8 * GiB));
  ClusterScheduler scheduler(cluster);
  RouterConfig config;
  config.arrivals_per_sec = 2000;  // far beyond one replica's capacity
  config.max_retries = 0;
  config.breaker_threshold = 5;
  config.breaker_open = 200 * msec;
  RequestRouter router(cluster, config);
  cluster.add_component(&router);
  server::WebConfig web = replica_web();
  web.service_cpu = 20 * msec;  // ~200/s capacity
  web.max_queue = 10;           // overflows almost immediately
  const int pod = scheduler.place("requests", {"web", res(2000, 1 * GiB)},
                                  web_replica(web));
  ASSERT_GE(pod, 0);
  ASSERT_TRUE(router.add_replica(pod));
  cluster.run_for(5 * sec);

  EXPECT_GT(router.dropped(), 0u) << "refused injections must be dropped";
  EXPECT_GT(router.breaker_trips(), 0u);
  EXPECT_GT(router.breaker_closes(), 0u)
      << "the replica drains while the breaker is open; the half-open probe "
         "must find it serving again";
  EXPECT_GT(router.shed(), 0u) << "requests during open windows are shed";
  EXPECT_EQ(router.unroutable(), 0u)
      << "the replica existed throughout; nothing was unroutable";
  // Dispositions still partition the generated stream.
  EXPECT_EQ(router.generated(), router.routed() + router.dropped() +
                                    router.unroutable() + router.shed());
  // The breaker saved the replica from most of the overload: shed at the
  // front door instead of hammering a full queue.
  EXPECT_GT(router.shed(), router.dropped());
}

// Retries move a refused request to the next-best replica instead of
// dropping it. The first replica's accept queue is capped at one, so it
// keeps *looking* shortest to JSQ while actually full; the healthy second
// replica must absorb every refusal.
TEST(RequestRouter, RetryFailsOverToNextBestReplica) {
  Cluster cluster;
  cluster.add_host(small_host(4, 8 * GiB));
  cluster.add_host(small_host(4, 8 * GiB));
  ClusterScheduler scheduler(cluster);
  RouterConfig config;
  config.arrivals_per_sec = 1500;
  config.max_retries = 1;
  config.breaker_threshold = 1000000;  // isolate the retry path
  RequestRouter router(cluster, config);
  cluster.add_component(&router);
  server::WebConfig slow = replica_web();
  slow.service_cpu = 50 * msec;
  slow.max_queue = 1;  // full at depth 1: still the JSQ favourite
  server::WebConfig fast = replica_web();
  fast.service_cpu = 2 * msec;  // ~75% utilised: depth is often >= 1
  const int a = scheduler.place("requests", {"slow", res(2000, 1 * GiB)},
                                web_replica(slow));
  const int b = scheduler.place("requests", {"fast", res(2000, 1 * GiB)},
                                web_replica(fast));
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);
  ASSERT_TRUE(router.add_replica(a));
  ASSERT_TRUE(router.add_replica(b));
  cluster.run_for(3 * sec);

  EXPECT_GT(router.retries(), 0u);
  EXPECT_EQ(router.dropped(), 0u)
      << "with a healthy second replica every refusal must be retried away";
  EXPECT_EQ(router.generated(), router.routed() + router.shed());
}

TEST(FleetScenario, BuildsARunningFleet) {
  cluster::ClusterConfig config;
  config.enable_tracing = true;
  harness::FleetScenario fleet(config);
  fleet.add_host(small_host(4, 8 * GiB));
  fleet.add_host(small_host(4, 8 * GiB));
  fleet.enable_router(300);
  fleet.enable_rebalancer();
  ASSERT_GE(fleet.place_web_pod("effective", res(1000, 1 * GiB),
                                replica_web()),
            0);
  ASSERT_GE(fleet.place_web_pod("effective", res(1000, 1 * GiB),
                                replica_web()),
            0);
  ASSERT_GE(fleet.place_pod("requests", res(500, 512 * MiB),
                            cpu_hog_workload(1, 1 * sec)),
            0);
  fleet.run(3 * sec);

  EXPECT_EQ(fleet.cluster().now(), 3 * sec);
  const server::RequestStats total = fleet.router()->aggregate();
  EXPECT_GT(total.completed, 500u);
  EXPECT_GT(total.latency_hist.count(), 0u);
  EXPECT_NE(fleet.cluster().trace(), nullptr);
}

}  // namespace
}  // namespace arv::cluster
