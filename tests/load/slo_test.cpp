// SloAccountant: per-tenant availability/budget/burn accounting, the
// /sys/arv/slo/ control plane, and the byte-identical-trace contract for the
// whole workload engine stacked with HPA + VPA + cluster autoscaler.
#include "src/load/slo.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/cluster/pod_workloads.h"
#include "src/harness/scenario.h"
#include "src/load/driver.h"
#include "src/load/trace_spec.h"
#include "tests/testing/trace_csv.h"

namespace arv::load {
namespace {

using namespace arv::units;

container::HostConfig small_host() {
  container::HostConfig config;
  config.cpus = 4;
  config.ram = 8 * GiB;
  return config;
}

container::K8sResources web_res() {
  container::K8sResources r;
  r.request_millicpu = 1000;
  r.request_memory = 1 * GiB;
  return r;
}

TraceSpec gentle_spec() {
  TraceSpec spec;
  spec.duration = 2 * sec;
  spec.slot = 100 * msec;
  spec.mean_rps = 200;
  spec.diurnal_amplitude = 0.3;
  spec.seed = 11;
  spec.tenants.push_back({"api", 1.0, 1 * msec, 8 * msec, 1.3});
  return spec;
}

TEST(SloAccountant, HealthyTenantKeepsItsBudget) {
  harness::FleetScenario fleet;
  fleet.add_host(small_host());
  fleet.add_host(small_host());
  fleet.add_tenant("api");
  ASSERT_GE(fleet.place_tenant_web_pod("api", web_res()), 0);
  ASSERT_GE(fleet.place_tenant_web_pod("api", web_res()), 0);
  fleet.use_trace(compile(gentle_spec()));
  SloTarget target;
  target.availability_permille = 999;
  target.p99_target = 500 * msec;
  fleet.declare_slo("api", target);
  fleet.run(4 * sec);
  ASSERT_GT(fleet.tenant_router("api")->generated(), 0u);
  EXPECT_EQ(fleet.slo()->availability_permille("api"), 1000);
  EXPECT_EQ(fleet.slo()->budget_remaining_permille("api"), 1000);
  EXPECT_EQ(fleet.slo()->burn_rate_permille("api"), 0);
  EXPECT_GT(fleet.slo()->p99_us("api"), 0);
  EXPECT_TRUE(fleet.slo()->attaining("api"));
}

TEST(SloAccountant, StarvedTenantBurnsItsBudget) {
  // A tenant with no replicas at all: every request is unroutable, the
  // availability collapses and the budget burns to zero.
  harness::FleetScenario fleet;
  fleet.add_host(small_host());
  fleet.add_tenant("api");
  fleet.use_trace(compile(gentle_spec()));
  fleet.declare_slo("api");
  fleet.run(2 * sec);
  ASSERT_GT(fleet.tenant_router("api")->generated(), 0u);
  EXPECT_EQ(fleet.tenant_router("api")->unroutable(),
            fleet.tenant_router("api")->generated());
  EXPECT_EQ(fleet.slo()->availability_permille("api"), 0);
  EXPECT_EQ(fleet.slo()->budget_remaining_permille("api"), 0);
  EXPECT_GT(fleet.slo()->burn_rate_permille("api"), 1000);
  EXPECT_FALSE(fleet.slo()->attaining("api"));
}

TEST(SloAccountant, ControlFilesMatchAccountantState) {
  harness::FleetScenario fleet;
  fleet.add_host(small_host());
  fleet.add_tenant("api");
  ASSERT_GE(fleet.place_tenant_web_pod("api", web_res()), 0);
  fleet.use_trace(compile(gentle_spec()));
  fleet.declare_slo("api");
  // Components first fire one tick after registration, so align the run end
  // with an accounting round: rounds land at 1ms, 101ms, ..., 2001ms.
  fleet.run(2 * sec + 1 * msec);
  const vfs::PseudoFs& fs = fleet.cluster().host(0).sysfs().host_fs();
  const auto read_int = [&](const std::string& path) {
    const auto contents = fs.read(path);
    EXPECT_TRUE(contents.has_value()) << path;
    return contents ? std::stoll(*contents) : -1;
  };
  EXPECT_EQ(read_int("/sys/arv/slo/api/availability_permille"),
            fleet.slo()->availability_permille("api"));
  EXPECT_EQ(read_int("/sys/arv/slo/api/p99_us"), fleet.slo()->p99_us("api"));
  EXPECT_EQ(read_int("/sys/arv/slo/api/budget_remaining_permille"),
            fleet.slo()->budget_remaining_permille("api"));
  EXPECT_EQ(read_int("/sys/arv/slo/api/burn_rate_permille"),
            fleet.slo()->burn_rate_permille("api"));
  EXPECT_EQ(read_int("/sys/arv/slo/api/generated"),
            static_cast<std::int64_t>(fleet.tenant_router("api")->generated()));
  EXPECT_EQ(read_int("/sys/arv/slo/api/good"),
            static_cast<std::int64_t>(fleet.tenant_router("api")->routed()));
  // No admission controller in this fleet: nothing is ever degraded.
  EXPECT_EQ(read_int("/sys/arv/slo/api/degraded"), 0);
  const auto objective = fs.read("/sys/arv/slo/api/objective");
  ASSERT_TRUE(objective.has_value());
  EXPECT_NE(objective->find("availability_permille 999"), std::string::npos);
}

TEST(SloAccountant, TraceCarriesSloSeries) {
  cluster::ClusterConfig config;
  config.enable_tracing = true;
  config.trace_interval = 100 * msec;
  harness::FleetScenario fleet(config);
  fleet.add_host(small_host());
  fleet.add_tenant("api");
  ASSERT_GE(fleet.place_tenant_web_pod("api", web_res()), 0);
  fleet.use_trace(compile(gentle_spec()));
  fleet.declare_slo("api");
  fleet.run(2 * sec);
  const obs::TraceRecorder& trace = *fleet.cluster().trace();
  for (const std::string series :
       {"slo.api.p99_us", "slo.api.availability_permille",
        "slo.api.budget_remaining_permille", "slo.api.burn_rate_permille",
        "slo.api.degraded", "load.injected", "api.load.injected"}) {
    EXPECT_TRUE(trace.find(series).has_value()) << series;
  }
}

// --- the acceptance bar: thread-invariance of the full stack ------------------

struct EngineResult {
  std::string trace;
  std::string slo_render;
  std::uint64_t injected = 0;
  std::uint64_t generated = 0;
  std::uint64_t completed = 0;
  std::int64_t p99 = 0;
  std::int64_t availability = 0;
};

/// The full workload engine — two driven tenants, SLOs, per-tenant HPA, VPA,
/// cluster autoscaler — must produce byte-identical cluster traces and SLO
/// renders with the idle-host skip on or off.
EngineResult run_engine(bool skip_idle_hosts) {
  cluster::ClusterConfig config;
  config.seed = 42;
  config.enable_tracing = true;
  config.trace_interval = 50 * msec;
  config.skip_idle_hosts = skip_idle_hosts;
  harness::FleetScenario fleet(config);
  for (int i = 0; i < 6; ++i) {
    fleet.add_host(small_host());
  }
  fleet.cluster().cordon_host(4, true);  // autoscaler headroom
  fleet.cluster().cordon_host(5, true);

  TraceSpec spec;
  spec.duration = 3 * sec;
  spec.slot = 100 * msec;
  spec.mean_rps = 600;
  spec.diurnal_amplitude = 0.6;
  FlashCrowd crowd;
  crowd.start = 1 * sec;
  crowd.ramp = 300 * msec;
  crowd.hold = 500 * msec;
  crowd.decay = 300 * msec;
  crowd.magnitude = 2.5;
  spec.flash_crowds.push_back(crowd);
  spec.seed = 4242;
  spec.tenants.push_back({"api", 3.0, 1 * msec, 12 * msec, 1.3});
  spec.tenants.push_back({"batch", 1.0, 4 * msec, 40 * msec, 1.2});

  fleet.add_tenant("api");
  fleet.add_tenant("batch");
  const int api_pod = fleet.place_tenant_web_pod("api", web_res());
  EXPECT_GE(api_pod, 0);
  EXPECT_GE(fleet.place_tenant_web_pod("batch", web_res()), 0);
  fleet.use_trace(compile(spec));
  fleet.declare_slo("api");
  fleet.declare_slo("batch");
  server::WebConfig web;
  web.service_cpu = 4 * msec;
  cluster::HpaConfig hpa;
  hpa.period = 200 * msec;
  hpa.max_replicas = 6;
  cluster::PodSpec api_template;
  api_template.resources = web_res();
  fleet.enable_tenant_hpa("api", api_template, web, hpa);
  fleet.tenant_hpa("api")->adopt(api_pod);
  fleet.enable_vpa();
  fleet.enable_cluster_autoscaler();
  fleet.run(6 * sec);

  EngineResult result;
  result.trace =
      arv::testing::without_skip_column(fleet.cluster().trace()->to_csv());
  const vfs::PseudoFs& fs = fleet.cluster().host(0).sysfs().host_fs();
  for (const std::string tenant : {"api", "batch"}) {
    for (const std::string file :
         {"objective", "availability_permille", "p99_us",
          "budget_remaining_permille", "burn_rate_permille", "generated",
          "good"}) {
      const auto contents = fs.read("/sys/arv/slo/" + tenant + "/" + file);
      EXPECT_TRUE(contents.has_value()) << tenant << "/" << file;
      result.slo_render += tenant + "/" + file + ":" + contents.value_or("?");
    }
  }
  result.injected = fleet.driver()->injected();
  result.generated = fleet.tenant_router("api")->generated() +
                     fleet.tenant_router("batch")->generated();
  result.completed = fleet.tenant_router("api")->aggregate().completed +
                     fleet.tenant_router("batch")->aggregate().completed;
  result.p99 = fleet.slo()->p99_us("api");
  result.availability = fleet.slo()->availability_permille("api");
  // Conservation per tenant, with the skip on and off.
  for (const std::string tenant : {"api", "batch"}) {
    const cluster::RequestRouter& r = *fleet.tenant_router(tenant);
    EXPECT_EQ(r.generated(),
              r.routed() + r.dropped() + r.unroutable() + r.shed())
        << tenant;
  }
  return result;
}

TEST(SloAccountant, EngineIsByteIdenticalAcrossThreadCounts) {
  const EngineResult reference = run_engine(/*skip_idle_hosts=*/false);
  ASSERT_FALSE(reference.trace.empty());
  ASSERT_GT(reference.injected, 0u);
  ASSERT_GT(reference.completed, 0u);
  const EngineResult other = run_engine(/*skip_idle_hosts=*/true);
  EXPECT_EQ(reference.trace, other.trace);
  EXPECT_EQ(reference.slo_render, other.slo_render);
  EXPECT_EQ(reference.injected, other.injected);
  EXPECT_EQ(reference.generated, other.generated);
  EXPECT_EQ(reference.completed, other.completed);
  EXPECT_EQ(reference.p99, other.p99);
  EXPECT_EQ(reference.availability, other.availability);
}

}  // namespace
}  // namespace arv::load
