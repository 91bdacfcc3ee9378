#include "perfbench/workloads.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <utility>

#include "perfbench/json.h"
#include "perfbench/probe.h"
#include "src/cluster/pod_workloads.h"
#include "src/harness/scenario.h"
#include "src/util/latency_histogram.h"
#include "src/workloads/java_suites.h"

namespace perfbench {
namespace {

using namespace arv;

/// The benchmark seed shifts every seed the scenario consumes; seed 0
/// reproduces the repo benches the workloads are taken from.
std::uint64_t shifted(std::uint64_t base, std::uint64_t seed) {
  return base + seed * 1'000'003ULL;
}

container::K8sResources res(std::int64_t millicpu, Bytes memory) {
  container::K8sResources r;
  r.request_millicpu = millicpu;
  r.request_memory = memory;
  return r;
}

/// Spans and counters shared by the cluster workloads. Declared before the
/// scenario so markers and wrappers outlive the cluster that points at them.
struct ClusterProbes {
  HostWrappers wrappers;
  ComponentSpans spans;
  bool traced = false;

  void open(const std::string& segment) {
    if (traced) {
      spans.open(segment);
    }
  }
  void close() {
    if (traced) {
      spans.close();
    }
  }
  void add_host(harness::FleetScenario& fleet, container::HostConfig host) {
    const int index = fleet.add_host(host);
    if (traced) {
      wrappers.install(fleet.cluster().host(index));
    }
  }
  void run(harness::FleetScenario& fleet, SimDuration horizon, RepResult& rep,
           ChunkClock& clock) {
    cluster::Cluster& cluster = fleet.cluster();
    clock.start();
    while (cluster.now() < horizon) {
      const SimTime end = std::min(cluster.now() + kChunk, horizon);
      if (traced) {
        while (cluster.now() < end) {
          spans.step();
        }
      } else {
        cluster.run_for(end - cluster.now());
      }
      clock.lap(rep);
    }
    rep.sim = cluster.now();
  }
  void report(harness::FleetScenario& fleet, RepResult& rep) const {
    if (!traced) {
      return;
    }
    auto& out = rep.spans_ns;
    out.emplace_back("cluster.step", spans.step_ns());
    out.emplace_back("cluster.components", spans.components_ns());
    out.emplace_back("cluster.trace", spans.trace_ns());
    out.emplace_back("sched.tick", wrappers.times().sched_ns);
    out.emplace_back("mem.tick", wrappers.times().mem_ns);
    out.emplace_back("core.monitor_tick", wrappers.times().monitor_ns);
    out.emplace_back("router.tick", spans.segment_ns("router"));
    out.emplace_back("overload.admission_tick", spans.segment_ns("admission"));
    out.emplace_back("load.driver_tick", spans.segment_ns("driver"));
    out.emplace_back("load.slo_tick", spans.segment_ns("slo"));
    out.emplace_back("cluster.autoscale_tick", spans.segment_ns("autoscale"));
    const load::OpenLoopDriver* driver = fleet.driver();
    out.emplace_back("load.driver_self",
                     driver == nullptr ? 0 : driver->wall_us() * 1000);
  }
};

/// Per-bucket counts of a latency histogram, recovered through the public
/// count_above(): samples in buckets <= i are count - count_above(upper(i)).
void write_histogram(Json& j, const util::LatencyHistogram& h) {
  j.begin_array();
  if (h.count() > 0) {
    const std::size_t last = util::LatencyHistogram::bucket_of(h.max());
    std::uint64_t below = 0;
    for (std::size_t i = 0; i <= last; ++i) {
      const std::uint64_t upto =
          h.count() - h.count_above(util::LatencyHistogram::bucket_upper(i));
      if (upto > below) {
        j.begin_array()
            .value(util::LatencyHistogram::bucket_lower(i))
            .value(util::LatencyHistogram::bucket_upper(i))
            .value(upto - below)
            .end_array();
      }
      below = upto;
    }
  }
  j.end_array();
}

/// A router's dispositions, its fleet-wide request stats, and the requests
/// completed later than the tenant's latency target.
void write_router(Json& j, const std::string& tenant,
                  const cluster::RequestRouter& r,
                  const cluster::Cluster& cluster, SimDuration target) {
  const server::RequestStats agg = r.aggregate();
  std::uint64_t lost = 0;
  for (int i = 0; i < r.replica_count(); ++i) {
    lost += cluster.pod(r.replica_pod(i)).lost;
  }
  j.begin_object()
      .field("tenant", tenant)
      .field("target_us", target)
      .field("generated", r.generated())
      .field("admitted", r.admitted())
      .field("rejected", r.rejected())
      .field("routed", r.routed())
      .field("unroutable", r.unroutable())
      .field("dropped", r.dropped())
      .field("shed", r.shed())
      .field("degraded", r.degraded())
      .field("attempts", r.attempts())
      .field("retries", r.retries())
      .field("breaker_trips", r.breaker_trips())
      .field("breaker_closes", r.breaker_closes())
      .field("queued", r.queued())
      .field("lost", lost)
      .field("replicas", r.replica_count())
      .field("arrived", agg.arrived)
      .field("completed", agg.completed)
      .field("late", agg.latency_hist.count_above(target))
      .field("latency_sum_us", agg.latency_hist.sum())
      .field("latency_min_us", agg.latency_hist.min())
      .field("latency_max_us", agg.latency_hist.max());
  j.key("latency_hist");
  write_histogram(j, agg.latency_hist);
  j.end_object();
}

std::int64_t read_counter(container::Host& host, proc::Pid pid,
                          const std::string& name) {
  const std::optional<std::string> text =
      host.sysfs().read(pid, "/sys/arv/trace/" + name);
  return text.has_value() ? std::stoll(*text) : 0;
}

/// The adaptive view's decision-reason counters (Algorithms 1 and 2),
/// summed over containers through /sys/arv/trace/*.
struct Decisions {
  std::int64_t cpu_grew = 0;
  std::int64_t cpu_shrank = 0;
  std::int64_t cpu_held = 0;
  std::int64_t mem_reset = 0;

  void add(container::Host& host, proc::Pid pid) {
    cpu_grew += read_counter(host, pid, "cpu_grew");
    cpu_shrank += read_counter(host, pid, "cpu_shrank");
    cpu_held += read_counter(host, pid, "cpu_held");
    mem_reset += read_counter(host, pid, "mem_reset");
  }
  void write(Json& j) const {
    j.key("core")
        .begin_object()
        .field("cpu_grew", cpu_grew)
        .field("cpu_shrank", cpu_shrank)
        .field("cpu_held", cpu_held)
        .field("mem_reset", mem_reset)
        .end_object();
  }
};

/// FNV-1a over every sample of the trace (times, column names, values):
/// pins the trace's content without rendering its CSV, which would add to
/// the peak resident set the benchmark reports.
std::string trace_fingerprint(const obs::TraceRecorder& trace) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xffU;
      h *= 1099511628211ULL;
    }
  };
  for (const SimTime t : trace.times()) {
    mix(static_cast<std::uint64_t>(t));
  }
  for (obs::SeriesHandle s = 0; s < trace.series_count(); ++s) {
    for (const char c : trace.qualified_name(s)) {
      mix(static_cast<unsigned char>(c));
    }
    for (const std::int64_t v : trace.values(s)) {
      mix(static_cast<std::uint64_t>(v));
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

/// Fleet-level counters, the cluster trace's size and fingerprint, and the decision
/// counters of every running pod.
void write_cluster(Json& j, cluster::Cluster& cluster) {
  j.key("cluster")
      .begin_object()
      .field("hosts", cluster.host_count())
      .field("steps", cluster.steps_taken())
      .field("hosts_skipped", cluster.hosts_skipped())
      .field("fleet_rows_reused", cluster.fleet_rows_reused())
      .field("migrations", cluster.migrations())
      .field("active_hosts", cluster.active_hosts())
      .field("pods", cluster.pod_count())
      .end_object();
  const obs::TraceRecorder* trace = cluster.trace();
  j.key("obs").begin_object();
  if (trace != nullptr) {
    j.field("trace_samples", static_cast<std::uint64_t>(trace->sample_count()))
        .field("trace_series", static_cast<std::uint64_t>(trace->series_count()))
        .field("trace_fnv", trace_fingerprint(*trace));
  }
  j.end_object();
  Decisions decisions;
  for (int id = 0; id < cluster.pod_count(); ++id) {
    const cluster::Pod& pod = cluster.pod(id);
    if (pod.running()) {
      decisions.add(cluster.host(pod.host), pod.container->init_pid());
    }
  }
  decisions.write(j);
}

// --- fleet_sparse -------------------------------------------------------------
// 1024 hosts, 12 busy: the per-tick O(hosts) machinery of Cluster::step
// (host-phase skip loop, slack roll, fleet refresh, trace sampling) dominates.

constexpr int kSparseHosts = 1024;
constexpr int kSparseBusy = 12;
constexpr double kSparseRpsPerReplica = 40;
constexpr SimDuration kSparseHorizon = 10 * units::sec;
constexpr SimDuration kSparseTarget = 250 * units::msec;

RepResult fleet_sparse(std::uint64_t seed, bool traced, ChunkClock& clock) {
  RepResult rep;
  ClusterProbes probes;
  probes.traced = traced;
  const std::int64_t setup_start = now_ns();
  cluster::ClusterConfig config;
  config.seed = shifted(42, seed);
  config.enable_tracing = true;
  config.trace_interval = 100 * units::msec;
  harness::FleetScenario fleet(config);
  probes.spans.attach(fleet.cluster());
  for (int i = 0; i < kSparseHosts; ++i) {
    container::HostConfig host;
    host.cpus = 4;
    host.ram = 16 * units::GiB;
    probes.add_host(fleet, host);
  }
  probes.open("router");
  fleet.add_tenant("web");
  server::WebConfig web;
  web.sizing = server::Sizing::kFixed;
  web.fixed_workers = 1;
  web.service_cpu = 4 * units::msec;
  web.arrivals_per_sec = 0;
  cluster::RequestRouter& router = *fleet.tenant_router("web");
  for (int h = 0; h < kSparseBusy; ++h) {
    cluster::PodSpec spec;
    spec.name = "web-" + std::to_string(h);
    spec.resources = res(1000, 1 * units::GiB);
    spec.service = "web";
    const int pod =
        fleet.cluster().create_pod(h, spec, cluster::web_replica(web));
    if (!router.add_replica(pod)) {
      std::abort();
    }
  }
  load::TraceSpec spec;
  spec.duration = kSparseHorizon;
  spec.slot = 100 * units::msec;
  spec.mean_rps = kSparseRpsPerReplica * kSparseBusy;
  spec.diurnal_amplitude = 0.0;
  spec.process = load::ArrivalProcess::kPoisson;
  spec.seed = shifted(1024, seed);
  spec.tenants.push_back({"web", 1.0, web.service_cpu, web.service_cpu, 1.3});
  probes.open("driver");
  fleet.use_trace(load::compile(spec));
  probes.close();
  rep.setup_ns = now_ns() - setup_start;

  probes.run(fleet, kSparseHorizon, rep, clock);
  probes.report(fleet, rep);

  Json j;
  j.begin_object().key("routers").begin_array();
  write_router(j, "web", router, fleet.cluster(), kSparseTarget);
  j.end_array();
  write_cluster(j, fleet.cluster());
  j.end_object();
  rep.outputs = j.str();
  rep.operations = router.generated();
  return rep;
}

// --- million_user_day ---------------------------------------------------------
// bench/million_user's "paper" run: every host busy, so the per-request path
// (driver -> router -> WorkerPoolServer, histograms, SLO books) dominates.

constexpr int kDayHosts = 10;
constexpr int kDayParked = 2;
constexpr SimDuration kDay = 60 * units::sec;

}  // namespace

load::TraceSpec million_user_day_spec(std::uint64_t seed) {
  load::TraceSpec spec;
  spec.duration = kDay;
  spec.slot = 100 * units::msec;
  spec.mean_rps = 18000;
  spec.diurnal_amplitude = 0.6;
  spec.diurnal_periods = 1;
  load::FlashCrowd crowd;
  crowd.start = 30 * units::sec;
  crowd.ramp = 2 * units::sec;
  crowd.hold = 4 * units::sec;
  crowd.decay = 2 * units::sec;
  crowd.magnitude = 2.0;
  spec.flash_crowds.push_back(crowd);
  spec.process = load::ArrivalProcess::kPoisson;
  spec.seed = shifted(20190624, seed);
  spec.tenants.push_back({"api", 3.0, 200 * units::usec, 4 * units::msec, 1.3});
  spec.tenants.push_back({"batch", 0.5, 1 * units::msec, 8 * units::msec, 1.2});
  return spec;
}

namespace {

void write_slo(Json& j, const load::SloAccountant& slo,
               const std::vector<std::string>& tenants) {
  j.key("slo").begin_array();
  for (const std::string& t : tenants) {
    j.begin_object()
        .field("tenant", t)
        .field("availability_permille", slo.availability_permille(t))
        .field("p99_us", slo.p99_us(t))
        .field("budget_remaining_permille", slo.budget_remaining_permille(t))
        .field("burn_rate_permille", slo.burn_rate_permille(t))
        .field("p99_violations", slo.p99_violations(t))
        .field("attaining", slo.attaining(t))
        .end_object();
  }
  j.end_array();
}

RepResult million_user_day(std::uint64_t seed, bool traced, ChunkClock& clock) {
  RepResult rep;
  ClusterProbes probes;
  probes.traced = traced;
  const std::int64_t setup_start = now_ns();
  cluster::ClusterConfig config;
  config.seed = shifted(42, seed);
  harness::FleetScenario fleet(config);
  probes.spans.attach(fleet.cluster());
  for (int i = 0; i < kDayHosts; ++i) {
    container::HostConfig host;
    host.cpus = 4;
    host.ram = 8 * units::GiB;
    probes.add_host(fleet, host);
  }
  for (int i = kDayHosts - kDayParked; i < kDayHosts; ++i) {
    fleet.cluster().cordon_host(i, true);
  }
  probes.open("router");
  fleet.add_tenant("api");
  fleet.add_tenant("batch");

  server::WebConfig web;
  web.service_cpu = 1 * units::msec;
  web.max_queue = 400;
  web.resize_interval = 500 * units::msec;
  cluster::PodSpec replica;
  replica.resources = res(1000, 512 * units::MiB);
  replica.resources.limit_millicpu = 1500;
  replica.view_policy = "paper";
  std::vector<int> api_seeds;
  std::vector<int> batch_seeds;
  for (int i = 0; i < 6; ++i) {
    const int pod =
        fleet.place_tenant_web_pod("api", replica.resources, web, replica);
    if (pod >= 0) {
      api_seeds.push_back(pod);
    }
  }
  for (int i = 0; i < 4; ++i) {
    const int pod =
        fleet.place_tenant_web_pod("batch", replica.resources, web, replica);
    if (pod >= 0) {
      batch_seeds.push_back(pod);
    }
  }

  probes.open("driver");
  fleet.use_trace(load::compile(million_user_day_spec(seed)));
  load::SloTarget api_slo;
  api_slo.availability_permille = 999;
  api_slo.p99_target = 250 * units::msec;
  load::SloTarget batch_slo;
  batch_slo.availability_permille = 990;
  batch_slo.p99_target = 1 * units::sec;
  probes.open("slo");
  fleet.declare_slo("api", api_slo);
  fleet.declare_slo("batch", batch_slo);

  cluster::HpaConfig hpa;
  hpa.period = 500 * units::msec;
  hpa.min_replicas = 6;
  hpa.max_replicas = 24;
  hpa.request_cpu = web.service_cpu;
  hpa.max_surge = 6;
  hpa.down_stabilization = 4 * units::sec;
  cluster::PodSpec api_template = replica;
  api_template.name = "api";
  probes.open("autoscale");
  fleet.enable_tenant_hpa("api", api_template, web, hpa);
  for (const int pod : api_seeds) {
    fleet.tenant_hpa("api")->adopt(pod);
  }
  cluster::HpaConfig batch_hpa = hpa;
  batch_hpa.min_replicas = 4;
  batch_hpa.max_replicas = 12;
  batch_hpa.request_cpu = 2 * units::msec;
  cluster::PodSpec batch_template = replica;
  batch_template.name = "batch";
  fleet.enable_tenant_hpa("batch", batch_template, web, batch_hpa);
  for (const int pod : batch_seeds) {
    fleet.tenant_hpa("batch")->adopt(pod);
  }
  cluster::VpaConfig vpa;
  vpa.period = 500 * units::msec;
  fleet.enable_vpa(vpa);
  cluster::CaConfig ca;
  ca.period = 1 * units::sec;
  ca.min_hosts = kDayHosts - kDayParked;
  ca.cooldown = 4 * units::sec;
  fleet.enable_cluster_autoscaler(ca);
  probes.close();
  rep.setup_ns = now_ns() - setup_start;

  probes.run(fleet, kDay, rep, clock);
  probes.report(fleet, rep);

  Json j;
  j.begin_object().key("routers").begin_array();
  write_router(j, "api", *fleet.tenant_router("api"), fleet.cluster(),
               api_slo.p99_target);
  write_router(j, "batch", *fleet.tenant_router("batch"), fleet.cluster(),
               batch_slo.p99_target);
  j.end_array();
  write_slo(j, *fleet.slo(), {"api", "batch"});
  j.key("autoscale")
      .begin_object()
      .field("api_replicas", fleet.tenant_hpa("api")->replicas())
      .field("batch_replicas", fleet.tenant_hpa("batch")->replicas())
      .field("api_scale_ups", fleet.tenant_hpa("api")->scale_ups())
      .field("batch_scale_ups", fleet.tenant_hpa("batch")->scale_ups())
      .field("vpa_rewrites", fleet.vpa()->rewrites())
      .field("ca_hosts_added", fleet.cluster_autoscaler()->hosts_added())
      .field("ca_hosts_drained", fleet.cluster_autoscaler()->hosts_drained())
      .end_object();
  j.field("injected", fleet.driver()->injected());
  write_cluster(j, fleet.cluster());
  j.end_object();
  rep.outputs = j.str();
  rep.operations = fleet.tenant_router("api")->generated() +
                   fleet.tenant_router("batch")->generated();
  return rep;
}

// --- overload_flood -----------------------------------------------------------
// bench/overload's 7200 rps point with the guards on: ~2.7x capacity, so
// most requests take the refusal paths and the AdmissionController runs.

constexpr int kFloodHosts = 4;
constexpr SimDuration kFloodTrace = 6 * units::sec;
constexpr SimDuration kFloodRun = 7 * units::sec;  // 1 s drain tail
constexpr int kFloodCritRps = 400;
constexpr int kFloodTotalRps = 7200;

RepResult overload_flood(std::uint64_t seed, bool traced, ChunkClock& clock) {
  RepResult rep;
  ClusterProbes probes;
  probes.traced = traced;
  const std::int64_t setup_start = now_ns();
  cluster::ClusterConfig config;
  config.seed = shifted(42, seed);
  harness::FleetScenario fleet(config);
  probes.spans.attach(fleet.cluster());
  for (int i = 0; i < kFloodHosts; ++i) {
    container::HostConfig host;
    host.cpus = 4;
    host.ram = 8 * units::GiB;
    probes.add_host(fleet, host);
  }
  cluster::RouterConfig rc;
  rc.max_retries = 2;
  rc.breaker_threshold = 200;
  rc.breaker_open = 100 * units::msec;
  probes.open("router");
  fleet.add_tenant("critical", rc);
  fleet.add_tenant("besteffort", rc);
  server::WebConfig web;
  web.service_cpu = 2 * units::msec;
  web.max_queue = 5000;
  for (int i = 0; i < 2; ++i) {
    if (fleet.place_tenant_web_pod("critical", res(1000, 1 * units::GiB),
                                   web) < 0 ||
        fleet.place_tenant_web_pod("besteffort", res(1000, 1 * units::GiB),
                                   web) < 0) {
      std::abort();
    }
  }
  cluster::AdmissionConfig ac;
  ac.queue_ref_depth = 128;
  ac.p99_ref = 500 * units::msec;
  probes.open("admission");
  fleet.enable_admission(ac);

  load::TraceSpec spec;
  spec.duration = kFloodTrace;
  spec.slot = 100 * units::msec;
  spec.mean_rps = kFloodTotalRps;
  spec.diurnal_amplitude = 0.0;
  spec.seed = shifted(2019, seed);
  spec.tenants.push_back({"critical", static_cast<double>(kFloodCritRps),
                          1 * units::msec, 4 * units::msec, 1.3});
  spec.tenants.push_back(
      {"besteffort", static_cast<double>(kFloodTotalRps - kFloodCritRps),
       1 * units::msec, 4 * units::msec, 1.3});
  load::DriverConfig one_pass;
  one_pass.repeat = false;
  probes.open("driver");
  fleet.use_trace(load::compile(spec), one_pass);

  load::SloTarget crit_slo;
  crit_slo.availability_permille = 999;
  crit_slo.p99_target = 250 * units::msec;
  crit_slo.degraded_weight_permille = 0;
  load::SloTarget be_slo;
  be_slo.availability_permille = 900;
  be_slo.p99_target = 1 * units::sec;
  probes.open("slo");
  fleet.declare_slo("critical", crit_slo);
  fleet.declare_slo("besteffort", be_slo);
  probes.close();
  rep.setup_ns = now_ns() - setup_start;

  probes.run(fleet, kFloodRun, rep, clock);
  probes.report(fleet, rep);

  const cluster::AdmissionController& admission = *fleet.admission();
  Json j;
  j.begin_object().key("routers").begin_array();
  write_router(j, "critical", *fleet.tenant_router("critical"),
               fleet.cluster(), crit_slo.p99_target);
  write_router(j, "besteffort", *fleet.tenant_router("besteffort"),
               fleet.cluster(), be_slo.p99_target);
  j.end_array();
  write_slo(j, *fleet.slo(), {"critical", "besteffort"});
  j.key("admission")
      .begin_object()
      .field("admitted", admission.admitted())
      .field("rejected", admission.rejected())
      .field("rejected_pressure", admission.rejected_pressure())
      .field("rejected_rate", admission.rejected_rate())
      .field("retries_allowed", admission.retries_allowed())
      .field("retries_denied", admission.retries_denied())
      .field("brownout_entries", admission.brownout_entries())
      .field("shed_level", admission.shed_level())
      .end_object();
  j.field("injected", fleet.driver()->injected());
  write_cluster(j, fleet.cluster());
  j.end_object();
  rep.outputs = j.str();
  rep.operations = fleet.tenant_router("critical")->generated() +
                   fleet.tenant_router("besteffort")->generated();
  return rep;
}

// --- dense_host ---------------------------------------------------------------
// The paper's own mechanism at scale: one 20-core host, 100 adaptive JVMs,
// run to completion. Cost sits in the host engine; no cluster code runs.

constexpr std::size_t kDenseJvms = 100;
constexpr SimDuration kDenseDeadline = 3600 * units::sec;

RepResult dense_host(std::uint64_t seed, bool traced, ChunkClock& clock) {
  RepResult rep;
  HostWrappers wrappers;
  const std::int64_t setup_start = now_ns();
  container::HostConfig host_config;
  host_config.cpus = 20;
  host_config.ram = 128 * units::GiB;
  harness::JvmScenario scenario(host_config);
  if (traced) {
    wrappers.install(scenario.host());
  }
  // The DaCapo suite round-robin over the containers (20 of each), the
  // assignment shuffled by the seed.
  const std::vector<jvm::JavaWorkload> suite = workloads::dacapo_suite();
  std::vector<std::size_t> order(kDenseJvms);
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i % suite.size();
  }
  Rng rng(shifted(7, seed));
  for (std::size_t i = order.size(); i > 1; --i) {
    const auto k = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(order[i - 1], order[k]);
  }
  for (const std::size_t pick : order) {
    harness::JvmInstanceConfig instance;
    instance.workload = suite[pick];
    instance.flags.kind = jvm::JvmKind::kAdaptive;
    instance.flags.xmx = 3 * jvm::min_heap_of(instance.workload);
    instance.use_policy("paper");
    scenario.add(instance);
  }
  rep.setup_ns = now_ns() - setup_start;

  const auto all_finished = [&scenario] {
    for (std::size_t i = 0; i < scenario.size(); ++i) {
      if (!scenario.jvm(i).finished()) {
        return false;
      }
    }
    return true;
  };
  sim::Engine& engine = scenario.host().engine();
  const SimTime limit = engine.now() + kDenseDeadline;
  std::int64_t engine_step_ns = 0;
  clock.start();
  bool done = false;
  while (!done && engine.now() < limit) {
    const SimTime end = std::min(engine.now() + kChunk, limit);
    if (traced) {
      do {
        const std::int64_t start = now_ns();
        engine.step();
        engine_step_ns += now_ns() - start;
        done = all_finished();
      } while (!done && engine.now() < end);
    } else {
      done = engine.run_until(all_finished, end);
    }
    clock.lap(rep);
  }
  rep.sim = engine.now();
  if (traced) {
    rep.spans_ns = {{"sim.engine_step", engine_step_ns},
                    {"sched.tick", wrappers.times().sched_ns},
                    {"mem.tick", wrappers.times().mem_ns},
                    {"core.monitor_tick", wrappers.times().monitor_ns}};
  }

  Json j;
  j.begin_object().field("makespan_us", engine.now()).key("jobs").begin_array();
  Decisions decisions;
  for (const harness::JvmRunResult& r : scenario.results()) {
    const jvm::JvmStats& s = r.stats;
    j.begin_object()
        .field("benchmark", r.benchmark)
        .field("completed", s.completed)
        .field("oom_error", s.oom_error)
        .field("killed", s.killed)
        .field("start_us", s.start_time)
        .field("end_us", s.end_time)
        .field("minor_gcs", s.minor_gcs)
        .field("major_gcs", s.major_gcs)
        .field("minor_gc_us", s.minor_gc_time)
        .field("major_gc_us", s.major_gc_time)
        .field("stall_us", s.stall_time)
        .field("allocated", s.allocated_total)
        .end_object();
    decisions.add(scenario.host(),
                  scenario.runtime().find(r.container)->init_pid());
  }
  j.end_array();
  decisions.write(j);
  j.end_object();
  rep.outputs = j.str();
  rep.operations = scenario.size();
  return rep;
}

}  // namespace

void ChunkClock::start() {
  start_ = now_ns();
  mark_ = start_;
}

void ChunkClock::lap(RepResult& rep) {
  const std::int64_t t = now_ns();
  const std::int64_t ns = t - mark_;
  const std::size_t chunk = rep.chunk_ns.size();
  rep.chunk_ns.push_back(ns);
  rep.run_ns = t - start_;
  mark_ = t;
  if (chunk == fastest_.size()) {
    fastest_.push_back(ns);
    return;
  }
  stretch_ns_ += ns;
  stretch_fastest_ns_ += fastest_[chunk];
  fastest_[chunk] = std::min(fastest_[chunk], ns);
  if (stretch_fastest_ns_ >= kMoveWindowNs) {
    if (4 * stretch_ns_ > 5 * stretch_fastest_ns_) {
      on_slow_();
    }
    stretch_ns_ = 0;
    stretch_fastest_ns_ = 0;
  }
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"fleet_sparse", fleet_sparse},
      {"million_user_day", million_user_day},
      {"overload_flood", overload_flood},
      {"dense_host", dense_host},
  };
  return all;
}

}  // namespace perfbench
