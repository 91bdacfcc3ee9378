// Closed-loop autoscaling: throttle-free (burstable) vs quota-capped CPU
// under a diurnal curve with a flash crowd.
//
// One fleet (6 hosts, 2 parked for the cluster autoscaler), all three
// control loops on: the HPA scales the web service from router-observed
// demand vs per-replica *effective* capacity, the VPA rewrites cgroup
// limits live from usage percentiles, and the CA grows/shrinks the active
// fleet on slack hysteresis. The request rate replays a deterministic
// diurnal ramp with a flash crowd at the peak.
//
// Two runs differ only in the replica template's CpuMode:
//   quota_capped  - kubelet default: cfs_quota from the declared CPU limit;
//                   bursts throttle at the quota whatever the host has idle.
//   burstable     - shares only, no quota (the "CPU-Limits kill Performance"
//                   configuration): bursts ride the host's actual slack.
//
// Expected: burstable clearly beats quota-capped on p95/p99 latency under
// the flash crowd. The flip side shows too: bursting replicas absorb the
// diurnal ramp without scaling (their effective capacity really is higher),
// so the flash lands on fewer replicas and more requests shed at the front
// door while the surge catches up. The HPA replica series tracks the
// diurnal curve up *and* back down in both modes; the CA brings parked
// hosts in at the peak and drains them in the trough.
//
// Results go to BENCH_autoscale.json (override with ARV_AUTOSCALE_OUT).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/cluster/autoscale.h"
#include "src/cluster/pod_workloads.h"
#include "src/cluster/router.h"
#include "src/harness/scenario.h"

namespace {

using namespace arv;
using namespace arv::bench;

constexpr int kHosts = 6;        // 4 active at t=0, 2 parked for the CA
constexpr int kParked = 2;
constexpr SimDuration kChunk = 250 * units::msec;  // rate-replay resolution
constexpr SimDuration kRun = 30 * units::sec;

/// The deterministic load shape, in requests/sec at simulated time `t`:
/// a diurnal ramp 200 -> 1800 over 10 s, a 3500/s flash crowd for 3 s at
/// the peak, the ramp back down by 20 s, then a 10 s trough (the window
/// where scale-down and host draining must happen).
double load_rate(SimTime t) {
  const double s = static_cast<double>(t) / static_cast<double>(units::sec);
  if (s < 10.0) {
    return 200.0 + 160.0 * s;
  }
  if (s < 13.0) {
    return 3500.0;  // flash crowd
  }
  if (s < 20.0) {
    return 1800.0 - (1800.0 - 200.0) * (s - 13.0) / 7.0;
  }
  return 200.0;
}

struct AutoscaleResult {
  std::string name;
  std::uint64_t generated = 0;
  double availability_pct = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  std::uint64_t shed = 0;
  std::uint64_t dropped = 0;
  int replicas_start = 0;
  int replicas_peak = 0;
  int replicas_final = 0;
  int hosts_peak = 0;
  int hosts_final = 0;
  std::uint64_t scale_ups = 0;
  std::uint64_t scale_downs = 0;
  std::uint64_t vpa_rewrites = 0;
  std::uint64_t hosts_added = 0;
  std::uint64_t hosts_drained = 0;
  std::vector<int> replica_series;  // one sample per chunk
  std::vector<int> host_series;
};

container::K8sResources res(std::int64_t millicpu, Bytes memory) {
  container::K8sResources r;
  r.request_millicpu = millicpu;
  r.request_memory = memory;
  return r;
}

AutoscaleResult run_mode(const std::string& name, cluster::CpuMode mode) {
  cluster::ClusterConfig config;
  config.seed = 42;
  harness::FleetScenario fleet(config);
  for (int i = 0; i < kHosts; ++i) {
    container::HostConfig host;
    host.cpus = 4;
    host.ram = 8 * units::GiB;
    fleet.add_host(host);
  }
  for (int i = kHosts - kParked; i < kHosts; ++i) {
    fleet.cluster().cordon_host(i, true);
  }

  cluster::RouterConfig router;
  router.arrivals_per_sec = load_rate(0);
  router.max_retries = 2;
  router.breaker_threshold = 5;
  router.breaker_open = 300 * units::msec;
  fleet.enable_router(router);

  server::WebConfig web;
  web.service_cpu = 4 * units::msec;
  web.max_queue = 200;

  // The declared CPU limit is deliberately tight (1500m against ~4-core
  // hosts): in quota-capped mode it becomes a 150 ms / 100 ms cfs quota
  // that throttles every burst, in burstable mode it is ignored.
  cluster::PodSpec replica;
  replica.name = "web";
  replica.resources = res(1000, 512 * units::MiB);
  replica.resources.limit_millicpu = 1500;
  replica.cpu_mode = mode;

  cluster::HpaConfig hpa;
  hpa.period = 250 * units::msec;
  hpa.min_replicas = 2;
  hpa.max_replicas = 12;
  hpa.request_cpu = web.service_cpu;
  hpa.max_surge = 6;
  hpa.up_stabilization = 250 * units::msec;
  hpa.down_stabilization = 2 * units::sec;
  fleet.enable_hpa(replica, web, hpa);
  for (int h = 0; h < hpa.min_replicas; ++h) {
    cluster::PodSpec seed = replica;
    seed.name = "web-seed-" + std::to_string(h);
    const int pod =
        fleet.cluster().create_pod(h, seed, cluster::web_replica(web));
    fleet.router()->add_replica(pod);
    fleet.hpa()->adopt(pod);
  }

  cluster::VpaConfig vpa;
  vpa.period = 100 * units::msec;
  vpa.window_rounds = 20;
  vpa.recommend_every = 5;
  fleet.enable_vpa(vpa);

  cluster::CaConfig ca;
  ca.period = 500 * units::msec;
  ca.min_hosts = 2;
  ca.band_rounds = 3;
  ca.cooldown = 2 * units::sec;
  fleet.enable_cluster_autoscaler(ca);

  AutoscaleResult result;
  result.name = name;
  result.replicas_start = fleet.hpa()->replicas();
  while (fleet.cluster().now() < kRun) {
    fleet.router()->set_rate(load_rate(fleet.cluster().now()));
    fleet.run(kChunk);
    const int replicas = fleet.hpa()->replicas();
    const int hosts = fleet.cluster().active_hosts();
    result.replica_series.push_back(replicas);
    result.host_series.push_back(hosts);
    result.replicas_peak = std::max(result.replicas_peak, replicas);
    result.hosts_peak = std::max(result.hosts_peak, hosts);
  }
  result.replicas_final = fleet.hpa()->replicas();
  result.hosts_final = fleet.cluster().active_hosts();

  const cluster::RequestRouter& r = *fleet.router();
  result.generated = r.generated();
  result.availability_pct =
      result.generated == 0
          ? 100.0
          : 100.0 * static_cast<double>(r.routed()) /
                static_cast<double>(result.generated);
  const server::RequestStats agg = r.aggregate();
  result.p50_ms = agg.percentile_ms(50.0);
  result.p95_ms = agg.percentile_ms(95.0);
  result.p99_ms = agg.percentile_ms(99.0);
  result.shed = r.shed();
  result.dropped = r.dropped();
  result.scale_ups = fleet.hpa()->scale_ups();
  result.scale_downs = fleet.hpa()->scale_downs();
  result.vpa_rewrites = fleet.vpa()->rewrites();
  result.hosts_added = fleet.cluster_autoscaler()->hosts_added();
  result.hosts_drained = fleet.cluster_autoscaler()->hosts_drained();
  return result;
}

std::string series_json(const std::vector<int>& series) {
  std::string out = "[";
  for (std::size_t i = 0; i < series.size(); ++i) {
    out += (i == 0 ? "" : ",") + std::to_string(series[i]);
  }
  return out + "]";
}

void write_json(const std::vector<AutoscaleResult>& results) {
  const char* env = std::getenv("ARV_AUTOSCALE_OUT");
  const std::string path =
      (env != nullptr && env[0] != '\0') ? env : "BENCH_autoscale.json";
  std::ofstream out(path);
  out << "{\n  \"bench\": \"autoscale\",\n"
      << strf("  \"fleet\": {\"hosts\": %d, \"parked\": %d, \"run_s\": %lld, "
              "\"chunk_ms\": %lld, \"flash_rate_per_sec\": 3500},\n",
              kHosts, kParked, static_cast<long long>(kRun / units::sec),
              static_cast<long long>(kChunk / units::msec))
      << "  \"runs\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const AutoscaleResult& r = results[i];
    out << strf(
        "    {\"name\": \"%s\", \"generated\": %llu, "
        "\"availability_pct\": %.3f,\n"
        "     \"p50_ms\": %.2f, \"p95_ms\": %.2f, \"p99_ms\": %.2f, "
        "\"shed\": %llu, \"dropped\": %llu,\n"
        "     \"replicas\": {\"start\": %d, \"peak\": %d, \"final\": %d}, "
        "\"hosts\": {\"peak\": %d, \"final\": %d},\n"
        "     \"scale_ups\": %llu, \"scale_downs\": %llu, "
        "\"vpa_rewrites\": %llu, \"hosts_added\": %llu, "
        "\"hosts_drained\": %llu,\n"
        "     \"replica_series\": %s,\n"
        "     \"host_series\": %s}%s\n",
        r.name.c_str(), static_cast<unsigned long long>(r.generated),
        r.availability_pct, r.p50_ms, r.p95_ms, r.p99_ms,
        static_cast<unsigned long long>(r.shed),
        static_cast<unsigned long long>(r.dropped), r.replicas_start,
        r.replicas_peak, r.replicas_final, r.hosts_peak, r.hosts_final,
        static_cast<unsigned long long>(r.scale_ups),
        static_cast<unsigned long long>(r.scale_downs),
        static_cast<unsigned long long>(r.vpa_rewrites),
        static_cast<unsigned long long>(r.hosts_added),
        static_cast<unsigned long long>(r.hosts_drained),
        series_json(r.replica_series).c_str(),
        series_json(r.host_series).c_str(),
        i + 1 < results.size() ? "," : "");
  }
  out << "  ]\n}\n";
  if (!out) {
    std::fprintf(stderr, "autoscale: failed to write %s\n", path.c_str());
  } else {
    std::printf("wrote %s\n", path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  print_header(
      "Closed-loop autoscaling: throttle-free vs quota-capped CPU",
      strf("%d hosts (%d parked), diurnal 200->1800/s with a 3500/s flash "
           "crowd; HPA + VPA + cluster autoscaler on effective views",
           kHosts, kParked));
  std::vector<AutoscaleResult> results;
  results.push_back(run_mode("quota_capped", cluster::CpuMode::kQuotaCapped));
  results.push_back(run_mode("burstable", cluster::CpuMode::kBurstable));
  {
    Table table({"mode", "avail(%)", "p50(ms)", "p95(ms)", "p99(ms)",
                 "replicas(start/peak/final)", "hosts(peak/final)", "ups",
                 "downs", "vpa", "added", "drained"});
    for (const AutoscaleResult& r : results) {
      table.add_row(
          {r.name, strf("%.3f", r.availability_pct), strf("%.2f", r.p50_ms),
           strf("%.2f", r.p95_ms), strf("%.2f", r.p99_ms),
           strf("%d/%d/%d", r.replicas_start, r.replicas_peak,
                r.replicas_final),
           strf("%d/%d", r.hosts_peak, r.hosts_final),
           std::to_string(r.scale_ups), std::to_string(r.scale_downs),
           std::to_string(r.vpa_rewrites), std::to_string(r.hosts_added),
           std::to_string(r.hosts_drained)});
    }
    std::fputs(table.to_ascii().c_str(), stdout);
  }
  std::printf(
      "expected: burstable beats quota_capped on p95/p99 under the flash "
      "crowd (trading some front-door shed while the surge catches up); "
      "replicas track the diurnal curve up and back down; parked hosts "
      "join at the peak and drain in the trough.\n");

  write_json(results);
  arv::bench::register_case("autoscale/quota_capped", [] {
    run_mode("quota_capped", cluster::CpuMode::kQuotaCapped);
  });
  arv::bench::register_case("autoscale/burstable", [] {
    run_mode("burstable", cluster::CpuMode::kBurstable);
  });
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
