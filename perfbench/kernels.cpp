// Hot-kernel microbenchmarks (google-benchmark), on state sized like the
// workloads. Each reports wall nanoseconds per operation, the median of
// three repetitions.
#include "perfbench/kernels.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <memory>

#include "perfbench/workloads.h"
#include "src/cluster/pod_workloads.h"
#include "src/harness/scenario.h"
#include "src/util/latency_histogram.h"
#include "src/workloads/hogs.h"

namespace perfbench {
namespace {

using namespace arv;

/// dense_host's machine: the paper's 20-core, 128 GiB testbed.
container::HostConfig paper_host() {
  container::HostConfig config;
  config.cpus = 20;
  config.ram = 128 * units::GiB;
  return config;
}

/// FairScheduler water-fill over dense_host's shape: 100 busy containers on
/// a 20-core host.
void sched_tick_n100(benchmark::State& state) {
  container::Host host(paper_host());
  container::ContainerRuntime runtime(host);
  std::vector<std::unique_ptr<workloads::CpuHog>> hogs;
  for (int i = 0; i < 100; ++i) {
    container::Container& c = runtime.run({}, "hog");
    hogs.push_back(std::make_unique<workloads::CpuHog>(
        host, c, 1 + i % 4, SimDuration{1} << 50));
  }
  SimTime now = 0;
  for (auto _ : state) {
    now += units::msec;
    host.scheduler().tick(now, units::msec);
  }
  benchmark::DoNotOptimize(host.scheduler().total_slack());
}

/// fleet_sparse's fleet snapshot rebuilt from scratch: 1024 hosts, 12 pods.
void fleet_view_refresh_h1024(benchmark::State& state) {
  harness::FleetScenario fleet;
  for (int i = 0; i < 1024; ++i) {
    container::HostConfig host;
    host.cpus = 4;
    host.ram = 16 * units::GiB;
    fleet.add_host(host);
  }
  server::WebConfig web;
  web.arrivals_per_sec = 0;
  for (int h = 0; h < 12; ++h) {
    cluster::PodSpec spec;
    spec.resources.request_millicpu = 1000;
    spec.resources.request_memory = units::GiB;
    fleet.cluster().create_pod(h, spec, cluster::web_replica(web));
  }
  fleet.cluster().step();
  for (auto _ : state) {
    fleet.cluster().invalidate_fleet_view();
    benchmark::DoNotOptimize(&fleet.cluster().fleet_view());
  }
}

constexpr std::size_t kInjectBatch = 64;

/// RequestRouter::inject_batch into 10 replicas on 10 hosts, the
/// million_user_day fleet; the cluster steps (untimed) between batches so
/// queues drain and every request takes the accept path.
void inject_batch(benchmark::State& state) {
  harness::FleetScenario fleet;
  for (int i = 0; i < 10; ++i) {
    container::HostConfig host;
    host.cpus = 4;
    host.ram = 8 * units::GiB;
    fleet.add_host(host);
  }
  fleet.add_tenant("web");
  server::WebConfig web;
  web.service_cpu = 1 * units::msec;
  for (int i = 0; i < 10; ++i) {
    container::K8sResources r;
    r.request_millicpu = 1000;
    r.request_memory = 512 * units::MiB;
    fleet.place_tenant_web_pod("web", r, web);
  }
  cluster::RequestRouter& router = *fleet.tenant_router("web");
  std::vector<CpuTime> costs(kInjectBatch, 20 * units::usec);
  fleet.cluster().step();
  for (auto _ : state) {
    router.inject_batch(fleet.cluster().now(), costs.data(), costs.size());
    state.PauseTiming();
    fleet.cluster().step();
    state.ResumeTiming();
  }
  benchmark::DoNotOptimize(router.routed());
}

/// Latency samples spread over the 0.2 ms .. 1 s range the workloads see.
std::vector<std::int64_t> latency_samples(std::size_t n) {
  Rng rng(11);
  std::vector<std::int64_t> out(n);
  for (std::int64_t& v : out) {
    v = rng.uniform_int(200, 1'000'000);
  }
  return out;
}

void hist_record(benchmark::State& state) {
  const std::vector<std::int64_t> samples = latency_samples(4096);
  util::LatencyHistogram h;
  std::size_t i = 0;
  for (auto _ : state) {
    h.record(samples[i]);
    i = (i + 1) % samples.size();
  }
  benchmark::DoNotOptimize(h.count());
}

void hist_merge(benchmark::State& state) {
  util::LatencyHistogram a;
  util::LatencyHistogram b;
  for (const std::int64_t v : latency_samples(100'000)) {
    b.record(v);
  }
  for (auto _ : state) {
    a.merge(b);
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(a.count());
}

void hist_p99(benchmark::State& state) {
  util::LatencyHistogram h;
  for (const std::int64_t v : latency_samples(100'000)) {
    h.record(v);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.percentile(99.0));
  }
}

/// One container with the adaptive view reading /proc/cpuinfo: the cached
/// render (hit), and the read right after a cgroup change (miss).
struct CpuinfoHost {
  container::Host host{paper_host()};
  container::ContainerRuntime runtime{host};
  container::Container& c = runtime.run({}, "reader");
};

void sysfs_cpuinfo_hit(benchmark::State& state) {
  CpuinfoHost h;
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.host.sysfs().read(h.c.init_pid(), "/proc/cpuinfo"));
  }
}

void sysfs_cpuinfo_miss(benchmark::State& state) {
  CpuinfoHost h;
  std::int64_t shares = 1024;
  for (auto _ : state) {
    state.PauseTiming();
    shares = shares == 1024 ? 1025 : 1024;
    h.c.update_cpu_shares(shares);
    state.ResumeTiming();
    benchmark::DoNotOptimize(h.host.sysfs().read(h.c.init_pid(), "/proc/cpuinfo"));
  }
}

void trace_compile_day(benchmark::State& state) {
  const load::TraceSpec spec = million_user_day_spec(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(load::compile(spec).total_arrivals());
  }
}

/// Collects the per-repetition iteration runs; aggregates are recomputed.
class Capture final : public benchmark::BenchmarkReporter {
 public:
  bool ReportContext(const Context&) override { return true; }
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type == Run::RT_Iteration && !run.error_occurred) {
        ns_[run.run_name.function_name].push_back(run.GetAdjustedRealTime());
      }
    }
  }
  const std::map<std::string, std::vector<double>>& results() const { return ns_; }

 private:
  std::map<std::string, std::vector<double>> ns_;
};

}  // namespace

std::vector<KernelResult> run_kernels() {
  struct Kernel {
    const char* name;
    void (*fn)(benchmark::State&);
    double per_iteration;  ///< operations per iteration
  };
  const Kernel kernels[] = {
      {"kernel.sched_tick_n100", sched_tick_n100, 1},
      {"kernel.fleet_view_refresh_h1024", fleet_view_refresh_h1024, 1},
      {"kernel.inject_batch_per_req", inject_batch,
       static_cast<double>(kInjectBatch)},
      {"kernel.hist_record", hist_record, 1},
      {"kernel.hist_merge", hist_merge, 1},
      {"kernel.hist_p99", hist_p99, 1},
      {"kernel.sysfs_cpuinfo_hit", sysfs_cpuinfo_hit, 1},
      {"kernel.sysfs_cpuinfo_miss", sysfs_cpuinfo_miss, 1},
      {"kernel.trace_compile_day", trace_compile_day, 1},
  };
  for (const Kernel& k : kernels) {
    benchmark::RegisterBenchmark(k.name, k.fn)
        ->Unit(benchmark::kNanosecond)
        ->MinTime(0.05)
        ->Repetitions(3);
  }
  Capture capture;
  benchmark::RunSpecifiedBenchmarks(&capture);
  benchmark::ClearRegisteredBenchmarks();

  std::vector<KernelResult> out;
  for (const Kernel& k : kernels) {
    const auto it = capture.results().find(k.name);
    if (it == capture.results().end() || it->second.empty()) {
      continue;
    }
    std::vector<double> ns = it->second;
    std::sort(ns.begin(), ns.end());
    out.push_back({k.name, ns[ns.size() / 2] / k.per_iteration});
  }
  return out;
}

}  // namespace perfbench
