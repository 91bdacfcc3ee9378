// §5.4 overhead table: the cost of maintaining and querying the adaptive
// resource view, measured on *this* implementation with real wall-clock
// timing (google-benchmark proper). The paper reports, on its testbed:
// sys_namespace update ~1 us; sysconf effective-CPU query ~5 us; effective-
// memory query ~100 us.
#include <benchmark/benchmark.h>

#include <memory>

#include "bench/common.h"
#include "src/workloads/hogs.h"

namespace {

using namespace arv;
using namespace arv::bench;

struct OverheadFixture {
  /// `mixed`: shares spanning 2..65536, overlapping 6-CPU cpuset windows, a
  /// 1.5-CPU quota on every third container and 1-5 threads each, so the
  /// scheduler's water-fill needs several rounds per tick.
  explicit OverheadFixture(int containers, bool mixed = false)
      : host(paper_host()), runtime(host) {
    static constexpr std::int64_t kShares[] = {2, 256, 1024, 4096, 65536};
    const int cpus = host.scheduler().online_cpus();
    for (int i = 0; i < containers; ++i) {
      container::ContainerConfig config;
      config.name = "c" + std::to_string(i);
      config.mem_limit = 4 * GiB;
      config.mem_soft_limit = 2 * GiB;
      int threads = 2;
      if (mixed) {
        config.cpu_shares = kShares[i % 5];
        for (int k = 0; k < 6; ++k) {
          config.cpuset.set((i * 3 + k) % cpus);
        }
        if (i % 3 == 0) {
          config.cfs_quota_us = 150'000;
        }
        threads = 1 + i % 5;
      }
      containers_.push_back(&runtime.run(config));
      hogs.push_back(std::make_unique<workloads::CpuHog>(
          host, *containers_.back(), threads, 36000 * sec));
    }
    host.run_for(100 * msec);  // warm up usage counters
  }

  container::Host host;
  container::ContainerRuntime runtime;
  std::vector<container::Container*> containers_;
  std::vector<std::unique_ptr<workloads::CpuHog>> hogs;
};

/// One full Ns_Monitor round (all registered sys_namespaces): the paper's
/// "update to a sys_namespace takes 1 us" analogue, amortized per container.
void BM_SysNamespaceUpdateRound(benchmark::State& state) {
  OverheadFixture fixture(static_cast<int>(state.range(0)));
  SimTime fake_now = fixture.host.now();
  for (auto _ : state) {
    fake_now += 24000;
    fixture.host.monitor().update_all(fake_now);
  }
  state.counters["containers"] =
      static_cast<double>(fixture.host.monitor().registered_count());
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SysNamespaceUpdateRound)->Arg(1)->Arg(5)->Arg(10)->Arg(50);

/// sysconf(_SC_NPROCESSORS_ONLN) through the virtual sysfs (effective CPU).
void BM_SysconfEffectiveCpu(benchmark::State& state) {
  OverheadFixture fixture(5);
  const proc::Pid pid = fixture.containers_[0]->init_pid();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fixture.host.sysfs().sysconf(pid, vfs::Sysconf::kNProcessorsOnln));
  }
}
BENCHMARK(BM_SysconfEffectiveCpu);

/// sysconf(_SC_PHYS_PAGES) — the effective-memory query path.
void BM_SysconfEffectiveMemory(benchmark::State& state) {
  OverheadFixture fixture(5);
  const proc::Pid pid = fixture.containers_[0]->init_pid();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fixture.host.sysfs().sysconf(pid, vfs::Sysconf::kPhysPages));
  }
}
BENCHMARK(BM_SysconfEffectiveMemory);

/// Reading /sys/devices/system/cpu/online from inside a container (string
/// materialization included, like a real read(2) of the pseudo-file).
void BM_VirtualSysfsCpuOnlineRead(benchmark::State& state) {
  OverheadFixture fixture(5);
  const proc::Pid pid = fixture.containers_[0]->init_pid();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fixture.host.sysfs().read(pid, "/sys/devices/system/cpu/online"));
  }
}
BENCHMARK(BM_VirtualSysfsCpuOnlineRead);

/// Reading /proc/meminfo from inside a container.
void BM_VirtualSysfsMeminfoRead(benchmark::State& state) {
  OverheadFixture fixture(5);
  const proc::Pid pid = fixture.containers_[0]->init_pid();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixture.host.sysfs().read(pid, "/proc/meminfo"));
  }
}
BENCHMARK(BM_VirtualSysfsMeminfoRead);

/// Host-side knob write (docker update): includes the cgroup notification
/// fan-out that refreshes every registered sys_namespace.
void BM_CgroupKnobWrite(benchmark::State& state) {
  OverheadFixture fixture(5);
  std::int64_t shares = 1024;
  for (auto _ : state) {
    shares = shares == 1024 ? 2048 : 1024;
    fixture.host.sysfs().write("/sys/fs/cgroup/cpu/c0/cpu.shares",
                               std::to_string(shares));
  }
}
BENCHMARK(BM_CgroupKnobWrite);

/// One simulated scheduler tick at increasing container counts — the cost
/// of the whole fluid CFS model, for calibration. The hogs' demand never
/// changes, so every tick after the first reuses the memoised water-fill.
void BM_SchedulerTick(benchmark::State& state) {
  OverheadFixture fixture(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    fixture.host.engine().step();
  }
  state.counters["containers"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_SchedulerTick)->Arg(1)->Arg(5)->Arg(20)->Arg(100)->Arg(1000);

/// A consumer whose runnable thread count the benchmark sets between ticks.
class ToggledLoad final : public sched::Schedulable {
 public:
  int runnable_threads() const override { return threads_; }
  void consume(SimTime /*now*/, SimDuration /*dt*/, CpuTime /*grant*/) override {}
  void set_threads(int threads) { threads_ = threads; }

 private:
  int threads_ = 0;
};

/// The same tick with one container's runnable count flipped every tick, so
/// its demand changes and the water-fill runs each time: the memo-miss path.
void BM_SchedulerTickPerturbed(benchmark::State& state) {
  OverheadFixture fixture(static_cast<int>(state.range(0)));
  ToggledLoad load;
  const cgroup::CgroupId target = fixture.containers_[0]->cgroup();
  fixture.host.scheduler().attach(target, &load);
  int threads = 0;
  for (auto _ : state) {
    threads ^= 1;
    load.set_threads(threads);
    fixture.host.engine().step();
  }
  fixture.host.scheduler().detach(target, &load);
  state.counters["containers"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_SchedulerTickPerturbed)->Arg(1)->Arg(5)->Arg(20)->Arg(100)->Arg(1000);

/// The same tick with mixed shares, overlapping cpusets and quotas: the
/// multi-round water-fill path.
void BM_SchedulerTickMixed(benchmark::State& state) {
  OverheadFixture fixture(static_cast<int>(state.range(0)), /*mixed=*/true);
  for (auto _ : state) {
    fixture.host.engine().step();
  }
  state.counters["containers"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_SchedulerTickMixed)->Arg(20)->Arg(100)->Arg(1000);

}  // namespace

BENCHMARK_MAIN();
