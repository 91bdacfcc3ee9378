// arv_perfbench — the benchmark's measuring process. perfbench/run.py builds
// and drives it; it prints one JSON line of raw measurements, and run.py
// turns those into metrics and checks the simulated outputs.
//
//   arv_perfbench run --workload W --seeds S1,S2,... --seconds T --trace 0|1
//                     [--max-reps N]
//   arv_perfbench kernels
//
// `run` cycles through the seeds, one rep (set-up + run) per seed, and stops
// at the end of the first cycle that ends after T wall seconds and after at
// least kMinCycles cycles, so every seed gets the same number of reps. Each
// cycle starts pinned to the next CPU the process may use: on a shared host
// the CPUs slow down independently, so a seed's reps visit every CPU, and a
// chunk that runs slow moves the process on to the next CPU (see ChunkClock).
// With --trace 1 each seed gets an untraced rep followed by a traced one, so
// one process yields both sides of the tracing overhead.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/json.h"
#include "perfbench/kernels.h"
#include "perfbench/probe.h"
#include "perfbench/workloads.h"

namespace {

using namespace perfbench;

constexpr std::size_t kMinCycles = 3;

struct Args {
  std::string command;
  std::string workload;
  std::vector<std::uint64_t> seeds;
  double seconds = 10;
  bool trace = false;
  int max_reps = 1 << 30;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "arv_perfbench: %s\n", why);
  std::fprintf(stderr,
               "usage: arv_perfbench run --workload W --seeds S1,S2,... "
               "--seconds T --trace 0|1 [--max-reps N]\n"
               "       arv_perfbench kernels\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  if (argc < 2) {
    usage("missing command");
  }
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; i += 2) {
    if (i + 1 >= argc) {
      usage("flag without a value");
    }
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seeds") {
      for (const char* p = value; *p != '\0';) {
        char* end = nullptr;
        args.seeds.push_back(std::strtoull(p, &end, 10));
        if (end == p) {
          usage("bad --seeds");
        }
        p = *end == ',' ? end + 1 : end;
      }
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--max-reps") {
      args.max_reps = std::atoi(value);
    } else {
      usage("unknown flag");
    }
  }
  return args;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

#if defined(__clang__)
constexpr const char* kCompiler = "Clang " __clang_version__;
#else
constexpr const char* kCompiler = "GCC " __VERSION__;
#endif

/// Peak resident set of this process image in KiB (VmHWM). Not getrusage:
/// Linux carries ru_maxrss across execve, so it would report the parent's
/// peak whenever the parent was larger.
std::int64_t peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stoll(line.substr(6));
    }
  }
  return 0;
}

/// The CPUs this process may run on, in order.
std::vector<std::size_t> allowed_cpus() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  std::vector<std::size_t> cpus;
  if (sched_getaffinity(0, sizeof mask, &mask) == 0) {
    for (std::size_t cpu = 0; cpu < static_cast<std::size_t>(CPU_SETSIZE); ++cpu) {
      if (CPU_ISSET(cpu, &mask)) {
        cpus.push_back(cpu);
      }
    }
  }
  return cpus;
}

void pin_to(std::size_t cpu) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  CPU_SET(cpu, &mask);
  sched_setaffinity(0, sizeof mask, &mask);  // best effort: unpinned is fine
}

int run(const Args& args) {
  const Workload* workload = find_workload(args.workload);
  if (workload == nullptr) {
    usage("unknown workload");
  }
  if (args.seeds.empty()) {
    usage("no seeds");
  }
  const std::size_t per_seed = args.trace ? 2 : 1;
  const std::size_t cycle = per_seed * args.seeds.size();
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  const std::vector<std::size_t> cpus = allowed_cpus();
  std::size_t cpu = 0;
  std::uint64_t moves = 0;
  const auto move_on = [&cpus, &cpu, &moves] {
    if (!cpus.empty()) {
      pin_to(cpus[++cpu % cpus.size()]);
      ++moves;
    }
  };
  // Fastest wall time of each chunk over the reps so far, per seed and per
  // traced/untraced side (the probes make traced chunks slower).
  std::map<std::pair<std::uint64_t, bool>, std::vector<std::int64_t>> fastest;
  std::vector<std::string> outputs;
  Json reps;
  reps.begin_array();
  for (std::size_t i = 0; i < static_cast<std::size_t>(args.max_reps); ++i) {
    if (i >= kMinCycles * cycle && i % cycle == 0 && now_ns() >= deadline) {
      break;
    }
    if (i % cycle == 0 && !cpus.empty()) {
      cpu = i / cycle;
      pin_to(cpus[cpu % cpus.size()]);
    }
    const std::uint64_t seed = args.seeds[(i / per_seed) % args.seeds.size()];
    const bool traced = args.trace && i % 2 == 1;
    ChunkClock clock(fastest[{seed, traced}], move_on);
    const RepResult rep = workload->run(seed, traced, clock);
    // Reps of one seed must repeat their outputs exactly; keep each distinct
    // output once and point every rep at its copy.
    std::size_t index = 0;
    while (index < outputs.size() && outputs[index] != rep.outputs) {
      ++index;
    }
    if (index == outputs.size()) {
      outputs.push_back(rep.outputs);
    }
    reps.begin_object()
        .field("seed", seed)
        .field("traced", traced)
        .field("setup_ns", rep.setup_ns)
        .field("run_ns", rep.run_ns)
        .field("sim_us", rep.sim)
        .field("operations", rep.operations)
        .field("output", static_cast<std::uint64_t>(index));
    reps.key("chunk_ns").begin_array();
    for (const std::int64_t ns : rep.chunk_ns) {
      reps.value(ns);
    }
    reps.end_array();
    reps.key("spans_ns").begin_object();
    for (const auto& [name, ns] : rep.spans_ns) {
      reps.field(name, ns);
    }
    reps.end_object().end_object();
  }
  reps.end_array();

  std::string line = "{\"workload\":\"" + args.workload + "\"";
  Json meta;
  meta.begin_object();
  meta.field("compiler", kCompiler)
      .field("build_type", PERFBENCH_BUILD_TYPE)
      .field("peak_rss_kb", peak_rss_kb())
      .field("cpu_moves", moves);
  meta.end_object();
  line += ",\"meta\":" + meta.str() + ",\"reps\":" + reps.str() + ",\"outputs\":[";
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    line += (i == 0 ? "" : ",") + outputs[i];
  }
  line += "]}";
  std::puts(line.c_str());
  return 0;
}

int kernels() {
  Json j;
  j.begin_object();
  for (const KernelResult& k : run_kernels()) {
    j.field(k.name, k.ns_per_op);
  }
  j.end_object();
  std::puts(j.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  if (args.command == "run") {
    return run(args);
  }
  if (args.command == "kernels") {
    return kernels();
  }
  usage("unknown command");
}
