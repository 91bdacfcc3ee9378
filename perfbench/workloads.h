// The benchmark's four workloads. Each rep builds its scenario from the
// seed, runs it to a fixed simulated horizon (or to completion) and reports
// its simulated outputs, which must repeat exactly for a given seed, plus
// the wall times the harness measured around public calls.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/load/trace_spec.h"
#include "src/util/types.h"

namespace perfbench {

inline constexpr arv::SimDuration kChunk = 1 * arv::units::sec;
inline constexpr std::int64_t kMoveWindowNs = 20'000'000;

struct RepResult {
  std::int64_t setup_ns = 0;  ///< scenario construction, before the first step
  std::int64_t run_ns = 0;    ///< every step of the run
  /// The run's wall time split per simulated second (kChunk), so run.py can
  /// take the fastest rep of each chunk over the reps of one seed: a burst of
  /// interference then spoils one rep's chunk, not the estimate.
  std::vector<std::int64_t> chunk_ns;
  arv::SimDuration sim = 0;   ///< simulated time the run advanced
  /// Simulated operations: generated requests, or JVM jobs on dense_host.
  std::uint64_t operations = 0;
  /// Every simulated output as one JSON object (the digested part).
  std::string outputs;
  /// Traced reps only: wall nanoseconds per span, by metric stem.
  std::vector<std::pair<std::string, std::int64_t>> spans_ns;
};

/// Times a rep's run per simulated second (kChunk). On a shared host one CPU
/// can be slowed by other tenants while another is free, so when a stretch of
/// chunks runs more than a quarter slower than the fastest earlier reps of the
/// same seed ran them, the clock calls `on_slow`, which moves the process to
/// another CPU. A stretch holds at least kMoveWindowNs of that fastest time:
/// judged on shorter chunks, a brief interrupt or the cold caches after a move
/// would set off move after move.
class ChunkClock {
 public:
  ChunkClock(std::vector<std::int64_t>& fastest, std::function<void()> on_slow)
      : fastest_(fastest), on_slow_(std::move(on_slow)) {}

  void start();
  /// Ends a chunk: appends its wall time to rep.chunk_ns and updates
  /// rep.run_ns.
  void lap(RepResult& rep);

 private:
  std::vector<std::int64_t>& fastest_;  ///< per chunk, over the seed's reps
  std::function<void()> on_slow_;
  std::int64_t start_ = 0;
  std::int64_t mark_ = 0;
  std::int64_t stretch_ns_ = 0;          ///< this rep's time on the stretch
  std::int64_t stretch_fastest_ns_ = 0;  ///< the fastest reps' time on it
};

struct Workload {
  const char* name;
  RepResult (*run)(std::uint64_t seed, bool traced, ChunkClock& clock);
};

const std::vector<Workload>& workloads();

/// million_user_day's compiled-trace spec (also the trace-compile kernel's).
arv::load::TraceSpec million_user_day_spec(std::uint64_t seed);

}  // namespace perfbench
