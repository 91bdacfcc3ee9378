#pragma once

#include <string>
#include <vector>

namespace perfbench {

struct KernelResult {
  std::string name;     ///< per-layer metric name, "kernel.*"
  double ns_per_op = 0; ///< median wall nanoseconds per operation
};

/// Runs every hot-kernel microbenchmark in-process.
std::vector<KernelResult> run_kernels();

}  // namespace perfbench
