// Small statistics helpers: the scheduler's load average (Ema) and
// nearest-rank percentiles over sample vectors.
#pragma once

#include <vector>

namespace arv {

/// Exponentially weighted moving average, the same shape the kernel uses for
/// /proc/loadavg: next = decay * prev + (1 - decay) * sample.
class Ema {
 public:
  /// `decay` in (0, 1); closer to 1 means a longer memory.
  explicit Ema(double decay) : decay_(decay) {}

  void add(double sample);
  double value() const { return value_; }
  bool primed() const { return primed_; }
  void reset();

  /// Force the current value (e.g. seeding a load average with history).
  void prime(double value) {
    value_ = value;
    primed_ = true;
  }

 private:
  double decay_;
  double value_ = 0.0;
  bool primed_ = false;
};

/// Percentile over a copy of the samples (p in [0, 100], nearest-rank).
double percentile(std::vector<double> samples, double p);

}  // namespace arv
