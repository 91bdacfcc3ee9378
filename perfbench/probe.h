// Span probes the benchmark attaches from outside the program.
//
// Everything here goes through public APIs only: markers are no-op cluster
// components registered with Cluster::add_component between the harness's
// own registrations, and HostWrappers swaps a host's scheduler, memory
// manager and monitor for forwarding wrappers, three for three, so
// Host::quiescent() (which requires exactly three components) and the idle
// skip see the same program. Neither changes any simulated value.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/container/host.h"
#include "src/sim/engine.h"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Forwards every engine call to `inner` and adds its wall time to `total`.
class TimedComponent final : public arv::sim::TickComponent {
 public:
  TimedComponent(arv::sim::TickComponent& inner, std::int64_t& total)
      : inner_(inner), total_(total) {}

  void tick(arv::SimTime now, arv::SimDuration dt) override {
    const std::int64_t start = now_ns();
    inner_.tick(now, dt);
    total_ += now_ns() - start;
  }
  std::string name() const override { return inner_.name(); }
  arv::SimDuration tick_period() const override { return inner_.tick_period(); }

 private:
  arv::sim::TickComponent& inner_;
  std::int64_t& total_;
};

/// Wall-time totals of the three base host components, summed over hosts.
struct HostComponentTimes {
  std::int64_t sched_ns = 0;
  std::int64_t mem_ns = 0;
  std::int64_t monitor_ns = 0;
};

/// Owns the wrappers of every host they were installed on and their totals.
/// Engines hold the wrappers' addresses, so it is neither copied nor moved.
class HostWrappers {
 public:
  HostWrappers() = default;
  HostWrappers(const HostWrappers&) = delete;
  HostWrappers& operator=(const HostWrappers&) = delete;

  /// Replace the host's scheduler, memory and monitor components with timed
  /// wrappers, in the host's own registration order. Call before anything
  /// else registers on the host's engine.
  void install(arv::container::Host& host) {
    arv::sim::Engine& engine = host.engine();
    engine.remove_component(&host.scheduler());
    engine.remove_component(&host.memory());
    engine.remove_component(&host.monitor());
    wrappers_.emplace_back(host.scheduler(), times_.sched_ns);
    engine.add_component(&wrappers_.back());
    wrappers_.emplace_back(host.memory(), times_.mem_ns);
    engine.add_component(&wrappers_.back());
    wrappers_.emplace_back(host.monitor(), times_.monitor_ns);
    engine.add_component(&wrappers_.back());
  }

  const HostComponentTimes& times() const { return times_; }

 private:
  HostComponentTimes times_;
  std::deque<TimedComponent> wrappers_;
};

/// Records the wall clock each time the cluster dispatches it. Markers run
/// every tick (period 0) and in registration order with the components
/// between them, so the gap between two adjacent markers is the self time
/// of the components registered between them.
class Marker final : public arv::sim::TickComponent {
 public:
  explicit Marker(std::int64_t& stamp) : stamp_(stamp) {}
  void tick(arv::SimTime, arv::SimDuration) override { stamp_ = now_ns(); }
  std::string name() const override { return "perfbench.marker"; }

 private:
  std::int64_t& stamp_;
};

/// Splits each Cluster::step() into the component segments bracketed by
/// markers, the trace sample that follows the last marker, and the rest.
class ComponentSpans {
 public:
  ComponentSpans() = default;
  ComponentSpans(const ComponentSpans&) = delete;  // markers hold addresses
  ComponentSpans& operator=(const ComponentSpans&) = delete;

  /// Bind to the cluster whose steps are split. The spans object must
  /// outlive the cluster's last step; declare it before the scenario.
  void attach(arv::cluster::Cluster& cluster) { cluster_ = &cluster; }

  /// Register a marker that closes the previous segment and opens `segment`:
  /// the cluster components registered next belong to it.
  void open(const std::string& segment) {
    add_marker();
    segments_.push_back(segment);
  }
  /// Register the marker that closes the last segment.
  void close() { add_marker(); }

  /// One timed Cluster::step().
  void step() {
    const std::int64_t start = now_ns();
    cluster_->step();
    const std::int64_t end = now_ns();
    step_ns_ += end - start;
    for (std::size_t k = 0; k < segments_.size(); ++k) {
      segment_ns_[segments_[k]] += stamps_[k + 1] - stamps_[k];
    }
    components_ns_ += stamps_.back() - stamps_.front();
    trace_ns_ += end - stamps_.back();
  }

  std::int64_t step_ns() const { return step_ns_; }
  std::int64_t components_ns() const { return components_ns_; }
  std::int64_t trace_ns() const { return trace_ns_; }
  std::int64_t segment_ns(const std::string& segment) const {
    const auto it = segment_ns_.find(segment);
    return it == segment_ns_.end() ? 0 : it->second;
  }

 private:
  void add_marker() {
    stamps_.push_back(0);
    markers_.emplace_back(stamps_.back());
    cluster_->add_component(&markers_.back());
  }

  arv::cluster::Cluster* cluster_ = nullptr;
  std::deque<std::int64_t> stamps_;  ///< deque: markers hold addresses
  std::deque<Marker> markers_;
  std::vector<std::string> segments_;
  std::map<std::string, std::int64_t> segment_ns_;
  std::int64_t step_ns_ = 0;
  std::int64_t components_ns_ = 0;
  std::int64_t trace_ns_ = 0;
};

}  // namespace perfbench
