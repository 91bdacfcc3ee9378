// Cluster — a multi-host fleet on one deterministic clock.
//
// N simulated Hosts share one clock. Every cluster tick runs two kinds of
// phase (see DESIGN.md §11):
//
//   1. The *host phase*: each awake host's engine advances one tick, in
//      index order on the calling thread. Hosts are independent within a
//      tick (nothing crosses host boundaries until the later phases). A host
//      found provably quiescent (Host::quiescent) leaves the awake list: its
//      clock freezes and the interval is replayed analytically on first
//      touch (sync-on-touch), which is also the only way back onto the list.
//      A tick costs O(awake hosts), not O(fleet).
//   2. The *serial phases*, in a fixed order: slack window accounting (work
//      only at a window roll), due pod migrations, the FleetView snapshot
//      refresh (fleet_view.h — the one cluster-state object every fleet-wide
//      consumer reads; only rows of hosts stepped or touched are
//      re-observed), cluster-level components (rebalancer, router, fault
//      machinery), and the trace sample. Every serial stage that walks hosts
//      or pods does so in index order.
//
// The skip is exact, so the same configuration and seed produce
// byte-identical cluster traces with the skip on or off, on any machine:
// the same determinism contract the single-host layer pins with golden
// traces. Only the cluster.hosts_skipped series itself differs.
//
// The cluster owns the pods. A Pod couples a Kubernetes-style spec with the
// container currently realising it and the workload object running inside;
// migration is the Docker-era recipe (no live pre-copy): stop the container
// on the source, pay a freeze proportional to its committed memory, recreate
// the same cgroup configuration on the target, and re-create the workload
// from the pod's factory.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/fleet_view.h"
#include "src/container/container.h"
#include "src/container/host.h"
#include "src/obs/trace_recorder.h"
#include "src/server/server_runtime.h"
#include "src/sim/engine.h"
#include "src/util/rng.h"

namespace arv::server {
class WorkerPoolServer;
}

namespace arv::cluster {

/// The workload running inside a pod's container. Implementations own
/// whatever Schedulable they attach (a server, a hog); destroying the object
/// must detach it, because migration destroys and re-creates workloads.
class PodWorkload {
 public:
  virtual ~PodWorkload() = default;

  /// Non-null when the workload serves an open-loop request stream the
  /// RequestRouter can target.
  virtual server::WorkerPoolServer* request_sink() { return nullptr; }
};

/// Builds a pod's workload inside a freshly-created container. Called once
/// at placement and again after every migration, so factories must be
/// re-invocable.
using WorkloadFactory =
    std::function<std::unique_ptr<PodWorkload>(container::Host&,
                                               container::Container&)>;

struct ClusterConfig {
  /// Shared tick length; every added host must be configured with the same.
  SimDuration tick = 1 * units::msec;
  /// Seeds the rng used for placement score tie-breaks.
  std::uint64_t seed = 42;
  /// Window over which per-host slack is accumulated for the "effective"
  /// strategy and the rebalancer (the observed-idle signal).
  SimDuration observe_window = 100 * units::msec;
  /// Migration cost model: freeze = base + committed_bytes / bandwidth.
  SimDuration migration_freeze = 50 * units::msec;
  Bytes migration_bandwidth_per_sec = 256 * units::MiB;
  /// Record the cluster-wide trace (per-host slack/free-mem/pods, migration
  /// and routing counters). Observation-only, like host tracing.
  bool enable_tracing = false;
  SimDuration trace_interval = 100 * units::msec;
  /// Skip hosts whose tick would provably be a no-op (Host::quiescent):
  /// they leave the awake list, their clock freezes and catches up
  /// analytically on first touch. Exact by construction — traces are
  /// identical with the skip on or off, apart from the cluster.hosts_skipped
  /// series; the flag exists so tests and bench/cluster_scaling can run the
  /// fully stepped reference path.
  bool skip_idle_hosts = true;
};

/// One scheduled pod. The container pointer is null while the pod is in
/// flight between hosts (migration freeze), after stop_pod, or after a
/// crash (failed == true, awaiting restart-in-place or failover).
struct Pod {
  int id = -1;
  PodSpec spec;
  int host = -1;  ///< current (or in-flight target) host; -1 once stopped
  container::Container* container = nullptr;  ///< owned by the host's runtime
  std::unique_ptr<PodWorkload> workload;
  WorkloadFactory factory;
  int migrations = 0;
  SimTime placed_at = 0;  ///< when the pod last landed on a host
  /// Request stats harvested from sinks that migration (or stop) destroyed,
  /// so fleet-level throughput/latency survive replica churn.
  server::RequestStats archived;
  /// The pod's process (or host) crashed; its host-ledger slot is retained
  /// until a RestartManager re-lands it in place or a FailureDetector fails
  /// it over to another host.
  bool failed = false;
  int restarts = 0;    ///< restart-in-place count (CrashLoopBackOff counter)
  int failovers = 0;   ///< crashes recovered by re-placement on another host
  SimTime crashed_at = 0;  ///< when the pod last crashed
  /// Requests that were queued (accepted, not yet completed) in a sink when
  /// its teardown — migration, stop, or crash — destroyed them.
  std::uint64_t lost = 0;

  bool running() const { return container != nullptr; }
  bool in_flight() const { return container == nullptr && host >= 0 && !failed; }
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config = {});
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // --- fleet topology (before run) -----------------------------------------
  /// Add one simulated machine; returns its index. `host_config.tick` must
  /// equal the cluster tick, and hosts must be added before time advances.
  int add_host(container::HostConfig host_config = {});

  int host_count() const { return static_cast<int>(hosts_.size()); }

  /// Access a host (or its runtime). Syncs a frozen host's clock first
  /// (sync-on-touch), so callers always observe a host at cluster time —
  /// the single serialization point the fault machinery relies on. The
  /// non-const overloads conservatively mark the host's fleet row stale and
  /// wake the host (the caller may mutate anything behind the reference);
  /// over-marking costs a row rebuild and one quiescence check, never a
  /// generation bump — see fleet_view().
  container::Host& host(int index) {
    sync_host(index);
    mark_host_dirty(index);
    return *hosts_.at(static_cast<std::size_t>(index)).host;
  }
  container::ContainerRuntime& runtime(int index) {
    sync_host(index);
    mark_host_dirty(index);
    return *hosts_.at(static_cast<std::size_t>(index)).runtime;
  }

  /// Register a cluster-level component (rebalancer, router), dispatched
  /// after all hosts advanced each tick — same TickComponent contract as
  /// sim::Engine (tick_period re-queried after each dispatch, registration
  /// order breaks due-time ties). Not owned.
  void add_component(sim::TickComponent* component);

  // --- time ----------------------------------------------------------------
  SimTime now() const { return now_; }
  void step();
  void run_for(SimDuration duration);

  // --- pods ----------------------------------------------------------------
  /// Create a pod on `host_index` (placement already decided — see
  /// ClusterScheduler). Returns the pod id.
  int create_pod(int host_index, PodSpec spec, WorkloadFactory factory = {});

  /// Stop the pod's container and destroy its workload. Request stats are
  /// harvested into pod.archived first. Also handles in-flight and failed
  /// pods: an in-flight stop cancels the pending landing and releases the
  /// target host's reservation (stats were already harvested at departure).
  void stop_pod(int pod_id);

  /// Stop-and-recreate migration toward `target_host`. The pod is gone from
  /// the source immediately and lands on the target after the freeze
  /// (base + committed/bandwidth); its requests are reserved on the target
  /// for the whole flight so placement cannot double-book the slot.
  void migrate_pod(int pod_id, int target_host);

  Pod& pod(int id) { return pods_.at(static_cast<std::size_t>(id)); }
  const Pod& pod(int id) const { return pods_.at(static_cast<std::size_t>(id)); }
  int pod_count() const { return static_cast<int>(pods_.size()); }
  int pods_on(int host_index) const { return hosts_.at(static_cast<std::size_t>(host_index)).pods; }
  std::uint64_t migrations() const { return migrations_; }

  // --- faults and recovery --------------------------------------------------
  /// Kill every pod on the host (their processes die; stats are harvested
  /// out-of-band, queued requests are lost) and mark the host down. Pods
  /// stay assigned to the host ledger as failed, awaiting restart-in-place
  /// (if the host reboots) or failover (FailureDetector). Migrations in
  /// flight *to* the host are lost the same way. The host's engine keeps
  /// ticking (empty) until it is quiescent, then freezes like any idle host.
  void crash_host(int host_index);

  /// Bring a crashed host back as an empty machine (fresh boot: any
  /// host-memory reservation from pressure injection is cleared).
  void reboot_host(int host_index);

  bool host_up(int host_index) const {
    return hosts_.at(static_cast<std::size_t>(host_index)).up;
  }

  // --- cordon (cluster autoscaler) -----------------------------------------
  /// Administratively (un)mark a host unschedulable. A cordoned host keeps
  /// ticking and heartbeating — placement strategies just skip it, so it is
  /// parked, not dead. The ClusterAutoscaler "removes" a host by cordoning
  /// and draining it (the fleet's machine count is fixed at t=0; a parked
  /// empty host quiesces, so the skip path makes it nearly free) and "adds"
  /// one by uncordoning a parked machine.
  void cordon_host(int host_index, bool cordoned);

  bool host_cordoned(int host_index) const {
    return hosts_.at(static_cast<std::size_t>(host_index)).cordoned;
  }

  /// Hosts currently up and not cordoned — the schedulable fleet size.
  int active_hosts() const;

  /// Kill one running pod's process (the host stays up). The pod keeps its
  /// ledger slot on the host so a RestartManager can re-land it in place.
  void crash_pod(int pod_id);

  /// Re-create a failed pod's container + workload on its current host
  /// (restart-in-place; the host must be up). Increments pod.restarts.
  void restart_pod(int pod_id);

  /// Re-place a failed pod on `target_host` (which must be up) and land it
  /// immediately — the crashed replica has no state to copy, only a cold
  /// start. Moves the ledger slot and increments pod.failovers.
  void failover_pod(int pod_id, int target_host);

  std::uint64_t pod_crashes() const { return pod_crashes_; }
  std::uint64_t host_crashes() const { return host_crashes_; }
  std::uint64_t restarts() const { return restarts_; }
  std::uint64_t failovers() const { return failovers_; }

  // --- observed state ------------------------------------------------------
  /// The strategy-facing view of one host: declared request sums from the
  /// cluster ledger, observed slack/free-memory from the host subsystems.
  /// Correct for frozen hosts without syncing them (their observables are
  /// constant while frozen).
  HostView host_view(int index) const;

  /// The shared cluster snapshot (DESIGN.md §13): per-host effective views
  /// plus flattened per-pod rows, assembled in the serial phase and
  /// generation-stamped. Lazily refreshed — if anything mutated the fleet
  /// since the last refresh, the rows that could have changed are
  /// re-observed in place first (every other row is provably unchanged), so
  /// the returned view is always current. The generation advances only when
  /// the *content* changed. This is what every fleet-wide consumer
  /// (placement, detector, autoscalers, router) reads; consumers that place
  /// several pods in one round copy it and claim() each landing. Serial
  /// phases only.
  const FleetView& fleet_view();

  /// The snapshot published at the previous tick boundary (what diff renders
  /// against). Empty before the second step.
  const FleetView& previous_fleet_view() const { return prev_; }

  /// The fleet snapshot's content generation (backs /sys/arv/fleet/ render
  /// caching — an idle fleet re-renders nothing).
  vfs::Generation fleet_generation() const { return fleet_gen_; }

  /// Host/pod rows a refresh kept instead of re-observing, cumulative (each
  /// refresh adds every row outside its rebuilt set). Not traced: the count
  /// varies with the idle-skip setting.
  std::uint64_t fleet_rows_reused() const { return rows_reused_; }

  /// Force the next fleet_view() to re-observe every row (profile updates,
  /// tests). Never bumps the generation unless content actually changed.
  void invalidate_fleet_view();

  /// Attach (or detach, with nullptr) a ProfileStore whose percentiles the
  /// pod rows carry. Called by ProfileStore's constructor/destructor.
  void attach_profiles(const ProfileStore* profiles);
  const ProfileStore* profiles() const { return profiles_; }

  /// The published per-host arena — cur snapshot's host rows, refreshed at
  /// the tick boundary (and whenever a consumer pulled a fresh fleet_view()
  /// mid-round). Per-round readers that want the boundary view without
  /// forcing a refresh (the rebalancer's capacity scan, the autoscaler's
  /// slack band, the trace) read this. Empty until the first step.
  const std::vector<HostView>& views() const { return cur_.hosts; }

  // --- host phase -----------------------------------------------------------
  /// Cumulative count of host-ticks skipped by the quiescence fast path:
  /// each tick adds every host the host phase did not step. Deterministic:
  /// a host's skip decision depends only on its own state.
  std::uint64_t hosts_skipped() const { return hosts_skipped_; }

  /// Number of cluster steps taken.
  std::uint64_t steps_taken() const { return steps_; }

  /// Idle CPU time accumulated on the host during the last *completed*
  /// observation window (a fresh host reports a fully idle window).
  CpuTime window_slack(int index) const {
    return hosts_.at(static_cast<std::size_t>(index)).window_slack;
  }

  /// A host's cumulative idle CPU time as of cluster time, frozen hosts
  /// included: the scheduler counter plus an analytic full-capacity credit
  /// for the frozen gap (exactly what advance_idle will add on touch).
  /// Reading this never syncs the host — the cheap path for per-round
  /// slack consumers (rebalancer, trace).
  CpuTime host_slack_total(int index) const;

  Rng& rng() { return rng_; }
  const ClusterConfig& config() const { return config_; }

  /// The cluster trace recorder, or nullptr when tracing is disabled.
  obs::TraceRecorder* trace() { return trace_.get(); }
  const obs::TraceRecorder* trace() const { return trace_.get(); }

 private:
  struct HostState {
    std::unique_ptr<container::Host> host;
    std::unique_ptr<container::ContainerRuntime> runtime;
    // Declared-request ledger over the pods currently on (or in flight to)
    // the host — what the "requests" strategy packs against.
    std::int64_t requested_millicpu = 0;
    Bytes requested_memory = 0;
    int pods = 0;
    /// False between crash_host and reboot_host. A down host accepts no
    /// pods; its engine still ticks (empty) while it is not quiescent.
    bool up = true;
    /// Administratively unschedulable (see cordon_host). Orthogonal to `up`:
    /// a cordoned host is healthy, so the FailureDetector must not bury it.
    bool cordoned = false;
    /// Slack observation window: host_slack_total() at the last roll, and
    /// its growth over the last completed window (see window_slack()).
    CpuTime slack_at_roll = 0;
    CpuTime window_slack = 0;
    /// On awake_: the next host phase judges (steps or freezes) this host.
    bool awake = false;
    /// On touched_: mutated (or handed out by reference) since the last
    /// fleet refresh, so the next refresh re-observes its row and its pods.
    bool touched = false;
  };
  struct PendingMigration {
    SimTime due = 0;
    std::uint64_t seq = 0;  ///< FIFO tie-break at equal due times
    int pod = -1;
  };
  struct Dispatch {
    sim::TickComponent* component = nullptr;
    SimTime next = 0;
    SimTime last = 0;
  };

  /// Step every awake host; a quiescent one freezes and leaves awake_.
  void host_phase();
  /// Catch a frozen host's clock up to cluster time and wake it (no-op when
  /// current).
  void sync_host(int index);
  /// Put a host back on awake_, so the next host phase re-judges it.
  void wake_host(int index);
  /// Record a (potential) mutation of the host: its fleet row goes stale
  /// and it is woken.
  void mark_host_dirty(int index);
  /// Advance the slack window. Only a roll does work: one pass that credits
  /// each host's window from host_slack_total() and audits that every
  /// frozen host is still quiescent.
  void observe_slack();
  /// Bring cur_ up to date in place: re-observe the rows of every host
  /// stepped, synced or touched since the last refresh (every host on a
  /// window roll, invalidate_fleet_view() or before the clock starts) and
  /// of the pods filed under them, and bump the generation if any row
  /// differed. A `boundary` refresh first brings prev_ up to the snapshot
  /// as it stood, so diff() has a stable per-tick baseline; mid-tick (lazy)
  /// refreshes leave prev_ untouched.
  void refresh_fleet(bool boundary);
  /// The fleet row of a pod, observed from live state (interns its service
  /// into cur_).
  PodRow pod_row(const Pod& pod);
  void settle_migrations();
  void dispatch_components();
  void land_pod(Pod& pod);
  void harvest_stats(Pod& pod);
  void fail_pod(Pod& pod);
  void register_host_trace(int index);

  ClusterConfig config_;
  Rng rng_;
  SimTime now_ = 0;
  SimDuration window_elapsed_ = 0;
  /// True only while the host phase is stepping hosts. Every topology or
  /// fault mutator asserts it is false: mutations are legal only in the
  /// serial phases, so host-side code (a workload, a monitor) can never
  /// reshape the fleet mid-step and a crash never observes a half-stepped
  /// fleet.
  bool in_host_phase_ = false;
  std::uint64_t hosts_skipped_ = 0;
  std::uint64_t steps_ = 0;
  /// Hosts the next host phase judges. After the phase it holds exactly the
  /// hosts that stepped; touched or synced hosts are appended (unsorted)
  /// until the next phase sorts it. Every host at cluster time is on it.
  std::vector<int> awake_;
  /// Hosts marked dirty since the last fleet refresh.
  std::vector<int> touched_;
  // Fleet snapshot pair: cur_ is the live snapshot, refreshed in place;
  // prev_ the one published at the previous tick boundary. fleet_gen_ is
  // address-stable — the /sys/arv/fleet/ pseudo-files cache renders on a
  // pointer to it.
  FleetView cur_;
  FleetView prev_;
  vfs::Generation fleet_gen_ = 0;
  bool fleet_dirty_ = true;
  /// The next refresh re-observes every row (window roll, invalidation).
  bool full_refresh_ = true;
  /// What prev_ lacks of cur_: rows whose content changed since the last
  /// boundary, or — after a re-index — everything.
  std::vector<int> changed_hosts_;
  std::vector<int> changed_pods_;
  bool reindexed_ = false;
  std::vector<int> refresh_pods_;  ///< refresh_fleet's work list, reused
  std::uint64_t rows_reused_ = 0;
  const ProfileStore* profiles_ = nullptr;
  std::vector<HostState> hosts_;
  std::vector<Pod> pods_;
  std::vector<PendingMigration> pending_;
  std::uint64_t next_migration_seq_ = 0;
  std::vector<Dispatch> components_;
  std::uint64_t migrations_ = 0;
  std::uint64_t pod_crashes_ = 0;
  std::uint64_t host_crashes_ = 0;
  std::uint64_t restarts_ = 0;
  std::uint64_t failovers_ = 0;
  std::unique_ptr<obs::TraceRecorder> trace_;  ///< null when tracing is off
};

}  // namespace arv::cluster
