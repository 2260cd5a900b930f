// The per-assembly runtime monitor: telemetry + contracts + governor.
//
// One RuntimeMonitor is built alongside every Application from the same
// plan the assembly is generated from: each functional component gets a
// ComponentTelemetry block allocated *inside its own RTSJ memory area*, a
// ContractMonitor when its metamodel declares a TimingContract, and a slot
// in the shared OverloadGovernor carrying its declared criticality.
//
// Feed paths:
//   * the wall-clock Launcher records completed periodic releases
//     (execution, response, lateness, deadline verdict) and asks the
//     governor for admission before each release;
//   * the SOLEIL membrane routes message-driven activations through a
//     TimingInterceptor whose record hook lands here (execution time and
//     arrival-rate contract checks for sporadic components);
//   * contract window outcomes drive the governor's escalation streaks,
//     and every violation is forwarded to the registered callback.
//
// All hot-path entry points are allocation-free; per-component contract
// state is single-consumer because components never migrate between
// executive workers.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "model/assembly_plan.hpp"
#include "model/metamodel.hpp"
#include "monitor/contract.hpp"
#include "monitor/governor.hpp"
#include "monitor/telemetry.hpp"
#include "rtsj/memory/memory_area.hpp"

namespace rtcf::monitor {

/// Gateway data-plane telemetry: the one counter block dist::DataPlane
/// writes (docs/DATAPLANE.md §7). Each event is one relaxed-atomic write;
/// readers are operator tooling polling across threads, and no counter
/// orders anything. Everything is monotonic except the gauges marked so.
struct DataPlaneCounters {
  std::atomic<std::uint64_t> offered{0};    ///< Messages handed to offer().
  std::atomic<std::uint64_t> sent{0};       ///< Messages put on a channel.
  std::atomic<std::uint64_t> batches{0};    ///< BATCH frames written.
  std::atomic<std::uint64_t> size_flushes{0};  ///< Flushes on batch_max.
  std::atomic<std::uint64_t> deadline_flushes{0};  ///< Flushes on interval.
  std::atomic<std::uint64_t> overflow_drops{0};  ///< Route-queue drop-newest.
  std::atomic<std::uint64_t> send_failures{0};   ///< Channel writes refused.
  std::atomic<std::uint64_t> credits_granted{0};  ///< Credits sent entry-side.
  std::atomic<std::uint64_t> queued{0};  ///< Gauge: messages queued now.
  std::atomic<std::uint64_t> peak_queue_depth{0};  ///< Gauge: largest
                                                   ///< single-route queue.
  /// Peer frames dropped because they failed to decode (WireError).
  std::atomic<std::uint64_t> malformed_frames{0};
  /// Peer HELLOs announcing a protocol version other than ours.
  std::atomic<std::uint64_t> version_mismatches{0};
  // Zero-copy path (docs/DATAPLANE.md "Zero-copy path"):
  std::atomic<std::uint64_t> ring_frames{0};  ///< Frames encoded in the ring.
  std::atomic<std::uint64_t> bytes_copied{0};  ///< Payload bytes staged in a
                                               ///< user-space buffer before
                                               ///< the transport.
  std::atomic<std::uint64_t> pool_hits{0};    ///< BufferPool freelist hits.
  std::atomic<std::uint64_t> pool_misses{0};  ///< BufferPool allocations.
  std::atomic<std::uint64_t> pool_high_water{0};  ///< Gauge: max buffers
                                                  ///< outstanding at once.

  /// A torn-free point read of every counter (plain integers).
  struct Snapshot {
    std::uint64_t offered = 0;
    std::uint64_t sent = 0;
    std::uint64_t batches = 0;
    std::uint64_t size_flushes = 0;
    std::uint64_t deadline_flushes = 0;
    std::uint64_t overflow_drops = 0;
    std::uint64_t send_failures = 0;
    std::uint64_t credits_granted = 0;
    std::uint64_t queued = 0;
    std::uint64_t peak_queue_depth = 0;
    std::uint64_t malformed_frames = 0;
    std::uint64_t version_mismatches = 0;
    std::uint64_t ring_frames = 0;
    std::uint64_t bytes_copied = 0;
    std::uint64_t pool_hits = 0;
    std::uint64_t pool_misses = 0;
    std::uint64_t pool_high_water = 0;
  };

  /// Reads each counter once (relaxed; counters are independent).
  Snapshot snapshot() const noexcept {
    Snapshot s;
    s.offered = offered.load(std::memory_order_relaxed);
    s.sent = sent.load(std::memory_order_relaxed);
    s.batches = batches.load(std::memory_order_relaxed);
    s.size_flushes = size_flushes.load(std::memory_order_relaxed);
    s.deadline_flushes = deadline_flushes.load(std::memory_order_relaxed);
    s.overflow_drops = overflow_drops.load(std::memory_order_relaxed);
    s.send_failures = send_failures.load(std::memory_order_relaxed);
    s.credits_granted = credits_granted.load(std::memory_order_relaxed);
    s.queued = queued.load(std::memory_order_relaxed);
    s.peak_queue_depth = peak_queue_depth.load(std::memory_order_relaxed);
    s.malformed_frames = malformed_frames.load(std::memory_order_relaxed);
    s.version_mismatches = version_mismatches.load(std::memory_order_relaxed);
    s.ring_frames = ring_frames.load(std::memory_order_relaxed);
    s.bytes_copied = bytes_copied.load(std::memory_order_relaxed);
    s.pool_hits = pool_hits.load(std::memory_order_relaxed);
    s.pool_misses = pool_misses.load(std::memory_order_relaxed);
    s.pool_high_water = pool_high_water.load(std::memory_order_relaxed);
    return s;
  }
};

/// Control-plane telemetry, fed by dist::NodeRuntime's serve thread.
/// Counts what the two-phase handler does with frames that are *not*
/// protocol work for this node — silently dropping them hid real routing
/// bugs (a peer's HELLO looping back, a stale coordinator's decision).
/// Same discipline as DataPlaneCounters: monotonic, relaxed, read by
/// operator tooling across threads.
struct ControlPlaneCounters {
  /// Frames whose type is not addressed to a node (coordinator-bound
  /// replies, unknown types) and were dropped per PROTOCOL.md §7.
  std::atomic<std::uint64_t> ignored_frames{0};
  /// Prepare frames refused because the sending coordinator's epoch was
  /// below the highest this node has seen (docs/MEMBERSHIP.md §5).
  std::atomic<std::uint64_t> fenced_prepares{0};
  /// Commit/Abort frames dropped for the same staleness reason.
  std::atomic<std::uint64_t> fenced_decisions{0};
  /// Takeover frames accepted (the node raised its coordinator epoch).
  std::atomic<std::uint64_t> takeovers{0};

  /// A torn-free point read of every counter (plain integers).
  struct Snapshot {
    std::uint64_t ignored_frames = 0;
    std::uint64_t fenced_prepares = 0;
    std::uint64_t fenced_decisions = 0;
    std::uint64_t takeovers = 0;
  };

  /// Reads each counter once (relaxed; counters are independent).
  Snapshot snapshot() const noexcept {
    Snapshot s;
    s.ignored_frames = ignored_frames.load(std::memory_order_relaxed);
    s.fenced_prepares = fenced_prepares.load(std::memory_order_relaxed);
    s.fenced_decisions = fenced_decisions.load(std::memory_order_relaxed);
    s.takeovers = takeovers.load(std::memory_order_relaxed);
    return s;
  }
};

class RuntimeMonitor {
 public:
  /// Violation callback: function pointer + opaque arg, so firing from a
  /// worker thread allocates nothing. Fired for every contract violation
  /// after telemetry and governor bookkeeping.
  using ViolationFn = void (*)(void* arg, const Violation& violation);

  struct Entry {
    const char* name = nullptr;
    /// Area-allocated; owned by the component's memory area, not by us.
    ComponentTelemetry* telemetry = nullptr;
    /// Null for uncontracted components.
    ContractMonitor* contract = nullptr;
    std::size_t governor_id = 0;
    model::Criticality criticality = model::Criticality::High;
    /// Relative deadline for activation-path miss detection (the
    /// MIT-derived implicit deadline for sporadic components); zero
    /// disables the check.
    rtsj::RelativeTime deadline{};
    /// True for periodic components: their contract windows are fed by
    /// the launcher's release records (which carry the real deadline
    /// verdict), so activation-path records must not dilute them.
    bool release_driven = false;
    RuntimeMonitor* owner = nullptr;
  };

  explicit RuntimeMonitor(OverloadGovernor::Options options = {});

  RuntimeMonitor(const RuntimeMonitor&) = delete;
  RuntimeMonitor& operator=(const RuntimeMonitor&) = delete;

  /// Registers the plan's tenant envelopes with the governor and records
  /// which tenant each planned component belongs to, so subsequent
  /// add_component() calls land in their tenant's degradation scope.
  /// Idempotent per tenant name (re-adoption after a live reload only
  /// registers tenants the governor has not seen yet) — call it before
  /// registering the plan's components. Components outside every tenant
  /// stay in the governor's implicit default envelope.
  void adopt_tenants(const model::AssemblyPlan& plan);

  /// Registers one component: telemetry storage is carved from `area`
  /// (RTSJ newInstance), the contract checker from the heap (assembly
  /// time, not hot path). `deadline` enables activation-path miss
  /// detection; `release_driven` marks periodic components whose contract
  /// windows the launcher feeds instead. Returns a stable Entry reference.
  Entry& add_component(const char* name, rtsj::MemoryArea& area,
                       model::Criticality criticality,
                       const model::TimingContract* contract,
                       rtsj::RelativeTime deadline = rtsj::RelativeTime::zero(),
                       bool release_driven = false);

  /// Re-arms one component's contract checking — the mode-transition hook:
  /// the entry gets a *fresh* ContractMonitor for `contract` (or none when
  /// null), so window streaks, arrival history, and violation counts start
  /// clean in the new mode. Must be called at a quiescence point (no
  /// worker is feeding the entry); the old checker stays allocated so a
  /// stale pointer read cannot fault, it just stops being fed.
  void rearm(Entry& entry, const model::TimingContract* contract);

  Entry* find(const std::string& name) noexcept;
  const Entry* find(const std::string& name) const noexcept;
  const std::vector<std::unique_ptr<Entry>>& entries() const noexcept {
    return entries_;
  }

  OverloadGovernor& governor() noexcept { return governor_; }
  const OverloadGovernor& governor() const noexcept { return governor_; }

  /// Gateway data-plane counters. Stays all-zero on assemblies that are
  /// not hosted by a node runtime (nothing else feeds it).
  DataPlaneCounters& data_plane() noexcept { return data_plane_; }
  const DataPlaneCounters& data_plane() const noexcept { return data_plane_; }

  /// Control-plane counters (same ownership rule as data_plane()).
  ControlPlaneCounters& control_plane() noexcept { return control_plane_; }
  const ControlPlaneCounters& control_plane() const noexcept {
    return control_plane_;
  }

  void set_violation_callback(ViolationFn fn, void* arg) noexcept {
    violation_fn_ = fn;
    violation_arg_ = arg;
  }

  // ---- hot-path feeds ----------------------------------------------------

  /// Governor admission for one periodic release. A degraded verdict is
  /// already counted into telemetry (shed/rate_limited) before returning.
  OverloadGovernor::Admission admit_release(Entry& entry) noexcept;

  /// Same for one message-driven activation: returns false when the
  /// activation must be dropped (counted as shed).
  bool admit_activation(Entry& entry) noexcept;

  /// One completed periodic release (launcher).
  void record_release(Entry& entry, rtsj::RelativeTime exec,
                      rtsj::RelativeTime response,
                      rtsj::RelativeTime lateness, bool missed) noexcept;

  /// One message-driven activation (timing interceptor); checks the WCET
  /// budget and the arrival-rate bound.
  void record_activation(Entry& entry, std::uint64_t exec_nanos) noexcept;

  /// membrane::TimingInterceptor record hook (arg = Entry*).
  static void record_activation_trampoline(void* entry,
                                           std::uint64_t exec_nanos) noexcept;

  // ---- aggregates --------------------------------------------------------

  std::uint64_t violations_total() const noexcept;
  std::uint64_t shed_total() const noexcept;
  /// Bytes of telemetry storage carved from RTSJ areas (footprint metric).
  std::size_t telemetry_bytes() const noexcept { return telemetry_bytes_; }

 private:
  void apply_outcome(Entry& entry, WindowOutcome outcome) noexcept;
  void fire(Entry& entry, const Violation& violation) noexcept;

  std::vector<std::unique_ptr<Entry>> entries_;
  std::map<std::string, Entry*> by_name_;
  std::vector<std::unique_ptr<ContractMonitor>> contracts_;
  /// Stable storage for tenant name strings handed to the governor
  /// (which keeps only const char*); deque never relocates elements.
  std::deque<std::string> tenant_names_;
  /// Tenant name -> governor tenant id (for idempotent re-adoption).
  std::map<std::string, std::size_t> tenant_ids_;
  /// Component name -> governor tenant id of its owning tenant.
  std::map<std::string, std::size_t> component_tenants_;
  OverloadGovernor governor_;
  DataPlaneCounters data_plane_;
  ControlPlaneCounters control_plane_;
  ViolationFn violation_fn_ = nullptr;
  void* violation_arg_ = nullptr;
  std::size_t telemetry_bytes_ = 0;
};

}  // namespace rtcf::monitor
