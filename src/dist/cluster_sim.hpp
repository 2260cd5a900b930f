// Virtual-time mirror of a distributed assembly: per-node mirrors sharing
// one virtual clock.
//
// Each node's slice is mapped onto its own simulated CPU of a single
// sim::PreemptiveScheduler — one clock, N nodes — so a coordinated
// transition replays as one deterministic trace: every node's PlanChange /
// ModeChange event carries the same virtual commit instant, and the
// cluster-wide schedule is bit-for-bit reproducible. Cross-node bridged
// bindings are chained through completion callbacks with a configurable
// link latency, the virtual-time stand-in for the data-plane hop.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "model/metamodel.hpp"
#include "reconfig/plan_delta.hpp"
#include "reconfig/sim_mirror.hpp"
#include "sim/architecture_sim.hpp"
#include "sim/scheduler.hpp"
#include "validate/distribution.hpp"

namespace rtcf::dist {

/// One node's share of a cluster mirror.
struct NodeMirror {
  std::string node;          ///< Node name.
  std::size_t cpu = 0;       ///< Simulated CPU (= node index).
  sim::SimMapping mapping;   ///< Task ids of the node's slice.
};

/// One bridged message's fate under a chaos policy.
struct LinkFault {
  bool drop = false;                 ///< Lose the message entirely.
  std::uint32_t copies = 1;          ///< Delivered copies (2 = duplicate).
  rtsj::RelativeTime extra_delay{};  ///< Added on top of the link latency.
};

/// Per-message chaos hook for the adversity drills: consulted once per
/// bridged delivery with the route's index (compute_routes order) and the
/// message sequence number on that route. Null = a perfect network.
using LinkPolicy =
    std::function<LinkFault(std::size_t route_index, std::uint64_t seq)>;

/// Per-route counters of the mirrored data plane. The live terms form
/// the DATA-CONSERVATION identity the drills audit at any instant:
///
///   offered == delivered + chaos_dropped + overflow_dropped + queued
struct RouteSimStats {
  std::uint64_t offered = 0;     ///< Exit completions handed to the route.
  std::uint64_t delivered = 0;   ///< Messages posted to the server task
                                 ///< (a duplicated message counts once).
  std::uint64_t chaos_dropped = 0;     ///< Lost to the LinkPolicy.
  std::uint64_t overflow_dropped = 0;  ///< Drop-newest at a full queue.
  std::uint64_t batches = 0;           ///< Flushes that delivered > 0.
  std::uint64_t queued = 0;            ///< In the route queue right now.
};

/// A credit-starvation window: replenishments for `route` that would
/// land inside [from, to) arrive at `to` instead — the deterministic
/// mirror of an entry node too overloaded to grant credits.
struct SimStarvation {
  std::size_t route = 0;     ///< Route index (compute_routes order).
  rtsj::AbsoluteTime from{};
  rtsj::AbsoluteTime to{};
};

/// The virtual-time mirror of dist::DataPlane (docs/DATAPLANE.md §8):
/// per-route batching, credit windows, and bounded queues replayed on
/// the shared virtual clock. The default-constructed value reproduces
/// the historical immediate-delivery behaviour bit-for-bit (no callback
/// events, identical traces).
struct SimDataPlane {
  /// Queue depth at which a route flushes immediately; <= 1 delivers
  /// each message as it completes (the legacy path).
  std::size_t batch_max = 1;
  /// Deadline flush: a non-empty queue flushes this long after its
  /// oldest message arrived (and re-arms while credit-starved).
  rtsj::RelativeTime flush_interval{};
  /// Sender credit window; 0 = uncredited (never blocks on credit).
  std::uint64_t credit_window = 0;
  /// Credit round trip: a flush's credits return this long after the
  /// messages arrive at the server's node.
  rtsj::RelativeTime credit_rtt{};
  /// Route queue bound (drop-newest when full); 0 = unbounded.
  std::size_t route_queue_cap = 0;
  /// Credit-starvation windows (CreditStarvation drill faults).
  std::vector<SimStarvation> starvations;
  /// When set, resized to the route count and updated live.
  std::shared_ptr<std::vector<RouteSimStats>> stats;

  /// True when any knob leaves the legacy immediate-delivery path.
  bool batched() const noexcept {
    return batch_max > 1 || credit_window > 0 || route_queue_cap > 0;
  }
};

/// Maps every node's slice of `global` onto `scheduler` (which must have
/// at least map.nodes.size() CPUs): node k's tasks — including its
/// gateway exits — run on CPU k. Cross-node asynchronous bindings are
/// chained exit -> remote server with `link_latency` added to the arrival
/// instant; `chaos` (when set) may drop, duplicate, or further delay each
/// bridged message, consulted at offer time keyed by (route index, seq)
/// so fault schedules replay identically whatever the batching knobs.
/// `data_plane` mirrors the wall-clock batching/credit machinery; the
/// default reproduces immediate delivery bit-for-bit. Returns the
/// per-node mirrors in cluster order.
std::vector<NodeMirror> map_cluster(
    const model::Architecture& global, const validate::NodeMap& map,
    sim::PreemptiveScheduler& scheduler,
    rtsj::RelativeTime link_latency = rtsj::RelativeTime::zero(),
    LinkPolicy chaos = nullptr, SimDataPlane data_plane = {});

/// Schedules one node's slice delta at virtual time `t` on its mirror —
/// the virtual-time half of a coordinated commit: call it for every node
/// with the same `t` (the commit instant) and `anchor` (the run start) to
/// replay the cluster transition atomically. Added tasks are pinned to
/// the mirror's CPU.
void schedule_node_delta(sim::PreemptiveScheduler& scheduler,
                         reconfig::PlanDelta delta, NodeMirror& mirror,
                         rtsj::AbsoluteTime t, rtsj::AbsoluteTime anchor);

/// Disables every task of `mirror`'s slice at virtual time `at` — the
/// replay of an endpoint going away, whether a crash or an orderly
/// drain-leave. Arrivals after `at` are counted as disabled, which keeps
/// the conservation audit exact (no message silently lost).
void schedule_node_down(sim::PreemptiveScheduler& scheduler,
                        const NodeMirror& mirror, rtsj::AbsoluteTime at);

}  // namespace rtcf::dist
