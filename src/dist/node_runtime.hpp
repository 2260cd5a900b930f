// One node of a distributed assembly: a sliced Application under its own
// ModeManager and wall-clock Launcher, speaking the control protocol.
//
// The NodeRuntime owns the node-local half of everything the coordinator
// orchestrates:
//
//   * it slices the global architecture for its node (dist/slice.hpp),
//     validates the slice, and assembles it in SOLEIL mode on a
//     single-partition executive (the distributed dimension replaces the
//     intra-node partitioning dimension at this layer);
//   * its *serve loop* (one background thread) pumps the control channel
//     — answering PREPARE with a validated vote and a parked executive,
//     COMMIT by applying the staged transition on the caller side of the
//     rendezvous, ABORT by releasing the workers with the old epoch
//     intact — and the peer data channels, queueing BATCH frames into an
//     inbox. Every hand-off to the executive (a queued BATCH, a CREDIT
//     top-up, a staged PREPARE, a linked shm ring) wakes the launcher, so
//     the executive acts on it at once instead of after its idle wait;
//     the serve thread itself still writes no data channel;
//   * the launcher's *boundary hook* drains that inbox on the executive
//     thread at every dispatch boundary, injecting remote messages
//     through the entry gateways' ordinary ports (so remote delivery
//     rides the same buffer/activation/monitor path as local traffic,
//     and never races a swap — the hook does not run while the worker is
//     parked at a rendezvous), then flushes what the dispatch round
//     before it queued toward peers;
//   * sustained overload escalating the governor to `demote_at` is
//     reported to the coordinator as a DEMOTE_REQUEST instead of being
//     demoted locally — the cluster form of the governor hook, where one
//     node's overload can shut down whole nodes' components via a
//     coordinated transition into the degraded mode.
//
// A node that voted PREPARE_OK but hears no decision within
// `decision_timeout` aborts unilaterally (presumed abort) so a dead
// coordinator can never wedge the executive at the rendezvous.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "comm/channel.hpp"
#include "dist/dataplane.hpp"
#include "dist/gateway.hpp"
#include "dist/protocol.hpp"
#include "dist/slice.hpp"
#include "monitor/governor.hpp"
#include "reconfig/mode_manager.hpp"
#include "runtime/launcher.hpp"
#include "soleil/application.hpp"
#include "validate/distribution.hpp"

namespace rtcf::dist {

/// Drives one node of a distributed assembly.
class NodeRuntime {
 public:
  /// Node behaviour knobs (all have production-shaped defaults).
  struct Options {
    /// Wall-clock horizon of one start() executive run.
    rtsj::RelativeTime run_duration = rtsj::RelativeTime::milliseconds(500);
    /// Serve-loop poll cadence, and the bound on one idle wait of the
    /// executive. The serve thread wakes the executive whenever it hands
    /// it work, so the executive waits this long only when nothing
    /// arrives. The cadence is exact: both threads wait with 1 ns timer
    /// slack (rtsj::PreciseTimerScope), not the host's default.
    rtsj::RelativeTime poll_interval = rtsj::RelativeTime::microseconds(200);
    /// PREPARE: how long to wait for the local executive to park before
    /// voting PREPARE_FAIL (the coordinator sees a straggler either way).
    rtsj::RelativeTime quiesce_timeout = rtsj::RelativeTime::milliseconds(500);
    /// Prepared but undecided: unilateral abort after this long.
    rtsj::RelativeTime decision_timeout =
        rtsj::RelativeTime::milliseconds(2000);
    /// Report sustained overload to the coordinator (cluster demotion)
    /// instead of demoting locally.
    bool cluster_demotion = true;
    /// Governor level at (or above) which the demote request is sent.
    monitor::GovernorLevel demote_at = monitor::GovernorLevel::Shed;
    /// Starting mode; empty selects the first declared mode.
    std::string initial_mode;
    /// Data-plane batching/credit knobs (docs/DATAPLANE.md §6).
    DataPlaneConfig data_plane;
    /// Non-empty enables the shm-ring transport toward co-located peers:
    /// both nodes configured with the same namespace derive the same
    /// region token per peer pair and negotiate it at HELLO time
    /// (docs/DATAPLANE.md §5). Empty disables the offer.
    std::string shm_namespace;
    /// Data bytes per direction of a negotiated shm ring.
    std::size_t shm_capacity = std::size_t{1} << 20;
  };

  /// Aggregate gateway counters (zero-loss audit input).
  struct GatewayStats {
    std::uint64_t forwarded = 0;  ///< Exit messages sent to peers.
    std::uint64_t exit_dropped = 0;   ///< Exit messages with no route.
    std::uint64_t injected = 0;   ///< Remote messages delivered locally.
    std::uint64_t entry_dropped = 0;  ///< Remote messages with no entry.
  };

  /// Slices `global` for `node` under `map`, validates the slice, and
  /// assembles it (SOLEIL, one partition) with default options. Throws
  /// std::invalid_argument on an undeclared node or a slice that fails
  /// validation.
  NodeRuntime(const model::Architecture& global, const validate::NodeMap& map,
              const std::string& node);
  /// Same, with explicit options.
  NodeRuntime(const model::Architecture& global, const validate::NodeMap& map,
              const std::string& node, Options options);
  /// Stops and joins everything still running.
  ~NodeRuntime();

  /// Not copyable (owns threads and the assembled application).
  NodeRuntime(const NodeRuntime&) = delete;
  /// Not assignable.
  NodeRuntime& operator=(const NodeRuntime&) = delete;

  /// Attaches the control channel and sends HELLO. Call before serve().
  void attach_control(std::shared_ptr<comm::Channel> channel);
  /// Attaches the data channel to `peer` (bridged bindings route by the
  /// server's node name). Call before start().
  void connect_peer(const std::string& peer,
                    std::shared_ptr<comm::Channel> channel);

  /// Starts the executive (one launcher run of Options::run_duration) and
  /// the serve loop, both on background threads.
  void start();
  /// Stops serving, joins both threads (waiting out the executive run),
  /// drains every in-flight remote message, and stops the assembly.
  void stop();
  /// Blocks until the executive run finished (the serve loop keeps
  /// running so post-run transitions still apply inline).
  void join_executive();

  /// Test/ops fault injection: the next PREPARE is rejected with
  /// `reason` (a drill for the cluster-wide abort path).
  void fail_next_prepare(std::string reason);

  /// Sends JOIN on the control channel: ask the coordinator to admit
  /// this node into the live membership, announcing the plan epoch of
  /// the snapshot it restarted from. False when no control channel is
  /// attached or the send failed.
  bool request_join();
  /// Sends LEAVE on the control channel: ask the coordinator to drain
  /// this node's slice away and remove it from the membership.
  bool request_leave(const std::string& reason);
  /// Highest coordinator epoch this node has seen (frames from lower
  /// epochs are fenced; 0 until a coordinator speaks).
  std::uint64_t coord_epoch_seen() const noexcept {
    return coord_epoch_seen_.load(std::memory_order_relaxed);
  }

  /// Node name.
  const std::string& name() const noexcept { return node_; }
  /// The running node-local assembly.
  soleil::Application& application() noexcept { return *app_; }
  /// The node-local mode manager (plan_epoch() is the node epoch the
  /// protocol reports).
  reconfig::ModeManager& mode_manager() noexcept { return *mode_manager_; }
  /// The node-local wall-clock executive.
  runtime::Launcher& launcher() noexcept { return *launcher_; }
  /// The node's slice architecture (owned; outlives the application).
  const model::Architecture& slice() const noexcept { return slice_; }

  /// Aggregated gateway counters, plus inbox drops.
  GatewayStats gateway_stats() const;
  /// Remote messages still queued in the inbox (0 after stop()).
  std::size_t inbox_depth() const;
  /// The node's data plane (batching/credit counters for tests and ops;
  /// its counters live in the runtime monitor's DataPlaneCounters).
  const DataPlane& data_plane() const noexcept { return dataplane_; }
  /// True when the data path toward `peer` runs over a negotiated
  /// shm ring instead of the attached channel.
  bool shm_linked(const std::string& peer) const;

 private:
  void serve_loop();
  void executive_loop();
  void boundary();  // launcher hook: inbox drain + flush + governor
  /// One frame off a peer data channel: BATCH to the inbox, CREDIT to the
  /// data plane, HELLO to the version check and shm negotiation; unknown
  /// types are ignored (docs/PROTOCOL.md §7) and undecodable frames are
  /// dropped and counted (`malformed_frames`). Serve thread, or the stop
  /// drain.
  /// Takes the frame by mutable reference: a BATCH payload is *moved*
  /// into the inbox (validated, decoded in place at drain time) and the
  /// frame gets a recycled pool buffer back so the receive loop keeps
  /// its capacity-reuse property.
  void handle_peer_frame(const std::string& peer, comm::Frame& frame);
  /// Peer HELLO: hands the announced version to the data plane's check
  /// and, for a current peer that offered the same shm token, establishes
  /// the ring (the lexicographically smaller node creates, the larger
  /// attaches).
  void handle_peer_hello(const std::string& peer, const HelloInfo& info);
  /// The shm region token shared with `peer` ("" when shm is disabled).
  std::string shm_token_for(const std::string& peer) const;
  /// One attach attempt toward `peer`'s region; true once linked.
  bool try_shm_attach(const std::string& peer);
  void handle_control(const comm::Frame& frame);
  void handle_prepare_reload(const comm::Frame& frame);
  void handle_prepare_mode(const comm::Frame& frame);
  void handle_decision(const comm::Frame& frame);
  /// TAKEOVER: adopt the (not-lower) coordinator epoch and answer with
  /// HELLO carrying this node's resync epoch (docs/MEMBERSHIP.md §5).
  void handle_takeover(const comm::Frame& frame);
  /// True (and counted) when `coord_epoch` is below the highest seen; a
  /// higher epoch is adopted first.
  bool fenced(std::uint64_t coord_epoch,
              std::atomic<std::uint64_t>& counter);
  void reply(FrameType type, std::uint64_t txn, const std::string& reason,
             std::uint64_t drained, std::int64_t latency_ns);
  /// Applies `routes` to the gateway contents (exit channels + entry
  /// map). Single-threaded by construction: at build time, or from the
  /// boundary hook on the executive thread.
  void apply_routes(const std::vector<GatewayRoute>& routes);
  struct InboxItem;
  /// Injects every inbox BATCH through the entry table. A route with no
  /// entry is counted as an entry drop, unless `unrouted` is given (the
  /// drain before a COMMIT): its messages are then re-encoded into that
  /// item, for the drain under the new entry table.
  void drain_inbox(InboxItem* unrouted = nullptr);
  void watch_governor();

  std::string node_;
  Options options_;
  model::Architecture slice_;
  std::unique_ptr<soleil::Application> app_;
  std::unique_ptr<reconfig::ModeManager> mode_manager_;
  std::unique_ptr<runtime::Launcher> launcher_;

  std::shared_ptr<comm::Channel> control_;
  std::map<std::string, std::shared_ptr<comm::Channel>> peers_;
  /// Negotiated shm rings by peer (guarded by mutex_ once serving; the
  /// serve thread inserts, apply_routes points routes at them).
  std::map<std::string, std::shared_ptr<comm::Channel>> shm_links_;
  /// Peers whose region we could not attach yet (serve thread only;
  /// retried every tick until the creator wins the race).
  std::vector<std::string> pending_shm_attach_;

  DataPlane dataplane_;

  std::thread serve_thread_;
  std::thread executive_thread_;
  std::atomic<bool> serving_{false};
  std::atomic<bool> executive_done_{true};

  /// One inbox entry: a whole BATCH frame payload held raw. It is
  /// validated once on the serve thread (batch_message_count) and decoded
  /// *in place* by the executive's drain — entry gateways inject straight
  /// out of the receive buffer.
  struct InboxItem {
    std::vector<std::uint8_t> batch;  ///< Raw BATCH payload bytes.
    std::size_t batch_messages = 0;   ///< Messages inside `batch`.
  };

  mutable std::mutex mutex_;
  // Guarded by mutex_: inbox, staged transaction, route state, fault
  // injection.
  std::deque<InboxItem> inbox_;
  std::vector<GatewayRoute> routes_;         ///< In force.
  std::vector<GatewayRoute> staged_routes_;  ///< Applied at commit.
  bool routes_dirty_ = false;
  std::uint64_t staged_txn_ = 0;
  bool staged_ = false;
  bool staged_is_reload_ = false;
  rtsj::AbsoluteTime decision_deadline_{};
  std::string forced_failure_;
  std::uint64_t entry_drops_ = 0;
  /// One-shot demote latch: set by the executive thread's governor watch,
  /// reset by the serve thread on a committed transition — atomic, the
  /// two threads never share a lock here.
  std::atomic<bool> demote_sent_{false};
  /// Highest coordinator epoch seen on the control channel (serve thread
  /// writes, tests/ops read — atomic, no lock shared).
  std::atomic<std::uint64_t> coord_epoch_seen_{0};

  /// Entry-gateway lookup: (client, port) -> content + port name + the
  /// data plane's entry route (credit grants).
  struct EntrySlot {
    GatewayEntryContent* content = nullptr;
    std::string port_name;
    std::size_t entry_route = 0;
  };
  std::map<std::pair<std::string, std::string>, EntrySlot> entries_;
};

}  // namespace rtcf::dist
