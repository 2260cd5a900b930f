// Frame types and payload helpers of the distributed reconfiguration
// protocol. docs/PROTOCOL.md is the normative spec; this header is the
// reference implementation of the payload encodings.
//
// The protocol has two planes sharing one frame format:
//
//   * control plane (coordinator <-> node): HELLO, the two-phase
//     PREPARE/COMMIT/ABORT exchange, DEMOTE_REQUEST, and the membership
//     plane: JOIN/LEAVE requests, STANDBY_SYNC decision records, and
//     TAKEOVER fencing (docs/MEMBERSHIP.md);
//   * data plane (node <-> node): BATCH frames coalescing the messages of
//     bridged asynchronous bindings per route, and CREDIT frames
//     replenishing the per-route flow-control window (docs/DATAPLANE.md).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "comm/channel.hpp"
#include "comm/message.hpp"
#include "dist/wire.hpp"

namespace rtcf::dist {

/// The one protocol dialect, announced in HELLO (docs/PROTOCOL.md §4). A
/// peer announcing any other version is rejected and counted. The u16 in
/// the frame *header* is the framing version (comm::kWireVersion) and is
/// independent of this.
inline constexpr std::uint16_t kProtocolVersion = 4;

/// Frame type discriminators (comm::Frame::type).
enum class FrameType : std::uint16_t {
  /// Node -> coordinator on attach: node name + codec version.
  Hello = 1,
  /// Coordinator -> node: stage a reload slice and park at quiescence.
  PrepareReload = 2,
  /// Coordinator -> node: stage a mode transition and park at quiescence.
  PrepareMode = 3,
  /// Node -> coordinator: the slice validated and the node is quiescent.
  PrepareOk = 4,
  /// Node -> coordinator: the slice was rejected (reason enclosed).
  PrepareFail = 5,
  /// Coordinator -> node: apply the prepared transition.
  Commit = 6,
  /// Node -> coordinator: the transition applied (epoch, audit, latency).
  Committed = 7,
  /// Coordinator -> node: release the prepared transition unapplied.
  Abort = 8,
  /// Node -> coordinator: the transition was released; epoch unchanged.
  Aborted = 9,
  // 10 was the retired per-message DATA frame; never reuse it.
  /// Node -> coordinator: sustained overload; please demote the cluster.
  DemoteRequest = 11,
  /// Node -> node: coalesced data-plane messages, grouped per route.
  Batch = 12,
  /// Node -> node: replenish a route's sender credit window.
  Credit = 13,
  /// Node -> coordinator: admit me into the live membership.
  Join = 14,
  /// Node -> coordinator: drain my slice and remove me.
  Leave = 15,
  /// Coordinator -> standby: one durable decision-log record.
  StandbySync = 16,
  /// Promoted standby -> node: fence older coordinator epochs.
  Takeover = 17,
};

/// One cross-node binding's routing entry: where the logical client end
/// (client, port) lives, and which server it feeds on which node.
struct GatewayRoute {
  std::string client;  ///< Global client component (the exit's node).
  std::string port;    ///< Client port name (the binding's identity).
  std::string client_node;  ///< Node hosting the client and the exit.
  std::string server;  ///< Global server component (the entry's node).
  std::string iface;   ///< Server interface name.
  std::string server_node;  ///< Node hosting the server and the entry.

  /// Field-wise equality.
  bool operator==(const GatewayRoute& o) const {
    return client == o.client && port == o.port &&
           client_node == o.client_node && server == o.server &&
           iface == o.iface && server_node == o.server_node;
  }
};

/// Payload of PrepareReload.
struct PrepareReloadPayload {
  std::uint64_t txn = 0;          ///< Transaction id (coordinator-unique).
  std::uint64_t expect_epoch = 0; ///< Node plan epoch the slice was diffed
                                  ///< against (stale-epoch guard).
  std::vector<std::uint8_t> plan;  ///< encode_plan() of the target slice.
  std::vector<std::uint8_t> delta; ///< encode_delta() of the slice delta.
  std::vector<GatewayRoute> routes;  ///< Full post-commit route table.
  std::uint64_t coord_epoch = 0;  ///< Fencing epoch of the sender.
};

/// Payload of PrepareMode.
struct PrepareModePayload {
  std::uint64_t txn = 0;  ///< Transaction id.
  std::string mode;       ///< Target mode name (declared on every node).
  std::uint64_t coord_epoch = 0;  ///< Fencing epoch of the sender.
};

/// Payload of PrepareOk / PrepareFail / Committed / Aborted.
struct NodeReplyPayload {
  std::uint64_t txn = 0;     ///< Transaction id echoed back.
  std::string node;          ///< Replying node.
  std::uint64_t epoch = 0;   ///< Node plan epoch after handling the frame.
  std::string reason;        ///< PrepareFail: why the slice was rejected.
  std::uint64_t drained = 0; ///< Committed: apply-time drain audit.
  std::int64_t latency_ns = 0;  ///< Committed: prepare-to-commit latency.
};

/// Payload of Commit / Abort.
struct DecisionPayload {
  std::uint64_t txn = 0;  ///< Transaction id.
  std::string reason;     ///< Abort: why (straggler timeout, veto, ...).
  std::uint64_t coord_epoch = 0;  ///< Fencing epoch of the sender.
};

/// One route's share of a BATCH frame: the logical client end that
/// addresses the entry gateway, plus its coalesced messages in send order.
struct BatchRoute {
  std::string client;  ///< Logical client component of the bridged binding.
  std::string port;    ///< Client port name.
  std::vector<comm::Message> messages;  ///< Coalesced messages, in order.
};

/// Payload of Batch: every route the sender flushed toward this peer in
/// one frame — one channel write however many messages were pending.
struct BatchPayload {
  std::vector<BatchRoute> routes;  ///< Flushed routes (each non-empty).
};

/// Payload of Credit: the entry side has consumed `credits` messages of
/// the route and the sender may put that many more on the wire.
struct CreditPayload {
  std::string client;          ///< Logical client end: component...
  std::string port;            ///< ...and port (the route's identity).
  std::uint64_t credits = 0;   ///< Messages newly permitted on the wire.
};

/// Everything a HELLO announces (a fixed layout, docs/PROTOCOL.md §4).
struct HelloInfo {
  std::string node;                 ///< Announcing endpoint's node name.
  std::uint16_t codec_version = 0;  ///< Plan codec (kCodecVersion).
  /// Announced protocol version; anything but kProtocolVersion is a
  /// mismatch the receiver rejects and counts.
  std::uint16_t protocol_version = 0;
  /// Shm-ring region name the sender is willing to share with a
  /// co-located peer; empty = no offer (docs/DATAPLANE.md §5).
  std::string shm_token;
  /// Plan epoch of the sender's committed snapshot — a rejoining node
  /// announces where its resync must start from; 0 for fresh joiners.
  std::uint64_t resync_epoch = 0;
};

/// Payload of DemoteRequest.
struct DemotePayload {
  std::string node;   ///< Overloaded node.
  std::string mode;   ///< Its declared degraded mode.
  std::uint8_t level = 0;  ///< monitor::GovernorLevel at request time.
};

/// Payload of Join: a running node asks the coordinator to admit it into
/// the live membership. Admission is an ordinary two-phase re-shard — the
/// joiner's baseline is the empty slice (docs/MEMBERSHIP.md §2).
struct JoinPayload {
  std::string node;  ///< Joining node's name (its HELLO identity).
  /// Plan epoch of the committed snapshot the joiner restarted from; 0
  /// for a node that has never held a slice.
  std::uint64_t resync_epoch = 0;
};

/// Payload of Leave: a node asks the coordinator to drain its slice away
/// and remove it from the membership.
struct LeavePayload {
  std::string node;    ///< Departing node's name.
  std::string reason;  ///< Operator-visible reason (maintenance, ...).
};

/// One node's share of a STANDBY_SYNC decision record: the canonical
/// plan-codec snapshot and plan epoch the coordinator holds for it.
struct StandbyNodeRecord {
  std::string node;          ///< Node name.
  std::uint64_t epoch = 0;   ///< Node plan epoch after the decision.
  std::vector<std::uint8_t> snapshot;  ///< encode_plan() of its slice.
};

/// Payload of StandbySync: one durable decision-log record, streamed to
/// the standby *before* the decision frames go out so a promoted standby
/// can re-drive the last decision (docs/MEMBERSHIP.md §4).
struct StandbySyncPayload {
  std::uint64_t txn = 0;        ///< Decided transaction id.
  std::uint8_t committed = 0;   ///< 1 = Commit, 0 = Abort.
  std::string reason;           ///< Abort reason (empty on commit).
  std::uint64_t coord_epoch = 0;  ///< Epoch of the deciding coordinator.
  std::uint64_t membership_epoch = 0;  ///< Membership view version.
  std::vector<std::string> members;    ///< Member nodes at decision time.
  /// Component-to-node assignment at decision time (the NodeMap body).
  std::vector<std::pair<std::string, std::string>> assignment;
  std::vector<StandbyNodeRecord> nodes;  ///< Per-node snapshots/epochs.
};

/// Payload of Takeover: a promoted standby announces a raised coordinator
/// epoch. Nodes fence every lower-epoch coordinator from then on and
/// answer with HELLO carrying their resync epoch (docs/MEMBERSHIP.md §5).
struct TakeoverPayload {
  std::string coordinator;        ///< Promoted coordinator's name.
  std::uint64_t coord_epoch = 0;  ///< Newly claimed epoch (monotonic).
};

/// Encodes a route table (shared by PrepareReload and tooling).
void write_routes(WireWriter& w, const std::vector<GatewayRoute>& routes);
/// Decodes a route table.
std::vector<GatewayRoute> read_routes(WireReader& r);

/// Builds a PrepareReload frame.
comm::Frame make_prepare_reload(const PrepareReloadPayload& payload);
/// Parses a PrepareReload frame payload (throws WireError on truncation).
PrepareReloadPayload parse_prepare_reload(const comm::Frame& frame);

/// Builds a PrepareMode frame.
comm::Frame make_prepare_mode(const PrepareModePayload& payload);
/// Parses a PrepareMode frame payload.
PrepareModePayload parse_prepare_mode(const comm::Frame& frame);

/// Builds a node reply frame of the given type (PrepareOk, PrepareFail,
/// Committed, or Aborted).
comm::Frame make_node_reply(FrameType type, const NodeReplyPayload& payload);
/// Parses a node reply frame payload.
NodeReplyPayload parse_node_reply(const comm::Frame& frame);

/// Builds a Commit or Abort frame.
comm::Frame make_decision(FrameType type, const DecisionPayload& payload);
/// Parses a Commit/Abort frame payload.
DecisionPayload parse_decision(const comm::Frame& frame);

/// Builds a Batch frame.
comm::Frame make_batch(const BatchPayload& payload);
/// Parses a Batch frame payload (throws WireError on truncation).
BatchPayload parse_batch(const comm::Frame& frame);

/// Builds a Credit frame.
comm::Frame make_credit(const CreditPayload& payload);
/// Parses a Credit frame payload.
CreditPayload parse_credit(const comm::Frame& frame);

/// Builds a Hello frame announcing the node name, codec version, protocol
/// version kProtocolVersion, a shm-ring offer (empty = none), and the
/// sender's resync epoch.
comm::Frame make_hello(const std::string& node,
                       const std::string& shm_token = std::string(),
                       std::uint64_t resync_epoch = 0);
/// Parses every field of a Hello frame. Truncation or a codec mismatch
/// throws WireError; the protocol version is returned for the caller to
/// check.
HelloInfo parse_hello_info(const comm::Frame& frame);

/// Builds a DemoteRequest frame.
comm::Frame make_demote(const DemotePayload& payload);
/// Parses a DemoteRequest frame payload.
DemotePayload parse_demote(const comm::Frame& frame);

/// Builds a Join frame.
comm::Frame make_join(const JoinPayload& payload);
/// Parses a Join frame payload.
JoinPayload parse_join(const comm::Frame& frame);

/// Builds a Leave frame.
comm::Frame make_leave(const LeavePayload& payload);
/// Parses a Leave frame payload.
LeavePayload parse_leave(const comm::Frame& frame);

/// Builds a StandbySync frame.
comm::Frame make_standby_sync(const StandbySyncPayload& payload);
/// Parses a StandbySync frame payload (throws WireError on truncation).
StandbySyncPayload parse_standby_sync(const comm::Frame& frame);

/// Builds a Takeover frame.
comm::Frame make_takeover(const TakeoverPayload& payload);
/// Parses a Takeover frame payload.
TakeoverPayload parse_takeover(const comm::Frame& frame);

}  // namespace rtcf::dist
