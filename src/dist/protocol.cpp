#include "dist/protocol.hpp"

#include <algorithm>
#include <cstring>

#include "dist/plan_codec.hpp"

namespace rtcf::dist {

namespace {

comm::Frame finish(FrameType type, WireWriter& w) {
  comm::Frame frame;
  frame.type = static_cast<std::uint16_t>(type);
  frame.payload = w.take();
  return frame;
}

void check_type(const comm::Frame& frame, FrameType expected,
                const char* what) {
  if (frame.type != static_cast<std::uint16_t>(expected)) {
    throw WireError(std::string("frame is not a ") + what);
  }
}

void write_message(WireWriter& w, const comm::Message& m) {
  const std::size_t block = w.begin_block();
  w.u32(m.type_id);
  w.u32(m.size);
  w.i64(m.timestamp_ns);
  w.u64(m.sequence);
  w.u32(static_cast<std::uint32_t>(comm::Message::kPayloadCapacity));
  w.raw(reinterpret_cast<const std::uint8_t*>(m.payload),
        comm::Message::kPayloadCapacity);
  w.end_block(block);
}

comm::Message read_message(WireReader& r) {
  WireReader b = r.block();
  comm::Message m;
  m.type_id = b.u32();
  m.size = b.u32();
  m.timestamp_ns = b.i64();
  m.sequence = b.u64();
  const std::uint32_t length = b.u32();
  const std::uint8_t* payload = b.raw(length);
  const std::size_t count =
      std::min<std::size_t>(length, comm::Message::kPayloadCapacity);
  std::memcpy(m.payload, payload, count);
  return m;
}

}  // namespace

void write_routes(WireWriter& w, const std::vector<GatewayRoute>& routes) {
  w.u32(static_cast<std::uint32_t>(routes.size()));
  for (const GatewayRoute& route : routes) {
    const std::size_t block = w.begin_block();
    w.str(route.client);
    w.str(route.port);
    w.str(route.client_node);
    w.str(route.server);
    w.str(route.iface);
    w.str(route.server_node);
    w.end_block(block);
  }
}

std::vector<GatewayRoute> read_routes(WireReader& r) {
  const std::uint32_t count = r.u32();
  // Bound the reserve by what the input could possibly hold (a route
  // block is at least its 4-byte length prefix) — a corrupt count must
  // fail as WireError, not bad_alloc.
  if (static_cast<std::uint64_t>(count) * 4 > r.remaining()) {
    throw WireError("implausible route count " + std::to_string(count));
  }
  std::vector<GatewayRoute> routes;
  routes.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    WireReader b = r.block();
    GatewayRoute route;
    route.client = b.str();
    route.port = b.str();
    route.client_node = b.str();
    route.server = b.str();
    route.iface = b.str();
    route.server_node = b.str();
    routes.push_back(std::move(route));
  }
  return routes;
}

comm::Frame make_prepare_reload(const PrepareReloadPayload& payload) {
  WireWriter w;
  w.u64(payload.txn);
  w.u64(payload.expect_epoch);
  w.bytes(payload.plan);
  w.bytes(payload.delta);
  write_routes(w, payload.routes);
  w.u64(payload.coord_epoch);
  return finish(FrameType::PrepareReload, w);
}

PrepareReloadPayload parse_prepare_reload(const comm::Frame& frame) {
  check_type(frame, FrameType::PrepareReload, "PrepareReload");
  WireReader r(frame.payload);
  PrepareReloadPayload payload;
  payload.txn = r.u64();
  payload.expect_epoch = r.u64();
  payload.plan = r.bytes();
  payload.delta = r.bytes();
  payload.routes = read_routes(r);
  payload.coord_epoch = r.u64();
  return payload;
}

comm::Frame make_prepare_mode(const PrepareModePayload& payload) {
  WireWriter w;
  w.u64(payload.txn);
  w.str(payload.mode);
  w.u64(payload.coord_epoch);
  return finish(FrameType::PrepareMode, w);
}

PrepareModePayload parse_prepare_mode(const comm::Frame& frame) {
  check_type(frame, FrameType::PrepareMode, "PrepareMode");
  WireReader r(frame.payload);
  PrepareModePayload payload;
  payload.txn = r.u64();
  payload.mode = r.str();
  payload.coord_epoch = r.u64();
  return payload;
}

comm::Frame make_node_reply(FrameType type, const NodeReplyPayload& payload) {
  WireWriter w;
  w.u64(payload.txn);
  w.str(payload.node);
  w.u64(payload.epoch);
  w.str(payload.reason);
  w.u64(payload.drained);
  w.i64(payload.latency_ns);
  return finish(type, w);
}

NodeReplyPayload parse_node_reply(const comm::Frame& frame) {
  WireReader r(frame.payload);
  NodeReplyPayload payload;
  payload.txn = r.u64();
  payload.node = r.str();
  payload.epoch = r.u64();
  payload.reason = r.str();
  payload.drained = r.u64();
  payload.latency_ns = r.i64();
  return payload;
}

comm::Frame make_decision(FrameType type, const DecisionPayload& payload) {
  WireWriter w;
  w.u64(payload.txn);
  w.str(payload.reason);
  w.u64(payload.coord_epoch);
  return finish(type, w);
}

DecisionPayload parse_decision(const comm::Frame& frame) {
  WireReader r(frame.payload);
  DecisionPayload payload;
  payload.txn = r.u64();
  payload.reason = r.str();
  payload.coord_epoch = r.u64();
  return payload;
}

comm::Frame make_batch(const BatchPayload& payload) {
  WireWriter w;
  w.u32(static_cast<std::uint32_t>(payload.routes.size()));
  for (const BatchRoute& route : payload.routes) {
    const std::size_t block = w.begin_block();
    w.str(route.client);
    w.str(route.port);
    w.u32(static_cast<std::uint32_t>(route.messages.size()));
    for (const comm::Message& m : route.messages) {
      write_message(w, m);
    }
    w.end_block(block);
  }
  return finish(FrameType::Batch, w);
}

BatchPayload parse_batch(const comm::Frame& frame) {
  check_type(frame, FrameType::Batch, "Batch");
  WireReader r(frame.payload);
  BatchPayload payload;
  const std::uint32_t count = r.u32();
  if (static_cast<std::uint64_t>(count) * 4 > r.remaining()) {
    throw WireError("implausible batch route count " + std::to_string(count));
  }
  payload.routes.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    WireReader b = r.block();
    BatchRoute route;
    route.client = b.str();
    route.port = b.str();
    const std::uint32_t messages = b.u32();
    if (static_cast<std::uint64_t>(messages) * 4 > b.remaining()) {
      throw WireError("implausible batch message count " +
                      std::to_string(messages));
    }
    route.messages.reserve(messages);
    for (std::uint32_t m = 0; m < messages; ++m) {
      route.messages.push_back(read_message(b));
    }
    payload.routes.push_back(std::move(route));
  }
  return payload;
}

comm::Frame make_credit(const CreditPayload& payload) {
  WireWriter w;
  w.str(payload.client);
  w.str(payload.port);
  w.u64(payload.credits);
  return finish(FrameType::Credit, w);
}

CreditPayload parse_credit(const comm::Frame& frame) {
  check_type(frame, FrameType::Credit, "Credit");
  WireReader r(frame.payload);
  CreditPayload payload;
  payload.client = r.str();
  payload.port = r.str();
  payload.credits = r.u64();
  return payload;
}

comm::Frame make_hello(const std::string& node,
                       const std::string& shm_token,
                       std::uint64_t resync_epoch) {
  WireWriter w;
  w.str(node);
  w.u16(kCodecVersion);
  w.u16(kProtocolVersion);
  w.str(shm_token);
  w.u64(resync_epoch);
  return finish(FrameType::Hello, w);
}

HelloInfo parse_hello_info(const comm::Frame& frame) {
  check_type(frame, FrameType::Hello, "Hello");
  WireReader r(frame.payload);
  HelloInfo info;
  info.node = r.str();
  info.codec_version = r.u16();
  if (info.codec_version != kCodecVersion) {
    throw WireError("peer speaks codec version " +
                    std::to_string(info.codec_version));
  }
  info.protocol_version = r.u16();
  info.shm_token = r.str();
  info.resync_epoch = r.u64();
  return info;
}

comm::Frame make_demote(const DemotePayload& payload) {
  WireWriter w;
  w.str(payload.node);
  w.str(payload.mode);
  w.u8(payload.level);
  return finish(FrameType::DemoteRequest, w);
}

DemotePayload parse_demote(const comm::Frame& frame) {
  check_type(frame, FrameType::DemoteRequest, "DemoteRequest");
  WireReader r(frame.payload);
  DemotePayload payload;
  payload.node = r.str();
  payload.mode = r.str();
  payload.level = r.u8();
  return payload;
}

comm::Frame make_join(const JoinPayload& payload) {
  WireWriter w;
  w.str(payload.node);
  w.u64(payload.resync_epoch);
  return finish(FrameType::Join, w);
}

JoinPayload parse_join(const comm::Frame& frame) {
  check_type(frame, FrameType::Join, "Join");
  WireReader r(frame.payload);
  JoinPayload payload;
  payload.node = r.str();
  payload.resync_epoch = r.u64();
  return payload;
}

comm::Frame make_leave(const LeavePayload& payload) {
  WireWriter w;
  w.str(payload.node);
  w.str(payload.reason);
  return finish(FrameType::Leave, w);
}

LeavePayload parse_leave(const comm::Frame& frame) {
  check_type(frame, FrameType::Leave, "Leave");
  WireReader r(frame.payload);
  LeavePayload payload;
  payload.node = r.str();
  payload.reason = r.str();
  return payload;
}

comm::Frame make_standby_sync(const StandbySyncPayload& payload) {
  WireWriter w;
  w.u64(payload.txn);
  w.u8(payload.committed);
  w.str(payload.reason);
  w.u64(payload.coord_epoch);
  w.u64(payload.membership_epoch);
  w.u32(static_cast<std::uint32_t>(payload.members.size()));
  for (const std::string& member : payload.members) {
    w.str(member);
  }
  w.u32(static_cast<std::uint32_t>(payload.assignment.size()));
  for (const auto& [component, node] : payload.assignment) {
    w.str(component);
    w.str(node);
  }
  w.u32(static_cast<std::uint32_t>(payload.nodes.size()));
  for (const StandbyNodeRecord& record : payload.nodes) {
    const std::size_t block = w.begin_block();
    w.str(record.node);
    w.u64(record.epoch);
    w.bytes(record.snapshot);
    w.end_block(block);
  }
  return finish(FrameType::StandbySync, w);
}

StandbySyncPayload parse_standby_sync(const comm::Frame& frame) {
  check_type(frame, FrameType::StandbySync, "StandbySync");
  WireReader r(frame.payload);
  StandbySyncPayload payload;
  payload.txn = r.u64();
  payload.committed = r.u8();
  payload.reason = r.str();
  payload.coord_epoch = r.u64();
  payload.membership_epoch = r.u64();
  const std::uint32_t members = r.u32();
  if (static_cast<std::uint64_t>(members) * 4 > r.remaining()) {
    throw WireError("implausible member count " + std::to_string(members));
  }
  payload.members.reserve(members);
  for (std::uint32_t i = 0; i < members; ++i) {
    payload.members.push_back(r.str());
  }
  const std::uint32_t assignments = r.u32();
  if (static_cast<std::uint64_t>(assignments) * 8 > r.remaining()) {
    throw WireError("implausible assignment count " +
                    std::to_string(assignments));
  }
  payload.assignment.reserve(assignments);
  for (std::uint32_t i = 0; i < assignments; ++i) {
    std::string component = r.str();
    std::string node = r.str();
    payload.assignment.emplace_back(std::move(component), std::move(node));
  }
  const std::uint32_t nodes = r.u32();
  if (static_cast<std::uint64_t>(nodes) * 4 > r.remaining()) {
    throw WireError("implausible node record count " + std::to_string(nodes));
  }
  payload.nodes.reserve(nodes);
  for (std::uint32_t i = 0; i < nodes; ++i) {
    WireReader b = r.block();
    StandbyNodeRecord record;
    record.node = b.str();
    record.epoch = b.u64();
    record.snapshot = b.bytes();
    payload.nodes.push_back(std::move(record));
  }
  return payload;
}

comm::Frame make_takeover(const TakeoverPayload& payload) {
  WireWriter w;
  w.str(payload.coordinator);
  w.u64(payload.coord_epoch);
  return finish(FrameType::Takeover, w);
}

TakeoverPayload parse_takeover(const comm::Frame& frame) {
  check_type(frame, FrameType::Takeover, "Takeover");
  WireReader r(frame.payload);
  TakeoverPayload payload;
  payload.coordinator = r.str();
  payload.coord_epoch = r.u64();
  return payload;
}

}  // namespace rtcf::dist
