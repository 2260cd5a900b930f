// Wire codec: AssemblyPlan/PlanDelta serialization — round-trip equality,
// truncated-buffer rejection, cross-version (unknown-field) tolerance, and
// the protocol frame payloads (`ctest -L dist`).
#include <gtest/gtest.h>

#include "dist/plan_codec.hpp"
#include "dist/protocol.hpp"
#include "dist/wire.hpp"

namespace rtcf::dist {
namespace {

model::ComponentSpec sample_component() {
  model::ComponentSpec spec;
  spec.name = "ProductionLine";
  spec.kind = model::ComponentKind::Active;
  spec.activation = model::ActivationKind::Periodic;
  spec.period = rtsj::RelativeTime::milliseconds(10);
  spec.cost = rtsj::RelativeTime::microseconds(200);
  spec.content_class = "ProductionLineImpl";
  spec.criticality = model::Criticality::Low;
  model::TimingContract contract;
  contract.wcet_budget = rtsj::RelativeTime::milliseconds(8);
  contract.miss_ratio_bound = 0.5;
  contract.max_arrival_rate_hz = 125.0;
  contract.window = 16;
  spec.contract = contract;
  spec.swappable = true;
  spec.interfaces.push_back(
      {"iMonitor", model::InterfaceRole::Client, "IMonitor"});
  spec.interfaces.push_back(
      {"iState", model::InterfaceRole::Server, "IState"});
  spec.memory_area = "Imm1";
  spec.area_type = model::AreaType::Immortal;
  spec.thread_domain = "NHRT1";
  spec.domain_type = model::DomainType::NoHeapRealtime;
  spec.domain_priority = 30;
  spec.executes_on_nhrt = true;
  spec.partition = 3;
  return spec;
}

model::BindingSpec sample_binding() {
  model::BindingSpec binding;
  binding.client = {"ProductionLine", "iMonitor"};
  binding.server = {"MonitoringSystem", "iMonitor"};
  binding.protocol = model::Protocol::Asynchronous;
  binding.buffer_size = 10;
  binding.pattern = "cross-scope-buffered";
  binding.staging_area = "@immortal";
  binding.buffer_area = "Imm1";
  binding.cross_partition = true;
  return binding;
}

model::AssemblyPlan sample_plan() {
  model::AssemblyPlan plan;
  model::AssemblyPlanBuilder builder{plan};
  builder.components().push_back(sample_component());
  model::ComponentSpec passive;
  passive.name = "Console";
  passive.kind = model::ComponentKind::Passive;
  passive.content_class = "ConsoleImpl";
  passive.memory_area = "S1";
  passive.area_type = model::AreaType::Scoped;
  builder.components().push_back(std::move(passive));
  builder.bindings().push_back(sample_binding());
  builder.areas().push_back(
      {"Imm1", model::AreaType::Immortal, 600 * 1024});
  builder.areas().push_back({"S1", model::AreaType::Scoped, 28 * 1024});
  model::ModeDecl normal;
  normal.name = "Normal";
  normal.components.push_back({"ProductionLine", rtsj::RelativeTime::zero(),
                               std::nullopt});
  builder.modes().push_back(std::move(normal));
  model::ModeDecl degraded;
  degraded.name = "Degraded";
  degraded.degraded = true;
  model::ModeComponentConfig slow;
  slow.component = "ProductionLine";
  slow.period = rtsj::RelativeTime::milliseconds(40);
  model::TimingContract relaxed;
  relaxed.wcet_budget = rtsj::RelativeTime::milliseconds(32);
  relaxed.window = 8;
  slow.contract = relaxed;
  degraded.components.push_back(std::move(slow));
  degraded.rebinds.push_back(
      {"MonitoringSystem", "iConsole", "StandbyConsole"});
  builder.modes().push_back(std::move(degraded));
  builder.set_partition_count(4);
  return plan;
}

reconfig::PlanDelta sample_delta() {
  reconfig::PlanDelta delta;
  delta.add_components.push_back(sample_component());
  model::ComponentSpec removed = sample_component();
  removed.name = "AuditLog";
  delta.remove_components.push_back(std::move(removed));
  delta.add_bindings.push_back(sample_binding());
  delta.remove_bindings.push_back({"MonitoringSystem", "iAudit"});
  reconfig::RebindDelta rebind;
  rebind.client = {"MonitoringSystem", "iAudit"};
  rebind.old_server = "AuditLog";
  rebind.new_server = "DiagnosticsLog";
  rebind.protocol = model::Protocol::Asynchronous;
  rebind.target = sample_binding();
  delta.rebinds.push_back(std::move(rebind));
  reconfig::SettingDelta setting;
  setting.component = "ProductionLine";
  setting.period_changed = true;
  setting.new_period = rtsj::RelativeTime::milliseconds(20);
  setting.contract_changed = true;
  setting.contract = std::nullopt;
  delta.settings.push_back(std::move(setting));
  delta.protocol_changes.push_back({"Console", "iConsole"});
  return delta;
}

bool delta_equal(const reconfig::PlanDelta& a, const reconfig::PlanDelta& b) {
  // The canonical encoding doubles as deep equality (round-trip exact).
  return encode_delta(a) == encode_delta(b);
}

TEST(WirePrimitivesTest, IntegersStringsBlocksRoundTrip) {
  WireWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.f64(-2.75);
  w.str("hello");
  const std::size_t block = w.begin_block();
  w.u32(7);
  w.end_block(block);

  WireReader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), -2.75);
  EXPECT_EQ(r.str(), "hello");
  WireReader sub = r.block();
  EXPECT_EQ(sub.u32(), 7u);
  EXPECT_TRUE(r.at_end());
}

TEST(WirePrimitivesTest, TruncatedReadsThrow) {
  WireWriter w;
  w.u32(123);
  WireReader r(w.data().data(), 3);
  EXPECT_THROW(r.u32(), WireError);
  WireReader r2(w.data());
  EXPECT_THROW(r2.str(), WireError);  // length 123 > remaining 0
}

TEST(PlanCodecTest, PlanRoundTripIsExact) {
  const model::AssemblyPlan plan = sample_plan();
  const auto bytes = encode_plan(plan);
  const model::AssemblyPlan decoded = decode_plan(bytes);
  EXPECT_TRUE(decoded == plan);
  // Canonical: re-encoding the decoded plan reproduces the bytes.
  EXPECT_EQ(encode_plan(decoded), bytes);
}

TEST(PlanCodecTest, DeltaRoundTripIsExact) {
  const reconfig::PlanDelta delta = sample_delta();
  const auto bytes = encode_delta(delta);
  const reconfig::PlanDelta decoded = decode_delta(bytes);
  EXPECT_TRUE(delta_equal(delta, decoded));
  EXPECT_EQ(encode_delta(decoded), bytes);
}

TEST(PlanCodecTest, EveryTruncationIsRejected) {
  const auto bytes = encode_plan(sample_plan());
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<std::uint8_t> torn(bytes.begin(), bytes.begin() + cut);
    EXPECT_THROW(decode_plan(torn), WireError) << "prefix length " << cut;
  }
  const auto delta_bytes = encode_delta(sample_delta());
  for (std::size_t cut = 0; cut < delta_bytes.size(); ++cut) {
    std::vector<std::uint8_t> torn(delta_bytes.begin(),
                                   delta_bytes.begin() + cut);
    EXPECT_THROW(decode_delta(torn), WireError) << "prefix length " << cut;
  }
}

TEST(PlanCodecTest, BadMagicAndVersionAreRejected) {
  auto bytes = encode_plan(sample_plan());
  auto bad_magic = bytes;
  bad_magic[0] ^= 0xFF;
  EXPECT_THROW(decode_plan(bad_magic), WireError);
  auto bad_version = bytes;
  bad_version[4] = 0x7F;  // u16 version lives after the u32 magic
  EXPECT_THROW(decode_plan(bad_version), WireError);
  // A delta is not a plan.
  EXPECT_THROW(decode_plan(encode_delta(sample_delta())), WireError);
}

TEST(PlanCodecTest, ImplausibleElementCountsAreWireErrorsNotBadAlloc) {
  // A corrupt (or hostile) count the remaining bytes cannot possibly hold
  // must be rejected as WireError — never drive a huge reserve() into
  // bad_alloc, which would escape the protocol's WireError handlers.
  WireWriter w;
  w.u32(kPlanMagic);
  w.u16(kCodecVersion);
  w.u16(0);
  w.u32(0xFFFFFFFFu);  // component count
  EXPECT_THROW(decode_plan(w.data()), WireError);

  WireWriter d;
  d.u32(kDeltaMagic);
  d.u16(kCodecVersion);
  d.u16(0);
  d.u32(0x7FFFFFFFu);  // add_components count
  EXPECT_THROW(decode_delta(d.data()), WireError);
}

TEST(PlanCodecTest, UnknownTrailingFieldsAreSkipped) {
  // A newer encoder appends fields at the end of a record's block; this
  // decoder must read what it knows and skip the rest. Splice extra bytes
  // into the first component block and patch its length prefix.
  const model::AssemblyPlan plan = sample_plan();
  auto bytes = encode_plan(plan);
  const std::size_t block_offset = 8 + 4;  // header + component count
  std::uint32_t block_len = 0;
  for (int i = 0; i < 4; ++i) {
    block_len |= static_cast<std::uint32_t>(bytes[block_offset + i])
                 << (8 * i);
  }
  const std::vector<std::uint8_t> future = {'f', 'u', 't', 'u', 'r', 'e',
                                            0x01, 0x02, 0x03};
  bytes.insert(bytes.begin() + block_offset + 4 + block_len, future.begin(),
               future.end());
  const std::uint32_t new_len =
      block_len + static_cast<std::uint32_t>(future.size());
  for (int i = 0; i < 4; ++i) {
    bytes[block_offset + i] = static_cast<std::uint8_t>(new_len >> (8 * i));
  }
  const model::AssemblyPlan decoded = decode_plan(bytes);
  EXPECT_TRUE(decoded == plan)
      << "known fields must survive unknown trailing ones";
}

TEST(ProtocolTest, PrepareReloadFrameRoundTrip) {
  PrepareReloadPayload payload;
  payload.txn = 42;
  payload.expect_epoch = 7;
  payload.plan = encode_plan(sample_plan());
  payload.delta = encode_delta(sample_delta());
  payload.routes.push_back({"MonitoringSystem", "iAudit", "alpha",
                            "AuditLog", "iAudit", "beta"});
  const comm::Frame frame = make_prepare_reload(payload);
  EXPECT_EQ(frame.type, static_cast<std::uint16_t>(FrameType::PrepareReload));
  const PrepareReloadPayload parsed = parse_prepare_reload(frame);
  EXPECT_EQ(parsed.txn, 42u);
  EXPECT_EQ(parsed.expect_epoch, 7u);
  EXPECT_EQ(parsed.plan, payload.plan);
  EXPECT_EQ(parsed.delta, payload.delta);
  ASSERT_EQ(parsed.routes.size(), 1u);
  EXPECT_TRUE(parsed.routes[0] == payload.routes[0]);
}

TEST(ProtocolTest, RepliesDecisionsHelloDemoteRoundTrip) {
  NodeReplyPayload reply;
  reply.txn = 3;
  reply.node = "beta";
  reply.epoch = 12;
  reply.reason = "because";
  reply.drained = 4;
  reply.latency_ns = 5555;
  const NodeReplyPayload parsed_reply =
      parse_node_reply(make_node_reply(FrameType::Committed, reply));
  EXPECT_EQ(parsed_reply.txn, 3u);
  EXPECT_EQ(parsed_reply.node, "beta");
  EXPECT_EQ(parsed_reply.epoch, 12u);
  EXPECT_EQ(parsed_reply.reason, "because");
  EXPECT_EQ(parsed_reply.drained, 4u);
  EXPECT_EQ(parsed_reply.latency_ns, 5555);

  DecisionPayload decision;
  decision.txn = 9;
  decision.reason = "straggler";
  const DecisionPayload parsed_decision =
      parse_decision(make_decision(FrameType::Abort, decision));
  EXPECT_EQ(parsed_decision.txn, 9u);
  EXPECT_EQ(parsed_decision.reason, "straggler");

  EXPECT_EQ(parse_hello_info(make_hello("gamma")).node, "gamma");

  DemotePayload demote;
  demote.node = "alpha";
  demote.mode = "Degraded";
  demote.level = 2;
  const DemotePayload parsed_demote = parse_demote(make_demote(demote));
  EXPECT_EQ(parsed_demote.node, "alpha");
  EXPECT_EQ(parsed_demote.mode, "Degraded");
  EXPECT_EQ(parsed_demote.level, 2);
}

TEST(ProtocolTest, EveryStrictPrefixOfAControlFrameThrows) {
  // One dialect: HELLO, PREPARE_RELOAD, PREPARE_MODE, and COMMIT/ABORT
  // have fixed layouts, so every field is required and a frame cut
  // anywhere short of its end is rejected (docs/PROTOCOL.md §7).
  const comm::Frame hello = make_hello("gamma", "ring-token", 42);
  const HelloInfo info = parse_hello_info(hello);
  EXPECT_EQ(info.node, "gamma");
  EXPECT_EQ(info.protocol_version, kProtocolVersion);
  EXPECT_EQ(info.shm_token, "ring-token");
  EXPECT_EQ(info.resync_epoch, 42u);

  PrepareReloadPayload reload;
  reload.txn = 42;
  reload.expect_epoch = 7;
  reload.plan = encode_plan(sample_plan());
  reload.delta = encode_delta(sample_delta());
  reload.coord_epoch = 3;
  const comm::Frame prepare = make_prepare_reload(reload);
  EXPECT_EQ(parse_prepare_reload(prepare).coord_epoch, 3u);

  PrepareModePayload mode_payload;
  mode_payload.txn = 4;
  mode_payload.mode = "Degraded";
  mode_payload.coord_epoch = 3;
  const comm::Frame mode = make_prepare_mode(mode_payload);
  EXPECT_EQ(parse_prepare_mode(mode).coord_epoch, 3u);

  DecisionPayload decision_payload;
  decision_payload.txn = 9;
  decision_payload.reason = "late straggler";
  decision_payload.coord_epoch = 3;
  const comm::Frame decision =
      make_decision(FrameType::Abort, decision_payload);
  EXPECT_EQ(parse_decision(decision).coord_epoch, 3u);

  const auto each_prefix = [](const comm::Frame& full, auto parse) {
    for (std::size_t cut = 0; cut < full.payload.size(); ++cut) {
      comm::Frame torn = full;
      torn.payload.resize(cut);
      EXPECT_THROW(parse(torn), WireError)
          << "frame type " << full.type << ", prefix length " << cut;
    }
  };
  each_prefix(hello, parse_hello_info);
  each_prefix(prepare, parse_prepare_reload);
  each_prefix(mode, parse_prepare_mode);
  each_prefix(decision, parse_decision);
}

TEST(ProtocolTest, MembershipFramesRoundTrip) {
  JoinPayload join;
  join.node = "gamma";
  join.resync_epoch = 7;
  const JoinPayload parsed_join = parse_join(make_join(join));
  EXPECT_EQ(parsed_join.node, "gamma");
  EXPECT_EQ(parsed_join.resync_epoch, 7u);

  LeavePayload leave;
  leave.node = "beta";
  leave.reason = "maintenance window";
  const LeavePayload parsed_leave = parse_leave(make_leave(leave));
  EXPECT_EQ(parsed_leave.node, "beta");
  EXPECT_EQ(parsed_leave.reason, "maintenance window");

  TakeoverPayload takeover;
  takeover.coordinator = "standby-1";
  takeover.coord_epoch = 5;
  const TakeoverPayload parsed_takeover =
      parse_takeover(make_takeover(takeover));
  EXPECT_EQ(parsed_takeover.coordinator, "standby-1");
  EXPECT_EQ(parsed_takeover.coord_epoch, 5u);

  StandbySyncPayload sync;
  sync.txn = 11;
  sync.committed = 1;
  sync.reason = "";
  sync.coord_epoch = 2;
  sync.membership_epoch = 9;
  sync.members = {"alpha", "beta"};
  sync.assignment = {{"Producer", "alpha"}, {"Sink", "beta"}};
  StandbyNodeRecord record;
  record.node = "alpha";
  record.epoch = 4;
  record.snapshot = encode_plan(sample_plan());
  sync.nodes.push_back(record);
  const comm::Frame frame = make_standby_sync(sync);
  const StandbySyncPayload parsed = parse_standby_sync(frame);
  EXPECT_EQ(parsed.txn, 11u);
  EXPECT_EQ(parsed.committed, 1);
  EXPECT_EQ(parsed.coord_epoch, 2u);
  EXPECT_EQ(parsed.membership_epoch, 9u);
  ASSERT_EQ(parsed.members.size(), 2u);
  EXPECT_EQ(parsed.members[0], "alpha");
  ASSERT_EQ(parsed.assignment.size(), 2u);
  EXPECT_EQ(parsed.assignment[1].first, "Sink");
  EXPECT_EQ(parsed.assignment[1].second, "beta");
  ASSERT_EQ(parsed.nodes.size(), 1u);
  EXPECT_EQ(parsed.nodes[0].node, "alpha");
  EXPECT_EQ(parsed.nodes[0].epoch, 4u);
  EXPECT_EQ(parsed.nodes[0].snapshot, record.snapshot);

  // The decision-log record is the durability anchor of a takeover: a
  // torn record must never parse (every strict prefix is rejected).
  for (std::size_t cut = 0; cut < frame.payload.size(); ++cut) {
    comm::Frame torn;
    torn.type = static_cast<std::uint16_t>(FrameType::StandbySync);
    torn.payload.assign(frame.payload.begin(), frame.payload.begin() + cut);
    EXPECT_THROW(parse_standby_sync(torn), WireError)
        << "prefix length " << cut;
  }

  // An implausible member count must surface as WireError, not bad_alloc.
  WireWriter w;
  w.u64(1);
  w.u8(1);
  w.str("");
  w.u64(1);
  w.u64(1);
  w.u32(0xFFFFFFFFu);  // member count the remaining bytes cannot hold
  comm::Frame hostile;
  hostile.type = static_cast<std::uint16_t>(FrameType::StandbySync);
  hostile.payload = w.data();
  EXPECT_THROW(parse_standby_sync(hostile), WireError);
}

}  // namespace
}  // namespace rtcf::dist
