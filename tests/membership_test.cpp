// Elastic-cluster membership end to end (ctest label: membership).
//
// Real NodeRuntimes over loopback channels exercise the membership plane
// of docs/MEMBERSHIP.md: join (admit + re-shard onto the joiner), leave
// (drain-first eviction with a zero-loss audit), rejoin after eviction,
// standby takeover mid-PREPARE and mid-COMMIT (lease expiry, promotion,
// decision redrive), stale-coordinator fencing by epoch, the misrouted-
// control-frame counter, and a byte-for-byte replay of a 16-node churn
// drill through the adversity engine.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "adversity/drill.hpp"
#include "dist/coordinator.hpp"
#include "dist/node_runtime.hpp"
#include "dist/plan_codec.hpp"
#include "dist/standby.hpp"
#include "runtime/content_registry.hpp"

namespace rtcf::dist {
namespace {

using model::ActivationKind;
using model::Architecture;
using model::Binding;
using model::Criticality;
using model::DomainType;
using model::InterfaceRole;
using model::Protocol;
using validate::NodeMap;

class PulseImpl final : public comm::Content {
 public:
  void on_release() override {
    comm::Message m;
    m.sequence = ++sent_;
    port(0).send(m);
  }
  std::uint64_t sent() const noexcept { return sent_; }

 private:
  std::uint64_t sent_ = 0;
};

class DrainImpl final : public comm::Content {
 public:
  void on_message(const comm::Message&) override { ++received_; }
  std::uint64_t received() const noexcept { return received_; }

 private:
  std::uint64_t received_ = 0;
};

RTCF_REGISTER_CONTENT(PulseImpl)
RTCF_REGISTER_CONTENT(DrainImpl)

/// Producer --async--> <sink_name> (placement decided by the NodeMap).
Architecture pipeline_arch(const char* sink_name = "Sink") {
  Architecture arch;
  auto& producer = arch.add_active("Producer", ActivationKind::Periodic,
                                   rtsj::RelativeTime::milliseconds(5));
  producer.set_content_class("PulseImpl");
  producer.set_cost(rtsj::RelativeTime::microseconds(30));
  producer.set_swappable(true);
  producer.add_interface({"out", InterfaceRole::Client, "ISink"});
  auto& sink = arch.add_active(sink_name, ActivationKind::Sporadic);
  sink.set_content_class("DrainImpl");
  sink.set_criticality(Criticality::Low);
  sink.set_swappable(true);
  sink.add_interface({"in", InterfaceRole::Server, "ISink"});
  Binding binding;
  binding.client = {"Producer", "out"};
  binding.server = {sink_name, "in"};
  binding.desc.protocol = Protocol::Asynchronous;
  binding.desc.buffer_size = 64;
  arch.add_binding(binding);
  auto& rt = arch.add_thread_domain("RT_A", DomainType::Realtime, 20);
  arch.add_child(rt, producer);
  auto& reg = arch.add_thread_domain("reg_B", DomainType::Regular, 5);
  arch.add_child(reg, sink);
  model::ModeDecl normal;
  normal.name = "Normal";
  normal.components.push_back({"Producer", rtsj::RelativeTime::zero(), {}});
  normal.components.push_back({sink_name, rtsj::RelativeTime::zero(), {}});
  arch.add_mode(std::move(normal));
  // Sink-only mode: a coordinated transition into it stops the producer
  // while the sink keeps draining — the exact-conservation anchor of the
  // join/drain audit below.
  model::ModeDecl quiesce;
  quiesce.name = "Quiesce";
  quiesce.components.push_back({sink_name, rtsj::RelativeTime::zero(), {}});
  arch.add_mode(std::move(quiesce));
  return arch;
}

NodeMap two_node_map() {
  NodeMap map;
  map.nodes = {"alpha", "beta"};
  map.assignment = {{"Producer", "alpha"}, {"Sink", "beta"}};
  return map;
}

/// The truthful pre-join view with gamma declared but empty — what a
/// candidate NodeRuntime boots with (its initial slice is the empty
/// slice, the admission baseline of docs/MEMBERSHIP.md §2).
NodeMap candidate_map() {
  NodeMap map;
  map.nodes = {"alpha", "beta", "gamma"};
  map.assignment = {{"Producer", "alpha"}, {"Sink", "beta"}};
  return map;
}

NodeMap three_node_map(const char* sink_owner) {
  NodeMap map;
  map.nodes = {"alpha", "beta", "gamma"};
  map.assignment = {{"Producer", "alpha"}, {"Sink", sink_owner}};
  return map;
}

void sleep_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

TEST(MembershipTest, JoinDrainLeaveRejoinWithZeroLossAudit) {
  const Architecture global = pipeline_arch();
  const NodeMap map = two_node_map();

  NodeRuntime::Options options;
  options.run_duration = rtsj::RelativeTime::milliseconds(3200);
  NodeRuntime alpha(global, map, "alpha", options);
  NodeRuntime beta(global, map, "beta", options);
  NodeRuntime::Options gamma_options = options;
  gamma_options.run_duration = rtsj::RelativeTime::milliseconds(1600);
  NodeRuntime gamma(global, candidate_map(), "gamma", gamma_options);

  ReconfigCoordinator::Options copts;
  copts.prepare_timeout = rtsj::RelativeTime::milliseconds(1500);
  ReconfigCoordinator coordinator(map, copts);
  auto [a_node, a_coord] = comm::LoopbackChannel::make_pair();
  auto [b_node, b_coord] = comm::LoopbackChannel::make_pair();
  auto [g_node, g_coord] = comm::LoopbackChannel::make_pair();
  alpha.attach_control(a_node);
  beta.attach_control(b_node);
  gamma.attach_control(g_node);
  coordinator.attach("alpha", a_coord, global);
  coordinator.attach("beta", b_coord, global);
  coordinator.stage_candidate("gamma", g_coord);
  auto [ab, ba] = comm::LoopbackChannel::make_pair();
  alpha.connect_peer("beta", ab);
  beta.connect_peer("alpha", ba);
  auto [ag, ga] = comm::LoopbackChannel::make_pair();
  alpha.connect_peer("gamma", ag);
  gamma.connect_peer("alpha", ga);
  auto [bg, gb] = comm::LoopbackChannel::make_pair();
  beta.connect_peer("gamma", bg);
  gamma.connect_peer("beta", gb);

  alpha.start();
  beta.start();
  gamma.start();
  sleep_ms(120);  // traffic flows Producer@alpha -> Sink@beta

  // --- Join: gamma asks in; the re-shard moves Sink onto it. ----------
  const std::uint64_t epoch_before = coordinator.membership().epoch;
  EXPECT_TRUE(gamma.request_join());
  const auto join_request = coordinator.poll_membership_request(
      rtsj::RelativeTime::milliseconds(500));
  ASSERT_TRUE(join_request.has_value());
  EXPECT_TRUE(join_request->join);
  EXPECT_EQ(join_request->node, "gamma");
  EXPECT_EQ(join_request->resync_epoch, gamma.mode_manager().plan_epoch());

  const auto admitted =
      coordinator.admit_node("gamma", global, three_node_map("gamma"));
  EXPECT_TRUE(admitted.committed)
      << admitted.reason << "\n"
      << admitted.report.to_string();
  EXPECT_TRUE(coordinator.membership().map.has_node("gamma"));
  // admit (+1) and the committed re-shard (+1) both advance the view.
  EXPECT_EQ(coordinator.membership().epoch, epoch_before + 2);
  EXPECT_NE(gamma.application().assembly().find("Sink"), nullptr);
  EXPECT_EQ(beta.application().assembly().find("Sink"), nullptr);
  sleep_ms(150);  // traffic flows Producer@alpha -> Sink@gamma

  // --- Leave: gamma drains out; Sink lands next to the producer. ------
  EXPECT_TRUE(gamma.request_leave("maintenance window"));
  const auto leave_request = coordinator.poll_membership_request(
      rtsj::RelativeTime::milliseconds(500));
  ASSERT_TRUE(leave_request.has_value());
  EXPECT_FALSE(leave_request->join);
  EXPECT_EQ(leave_request->node, "gamma");
  EXPECT_EQ(leave_request->reason, "maintenance window");

  const std::uint64_t epoch_mid = coordinator.membership().epoch;
  const auto drained =
      coordinator.drain_node("gamma", global, three_node_map("alpha"));
  EXPECT_TRUE(drained.committed)
      << drained.reason << "\n"
      << drained.report.to_string();
  EXPECT_FALSE(coordinator.membership().map.has_node("gamma"));
  // re-shard (+1) then eviction (+1): drain-first, per MEMBERSHIP.md §2.
  EXPECT_EQ(coordinator.membership().epoch, epoch_mid + 2);
  EXPECT_NE(alpha.application().assembly().find("Sink"), nullptr);
  EXPECT_EQ(gamma.application().assembly().find("Sink"), nullptr);
  sleep_ms(150);  // traffic flows locally on alpha

  // Freeze the producer with a coordinated transition into the sink-only
  // mode; the sink drains what is still buffered, so the conservation
  // audit below is exact — not raced by the shutdown instant.
  const auto quiesced = coordinator.coordinate_transition("Quiesce");
  EXPECT_TRUE(quiesced.committed) << quiesced.reason;
  sleep_ms(120);

  gamma.stop();

  // --- Rejoin: the evicted node restarts and is admitted again with the
  // empty slice. The same-assignment re-shard is a cluster no-op, so the
  // reload aborts — but admission is unconditional: gamma is a member
  // holding the empty slice, and a later reload may shard onto it.
  NodeRuntime::Options rejoin_options = options;
  rejoin_options.run_duration = rtsj::RelativeTime::milliseconds(900);
  NodeRuntime gamma_again(global, three_node_map("alpha"), "gamma",
                          rejoin_options);
  auto [g2_node, g2_coord] = comm::LoopbackChannel::make_pair();
  gamma_again.attach_control(g2_node);
  coordinator.stage_candidate("gamma", g2_coord);
  gamma_again.start();
  EXPECT_TRUE(gamma_again.request_join());
  const auto rejoin_request = coordinator.poll_membership_request(
      rtsj::RelativeTime::milliseconds(500));
  ASSERT_TRUE(rejoin_request.has_value());
  EXPECT_TRUE(rejoin_request->join);

  const std::uint64_t epoch_rejoin = coordinator.membership().epoch;
  const auto readmitted =
      coordinator.admit_node("gamma", global, three_node_map("alpha"));
  EXPECT_FALSE(readmitted.committed);  // empty delta everywhere: no-op
  EXPECT_TRUE(coordinator.membership().map.has_node("gamma"));
  EXPECT_EQ(coordinator.membership().epoch, epoch_rejoin + 1);
  gamma_again.stop();

  alpha.stop();
  beta.stop();

  // --- Zero-loss audit: every message the producer sent across all four
  // placements (beta, gamma, local alpha) was received by exactly one
  // Sink incarnation — the drain-leave lost nothing.
  const auto* producer =
      dynamic_cast<const PulseImpl*>(alpha.application().content("Producer"));
  const auto* sink_beta =
      dynamic_cast<const DrainImpl*>(beta.application().content("Sink"));
  const auto* sink_gamma =
      dynamic_cast<const DrainImpl*>(gamma.application().content("Sink"));
  const auto* sink_alpha =
      dynamic_cast<const DrainImpl*>(alpha.application().content("Sink"));
  ASSERT_NE(producer, nullptr);
  ASSERT_NE(sink_beta, nullptr);
  ASSERT_NE(sink_gamma, nullptr);
  ASSERT_NE(sink_alpha, nullptr);
  EXPECT_GT(sink_beta->received(), 0u) << "pre-join traffic must arrive";
  EXPECT_GT(sink_gamma->received(), 0u) << "post-join traffic must arrive";
  EXPECT_GT(sink_alpha->received(), 0u) << "post-leave traffic must arrive";
  const auto a_stats = alpha.gateway_stats();
  const auto b_stats = beta.gateway_stats();
  const auto g_stats = gamma.gateway_stats();
  EXPECT_EQ(producer->sent(), sink_beta->received() +
                                  sink_gamma->received() +
                                  sink_alpha->received())
      << "alpha fwd=" << a_stats.forwarded << " exit_drop="
      << a_stats.exit_dropped << " inj=" << a_stats.injected
      << " entry_drop=" << a_stats.entry_dropped
      << " inbox=" << alpha.inbox_depth()
      << "\nbeta fwd=" << b_stats.forwarded << " exit_drop="
      << b_stats.exit_dropped << " inj=" << b_stats.injected
      << " entry_drop=" << b_stats.entry_dropped
      << " inbox=" << beta.inbox_depth()
      << "\ngamma fwd=" << g_stats.forwarded << " exit_drop="
      << g_stats.exit_dropped << " inj=" << g_stats.injected
      << " entry_drop=" << g_stats.entry_dropped
      << " inbox=" << gamma.inbox_depth();
}

TEST(MembershipTest, TrafficThatBeatsTheJoinersCommitIsHeldNotDropped) {
  // The join re-shard moves Sink from beta onto gamma. gamma's COMMIT is
  // held back 40 ms, so alpha commits first and its producer (5 ms
  // period) sends under the new wiring while gamma is still prepared and
  // has no entry for the route. Those messages must reach gamma's new
  // Sink after its commit: none may be dropped at gamma, and none may go
  // down the old route to beta, which retired its entry at its commit.
  const Architecture global = pipeline_arch();
  const NodeMap map = two_node_map();
  NodeRuntime::Options options;
  options.run_duration = rtsj::RelativeTime::milliseconds(800);
  NodeRuntime alpha(global, map, "alpha", options);
  NodeRuntime beta(global, map, "beta", options);
  NodeRuntime gamma(global, candidate_map(), "gamma", options);

  ReconfigCoordinator::Options copts;
  copts.prepare_timeout = rtsj::RelativeTime::milliseconds(1500);
  ReconfigCoordinator coordinator(map, copts);
  auto [a_node, a_coord] = comm::LoopbackChannel::make_pair();
  auto [b_node, b_coord] = comm::LoopbackChannel::make_pair();
  auto [g_node, g_coord] = comm::LoopbackChannel::make_pair();
  alpha.attach_control(a_node);
  beta.attach_control(b_node);
  gamma.attach_control(g_node);
  coordinator.attach("alpha", a_coord, global);
  coordinator.attach("beta", b_coord, global);
  coordinator.stage_candidate("gamma", g_coord);
  auto [ab, ba] = comm::LoopbackChannel::make_pair();
  alpha.connect_peer("beta", ab);
  beta.connect_peer("alpha", ba);
  auto [ag, ga] = comm::LoopbackChannel::make_pair();
  alpha.connect_peer("gamma", ag);
  gamma.connect_peer("alpha", ga);
  auto [bg, gb] = comm::LoopbackChannel::make_pair();
  beta.connect_peer("gamma", bg);
  gamma.connect_peer("beta", gb);

  alpha.start();
  beta.start();
  gamma.start();
  sleep_ms(60);

  // Decisions go out in map order: alpha, beta, then — late — gamma.
  ReconfigCoordinator::FaultHooks hooks;
  hooks.before_decision = [](const std::string& node, std::uint64_t, bool) {
    if (node == "gamma") sleep_ms(40);
    return true;
  };
  coordinator.set_fault_hooks(&hooks);
  const auto admitted =
      coordinator.admit_node("gamma", global, three_node_map("gamma"));
  coordinator.set_fault_hooks(nullptr);
  ASSERT_TRUE(admitted.committed) << admitted.reason;
  sleep_ms(60);
  const auto quiesced = coordinator.coordinate_transition("Quiesce");
  EXPECT_TRUE(quiesced.committed) << quiesced.reason;
  sleep_ms(60);
  alpha.stop();
  beta.stop();
  gamma.stop();

  const auto* producer =
      dynamic_cast<const PulseImpl*>(alpha.application().content("Producer"));
  const auto* sink_beta =
      dynamic_cast<const DrainImpl*>(beta.application().content("Sink"));
  const auto* sink_gamma =
      dynamic_cast<const DrainImpl*>(gamma.application().content("Sink"));
  ASSERT_NE(producer, nullptr);
  ASSERT_NE(sink_beta, nullptr);
  ASSERT_NE(sink_gamma, nullptr);
  EXPECT_GT(sink_gamma->received(), 0u);
  EXPECT_EQ(beta.gateway_stats().entry_dropped, 0u);
  EXPECT_EQ(gamma.gateway_stats().entry_dropped, 0u);
  EXPECT_EQ(producer->sent(), sink_beta->received() + sink_gamma->received());
}

/// Two nodes, an active coordinator with fault hooks, and a standby
/// shadowing the decision log on a feed channel. The standby shares the
/// coordinator-side channel handles — exactly what a promotion owns.
struct StandbyCluster {
  Architecture global = pipeline_arch("Sink");
  Architecture target = pipeline_arch("Sink2");
  NodeMap map;
  std::unique_ptr<NodeRuntime> alpha;
  std::unique_ptr<NodeRuntime> beta;
  std::unique_ptr<ReconfigCoordinator> coordinator;
  std::unique_ptr<StandbyCoordinator> standby;
  std::shared_ptr<comm::Channel> a_coord;
  std::shared_ptr<comm::Channel> b_coord;

  explicit StandbyCluster(NodeRuntime::Options options) {
    map.nodes = {"alpha", "beta"};
    map.assignment = {{"Producer", "alpha"}, {"Sink", "beta"},
                      {"Sink2", "beta"}};
    alpha = std::make_unique<NodeRuntime>(global, map, "alpha", options);
    beta = std::make_unique<NodeRuntime>(global, map, "beta", options);
    ReconfigCoordinator::Options copts;
    copts.prepare_timeout = rtsj::RelativeTime::milliseconds(1500);
    copts.decision_timeout = rtsj::RelativeTime::milliseconds(400);
    coordinator = std::make_unique<ReconfigCoordinator>(map, copts);
    auto [a_node, a_c] = comm::LoopbackChannel::make_pair();
    auto [b_node, b_c] = comm::LoopbackChannel::make_pair();
    a_coord = a_c;
    b_coord = b_c;
    alpha->attach_control(a_node);
    beta->attach_control(b_node);
    coordinator->attach("alpha", a_coord, global);
    coordinator->attach("beta", b_coord, global);
    auto [ab, ba] = comm::LoopbackChannel::make_pair();
    alpha->connect_peer("beta", ab);
    beta->connect_peer("alpha", ba);

    validate::MembershipView initial;
    initial.map = map;
    StandbyCoordinator::Options sopts;
    sopts.coordinator = copts;
    standby =
        std::make_unique<StandbyCoordinator>("standby-1", initial, sopts);
    auto [feed_tx, feed_rx] = comm::LoopbackChannel::make_pair();
    coordinator->attach_standby(feed_tx);
    standby->attach_feed(feed_rx);
    standby->attach_node("alpha", a_coord);
    standby->attach_node("beta", b_coord);
  }
};

TEST(MembershipTest, StandbyTakeoverMidCommitRedrivesTheDurableDecision) {
  NodeRuntime::Options options;
  options.run_duration = rtsj::RelativeTime::milliseconds(3500);
  options.decision_timeout = rtsj::RelativeTime::milliseconds(3000);
  StandbyCluster cluster(options);
  cluster.alpha->start();
  cluster.beta->start();
  sleep_ms(100);

  const std::uint64_t alpha_epoch =
      cluster.alpha->mode_manager().plan_epoch();
  const std::uint64_t beta_epoch = cluster.beta->mode_manager().plan_epoch();

  // The coordinator dies after streaming the decision record but before
  // any COMMIT frame leaves: the decision is durable, undistributed.
  ReconfigCoordinator::FaultHooks hooks;
  hooks.before_decision = [](const std::string&, std::uint64_t, bool) {
    return false;
  };
  cluster.coordinator->set_fault_hooks(&hooks);
  const auto crashed = cluster.coordinator->coordinate_reload(cluster.target);
  cluster.coordinator->set_fault_hooks(nullptr);
  EXPECT_FALSE(crashed.committed);
  EXPECT_NE(crashed.reason.find("crashed mid-decision"), std::string::npos)
      << crashed.reason;

  // The standby holds the record; after the lease lapses it promotes,
  // fences the predecessor, and redrives the decision.
  EXPECT_EQ(cluster.standby->pump(rtsj::RelativeTime::milliseconds(400)), 1u);
  ASSERT_TRUE(cluster.standby->last_record().has_value());
  const StandbySyncPayload record = *cluster.standby->last_record();
  EXPECT_EQ(record.committed, 1);
  sleep_ms(350);
  EXPECT_TRUE(cluster.standby->lease_expired());

  ReconfigCoordinator& promoted = cluster.standby->promote(
      cluster.global, rtsj::RelativeTime::milliseconds(800));
  EXPECT_EQ(promoted.coord_epoch(), 2u);
  const auto redriven = cluster.standby->redrive_last();
  ASSERT_TRUE(redriven.has_value());
  EXPECT_TRUE(redriven->committed);
  ASSERT_EQ(redriven->nodes.size(), 2u);
  EXPECT_TRUE(redriven->nodes[0].committed) << redriven->nodes[0].detail;
  EXPECT_TRUE(redriven->nodes[1].committed) << redriven->nodes[1].detail;

  // Both nodes applied the redriven transition: new structure, epoch + 1.
  EXPECT_EQ(cluster.alpha->mode_manager().plan_epoch(), alpha_epoch + 1);
  EXPECT_EQ(cluster.beta->mode_manager().plan_epoch(), beta_epoch + 1);
  EXPECT_NE(cluster.beta->application().assembly().find("Sink2"), nullptr);
  EXPECT_EQ(cluster.beta->application().assembly().find("Sink"), nullptr);
  EXPECT_EQ(cluster.alpha->coord_epoch_seen(), 2u);
  EXPECT_EQ(cluster.beta->coord_epoch_seen(), 2u);

  // The record replicated each node's post-commit snapshot as canonical
  // plan-codec bytes: the promoted coordinator's baseline re-encodes to
  // exactly those bytes (MEMBERSHIP.md §3).
  for (const StandbyNodeRecord& entry : record.nodes) {
    EXPECT_EQ(encode_plan(promoted.node_snapshot(entry.node)),
              entry.snapshot)
        << "node " << entry.node;
  }

  // The fenced predecessor can no longer move the cluster: its prepares
  // carry epoch 1 < 2 and every node vetoes. (It still believes the
  // cluster runs the old structure, so the target is a real delta from
  // its stale baseline — the PREPAREs actually go out.)
  const auto fenced = cluster.coordinator->coordinate_reload(cluster.target);
  EXPECT_FALSE(fenced.committed);
  EXPECT_NE(fenced.reason.find("fenced: stale coordinator epoch"),
            std::string::npos)
      << fenced.reason;

  cluster.alpha->stop();
  cluster.beta->stop();

  const auto alpha_counters =
      cluster.alpha->application().monitor().control_plane().snapshot();
  const auto beta_counters =
      cluster.beta->application().monitor().control_plane().snapshot();
  EXPECT_EQ(alpha_counters.takeovers, 1u);
  EXPECT_EQ(beta_counters.takeovers, 1u);
  EXPECT_GE(alpha_counters.fenced_prepares, 1u);
  EXPECT_GE(beta_counters.fenced_prepares, 1u);
  // The stale coordinator also distributed its doomed ABORT — dropped
  // silently, but counted.
  EXPECT_GE(alpha_counters.fenced_decisions + beta_counters.fenced_decisions,
            1u);
}

TEST(MembershipTest, StandbyTakeoverMidPrepareFallsBackToPresumedAbort) {
  NodeRuntime::Options options;
  options.run_duration = rtsj::RelativeTime::milliseconds(3500);
  options.decision_timeout = rtsj::RelativeTime::milliseconds(400);
  StandbyCluster cluster(options);
  cluster.alpha->start();
  cluster.beta->start();
  sleep_ms(100);

  const std::uint64_t alpha_epoch =
      cluster.alpha->mode_manager().plan_epoch();

  // The coordinator dies mid-PREPARE sweep: one node is parked, no
  // decision exists, so no record reaches the standby.
  int prepares = 0;
  ReconfigCoordinator::FaultHooks hooks;
  hooks.before_prepare = [&](const std::string&, std::uint64_t) {
    return ++prepares == 1;
  };
  cluster.coordinator->set_fault_hooks(&hooks);
  const auto crashed = cluster.coordinator->coordinate_reload(cluster.target);
  cluster.coordinator->set_fault_hooks(nullptr);
  EXPECT_FALSE(crashed.committed);
  EXPECT_EQ(cluster.standby->pump(rtsj::RelativeTime::milliseconds(100)), 0u);

  // The parked node presumed-aborts on its own (PROTOCOL.md §5); the
  // lease lapses with zero records seen.
  sleep_ms(700);
  EXPECT_TRUE(cluster.standby->lease_expired());
  EXPECT_EQ(cluster.standby->records_seen(), 0u);
  EXPECT_EQ(cluster.alpha->mode_manager().plan_epoch(), alpha_epoch);
  EXPECT_EQ(cluster.beta->application().assembly().find("Sink2"), nullptr);

  // Promotion falls back to the initial view + live attach; there is no
  // decision to redrive — presumed abort already resolved the cluster.
  ReconfigCoordinator& promoted = cluster.standby->promote(
      cluster.global, rtsj::RelativeTime::milliseconds(800));
  EXPECT_EQ(promoted.coord_epoch(), 2u);
  EXPECT_FALSE(cluster.standby->redrive_last().has_value());

  // The promoted coordinator drives a fresh transition to completion.
  const auto outcome = promoted.coordinate_reload(cluster.target);
  std::string detail = outcome.reason;
  for (const auto& node : outcome.nodes) {
    detail += "\n  " + node.node + ": prepared=" +
              (node.prepared ? "1" : "0") + " committed=" +
              (node.committed ? "1" : "0") + " detail=" + node.detail;
  }
  EXPECT_TRUE(outcome.committed) << detail;
  EXPECT_NE(cluster.beta->application().assembly().find("Sink2"), nullptr);
  EXPECT_EQ(cluster.alpha->coord_epoch_seen(), 2u);
  EXPECT_EQ(cluster.beta->coord_epoch_seen(), 2u);

  cluster.alpha->stop();
  cluster.beta->stop();
}

TEST(MembershipTest, MisroutedControlFramesAreCountedNotSilentlyDropped) {
  const Architecture global = pipeline_arch();
  const NodeMap map = two_node_map();
  NodeRuntime::Options options;
  options.run_duration = rtsj::RelativeTime::milliseconds(300);
  NodeRuntime alpha(global, map, "alpha", options);
  auto [a_node, a_coord] = comm::LoopbackChannel::make_pair();
  alpha.attach_control(a_node);
  alpha.start();

  // A CREDIT frame (node-to-node plane) and an unknown future frame type
  // arrive on the control channel: both are not coordinator traffic a
  // node handles, and both must be visible in the monitor.
  CreditPayload credit;
  credit.client = "Producer";
  credit.port = "out";
  credit.credits = 8;
  a_coord->send(make_credit(credit));
  comm::Frame future;
  future.type = 99;
  a_coord->send(future);
  sleep_ms(150);
  alpha.stop();

  const auto counters =
      alpha.application().monitor().control_plane().snapshot();
  EXPECT_EQ(counters.ignored_frames, 2u);
  EXPECT_EQ(counters.fenced_prepares, 0u);
  EXPECT_EQ(counters.fenced_decisions, 0u);
  EXPECT_EQ(counters.takeovers, 0u);
}

TEST(MembershipTest, SixteenNodeChurnDrillReplaysByteForByte) {
  // The acceptance drill of the elastic cluster: a 16-node scenario under
  // the churn mix (join + leave + node crash + coordinator crash mid-
  // PREPARE/mid-COMMIT) converges with zero message loss, and the whole
  // report — timeline, protocol log, membership log, violations — is a
  // pure function of the seed.
  adversity::DrillOptions options;
  options.seed = 505;
  options.mix = adversity::FaultMix::parse("churn");
  options.gen.min_nodes = 16;
  options.gen.max_nodes = 16;
  options.trace = true;
  const adversity::DrillResult first = adversity::run_drill(options);
  EXPECT_TRUE(first.passed) << first.report();
  EXPECT_EQ(first.nodes, 16u);
  EXPECT_GT(first.members_joined + first.members_left, 0u)
      << "seed 505 must actually churn the membership";

  const adversity::DrillResult replay = adversity::run_drill(options);
  EXPECT_EQ(first.report(), replay.report());
  EXPECT_EQ(first.passed, replay.passed);
  EXPECT_EQ(first.membership_epoch, replay.membership_epoch);
}

}  // namespace
}  // namespace rtcf::dist
