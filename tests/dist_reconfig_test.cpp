// Distributed reconfiguration end to end: two NodeRuntimes over loopback
// channels under one ReconfigCoordinator — atomic commit, vetoed prepare,
// straggler timeout, cluster demotion, shared-clock mirror, serve-thread
// timer precision (`ctest -L dist`).
#include <gtest/gtest.h>
#include <sys/prctl.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>

#include "dist/cluster_sim.hpp"
#include "dist/coordinator.hpp"
#include "dist/node_runtime.hpp"
#include "dist/plan_codec.hpp"
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

class ProducerImpl final : public comm::Content {
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

class SinkImpl final : public comm::Content {
 public:
  void on_message(const comm::Message&) override { ++received_; }
  std::uint64_t received() const noexcept { return received_; }

 private:
  std::uint64_t received_ = 0;
};

RTCF_REGISTER_CONTENT(ProducerImpl)
RTCF_REGISTER_CONTENT(SinkImpl)

void add_modes(Architecture& arch, bool with_sink) {
  model::ModeDecl normal;
  normal.name = "Normal";
  normal.components.push_back({"Producer", rtsj::RelativeTime::zero(), {}});
  if (with_sink) {
    normal.components.push_back({"Sink", rtsj::RelativeTime::zero(), {}});
  }
  arch.add_mode(std::move(normal));
  model::ModeDecl degraded;
  degraded.name = "Degraded";
  degraded.degraded = true;
  degraded.components.push_back(
      {"Producer", rtsj::RelativeTime::milliseconds(50), {}});
  arch.add_mode(std::move(degraded));
}

/// Producer@alpha --async--> Sink@beta.
Architecture base_arch() {
  Architecture arch;
  auto& producer = arch.add_active("Producer", ActivationKind::Periodic,
                                   rtsj::RelativeTime::milliseconds(5));
  producer.set_content_class("ProducerImpl");
  producer.set_cost(rtsj::RelativeTime::microseconds(30));
  producer.set_swappable(true);
  producer.add_interface({"out", InterfaceRole::Client, "ISink"});
  auto& sink = arch.add_active("Sink", ActivationKind::Sporadic);
  sink.set_content_class("SinkImpl");
  sink.set_criticality(Criticality::Low);
  sink.set_swappable(true);
  sink.add_interface({"in", InterfaceRole::Server, "ISink"});
  Binding bridge;
  bridge.client = {"Producer", "out"};
  bridge.server = {"Sink", "in"};
  bridge.desc.protocol = Protocol::Asynchronous;
  bridge.desc.buffer_size = 64;
  arch.add_binding(bridge);
  auto& rt = arch.add_thread_domain("RT_A", DomainType::Realtime, 20);
  arch.add_child(rt, producer);
  auto& reg = arch.add_thread_domain("reg_B", DomainType::Regular, 5);
  arch.add_child(reg, sink);
  add_modes(arch, /*with_sink=*/true);
  return arch;
}

/// The reload target: Sink@beta replaced by Sink2@beta (cross-node async
/// rebind of Producer.out), plus a new Watchdog@alpha.
Architecture target_arch() {
  Architecture arch;
  auto& producer = arch.add_active("Producer", ActivationKind::Periodic,
                                   rtsj::RelativeTime::milliseconds(5));
  producer.set_content_class("ProducerImpl");
  producer.set_cost(rtsj::RelativeTime::microseconds(30));
  producer.set_swappable(true);
  producer.add_interface({"out", InterfaceRole::Client, "ISink"});
  auto& watchdog = arch.add_active("Watchdog", ActivationKind::Periodic,
                                   rtsj::RelativeTime::milliseconds(20));
  watchdog.set_content_class("ProducerImpl");
  watchdog.set_swappable(true);
  watchdog.add_interface({"out", InterfaceRole::Client, "ISink"});
  auto& sink2 = arch.add_active("Sink2", ActivationKind::Sporadic);
  sink2.set_content_class("SinkImpl");
  sink2.set_criticality(Criticality::Low);
  sink2.set_swappable(true);
  sink2.add_interface({"in", InterfaceRole::Server, "ISink"});
  Binding bridge;
  bridge.client = {"Producer", "out"};
  bridge.server = {"Sink2", "in"};
  bridge.desc.protocol = Protocol::Asynchronous;
  bridge.desc.buffer_size = 64;
  arch.add_binding(bridge);
  Binding watchdog_bridge;
  watchdog_bridge.client = {"Watchdog", "out"};
  watchdog_bridge.server = {"Sink2", "in"};
  watchdog_bridge.desc.protocol = Protocol::Asynchronous;
  watchdog_bridge.desc.buffer_size = 16;
  arch.add_binding(watchdog_bridge);
  auto& rt = arch.add_thread_domain("RT_A", DomainType::Realtime, 20);
  arch.add_child(rt, producer);
  auto& rt2 = arch.add_thread_domain("RT_W", DomainType::Realtime, 15);
  arch.add_child(rt2, watchdog);
  auto& reg = arch.add_thread_domain("reg_B", DomainType::Regular, 5);
  arch.add_child(reg, sink2);
  add_modes(arch, /*with_sink=*/false);
  return arch;
}

NodeMap target_map() {
  NodeMap map;
  map.nodes = {"alpha", "beta"};
  map.assignment = {{"Producer", "alpha"}, {"Watchdog", "alpha"},
                    {"Sink", "beta"}, {"Sink2", "beta"}};
  return map;
}

/// Wires two nodes and a coordinator over loopback channels.
struct Cluster {
  Architecture global = base_arch();
  NodeMap map = target_map();  // superset assignment covers both versions
  std::unique_ptr<NodeRuntime> alpha;
  std::unique_ptr<NodeRuntime> beta;
  std::unique_ptr<ReconfigCoordinator> coordinator;

  explicit Cluster(NodeRuntime::Options options = NodeRuntime::Options()) {
    alpha = std::make_unique<NodeRuntime>(global, map, "alpha", options);
    beta = std::make_unique<NodeRuntime>(global, map, "beta", options);
    ReconfigCoordinator::Options copts;
    copts.prepare_timeout = rtsj::RelativeTime::milliseconds(1500);
    coordinator = std::make_unique<ReconfigCoordinator>(map, copts);
    auto [a_node, a_coord] = comm::LoopbackChannel::make_pair();
    auto [b_node, b_coord] = comm::LoopbackChannel::make_pair();
    alpha->attach_control(a_node);
    beta->attach_control(b_node);
    coordinator->attach("alpha", a_coord, global);
    coordinator->attach("beta", b_coord, global);
    auto [ab, ba] = comm::LoopbackChannel::make_pair();
    alpha->connect_peer("beta", ab);
    beta->connect_peer("alpha", ba);
  }
};

TEST(DistReconfigTest, AtomicReloadAcrossTwoNodes) {
  NodeRuntime::Options options;
  options.run_duration = rtsj::RelativeTime::milliseconds(450);
  Cluster cluster(options);
  cluster.alpha->start();
  cluster.beta->start();
  std::this_thread::sleep_for(std::chrono::milliseconds(120));

  const std::uint64_t alpha_epoch_before =
      cluster.alpha->mode_manager().plan_epoch();
  const Architecture target = target_arch();
  const auto outcome = cluster.coordinator->coordinate_reload(target);
  EXPECT_TRUE(outcome.committed)
      << outcome.reason << "\n"
      << outcome.report.to_string()
      << (outcome.nodes.empty() ? "" : outcome.nodes[0].detail + " / " +
                                           outcome.nodes[1].detail);
  ASSERT_EQ(outcome.nodes.size(), 2u);
  EXPECT_TRUE(outcome.nodes[0].committed);
  EXPECT_TRUE(outcome.nodes[1].committed);
  EXPECT_GT(cluster.alpha->mode_manager().plan_epoch(), alpha_epoch_before);

  // The committed structure exists on both nodes.
  EXPECT_NE(cluster.alpha->application().assembly().find("Watchdog"),
            nullptr);
  EXPECT_NE(cluster.beta->application().assembly().find("Sink2"), nullptr);
  EXPECT_EQ(cluster.beta->application().assembly().find("Sink"), nullptr);

  cluster.alpha->stop();
  cluster.beta->stop();

  // Zero-loss conservation: everything the producers sent was either
  // received by the old sink (pre-reload) or the new one (post-reload).
  const auto* producer = dynamic_cast<const ProducerImpl*>(
      cluster.alpha->application().content("Producer"));
  const auto* watchdog = dynamic_cast<const ProducerImpl*>(
      cluster.alpha->application().content("Watchdog"));
  const auto* sink = dynamic_cast<const SinkImpl*>(
      cluster.beta->application().content("Sink"));
  const auto* sink2 = dynamic_cast<const SinkImpl*>(
      cluster.beta->application().content("Sink2"));
  ASSERT_NE(producer, nullptr);
  ASSERT_NE(watchdog, nullptr);
  ASSERT_NE(sink, nullptr);
  ASSERT_NE(sink2, nullptr);
  const std::uint64_t sent = producer->sent() + watchdog->sent();
  const std::uint64_t received = sink->received() + sink2->received();
  EXPECT_GT(producer->sent(), 0u);
  EXPECT_GT(watchdog->sent(), 0u);
  EXPECT_GT(sink2->received(), 0u) << "post-reload traffic must arrive";
  EXPECT_EQ(sent, received);

  const auto alpha_stats = cluster.alpha->gateway_stats();
  const auto beta_stats = cluster.beta->gateway_stats();
  EXPECT_EQ(alpha_stats.exit_dropped, 0u);
  EXPECT_EQ(beta_stats.entry_dropped, 0u);
  EXPECT_EQ(alpha_stats.forwarded, sent);
  EXPECT_EQ(beta_stats.injected, received);
  EXPECT_EQ(cluster.alpha->inbox_depth(), 0u);
  EXPECT_EQ(cluster.beta->inbox_depth(), 0u);
}

TEST(DistReconfigTest, VetoedPrepareAbortsGloballyOnOldEpoch) {
  NodeRuntime::Options options;
  options.run_duration = rtsj::RelativeTime::milliseconds(400);
  Cluster cluster(options);
  cluster.alpha->start();
  cluster.beta->start();
  std::this_thread::sleep_for(std::chrono::milliseconds(80));

  const std::uint64_t alpha_epoch =
      cluster.alpha->mode_manager().plan_epoch();
  const std::uint64_t beta_epoch = cluster.beta->mode_manager().plan_epoch();
  cluster.beta->fail_next_prepare("drill: injected prepare failure");

  const auto outcome =
      cluster.coordinator->coordinate_reload(target_arch());
  EXPECT_FALSE(outcome.committed);
  EXPECT_NE(outcome.reason.find("rejected"), std::string::npos)
      << outcome.reason;
  ASSERT_EQ(outcome.nodes.size(), 2u);
  EXPECT_TRUE(outcome.nodes[0].prepared);   // alpha voted OK...
  EXPECT_FALSE(outcome.nodes[0].committed); // ...but was aborted
  EXPECT_FALSE(outcome.nodes[1].prepared);

  // Both nodes remain on their old epoch with the old structure.
  EXPECT_EQ(cluster.alpha->mode_manager().plan_epoch(), alpha_epoch);
  EXPECT_EQ(cluster.beta->mode_manager().plan_epoch(), beta_epoch);
  EXPECT_EQ(cluster.alpha->application().assembly().find("Watchdog"),
            nullptr);
  EXPECT_NE(cluster.beta->application().assembly().find("Sink"), nullptr);

  // The aborted cluster still moves traffic (the executive resumed).
  const auto next =
      cluster.coordinator->coordinate_reload(target_arch());
  EXPECT_TRUE(next.committed) << next.reason;

  cluster.alpha->stop();
  cluster.beta->stop();
}

TEST(DistReconfigTest, StragglerTimeoutProducesACleanGlobalAbort) {
  NodeRuntime::Options options;
  options.run_duration = rtsj::RelativeTime::milliseconds(350);
  Cluster cluster(options);
  ReconfigCoordinator::Options copts;
  copts.prepare_timeout = rtsj::RelativeTime::milliseconds(150);
  copts.decision_timeout = rtsj::RelativeTime::milliseconds(150);
  cluster.coordinator =
      std::make_unique<ReconfigCoordinator>(cluster.map, copts);
  auto [a_node, a_coord] = comm::LoopbackChannel::make_pair();
  auto [b_node, b_coord] = comm::LoopbackChannel::make_pair();
  cluster.alpha->attach_control(a_node);
  cluster.beta->attach_control(b_node);
  cluster.coordinator->attach("alpha", a_coord, cluster.global);
  cluster.coordinator->attach("beta", b_coord, cluster.global);

  cluster.alpha->start();  // beta never starts serving: the straggler
  std::this_thread::sleep_for(std::chrono::milliseconds(60));

  const std::uint64_t alpha_epoch =
      cluster.alpha->mode_manager().plan_epoch();
  const auto outcome =
      cluster.coordinator->coordinate_reload(target_arch());
  EXPECT_FALSE(outcome.committed);
  EXPECT_NE(outcome.reason.find("straggler"), std::string::npos)
      << outcome.reason;
  EXPECT_EQ(cluster.alpha->mode_manager().plan_epoch(), alpha_epoch);

  cluster.alpha->stop();
  cluster.beta->stop();
}

TEST(DistReconfigTest, CoordinatorCrashMidDecisionDivergesThenResyncs) {
  // The FaultHooks drill (the adversity engine's wall-clock anchor): the
  // coordinator dies after the first COMMIT frame leaves. The node that
  // received the decision applies it; the node left prepared presumed-
  // aborts. The cluster is now diverged — which the next reload's
  // delta-agreement vote must catch — until the diverged node is
  // re-attached with what it actually runs.
  // Margins are generous: sanitized runs on a small CI host can stall a
  // serve thread for tens of milliseconds, and the COMMIT frame must land
  // on one node well inside its presumed-abort window.
  NodeRuntime::Options options;
  options.run_duration = rtsj::RelativeTime::milliseconds(3500);
  options.decision_timeout = rtsj::RelativeTime::milliseconds(400);
  Cluster cluster(options);
  // Rewire by hand so the test keeps the coordinator-side channel handles
  // (re-attaching the diverged node needs them).
  ReconfigCoordinator::Options copts;
  copts.prepare_timeout = rtsj::RelativeTime::milliseconds(1500);
  cluster.coordinator =
      std::make_unique<ReconfigCoordinator>(cluster.map, copts);
  auto [a_node, a_coord] = comm::LoopbackChannel::make_pair();
  auto [b_node, b_coord] = comm::LoopbackChannel::make_pair();
  cluster.alpha->attach_control(a_node);
  cluster.beta->attach_control(b_node);
  cluster.coordinator->attach("alpha", a_coord, cluster.global);
  cluster.coordinator->attach("beta", b_coord, cluster.global);

  cluster.alpha->start();
  cluster.beta->start();
  std::this_thread::sleep_for(std::chrono::milliseconds(80));

  int decision_frames = 0;
  ReconfigCoordinator::FaultHooks hooks;
  hooks.before_decision = [&](const std::string&, std::uint64_t, bool) {
    return ++decision_frames == 1;  // die before the second COMMIT frame
  };
  cluster.coordinator->set_fault_hooks(&hooks);
  const Architecture target = target_arch();
  const std::uint64_t alpha_epoch = cluster.alpha->mode_manager().plan_epoch();
  const auto crashed = cluster.coordinator->coordinate_reload(target);
  cluster.coordinator->set_fault_hooks(nullptr);
  EXPECT_FALSE(crashed.committed);
  EXPECT_NE(crashed.reason.find("crashed mid-decision"), std::string::npos)
      << crashed.reason;
  EXPECT_EQ(decision_frames, 2);

  // alpha applies the decision it received; beta's presumed-abort timer
  // releases its executive. alpha's serve thread rewrites the assembly at
  // commit, so read it only after the epoch moved: plan_epoch() is an
  // acquire load of the store that publishes the commit.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (cluster.alpha->mode_manager().plan_epoch() == alpha_epoch &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GT(cluster.alpha->mode_manager().plan_epoch(), alpha_epoch);
  std::this_thread::sleep_for(std::chrono::milliseconds(700));
  EXPECT_NE(cluster.alpha->application().assembly().find("Watchdog"),
            nullptr);
  EXPECT_NE(cluster.beta->application().assembly().find("Sink"), nullptr);
  EXPECT_EQ(cluster.beta->application().assembly().find("Sink2"), nullptr);

  // The coordinator's view of alpha is stale (no snapshot advanced on the
  // crashed transaction): alpha's agreement vote aborts the reload. The
  // epoch guard trips first here; the byte-exact delta comparison is the
  // backstop behind it.
  const auto stale = cluster.coordinator->coordinate_reload(target);
  EXPECT_FALSE(stale.committed);
  EXPECT_NE(stale.reason.find("stale epoch"), std::string::npos)
      << stale.reason;

  // Resync: re-attach the diverged node with what it actually runs; the
  // same reload now commits cluster-wide.
  cluster.coordinator->attach("alpha", a_coord, target);
  const auto resynced = cluster.coordinator->coordinate_reload(target);
  EXPECT_TRUE(resynced.committed) << resynced.reason;
  EXPECT_NE(cluster.beta->application().assembly().find("Sink2"), nullptr);

  cluster.alpha->stop();
  cluster.beta->stop();
}

TEST(DistReconfigTest, GovernorDemotionShutsDownAWholeNode) {
  NodeRuntime::Options options;
  options.run_duration = rtsj::RelativeTime::milliseconds(600);
  options.demote_at = monitor::GovernorLevel::Shed;
  Cluster cluster(options);
  cluster.alpha->start();
  cluster.beta->start();
  std::this_thread::sleep_for(std::chrono::milliseconds(80));

  // Sustained overload on alpha's producer: escalate the governor to Shed
  // by feeding violated contract windows (the contract monitor's job in
  // production; driven directly here).
  auto& monitor = cluster.alpha->application().monitor();
  const auto* entry = monitor.find("Producer");
  ASSERT_NE(entry, nullptr);
  for (int i = 0; i < 8; ++i) {
    monitor.governor().on_window_violated(entry->governor_id);
  }
  ASSERT_EQ(monitor.governor().level(), monitor::GovernorLevel::Shed);

  // The node reports instead of demoting locally; the coordinator answers
  // with a cluster-wide transition into the degraded mode.
  const auto request = cluster.coordinator->poll_demote_request(
      rtsj::RelativeTime::milliseconds(2000));
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->node, "alpha");
  EXPECT_EQ(request->mode, "Degraded");

  const auto outcome =
      cluster.coordinator->coordinate_transition(request->mode);
  EXPECT_TRUE(outcome.committed) << outcome.reason;
  EXPECT_EQ(cluster.alpha->mode_manager().current_mode(), "Degraded");
  EXPECT_EQ(cluster.beta->mode_manager().current_mode(), "Degraded");

  // Beta's Degraded mode lists no local components: everything it manages
  // is quiesced — the whole node is shut down by one coordinated
  // transition.
  const auto* setting =
      cluster.beta->mode_manager().setting("Sink");
  ASSERT_NE(setting, nullptr);
  EXPECT_FALSE(setting->enabled);

  cluster.alpha->stop();
  cluster.beta->stop();
}

/// A peer channel that records the timer slack of the thread calling
/// receive() while `recording` is set. The serve loop polls its peer
/// channels on the serve thread; stop()'s final drain polls them on the
/// caller's, so the test stops recording before it.
class SlackProbeChannel final : public comm::Channel {
 public:
  explicit SlackProbeChannel(std::shared_ptr<comm::Channel> inner)
      : inner_(std::move(inner)) {}

  using comm::Channel::send;
  bool send(const comm::Frame& frame) override { return inner_->send(frame); }
  bool receive(comm::Frame& frame, rtsj::RelativeTime timeout) override {
    if (recording.load()) {
      const long slack = prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0);
      const std::lock_guard<std::mutex> lock(mutex_);
      seen_.insert(slack);
    }
    return inner_->receive(frame, timeout);
  }
  void close() override { inner_->close(); }
  bool open() const override { return inner_->open(); }

  std::set<long> seen() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return seen_;
  }

  std::atomic<bool> recording{true};

 private:
  std::shared_ptr<comm::Channel> inner_;
  mutable std::mutex mutex_;
  std::set<long> seen_;
};

TEST(DistReconfigTest, ServeThreadWaitsWithOneNanosecondTimerSlack) {
  // A new thread starts with its creator's slack: give this thread Linux's
  // default 50 µs, which a serve thread without its own scope would keep.
  const long own = prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0);
  ASSERT_EQ(prctl(PR_SET_TIMERSLACK, 50'000L, 0, 0, 0), 0);
  NodeRuntime::Options options;
  options.run_duration = rtsj::RelativeTime::milliseconds(100);
  const Architecture global = base_arch();
  const NodeMap map = target_map();
  NodeRuntime alpha(global, map, "alpha", options);
  NodeRuntime beta(global, map, "beta", options);
  auto [ab, ba] = comm::LoopbackChannel::make_pair();
  auto probe = std::make_shared<SlackProbeChannel>(ab);
  alpha.connect_peer("beta", probe);
  beta.connect_peer("alpha", ba);

  alpha.start();
  beta.start();
  alpha.join_executive();
  probe->recording.store(false);
  alpha.stop();
  beta.stop();
  prctl(PR_SET_TIMERSLACK, own, 0, 0, 0);

  EXPECT_EQ(probe->seen(), std::set<long>{1});
}

TEST(DistClusterSimTest, SharedClockMirrorReplaysBitForBit) {
  const Architecture global = base_arch();
  const Architecture target = target_arch();
  const NodeMap map = target_map();

  // Per-node slice deltas, exactly like the coordinator's.
  const auto run_once = [&] {
    sim::PreemptiveScheduler sched(map.nodes.size());
    sched.enable_trace();
    auto mirrors = map_cluster(global, map, sched,
                               rtsj::RelativeTime::microseconds(50));
    const rtsj::AbsoluteTime anchor = rtsj::AbsoluteTime::epoch();
    const rtsj::AbsoluteTime commit =
        anchor + rtsj::RelativeTime::milliseconds(40);
    for (auto& mirror : mirrors) {
      const auto running = soleil::snapshot_assembly(
          slice_architecture(global, map, mirror.node), 1);
      const auto next = soleil::snapshot_assembly(
          slice_architecture(target, map, mirror.node), 1);
      schedule_node_delta(sched, reconfig::diff_plans(running, next),
                          mirror, commit, anchor);
    }
    sched.run_until(anchor + rtsj::RelativeTime::milliseconds(100));
    std::vector<std::string> rendered;
    std::size_t plan_changes = 0;
    for (const auto& ev : sched.trace()) {
      if (ev.kind == sim::TraceKind::PlanChange) ++plan_changes;
      rendered.push_back(ev.to_string(sched));
    }
    return std::make_pair(rendered, plan_changes);
  };

  const auto first = run_once();
  const auto second = run_once();
  EXPECT_EQ(first.second, 2u) << "one PlanChange per node mirror";
  EXPECT_EQ(first.first, second.first) << "cluster replay must be exact";
  EXPECT_FALSE(first.first.empty());
}

}  // namespace
}  // namespace rtcf::dist
