// The gateway data plane (`ctest -L dataplane`): BATCH/CREDIT codecs,
// coalescing and credit flow control in dist::DataPlane, the HELLO
// version check, the two-node end-to-end batched path, the receive-path
// drop counters, and the virtual-time mirror's replay equality
// (docs/DATAPLANE.md is the spec under test).
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <unistd.h>

#include "comm/channel.hpp"
#include "comm/shm_ring.hpp"
#include "dist/batch_view.hpp"
#include "dist/cluster_sim.hpp"
#include "dist/dataplane.hpp"
#include "dist/node_runtime.hpp"
#include "dist/plan_codec.hpp"
#include "dist/protocol.hpp"
#include "dist/wire.hpp"
#include "runtime/content_registry.hpp"
#include "sim/scheduler.hpp"

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

comm::Message make_message(std::uint64_t sequence) {
  comm::Message m;
  m.type_id = 3;
  m.sequence = sequence;
  m.timestamp_ns = static_cast<std::int64_t>(1000 + sequence);
  m.store<std::uint64_t>(sequence * 7);
  return m;
}

// ---- codecs ---------------------------------------------------------------

TEST(BatchCodecTest, RoundTripsMultiRouteFrames) {
  BatchPayload payload;
  payload.routes.push_back({"Producer", "out",
                            {make_message(1), make_message(2)}});
  payload.routes.push_back({"Watchdog", "tick", {make_message(9)}});
  const comm::Frame frame = make_batch(payload);
  EXPECT_EQ(frame.type, static_cast<std::uint16_t>(FrameType::Batch));

  const BatchPayload again = parse_batch(frame);
  ASSERT_EQ(again.routes.size(), 2u);
  EXPECT_EQ(again.routes[0].client, "Producer");
  EXPECT_EQ(again.routes[0].port, "out");
  ASSERT_EQ(again.routes[0].messages.size(), 2u);
  EXPECT_EQ(again.routes[1].client, "Watchdog");
  ASSERT_EQ(again.routes[1].messages.size(), 1u);
  const comm::Message& m = again.routes[0].messages[1];
  EXPECT_EQ(m.sequence, 2u);
  EXPECT_EQ(m.type_id, 3u);
  EXPECT_EQ(m.timestamp_ns, 1002);
  EXPECT_EQ(m.load<std::uint64_t>(), 14u);
}

TEST(BatchCodecTest, RejectsEveryTruncation) {
  BatchPayload payload;
  payload.routes.push_back({"C", "p", {make_message(1), make_message(2)}});
  const comm::Frame full = make_batch(payload);
  for (std::size_t cut = 0; cut < full.payload.size(); ++cut) {
    comm::Frame torn = full;
    torn.payload.resize(cut);
    EXPECT_THROW(parse_batch(torn), WireError) << "cut at " << cut;
  }
}

TEST(CreditCodecTest, RoundTripsAndRejectsTruncation) {
  const comm::Frame frame = make_credit({"Producer", "out", 128});
  EXPECT_EQ(frame.type, static_cast<std::uint16_t>(FrameType::Credit));
  const CreditPayload again = parse_credit(frame);
  EXPECT_EQ(again.client, "Producer");
  EXPECT_EQ(again.port, "out");
  EXPECT_EQ(again.credits, 128u);
  for (std::size_t cut = 0; cut < frame.payload.size(); ++cut) {
    comm::Frame torn = frame;
    torn.payload.resize(cut);
    EXPECT_THROW(parse_credit(torn), WireError) << "cut at " << cut;
  }
}

TEST(HelloCodecTest, AnnouncesProtocolVersionAndShmToken) {
  const comm::Frame frame = make_hello("alpha", "/rtcf.alpha.beta");
  const HelloInfo info = parse_hello_info(frame);
  EXPECT_EQ(info.node, "alpha");
  EXPECT_EQ(info.codec_version, kCodecVersion);
  EXPECT_EQ(info.protocol_version, kProtocolVersion);
  EXPECT_EQ(info.shm_token, "/rtcf.alpha.beta");
}

// ---- DataPlane unit behaviour ---------------------------------------------

/// Drains every frame currently on `far` without waiting.
std::vector<comm::Frame> drain(comm::Channel& far) {
  std::vector<comm::Frame> frames;
  comm::Frame frame;
  while (far.receive(frame, rtsj::RelativeTime::zero())) {
    frames.push_back(frame);
  }
  return frames;
}

TEST(DataPlaneTest, CoalescesUntilBatchMaxThenFlushesOneFrame) {
  DataPlaneConfig config;
  config.batch_max = 4;
  config.flush_interval = rtsj::RelativeTime::milliseconds(200);
  config.credit_window = 64;
  config.route_queue_cap = 64;
  DataPlane plane(config);
  auto [near, far] = comm::LoopbackChannel::make_pair();
  const std::size_t route = plane.add_route("Producer", "out", near, "beta");

  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(plane.offer(route, make_message(i)), DataPlane::Offer::Queued);
  }
  EXPECT_TRUE(drain(*far).empty()) << "nothing may flush below batch_max";

  EXPECT_EQ(plane.offer(route, make_message(3)), DataPlane::Offer::Sent);
  const auto frames = drain(*far);
  ASSERT_EQ(frames.size(), 1u) << "one BATCH frame, not four writes";
  const BatchPayload batch = parse_batch(frames[0]);
  ASSERT_EQ(batch.routes.size(), 1u);
  ASSERT_EQ(batch.routes[0].messages.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(batch.routes[0].messages[i].sequence, i) << "order preserved";
  }
  const auto stats = plane.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.sent, 4u);
  EXPECT_EQ(stats.size_flushes, 1u);
  EXPECT_EQ(stats.peak_queue_depth, 4u);
}

TEST(DataPlaneTest, DeadlineFlushSendsAgedPartialBatches) {
  DataPlaneConfig config;
  config.batch_max = 100;
  config.flush_interval = rtsj::RelativeTime::milliseconds(50);
  DataPlane plane(config);
  auto [near, far] = comm::LoopbackChannel::make_pair();
  const std::size_t route = plane.add_route("Producer", "out", near, "beta");

  EXPECT_EQ(plane.offer(route, make_message(0)), DataPlane::Offer::Queued);
  EXPECT_EQ(plane.offer(route, make_message(1)), DataPlane::Offer::Queued);
  EXPECT_EQ(plane.flush(false), 0u) << "younger than flush_interval";

  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_EQ(plane.flush(false), 2u);
  const auto frames = drain(*far);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(parse_batch(frames[0]).routes[0].messages.size(), 2u);
  EXPECT_EQ(plane.stats().deadline_flushes, 1u);
}

TEST(DataPlaneTest, DefaultConfigFlushesAtTheNextBoundary) {
  // The default flush_interval is zero: a trickle below batch_max waits
  // for no deadline, only for the next flush(false) — the node's dispatch
  // boundary right after the round that queued it.
  DataPlane plane;
  auto [near, far] = comm::LoopbackChannel::make_pair();
  const std::size_t route = plane.add_route("Producer", "out", near, "beta");
  EXPECT_EQ(plane.offer(route, make_message(0)), DataPlane::Offer::Queued);
  EXPECT_EQ(plane.flush(false), 1u);
  const auto frames = drain(*far);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(parse_batch(frames[0]).routes[0].messages[0].sequence, 0u);
  const auto stats = plane.stats();
  EXPECT_EQ(stats.deadline_flushes, 1u);
  EXPECT_EQ(stats.size_flushes, 0u);
  EXPECT_EQ(stats.queued, 0u);
}

TEST(DataPlaneTest, ForceFlushSendsFramesTheShmRingAccepts) {
  // 4 routes x 6000 queued messages encode to about twice the 1 MiB ring.
  // One frame holding all of them can never fit; the force flush (stop()
  // drain, PREPARE barrier) must split the backlog, not lose it.
  constexpr std::size_t kRoutes = 4;
  constexpr std::uint64_t kPerRoute = 6000;
  const std::string name =
      "/rtcf-dataplane-test-force." + std::to_string(::getpid());
  std::shared_ptr<comm::Channel> ring =
      comm::ShmRingChannel::create(name, std::size_t{1} << 20);
  ASSERT_NE(ring, nullptr);
  auto reader = comm::ShmRingChannel::attach(name);
  ASSERT_NE(reader, nullptr);

  DataPlaneConfig config;
  config.batch_max = 8192;  // queue everything: no size flush
  config.route_queue_cap = 8192;
  DataPlane plane(config);
  std::size_t routes[kRoutes];
  for (std::size_t r = 0; r < kRoutes; ++r) {
    routes[r] = plane.add_route("P" + std::to_string(r), "out", ring, "beta");
  }
  for (std::uint64_t i = 0; i < kPerRoute; ++i) {
    for (std::size_t r = 0; r < kRoutes; ++r) {
      ASSERT_EQ(plane.offer(routes[r], make_message(i)),
                DataPlane::Offer::Queued);
    }
  }

  // The reader drains the ring while the flush fills it, checking that
  // every route's sequence arrives whole and in order.
  std::uint64_t next[kRoutes] = {};
  bool in_order = true;
  std::thread drainer([&] {
    std::uint64_t received = 0;
    comm::Frame frame;
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (received < kRoutes * kPerRoute &&
           std::chrono::steady_clock::now() < give_up) {
      if (!reader->receive(frame, rtsj::RelativeTime::milliseconds(10))) {
        continue;
      }
      BatchView view(frame.payload);
      BatchView::Route route;
      comm::Message message;
      while (view.next_route(route)) {
        const std::size_t r = static_cast<std::size_t>(route.client[1] - '0');
        for (std::uint32_t i = 0; i < route.messages; ++i) {
          view.next_message(message);
          in_order = in_order && message.sequence == next[r];
          ++next[r];
          ++received;
        }
      }
    }
  });
  const std::size_t sent = plane.flush(true);
  drainer.join();

  EXPECT_EQ(sent, kRoutes * kPerRoute);
  EXPECT_TRUE(in_order);
  for (std::size_t r = 0; r < kRoutes; ++r) {
    EXPECT_EQ(next[r], kPerRoute) << "route " << r;
  }
  const auto stats = plane.stats();
  EXPECT_EQ(stats.send_failures, 0u);
  EXPECT_EQ(stats.sent, kRoutes * kPerRoute);
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_GT(stats.batches, 1u) << "the backlog needs several frames";
}

TEST(DataPlaneTest, CreditExhaustionBackpressuresUntilReplenished) {
  DataPlaneConfig config;
  config.batch_max = 1;  // flush every offer while credit remains
  config.flush_interval = rtsj::RelativeTime::zero();
  config.credit_window = 2;
  config.route_queue_cap = 16;
  DataPlane plane(config);
  auto [near, far] = comm::LoopbackChannel::make_pair();
  const std::size_t route = plane.add_route("Producer", "out", near, "beta");

  EXPECT_EQ(plane.offer(route, make_message(0)), DataPlane::Offer::Sent);
  EXPECT_EQ(plane.offer(route, make_message(1)), DataPlane::Offer::Sent);
  // Window exhausted: the route queues instead of writing the channel.
  EXPECT_EQ(plane.offer(route, make_message(2)), DataPlane::Offer::Queued);
  EXPECT_EQ(plane.flush(false), 0u) << "no credit, no wire";
  EXPECT_EQ(drain(*far).size(), 2u);
  EXPECT_EQ(plane.stats().queued, 1u);

  // The entry side grants; the queued message drains on the next flush.
  plane.on_credit({"Producer", "out", 2});
  EXPECT_EQ(plane.flush(false), 1u);
  const auto frames = drain(*far);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(parse_batch(frames[0]).routes[0].messages[0].sequence, 2u);
  EXPECT_EQ(plane.stats().queued, 0u);
}

TEST(DataPlaneTest, FullRouteQueueDropsNewest) {
  DataPlaneConfig config;
  config.batch_max = 100;
  config.flush_interval = rtsj::RelativeTime::zero();
  config.credit_window = 0;  // sending disabled: everything queues
  config.route_queue_cap = 3;
  DataPlane plane(config);
  auto [near, far] = comm::LoopbackChannel::make_pair();
  const std::size_t route = plane.add_route("Producer", "out", near, "beta");

  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(plane.offer(route, make_message(i)), DataPlane::Offer::Queued);
  }
  EXPECT_EQ(plane.offer(route, make_message(3)), DataPlane::Offer::Dropped);
  const auto stats = plane.stats();
  EXPECT_EQ(stats.overflow_drops, 1u);
  EXPECT_EQ(stats.queued, 3u);
  EXPECT_EQ(stats.offered, 4u);

  // The three accepted survivors drain once credit exists; the dropped
  // message never reappears (drop-newest, docs/DATAPLANE.md §4).
  plane.on_credit({"Producer", "out", 10});
  EXPECT_EQ(plane.flush(false), 3u);
  const auto frames = drain(*far);
  ASSERT_EQ(frames.size(), 1u);
  const BatchPayload batch = parse_batch(frames[0]);
  ASSERT_EQ(batch.routes[0].messages.size(), 3u);
  EXPECT_EQ(batch.routes[0].messages.back().sequence, 2u);
}

TEST(DataPlaneTest, MismatchedHelloClosesThePeersRoutesUntilACurrentOne) {
  DataPlaneConfig config;
  config.batch_max = 100;
  DataPlane plane(config);
  auto [near, far] = comm::LoopbackChannel::make_pair();
  const std::size_t route = plane.add_route("Producer", "out", near, "beta");
  EXPECT_EQ(plane.offer(route, make_message(0)), DataPlane::Offer::Queued)
      << "an unannounced peer is assumed current";

  plane.set_peer_version("beta", 5);
  EXPECT_EQ(plane.stats().version_mismatches, 1u);
  EXPECT_EQ(plane.offer(route, make_message(1)), DataPlane::Offer::Dropped);
  EXPECT_EQ(plane.flush(true), 0u) << "nothing goes to a rejected peer";
  // A route-table refresh must not re-open the rejected peer's routes.
  plane.clear_routes();
  EXPECT_EQ(plane.add_route("Producer", "out", near, "beta"), route);
  EXPECT_EQ(plane.offer(route, make_message(2)), DataPlane::Offer::Dropped);

  // A current HELLO re-opens them; the message queued before the
  // rejection was held, not lost.
  plane.set_peer_version("beta", kProtocolVersion);
  EXPECT_EQ(plane.offer(route, make_message(3)), DataPlane::Offer::Queued);
  EXPECT_EQ(plane.flush(true), 2u);
  const auto frames = drain(*far);
  ASSERT_EQ(frames.size(), 1u);
  const BatchPayload batch = parse_batch(frames[0]);
  ASSERT_EQ(batch.routes[0].messages.size(), 2u);
  EXPECT_EQ(batch.routes[0].messages[0].sequence, 0u);
  EXPECT_EQ(batch.routes[0].messages[1].sequence, 3u);
  EXPECT_EQ(plane.stats().version_mismatches, 1u);
}

TEST(DataPlaneTest, QueuedMessagesSurviveARouteRefresh) {
  DataPlaneConfig config;
  config.batch_max = 100;
  config.flush_interval = rtsj::RelativeTime::zero();
  config.credit_window = 0;
  config.route_queue_cap = 16;
  DataPlane plane(config);
  auto [near, far] = comm::LoopbackChannel::make_pair();
  const std::size_t route = plane.add_route("Producer", "out", near, "beta");
  EXPECT_EQ(plane.offer(route, make_message(0)), DataPlane::Offer::Queued);
  EXPECT_EQ(plane.offer(route, make_message(1)), DataPlane::Offer::Queued);

  // A commit refreshes the route table: deactivate, then re-add the same
  // (client, port) over a new channel. Nothing in flight may be lost.
  plane.clear_routes();
  EXPECT_EQ(plane.offer(route, make_message(9)), DataPlane::Offer::Dropped)
      << "inactive routes accept nothing";
  auto [near2, far2] = comm::LoopbackChannel::make_pair();
  const std::size_t again =
      plane.add_route("Producer", "out", near2, "beta");
  EXPECT_EQ(again, route) << "the (client, port) key is the identity";

  plane.on_credit({"Producer", "out", 8});
  EXPECT_EQ(plane.flush(false), 2u);
  EXPECT_TRUE(drain(*far).empty()) << "the old channel sees nothing";
  const auto frames = drain(*far2);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(parse_batch(frames[0]).routes[0].messages.size(), 2u);
}

TEST(DataPlaneTest, EntrySideGrantsOnConsumeThreshold) {
  DataPlaneConfig config;
  config.credit_window = 8;  // grant threshold max(1, 8/2) = 4
  DataPlane plane(config);
  auto [reverse, far] = comm::LoopbackChannel::make_pair();
  const std::size_t entry =
      plane.add_entry_route("Producer", "out", reverse, "alpha");

  plane.note_injected(entry, 3);
  EXPECT_TRUE(drain(*far).empty()) << "below the replenish threshold";
  plane.note_injected(entry, 1);
  auto frames = drain(*far);
  ASSERT_EQ(frames.size(), 1u);
  const CreditPayload grant = parse_credit(frames[0]);
  EXPECT_EQ(grant.client, "Producer");
  EXPECT_EQ(grant.port, "out");
  EXPECT_EQ(grant.credits, 4u);
  EXPECT_EQ(plane.stats().credits_granted, 4u);

  // grant_all flushes sub-threshold remainders (the stop() drain).
  plane.note_injected(entry, 1);
  EXPECT_EQ(plane.grant_all(), 1u);
  frames = drain(*far);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(parse_credit(frames[0]).credits, 1u);
}

// ---- end to end across two NodeRuntimes -----------------------------------

class DpProducerImpl final : public comm::Content {
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

class DpSinkImpl final : public comm::Content {
 public:
  void on_message(const comm::Message&) override { ++received_; }
  std::uint64_t received() const noexcept { return received_; }

 private:
  std::uint64_t received_ = 0;
};

RTCF_REGISTER_CONTENT(DpProducerImpl)
RTCF_REGISTER_CONTENT(DpSinkImpl)

/// Producer@alpha --async--> Sink@beta, producing every millisecond.
Architecture bridge_arch() {
  Architecture arch;
  auto& producer = arch.add_active("Producer", ActivationKind::Periodic,
                                   rtsj::RelativeTime::milliseconds(1));
  producer.set_content_class("DpProducerImpl");
  producer.set_cost(rtsj::RelativeTime::microseconds(20));
  producer.set_swappable(true);
  producer.add_interface({"out", InterfaceRole::Client, "ISink"});
  auto& sink = arch.add_active("Sink", ActivationKind::Sporadic);
  sink.set_content_class("DpSinkImpl");
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
  model::ModeDecl normal;
  normal.name = "Normal";
  normal.components.push_back({"Producer", rtsj::RelativeTime::zero(), {}});
  normal.components.push_back({"Sink", rtsj::RelativeTime::zero(), {}});
  arch.add_mode(std::move(normal));
  model::ModeDecl degraded;
  degraded.name = "Degraded";
  degraded.degraded = true;
  degraded.components.push_back(
      {"Producer", rtsj::RelativeTime::milliseconds(50), {}});
  arch.add_mode(std::move(degraded));
  return arch;
}

NodeMap bridge_map() {
  NodeMap map;
  map.nodes = {"alpha", "beta"};
  map.assignment = {{"Producer", "alpha"}, {"Sink", "beta"}};
  return map;
}

TEST(DataPlaneEndToEndTest, TwoNodesBridgeBatchedTrafficWithoutLoss) {
  const Architecture global = bridge_arch();
  const NodeMap map = bridge_map();
  NodeRuntime::Options options;
  options.run_duration = rtsj::RelativeTime::milliseconds(300);
  NodeRuntime alpha(global, map, "alpha", options);
  NodeRuntime beta(global, map, "beta", options);
  auto [ab, ba] = comm::LoopbackChannel::make_pair();
  alpha.connect_peer("beta", ab);
  beta.connect_peer("alpha", ba);

  alpha.start();
  beta.start();
  alpha.join_executive();
  beta.join_executive();
  alpha.stop();
  beta.stop();

  const auto* producer = dynamic_cast<const DpProducerImpl*>(
      alpha.application().content("Producer"));
  const auto* sink =
      dynamic_cast<const DpSinkImpl*>(beta.application().content("Sink"));
  ASSERT_NE(producer, nullptr);
  ASSERT_NE(sink, nullptr);
  EXPECT_GT(producer->sent(), 0u);
  EXPECT_EQ(producer->sent(), sink->received()) << "zero-loss conservation";
  EXPECT_EQ(alpha.gateway_stats().forwarded, producer->sent());
  EXPECT_EQ(beta.gateway_stats().injected, sink->received());

  // Every message rode a BATCH frame, from the first one on: routes
  // toward a peer that has not announced its version yet batch too.
  const auto stats = alpha.data_plane().stats();
  EXPECT_GT(stats.batches, 0u);
  EXPECT_EQ(stats.sent, producer->sent());
  EXPECT_EQ(stats.queued, 0u) << "stop() drains every route";
  EXPECT_EQ(stats.version_mismatches, 0u);

  // One source: the plane's counters are the monitor's counters.
  const auto monitored =
      alpha.application().monitor().data_plane().snapshot();
  EXPECT_EQ(std::memcmp(&stats, &monitored, sizeof stats), 0)
      << "data_plane().stats() must equal the monitor snapshot";
}

TEST(DataPlaneEndToEndTest, ReceivePathCountsMalformedFramesAndRejectsVersions) {
  const Architecture global = bridge_arch();
  const NodeMap map = bridge_map();
  NodeRuntime::Options options;
  options.run_duration = rtsj::RelativeTime::milliseconds(300);
  // With a shared namespace a current HELLO carrying this token would
  // make alpha (the smaller name) create a shm ring toward beta.
  options.shm_namespace = "rtcf-dp-reject-" + std::to_string(::getpid());
  const std::string token = "/" + options.shm_namespace + ".alpha.beta";
  NodeRuntime alpha(global, map, "alpha", options);
  // The far end of the peer channel is the test, playing beta.
  auto [ab, ba] = comm::LoopbackChannel::make_pair();
  alpha.connect_peer("beta", ab);

  BatchPayload payload;
  payload.routes.push_back({"Producer", "out", {make_message(1)}});
  comm::Frame torn = make_batch(payload);
  torn.payload.pop_back();
  ASSERT_TRUE(ba->send(torn));
  WireWriter w;  // a HELLO from a peer speaking version 5
  w.str("beta");
  w.u16(kCodecVersion);
  w.u16(5);
  w.str(token);
  w.u64(0);
  comm::Frame hello;
  hello.type = static_cast<std::uint16_t>(FrameType::Hello);
  hello.payload = w.take();
  ASSERT_TRUE(ba->send(hello));

  alpha.start();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (alpha.data_plane().stats().version_mismatches == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // From the rejection on, nothing more reaches the wire.
  const auto at_rejection = alpha.data_plane().stats();
  alpha.join_executive();
  alpha.stop();

  const auto counters = alpha.application().monitor().data_plane().snapshot();
  EXPECT_EQ(counters.malformed_frames, 1u);
  EXPECT_EQ(counters.version_mismatches, 1u);
  EXPECT_FALSE(alpha.shm_linked("beta"));
  EXPECT_GT(counters.offered, at_rejection.offered) << "the producer ran on";
  EXPECT_EQ(counters.sent, at_rejection.sent);
  const auto gateway = alpha.gateway_stats();
  EXPECT_GE(gateway.exit_dropped, counters.offered - at_rejection.offered)
      << "offers toward the rejected peer are dropped";
}

// ---- the virtual-time mirror ----------------------------------------------

TEST(DataPlaneSimTest, BatchedMirrorReplaysBitForBitAndConservesMessages) {
  const Architecture global = bridge_arch();
  const NodeMap map = bridge_map();

  const auto run_once = [&] {
    sim::PreemptiveScheduler sched(map.nodes.size());
    sched.enable_trace();
    SimDataPlane data_plane;
    data_plane.batch_max = 4;
    data_plane.flush_interval = rtsj::RelativeTime::microseconds(300);
    data_plane.credit_window = 8;
    data_plane.credit_rtt = rtsj::RelativeTime::microseconds(200);
    data_plane.route_queue_cap = 32;
    data_plane.stats = std::make_shared<std::vector<RouteSimStats>>();
    map_cluster(global, map, sched, rtsj::RelativeTime::microseconds(50),
                nullptr, data_plane);
    sched.run_until(rtsj::AbsoluteTime::epoch() +
                    rtsj::RelativeTime::milliseconds(100));
    std::vector<std::string> rendered;
    for (const auto& ev : sched.trace()) {
      rendered.push_back(ev.to_string(sched));
    }
    return std::make_pair(rendered, *data_plane.stats);
  };

  const auto first = run_once();
  const auto second = run_once();
  EXPECT_EQ(first.first, second.first) << "batched replay must be exact";
  EXPECT_FALSE(first.first.empty());

  ASSERT_EQ(first.second.size(), 1u) << "one bridged route";
  const RouteSimStats& s = first.second[0];
  EXPECT_GT(s.offered, 0u);
  EXPECT_GT(s.batches, 0u);
  EXPECT_EQ(s.offered,
            s.delivered + s.chaos_dropped + s.overflow_dropped + s.queued)
      << "DATA-CONSERVATION";
  EXPECT_EQ(second.second[0].offered, s.offered)
      << "stats replay with the trace";
}

}  // namespace
}  // namespace rtcf::dist
