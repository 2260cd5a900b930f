// Control channels: loopback pair semantics and the TCP transport's
// length-prefixed framing (`ctest -L dist`).
#include <gtest/gtest.h>

#include <time.h>

#include <cstdint>
#include <thread>

#include "comm/channel.hpp"

namespace rtcf::comm {
namespace {

Frame make_frame(std::uint16_t type, std::initializer_list<std::uint8_t> b) {
  Frame frame;
  frame.type = type;
  frame.payload.assign(b);
  return frame;
}

/// Microseconds on `clock` (CLOCK_THREAD_CPUTIME_ID: this thread's CPU).
std::int64_t now_us(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return std::int64_t{ts.tv_sec} * 1000000 + ts.tv_nsec / 1000;
}

TEST(LoopbackChannelTest, FramesCrossInOrderBothDirections) {
  auto [a, b] = LoopbackChannel::make_pair();
  ASSERT_TRUE(a->send(make_frame(1, {0x11})));
  ASSERT_TRUE(a->send(make_frame(2, {0x22, 0x23})));
  ASSERT_TRUE(b->send(make_frame(3, {})));

  Frame frame;
  ASSERT_TRUE(b->receive(frame, rtsj::RelativeTime::zero()));
  EXPECT_EQ(frame.type, 1);
  ASSERT_TRUE(b->receive(frame, rtsj::RelativeTime::zero()));
  EXPECT_EQ(frame.type, 2);
  EXPECT_EQ(frame.payload.size(), 2u);
  EXPECT_FALSE(b->receive(frame, rtsj::RelativeTime::zero()));

  ASSERT_TRUE(a->receive(frame, rtsj::RelativeTime::zero()));
  EXPECT_EQ(frame.type, 3);
}

TEST(LoopbackChannelTest, ReceiveTimesOutAndCloseUnblocks) {
  auto [a, b] = LoopbackChannel::make_pair();
  Frame frame;
  EXPECT_FALSE(b->receive(frame, rtsj::RelativeTime::milliseconds(5)));

  std::thread closer([&a] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    a->close();
  });
  // A blocked receive wakes on close and reports failure.
  EXPECT_FALSE(b->receive(frame, rtsj::RelativeTime::milliseconds(500)));
  closer.join();
  EXPECT_FALSE(b->open());
  EXPECT_FALSE(a->send(make_frame(1, {})));
}

TEST(LoopbackChannelTest, QueuedFramesSurviveClose) {
  auto [a, b] = LoopbackChannel::make_pair();
  ASSERT_TRUE(a->send(make_frame(7, {0x01})));
  a->close();
  Frame frame;
  // In-flight frames are still delivered after close (drain semantics).
  EXPECT_TRUE(b->receive(frame, rtsj::RelativeTime::zero()));
  EXPECT_EQ(frame.type, 7);
  EXPECT_FALSE(b->receive(frame, rtsj::RelativeTime::zero()));
}

TEST(TcpChannelTest, ListeningReceiveHonorsItsTimeoutWithNoPeer) {
  auto server = TcpChannel::listen(0);
  ASSERT_NE(server, nullptr);
  Frame frame;
  const auto start = std::chrono::steady_clock::now();
  // No peer ever connects: the receive must time out, not block in
  // accept() (a serve loop polls with tiny timeouts and must stay
  // responsive to shutdown).
  EXPECT_FALSE(server->receive(frame, rtsj::RelativeTime::milliseconds(20)));
  EXPECT_FALSE(server->receive(frame, rtsj::RelativeTime::zero()));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            2000);
}

TEST(TcpChannelTest, SubMillisecondWaitsSleepInsteadOfSpinning) {
  auto server = TcpChannel::listen(0);
  ASSERT_NE(server, nullptr);
  auto client = TcpChannel::connect("127.0.0.1", server->bound_port());
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(server->accept_one());

  Frame frame;
  const std::int64_t wall_start = now_us(CLOCK_MONOTONIC);
  const std::int64_t cpu_start = now_us(CLOCK_THREAD_CPUTIME_ID);
  // Nothing is ever sent: each receive waits out its 900 us. A wait
  // truncated to whole milliseconds would poll with a zero timeout and
  // burn the whole interval on the CPU.
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(client->receive(frame, rtsj::RelativeTime::microseconds(900)));
  }
  const std::int64_t cpu_us = now_us(CLOCK_THREAD_CPUTIME_ID) - cpu_start;
  const std::int64_t wall_us = now_us(CLOCK_MONOTONIC) - wall_start;
  EXPECT_GE(wall_us, 50 * 900);
  EXPECT_LT(cpu_us, wall_us / 2) << "thread CPU time against wall time";
}

TEST(TcpChannelTest, FramesCrossTheSocketWithLengthPrefixes) {
  auto server = TcpChannel::listen(0);
  ASSERT_NE(server, nullptr);
  ASSERT_NE(server->bound_port(), 0);

  auto client = TcpChannel::connect("127.0.0.1", server->bound_port());
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(server->accept_one());

  Frame big;
  big.type = 42;
  big.payload.resize(100000);
  for (std::size_t i = 0; i < big.payload.size(); ++i) {
    big.payload[i] = static_cast<std::uint8_t>(i * 31);
  }
  ASSERT_TRUE(client->send(big));
  ASSERT_TRUE(client->send(make_frame(43, {0xAA})));

  Frame frame;
  ASSERT_TRUE(server->receive(frame, rtsj::RelativeTime::milliseconds(2000)));
  EXPECT_EQ(frame.type, 42);
  EXPECT_EQ(frame.payload, big.payload);
  ASSERT_TRUE(server->receive(frame, rtsj::RelativeTime::milliseconds(2000)));
  EXPECT_EQ(frame.type, 43);

  // And the reverse direction.
  ASSERT_TRUE(server->send(make_frame(44, {0x01, 0x02})));
  ASSERT_TRUE(client->receive(frame, rtsj::RelativeTime::milliseconds(2000)));
  EXPECT_EQ(frame.type, 44);

  // A receive with no traffic times out cleanly.
  EXPECT_FALSE(client->receive(frame, rtsj::RelativeTime::milliseconds(10)));

  server->close();
  EXPECT_FALSE(client->receive(frame, rtsj::RelativeTime::milliseconds(200)));
}

}  // namespace
}  // namespace rtcf::comm
