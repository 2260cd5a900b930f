// The zero-copy data plane (`ctest -L zerocopy`): golden byte-for-byte
// equality between the span encoders and the contiguous codecs, the
// in-place BatchView decoder against parse_batch (including every-prefix
// truncation), the shm ring's reserve/commit protocol (in-ring and
// wrapped-scratch reservations), TcpChannel scatter-gather framing, the
// loopback move-send, and the comm::BufferPool recycling contract
// (docs/DATAPLANE.md "Zero-copy path" is the spec under test).
//
// The one invariant everything here defends: the zero-copy paths change
// HOW bytes reach the transport, never WHICH bytes — docs/PROTOCOL.md
// framing stays byte-identical, so a peer cannot tell the paths apart.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

#include "comm/buffer_pool.hpp"
#include "comm/channel.hpp"
#include "comm/shm_ring.hpp"
#include "dist/batch_view.hpp"
#include "dist/dataplane.hpp"
#include "dist/protocol.hpp"
#include "dist/wire.hpp"

namespace rtcf::dist {
namespace {

comm::Message make_message(std::uint64_t sequence) {
  comm::Message m;
  m.type_id = 3;
  m.size = 8;
  m.sequence = sequence;
  m.timestamp_ns = static_cast<std::int64_t>(1000 + sequence);
  m.store<std::uint64_t>(sequence * 7);
  return m;
}

std::string shm_name(const char* tag) {
  return std::string("/rtcf-zc-") + tag + "." + std::to_string(::getpid());
}

// ---- SpanWriter ------------------------------------------------------------

TEST(SpanWriterTest, EmitsExactlyWhatWireWriterEmits) {
  WireWriter grow;
  grow.u8(0xAB);
  grow.u16(0xBEEF);
  grow.u32(0xDEADBEEF);
  grow.u64(0x0123456789ABCDEFull);
  grow.i64(-42);
  grow.f64(3.25);
  grow.str("client");
  const std::vector<std::uint8_t> blob = {1, 2, 3, 4, 5};
  grow.bytes(blob);
  const std::size_t outer = grow.begin_block();
  grow.u32(7);
  const std::size_t inner = grow.begin_block();
  grow.str("nested");
  grow.end_block(inner);
  grow.end_block(outer);
  grow.raw(blob.data(), blob.size());
  const std::vector<std::uint8_t>& expected = grow.data();

  std::vector<std::uint8_t> buffer(expected.size());
  SpanWriter fixed(WireSpan{buffer.data(), buffer.size()});
  fixed.u8(0xAB);
  fixed.u16(0xBEEF);
  fixed.u32(0xDEADBEEF);
  fixed.u64(0x0123456789ABCDEFull);
  fixed.i64(-42);
  fixed.f64(3.25);
  fixed.str("client");
  fixed.bytes(blob.data(), blob.size());
  const std::size_t souter = fixed.begin_block();
  fixed.u32(7);
  const std::size_t sinner = fixed.begin_block();
  fixed.str("nested");
  fixed.end_block(sinner);
  fixed.end_block(souter);
  fixed.raw(blob.data(), blob.size());

  ASSERT_EQ(fixed.used(), expected.size());
  EXPECT_EQ(fixed.remaining(), 0u);
  EXPECT_EQ(std::memcmp(buffer.data(), expected.data(), expected.size()), 0);
}

TEST(SpanWriterTest, OverflowThrowsInsteadOfGrowing) {
  std::uint8_t small[4];
  SpanWriter w(WireSpan{small, sizeof(small)});
  w.u32(1);  // fills the span exactly
  EXPECT_THROW(w.u8(0), WireError);
  EXPECT_THROW(w.u64(0), WireError);
  EXPECT_THROW(w.str("too long"), WireError);
  EXPECT_EQ(w.used(), 4u);  // a refused write leaves the span untouched
}

// ---- span encoders vs contiguous codecs ------------------------------------

TEST(BatchSpanEncoderTest, GoldenAgainstMakeBatch) {
  BatchPayload payload;
  payload.routes.push_back({"Producer", "out",
                            {make_message(1), make_message(2),
                             make_message(3)}});
  payload.routes.push_back({"Watchdog", "tick", {make_message(9)}});
  const comm::Frame golden = make_batch(payload);

  std::size_t size = kBatchHeaderBytes;
  for (const BatchRoute& r : payload.routes) {
    size += batch_route_wire_bytes(r.client, r.port, r.messages.size());
  }
  ASSERT_EQ(size, golden.payload.size())
      << "batch_route_wire_bytes must predict make_batch exactly";

  std::vector<std::uint8_t> buffer(size);
  BatchSpanEncoder enc(WireSpan{buffer.data(), buffer.size()},
                       static_cast<std::uint32_t>(payload.routes.size()));
  for (const BatchRoute& r : payload.routes) {
    enc.begin_route(r.client, r.port,
                    static_cast<std::uint32_t>(r.messages.size()));
    for (const comm::Message& m : r.messages) enc.add_message(m);
    enc.end_route();
  }
  ASSERT_EQ(enc.used(), golden.payload.size());
  EXPECT_EQ(std::memcmp(buffer.data(), golden.payload.data(),
                        golden.payload.size()),
            0);
}

TEST(SpanEncoderTest, CreditGoldenAgainstContiguousCodec) {
  const CreditPayload credit{"Producer", "out", 128};
  const comm::Frame golden_credit = make_credit(credit);
  std::vector<std::uint8_t> cbuf(
      credit_payload_wire_bytes(credit.client, credit.port));
  SpanWriter cw(WireSpan{cbuf.data(), cbuf.size()});
  encode_credit_payload(cw, credit.client, credit.port, credit.credits);
  ASSERT_EQ(cw.used(), golden_credit.payload.size());
  EXPECT_EQ(std::memcmp(cbuf.data(), golden_credit.payload.data(),
                        golden_credit.payload.size()),
            0);
}

// ---- BatchView -------------------------------------------------------------

TEST(BatchViewTest, DecodesExactlyWhatParseBatchDecodes) {
  BatchPayload payload;
  payload.routes.push_back({"Producer", "out",
                            {make_message(1), make_message(2)}});
  payload.routes.push_back({"Watchdog", "tick", {make_message(9)}});
  const comm::Frame frame = make_batch(payload);
  const BatchPayload expected = parse_batch(frame);

  BatchView view(frame.payload);
  EXPECT_EQ(view.route_count(), expected.routes.size());
  EXPECT_EQ(batch_message_count(frame.payload.data(), frame.payload.size()),
            3u);
  BatchView::Route route;
  comm::Message m;
  for (const BatchRoute& r : expected.routes) {
    ASSERT_TRUE(view.next_route(route));
    EXPECT_EQ(route.client, r.client);
    EXPECT_EQ(route.port, r.port);
    ASSERT_EQ(route.messages, r.messages.size());
    for (const comm::Message& want : r.messages) {
      view.next_message(m);
      EXPECT_EQ(m.type_id, want.type_id);
      EXPECT_EQ(m.size, want.size);
      EXPECT_EQ(m.sequence, want.sequence);
      EXPECT_EQ(m.timestamp_ns, want.timestamp_ns);
      EXPECT_EQ(std::memcmp(m.payload, want.payload,
                            comm::Message::kPayloadCapacity),
                0);
    }
  }
  EXPECT_FALSE(view.next_route(route));
}

TEST(BatchViewTest, RejectsEveryTruncation) {
  BatchPayload payload;
  payload.routes.push_back({"C", "p", {make_message(1), make_message(2)}});
  const comm::Frame full = make_batch(payload);
  for (std::size_t cut = 0; cut < full.payload.size(); ++cut) {
    // The receive path's one-shot validation must reject the torn frame...
    EXPECT_THROW(batch_message_count(full.payload.data(), cut), WireError)
        << "cut at " << cut;
    // ...and so must a full decode, whichever accessor hits the tear.
    EXPECT_THROW(
        {
          BatchView view(full.payload.data(), cut);
          BatchView::Route route;
          comm::Message m;
          while (view.next_route(route)) {
            for (std::uint32_t i = 0; i < route.messages; ++i) {
              view.next_message(m);
            }
          }
        },
        WireError)
        << "cut at " << cut;
  }
}

// ---- shm ring reserve/commit -----------------------------------------------

TEST(ShmReserveTest, InRingReservationIsByteIdenticalOnReceive) {
  const std::string name = shm_name("inring");
  auto creator = comm::ShmRingChannel::create(name, std::size_t{1} << 16);
  ASSERT_NE(creator, nullptr) << "no /dev/shm on this host?";
  auto attacher = comm::ShmRingChannel::attach(name);
  ASSERT_NE(attacher, nullptr);

  std::vector<std::uint8_t> pattern(300);
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<std::uint8_t>(i * 13);
  }
  comm::FrameReservation res;
  ASSERT_TRUE(creator->reserve_frame(42, pattern.size(), res));
  EXPECT_TRUE(res.in_place) << "a fresh ring must hand out ring memory";
  ASSERT_GE(res.size, pattern.size());
  std::memcpy(res.data, pattern.data(), pattern.size());
  ASSERT_TRUE(creator->commit_frame(pattern.size()));

  comm::Frame received;
  ASSERT_TRUE(
      attacher->receive(received, rtsj::RelativeTime::milliseconds(200)));
  EXPECT_EQ(received.type, 42u);
  EXPECT_EQ(received.payload, pattern);
}

TEST(ShmReserveTest, WrappedReservationFallsBackToScratchIdentically) {
  const std::string name = shm_name("wrap");
  auto creator = comm::ShmRingChannel::create(name, 256);
  ASSERT_NE(creator, nullptr) << "no /dev/shm on this host?";
  auto attacher = comm::ShmRingChannel::attach(name);
  ASSERT_NE(attacher, nullptr);

  // Advance the ring so the next payload would cross the capacity edge.
  comm::Frame first;
  first.type = 1;
  first.payload.assign(100, std::uint8_t{0x5A});
  ASSERT_TRUE(creator->send(first));
  comm::Frame drained;
  ASSERT_TRUE(
      attacher->receive(drained, rtsj::RelativeTime::milliseconds(200)));

  std::vector<std::uint8_t> pattern(160);
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<std::uint8_t>(255 - i);
  }
  comm::FrameReservation res;
  ASSERT_TRUE(creator->reserve_frame(43, pattern.size(), res));
  EXPECT_FALSE(res.in_place)
      << "a reservation crossing the ring edge must bounce through scratch";
  std::memcpy(res.data, pattern.data(), pattern.size());
  ASSERT_TRUE(creator->commit_frame(pattern.size()));

  comm::Frame received;
  ASSERT_TRUE(
      attacher->receive(received, rtsj::RelativeTime::milliseconds(200)));
  EXPECT_EQ(received.type, 43u);
  EXPECT_EQ(received.payload, pattern);
}

TEST(ShmReserveTest, AbortLeavesTheRingPublishableAndClean) {
  const std::string name = shm_name("abort");
  auto creator = comm::ShmRingChannel::create(name, std::size_t{1} << 16);
  ASSERT_NE(creator, nullptr) << "no /dev/shm on this host?";
  auto attacher = comm::ShmRingChannel::attach(name);
  ASSERT_NE(attacher, nullptr);

  comm::FrameReservation res;
  ASSERT_TRUE(creator->reserve_frame(7, 64, res));
  std::memset(res.data, 0xFF, 64);  // scribble, then change our mind
  creator->abort_frame();

  comm::Frame frame;
  frame.type = 8;
  frame.payload = {9, 9, 9};
  ASSERT_TRUE(creator->send(frame));
  comm::Frame received;
  ASSERT_TRUE(
      attacher->receive(received, rtsj::RelativeTime::milliseconds(200)));
  EXPECT_EQ(received.type, 8u);
  EXPECT_EQ(received.payload, frame.payload);
  // Nothing else: the aborted reservation must not have published bytes.
  EXPECT_FALSE(received.payload.empty());
  EXPECT_FALSE(attacher->receive(received, rtsj::RelativeTime::zero()));
}

// ---- DataPlane over the zero-copy paths ------------------------------------

TEST(DataPlaneZeroCopyTest, ShmFlushEncodesInRingAndStaysGolden) {
  const std::string name = shm_name("plane");
  std::shared_ptr<comm::ShmRingChannel> creator =
      comm::ShmRingChannel::create(name, std::size_t{1} << 16);
  ASSERT_NE(creator, nullptr) << "no /dev/shm on this host?";
  std::shared_ptr<comm::ShmRingChannel> attacher =
      comm::ShmRingChannel::attach(name);
  ASSERT_NE(attacher, nullptr);

  DataPlaneConfig config;
  config.batch_max = 4;
  config.credit_window = 64;
  DataPlane plane(config);
  plane.set_peer_version("peer", kProtocolVersion);
  const std::size_t route = plane.add_route("C", "out", creator, "peer");

  BatchPayload expected;
  expected.routes.push_back({"C", "out", {}});
  for (std::uint64_t i = 0; i < config.batch_max; ++i) {
    expected.routes[0].messages.push_back(make_message(i));
    plane.offer(route, expected.routes[0].messages.back());
  }

  comm::Frame received;
  ASSERT_TRUE(
      attacher->receive(received, rtsj::RelativeTime::milliseconds(200)));
  const comm::Frame golden = make_batch(expected);
  EXPECT_EQ(received.type, golden.type);
  EXPECT_EQ(received.payload, golden.payload)
      << "the in-ring BATCH must be byte-identical to the contiguous codec";

  const auto stats = plane.stats();
  EXPECT_EQ(stats.sent, config.batch_max);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_GE(stats.ring_frames, 1u);
  EXPECT_EQ(stats.bytes_copied, 0u)
      << "an unwrapped ring flush must not stage payload in user space";
  EXPECT_EQ(stats.pool_misses, 0u)
      << "the reservation path must not touch the pool at all";
}

TEST(DataPlaneZeroCopyTest, PooledFallbackIsGoldenAndRecycles) {
  auto [near, far] = comm::LoopbackChannel::make_pair();
  DataPlaneConfig config;
  config.batch_max = 4;
  config.credit_window = 64;
  DataPlane plane(config);
  plane.set_peer_version("peer", kProtocolVersion);
  const std::size_t route = plane.add_route("C", "out", near, "peer");

  // Two size flushes: the first warms the pool (one miss), the second
  // must run entirely on the recycled buffer (a hit, no new miss).
  for (int flush = 0; flush < 2; ++flush) {
    BatchPayload expected;
    expected.routes.push_back({"C", "out", {}});
    for (std::uint64_t i = 0; i < config.batch_max; ++i) {
      expected.routes[0].messages.push_back(
          make_message(flush * 100 + i));
      plane.offer(route, expected.routes[0].messages.back());
    }
    comm::Frame received;
    ASSERT_TRUE(
        far->receive(received, rtsj::RelativeTime::milliseconds(200)));
    const comm::Frame golden = make_batch(expected);
    EXPECT_EQ(received.type, golden.type);
    EXPECT_EQ(received.payload, golden.payload);
  }

  const auto stats = plane.stats();
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.ring_frames, 0u);  // the loopback cannot reserve
  EXPECT_GT(stats.bytes_copied, 0u);
  EXPECT_EQ(stats.pool_misses, 1u)
      << "steady-state flushing must recycle, not allocate";
  EXPECT_GE(stats.pool_hits, 1u);
}

// ---- TcpChannel scatter-gather ---------------------------------------------

TEST(TcpSendSpansTest, ScatterGatherFramesExactlyLikeSend) {
  std::shared_ptr<comm::TcpChannel> server = comm::TcpChannel::listen(0);
  ASSERT_NE(server, nullptr);
  std::shared_ptr<comm::TcpChannel> client =
      comm::TcpChannel::connect("127.0.0.1", server->bound_port());
  ASSERT_NE(client, nullptr);

  std::vector<std::uint8_t> payload(1000);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i ^ (i >> 3));
  }
  const comm::ByteSpan spans[3] = {
      {payload.data(), 10},
      {payload.data() + 10, 0},  // empty spans must be harmless
      {payload.data() + 10, payload.size() - 10}};
  ASSERT_TRUE(client->send_spans(55, spans, 3));

  comm::Frame contiguous;
  contiguous.type = 55;
  contiguous.payload = payload;
  ASSERT_TRUE(client->send(contiguous));

  comm::Frame a;
  comm::Frame b;
  ASSERT_TRUE(server->receive(a, rtsj::RelativeTime::milliseconds(2000)));
  ASSERT_TRUE(server->receive(b, rtsj::RelativeTime::milliseconds(2000)));
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.payload, b.payload)
      << "send_spans must be indistinguishable from send on the wire";

  client->close();
  server->close();
}

// ---- loopback move-send ----------------------------------------------------

TEST(LoopbackMoveSendTest, StealsThePayloadInsteadOfCopying) {
  auto [near, far] = comm::LoopbackChannel::make_pair();
  comm::Frame frame;
  frame.type = 21;
  frame.payload.assign(512, std::uint8_t{0xCD});
  const std::uint8_t* before = frame.payload.data();
  ASSERT_TRUE(near->send(std::move(frame)));

  comm::Frame received;
  ASSERT_TRUE(far->receive(received, rtsj::RelativeTime::milliseconds(200)));
  EXPECT_EQ(received.type, 21u);
  EXPECT_EQ(received.payload.data(), before)
      << "the payload allocation must travel through the queue untouched";
  EXPECT_EQ(received.payload.size(), 512u);
}

// ---- BufferPool ------------------------------------------------------------

TEST(BufferPoolTest, RecyclesWithinSlabClasses) {
  comm::BufferPool pool;
  std::vector<std::uint8_t> a = pool.acquire(100);
  EXPECT_EQ(a.size(), 100u);
  EXPECT_EQ(a.capacity(), comm::BufferPool::kClassSizes[0]);
  pool.release(std::move(a));

  // Any request in the same class must reuse the parked buffer.
  std::vector<std::uint8_t> b = pool.acquire(200);
  EXPECT_EQ(b.size(), 200u);
  EXPECT_EQ(b.capacity(), comm::BufferPool::kClassSizes[0]);
  const comm::BufferPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.outstanding, 1u);
  EXPECT_EQ(stats.high_water, 1u);
}

TEST(BufferPoolTest, OversizeIsExactAndCountedNotPooledBelowClassZero) {
  comm::BufferPool pool;
  constexpr std::size_t kLargest =
      comm::BufferPool::kClassSizes[comm::BufferPool::kClassCount - 1];
  std::vector<std::uint8_t> big = pool.acquire(kLargest + 1);
  EXPECT_EQ(big.size(), kLargest + 1);
  EXPECT_EQ(pool.stats().oversize, 1u);
  pool.release(std::move(big));  // still covers the largest class: parked

  // A buffer too small for every class cannot be recycled usefully.
  pool.release(std::vector<std::uint8_t>());
  const comm::BufferPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.discarded, 1u);
}

TEST(BufferPoolTest, FreelistsAreBounded) {
  comm::BufferPool pool(2);
  std::vector<std::vector<std::uint8_t>> held;
  for (int i = 0; i < 3; ++i) held.push_back(pool.acquire(64));
  for (auto& buffer : held) pool.release(std::move(buffer));
  const comm::BufferPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.discarded, 1u) << "the third release must not park";
  EXPECT_EQ(stats.outstanding, 0u);
  EXPECT_EQ(stats.high_water, 3u);
}

TEST(BufferPoolTest, SteadyStateStopsAllocating) {
  comm::BufferPool pool;
  const std::size_t sizes[] = {64, 1000, 30000};  // three distinct classes
  // Warm one buffer per class.
  for (const std::size_t size : sizes) pool.release(pool.acquire(size));
  const std::uint64_t warm_misses = pool.stats().misses;
  for (int round = 0; round < 1000; ++round) {
    for (const std::size_t size : sizes) pool.release(pool.acquire(size));
  }
  const comm::BufferPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.misses, warm_misses)
      << "recycled traffic must never reach the allocator";
  EXPECT_EQ(stats.hits, 3000u);
  EXPECT_EQ(stats.outstanding, 0u);
}

}  // namespace
}  // namespace rtcf::dist
