// Saturating throughput of the gateway data plane, per transport, with
// and without coalescing (docs/DATAPLANE.md §6 is the companion runbook).
//
// For each transport (loopback, TCP over localhost, shm ring) the bench
// drives a dist::DataPlane at saturating load — the sender offers as fast
// as the flow-control window allows, and the bench's receiver grants
// CREDIT back as it consumes — in two modes:
//
//   * unbatched: batch_max = 1 and a credit window the run never exhausts,
//     so every offer flushes its own BATCH frame (one channel write — one
//     syscall on TCP — per message): the baseline batching must beat;
//   * batched:   batch_max = 32, so messages coalesce into BATCH frames
//     under the credit window.
//
// Reported per variant: sustained messages/sec and messages per channel
// write. Latency is not reported: at saturation it only measures queueing
// delay (bench_e2e measures latency at stated offered loads). A final
// phase points the batched plane at a stalled receiver that never grants
// credit, proving sender memory stays bounded by the route queue cap
// (drop-newest beyond it).
//
// Three properties are asserted hard, so a regression fails the bench
// run: batched TCP must beat unbatched TCP by >= 3x messages/sec,
// batched TCP at saturation must average >= 8 messages per channel write
// (i.e. the per-message-syscall exit path stays dead), and the batched
// shm path must run allocation-free in steady state (allocs_per_msg == 0
// after a 10% warmup — the zero-copy exit path stays zero-alloc).
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "comm/channel.hpp"
#include "comm/message.hpp"
#include "comm/shm_ring.hpp"
#include "dist/batch_view.hpp"
#include "dist/dataplane.hpp"
#include "dist/protocol.hpp"
#include "fig7_harness.hpp"
#include "rtsj/time/time.hpp"

namespace {

using rtcf::bench::JsonRow;
using rtcf::comm::Frame;
using rtcf::dist::DataPlane;
using rtcf::dist::DataPlaneConfig;
using rtcf::dist::FrameType;
using rtcf::rtsj::AbsoluteTime;
using rtcf::rtsj::RelativeTime;

std::int64_t now_ns() {
  return (rtcf::rtsj::SteadyClock::instance().now() - AbsoluteTime())
      .nanos();
}

struct VariantOutcome {
  double msgs_per_sec = 0.0;
  double msgs_per_frame = 0.0;
  std::uint64_t frames = 0;
  /// Steady-state allocations per message, from the pool/ring counters
  /// after a 10% warmup: pool misses are the only steady-state allocation
  /// source on the send path, so this must read 0.0 once the pool is
  /// warm (and trivially on the in-ring shm path, which skips the pool).
  double allocs_per_msg = 0.0;
  /// Payload bytes staged in user-space buffers per message (same warmup
  /// window). 0 when frames are encoded in the ring.
  double bytes_copied_per_msg = 0.0;
};

/// Drives `count` messages through a fresh DataPlane from `near` to
/// `far`, coalescing up to `batch_max` messages per frame. With
/// batch_max == 1 the window covers the whole run: a closed window would
/// queue a backlog that the next grant flushes as one multi-message frame.
VariantOutcome run_variant(const std::shared_ptr<rtcf::comm::Channel>& near,
                           const std::shared_ptr<rtcf::comm::Channel>& far,
                           std::size_t batch_max, std::size_t count) {
  DataPlaneConfig config;
  config.batch_max = batch_max;
  config.flush_interval = RelativeTime::microseconds(200);
  config.credit_window = batch_max == 1 ? count : 1024;
  config.route_queue_cap = 4096;
  DataPlane plane(config);
  const std::size_t route = plane.add_route("C", "out", near, "peer");

  std::atomic<std::int64_t> end_ns{0};

  std::thread receiver([&] {
    std::uint64_t received = 0;
    std::uint64_t pending_credits = 0;
    Frame frame;
    while (received < count) {
      if (!far->receive(frame, RelativeTime::milliseconds(200))) continue;
      if (frame.type != static_cast<std::uint16_t>(FrameType::Batch)) continue;
      // Decode in place, as the runtime's inbox drain does — no
      // BatchPayload materialization on the consuming side either.
      rtcf::dist::BatchView view(frame.payload.data(), frame.payload.size());
      rtcf::dist::BatchView::Route r;
      rtcf::comm::Message m;
      while (view.next_route(r)) {
        for (std::uint32_t i = 0; i < r.messages; ++i) {
          view.next_message(m);
          ++received;
          ++pending_credits;
        }
      }
      // Replenish-on-consume, as a real entry gateway would
      // (docs/DATAPLANE.md §3): grant once half a window accumulates.
      if (pending_credits >= config.credit_window / 2) {
        far->send(rtcf::dist::make_credit({"C", "out", pending_credits}));
        pending_credits = 0;
      }
    }
    end_ns.store(now_ns());
  });

  const auto poll_credits = [&] {
    Frame frame;
    while (near->receive(frame, RelativeTime::zero())) {
      if (frame.type == static_cast<std::uint16_t>(FrameType::Credit)) {
        plane.on_credit(rtcf::dist::parse_credit(frame));
      }
    }
  };

  rtcf::comm::Message msg;
  msg.type_id = 7;
  msg.size = 16;
  // Counter snapshot after 10% of the run: the pool has seen every slab
  // class it will ever need by then, so the delta to the end measures the
  // *steady state* — cold-start allocations are warmup, not regressions.
  const std::size_t warmup = count / 10;
  rtcf::monitor::DataPlaneCounters::Snapshot warm{};
  bool warm_taken = false;
  const std::int64_t start = now_ns();
  for (std::size_t i = 0; i < count; ++i) {
    msg.sequence = i;
    while (plane.offer(route, msg) == DataPlane::Offer::Dropped) {
      // Route queue full: the window is exhausted and the receiver is
      // behind. Pick up grants, push a deadline flush, try again.
      poll_credits();
      plane.flush(false);
      std::this_thread::yield();
    }
    if (!warm_taken && i >= warmup) {
      warm = plane.stats();
      warm_taken = true;
    }
    if ((i & 0x3F) == 0) poll_credits();
  }
  while (plane.stats().queued != 0) {
    poll_credits();
    plane.flush(true);
    std::this_thread::yield();
  }
  receiver.join();

  const auto stats = plane.stats();
  VariantOutcome out;
  const double elapsed_s =
      static_cast<double>(end_ns.load() - start) / 1e9;
  out.msgs_per_sec =
      elapsed_s > 0.0 ? static_cast<double>(count) / elapsed_s : 0.0;
  out.frames = stats.batches;
  out.msgs_per_frame =
      out.frames != 0
          ? static_cast<double>(stats.sent) /
                static_cast<double>(out.frames)
          : 0.0;
  const std::uint64_t steady_sent = stats.sent - warm.sent;
  if (steady_sent != 0) {
    out.allocs_per_msg =
        static_cast<double>(stats.pool_misses - warm.pool_misses) /
        static_cast<double>(steady_sent);
    out.bytes_copied_per_msg =
        static_cast<double>(stats.bytes_copied - warm.bytes_copied) /
        static_cast<double>(steady_sent);
  }
  return out;
}

JsonRow to_row(const std::string& name, const VariantOutcome& v) {
  JsonRow row;
  row.name = name;
  row.metrics = {{"msgs_per_sec", v.msgs_per_sec},
                 {"msgs_per_frame", v.msgs_per_frame},
                 {"allocs_per_msg", v.allocs_per_msg},
                 {"bytes_copied_per_msg", v.bytes_copied_per_msg}};
  return row;
}

/// A batched plane facing a receiver that never grants credit: the window
/// drains once, then everything queues. Sender memory must stay bounded
/// by route_queue_cap, with the overflow declared as drop-newest.
JsonRow run_stalled_receiver(std::size_t offers, bool& ok) {
  DataPlaneConfig config;
  config.batch_max = 32;
  config.flush_interval = RelativeTime::microseconds(200);
  config.credit_window = 64;
  config.route_queue_cap = 256;
  DataPlane plane(config);
  auto [near, far] = rtcf::comm::LoopbackChannel::make_pair();
  const std::size_t route = plane.add_route("C", "out", near, "peer");

  rtcf::comm::Message msg;
  for (std::size_t i = 0; i < offers; ++i) {
    msg.sequence = i;
    plane.offer(route, msg);
  }
  const auto stats = plane.stats();
  if (stats.queued > config.route_queue_cap) {
    std::fprintf(stderr,
                 "FAIL: stalled receiver queued %llu > cap %zu\n",
                 static_cast<unsigned long long>(stats.queued),
                 config.route_queue_cap);
    ok = false;
  }
  if (stats.offered != stats.sent + stats.queued + stats.overflow_drops) {
    std::fprintf(stderr, "FAIL: stalled receiver loses messages silently\n");
    ok = false;
  }
  far->close();
  JsonRow row;
  row.name = "stalled-receiver";
  row.metrics = {
      {"offered", static_cast<double>(stats.offered)},
      {"sent", static_cast<double>(stats.sent)},
      {"queued", static_cast<double>(stats.queued)},
      {"overflow_drops", static_cast<double>(stats.overflow_drops)},
      {"queue_cap", static_cast<double>(config.route_queue_cap)}};
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  // argv[1]: thousands of messages per variant (default 200).
  std::size_t kilo = 200;
  if (argc > 1) kilo = static_cast<std::size_t>(std::strtoull(argv[1], nullptr, 10));
  if (kilo == 0) kilo = 1;
  const std::size_t count = kilo * 1000;

  std::vector<JsonRow> rows;
  bool ok = true;
  double tcp_unbatched = 0.0;
  double tcp_batched = 0.0;
  double tcp_batched_per_frame = 0.0;
  double shm_batched_allocs = -1.0;  // -1: shm variant did not run.

  for (const bool batched : {false, true}) {
    const char* mode = batched ? "batched" : "unbatched";
    const std::size_t batch_max = batched ? 32 : 1;

    {
      auto [near, far] = rtcf::comm::LoopbackChannel::make_pair();
      const VariantOutcome v = run_variant(near, far, batch_max, count);
      rows.push_back(to_row(std::string("loopback/") + mode, v));
      near->close();
    }

    {
      std::shared_ptr<rtcf::comm::TcpChannel> server =
          rtcf::comm::TcpChannel::listen(0);
      if (server == nullptr) {
        std::fprintf(stderr, "FAIL: cannot listen on localhost\n");
        return 1;
      }
      std::shared_ptr<rtcf::comm::TcpChannel> client =
          rtcf::comm::TcpChannel::connect("127.0.0.1",
                                          server->bound_port());
      if (client == nullptr) {
        std::fprintf(stderr, "FAIL: cannot connect to localhost\n");
        return 1;
      }
      const VariantOutcome v = run_variant(client, server, batch_max, count);
      rows.push_back(to_row(std::string("tcp/") + mode, v));
      if (batched) {
        tcp_batched = v.msgs_per_sec;
        tcp_batched_per_frame = v.msgs_per_frame;
      } else {
        tcp_unbatched = v.msgs_per_sec;
      }
      client->close();
      server->close();
    }

    {
      const std::string token =
          "/rtcf-bench-dp." + std::to_string(::getpid());
      std::shared_ptr<rtcf::comm::ShmRingChannel> creator =
          rtcf::comm::ShmRingChannel::create(token, std::size_t{1} << 20);
      std::shared_ptr<rtcf::comm::ShmRingChannel> attacher =
          creator == nullptr ? nullptr
                             : rtcf::comm::ShmRingChannel::attach(token);
      if (creator == nullptr || attacher == nullptr) {
        std::fprintf(stderr, "note: shm ring unavailable, skipping %s\n",
                     mode);
      } else {
        const VariantOutcome v =
            run_variant(creator, attacher, batch_max, count);
        rows.push_back(to_row(std::string("shm/") + mode, v));
        if (batched) shm_batched_allocs = v.allocs_per_msg;
        attacher->close();
      }
    }
  }

  rows.push_back(run_stalled_receiver(10'000, ok));

  // The two hard acceptance properties of the batched exit path.
  if (tcp_unbatched > 0.0 && tcp_batched < 3.0 * tcp_unbatched) {
    std::fprintf(stderr,
                 "FAIL: batched TCP %.0f msg/s < 3x unbatched %.0f msg/s\n",
                 tcp_batched, tcp_unbatched);
    ok = false;
  }
  if (tcp_batched_per_frame < 8.0) {
    std::fprintf(stderr,
                 "FAIL: batched TCP averaged %.2f msgs per channel write "
                 "(< 8): the per-message-syscall path is back\n",
                 tcp_batched_per_frame);
    ok = false;
  }
  if (shm_batched_allocs > 0.0) {
    std::fprintf(stderr,
                 "FAIL: batched shm allocated %.6f times per message in "
                 "steady state (must be 0): the zero-copy exit path "
                 "regressed\n",
                 shm_batched_allocs);
    ok = false;
  }

  rtcf::bench::emit_json("dist_throughput", rows);
  return ok ? 0 : 1;
}
