// End-to-end benchmark of the component runtime: the paths a user of the
// framework runs, timed from outside through public calls only.
//
//   bench_e2e --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]
//
// Workloads (README.md records why each one exists):
//   local_pipeline  the paper's §5.1 production line in SOLEIL, closed loop
//                   on one thread, interleaved with OO, MERGE_ALL and
//                   ULTRA_MERGE: single transactions and bursts;
//   stream_tcp      four bridged routes P0..P3 (node a) -> S0..S3 (node b)
//                   over localhost TCP, open loop at three offered rates;
//   stream_shm      the same load over the shm ring negotiated at HELLO;
//   reconfig_live   the low-rate TCP stream while the coordinator, over TCP
//                   control, swaps a sink every 10 ms, then back to back.
// Each run is a number of rounds on fresh assemblies, samples pooled.
//
// Inputs come from --seed only: the per-release burst sizes of every
// producer (uniform on [0, 2m] around the phase mean m), the pipeline's
// warm-up length, burst sizes and the variant order of each sub-round.
//
// Output: one "name value unit" line per metric, then, as the last line,
// one JSON object {"correct", "attempted", "failed", "metrics"}. Without
// --trace the metrics are the end-to-end set; --trace 1 wraps the data and
// control channels in recording decorators, adds standalone timings of
// single layers, and prints the per-layer set instead. Exit status: 0 when
// every output check passed, 1 when one failed or the run could not be
// measured, 2 on a usage error.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "adversity/rng.hpp"
#include "baseline/oo_production_line.hpp"
#include "comm/channel.hpp"
#include "comm/message.hpp"
#include "dist/batch_view.hpp"
#include "dist/coordinator.hpp"
#include "dist/dataplane.hpp"
#include "dist/gateway.hpp"
#include "dist/node_runtime.hpp"
#include "dist/plan_codec.hpp"
#include "dist/protocol.hpp"
#include "dist/slice.hpp"
#include "reconfig/plan_delta.hpp"
#include "runtime/content_registry.hpp"
#include "runtime/launcher.hpp"
#include "scenario/production_scenario.hpp"
#include "soleil/application.hpp"
#include "soleil/plan.hpp"
#include "validate/validator.hpp"

namespace {

using namespace rtcf;

constexpr std::size_t kRoutes = 4;
constexpr std::int64_t kPeriodNs = 1'000'000;  // producer period: 1 ms
// Producer -> exit (and entry -> sink) buffer of the streams: at least the
// largest burst (2 x 500 at saturation) and the data plane's credit window
// (256, the most an entry can inject before the sink runs).
constexpr std::size_t kStreamBuffer = 1024;
// reconfig_live's buffers: its bursts are at most 2 and every reload
// allocates the swapped sink's buffer afresh from the runtime's simulated
// heap, which is never reclaimed, so a large buffer would grow the process
// by its size per reload. 64 still absorbs a 30 ms stall of node b.
constexpr std::size_t kReconfigBuffer = 64;
// Route queue of the data plane (default 1024): at the high phase's 50k
// msg/s per route the default absorbs a 20 ms stall of the receiving side,
// and hosts like the 4-vCPU VM this was tuned on stall every thread for
// 5-20 ms every few seconds, so the default lost messages in 3 of 50 runs.
// 8192 absorbs 160 ms; saturation still overflows it, as it should.
constexpr std::size_t kRouteQueueCap = 8192;
constexpr std::int64_t kCommitCadenceNs = 10'000'000;  // reconfig_live

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void sleep_until_ns(std::int64_t t) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::nanoseconds(t))));
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

/// Raw samples with interpolated percentiles.
class Dist {
 public:
  void add(double x) {
    v_.push_back(x);
    sorted_ = false;
  }
  void append(const Dist& other) {
    v_.insert(v_.end(), other.v_.begin(), other.v_.end());
    sorted_ = false;
  }
  const std::vector<double>& samples() const { return v_; }
  std::size_t count() const { return v_.size(); }
  double pct(double p) {
    if (v_.empty()) return 0.0;
    if (!sorted_) std::sort(v_.begin(), v_.end());
    sorted_ = true;
    const double pos = p / 100.0 * static_cast<double>(v_.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v_.size() - 1);
    return v_[lo] + (v_[hi] - v_[lo]) * (pos - static_cast<double>(lo));
  }
  double median() { return pct(50.0); }
  double mean() const {
    double sum = 0.0;
    for (const double x : v_) sum += x;
    return v_.empty() ? 0.0 : sum / static_cast<double>(v_.size());
  }

 private:
  std::vector<double> v_;
  bool sorted_ = true;
};

double median_of(std::vector<double> v) {
  Dist d;
  for (const double x : v) d.add(x);
  return d.median();
}

// ---- metrics and output -----------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

// Printed without --trace; must match BENCHMARK.json "end_to_end".
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"lat_p50_us", "us"},  {"lat_p99_us", "us"},
    {"load_p50_us", "us"},     {"load_p99_us", "us"}, {"capacity_per_s", "1/s"},
};

// Printed with --trace 1; must match BENCHMARK.json "per_layer". A layer a
// workload does not run reads 0 (README.md lists which).
constexpr MetricDef kPerLayer[] = {
    {"runtime.release_late_p99_us", "us"},
    {"runtime.response_p99_us", "us"},
    {"runtime.cpu_cores_lat", "cores"},
    {"runtime.cpu_cores_load", "cores"},
    {"soleil.soleil_p50_ns", "ns"},
    {"soleil.merge_all_p50_ns", "ns"},
    {"soleil.ultra_merge_p50_ns", "ns"},
    {"soleil.oo_p50_ns", "ns"},
    {"soleil.membrane_ns", "ns"},
    {"soleil.vs_oo", "ratio"},
    {"soleil.activations_per_txn", "count"},
    {"soleil.inject_ns", "ns"},
    {"dist.exit_wait_lat_p50_us", "us"},
    {"dist.exit_wait_lat_p99_us", "us"},
    {"dist.exit_wait_lat_mean_us", "us"},
    {"dist.entry_wait_lat_p50_us", "us"},
    {"dist.entry_wait_lat_p99_us", "us"},
    {"dist.entry_wait_lat_mean_us", "us"},
    {"comm.wire_lat_p50_us", "us"},
    {"comm.wire_lat_p99_us", "us"},
    {"comm.wire_lat_mean_us", "us"},
    {"trace.e2e_lat_mean_us", "us"},
    {"dist.exit_wait_load_p50_us", "us"},
    {"dist.exit_wait_load_p99_us", "us"},
    {"dist.exit_wait_load_mean_us", "us"},
    {"dist.entry_wait_load_p50_us", "us"},
    {"dist.entry_wait_load_p99_us", "us"},
    {"dist.entry_wait_load_mean_us", "us"},
    {"comm.wire_load_p50_us", "us"},
    {"comm.wire_load_p99_us", "us"},
    {"comm.wire_load_mean_us", "us"},
    {"trace.e2e_load_mean_us", "us"},
    {"trace.lat_p50_us", "us"},
    {"trace.load_p50_us", "us"},
    {"dist.msgs_per_frame_load", "msg/frame"},
    {"dist.msgs_per_frame_sat", "msg/frame"},
    {"dist.deadline_flush_share", "ratio"},
    {"dist.overflow_drops", "count"},
    {"dist.send_failures", "count"},
    {"dist.entry_drops", "count"},
    {"dist.sat_drop_ratio", "ratio"},
    {"dist.peak_queue_depth", "count"},
    {"dist.inbox_depth_max", "count"},
    {"dist.offer_ns", "ns"},
    {"dist.flush_ns_per_msg", "ns"},
    {"dist.batch_decode_ns_per_msg", "ns"},
    {"comm.send_ns_per_frame", "ns"},
    {"comm.recv_ns_per_frame", "ns"},
    {"comm.ring_frame_share", "ratio"},
    {"comm.bytes_copied_per_msg", "bytes"},
    {"comm.pool_misses_per_msg", "count"},
    {"reconfig.plan_us", "us"},
    {"reconfig.prepare_us", "us"},
    {"reconfig.decide_us", "us"},
    {"reconfig.node_park_p50_us", "us"},
    {"reconfig.node_park_p99_us", "us"},
    {"reconfig.prepare_bytes", "bytes"},
    {"validate.rules_us", "us"},
    {"dist.slice_us", "us"},
    {"reconfig.diff_us", "us"},
    {"reconfig.delta_rules_us", "us"},
    {"dist.plan_encode_us", "us"},
    {"setup.assemble_s", "s"},
    {"setup.link_s", "s"},
    {"diag.lat_p999_us", "us"},
    {"diag.offered_per_s", "1/s"},
};

/// What one run measured and whether its outputs were right.
struct Result {
  std::map<std::string, double> metrics;
  std::uint64_t attempted = 0;  ///< Operations whose outcome is checked.
  std::uint64_t failed = 0;     ///< Of those, lost, reordered or aborted.
  std::vector<std::string> errors;  ///< Output-check violations.

  void set(const std::string& name, double value) { metrics[name] = value; }
  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
};

// ---- inputs -----------------------------------------------------------------

/// Message phase tag (comm::Message::type_id). kGap spans carry no load.
enum Phase : std::uint32_t { kWarm, kLow, kHigh, kSat, kCap, kPhases, kGap };

struct Span {
  Phase phase;
  std::uint32_t mean;  ///< Mean burst per release (0 in gaps).
  std::uint64_t releases;
};

/// The whole open-loop input of one run: the phase and burst size of every
/// release of every producer, drawn from the seed before anything starts.
class Schedule {
 public:
  Schedule(std::uint64_t seed, std::vector<Span> spans)
      : spans_(std::move(spans)) {
    for (const Span& span : spans_) {
      begin_.push_back(releases_);
      releases_ += span.releases;
    }
    const adversity::Rng base(seed);
    for (std::size_t r = 0; r < kRoutes; ++r) {
      adversity::Rng rng = base.split("route" + std::to_string(r));
      bursts_[r].reserve(releases_);
      std::uint64_t seq = 1;
      for (const Span& span : spans_) {
        if (span.phase < kPhases) first_seq_[r][span.phase] = seq;
        for (std::uint64_t k = 0; k < span.releases; ++k) {
          const auto n = static_cast<std::uint16_t>(
              span.mean == 0 ? 0 : rng.range(0, 2 * span.mean));
          bursts_[r].push_back(n);
          seq += n;
        }
        if (span.phase < kPhases) {
          end_seq_[r][span.phase] = seq;
          offered_[r][span.phase] = seq - first_seq_[r][span.phase];
        }
      }
    }
  }

  std::uint64_t releases() const { return releases_; }
  Phase phase(std::uint64_t k) const {
    for (std::size_t i = spans_.size(); i-- > 0;) {
      if (k >= begin_[i]) return spans_[i].phase;
    }
    return kGap;
  }
  std::uint32_t burst(std::size_t route, std::uint64_t k) const {
    return k < releases_ ? bursts_[route][k] : 0;
  }
  /// Release-index range [first, end) of the span tagged `phase`.
  std::pair<std::uint64_t, std::uint64_t> range(Phase phase) const {
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].phase == phase) {
        return {begin_[i], begin_[i] + spans_[i].releases};
      }
    }
    return {0, 0};
  }
  std::uint64_t offered(std::size_t r, Phase p) const { return offered_[r][p]; }
  std::uint64_t offered(Phase p) const {
    std::uint64_t sum = 0;
    for (std::size_t r = 0; r < kRoutes; ++r) sum += offered_[r][p];
    return sum;
  }
  std::uint64_t first_seq(std::size_t r, Phase p) const {
    return first_seq_[r][p];
  }
  std::uint64_t end_seq(std::size_t r, Phase p) const { return end_seq_[r][p]; }

 private:
  std::vector<Span> spans_;
  std::vector<std::uint64_t> begin_;
  std::uint64_t releases_ = 0;
  std::array<std::vector<std::uint16_t>, kRoutes> bursts_;
  std::array<std::array<std::uint64_t, kPhases>, kRoutes> offered_{};
  std::array<std::array<std::uint64_t, kPhases>, kRoutes> first_seq_{};
  std::array<std::array<std::uint64_t, kPhases>, kRoutes> end_seq_{};
};

// ---- tracing ------------------------------------------------------------------

/// Per-message stamps of the traced run, by route and sequence number:
/// scheduled release, handed to the data channel, read off it by the peer,
/// delivered to the sink. Each array has one writer thread at a time.
struct Trace {
  std::array<std::vector<std::int64_t>, kRoutes> sched, sent, recv, sink;

  explicit Trace(const std::array<std::uint64_t, kRoutes>& sizes) {
    for (std::size_t r = 0; r < kRoutes; ++r) {
      sched[r].assign(sizes[r], 0);
      sent[r].assign(sizes[r], 0);
      recv[r].assign(sizes[r], 0);
      sink[r].assign(sizes[r], 0);
    }
  }
  static void mark(std::vector<std::int64_t>& v, std::uint64_t seq,
                   std::int64_t t) {
    if (seq < v.size()) v[seq] = t;
  }
};

/// Route index of producer "P<r>", or -1.
int route_of(std::string_view client) {
  if (client.size() != 2 || client[0] != 'P') return -1;
  const int r = client[1] - '0';
  return r >= 0 && r < static_cast<int>(kRoutes) ? r : -1;
}

/// Recording decorator of a data channel: stamps every message of every
/// BATCH frame (decoded with BatchView) as it is handed to the channel and
/// as the peer reads it, and times the transport's send and receive calls.
/// The data plane sends BATCH over TCP through send_spans with one span;
/// a frame sent any other way goes unstamped, which the trace-coverage
/// check reports. Every virtual forwards, so the node sees its transport.
class TapChannel final : public comm::Channel {
 public:
  TapChannel(std::shared_ptr<comm::Channel> inner, Trace& trace)
      : inner_(std::move(inner)), trace_(trace) {}

  bool send(const comm::Frame& frame) override { return inner_->send(frame); }
  bool send(comm::Frame&& frame) override {
    return inner_->send(std::move(frame));
  }
  bool send_spans(std::uint16_t type, const comm::ByteSpan* spans,
                  std::size_t count) override {
    const std::int64_t t = now_ns();
    const bool ok = inner_->send_spans(type, spans, count);
    if (is_batch(type) && count == 1) {
      send_ns_ += now_ns() - t;
      ++send_frames_;
      stamp(spans[0].data, spans[0].size, trace_.sent, t);
    }
    return ok;
  }
  bool reserve_frame(std::uint16_t type, std::size_t payload_size,
                     comm::FrameReservation& out) override {
    return inner_->reserve_frame(type, payload_size, out);
  }
  bool commit_frame(std::size_t used) override {
    return inner_->commit_frame(used);
  }
  void abort_frame() override { inner_->abort_frame(); }
  bool receive(comm::Frame& frame, rtsj::RelativeTime timeout) override {
    const std::int64_t begin = now_ns();
    if (!inner_->receive(frame, timeout)) return false;
    const std::int64_t t = now_ns();
    if (is_batch(frame.type)) {
      recv_ns_ += t - begin;
      ++recv_frames_;
      stamp(frame.payload.data(), frame.payload.size(), trace_.recv, t);
    }
    return true;
  }
  void close() override { inner_->close(); }
  bool open() const override { return inner_->open(); }

  /// Time spent inside the transport's send calls for BATCH frames, and
  /// how many there were; likewise for receives that returned one.
  double send_ns() const { return static_cast<double>(send_ns_); }
  double send_frames() const { return static_cast<double>(send_frames_); }
  double recv_ns() const { return static_cast<double>(recv_ns_); }
  double recv_frames() const { return static_cast<double>(recv_frames_); }

 private:
  static bool is_batch(std::uint16_t type) {
    return type == static_cast<std::uint16_t>(dist::FrameType::Batch);
  }
  void stamp(const std::uint8_t* data, std::size_t size,
             std::array<std::vector<std::int64_t>, kRoutes>& stamps,
             std::int64_t t) {
    try {
      dist::BatchView view(data, size);
      dist::BatchView::Route route;
      comm::Message message;
      while (view.next_route(route)) {
        const int r = route_of(route.client);
        for (std::uint32_t i = 0; i < route.messages; ++i) {
          view.next_message(message);
          if (r >= 0) Trace::mark(stamps[r], message.sequence, t);
        }
      }
    } catch (const dist::WireError&) {
      // Not ours to judge: the node rejects the frame itself.
    }
  }

  std::shared_ptr<comm::Channel> inner_;
  Trace& trace_;
  std::int64_t send_ns_ = 0;
  std::uint64_t send_frames_ = 0;
  std::int64_t recv_ns_ = 0;
  std::uint64_t recv_frames_ = 0;
};

/// One control frame seen at the coordinator: type, instant, payload bytes.
struct ControlEvent {
  std::uint16_t type;
  std::int64_t t;
  std::size_t bytes;
};

/// Recording decorator of a coordinator control channel: records each
/// frame the coordinator sends (it sends whole frames) or receives. The
/// coordinator runs on the calling (main) thread only.
class ControlTap final : public comm::Channel {
 public:
  ControlTap(std::shared_ptr<comm::Channel> inner,
             std::vector<ControlEvent>& events)
      : inner_(std::move(inner)), events_(events) {}

  bool send(const comm::Frame& frame) override {
    events_.push_back({frame.type, now_ns(), frame.payload.size()});
    return inner_->send(frame);
  }
  bool send(comm::Frame&& frame) override {
    events_.push_back({frame.type, now_ns(), frame.payload.size()});
    return inner_->send(std::move(frame));
  }
  bool send_spans(std::uint16_t type, const comm::ByteSpan* spans,
                  std::size_t count) override {
    return inner_->send_spans(type, spans, count);
  }
  bool reserve_frame(std::uint16_t type, std::size_t payload_size,
                     comm::FrameReservation& out) override {
    return inner_->reserve_frame(type, payload_size, out);
  }
  bool commit_frame(std::size_t used) override {
    return inner_->commit_frame(used);
  }
  void abort_frame() override { inner_->abort_frame(); }
  bool receive(comm::Frame& frame, rtsj::RelativeTime timeout) override {
    if (!inner_->receive(frame, timeout)) return false;
    events_.push_back({frame.type, now_ns(), frame.payload.size()});
    return true;
  }
  void close() override { inner_->close(); }
  bool open() const override { return inner_->open(); }

 private:
  std::shared_ptr<comm::Channel> inner_;
  std::vector<ControlEvent>& events_;
};

// ---- the sink side --------------------------------------------------------------

/// Everything the sinks observe. Node b's executive delivers; a commit's
/// drain (serve thread, executive parked) and the stop() drain (joined
/// threads) also deliver, never concurrently with it.
struct Recorder {
  std::array<std::array<std::uint64_t, kPhases>, kRoutes> delivered{};
  std::array<std::uint64_t, kRoutes> expected{};  ///< Next sequence number.
  std::uint64_t disorder = 0;  ///< Duplicates, reorders, gaps elsewhere.
  std::array<Dist, kPhases> latency_us;  ///< Low and high phases.
  std::atomic<std::int64_t> first_delivery{0};
  Trace* trace = nullptr;

  Recorder() { expected.fill(1); }

  void deliver(const comm::Message& m, std::int64_t t) {
    const auto route = m.load<std::uint32_t>();
    if (route >= kRoutes || m.type_id >= kPhases) {
      ++disorder;
      return;
    }
    if (first_delivery.load(std::memory_order_relaxed) == 0) {
      first_delivery.store(t, std::memory_order_release);
    }
    const std::uint64_t want = expected[route];
    // Sat may lose messages to overflow (counted by the runtime, checked
    // against it at the end); everywhere else a gap is a failure.
    if (m.sequence != want && !(m.sequence > want && m.type_id == kSat)) {
      ++disorder;
    }
    if (m.sequence >= want) expected[route] = m.sequence + 1;
    ++delivered[route][m.type_id];
    if (m.type_id == kLow || m.type_id == kHigh) {
      latency_us[m.type_id].add(static_cast<double>(t - m.timestamp_ns) /
                                1e3);
    }
    if (trace != nullptr) {
      Trace::mark(trace->sched[route], m.sequence, m.timestamp_ns);
      Trace::mark(trace->sink[route], m.sequence, t);
    }
  }
  std::uint64_t delivered_total(Phase p) const {
    std::uint64_t sum = 0;
    for (std::size_t r = 0; r < kRoutes; ++r) sum += delivered[r][p];
    return sum;
  }
};

// Set while a cluster runs; sinks of every instance (including the ones a
// reload creates) report here.
Recorder* g_recorder = nullptr;

/// Periodic producer: on each release emits the scheduled burst, every
/// message stamped with the release's *scheduled* instant, so an executive
/// stall is charged to every message it delays.
class E2eSource final : public comm::Content {
 public:
  void bind(std::uint32_t route, const Schedule* schedule,
            const runtime::Launcher* launcher, std::string name) {
    route_ = route;
    schedule_ = schedule;
    launcher_ = launcher;
    name_ = std::move(name);
  }

  void on_release() override {
    const std::int64_t t = now_ns();
    const std::uint64_t k = releases_++;
    std::int64_t anchor = anchor_.load(std::memory_order_relaxed);
    if (k == 0) {
      first_start_ = t;
    } else if (anchor == 0) {
      // Release k is scheduled at anchor + k periods (the launcher's
      // drift-free grid); its first lateness sample fixes the anchor. Same
      // thread as the launcher, so its stats are safe to read here.
      const auto& late =
          launcher_->stats(name_).start_lateness_us.samples();
      anchor = first_start_ - std::llround(late.front() * 1e3);
      anchor_.store(anchor, std::memory_order_release);
    }
    const std::int64_t stamp =
        anchor == 0 ? t : anchor + static_cast<std::int64_t>(k) * kPeriodNs;
    const Phase phase = schedule_->phase(k);
    const std::uint32_t n = schedule_->burst(route_, k);
    comm::Message m;
    m.type_id = phase;
    m.timestamp_ns = stamp;
    m.store(route_);
    for (std::uint32_t i = 0; i < n; ++i) {
      m.sequence = ++sequence_;
      port(0).send(m);
    }
    if (phase < kPhases) offered_[phase] += n;
  }

  std::int64_t anchor() const {
    return anchor_.load(std::memory_order_acquire);
  }
  std::uint64_t releases() const { return releases_; }
  std::uint64_t offered(Phase p) const { return offered_[p]; }

 private:
  std::uint32_t route_ = 0;
  const Schedule* schedule_ = nullptr;
  const runtime::Launcher* launcher_ = nullptr;
  std::string name_;
  std::uint64_t releases_ = 0;
  std::uint64_t sequence_ = 0;
  std::int64_t first_start_ = 0;
  std::atomic<std::int64_t> anchor_{0};
  std::array<std::uint64_t, kPhases> offered_{};
};

class E2eSink final : public comm::Content {
 public:
  void on_message(const comm::Message& message) override {
    const std::int64_t t = now_ns();
    if (g_recorder != nullptr) g_recorder->deliver(message, t);
  }
};

RTCF_REGISTER_CONTENT(E2eSource)
RTCF_REGISTER_CONTENT(E2eSink)

// ---- the distributed assembly -------------------------------------------------

/// P0..P3 (periodic, 1 ms) bridged to S0..S3 (sporadic) through buffers
/// of `buffer` messages; `first_sink` names the sink of route 0, the one
/// reconfig_live swaps.
model::Architecture make_stream_arch(const std::string& first_sink,
                                     std::size_t buffer) {
  using namespace model;
  Architecture arch;
  auto& rt = arch.add_thread_domain("RT", DomainType::Realtime, 20);
  auto& reg = arch.add_thread_domain("REG", DomainType::Regular, 5);
  ModeDecl mode;
  mode.name = "Run";
  for (std::size_t r = 0; r < kRoutes; ++r) {
    const std::string producer = "P" + std::to_string(r);
    const std::string sink = r == 0 ? first_sink : "S" + std::to_string(r);
    auto& p = arch.add_active(producer, ActivationKind::Periodic,
                              rtsj::RelativeTime::nanoseconds(kPeriodNs));
    p.set_content_class("E2eSource");
    p.set_cost(rtsj::RelativeTime::microseconds(20));
    p.set_swappable(true);
    p.add_interface({"out", InterfaceRole::Client, "IStream"});
    arch.add_child(rt, p);
    auto& s = arch.add_active(sink, ActivationKind::Sporadic);
    s.set_content_class("E2eSink");
    s.set_criticality(Criticality::Low);
    s.set_swappable(true);
    s.add_interface({"in", InterfaceRole::Server, "IStream"});
    arch.add_child(reg, s);
    Binding binding;
    binding.client = {producer, "out"};
    binding.server = {sink, "in"};
    binding.desc.protocol = Protocol::Asynchronous;
    binding.desc.buffer_size = buffer;
    arch.add_binding(binding);
    mode.components.push_back({producer, {}, {}});
  }
  arch.add_mode(std::move(mode));
  return arch;
}

validate::NodeMap make_map() {
  validate::NodeMap map;
  map.nodes = {"a", "b"};
  for (std::size_t r = 0; r < kRoutes; ++r) {
    map.assignment["P" + std::to_string(r)] = "a";
    map.assignment["S" + std::to_string(r)] = "b";
  }
  map.assignment["S0b"] = "b";
  return map;
}

std::pair<std::shared_ptr<comm::Channel>, std::shared_ptr<comm::Channel>>
tcp_pair() {
  std::shared_ptr<comm::TcpChannel> server = comm::TcpChannel::listen(0);
  if (server == nullptr) throw std::runtime_error("cannot listen on localhost");
  std::shared_ptr<comm::TcpChannel> client =
      comm::TcpChannel::connect("127.0.0.1", server->bound_port());
  if (client == nullptr || !server->accept_one()) {
    throw std::runtime_error("cannot connect over localhost");
  }
  return {client, server};
}

struct ClusterSpec {
  bool shm = false;
  bool control = false;  ///< Coordinator over TCP control channels.
  std::int64_t run_ms = 50;
  Trace* trace = nullptr;  ///< Wraps both data channels when set.
  std::vector<ControlEvent>* control_events = nullptr;
};

/// Two running nodes (and a coordinator when asked), linked and delivering.
struct Cluster {
  std::unique_ptr<dist::NodeRuntime> a, b;
  std::unique_ptr<dist::ReconfigCoordinator> coordinator;
  std::array<E2eSource*, kRoutes> sources{};
  std::shared_ptr<TapChannel> tap_a, tap_b;
  double assemble_s = 0.0;  ///< Slice, validate, assemble both nodes.
  double link_s = 0.0;      ///< Connect, HELLO (and ring) to first delivery.

  /// Waits out both executive runs, then drains and stops both nodes.
  void finish() {
    a->join_executive();
    b->join_executive();
    a->stop();
    b->stop();
  }
};

std::unique_ptr<Cluster> launch(const model::Architecture& global,
                                const validate::NodeMap& map,
                                const ClusterSpec& spec,
                                const Schedule& schedule, Recorder& recorder) {
  static int instance = 0;
  auto cluster = std::make_unique<Cluster>();
  const std::int64_t t0 = now_ns();
  dist::NodeRuntime::Options options;
  options.run_duration = rtsj::RelativeTime::milliseconds(spec.run_ms);
  options.data_plane.route_queue_cap = kRouteQueueCap;
  if (spec.shm) {
    options.shm_namespace = "rtcf-e2e-" + std::to_string(::getpid()) + "-" +
                            std::to_string(instance++);
  }
  cluster->a = std::make_unique<dist::NodeRuntime>(global, map, "a", options);
  cluster->b = std::make_unique<dist::NodeRuntime>(global, map, "b", options);
  const std::int64_t t1 = now_ns();

  auto [to_b, to_a] = tcp_pair();
  if (spec.trace != nullptr) {
    cluster->tap_a = std::make_shared<TapChannel>(to_b, *spec.trace);
    cluster->tap_b = std::make_shared<TapChannel>(to_a, *spec.trace);
    to_b = cluster->tap_a;
    to_a = cluster->tap_b;
  }
  cluster->a->connect_peer("b", to_b);
  cluster->b->connect_peer("a", to_a);
  if (spec.control) {
    cluster->coordinator = std::make_unique<dist::ReconfigCoordinator>(map);
    for (dist::NodeRuntime* node : {cluster->a.get(), cluster->b.get()}) {
      auto [node_end, coordinator_end] = tcp_pair();
      if (spec.control_events != nullptr) {
        coordinator_end = std::make_shared<ControlTap>(coordinator_end,
                                                       *spec.control_events);
      }
      node->attach_control(node_end);
      cluster->coordinator->attach(node->name(), coordinator_end, global);
    }
  }
  for (std::size_t r = 0; r < kRoutes; ++r) {
    const std::string name = "P" + std::to_string(r);
    auto* source =
        dynamic_cast<E2eSource*>(cluster->a->application().content(name));
    if (source == nullptr) throw std::runtime_error("no producer " + name);
    source->bind(static_cast<std::uint32_t>(r), &schedule,
                 &cluster->a->launcher(), name);
    cluster->sources[r] = source;
  }
  g_recorder = &recorder;
  recorder.trace = spec.trace;
  cluster->a->start();
  cluster->b->start();

  // Linked = first message delivered (and, for shm, the ring in use on
  // both sides: the workload fails rather than fall back to TCP).
  const std::int64_t give_up = now_ns() + 5'000'000'000;
  std::int64_t ring = spec.shm ? 0 : t1;  // when both ends use the ring
  std::int64_t first = 0;
  while (first == 0 || ring == 0) {
    if (now_ns() > give_up) {
      cluster->finish();
      throw std::runtime_error(ring == 0 ? "shm ring did not link"
                                         : "no message delivered");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(20));
    first = recorder.first_delivery.load(std::memory_order_acquire);
    if (ring == 0 && cluster->a->shm_linked("b") &&
        cluster->b->shm_linked("a")) {
      ring = now_ns();
    }
  }
  const std::int64_t linked = std::max(first, ring);
  cluster->assemble_s = static_cast<double>(t1 - t0) / 1e9;
  cluster->link_s = static_cast<double>(linked - t1) / 1e9;
  return cluster;
}

// ---- rounds ---------------------------------------------------------------------

/// A run is a number of rounds, each on a fresh assembly (new threads,
/// sockets, poll-loop phases and heap layout) with inputs of its own. Each
/// round yields every end-to-end metric; the run reports the better
/// quartile of the rounds (25th percentile of a lower-is-better metric, 75th
/// of a higher-is-better one). Measured on a shared 4-vCPU VM: the host
/// slows seconds of a run by up to 30 %, and a fresh assembly's poll-loop
/// alignment or heap layout moves a round by 10-20 %. Both only ever slow a
/// round, so the better quartile follows the code rather than the host:
/// over ten seeds it cut the widest spread (IQR / median) from 0.25 with
/// samples pooled over rounds to 0.09. What remains is the host's speed
/// changing from one minute to the next, which no single run can cancel.
constexpr int kStreamRounds = 20;
constexpr int kReconfigRounds = 10;
constexpr int kLocalRounds = 20;
// Per-round warm-up, the drain gap after each stream phase, and the last
// gap, long enough to drain a saturated route queue (4 x 8192 messages at
// about 1.2M msg/s) before the executives stop.
constexpr std::uint64_t kWarmMs = 50;
constexpr std::uint64_t kGapMs = 50;
constexpr std::uint64_t kDrainMs = 100;

std::uint64_t round_seed(std::uint64_t seed, int round) {
  return adversity::Rng(seed).split("round" + std::to_string(round)).next();
}

std::uint64_t ms(double seconds) {
  return static_cast<std::uint64_t>(std::llround(seconds * 1e3));
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
};

/// Traced segments of one e2e latency, pooled over rounds.
struct Split {
  Dist exit_wait, wire, entry_wait, e2e;
  std::uint64_t expected = 0;  ///< Messages the segments should cover.
};

/// Everything a run collects over its rounds.
struct Totals {
  /// Per round: the end-to-end metrics, in kEndToEnd order.
  std::array<std::vector<double>, std::size(kEndToEnd)> rounds;
  std::vector<double> assemble, link;  ///< Seconds, per set-up.
  Dist lat_tail;                ///< The lat samples, pooled (for p99.9).
  Dist late, response;          ///< Launcher start lateness, response (us).
  double cpu[2] = {0.0, 0.0};   ///< CPU seconds in the lat, load windows...
  double wall[2] = {0.0, 0.0};  ///< ...and their wall seconds.
  std::map<std::string, double> sum;  ///< Counters summed over rounds.
  double peak_queue = 0.0;
  double inbox_max = 0.0;
  Split split[2];  ///< Traced segments of lat, load.
  Dist park, plan, prepare, decide, prepare_bytes;  ///< reconfig_live.
};

/// Books one round's end-to-end metrics: its set-up time, its two latency
/// samples and its throughput.
void add_round(int round, double setup_s, Dist& lat, Dist& load,
               double capacity, bool trace, Totals& t) {
  const double values[] = {setup_s,        lat.median(),  lat.pct(99),
                           load.median(),  load.pct(99),  capacity};
  static_assert(std::size(values) == std::size(kEndToEnd));
  for (std::size_t i = 0; i < std::size(values); ++i) {
    t.rounds[i].push_back(values[i]);
  }
  std::fprintf(stderr,
               "round %d: setup %.6f s, lat p50 %.3f p99 %.3f us, load p50 "
               "%.3f p99 %.3f us, capacity %.1f/s\n",
               round, values[0], values[1], values[2], values[3], values[4],
               values[5]);
  if (trace) t.lat_tail.append(lat);
}

/// The metrics every workload derives the same way from its totals.
void common_metrics(Totals& t, bool trace, Result& result) {
  for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
    Dist rounds;
    for (const double x : t.rounds[i]) rounds.add(x);
    const bool higher = std::string(kEndToEnd[i].name) == "capacity_per_s";
    result.set(kEndToEnd[i].name, rounds.pct(higher ? 75.0 : 25.0));
  }
  result.set("setup.assemble_s", median_of(t.assemble));
  result.set("setup.link_s", median_of(t.link));
  if (!trace) return;
  result.set("trace.lat_p50_us", result.metrics["lat_p50_us"]);
  result.set("trace.load_p50_us", result.metrics["load_p50_us"]);
  result.set("diag.lat_p999_us", t.lat_tail.pct(99.9));
  result.set("runtime.release_late_p99_us", t.late.pct(99));
  result.set("runtime.response_p99_us", t.response.pct(99));
  result.set("runtime.cpu_cores_lat", ratio(t.cpu[0], t.wall[0]));
  result.set("runtime.cpu_cores_load", ratio(t.cpu[1], t.wall[1]));
}

// ---- shared checks and per-layer numbers of the two-node workloads ---------

/// Phase boundary observation: wall instant, process CPU, node a's data
/// plane counters.
struct Mark {
  std::int64_t t = 0;
  double cpu = 0.0;
  monitor::DataPlaneCounters::Snapshot dp;
};

Mark mark(Cluster& cluster) {
  Mark m;
  m.t = now_ns();
  m.cpu = cpu_seconds();
  m.dp = cluster.a->application().monitor().data_plane().snapshot();
  return m;
}

void add_window(const Mark& begin, const Mark& end, int which, Totals& t) {
  t.cpu[which] += end.cpu - begin.cpu;
  t.wall[which] += static_cast<double>(end.t - begin.t) / 1e9;
}

std::uint64_t buffer_drops(const soleil::Application& app) {
  std::uint64_t drops = 0;
  for (const auto& buffer : app.buffers()) drops += buffer->dropped_total();
  return drops;
}

/// Output checks common to every stream: the generator emitted exactly the
/// schedule, no release was shed, every message of every phase but sat
/// arrived once and in order, and every lost message was counted by the
/// runtime (route-queue overflow or a full buffer).
void check_stream(Cluster& cluster, const Schedule& schedule,
                  const Recorder& recorder, Result& result) {
  const runtime::Launcher& launcher = cluster.a->launcher();
  std::uint64_t losses = 0;
  for (std::size_t r = 0; r < kRoutes; ++r) {
    const E2eSource& source = *cluster.sources[r];
    const std::string route = "route " + std::to_string(r);
    result.check(source.releases() >= schedule.releases(),
                 route + ": executive ran " +
                     std::to_string(source.releases()) + " of " +
                     std::to_string(schedule.releases()) + " releases");
    result.check(launcher.stats("P" + std::to_string(r)).shed == 0,
                 route + ": releases shed by the governor");
    for (std::uint32_t p = 0; p < kPhases; ++p) {
      const auto phase = static_cast<Phase>(p);
      const std::uint64_t offered = source.offered(phase);
      const std::uint64_t delivered = recorder.delivered[r][p];
      result.check(offered == schedule.offered(r, phase),
                   route + ": producer offered " + std::to_string(offered) +
                       ", schedule says " +
                       std::to_string(schedule.offered(r, phase)));
      result.check(delivered <= offered, route + ": duplicates");
      losses += offered - std::min(offered, delivered);
      if (phase == kSat) continue;
      result.attempted += offered;
      if (delivered != offered) {
        result.failed += offered > delivered ? offered - delivered : 1;
        result.check(false, route + " phase " + std::to_string(p) +
                                ": offered " + std::to_string(offered) +
                                ", delivered " + std::to_string(delivered));
      }
    }
  }
  result.failed += recorder.disorder;
  result.check(recorder.disorder == 0,
               std::to_string(recorder.disorder) +
                   " messages duplicated, reordered or skipped");
  const std::uint64_t overflow = cluster.a->application()
                                     .monitor()
                                     .data_plane()
                                     .snapshot()
                                     .overflow_drops;
  const std::uint64_t full_a = buffer_drops(cluster.a->application());
  const std::uint64_t full_b = buffer_drops(cluster.b->application());
  result.check(losses == overflow + full_a + full_b,
               "lost " + std::to_string(losses) + " messages; counted " +
                   std::to_string(overflow) + " route-queue overflows, " +
                   std::to_string(full_a) + " + " + std::to_string(full_b) +
                   " full-buffer drops (node a + b)");
}

using Range = std::pair<std::uint64_t, std::uint64_t>;

/// Launcher start lateness and response time of the producers' releases,
/// each over a range of release indices.
void release_round(Cluster& cluster, Range late_range, Range response_range,
                   Totals& t) {
  for (std::size_t r = 0; r < kRoutes; ++r) {
    const auto& stats = cluster.a->launcher().stats("P" + std::to_string(r));
    const auto& late = stats.start_lateness_us.samples();
    const auto& response = stats.response_us.samples();
    for (std::uint64_t k = late_range.first;
         k < late_range.second && k < late.size(); ++k) {
      t.late.add(late[k]);
    }
    for (std::uint64_t k = response_range.first;
         k < response_range.second && k < response.size(); ++k) {
      t.response.add(response[k]);
    }
  }
}

/// The traced segment split of one phase: per message, scheduled release
/// -> handed to the channel (exit wait) -> read by the peer (wire) ->
/// delivered to the sink (entry wait). The three add up to the message's
/// end-to-end latency exactly.
void split_round(const Trace& trace, const Schedule& schedule, Phase phase,
                 Split& split) {
  for (std::size_t r = 0; r < kRoutes; ++r) {
    split.expected += schedule.offered(r, phase);
    for (std::uint64_t seq = schedule.first_seq(r, phase);
         seq < schedule.end_seq(r, phase) && seq < trace.sink[r].size();
         ++seq) {
      const std::int64_t sched = trace.sched[r][seq];
      const std::int64_t sent = trace.sent[r][seq];
      const std::int64_t recv = trace.recv[r][seq];
      const std::int64_t sink = trace.sink[r][seq];
      if (sched == 0 || sent == 0 || recv == 0 || sink == 0) continue;
      split.exit_wait.add(static_cast<double>(sent - sched) / 1e3);
      split.wire.add(static_cast<double>(recv - sent) / 1e3);
      split.entry_wait.add(static_cast<double>(sink - recv) / 1e3);
      split.e2e.add(static_cast<double>(sink - sched) / 1e3);
    }
  }
}

void split_metrics(Split& split, const std::string& tag, Result& result) {
  result.check(split.e2e.count() == split.expected,
               "trace covers " + std::to_string(split.e2e.count()) + " of " +
                   std::to_string(split.expected) + " " + tag + " messages");
  const double sum =
      split.exit_wait.mean() + split.wire.mean() + split.entry_wait.mean();
  result.check(std::fabs(sum - split.e2e.mean()) <= 0.01 * split.e2e.mean(),
               "traced segments do not add up to the " + tag + " latency");
  const std::pair<const char*, Dist*> parts[] = {
      {"dist.exit_wait_", &split.exit_wait},
      {"dist.entry_wait_", &split.entry_wait},
      {"comm.wire_", &split.wire}};
  for (const auto& [prefix, samples] : parts) {
    const std::string base = prefix + tag;
    result.set(base + "_p50_us", samples->median());
    result.set(base + "_p99_us", samples->pct(99));
    result.set(base + "_mean_us", samples->mean());
  }
  result.set("trace.e2e_" + tag + "_mean_us", split.e2e.mean());
}

/// Whole-round data-plane and transport counters of node a (sender) and b.
void counters_round(Cluster& cluster, Totals& t) {
  const auto dp = cluster.a->application().monitor().data_plane().snapshot();
  t.sum["overflow_drops"] += static_cast<double>(dp.overflow_drops);
  t.sum["send_failures"] += static_cast<double>(dp.send_failures);
  t.sum["entry_drops"] +=
      static_cast<double>(cluster.b->gateway_stats().entry_dropped);
  t.sum["sent"] += static_cast<double>(dp.sent);
  t.sum["batches"] += static_cast<double>(dp.batches);
  t.sum["ring_frames"] += static_cast<double>(dp.ring_frames);
  t.sum["bytes_copied"] += static_cast<double>(dp.bytes_copied);
  t.sum["pool_misses"] += static_cast<double>(dp.pool_misses);
  t.peak_queue =
      std::max(t.peak_queue, static_cast<double>(
                                 cluster.a->data_plane().stats()
                                     .peak_queue_depth));
  if (cluster.tap_a != nullptr) {
    t.sum["send_ns"] += cluster.tap_a->send_ns();
    t.sum["send_frames"] += cluster.tap_a->send_frames();
    t.sum["recv_ns"] += cluster.tap_b->recv_ns();
    t.sum["recv_frames"] += cluster.tap_b->recv_frames();
  }
}

void counter_metrics(Totals& t, Result& result) {
  result.set("dist.overflow_drops", t.sum["overflow_drops"]);
  result.set("dist.send_failures", t.sum["send_failures"]);
  result.set("dist.entry_drops", t.sum["entry_drops"]);
  result.set("dist.peak_queue_depth", t.peak_queue);
  result.set("dist.inbox_depth_max", t.inbox_max);
  result.set("comm.ring_frame_share",
             ratio(t.sum["ring_frames"], t.sum["batches"]));
  result.set("comm.bytes_copied_per_msg",
             ratio(t.sum["bytes_copied"], t.sum["sent"]));
  result.set("comm.pool_misses_per_msg",
             ratio(t.sum["pool_misses"], t.sum["sent"]));
  result.set("comm.send_ns_per_frame",
             ratio(t.sum["send_ns"], t.sum["send_frames"]));
  result.set("comm.recv_ns_per_frame",
             ratio(t.sum["recv_ns"], t.sum["recv_frames"]));
}

/// Sleeps until `t`; when `cluster` is given, samples node b's inbox depth
/// every millisecond on the way (traced runs only).
void wait_until(std::int64_t t, Cluster* cluster, double& inbox_max) {
  if (cluster == nullptr) {
    sleep_until_ns(t);
    return;
  }
  while (now_ns() < t) {
    inbox_max = std::max(inbox_max,
                         static_cast<double>(cluster->b->inbox_depth()));
    sleep_until_ns(std::min(t, now_ns() + 1'000'000));
  }
}

std::int64_t wait_anchor(const Cluster& cluster) {
  const std::int64_t give_up = now_ns() + 2'000'000'000;
  while (cluster.sources[0]->anchor() == 0) {
    if (now_ns() > give_up) throw std::runtime_error("producers never ran");
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return cluster.sources[0]->anchor();
}

std::array<std::uint64_t, kRoutes> trace_sizes(const Schedule& schedule,
                                               Phase last) {
  std::array<std::uint64_t, kRoutes> sizes{};
  for (std::size_t r = 0; r < kRoutes; ++r) {
    sizes[r] = schedule.end_seq(r, last);
  }
  return sizes;
}

/// Books a cluster's set-up split; returns its total set-up seconds.
double add_setup(const Cluster& cluster, Totals& t) {
  t.assemble.push_back(cluster.assemble_s);
  t.link.push_back(cluster.link_s);
  return cluster.assemble_s + cluster.link_s;
}

// ---- stream_tcp / stream_shm ------------------------------------------------------

/// One round: low (4k msg/s offered), high (200k) and sat (2M) phases after
/// a warm-up, separated by drain gaps so each fixed-rate phase is checked
/// on its own.
void stream_round(const RunOptions& opt, bool shm, int round,
                  const model::Architecture& arch,
                  const validate::NodeMap& map, Totals& t, Result& result) {
  const std::uint64_t phase_ms = ms(opt.seconds / kStreamRounds / 3.0);
  const Schedule schedule(round_seed(opt.seed, round),
                          {{kWarm, 1, kWarmMs},
                           {kLow, 1, phase_ms},
                           {kGap, 0, kGapMs},
                           {kHigh, 50, phase_ms},
                           {kGap, 0, kGapMs},
                           {kSat, 500, phase_ms},
                           {kGap, 0, kDrainMs}});
  Recorder recorder;
  std::unique_ptr<Trace> trace;
  if (opt.trace && !shm) {
    trace = std::make_unique<Trace>(trace_sizes(schedule, kHigh));
  }
  ClusterSpec spec;
  spec.shm = shm;
  spec.run_ms = static_cast<std::int64_t>(schedule.releases()) + 50;
  spec.trace = trace.get();
  auto cluster = launch(arch, map, spec, schedule, recorder);
  const double setup_s = add_setup(*cluster, t);

  const std::int64_t anchor = wait_anchor(*cluster);
  const auto at = [&](std::uint64_t k) {
    return anchor + static_cast<std::int64_t>(k) * kPeriodNs;
  };
  Cluster* sampled = opt.trace ? cluster.get() : nullptr;
  std::map<Phase, std::pair<Mark, Mark>> marks;
  for (const Phase p : {kLow, kHigh, kSat}) {
    const auto [first, end] = schedule.range(p);
    wait_until(at(first), sampled, t.inbox_max);
    marks[p].first = mark(*cluster);
    wait_until(at(end), sampled, t.inbox_max);
    marks[p].second = mark(*cluster);
  }
  cluster->finish();
  g_recorder = nullptr;

  check_stream(*cluster, schedule, recorder, result);
  if (shm) {
    result.check(cluster->a->shm_linked("b") && cluster->b->shm_linked("a"),
                 "shm ring not in use");
  }
  const auto [sat_first, sat_end] = schedule.range(kSat);
  const double sat_s = static_cast<double>(sat_end - sat_first) / 1e3;
  const auto delivered_sat =
      static_cast<double>(recorder.delivered_total(kSat));
  Dist& low = recorder.latency_us[kLow];
  Dist& high = recorder.latency_us[kHigh];
  add_round(round, setup_s, low, high, delivered_sat / sat_s, opt.trace, t);
  if (!opt.trace) return;

  release_round(*cluster, schedule.range(kLow), schedule.range(kHigh), t);
  add_window(marks[kLow].first, marks[kLow].second, 0, t);
  add_window(marks[kHigh].first, marks[kHigh].second, 1, t);
  using Snap = monitor::DataPlaneCounters::Snapshot;
  const auto delta = [&](Phase p, std::uint64_t Snap::*field) {
    return static_cast<double>(marks[p].second.dp.*field -
                               marks[p].first.dp.*field);
  };
  t.sum["load.sent"] += delta(kHigh, &Snap::sent);
  t.sum["load.batches"] += delta(kHigh, &Snap::batches);
  t.sum["sat.sent"] += delta(kSat, &Snap::sent);
  t.sum["sat.batches"] += delta(kSat, &Snap::batches);
  t.sum["lat.deadline_flushes"] += delta(kLow, &Snap::deadline_flushes);
  t.sum["lat.size_flushes"] += delta(kLow, &Snap::size_flushes);
  t.sum["sat.offered"] += static_cast<double>(schedule.offered(kSat));
  t.sum["sat.s"] += sat_s;
  t.sum["sat.delivered"] += delivered_sat;
  counters_round(*cluster, t);
  if (trace != nullptr) {
    split_round(*trace, schedule, kLow, t.split[0]);
    split_round(*trace, schedule, kHigh, t.split[1]);
  }
}

void run_stream(const RunOptions& opt, bool shm, Result& result) {
  const auto arch = make_stream_arch("S0", kStreamBuffer);
  const auto map = make_map();
  Totals t;
  for (int round = 0; round < kStreamRounds; ++round) {
    stream_round(opt, shm, round, arch, map, t, result);
  }
  common_metrics(t, opt.trace, result);
  if (!opt.trace) return;
  result.set("diag.offered_per_s", ratio(t.sum["sat.offered"], t.sum["sat.s"]));
  result.set("dist.msgs_per_frame_load",
             ratio(t.sum["load.sent"], t.sum["load.batches"]));
  result.set("dist.msgs_per_frame_sat",
             ratio(t.sum["sat.sent"], t.sum["sat.batches"]));
  result.set("dist.deadline_flush_share",
             ratio(t.sum["lat.deadline_flushes"],
                   t.sum["lat.deadline_flushes"] + t.sum["lat.size_flushes"]));
  result.set("dist.sat_drop_ratio",
             ratio(t.sum["sat.offered"] - t.sum["sat.delivered"],
                   t.sum["sat.offered"]));
  counter_metrics(t, result);
  if (!shm) {
    split_metrics(t.split[0], "lat", result);
    split_metrics(t.split[1], "load", result);
  }
}

// ---- reconfig_live ----------------------------------------------------------------

/// One round: the low-rate TCP stream while the coordinator swaps S0 <->
/// S0b every 10 ms (the churn phase), then back to back (the capacity
/// phase).
void reconfig_round(const RunOptions& opt, int round,
                    const model::Architecture& arch_a,
                    const model::Architecture& arch_b,
                    const validate::NodeMap& map, Totals& t, Result& result) {
  const double round_s = opt.seconds / kReconfigRounds;
  const Schedule schedule(round_seed(opt.seed, round),
                          {{kWarm, 1, kWarmMs},
                           {kLow, 1, ms(round_s * 0.8)},
                           {kCap, 1, ms(round_s * 0.2)},
                           {kGap, 0, kGapMs}});
  Recorder recorder;
  std::unique_ptr<Trace> trace;
  std::vector<ControlEvent> events;
  if (opt.trace) {
    trace = std::make_unique<Trace>(trace_sizes(schedule, kCap));
    events.reserve(1 << 14);
  }
  ClusterSpec spec;
  spec.control = true;
  spec.run_ms = static_cast<std::int64_t>(schedule.releases()) + 50;
  spec.trace = trace.get();
  spec.control_events = opt.trace ? &events : nullptr;
  auto cluster = launch(arch_a, map, spec, schedule, recorder);
  const double setup_s = add_setup(*cluster, t);
  dist::ReconfigCoordinator& coordinator = *cluster->coordinator;

  const std::int64_t anchor = wait_anchor(*cluster);
  const auto at = [&](std::uint64_t k) {
    return anchor + static_cast<std::int64_t>(k) * kPeriodNs;
  };
  Dist commit_us;
  std::uint64_t epoch = 0;
  bool on_b = false;
  const auto commit = [&](bool timed) {
    const std::size_t first_event = events.size();
    const std::int64_t t0 = now_ns();
    const auto outcome = coordinator.coordinate_reload(on_b ? arch_a : arch_b);
    const std::int64_t t1 = now_ns();
    ++result.attempted;
    if (!outcome.committed) {
      ++result.failed;
      result.check(false, "commit aborted: " + outcome.reason);
      return;
    }
    on_b = !on_b;
    bool agree = outcome.nodes.size() == 2;
    for (const auto& node : outcome.nodes) {
      agree = agree && node.committed &&
              node.epoch == outcome.nodes.front().epoch &&
              (epoch == 0 || node.epoch == epoch + 1);
      if (timed) t.park.add(static_cast<double>(node.latency_ns) / 1e3);
    }
    if (!agree) {
      ++result.failed;
      result.check(false, "commit " + std::to_string(outcome.txn) +
                              ": node epochs disagree");
    }
    if (!outcome.nodes.empty()) epoch = outcome.nodes.front().epoch;
    if (!timed) return;
    commit_us.add(static_cast<double>(t1 - t0) / 1e3);
    if (!opt.trace) return;
    // Control-channel stamps of this transaction, in order.
    using FT = dist::FrameType;
    std::int64_t prepare_out = 0, last_vote = 0, decision_out = 0,
                 last_ack = 0;
    double bytes = 0.0;
    for (std::size_t i = first_event; i < events.size(); ++i) {
      const ControlEvent& e = events[i];
      switch (static_cast<FT>(e.type)) {
        case FT::PrepareReload:
          if (prepare_out == 0) prepare_out = e.t;
          bytes += static_cast<double>(e.bytes);
          break;
        case FT::PrepareOk:
        case FT::PrepareFail:
          last_vote = e.t;
          break;
        case FT::Commit:
        case FT::Abort:
          if (decision_out == 0) decision_out = e.t;
          break;
        case FT::Committed:
        case FT::Aborted:
          last_ack = e.t;
          break;
        default:
          break;
      }
    }
    t.plan.add(static_cast<double>(prepare_out - t0) / 1e3);
    t.prepare.add(static_cast<double>(last_vote - prepare_out) / 1e3);
    t.decide.add(static_cast<double>(last_ack - decision_out) / 1e3);
    t.prepare_bytes.add(bytes);
    events.clear();
  };

  const auto [low_first, low_end] = schedule.range(kLow);
  const auto [cap_first, cap_end] = schedule.range(kCap);
  sleep_until_ns(at(low_first));
  const Mark low_begin = mark(*cluster);
  // Fixed cadence; a commit that overruns its slot delays the next one
  // instead of triggering a catch-up burst.
  Cluster* sampled = opt.trace ? cluster.get() : nullptr;
  for (std::int64_t tick = at(low_first); tick < at(low_end);
       tick = std::max(tick + kCommitCadenceNs, now_ns())) {
    wait_until(tick, sampled, t.inbox_max);
    commit(true);
  }
  const Mark low_close = mark(*cluster);
  sleep_until_ns(at(cap_first));
  const std::int64_t cap_begin = now_ns();
  std::uint64_t cap_commits = 0;
  while (now_ns() < at(cap_end)) {
    commit(false);
    ++cap_commits;
  }
  const double cap_s = static_cast<double>(now_ns() - cap_begin) / 1e9;
  cluster->finish();
  g_recorder = nullptr;

  check_stream(*cluster, schedule, recorder, result);
  Dist& stream = recorder.latency_us[kLow];
  add_round(round, setup_s, commit_us, stream,
            static_cast<double>(cap_commits) / cap_s, opt.trace, t);
  if (!opt.trace) return;

  release_round(*cluster, schedule.range(kLow), schedule.range(kLow), t);
  add_window(low_begin, low_close, 0, t);
  add_window(low_begin, low_close, 1, t);
  t.sum["lat.deadline_flushes"] += static_cast<double>(
      low_close.dp.deadline_flushes - low_begin.dp.deadline_flushes);
  t.sum["lat.size_flushes"] += static_cast<double>(
      low_close.dp.size_flushes - low_begin.dp.size_flushes);
  t.sum["offered"] += static_cast<double>(schedule.offered(kLow));
  t.sum["offered_s"] += static_cast<double>(low_end - low_first) / 1e3;
  counters_round(*cluster, t);
  split_round(*trace, schedule, kLow, t.split[1]);
}

void run_reconfig(const RunOptions& opt, Result& result) {
  const auto arch_a = make_stream_arch("S0", kReconfigBuffer);
  const auto arch_b = make_stream_arch("S0b", kReconfigBuffer);
  const auto map = make_map();
  Totals t;
  for (int round = 0; round < kReconfigRounds; ++round) {
    reconfig_round(opt, round, arch_a, arch_b, map, t, result);
  }
  common_metrics(t, opt.trace, result);
  if (!opt.trace) return;
  result.set("diag.offered_per_s", ratio(t.sum["offered"], t.sum["offered_s"]));
  result.set("dist.deadline_flush_share",
             ratio(t.sum["lat.deadline_flushes"],
                   t.sum["lat.deadline_flushes"] + t.sum["lat.size_flushes"]));
  counter_metrics(t, result);
  split_metrics(t.split[1], "load", result);
  result.set("reconfig.plan_us", t.plan.median());
  result.set("reconfig.prepare_us", t.prepare.median());
  result.set("reconfig.decide_us", t.decide.median());
  result.set("reconfig.node_park_p50_us", t.park.median());
  result.set("reconfig.node_park_p99_us", t.park.pct(99));
  result.set("reconfig.prepare_bytes", t.prepare_bytes.median());
}

// ---- local_pipeline -----------------------------------------------------------------

/// The four §5.1 variants pooled over rounds: OO, SOLEIL, MERGE_ALL,
/// ULTRA_MERGE per-transaction times; SOLEIL's burst times, throughput and
/// activations.
struct PipelineTotals {
  std::array<Dist, 4> txn_ns;
  Dist burst_us;  ///< SOLEIL: k releases queued, then one pump.
  double block_txns = 0.0;
  double block_ns = 0.0;
  double activations = 0.0;
  double activation_txns = 0.0;

  void append(const PipelineTotals& o) {
    for (std::size_t v = 0; v < txn_ns.size(); ++v) {
      txn_ns[v].append(o.txn_ns[v]);
    }
    burst_us.append(o.burst_us);
    block_txns += o.block_txns;
    block_ns += o.block_ns;
    activations += o.activations;
    activation_txns += o.activation_txns;
  }
};

/// Interleaves the four variants in sub-rounds whose variant order comes
/// from the seed, so host drift hits every variant alike. Per variant and
/// sub-round: single transactions, each timed on its own; an untimed block
/// (SOLEIL's throughput); and bursts of 1-10 releases (sizes from the seed,
/// at most the pipeline's 10-deep buffers) drained by one pump, each timed
/// whole — the pipeline absorbing queued work.
void pipeline_round(double seconds, std::uint64_t seed, PipelineTotals& p,
                    Result& result) {
  constexpr int kTimed = 25;
  constexpr int kBlock = 1000;
  constexpr int kBursts = 5;
  baseline::OoApplication oo;
  const auto arch = scenario::make_production_architecture();
  const soleil::Mode modes[3] = {soleil::Mode::Soleil, soleil::Mode::MergeAll,
                                 soleil::Mode::UltraMerge};
  std::unique_ptr<soleil::Application> apps[3];
  std::function<void()> release[3];
  for (int i = 0; i < 3; ++i) {
    apps[i] = soleil::build_application(arch, modes[i]);
    apps[i]->start();
    release[i] = apps[i]->release_fn("ProductionLine");
  }
  // burst(v, k): k transactions of variant v, released before any runs.
  const auto burst = [&](int v, std::uint64_t k) {
    if (v == 0) {
      for (std::uint64_t i = 0; i < k; ++i) oo.iterate();
      return;
    }
    for (std::uint64_t i = 0; i < k; ++i) release[v - 1]();
    apps[v - 1]->pump();
  };
  adversity::Rng rng = adversity::Rng(seed).split("pipeline");
  const std::uint64_t warm = 20'000 + rng.range(0, 9'999);
  for (int v = 0; v < 4; ++v) {
    for (std::uint64_t i = 0; i < warm; ++i) burst(v, 1);
  }
  const std::uint64_t activations0 =
      apps[0]->activation_manager().activation_count();
  std::uint64_t rounds = 0;
  std::uint64_t burst_txns = 0;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  std::array<int, 4> order = {0, 1, 2, 3};
  std::array<std::uint64_t, kBursts> sizes{};
  while (now_ns() < deadline) {
    for (int i = 3; i > 0; --i) {
      std::swap(order[i], order[rng.range(0, static_cast<std::uint64_t>(i))]);
    }
    for (auto& k : sizes) {
      k = rng.range(1, 10);
      burst_txns += k;
    }
    for (const int v : order) {
      for (int i = 0; i < kTimed; ++i) {
        const std::int64_t t0 = now_ns();
        burst(v, 1);
        p.txn_ns[v].add(static_cast<double>(now_ns() - t0));
      }
      const std::int64_t t0 = now_ns();
      for (int i = 0; i < kBlock; ++i) burst(v, 1);
      const std::int64_t t1 = now_ns();
      if (v == 1) p.block_ns += static_cast<double>(t1 - t0);
      for (const std::uint64_t k : sizes) {
        const std::int64_t b0 = now_ns();
        burst(v, k);
        if (v == 1) p.burst_us.add(static_cast<double>(now_ns() - b0) / 1e3);
      }
    }
    ++rounds;
  }
  const std::uint64_t measured = rounds * (kTimed + kBlock) + burst_txns;
  const std::uint64_t txns = warm + measured;
  p.block_txns += static_cast<double>(rounds * kBlock);
  p.activations += static_cast<double>(
      apps[0]->activation_manager().activation_count() - activations0);
  p.activation_txns += static_cast<double>(measured);

  // Every variant ran the same transactions: the framework variants must
  // compute exactly what the hand-written baseline computes.
  const scenario::ScenarioCounters reference = oo.counters();
  result.attempted += 4 * txns;
  result.check(reference.produced == txns && reference.processed == txns &&
                   reference.audit_records == txns &&
                   reference.console_reports == reference.anomalies,
               "OO baseline counters do not match the transaction count");
  for (int i = 0; i < 3; ++i) {
    const auto counters = scenario::collect_counters(*apps[i]);
    if (counters != reference) {
      result.failed += txns;
      result.check(false, std::string(apps[i]->mode_name()) +
                              " counters differ from the OO baseline");
    }
    apps[i]->stop();
  }
}

void pipeline_metrics(PipelineTotals& p, Result& result) {
  const double oo = p.txn_ns[0].median();
  const double soleil = p.txn_ns[1].median();
  const double merge = p.txn_ns[2].median();
  result.set("soleil.oo_p50_ns", oo);
  result.set("soleil.soleil_p50_ns", soleil);
  result.set("soleil.merge_all_p50_ns", merge);
  result.set("soleil.ultra_merge_p50_ns", p.txn_ns[3].median());
  result.set("soleil.membrane_ns", soleil - merge);
  result.set("soleil.vs_oo", ratio(soleil, oo));
  result.set("soleil.activations_per_txn",
             ratio(p.activations, p.activation_txns));
}

/// One round: set-ups of the SOLEIL application, then the closed loop on
/// fresh applications.
void local_round(const RunOptions& opt, int round,
                 const model::Architecture& arch, PipelineTotals& p,
                 Totals& t, Result& result) {
  constexpr int kSetups = 5;
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    const std::int64_t t0 = now_ns();
    auto app = soleil::build_application(arch, soleil::Mode::Soleil);
    const std::int64_t t1 = now_ns();
    app->start();
    const std::int64_t t2 = now_ns();
    app->stop();
    setups.push_back(static_cast<double>(t2 - t0) / 1e9);
    t.assemble.push_back(static_cast<double>(t1 - t0) / 1e9);
    t.link.push_back(static_cast<double>(t2 - t1) / 1e9);
  }
  const double cpu0 = cpu_seconds();
  const std::int64_t wall0 = now_ns();
  PipelineTotals mine;
  pipeline_round(opt.seconds / kLocalRounds, round_seed(opt.seed, round), mine,
                 result);
  for (const int window : {0, 1}) {
    t.cpu[window] += cpu_seconds() - cpu0;
    t.wall[window] += static_cast<double>(now_ns() - wall0) / 1e9;
  }
  Dist soleil_us;
  for (const double ns : mine.txn_ns[1].samples()) soleil_us.add(ns / 1e3);
  add_round(round, median_of(setups), soleil_us, mine.burst_us,
            ratio(mine.block_txns, mine.block_ns / 1e9), opt.trace, t);
  if (opt.trace) p.append(mine);
}

void run_local(const RunOptions& opt, Result& result) {
  const auto arch = scenario::make_production_architecture();
  PipelineTotals p;
  Totals t;
  for (int round = 0; round < kLocalRounds; ++round) {
    local_round(opt, round, arch, p, t, result);
  }
  common_metrics(t, opt.trace, result);
  if (opt.trace) pipeline_metrics(p, result);
}

// ---- standalone timings of single layers (traced runs) -----------------------

/// Median over `reps` timed calls of `fn`, in microseconds.
double median_call_us(int reps, const std::function<void()>& fn) {
  std::vector<double> us;
  for (int i = 0; i < reps; ++i) {
    const std::int64_t t0 = now_ns();
    fn();
    us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  return median_of(us);
}

/// Remote delivery on node b without the wire: entry inject + pump.
double inject_ns() {
  constexpr int kMessages = 20'000;
  const auto global = make_stream_arch("S0", kStreamBuffer);
  dist::NodeRuntime node(global, make_map(), "b");
  auto* entry = dynamic_cast<dist::GatewayEntryContent*>(
      node.application().content(dist::gateway_entry_name("P0", "out")));
  if (entry == nullptr) throw std::runtime_error("no entry gateway");
  Recorder scratch;
  g_recorder = &scratch;
  comm::Message m;
  m.type_id = kLow;
  m.store(std::uint32_t{0});
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < kMessages; ++i) {
    m.sequence = static_cast<std::uint64_t>(i) + 1;
    entry->inject("out", m);
    node.application().pump();
  }
  const std::int64_t t1 = now_ns();
  g_recorder = nullptr;
  if (scratch.delivered[0][kLow] != kMessages) {
    throw std::runtime_error("standalone inject lost messages");
  }
  return static_cast<double>(t1 - t0) / kMessages;
}

/// Exit-side data plane over an in-process channel: offer (enqueue) and
/// one forced flush of the whole queue, per message.
void dataplane_timings(Result& result) {
  constexpr int kRounds = 200;
  constexpr int kMessages = 1000;
  dist::DataPlaneConfig config;
  config.batch_max = 4096;
  config.route_queue_cap = 4096;
  config.credit_window = std::uint64_t{1} << 40;
  config.flush_interval = rtsj::RelativeTime::seconds(10);
  dist::DataPlane plane(config);
  plane.set_peer_version("b", dist::kProtocolVersion);
  auto [near, far] = comm::LoopbackChannel::make_pair();
  const std::size_t route = plane.add_route("P0", "out", near, "b");
  comm::Message m;
  m.store(std::uint32_t{0});
  std::int64_t offer_ns = 0;
  std::int64_t flush_ns = 0;
  comm::Frame frame;
  for (int round = 0; round < kRounds; ++round) {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kMessages; ++i) {
      m.sequence = static_cast<std::uint64_t>(i);
      plane.offer(route, m);
    }
    const std::int64_t t1 = now_ns();
    plane.flush(true);
    const std::int64_t t2 = now_ns();
    offer_ns += t1 - t0;
    flush_ns += t2 - t1;
    while (far->receive(frame, rtsj::RelativeTime::zero())) {
    }
  }
  const double n = static_cast<double>(kRounds) * kMessages;
  result.set("dist.offer_ns", static_cast<double>(offer_ns) / n);
  result.set("dist.flush_ns_per_msg", static_cast<double>(flush_ns) / n);

  // Receive side: decode a four-route, 256-message BATCH in place.
  dist::BatchPayload payload;
  for (std::size_t r = 0; r < kRoutes; ++r) {
    dist::BatchRoute block;
    block.client = "P" + std::to_string(r);
    block.port = "out";
    block.messages.assign(64, m);
    payload.routes.push_back(std::move(block));
  }
  const comm::Frame batch = dist::make_batch(payload);
  std::uint64_t decoded = 0;
  const std::int64_t t0 = now_ns();
  for (int round = 0; round < 2000; ++round) {
    dist::BatchView view(batch.payload);
    dist::BatchView::Route r;
    comm::Message out;
    while (view.next_route(r)) {
      for (std::uint32_t i = 0; i < r.messages; ++i) {
        view.next_message(out);
        decoded += out.sequence == m.sequence ? 1 : 0;
      }
    }
  }
  const std::int64_t t1 = now_ns();
  result.set("dist.batch_decode_ns_per_msg",
             static_cast<double>(t1 - t0) / (2000.0 * 4 * 64));
  result.check(decoded == 2000u * 4 * 64, "standalone BATCH decode mismatch");
}

/// The coordinator's and a node's planning steps for one S0 -> S0b swap.
void reconfig_step_timings(Result& result) {
  constexpr int kReps = 200;
  const auto arch_a = make_stream_arch("S0", kReconfigBuffer);
  const auto arch_b = make_stream_arch("S0b", kReconfigBuffer);
  const auto map = make_map();
  result.set("validate.rules_us",
             median_call_us(kReps, [&] { (void)validate::validate(arch_b); }));
  result.set("dist.slice_us", median_call_us(kReps, [&] {
               (void)dist::slice_architecture(arch_b, map, "b");
             }));
  const auto running =
      soleil::snapshot_assembly(dist::slice_architecture(arch_a, map, "b"));
  const auto target =
      soleil::snapshot_assembly(dist::slice_architecture(arch_b, map, "b"));
  result.set("reconfig.diff_us", median_call_us(kReps, [&] {
               (void)reconfig::diff_plans(running, target);
             }));
  const auto delta = reconfig::diff_plans(running, target);
  result.set("reconfig.delta_rules_us", median_call_us(kReps, [&] {
               validate::Report report;
               reconfig::check_delta_rules(delta, running, target, report);
             }));
  result.set("dist.plan_encode_us", median_call_us(kReps, [&] {
               (void)dist::encode_plan(target);
             }));
}

// ---- main ---------------------------------------------------------------------------

void print(const Result& result, bool trace) {
  std::string json = "{\"correct\": ";
  json += result.errors.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  char number[64];
  const auto emit = [&](const MetricDef& def) {
    const auto it = result.metrics.find(def.name);
    double value = it == result.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) value = 0.0;
    std::snprintf(number, sizeof(number), "%.10g", value);
    std::printf("%-34s %16s %s\n", def.name, number, def.unit);
    json += first ? "" : ", ";
    json += std::string("\"") + def.name + "\": {\"value\": " + number +
            ", \"unit\": \"" + def.unit + "\"}";
    first = false;
  };
  if (trace) {
    for (const auto& def : kPerLayer) emit(def);
  } else {
    for (const auto& def : kEndToEnd) emit(def);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload <local_pipeline|stream_tcp|"
               "stream_shm|reconfig_live> --seed <n> [--seconds <s>] "
               "[--trace <0|1>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      opt.trace = true;
      if (has_value && (std::strcmp(argv[i + 1], "0") == 0 ||
                        std::strcmp(argv[i + 1], "1") == 0)) {
        opt.trace = argv[++i][0] == '1';
      }
    } else {
      return usage();
    }
  }
  if (!(opt.seconds >= 1.0 && opt.seconds <= 600.0)) return usage();

  Result result;
  try {
    if (opt.workload == "local_pipeline") {
      run_local(opt, result);
    } else if (opt.workload == "stream_tcp") {
      run_stream(opt, /*shm=*/false, result);
    } else if (opt.workload == "stream_shm") {
      run_stream(opt, /*shm=*/true, result);
    } else if (opt.workload == "reconfig_live") {
      run_reconfig(opt, result);
    } else {
      return usage();
    }
    if (opt.trace) {
      if (opt.workload != "local_pipeline") {
        PipelineTotals pipeline;
        pipeline_round(0.3, opt.seed, pipeline, result);
        pipeline_metrics(pipeline, result);
      }
      result.set("soleil.inject_ns", inject_ns());
      dataplane_timings(result);
      reconfig_step_timings(result);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
  if (!opt.trace) {
    for (const auto& def : kEndToEnd) {
      result.check(result.metrics.count(def.name) != 0 &&
                       result.metrics.at(def.name) > 0.0,
                   std::string("metric not measured: ") + def.name);
    }
  }
  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "check failed: %s\n", error.c_str());
  }
  print(result, opt.trace);
  return result.errors.empty() ? 0 : 1;
}
