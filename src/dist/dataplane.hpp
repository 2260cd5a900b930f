// The gateway data plane: per-route batching and credit-based flow
// control for bridged asynchronous bindings (docs/DATAPLANE.md is the
// normative spec).
//
// Exit gateways offer() messages into bounded per-route queues; flush()
// coalesces everything pending toward a peer into one BATCH frame per
// channel, triggered by queue depth (batch_max) or by the next flush()
// call (the node runtime's dispatch boundary) once the oldest message is
// flush_interval old — with the default zero interval, every boundary
// sends what the dispatch round before it queued.
// A per-route credit window caps how many messages may be on the wire
// ahead of the consuming entry gateway: the entry side grants credits
// back (CREDIT frames) as it injects, so a slow node backpressures the
// bridge into the route queue, and overflow is decided *at the route*
// (drop-newest, mirroring the local bounded buffer's policy) instead of
// inside a wedged TCP write. Every route batches from its first message;
// a peer whose HELLO announces another protocol version is rejected.
//
// Each data-plane event is one write into a monitor::DataPlaneCounters
// block — the plane's own until set_counters() attaches the runtime
// monitor's — and stats() reads that same block.
//
// Threading discipline (the channel contracts depend on it): every
// channel WRITE — batch flush, CREDIT grant — happens on the executive
// thread (offer/flush from the launcher boundary hook, note_injected from
// the inbox drain, or the single-threaded stop() drain). The serve thread
// only tops up credits (on_credit) and records HELLO versions
// (set_peer_version) under the internal mutex, then wakes the executive
// to do the writing. One writer per channel is exactly what keeps the
// shm-ring transport SPSC.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "comm/buffer_pool.hpp"
#include "comm/channel.hpp"
#include "comm/message.hpp"
#include "dist/protocol.hpp"
#include "monitor/runtime_monitor.hpp"

namespace rtcf::dist {

/// Data-plane tuning knobs (docs/DATAPLANE.md §6 is the runbook).
struct DataPlaneConfig {
  /// Queue depth at which a route flushes immediately (size flush).
  std::size_t batch_max = 32;
  /// Age a route's oldest queued message must reach before flush(false)
  /// sends the route (deadline flush). Zero, the default, sends whatever
  /// is queued at every flush(false) — the dispatch boundary after each
  /// round — so batching coalesces what one round produced and adds no
  /// wait. A nonzero interval holds a trickle back to build larger
  /// frames, adding up to this much latency.
  rtsj::RelativeTime flush_interval = rtsj::RelativeTime::zero();
  /// Initial per-route sender credit: messages allowed on the wire ahead
  /// of the entry side's grants. Zero disables sending entirely (useful
  /// only in tests).
  std::uint64_t credit_window = 256;
  /// Bound on a route's send queue; the newest message is dropped when
  /// it is full (the bounded-buffer drop-newest policy, decided here).
  std::size_t route_queue_cap = 1024;
};

/// The per-node data plane: exit routes (sending side) and entry routes
/// (credit-granting side), owned by the NodeRuntime.
class DataPlane {
 public:
  /// What became of an offered message.
  enum class Offer {
    Sent,     ///< On the wire (the offer triggered a size flush).
    Queued,   ///< Accepted, waiting for a flush or for credit.
    Dropped,  ///< Unrouted, rejected peer, queue full, or the channel
              ///< refused it.
  };

  /// A data plane with the given knobs.
  explicit DataPlane(DataPlaneConfig config = {}) : config_(config) {}

  DataPlane(const DataPlane&) = delete;
  DataPlane& operator=(const DataPlane&) = delete;

  /// Writes every counter into `counters` (non-null; the runtime
  /// monitor's block) from now on. Attach before traffic: counts already
  /// taken stay in the previous block.
  void set_counters(monitor::DataPlaneCounters* counters);

  /// The HELLO version check. A `version` other than kProtocolVersion
  /// closes every route toward `peer` (offers are Dropped, queues kept)
  /// and counts `version_mismatches`; kProtocolVersion re-opens them.
  /// Peers that never announced a version are assumed current.
  void set_peer_version(const std::string& peer, std::uint16_t version);

  /// Deactivates every route (null channel) without forgetting it: queued
  /// messages and credit balances survive a route-table refresh, and
  /// add_route() with the same (client, port) re-activates in place.
  void clear_routes();
  /// Registers/re-activates the exit route for (client, port) toward
  /// `peer` over `channel` (null = stays inactive). Returns the stable
  /// route id offer() takes.
  std::size_t add_route(const std::string& client, const std::string& port,
                        std::shared_ptr<comm::Channel> channel,
                        const std::string& peer);
  /// Registers/re-activates the entry route for (client, port): grants
  /// flow back toward `peer` over `reverse` (the channel to the client's
  /// node). Returns the id note_injected() takes.
  std::size_t add_entry_route(const std::string& client,
                              const std::string& port,
                              std::shared_ptr<comm::Channel> reverse,
                              const std::string& peer);

  /// Offers one message to an exit route (executive thread). May write
  /// the channel (a size-triggered flush).
  Offer offer(std::size_t route, const comm::Message& message);

  /// Flushes pending queues (executive thread). Without `force`, every
  /// route whose oldest queued message is at least flush_interval old
  /// sends up to its credit balance; routes flushing toward the same
  /// channel share one BATCH frame. With `force` (the stop() drain, the
  /// PREPARE barrier) every open route is emptied regardless of credits,
  /// in frames of at most max(1, credit_window) messages per route — the
  /// largest frame a credit-bound flush builds, so a backlog never
  /// outgrows the transport (an shm ring refuses a record larger than
  /// itself). Returns the number of messages put on the wire.
  std::size_t flush(bool force);

  /// Credits granted by a peer's entry side (serve thread; no sends).
  void on_credit(const CreditPayload& credit);

  /// Records `n` messages consumed from the wire on an entry route
  /// (executive thread); sends a CREDIT grant once enough accumulate
  /// (max(1, credit_window / 2) — replenish-on-consume).
  void note_injected(std::size_t entry_route, std::uint64_t n = 1);

  /// Sends every pending grant regardless of threshold (stop() drain).
  /// Returns the number of CREDIT frames written.
  std::size_t grant_all();

  /// Counter snapshot (any thread): publishes the pool gauges into the
  /// counter block, then reads it — equal to the attached monitor's
  /// snapshot taken right after.
  monitor::DataPlaneCounters::Snapshot stats() const;
  /// The knobs this plane runs with.
  const DataPlaneConfig& config() const noexcept { return config_; }
  /// The payload buffer pool (shared with the owning runtime's receive
  /// path so send and inbox buffers recycle through one arena).
  comm::BufferPool& pool() noexcept { return pool_; }

 private:
  struct ExitRoute {
    std::string client;
    std::string port;
    std::string peer;
    std::shared_ptr<comm::Channel> channel;
    std::deque<comm::Message> queue;
    std::uint64_t credits = 0;
    rtsj::AbsoluteTime oldest{};  ///< Enqueue time of queue.front().
    bool active = false;  ///< Has a channel and the peer is not rejected.
  };

  struct EntryRoute {
    std::string client;
    std::string port;
    std::string peer;
    std::shared_ptr<comm::Channel> reverse;
    std::uint64_t pending = 0;  ///< Consumed but not yet granted.
    bool active = false;
  };

  /// One route's share of a staged flush: which route and how many
  /// messages from its queue front. Routes are staged by *index* — route
  /// storage may move if add_route grows exits_, indices are stable.
  struct StagedRoute {
    std::size_t route = 0;
    std::size_t take = 0;
  };

  /// One channel's share of a flush: every staged route that will encode
  /// into a single BATCH frame (mutex held). The group vector and its
  /// route vectors are reused across flushes so steady-state flushing
  /// does not allocate.
  struct FlushGroup {
    std::shared_ptr<comm::Channel> channel;
    std::vector<StagedRoute> routes;
    std::size_t messages = 0;
    std::size_t payload_bytes = 0;  ///< Sum of the routes' encoded sizes.
  };

  /// The active flush group for `channel`, creating one if needed
  /// (mutex held).
  FlushGroup& group_for(const std::shared_ptr<comm::Channel>& channel);
  /// Stages up to `limit` messages of `route` into its channel's group
  /// (mutex held): books credits/queued, but leaves the messages on the
  /// queue until send_groups() encodes them straight into the frame.
  /// Returns how many it staged.
  std::size_t stage_route(std::size_t route_index, std::size_t limit);
  /// Encodes and sends one BATCH frame per staged group — into reserved
  /// transport memory when the channel supports it, else through a pooled
  /// buffer — and books the stats (mutex held). Returns messages sent.
  std::size_t send_groups();
  /// Encodes one frame of `payload_size` bytes via `encode(WireSpan) ->
  /// used` and sends it with zero avoidable copies: reserved transport
  /// memory first, pooled buffer + scatter-gather send as the fallback
  /// (mutex held).
  template <typename Encode>
  bool send_encoded(comm::Channel& channel, FrameType type,
                    std::size_t payload_size, Encode&& encode);
  /// Sends one entry route's pending grant (mutex held). True on success.
  bool send_grant(EntryRoute& route);
  /// Publishes the pool's counters into the counter block (mutex held).
  void sync_pool_counters() const;

  const DataPlaneConfig config_;
  mutable std::mutex mutex_;
  std::vector<ExitRoute> exits_;
  std::vector<EntryRoute> entries_;
  std::map<std::pair<std::string, std::string>, std::size_t> exit_index_;
  std::map<std::pair<std::string, std::string>, std::size_t> entry_index_;
  /// Peers whose HELLO announced another protocol version.
  std::set<std::string> rejected_peers_;
  /// Staged flush groups; `group_count_` of them are live. Elements keep
  /// their vector capacity between flushes (a clear() would free it).
  std::vector<FlushGroup> groups_;
  std::size_t group_count_ = 0;
  comm::BufferPool pool_;
  monitor::DataPlaneCounters own_counters_;
  monitor::DataPlaneCounters* counters_ = &own_counters_;
};

}  // namespace rtcf::dist
