#include "dist/dataplane.hpp"

#include <algorithm>

#include "dist/batch_view.hpp"

namespace rtcf::dist {

namespace {
/// One counter write (relaxed: counters order nothing).
void add(std::atomic<std::uint64_t>& counter, std::uint64_t n = 1) {
  counter.fetch_add(n, std::memory_order_relaxed);
}
}  // namespace

void DataPlane::set_counters(monitor::DataPlaneCounters* counters) {
  const std::lock_guard<std::mutex> lock(mutex_);
  counters_ = counters;
}

void DataPlane::set_peer_version(const std::string& peer,
                                 std::uint16_t version) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const bool current = version == kProtocolVersion;
  if (current) {
    rejected_peers_.erase(peer);
  } else {
    rejected_peers_.insert(peer);
    add(counters_->version_mismatches);
  }
  for (ExitRoute& route : exits_) {
    if (route.peer == peer) route.active = current && route.channel != nullptr;
  }
}

void DataPlane::clear_routes() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (ExitRoute& route : exits_) {
    route.active = false;
    route.channel = nullptr;
  }
  for (EntryRoute& route : entries_) {
    route.active = false;
    route.reverse = nullptr;
  }
}

std::size_t DataPlane::add_route(const std::string& client,
                                 const std::string& port,
                                 std::shared_ptr<comm::Channel> channel,
                                 const std::string& peer) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto key = std::make_pair(client, port);
  auto it = exit_index_.find(key);
  if (it == exit_index_.end()) {
    ExitRoute route;
    route.client = client;
    route.port = port;
    route.credits = config_.credit_window;
    exits_.push_back(std::move(route));
    it = exit_index_.emplace(key, exits_.size() - 1).first;
  }
  ExitRoute& route = exits_[it->second];
  route.peer = peer;
  route.channel = std::move(channel);
  route.active =
      route.channel != nullptr && rejected_peers_.count(peer) == 0;
  return it->second;
}

std::size_t DataPlane::add_entry_route(const std::string& client,
                                       const std::string& port,
                                       std::shared_ptr<comm::Channel> reverse,
                                       const std::string& peer) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto key = std::make_pair(client, port);
  auto it = entry_index_.find(key);
  if (it == entry_index_.end()) {
    EntryRoute route;
    route.client = client;
    route.port = port;
    entries_.push_back(std::move(route));
    it = entry_index_.emplace(key, entries_.size() - 1).first;
  }
  EntryRoute& route = entries_[it->second];
  route.peer = peer;
  route.reverse = std::move(reverse);
  route.active = route.reverse != nullptr;
  return it->second;
}

template <typename Encode>
bool DataPlane::send_encoded(comm::Channel& channel, FrameType type,
                             std::size_t payload_size, Encode&& encode) {
  const std::uint16_t type16 = static_cast<std::uint16_t>(type);
  comm::FrameReservation reservation;
  if (channel.reserve_frame(type16, payload_size, reservation)) {
    // The frame is encoded where the transport wants it — in the shm
    // ring itself when the reservation did not wrap. commit publishes it.
    const std::size_t used =
        encode(WireSpan{reservation.data, reservation.size});
    const bool ok = channel.commit_frame(used);
    if (ok) {
      if (reservation.in_place) {
        add(counters_->ring_frames);
      } else {
        add(counters_->bytes_copied, used);
      }
    }
    return ok;
  }
  // No reservations on this transport: encode into a pooled buffer and
  // hand the span to the scatter-gather send — one staging copy total,
  // zero allocations once the pool is warm.
  std::vector<std::uint8_t> buffer = pool_.acquire(payload_size);
  const std::size_t used = encode(WireSpan{buffer.data(), buffer.size()});
  const comm::ByteSpan span{buffer.data(), used};
  const bool ok = channel.send_spans(type16, &span, 1);
  add(counters_->bytes_copied, used);
  pool_.release(std::move(buffer));
  sync_pool_counters();
  return ok;
}

void DataPlane::sync_pool_counters() const {
  const comm::BufferPool::Stats pool = pool_.stats();
  counters_->pool_hits.store(pool.hits, std::memory_order_relaxed);
  counters_->pool_misses.store(pool.misses, std::memory_order_relaxed);
  counters_->pool_high_water.store(pool.high_water,
                                   std::memory_order_relaxed);
}

DataPlane::Offer DataPlane::offer(std::size_t route_id,
                                  const comm::Message& message) {
  const std::lock_guard<std::mutex> lock(mutex_);
  add(counters_->offered);
  if (route_id >= exits_.size()) return Offer::Dropped;
  ExitRoute& route = exits_[route_id];
  if (!route.active) return Offer::Dropped;
  if (route.queue.size() >= config_.route_queue_cap) {
    // Overflow is decided here, at the route: drop-newest, the same
    // policy the local bounded buffer applies (docs/DATAPLANE.md §4).
    add(counters_->overflow_drops);
    return Offer::Dropped;
  }
  if (route.queue.empty()) {
    route.oldest = rtsj::SteadyClock::instance().now();
  }
  route.queue.push_back(message);
  add(counters_->queued);
  if (route.queue.size() >
      counters_->peak_queue_depth.load(std::memory_order_relaxed)) {
    counters_->peak_queue_depth.store(route.queue.size(),
                                      std::memory_order_relaxed);
  }
  if (route.queue.size() >= config_.batch_max && route.credits > 0) {
    add(counters_->size_flushes);
    stage_route(route_id, route.credits);
    send_groups();
    return exits_[route_id].queue.empty() ? Offer::Sent : Offer::Queued;
  }
  return Offer::Queued;
}

DataPlane::FlushGroup& DataPlane::group_for(
    const std::shared_ptr<comm::Channel>& channel) {
  for (std::size_t i = 0; i < group_count_; ++i) {
    if (groups_[i].channel.get() == channel.get()) return groups_[i];
  }
  if (group_count_ == groups_.size()) groups_.emplace_back();
  FlushGroup& group = groups_[group_count_++];
  group.channel = channel;
  group.routes.clear();
  group.messages = 0;
  group.payload_bytes = 0;
  return group;
}

std::size_t DataPlane::stage_route(std::size_t route_index,
                                   std::size_t limit) {
  ExitRoute& route = exits_[route_index];
  const std::size_t take = std::min(route.queue.size(), limit);
  if (take == 0) return 0;
  FlushGroup& group = group_for(route.channel);
  group.routes.push_back(StagedRoute{route_index, take});
  group.messages += take;
  group.payload_bytes +=
      batch_route_wire_bytes(route.client, route.port, take);
  route.credits -= std::min<std::uint64_t>(route.credits, take);
  counters_->queued.fetch_sub(take, std::memory_order_relaxed);
  return take;
}

std::size_t DataPlane::send_groups() {
  std::size_t sent = 0;
  for (std::size_t gi = 0; gi < group_count_; ++gi) {
    FlushGroup& group = groups_[gi];
    const bool ok = send_encoded(
        *group.channel, FrameType::Batch,
        kBatchHeaderBytes + group.payload_bytes, [&](WireSpan span) {
          // Drain each staged route's queue front straight into the
          // frame: the message's only copy is queue -> transport memory.
          BatchSpanEncoder enc(span,
                               static_cast<std::uint32_t>(
                                   group.routes.size()));
          for (const StagedRoute& staged : group.routes) {
            ExitRoute& route = exits_[staged.route];
            enc.begin_route(route.client, route.port,
                            static_cast<std::uint32_t>(staged.take));
            for (std::size_t i = 0; i < staged.take; ++i) {
              enc.add_message(route.queue[i]);
            }
            enc.end_route();
            route.queue.erase(route.queue.begin(),
                              route.queue.begin() +
                                  static_cast<std::ptrdiff_t>(staged.take));
            if (!route.queue.empty()) {
              route.oldest = rtsj::SteadyClock::instance().now();
            }
          }
          return enc.used();
        });
    if (ok) {
      sent += group.messages;
      add(counters_->sent, group.messages);
      add(counters_->batches);
    } else {
      add(counters_->send_failures);
    }
    group.channel.reset();
  }
  group_count_ = 0;
  return sent;
}

std::size_t DataPlane::flush(bool force) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const rtsj::AbsoluteTime now = rtsj::SteadyClock::instance().now();
  // A force flush must empty the node even when the peer's grants are
  // still in flight, so it ignores the credit balance; a deadline flush
  // respects it — that is the backpressure. Either way one frame carries
  // at most a credit window per route, so a forced backlog goes out as
  // several frames rather than one the transport may refuse.
  const std::uint64_t frame_cap =
      std::max<std::uint64_t>(1, config_.credit_window);
  std::size_t sent = 0;
  bool staged = true;
  while (staged) {
    staged = false;
    for (std::size_t i = 0; i < exits_.size(); ++i) {
      ExitRoute& route = exits_[i];
      if (route.queue.empty() || !route.active) continue;
      if (!force && now - route.oldest < config_.flush_interval) continue;
      const std::uint64_t budget = force ? frame_cap : route.credits;
      const std::size_t limit = static_cast<std::size_t>(
          std::min<std::uint64_t>(budget, route.queue.size()));
      if (limit == 0) continue;
      if (!force) add(counters_->deadline_flushes);
      stage_route(i, limit);
      staged = true;
    }
    sent += send_groups();
    // A deadline flush is one frame per channel: what credit held back
    // waits for the next grant.
    if (!force) break;
  }
  return sent;
}

void DataPlane::on_credit(const CreditPayload& credit) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = exit_index_.find({credit.client, credit.port});
  if (it == exit_index_.end()) return;
  exits_[it->second].credits += credit.credits;
}

void DataPlane::note_injected(std::size_t entry_route, std::uint64_t n) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (entry_route >= entries_.size()) return;
  EntryRoute& route = entries_[entry_route];
  route.pending += n;
  const std::uint64_t threshold =
      std::max<std::uint64_t>(1, config_.credit_window / 2);
  if (route.pending >= threshold && route.active &&
      route.reverse != nullptr) {
    send_grant(route);
  }
}

std::size_t DataPlane::grant_all() {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t grants = 0;
  for (EntryRoute& route : entries_) {
    if (route.pending == 0 || route.reverse == nullptr) continue;
    if (send_grant(route)) ++grants;
  }
  return grants;
}

bool DataPlane::send_grant(EntryRoute& route) {
  const bool ok = send_encoded(
      *route.reverse, FrameType::Credit,
      credit_payload_wire_bytes(route.client, route.port),
      [&](WireSpan span) {
        SpanWriter w(span);
        encode_credit_payload(w, route.client, route.port, route.pending);
        return w.used();
      });
  if (!ok) {
    add(counters_->send_failures);
    return false;
  }
  add(counters_->credits_granted, route.pending);
  route.pending = 0;
  return true;
}

monitor::DataPlaneCounters::Snapshot DataPlane::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  sync_pool_counters();
  return counters_->snapshot();
}

}  // namespace rtcf::dist
