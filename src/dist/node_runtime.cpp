#include "dist/node_runtime.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "comm/shm_ring.hpp"
#include "dist/batch_view.hpp"
#include "dist/plan_codec.hpp"
#include "rtsj/threads/os_sched.hpp"
#include "validate/validator.hpp"

namespace rtcf::dist {

using reconfig::ModeManager;
using reconfig::ReloadPlan;

namespace {
const rtsj::RelativeTime kPollZero = rtsj::RelativeTime::zero();

/// Application::content() throws for unknown names; routing treats those
/// as "not on this node" instead.
comm::Content* find_content(soleil::Application& app,
                            const std::string& name) {
  if (app.assembly().find(name) == nullptr) return nullptr;
  try {
    return app.content(name);
  } catch (const std::invalid_argument&) {
    return nullptr;
  }
}

}  // namespace

NodeRuntime::NodeRuntime(const model::Architecture& global,
                         const validate::NodeMap& map,
                         const std::string& node)
    : NodeRuntime(global, map, node, Options()) {}

NodeRuntime::NodeRuntime(const model::Architecture& global,
                         const validate::NodeMap& map,
                         const std::string& node, Options options)
    : node_(node),
      options_(std::move(options)),
      slice_(slice_architecture(global, map, node)),
      dataplane_(options_.data_plane) {
  const validate::Report report = validate::validate(slice_);
  if (!report.ok()) {
    throw std::invalid_argument("node '" + node +
                                "' slice fails validation:\n" +
                                report.to_string());
  }
  app_ = soleil::build_application(slice_, soleil::Mode::Soleil,
                                   /*partitions=*/1);
  app_->start();
  ModeManager::Options mm_options;
  mm_options.initial_mode = options_.initial_mode;
  // Demotion is a cluster decision here: the governor watch reports to
  // the coordinator instead of transitioning locally.
  mm_options.governor_demotion = !options_.cluster_demotion;
  mode_manager_ = std::make_unique<ModeManager>(*app_, mm_options);
  launcher_ = std::make_unique<runtime::Launcher>(*app_);
  dataplane_.set_counters(&app_->monitor().data_plane());
  routes_ = compute_routes(global, map);
  apply_routes(routes_);
}

NodeRuntime::~NodeRuntime() {
  if (serving_.load() || serve_thread_.joinable() ||
      executive_thread_.joinable()) {
    stop();
  }
}

void NodeRuntime::attach_control(std::shared_ptr<comm::Channel> channel) {
  control_ = std::move(channel);
  // The resync epoch tells a coordinator recovering this node which plan
  // snapshot the node restarted from (docs/MEMBERSHIP.md §3).
  control_->send(make_hello(node_, std::string(), mode_manager_->plan_epoch()));
}

bool NodeRuntime::request_join() {
  if (control_ == nullptr) return false;
  JoinPayload payload;
  payload.node = node_;
  payload.resync_epoch = mode_manager_->plan_epoch();
  return control_->send(make_join(payload));
}

bool NodeRuntime::request_leave(const std::string& reason) {
  if (control_ == nullptr) return false;
  LeavePayload payload;
  payload.node = node_;
  payload.reason = reason;
  return control_->send(make_leave(payload));
}

void NodeRuntime::connect_peer(const std::string& peer,
                               std::shared_ptr<comm::Channel> channel) {
  peers_[peer] = std::move(channel);
  // Announce ourselves on the data channel: the version the peer checks
  // and any shm offer.
  peers_[peer]->send(make_hello(node_, shm_token_for(peer)));
  // Exits routed before the peer channel existed pick it up now.
  apply_routes(routes_);
}

void NodeRuntime::start() {
  if (!executive_done_.load()) return;
  // A previous run may have finished without an intervening stop();
  // reap its (joinable, already-exited) thread before starting anew.
  if (executive_thread_.joinable()) executive_thread_.join();
  executive_done_.store(false);
  executive_thread_ = std::thread([this] { executive_loop(); });
  if (!serving_.load()) {
    serving_.store(true);
    serve_thread_ = std::thread([this] { serve_loop(); });
  }
}

void NodeRuntime::join_executive() {
  if (executive_thread_.joinable()) executive_thread_.join();
}

void NodeRuntime::stop() {
  join_executive();
  serving_.store(false);
  if (serve_thread_.joinable()) serve_thread_.join();

  // Final drain: whatever is still in flight — peer queues, batched
  // route queues, the inbox, local activation credits — is delivered
  // single-threaded (both threads joined), so the conservation audit
  // sees every message. The forced flush ignores credit balances: the
  // peer's remaining grants may never arrive once it stops serving.
  bool moved = true;
  while (moved) {
    moved = false;
    comm::Frame frame;
    const auto pump = [&](const std::string& peer, comm::Channel& channel) {
      while (channel.receive(frame, kPollZero)) {
        handle_peer_frame(peer, frame);
        moved = true;
      }
    };
    for (auto& [peer, channel] : peers_) pump(peer, *channel);
    for (auto& [peer, channel] : shm_links_) pump(peer, *channel);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (routes_dirty_) {
        routes_dirty_ = false;
        apply_routes(routes_);
      }
      if (!inbox_.empty()) moved = true;
    }
    drain_inbox();
    if (dataplane_.flush(/*force=*/true) > 0) moved = true;
    if (dataplane_.grant_all() > 0) moved = true;
    if (!app_->activation_manager().idle()) {
      app_->pump();
      moved = true;
    }
  }
  app_->stop();
}

void NodeRuntime::fail_next_prepare(std::string reason) {
  const std::lock_guard<std::mutex> lock(mutex_);
  forced_failure_ = std::move(reason);
}

NodeRuntime::GatewayStats NodeRuntime::gateway_stats() const {
  GatewayStats stats;
  for (const auto& spec : app_->assembly().components()) {
    comm::Content* content = find_content(*app_, spec.name);
    if (content == nullptr) continue;
    if (const auto* exit = dynamic_cast<const GatewayExitContent*>(content)) {
      stats.forwarded += exit->forwarded();
      stats.exit_dropped += exit->dropped();
    } else if (const auto* entry =
                   dynamic_cast<const GatewayEntryContent*>(content)) {
      stats.injected += entry->injected();
      stats.entry_dropped += entry->dropped();
    }
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  stats.entry_dropped += entry_drops_;
  return stats;
}

std::size_t NodeRuntime::inbox_depth() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t depth = 0;
  for (const InboxItem& item : inbox_) depth += item.batch_messages;
  return depth;
}

void NodeRuntime::executive_loop() {
  runtime::Launcher::Options opts;
  opts.duration = options_.run_duration;
  opts.workers = 1;
  opts.poll_interval = options_.poll_interval;
  opts.mode_manager = mode_manager_.get();
  opts.boundary_hook = [this] { boundary(); };
  launcher_->run(opts);
  executive_done_.store(true);
}

void NodeRuntime::serve_loop() {
  // The idle sleep below is the cadence every frame that finds the loop
  // idle waits out; host timer slack would stretch it by up to 50 µs.
  const rtsj::PreciseTimerScope precise_timers;
  const auto poll =
      std::chrono::nanoseconds(options_.poll_interval.nanos());
  while (serving_.load()) {
    bool any = false;
    comm::Frame frame;
    if (control_ != nullptr) {
      while (control_->receive(frame, kPollZero)) {
        handle_control(frame);
        any = true;
      }
    }
    for (auto& [peer, channel] : peers_) {
      while (channel->receive(frame, kPollZero)) {
        handle_peer_frame(peer, frame);
        any = true;
      }
    }
    {
      // Negotiated rings are pumped like any other data channel. Copy
      // the list out so handle_peer_frame never runs under mutex_.
      std::vector<std::pair<std::string, std::shared_ptr<comm::Channel>>>
          links;
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        links.assign(shm_links_.begin(), shm_links_.end());
      }
      for (auto& [peer, channel] : links) {
        while (channel->receive(frame, kPollZero)) {
          handle_peer_frame(peer, frame);
          any = true;
        }
      }
    }
    // Attach retries: the creator may still be racing us to the region.
    pending_shm_attach_.erase(
        std::remove_if(pending_shm_attach_.begin(), pending_shm_attach_.end(),
                       [&](const std::string& peer) {
                         return try_shm_attach(peer);
                       }),
        pending_shm_attach_.end());
    // Presumed abort: prepared but undecided past the deadline — release
    // the executive unilaterally so a dead coordinator cannot wedge it.
    {
      std::uint64_t stale_txn = 0;
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (staged_ &&
            rtsj::SteadyClock::instance().now() > decision_deadline_) {
          stale_txn = staged_txn_;
          staged_ = false;
          staged_routes_.clear();
        }
      }
      if (stale_txn != 0) {
        mode_manager_->abort_prepared();
        reply(FrameType::Aborted, stale_txn, "decision timeout", 0, 0);
      }
    }
    if (!any) std::this_thread::sleep_for(poll);
  }
}

void NodeRuntime::boundary() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (routes_dirty_) {
      routes_dirty_ = false;
      apply_routes(routes_);
    }
  }
  drain_inbox();
  // Flushes ride the dispatch boundary: with the default zero
  // flush_interval this sends everything the round before it queued (up
  // to credit). Besides offer itself and the stop drain this is the only
  // place that writes data channels, which keeps every transport
  // single-writer.
  dataplane_.flush(/*force=*/false);
  watch_governor();
}

void NodeRuntime::apply_routes(const std::vector<GatewayRoute>& routes) {
  entries_.clear();
  // Un-route every exit first: a refresh must not leave a retired exit
  // holding a route id the table below no longer assigns.
  for (const auto& spec : app_->assembly().components()) {
    comm::Content* content = find_content(*app_, spec.name);
    if (auto* exit = dynamic_cast<GatewayExitContent*>(content)) {
      exit->set_route(nullptr, 0);
    }
  }
  dataplane_.clear_routes();
  // Data-plane channel per peer: a negotiated shm ring wins over the
  // attached channel (that is the whole point of negotiating it).
  const auto data_channel =
      [this](const std::string& peer) -> std::shared_ptr<comm::Channel> {
    const auto shm = shm_links_.find(peer);
    if (shm != shm_links_.end()) return shm->second;
    const auto tcp = peers_.find(peer);
    return tcp == peers_.end() ? nullptr : tcp->second;
  };
  for (const GatewayRoute& route : routes) {
    if (route.client_node == node_) {
      comm::Content* content =
          find_content(*app_, gateway_exit_name(route.client, route.port));
      if (auto* exit = dynamic_cast<GatewayExitContent*>(content)) {
        const std::size_t id =
            dataplane_.add_route(route.client, route.port,
                                 data_channel(route.server_node),
                                 route.server_node);
        exit->set_route(&dataplane_, id);
      }
    }
    if (route.server_node == node_) {
      comm::Content* content =
          find_content(*app_, gateway_entry_name(route.client, route.port));
      if (auto* entry = dynamic_cast<GatewayEntryContent*>(content)) {
        // The entry's single client port is named after the *client's*
        // port (see slice_architecture), not the server's interface.
        const std::size_t id = dataplane_.add_entry_route(
            route.client, route.port, data_channel(route.client_node),
            route.client_node);
        entries_[{route.client, route.port}] =
            EntrySlot{entry, route.port, id};
      }
    }
  }
}

void NodeRuntime::drain_inbox(InboxItem* unrouted) {
  std::deque<InboxItem> batch;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    batch.swap(inbox_);
  }
  BatchPayload held;
  std::size_t held_messages = 0;
  for (InboxItem& item : batch) {
    // Deferred BATCH: decode in place, injecting straight out of the
    // receive buffer. The payload was fully validated at enqueue time,
    // so a WireError here is impossible by construction — the view's
    // bounds checks stay on as a backstop.
    BatchView view(item.batch);
    BatchView::Route route;
    comm::Message message;
    while (view.next_route(route)) {
      const auto it = entries_.find(
          {std::string(route.client), std::string(route.port)});
      if (it == entries_.end() || it->second.content == nullptr) {
        if (unrouted != nullptr) {
          BatchRoute* into = nullptr;
          for (BatchRoute& r : held.routes) {
            if (r.client == route.client && r.port == route.port) into = &r;
          }
          if (into == nullptr) {
            held.routes.push_back(
                {std::string(route.client), std::string(route.port), {}});
            into = &held.routes.back();
          }
          for (std::uint32_t i = 0; i < route.messages; ++i) {
            view.next_message(message);
            into->messages.push_back(message);
          }
          held_messages += route.messages;
          continue;
        }
        const std::lock_guard<std::mutex> lock(mutex_);
        entry_drops_ += route.messages;
        for (std::uint32_t i = 0; i < route.messages; ++i) {
          view.next_message(message);
        }
        continue;
      }
      for (std::uint32_t i = 0; i < route.messages; ++i) {
        view.next_message(message);
        it->second.content->inject(it->second.port_name, message);
      }
      // Consumed from the wire either way — replenish the sender's window
      // (an unbound port is the entry's drop to count, not backpressure).
      dataplane_.note_injected(it->second.entry_route, route.messages);
    }
    // The buffer goes back to the shared pool, where the receive loop's
    // replacement buffers come from.
    dataplane_.pool().release(std::move(item.batch));
  }
  if (unrouted != nullptr && held_messages != 0) {
    unrouted->batch = make_batch(held).payload;
    unrouted->batch_messages = held_messages;
  }
}

void NodeRuntime::handle_peer_frame(const std::string& peer,
                                    comm::Frame& frame) {
  try {
    switch (static_cast<FrameType>(frame.type)) {
      case FrameType::Batch: {
        // Validate now (truncation throws out of this scope), defer the
        // decode: the executive injects from these bytes in place.
        InboxItem item;
        item.batch_messages =
            batch_message_count(frame.payload.data(), frame.payload.size());
        item.batch = std::move(frame.payload);
        // Re-arm the receive frame with a recycled buffer of the same
        // class so the channel's capacity-reuse keeps working.
        frame.payload = dataplane_.pool().acquire(item.batch.size());
        frame.payload.clear();
        {
          const std::lock_guard<std::mutex> lock(mutex_);
          inbox_.push_back(std::move(item));
        }
        launcher_->wake();  // the executive drains the inbox now
        break;
      }
      case FrameType::Credit:
        dataplane_.on_credit(parse_credit(frame));
        launcher_->wake();  // messages the grant unblocks are sent now
        break;
      case FrameType::Hello:
        handle_peer_hello(peer, parse_hello_info(frame));
        break;
      default:
        break;  // Unknown data-plane types are ignored (PROTOCOL.md §7).
    }
  } catch (const WireError&) {
    // A malformed frame is dropped and counted; the framing layer stays
    // in sync.
    app_->monitor().data_plane().malformed_frames.fetch_add(
        1, std::memory_order_relaxed);
  }
}

void NodeRuntime::handle_peer_hello(const std::string& peer,
                                    const HelloInfo& info) {
  dataplane_.set_peer_version(peer, info.protocol_version);
  if (info.protocol_version != kProtocolVersion) return;
  const std::string token = shm_token_for(peer);
  if (token.empty() || token != info.shm_token) return;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (shm_links_.count(peer) != 0) return;
  }
  if (node_ < peer) {
    auto ring = comm::ShmRingChannel::create(token, options_.shm_capacity);
    if (ring != nullptr) {
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        shm_links_[peer] = std::move(ring);
        routes_dirty_ = true;
      }
      launcher_->wake();  // the executive re-routes onto the ring now
    }
  } else if (!try_shm_attach(peer)) {
    pending_shm_attach_.push_back(peer);
  }
}

std::string NodeRuntime::shm_token_for(const std::string& peer) const {
  if (options_.shm_namespace.empty()) return std::string();
  const std::string& a = std::min(node_, peer);
  const std::string& b = std::max(node_, peer);
  return "/" + options_.shm_namespace + "." + a + "." + b;
}

bool NodeRuntime::try_shm_attach(const std::string& peer) {
  auto ring = comm::ShmRingChannel::attach(shm_token_for(peer));
  if (ring == nullptr) return false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    shm_links_[peer] = std::move(ring);
    routes_dirty_ = true;
  }
  launcher_->wake();  // the executive re-routes onto the ring now
  return true;
}

bool NodeRuntime::shm_linked(const std::string& peer) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return shm_links_.count(peer) != 0;
}

void NodeRuntime::watch_governor() {
  if (!options_.cluster_demotion ||
      demote_sent_.load(std::memory_order_relaxed) || control_ == nullptr) {
    return;
  }
  const monitor::GovernorLevel level = app_->monitor().governor().level();
  if (static_cast<int>(level) < static_cast<int>(options_.demote_at)) return;
  const model::ModeDecl* degraded = mode_manager_->degraded_mode();
  if (degraded == nullptr) return;
  if (mode_manager_->current_mode() == degraded->name) return;
  DemotePayload payload;
  payload.node = node_;
  payload.mode = degraded->name;
  payload.level = static_cast<std::uint8_t>(level);
  control_->send(make_demote(payload));
  demote_sent_.store(true, std::memory_order_relaxed);
}

void NodeRuntime::reply(FrameType type, std::uint64_t txn,
                        const std::string& reason, std::uint64_t drained,
                        std::int64_t latency_ns) {
  if (control_ == nullptr) return;
  NodeReplyPayload payload;
  payload.txn = txn;
  payload.node = node_;
  payload.epoch = mode_manager_->plan_epoch();
  payload.reason = reason;
  payload.drained = drained;
  payload.latency_ns = latency_ns;
  control_->send(make_node_reply(type, payload));
}

void NodeRuntime::handle_control(const comm::Frame& frame) {
  switch (static_cast<FrameType>(frame.type)) {
    case FrameType::PrepareReload:
      handle_prepare_reload(frame);
      break;
    case FrameType::PrepareMode:
      handle_prepare_mode(frame);
      break;
    case FrameType::Commit:
    case FrameType::Abort:
      handle_decision(frame);
      break;
    case FrameType::Takeover:
      handle_takeover(frame);
      break;
    default:
      // Hello/replies are coordinator-bound; count the drop so a
      // misrouted control plane is visible in the monitor instead of
      // silently swallowed.
      app_->monitor().control_plane().ignored_frames.fetch_add(
          1, std::memory_order_relaxed);
      break;
  }
}

bool NodeRuntime::fenced(std::uint64_t coord_epoch,
                         std::atomic<std::uint64_t>& counter) {
  const std::uint64_t seen = coord_epoch_seen_.load(std::memory_order_relaxed);
  if (coord_epoch < seen) {
    counter.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  if (coord_epoch > seen) {
    coord_epoch_seen_.store(coord_epoch, std::memory_order_relaxed);
  }
  return false;
}

void NodeRuntime::handle_takeover(const comm::Frame& frame) {
  TakeoverPayload payload;
  try {
    payload = parse_takeover(frame);
  } catch (const WireError&) {
    return;
  }
  auto& counters = app_->monitor().control_plane();
  const std::uint64_t seen = coord_epoch_seen_.load(std::memory_order_relaxed);
  if (payload.coord_epoch < seen) {
    // A stale pretender announcing itself after a newer coordinator has
    // already spoken: the fence holds, no reply.
    counters.ignored_frames.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  coord_epoch_seen_.store(payload.coord_epoch, std::memory_order_relaxed);
  counters.takeovers.fetch_add(1, std::memory_order_relaxed);
  // Answer with HELLO so the promoted coordinator learns this node's
  // current plan epoch — the resync half of the takeover handshake.
  if (control_ != nullptr) {
    control_->send(
        make_hello(node_, std::string(), mode_manager_->plan_epoch()));
  }
}

void NodeRuntime::handle_prepare_reload(const comm::Frame& frame) {
  PrepareReloadPayload payload;
  try {
    payload = parse_prepare_reload(frame);
  } catch (const WireError& e) {
    reply(FrameType::PrepareFail, 0, e.what(), 0, 0);
    return;
  }
  const auto fail = [&](const std::string& reason) {
    reply(FrameType::PrepareFail, payload.txn, reason, 0, 0);
  };
  if (fenced(payload.coord_epoch,
             app_->monitor().control_plane().fenced_prepares)) {
    fail("fenced: stale coordinator epoch " +
         std::to_string(payload.coord_epoch));
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (staged_) {
      fail("another transition is already prepared");
      return;
    }
    if (!forced_failure_.empty()) {
      const std::string reason = forced_failure_;
      forced_failure_.clear();
      fail(reason);
      return;
    }
  }
  if (payload.expect_epoch != 0 &&
      payload.expect_epoch != mode_manager_->plan_epoch()) {
    fail("stale epoch: coordinator diffed against epoch " +
         std::to_string(payload.expect_epoch) + ", node is at " +
         std::to_string(mode_manager_->plan_epoch()));
    return;
  }
  ReloadPlan plan;
  try {
    plan.target = decode_plan(payload.plan);
    // Agreement check: the node re-diffs its own running snapshot against
    // the received target; the canonical delta encoding must match the
    // coordinator's byte for byte, or its view of this node is stale.
    plan.delta = reconfig::diff_plans(app_->assembly(), plan.target);
    if (encode_delta(plan.delta) != payload.delta) {
      fail("delta disagreement: coordinator view of this node is stale");
      return;
    }
  } catch (const WireError& e) {
    fail(e.what());
    return;
  }
  // The node-local half of the rule engine: DELTA-* over the slice.
  reconfig::check_delta_rules(plan.delta, app_->assembly(), plan.target,
                              plan.report);
  validate::Report report;
  if (!mode_manager_->prepare_reload(std::move(plan), &report)) {
    fail("slice rejected:\n" + report.to_string());
    return;
  }
  launcher_->wake();  // park at the next boundary, not after the idle wait
  if (!mode_manager_->wait_prepared(options_.quiesce_timeout)) {
    mode_manager_->abort_prepared();
    fail("quiescence timeout: executive did not park in time");
    return;
  }
  // Every worker is parked, so no exit can enqueue again before the
  // decision: force-flush the queued tail now, before the vote. The
  // boundary's flush may have left messages queued when the executive
  // parked (held back by credit, or younger than a nonzero
  // flush_interval); two-phase ordering turns this flush into a
  // cluster-wide barrier — no peer can commit (and retire its old entry
  // table) until every node has voted — so everything flushed here is
  // drained through the old entries at commit time and a committed
  // re-shard loses nothing. Single-writer holds: the parked executive
  // cannot touch the transports (same argument as the stop() drain).
  dataplane_.flush(/*force=*/true);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    staged_ = true;
    staged_is_reload_ = true;
    staged_txn_ = payload.txn;
    staged_routes_ = payload.routes;
    decision_deadline_ =
        rtsj::SteadyClock::instance().now() + options_.decision_timeout;
  }
  reply(FrameType::PrepareOk, payload.txn, "", 0, 0);
}

void NodeRuntime::handle_prepare_mode(const comm::Frame& frame) {
  PrepareModePayload payload;
  try {
    payload = parse_prepare_mode(frame);
  } catch (const WireError& e) {
    reply(FrameType::PrepareFail, 0, e.what(), 0, 0);
    return;
  }
  const auto fail = [&](const std::string& reason) {
    reply(FrameType::PrepareFail, payload.txn, reason, 0, 0);
  };
  if (fenced(payload.coord_epoch,
             app_->monitor().control_plane().fenced_prepares)) {
    fail("fenced: stale coordinator epoch " +
         std::to_string(payload.coord_epoch));
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (staged_) {
      fail("another transition is already prepared");
      return;
    }
    if (!forced_failure_.empty()) {
      const std::string reason = forced_failure_;
      forced_failure_.clear();
      fail(reason);
      return;
    }
  }
  if (!mode_manager_->prepare_transition(payload.mode, "dist-mode")) {
    fail("unknown mode '" + payload.mode + "' (or a transition is pending)");
    return;
  }
  launcher_->wake();  // park at the next boundary, not after the idle wait
  if (!mode_manager_->wait_prepared(options_.quiesce_timeout)) {
    mode_manager_->abort_prepared();
    fail("quiescence timeout: executive did not park in time");
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    staged_ = true;
    staged_is_reload_ = false;
    staged_txn_ = payload.txn;
    staged_routes_.clear();
    decision_deadline_ =
        rtsj::SteadyClock::instance().now() + options_.decision_timeout;
  }
  reply(FrameType::PrepareOk, payload.txn, "", 0, 0);
}

void NodeRuntime::handle_decision(const comm::Frame& frame) {
  DecisionPayload payload;
  try {
    payload = parse_decision(frame);
  } catch (const WireError&) {
    return;
  }
  if (fenced(payload.coord_epoch,
             app_->monitor().control_plane().fenced_decisions)) {
    // A decision from a fenced coordinator is dropped without a reply:
    // answering would let the stale coordinator believe it still drives
    // the cluster (docs/MEMBERSHIP.md §5).
    return;
  }
  bool known = false;
  bool is_reload = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    known = staged_ && staged_txn_ == payload.txn;
    is_reload = staged_is_reload_;
  }
  if (!known) {
    // Unknown or already-timed-out transaction: decisions are idempotent,
    // report the (unchanged) state.
    reply(FrameType::Aborted, payload.txn, "no such prepared transaction",
          0, 0);
    return;
  }
  if (frame.type == static_cast<std::uint16_t>(FrameType::Commit)) {
    // Deliver everything the old wiring still owes before the swap. A
    // peer's executive flushes its route queues at the boundary where it
    // parks, so a data frame can be in the channel (or already in the
    // inbox) when the decision arrives; committing first would retire
    // the old entry table and count that in-flight tail as entry drops.
    // The executive is parked at the rendezvous, so this thread owns the
    // inbox and the entries exactly as the stop() drain does. A peer that
    // received its COMMIT first may already send under the new wiring: a
    // route this node does not serve yet is held back, not dropped, and
    // re-queued together with the new route table below.
    {
      comm::Frame data;
      std::vector<std::pair<std::string, std::shared_ptr<comm::Channel>>>
          links;
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        links.assign(shm_links_.begin(), shm_links_.end());
      }
      for (auto& [peer, channel] : peers_) {
        while (channel->receive(data, kPollZero)) {
          handle_peer_frame(peer, data);
        }
      }
      for (auto& [peer, channel] : links) {
        while (channel->receive(data, kPollZero)) {
          handle_peer_frame(peer, data);
        }
      }
    }
    InboxItem early;
    drain_inbox(&early);
    std::vector<GatewayRoute> previous;
    if (is_reload) {
      // Adopt the staged table before the workers resume — even when it
      // is empty: a reload that removes the last cross-node binding must
      // clear the old routes and entry map, or late BATCH frames would be
      // injected into retired gateways. The executive's first boundary
      // after the commit re-routes before it drains or flushes, so no
      // message of the new plan is sent down an old route.
      const std::lock_guard<std::mutex> lock(mutex_);
      previous = std::move(routes_);
      routes_ = std::move(staged_routes_);
      routes_dirty_ = true;
    }
    const bool applied = mode_manager_->commit_prepared();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      staged_ = false;
      // A refused commit keeps the old table. No worker has passed a
      // boundary since the vote (abort_prepared below releases them), so
      // none saw the staged one.
      if (is_reload && !applied) routes_ = std::move(previous);
      staged_routes_.clear();
      // Ahead of anything read since; the boundary that drains it applies
      // routes_dirty_ first. Without a commit it is dropped and counted.
      if (early.batch_messages != 0) inbox_.push_front(std::move(early));
      // A committed transition answered whatever overload triggered a
      // demote request; allow a future escalation to report again.
      if (applied) demote_sent_.store(false, std::memory_order_relaxed);
    }
    launcher_->wake();  // re-route and drain under the new table now
    if (applied && executive_done_.load()) {
      // No executive thread to run the boundary hook; apply routes here
      // (single-threaded: the launcher run is over).
      const std::lock_guard<std::mutex> lock(mutex_);
      if (routes_dirty_) {
        routes_dirty_ = false;
        apply_routes(routes_);
      }
    }
    const std::int64_t latency_ns =
        mode_manager_->last_transition().latency.nanos();
    if (applied) {
      reply(FrameType::Committed, payload.txn, "",
            is_reload ? mode_manager_->last_drain_audit() : 0, latency_ns);
    } else {
      // Commit arrived while quiescence had lapsed (e.g. a new launcher
      // run started between the vote and the decision): the staged
      // transition must be released, or the manager stays pending
      // forever and wedges every later rendezvous.
      mode_manager_->abort_prepared();
      reply(FrameType::Aborted, payload.txn, "commit without quiescence", 0,
            0);
    }
  } else {
    mode_manager_->abort_prepared();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      staged_ = false;
      staged_routes_.clear();
    }
    reply(FrameType::Aborted, payload.txn, payload.reason, 0, 0);
  }
}

}  // namespace rtcf::dist
