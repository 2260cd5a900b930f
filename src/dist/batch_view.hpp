// Zero-copy views over the data-plane payloads (docs/DATAPLANE.md
// "Zero-copy path"). `BatchPayload` in dist/protocol.hpp materializes
// every route name and message into owned containers — fine for tests
// and tooling, too expensive at data-plane rates. This header provides
// the same encodings without the containers:
//
//   * size accounting (`*_wire_bytes`) so a caller can reserve exactly the
//     right span in a transport (shm ring reservation, pooled buffer);
//   * `BatchSpanEncoder` / `encode_credit_payload` that write directly
//     into that span, byte-identical to make_batch/make_credit (pinned by
//     the `zerocopy` golden tests);
//   * `BatchView`, an in-place decoder that yields route names as
//     string_views into the receive buffer and copies each message once,
//     straight into the caller's `comm::Message` — no per-message vector,
//     no per-route strings.
//
// Every message block encodes to exactly kMessageWireBytes because
// comm::Message payloads are fixed-capacity; that is what lets senders
// size a BATCH before writing a single byte.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "comm/message.hpp"
#include "dist/wire.hpp"

namespace rtcf::dist {

/// Encoded size of one message block: u32 block length + u32 type_id +
/// u32 size + i64 timestamp + u64 sequence + u32-prefixed fixed-capacity
/// payload.
inline constexpr std::size_t kMessageWireBytes =
    4 + 4 + 4 + 8 + 8 + 4 + comm::Message::kPayloadCapacity;

/// Encoded size of a BATCH payload's leading route count.
inline constexpr std::size_t kBatchHeaderBytes = 4;

/// Encoded size of one BATCH route block holding `messages` messages.
inline std::size_t batch_route_wire_bytes(std::string_view client,
                                          std::string_view port,
                                          std::size_t messages) {
  return 4 /* block length */ + 4 + client.size() + 4 + port.size() +
         4 /* message count */ + messages * kMessageWireBytes;
}

/// Encoded size of a CREDIT payload.
inline std::size_t credit_payload_wire_bytes(std::string_view client,
                                             std::string_view port) {
  return 4 + client.size() + 4 + port.size() + 8;
}

/// Writes one message block; byte-identical to the block make_batch
/// emits. Throws WireError if the span cannot hold it.
void write_message_into(SpanWriter& w, const comm::Message& m);

/// Writes a CREDIT payload into `w`; byte-identical to make_credit's.
void encode_credit_payload(SpanWriter& w, std::string_view client,
                           std::string_view port, std::uint64_t credits);

/// Encodes a BATCH payload directly into caller-provided memory, route by
/// route, message by message — the sender drains its route queues straight
/// into transport memory with no BatchPayload in between. The caller
/// promises the span is at least kBatchHeaderBytes plus the sum of
/// batch_route_wire_bytes over the routes it will stage; overflow throws
/// WireError.
class BatchSpanEncoder {
 public:
  /// Starts a BATCH of exactly `route_count` routes in `span`.
  BatchSpanEncoder(WireSpan span, std::uint32_t route_count);

  /// Opens the next route block. Must not already be inside a route.
  void begin_route(std::string_view client, std::string_view port,
                   std::uint32_t messages);
  /// Appends one message to the open route.
  void add_message(const comm::Message& m);
  /// Closes the open route block.
  void end_route();

  /// Bytes encoded so far (the final payload size once every announced
  /// route has been written).
  std::size_t used() const noexcept { return writer_.used(); }

 private:
  SpanWriter writer_;
  std::size_t route_token_ = 0;
  bool in_route_ = false;
};

/// In-place decoder of a BATCH payload. Iterate routes with next_route,
/// then call next_message exactly `Route::messages` times per route. The
/// route name views alias the payload buffer and die with it; messages are
/// copied out (one 96-byte copy — the same copy inject() would make).
/// Truncated or malformed input throws WireError, rejecting the frame as a
/// whole, exactly like parse_batch.
class BatchView {
 public:
  /// One route block's header, viewed in place.
  struct Route {
    std::string_view client;      ///< Logical client component (aliased).
    std::string_view port;        ///< Client port name (aliased).
    std::uint32_t messages = 0;   ///< Message blocks that follow.
  };

  /// Decodes `size` bytes at `data` (not owned; must outlive the view).
  BatchView(const std::uint8_t* data, std::size_t size);
  /// Decodes a frame payload vector (not owned; must outlive the view).
  explicit BatchView(const std::vector<std::uint8_t>& payload)
      : BatchView(payload.data(), payload.size()) {}

  /// Routes announced by the payload header.
  std::uint32_t route_count() const noexcept { return route_count_; }
  /// Advances to the next route; false once every route was returned.
  /// Unread messages of the previous route are skipped (their bytes were
  /// bounds-checked when the route block was entered).
  bool next_route(Route& out);
  /// Decodes the next message of the current route into `out`.
  void next_message(comm::Message& out);

 private:
  WireReader reader_;
  WireReader route_reader_{nullptr, 0};
  std::uint32_t route_count_ = 0;
  std::uint32_t routes_left_ = 0;
  std::uint32_t messages_left_ = 0;
};

/// Fully validates a BATCH payload and returns its total message count.
/// Throws WireError on any truncation or implausible count — the receive
/// path calls this once at enqueue time so a frame deferred for in-place
/// decoding can never fail later on the executive thread.
std::size_t batch_message_count(const std::uint8_t* data, std::size_t size);

}  // namespace rtcf::dist
