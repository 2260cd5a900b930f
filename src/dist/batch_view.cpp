#include "dist/batch_view.hpp"

#include <algorithm>
#include <cstring>
#include <string>

namespace rtcf::dist {

void write_message_into(SpanWriter& w, const comm::Message& m) {
  const std::size_t block = w.begin_block();
  w.u32(m.type_id);
  w.u32(m.size);
  w.i64(m.timestamp_ns);
  w.u64(m.sequence);
  w.u32(static_cast<std::uint32_t>(comm::Message::kPayloadCapacity));
  w.raw(reinterpret_cast<const std::uint8_t*>(m.payload),
        comm::Message::kPayloadCapacity);
  w.end_block(block);
}

namespace {

void write_str_view(SpanWriter& w, std::string_view v) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  w.raw(reinterpret_cast<const std::uint8_t*>(v.data()), v.size());
}

comm::Message decode_message(WireReader& r) {
  WireReader b = r.block();
  comm::Message m;
  m.type_id = b.u32();
  m.size = b.u32();
  m.timestamp_ns = b.i64();
  m.sequence = b.u64();
  const std::uint32_t length = b.u32();
  const std::uint8_t* payload = b.raw(length);
  const std::size_t count =
      std::min<std::size_t>(length, comm::Message::kPayloadCapacity);
  std::memcpy(m.payload, payload, count);
  return m;
}

}  // namespace

void encode_credit_payload(SpanWriter& w, std::string_view client,
                           std::string_view port, std::uint64_t credits) {
  write_str_view(w, client);
  write_str_view(w, port);
  w.u64(credits);
}

BatchSpanEncoder::BatchSpanEncoder(WireSpan span, std::uint32_t route_count)
    : writer_(span) {
  writer_.u32(route_count);
}

void BatchSpanEncoder::begin_route(std::string_view client,
                                   std::string_view port,
                                   std::uint32_t messages) {
  route_token_ = writer_.begin_block();
  write_str_view(writer_, client);
  write_str_view(writer_, port);
  writer_.u32(messages);
  in_route_ = true;
}

void BatchSpanEncoder::add_message(const comm::Message& m) {
  write_message_into(writer_, m);
}

void BatchSpanEncoder::end_route() {
  writer_.end_block(route_token_);
  in_route_ = false;
}

BatchView::BatchView(const std::uint8_t* data, std::size_t size)
    : reader_(data, size) {
  route_count_ = reader_.u32();
  if (static_cast<std::uint64_t>(route_count_) * 4 > reader_.remaining()) {
    throw WireError("implausible batch route count " +
                    std::to_string(route_count_));
  }
  routes_left_ = route_count_;
}

bool BatchView::next_route(Route& out) {
  if (routes_left_ == 0) return false;
  --routes_left_;
  route_reader_ = reader_.block();
  out.client = route_reader_.str_view();
  out.port = route_reader_.str_view();
  out.messages = route_reader_.u32();
  if (static_cast<std::uint64_t>(out.messages) * 4 >
      route_reader_.remaining()) {
    throw WireError("implausible batch message count " +
                    std::to_string(out.messages));
  }
  messages_left_ = out.messages;
  return true;
}

void BatchView::next_message(comm::Message& out) {
  if (messages_left_ == 0) {
    throw WireError("batch route has no further messages");
  }
  --messages_left_;
  out = decode_message(route_reader_);
}

std::size_t batch_message_count(const std::uint8_t* data, std::size_t size) {
  // Walks every field a real decode would read but copies nothing: the
  // point is to reject a malformed frame before it is deferred, not to
  // produce messages.
  WireReader r(data, size);
  const std::uint32_t routes = r.u32();
  if (static_cast<std::uint64_t>(routes) * 4 > r.remaining()) {
    throw WireError("implausible batch route count " + std::to_string(routes));
  }
  std::size_t total = 0;
  for (std::uint32_t i = 0; i < routes; ++i) {
    WireReader b = r.block();
    b.str_view();
    b.str_view();
    const std::uint32_t messages = b.u32();
    if (static_cast<std::uint64_t>(messages) * 4 > b.remaining()) {
      throw WireError("implausible batch message count " +
                      std::to_string(messages));
    }
    for (std::uint32_t m = 0; m < messages; ++m) {
      WireReader mb = b.block();
      mb.u32();
      mb.u32();
      mb.i64();
      mb.u64();
      mb.raw(mb.u32());
    }
    total += messages;
  }
  return total;
}

}  // namespace rtcf::dist
