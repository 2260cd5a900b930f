#include "comm/channel.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstring>

namespace rtcf::comm {

// ---- Channel defaults ------------------------------------------------------

bool Channel::send_spans(std::uint16_t type, const ByteSpan* spans,
                         std::size_t count) {
  Frame frame;
  frame.type = type;
  std::size_t total = 0;
  for (std::size_t i = 0; i < count; ++i) total += spans[i].size;
  frame.payload.reserve(total);
  for (std::size_t i = 0; i < count; ++i) {
    frame.payload.insert(frame.payload.end(), spans[i].data,
                         spans[i].data + spans[i].size);
  }
  return send(std::move(frame));
}

bool Channel::reserve_frame(std::uint16_t /*type*/,
                            std::size_t /*payload_size*/,
                            FrameReservation& /*out*/) {
  return false;  // transport has no caller-addressable memory
}

bool Channel::commit_frame(std::size_t /*used*/) { return false; }

void Channel::abort_frame() {}

// ---- LoopbackChannel -------------------------------------------------------

struct LoopbackChannel::Shared {
  std::mutex mutex;
  std::condition_variable cv;
  /// queues[0]: frames travelling side false -> side true; queues[1] the
  /// reverse direction.
  std::deque<Frame> queues[2];
  bool closed = false;
};

LoopbackChannel::LoopbackChannel(std::shared_ptr<Shared> shared, bool side)
    : shared_(std::move(shared)), side_(side) {}

std::pair<std::shared_ptr<LoopbackChannel>, std::shared_ptr<LoopbackChannel>>
LoopbackChannel::make_pair() {
  auto shared = std::make_shared<Shared>();
  // make_shared cannot reach the private constructor; the channel is tiny,
  // so the extra allocation is irrelevant (control plane only).
  return {std::shared_ptr<LoopbackChannel>(
              new LoopbackChannel(shared, false)),
          std::shared_ptr<LoopbackChannel>(new LoopbackChannel(shared, true))};
}

bool LoopbackChannel::send(const Frame& frame) {
  const std::lock_guard<std::mutex> lock(shared_->mutex);
  if (shared_->closed) return false;
  shared_->queues[side_ ? 1 : 0].push_back(frame);
  shared_->cv.notify_all();
  return true;
}

bool LoopbackChannel::send(Frame&& frame) {
  const std::lock_guard<std::mutex> lock(shared_->mutex);
  if (shared_->closed) return false;
  shared_->queues[side_ ? 1 : 0].push_back(std::move(frame));
  shared_->cv.notify_all();
  return true;
}

bool LoopbackChannel::receive(Frame& frame, rtsj::RelativeTime timeout) {
  std::unique_lock<std::mutex> lock(shared_->mutex);
  auto& queue = shared_->queues[side_ ? 0 : 1];
  if (queue.empty() && !shared_->closed && timeout.nanos() > 0) {
    shared_->cv.wait_for(lock, std::chrono::nanoseconds(timeout.nanos()),
                         [&] { return !queue.empty() || shared_->closed; });
  }
  if (queue.empty()) return false;
  frame = std::move(queue.front());
  queue.pop_front();
  return true;
}

void LoopbackChannel::close() {
  const std::lock_guard<std::mutex> lock(shared_->mutex);
  shared_->closed = true;
  shared_->cv.notify_all();
}

bool LoopbackChannel::open() const {
  const std::lock_guard<std::mutex> lock(shared_->mutex);
  return !shared_->closed;
}

// ---- TcpChannel ------------------------------------------------------------

namespace {

void store_u32(std::uint8_t* out, std::uint32_t v) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
  out[2] = static_cast<std::uint8_t>(v >> 16);
  out[3] = static_cast<std::uint8_t>(v >> 24);
}

std::uint32_t load_u32(const std::uint8_t* in) {
  return static_cast<std::uint32_t>(in[0]) |
         static_cast<std::uint32_t>(in[1]) << 8 |
         static_cast<std::uint32_t>(in[2]) << 16 |
         static_cast<std::uint32_t>(in[3]) << 24;
}

void store_u16(std::uint8_t* out, std::uint16_t v) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
}

std::uint16_t load_u16(const std::uint8_t* in) {
  return static_cast<std::uint16_t>(
      static_cast<std::uint16_t>(in[0]) |
      static_cast<std::uint16_t>(static_cast<std::uint16_t>(in[1]) << 8));
}

/// Upper bound on one frame, against corrupt/hostile length prefixes.
constexpr std::uint32_t kMaxFrameBytes = 64u * 1024u * 1024u;

/// Waits up to `timeout_ns` (clamped at 0) for POLLIN on `fd`. ppoll takes
/// the timeout in nanoseconds, so a sub-millisecond wait sleeps instead of
/// truncating to poll(..., 0) and spinning. Returns what ppoll returns.
int wait_readable(int fd, std::int64_t timeout_ns) {
  pollfd pfd{fd, POLLIN, 0};
  const std::int64_t ns = std::max<std::int64_t>(timeout_ns, 0);
  const timespec wait{static_cast<time_t>(ns / 1000000000),
                      static_cast<long>(ns % 1000000000)};
  return ::ppoll(&pfd, 1, &wait, nullptr);
}

}  // namespace

std::unique_ptr<TcpChannel> TcpChannel::listen(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return nullptr;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 1) != 0) {
    ::close(fd);
    return nullptr;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return nullptr;
  }
  auto channel = std::unique_ptr<TcpChannel>(new TcpChannel());
  channel->listen_fd_ = fd;
  channel->bound_port_ = ntohs(addr.sin_port);
  return channel;
}

std::unique_ptr<TcpChannel> TcpChannel::connect(const std::string& host,
                                                std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return nullptr;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return nullptr;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  auto channel = std::unique_ptr<TcpChannel>(new TcpChannel());
  channel->fd_ = fd;
  return channel;
}

TcpChannel::~TcpChannel() {
  close();
  // The destructor is the only place the fd numbers are released: by the
  // time it runs no other thread may touch this channel, so the kernel
  // recycling the numbers is safe here (and only here).
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

bool TcpChannel::accept_one() {
  if (fd_ >= 0) return true;
  if (listen_fd_ < 0 || closed_) return false;
  const int fd = ::accept(listen_fd_, nullptr, nullptr);
  if (fd < 0) return false;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;
  return true;
}

bool TcpChannel::ensure_peer() {
  if (fd_ >= 0) return true;
  return accept_one();
}

bool TcpChannel::send(const Frame& frame) {
  const std::lock_guard<std::mutex> lock(send_mutex_);
  if (closed_ || !ensure_peer()) return false;
  // Wire layout (docs/PROTOCOL.md): u32 length of everything after the
  // prefix, then u16 wire version, u16 frame type, payload bytes.
  std::vector<std::uint8_t> buffer(8 + frame.payload.size());
  store_u32(buffer.data(),
            static_cast<std::uint32_t>(4 + frame.payload.size()));
  store_u16(buffer.data() + 4, kWireVersion);
  store_u16(buffer.data() + 6, frame.type);
  if (!frame.payload.empty()) {
    std::memcpy(buffer.data() + 8, frame.payload.data(),
                frame.payload.size());
  }
  std::size_t sent = 0;
  while (sent < buffer.size()) {
    const ssize_t n =
        ::send(fd_, buffer.data() + sent, buffer.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool TcpChannel::send_spans(std::uint16_t type, const ByteSpan* spans,
                            std::size_t count) {
  const std::lock_guard<std::mutex> lock(send_mutex_);
  if (closed_ || !ensure_peer()) return false;
  std::size_t payload_size = 0;
  for (std::size_t i = 0; i < count; ++i) payload_size += spans[i].size;
  // Same wire layout as send(): the header is the only byte staging this
  // path does; payload spans go to the socket from where they already are.
  std::uint8_t header[8];
  store_u32(header, static_cast<std::uint32_t>(4 + payload_size));
  store_u16(header + 4, kWireVersion);
  store_u16(header + 6, type);
  constexpr std::size_t kMaxIov = 16;
  iovec iov[kMaxIov];
  std::size_t iov_count = 0;
  iov[iov_count++] = {header, sizeof(header)};
  for (std::size_t i = 0; i < count; ++i) {
    if (spans[i].size == 0) continue;
    if (iov_count == kMaxIov) return false;  // caller exceeded the contract
    iov[iov_count++] = {const_cast<std::uint8_t*>(spans[i].data),
                        spans[i].size};
  }
  // Partial writes restart the vector at the first unfinished iovec with
  // an adjusted base, exactly like the byte loop in send(). sendmsg
  // rather than writev so MSG_NOSIGNAL still suppresses SIGPIPE.
  std::size_t at = 0;
  while (at < iov_count) {
    msghdr msg{};
    msg.msg_iov = iov + at;
    msg.msg_iovlen = iov_count - at;
    const ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (n <= 0) return false;
    std::size_t done = static_cast<std::size_t>(n);
    while (at < iov_count && done >= iov[at].iov_len) {
      done -= iov[at].iov_len;
      ++at;
    }
    if (at < iov_count && done > 0) {
      iov[at].iov_base = static_cast<std::uint8_t*>(iov[at].iov_base) + done;
      iov[at].iov_len -= done;
    }
  }
  return true;
}

bool TcpChannel::read_exact(std::uint8_t* data, std::size_t size,
                            rtsj::RelativeTime timeout) {
  std::size_t got = 0;
  auto& clock = rtsj::SteadyClock::instance();
  const auto deadline = clock.now() + timeout;
  // Once a frame is underway the peer has committed to finishing it, so
  // mid-frame reads get a grace period beyond the caller's timeout — but
  // a *bounded* one: a stalled peer must not wedge the receiver forever
  // (the channel is closed below; a half-frame is unrecoverable anyway).
  const auto stall_deadline =
      deadline + rtsj::RelativeTime::milliseconds(2000);
  while (got < size) {
    if (closed_) return false;
    const auto now = clock.now();
    if (got > 0 && now >= stall_deadline) {
      close();  // stream desynchronized mid-frame: unrecoverable
      return false;
    }
    // Waits are capped at 100 ms so closed_ is re-checked regularly.
    const auto remaining = (got > 0 ? stall_deadline : deadline) - now;
    const int ready = wait_readable(
        fd_, std::min<std::int64_t>(remaining.nanos(), 100000000));
    if (ready < 0) return false;
    if (ready == 0) {
      if (got == 0 && clock.now() >= deadline) {
        return false;  // clean timeout between frames
      }
      continue;  // re-check closed_/deadlines, keep waiting
    }
    const ssize_t n = ::recv(fd_, data + got, size - got, 0);
    if (n <= 0) return false;  // peer closed or error
    got += static_cast<std::size_t>(n);
  }
  return true;
}

bool TcpChannel::receive(Frame& frame, rtsj::RelativeTime timeout) {
  if (closed_) return false;
  if (fd_ < 0) {
    // Listening endpoint with no peer yet: wait for the connection only
    // as long as the caller's timeout allows — receive() must never
    // out-wait its contract (a serve loop polling with timeout 0 would
    // otherwise block in accept() forever and become unjoinable).
    if (listen_fd_ < 0) return false;
    if (wait_readable(listen_fd_, timeout.nanos()) <= 0) return false;
    if (!accept_one()) return false;
  }
  std::uint8_t header[8];
  if (!read_exact(header, 4, timeout)) return false;
  const std::uint32_t length = load_u32(header);
  if (length < 4 || length > kMaxFrameBytes) {
    // Framing violation: the stream position is lost for good (the next
    // read would interpret payload bytes as a header). Close rather than
    // hand back garbage frames forever.
    close();
    return false;
  }
  if (!read_exact(header + 4, 4, rtsj::RelativeTime::milliseconds(1000))) {
    return false;
  }
  if (load_u16(header + 4) != kWireVersion) {
    close();  // same: version mismatch mid-stream is unrecoverable
    return false;
  }
  frame.type = load_u16(header + 6);
  // Read the payload straight into the caller's frame: a caller that
  // recycles its Frame (the serve loops do) reuses the vector's capacity
  // and the steady-state receive path stops allocating.
  frame.payload.resize(length - 4);
  if (!frame.payload.empty() &&
      !read_exact(frame.payload.data(), frame.payload.size(),
                  rtsj::RelativeTime::milliseconds(1000))) {
    return false;
  }
  return true;
}

void TcpChannel::close() {
  closed_.store(true, std::memory_order_release);
  // Shutdown unblocks a receiver inside recv() (it returns 0) without
  // releasing the fd number; the receive loops observe closed_ on their
  // next poll tick. Listening sockets cannot be shut down — the
  // bounded-poll receive path re-checks closed_ instead.
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

bool TcpChannel::open() const {
  return !closed_.load(std::memory_order_acquire);
}

}  // namespace rtcf::comm
