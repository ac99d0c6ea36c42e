#include "dist/socket_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

namespace diffpattern::dist {

using common::Result;
using common::Status;

namespace {

std::int64_t steady_now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

/// Polls `fd` for `events` until `deadline_ms` (steady clock). Returns
/// +1 ready, 0 deadline expired, -1 hard poll error.
int poll_until(int fd, short events, std::int64_t deadline_ms) {
  for (;;) {
    const std::int64_t remaining = deadline_ms - steady_now_ms();
    if (remaining <= 0) {
      return 0;
    }
    struct pollfd pfd {};
    pfd.fd = fd;
    pfd.events = events;
    const int rc = ::poll(&pfd, 1,
                          static_cast<int>(std::min<std::int64_t>(
                              remaining, 100)));
    if (rc > 0) {
      return 1;
    }
    if (rc < 0 && errno != EINTR) {
      return -1;
    }
    // rc == 0: tick — re-check the deadline and poll again.
  }
}

/// One getaddrinfo record, storage-owned so the list outlives the call.
struct ResolvedTcpAddr {
  sockaddr_storage storage {};
  socklen_t len = 0;
  int family = 0;
};

/// Resolves HOST:PORT through getaddrinfo (hostnames, IPv4 and IPv6
/// literals alike). An unresolvable name is the caller's mistake:
/// INVALID_ARGUMENT carrying gai_strerror detail.
Result<std::vector<ResolvedTcpAddr>> resolve_tcp(const std::string& host,
                                                 std::uint16_t port,
                                                 bool passive) {
  addrinfo hints {};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_NUMERICSERV | (passive ? AI_PASSIVE : 0);
  const std::string service = std::to_string(port);
  addrinfo* records = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), service.c_str(), &hints,
                               &records);
  if (rc != 0) {
    const std::string reason =
        rc == EAI_SYSTEM ? strerror(errno) : gai_strerror(rc);
    return Status::InvalidArgument("cannot resolve host '" + host +
                                   "': " + reason);
  }
  std::vector<ResolvedTcpAddr> out;
  for (const addrinfo* it = records; it != nullptr; it = it->ai_next) {
    if (it->ai_addrlen > sizeof(sockaddr_storage)) {
      continue;
    }
    ResolvedTcpAddr addr;
    std::memcpy(&addr.storage, it->ai_addr, it->ai_addrlen);
    addr.len = it->ai_addrlen;
    addr.family = it->ai_family;
    out.push_back(addr);
  }
  ::freeaddrinfo(records);
  if (out.empty()) {
    return Status::InvalidArgument("host '" + host +
                                   "' resolved to no usable address");
  }
  return out;
}

/// "tcp:host:port" (IPv6 hosts bracketed) for the address a socket is
/// actually bound to.
std::string format_bound_tcp(int fd) {
  sockaddr_storage bound {};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    return "tcp:?:0";
  }
  char host[INET6_ADDRSTRLEN] = {};
  if (bound.ss_family == AF_INET6) {
    const auto* in6 = reinterpret_cast<const sockaddr_in6*>(&bound);
    ::inet_ntop(AF_INET6, &in6->sin6_addr, host, sizeof(host));
    return "tcp:[" + std::string(host) + "]:" +
           std::to_string(ntohs(in6->sin6_port));
  }
  const auto* in4 = reinterpret_cast<const sockaddr_in*>(&bound);
  ::inet_ntop(AF_INET, &in4->sin_addr, host, sizeof(host));
  return "tcp:" + std::string(host) + ":" +
         std::to_string(ntohs(in4->sin_port));
}

/// Non-blocking connect on an already-created socket with a deadline;
/// returns the connected blocking fd or a typed UNAVAILABLE. Owns `fd` —
/// it is closed on every failure path.
Result<int> finish_connect(int fd, const sockaddr* sa, socklen_t sa_len,
                           const std::string& where,
                           std::int64_t timeout_ms) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) {
    const std::string reason = strerror(errno);
    close_fd(fd);
    return Status::Unavailable("fcntl(F_GETFL) before connect to " + where +
                               ": " + reason);
  }
  if (::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    const std::string reason = strerror(errno);
    close_fd(fd);
    return Status::Unavailable("fcntl(F_SETFL) before connect to " + where +
                               ": " + reason);
  }
  const std::int64_t deadline = steady_now_ms() + timeout_ms;
  int rc = ::connect(fd, sa, sa_len);
  if (rc != 0 && errno == EINPROGRESS) {
    if (poll_until(fd, POLLOUT, deadline) != 1) {
      close_fd(fd);
      return Status::Unavailable("connect to " + where + " timed out");
    }
    int err = 0;
    socklen_t err_len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) != 0) {
      const std::string reason = strerror(errno);
      close_fd(fd);
      return Status::Unavailable("getsockopt(SO_ERROR) after connect to " +
                                 where + ": " + reason);
    }
    rc = err == 0 ? 0 : -1;
    errno = err;
  }
  if (rc != 0) {
    const std::string reason = strerror(errno);
    close_fd(fd);
    return Status::Unavailable("connect to " + where + " failed: " + reason);
  }
  if (::fcntl(fd, F_SETFL, flags) != 0) {  // Blocking again; I/O poll-gated.
    const std::string reason = strerror(errno);
    close_fd(fd);
    return Status::Unavailable("fcntl(F_SETFL) after connect to " + where +
                               ": " + reason);
  }
  return fd;
}

/// Dials `address`: Unix path directly; TCP through the resolver, walking
/// every record — each under its own `timeout_ms` attempt deadline —
/// before surfacing the last typed failure.
Result<int> dial(const SocketAddress& address, std::int64_t timeout_ms) {
  if (address.kind == SocketAddress::Kind::kUnix) {
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      return Status::Unavailable("socket(): " + std::string(strerror(errno)));
    }
    sockaddr_un un {};
    un.sun_family = AF_UNIX;
    std::snprintf(un.sun_path, sizeof(un.sun_path), "%s",
                  address.path.c_str());
    return finish_connect(fd, reinterpret_cast<sockaddr*>(&un), sizeof(un),
                          address.to_string(), timeout_ms);
  }
  auto resolved = resolve_tcp(address.host, address.port, /*passive=*/false);
  if (!resolved.ok()) {
    return resolved.status();
  }
  Status last = Status::Unavailable("no usable address record for " +
                                    address.to_string());
  for (const ResolvedTcpAddr& record : resolved.value()) {
    int fd = ::socket(record.family, SOCK_STREAM, 0);
    if (fd < 0) {
      last = Status::Unavailable("socket(): " +
                                 std::string(strerror(errno)));
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto connected = finish_connect(
        fd, reinterpret_cast<const sockaddr*>(&record.storage), record.len,
        address.to_string(), timeout_ms);
    if (connected.ok()) {
      return connected;
    }
    last = connected.status();
  }
  return last;
}

/// Writes the whole buffer before `deadline_ms`. DEADLINE_EXCEEDED on
/// expiry, UNAVAILABLE on a torn pipe.
Status write_all(int fd, const Bytes& buffer, std::int64_t deadline_ms) {
  std::size_t sent = 0;
  while (sent < buffer.size()) {
    const int ready = poll_until(fd, POLLOUT, deadline_ms);
    if (ready == 0) {
      return Status::DeadlineExceeded("write deadline expired");
    }
    if (ready < 0) {
      return Status::Unavailable("poll(): " + std::string(strerror(errno)));
    }
    const ssize_t n = ::send(fd, buffer.data() + sent, buffer.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        continue;
      }
      return Status::Unavailable("send(): " + std::string(strerror(errno)));
    }
    sent += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

/// Reads one complete outer frame into `assembler` before `deadline_ms`.
/// Recv sizes are bounded by want() so the reader never consumes bytes of
/// a following frame.
Status read_frame(int fd, FrameAssembler& assembler,
                  std::int64_t deadline_ms) {
  std::uint8_t chunk[16384];
  while (!assembler.complete()) {
    const int ready = poll_until(fd, POLLIN, deadline_ms);
    if (ready == 0) {
      return Status::DeadlineExceeded("read deadline expired");
    }
    if (ready < 0) {
      return Status::Unavailable("poll(): " + std::string(strerror(errno)));
    }
    const std::size_t cap = std::min(sizeof(chunk), assembler.want());
    const ssize_t n = ::recv(fd, chunk, cap, 0);
    if (n == 0) {
      return assembler.empty()
                 ? Status::Unavailable("peer closed before responding")
                 : Status::DataLoss("connection closed mid-frame");
    }
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        continue;
      }
      return Status::Unavailable("recv(): " + std::string(strerror(errno)));
    }
    if (Status s = assembler.feed(chunk, static_cast<std::size_t>(n));
        !s.ok()) {
      return s;
    }
  }
  return Status::Ok();
}

std::uint64_t fnv1a64_seeded(std::uint64_t seed, const std::uint8_t* data,
                             std::size_t size) {
  std::uint64_t hash = seed;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

}  // namespace

std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t size) {
  return fnv1a64_seeded(0xCBF29CE484222325ULL, data, size);
}

std::uint64_t socket_frame_tag(const std::string& key,
                               const std::uint8_t* header12,
                               const std::uint8_t* payload,
                               std::size_t payload_size) {
  const auto* key_bytes = reinterpret_cast<const std::uint8_t*>(key.data());
  std::uint64_t hash = fnv1a64(key_bytes, key.size());
  hash = fnv1a64_seeded(hash, header12, kSocketFrameHeaderBytes);
  hash = fnv1a64_seeded(hash, payload, payload_size);
  hash = fnv1a64_seeded(hash, key_bytes, key.size());
  return hash;
}

Bytes frame_payload(const Bytes& payload, const std::string& auth_key) {
  const bool authed = !auth_key.empty();
  Bytes out;
  out.reserve((authed ? kSocketAuthFrameHeaderBytes
                      : kSocketFrameHeaderBytes) +
              payload.size());
  std::uint32_t word = static_cast<std::uint32_t>(payload.size());
  if (authed) {
    word |= kSocketFrameAuthFlag;
  }
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<std::uint8_t>((word >> shift) & 0xFF));
  }
  const std::uint64_t checksum = fnv1a64(payload.data(), payload.size());
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<std::uint8_t>((checksum >> shift) & 0xFF));
  }
  if (authed) {
    const std::uint64_t tag = socket_frame_tag(
        auth_key, out.data(), payload.data(), payload.size());
    for (int shift = 0; shift < 64; shift += 8) {
      out.push_back(static_cast<std::uint8_t>((tag >> shift) & 0xFF));
    }
  }
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

FrameAssembler::FrameAssembler(std::size_t max_frame_bytes,
                               std::string auth_key)
    : max_frame_bytes_(max_frame_bytes), auth_key_(std::move(auth_key)) {}

std::size_t FrameAssembler::want() const {
  if (complete_) {
    return 0;
  }
  // The 4-byte length word is its own stage: the auth-mode and length
  // checks run on it before any more header is read.
  if (header_filled_ < 4) {
    return 4 - header_filled_;
  }
  if (header_filled_ < header_size()) {
    return header_size() - header_filled_;
  }
  return expected_ - body_.size();
}

common::Status FrameAssembler::feed(const std::uint8_t* data,
                                    std::size_t size) {
  std::size_t pos = 0;
  while (pos < size) {
    if (complete_) {
      return Status::DataLoss("bytes past the end of a complete frame");
    }
    const std::size_t header_bytes = header_size();
    if (header_filled_ < header_bytes) {
      const std::size_t stage_end = header_filled_ < 4 ? 4 : header_bytes;
      const std::size_t take =
          std::min(size - pos, stage_end - header_filled_);
      std::memcpy(header_ + header_filled_, data + pos, take);
      header_filled_ += take;
      pos += take;
      if (header_filled_ == 4 && stage_end == 4) {
        // Length word complete: auth-mode and length checks BEFORE any
        // body allocation (and before trusting 8 more header bytes).
        std::uint32_t word = 0;
        for (int i = 0; i < 4; ++i) {
          word |= std::uint32_t{header_[i]} << (8 * i);
        }
        const bool peer_authed = (word & kSocketFrameAuthFlag) != 0;
        if (peer_authed && auth_key_.empty()) {
          return Status::PermissionDenied(
              "peer sent an authenticated frame to a plaintext endpoint");
        }
        if (!peer_authed && !auth_key_.empty()) {
          return Status::PermissionDenied(
              "peer frame is missing the authentication tag");
        }
        const std::uint32_t len = word & ~kSocketFrameAuthFlag;
        if (len > max_frame_bytes_) {
          return Status::DataLoss("frame length " + std::to_string(len) +
                                  " exceeds the " +
                                  std::to_string(max_frame_bytes_) +
                                  "-byte bound");
        }
        expected_ = len;
        continue;
      }
      if (header_filled_ < header_bytes) {
        continue;
      }
      checksum_ = 0;
      for (int i = 0; i < 8; ++i) {
        checksum_ |= std::uint64_t{header_[4 + i]} << (8 * i);
      }
      if (!auth_key_.empty()) {
        tag_ = 0;
        for (int i = 0; i < 8; ++i) {
          tag_ |= std::uint64_t{header_[12 + i]} << (8 * i);
        }
      }
      body_.clear();
      body_.reserve(expected_);
      if (expected_ == 0) {
        if (Status s = [&] {
              // Checksum first: corruption stays DATA_LOSS, never an
              // auth failure.
              if (checksum_ != fnv1a64(nullptr, 0)) {
                return Status::DataLoss("frame checksum mismatch");
              }
              if (!auth_key_.empty() &&
                  socket_frame_tag(auth_key_, header_, nullptr, 0) != tag_) {
                return Status::PermissionDenied(
                    "frame authentication tag mismatch");
              }
              return Status::Ok();
            }();
            !s.ok()) {
          return s;
        }
        complete_ = true;
      }
      continue;
    }
    const std::size_t take = std::min(size - pos, expected_ - body_.size());
    body_.insert(body_.end(), data + pos, data + pos + take);
    pos += take;
    if (body_.size() == expected_) {
      if (fnv1a64(body_.data(), body_.size()) != checksum_) {
        return Status::DataLoss("frame checksum mismatch");
      }
      if (!auth_key_.empty() &&
          socket_frame_tag(auth_key_, header_, body_.data(),
                           body_.size()) != tag_) {
        return Status::PermissionDenied("frame authentication tag mismatch");
      }
      complete_ = true;
    }
  }
  return Status::Ok();
}

Bytes FrameAssembler::take() {
  Bytes out = std::move(body_);
  body_ = Bytes{};
  header_filled_ = 0;
  expected_ = 0;
  checksum_ = 0;
  tag_ = 0;
  complete_ = false;
  return out;
}

std::string SocketAddress::to_string() const {
  if (kind == Kind::kTcp) {
    if (host.find(':') != std::string::npos) {
      return "tcp:[" + host + "]:" + std::to_string(port);
    }
    return "tcp:" + host + ":" + std::to_string(port);
  }
  return "unix:" + path;
}

common::Result<SocketAddress> parse_socket_address(const std::string& spec) {
  SocketAddress out;
  if (spec.rfind("unix:", 0) == 0) {
    out.kind = SocketAddress::Kind::kUnix;
    out.path = spec.substr(5);
    if (out.path.empty()) {
      return Status::InvalidArgument("empty unix socket path in '" + spec +
                                     "'");
    }
    // sun_path is a fixed buffer; reject paths that would truncate.
    if (out.path.size() >= sizeof(sockaddr_un{}.sun_path)) {
      return Status::InvalidArgument("unix socket path too long: '" +
                                     out.path + "'");
    }
    return out;
  }
  if (spec.rfind("tcp:", 0) == 0) {
    out.kind = SocketAddress::Kind::kTcp;
    const std::string rest = spec.substr(4);
    std::string port_text;
    if (!rest.empty() && rest[0] == '[') {
      // Bracketed IPv6 literal: tcp:[::1]:PORT.
      const auto close = rest.find(']');
      if (close == std::string::npos) {
        return Status::InvalidArgument("unterminated '[' in '" + spec + "'");
      }
      out.host = rest.substr(1, close - 1);
      if (out.host.empty()) {
        return Status::InvalidArgument("empty IPv6 host in '" + spec + "'");
      }
      if (close + 1 >= rest.size() || rest[close + 1] != ':' ||
          close + 2 >= rest.size()) {
        return Status::InvalidArgument("expected tcp:[V6]:PORT, got '" +
                                       spec + "'");
      }
      port_text = rest.substr(close + 2);
    } else {
      const auto colon = rest.rfind(':');
      if (colon == std::string::npos || colon == 0 ||
          colon + 1 >= rest.size()) {
        return Status::InvalidArgument("expected tcp:HOST:PORT, got '" +
                                       spec + "'");
      }
      out.host = rest.substr(0, colon);
      port_text = rest.substr(colon + 1);
    }
    std::int64_t port = 0;
    for (const char c : port_text) {
      if (c < '0' || c > '9') {
        return Status::InvalidArgument("bad port in '" + spec + "'");
      }
      port = port * 10 + (c - '0');
      if (port > 65535) {
        return Status::InvalidArgument("port out of range in '" + spec +
                                       "'");
      }
    }
    out.port = static_cast<std::uint16_t>(port);
    return out;
  }
  return Status::InvalidArgument(
      "unknown socket address scheme in '" + spec +
      "' (expected tcp:HOST:PORT or unix:/path)");
}

common::Result<ListenSocket> bind_and_listen(const SocketAddress& address,
                                             int backlog) {
  ListenSocket out;
  if (address.kind == SocketAddress::Kind::kTcp) {
    auto resolved = resolve_tcp(address.host, address.port, /*passive=*/true);
    if (!resolved.ok()) {
      return resolved.status();
    }
    Status last = Status::Unavailable("no usable address record for " +
                                      address.to_string());
    for (const ResolvedTcpAddr& record : resolved.value()) {
      int fd = ::socket(record.family, SOCK_STREAM, 0);
      if (fd < 0) {
        last = Status::Unavailable("socket(): " +
                                   std::string(strerror(errno)));
        continue;
      }
      const int one = 1;
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
      if (record.family == AF_INET6) {
        // Keep the v6 listener v6-only so the bound address we report is
        // exactly the family a client will reach it on.
        ::setsockopt(fd, IPPROTO_IPV6, IPV6_V6ONLY, &one, sizeof(one));
      }
      if (::bind(fd, reinterpret_cast<const sockaddr*>(&record.storage),
                 record.len) != 0) {
        last = Status::Unavailable("bind " + address.to_string() + ": " +
                                   strerror(errno));
        close_fd(fd);
        continue;
      }
      if (::listen(fd, backlog) != 0) {
        last = Status::Unavailable("listen " + address.to_string() + ": " +
                                   strerror(errno));
        close_fd(fd);
        continue;
      }
      out.fd = fd;
      out.bound_address = format_bound_tcp(fd);
      return out;
    }
    return last;
  }
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Unavailable("socket(): " + std::string(strerror(errno)));
  }
  ::unlink(address.path.c_str());  // Stale socket file from a dead server.
  sockaddr_un un {};
  un.sun_family = AF_UNIX;
  std::snprintf(un.sun_path, sizeof(un.sun_path), "%s",
                address.path.c_str());
  if (::bind(fd, reinterpret_cast<sockaddr*>(&un), sizeof(un)) != 0) {
    const std::string reason = strerror(errno);
    close_fd(fd);
    return Status::Unavailable("bind " + address.to_string() + ": " +
                               reason);
  }
  if (::listen(fd, backlog) != 0) {
    const std::string reason = strerror(errno);
    close_fd(fd);
    return Status::Unavailable("listen " + address.to_string() + ": " +
                               reason);
  }
  out.fd = fd;
  out.unix_path = address.path;
  out.bound_address = address.to_string();
  return out;
}

// ---------------------------------------------------------------- channel

namespace {

class SocketChannel : public Channel {
 public:
  SocketChannel(std::string spec, SocketTransportConfig config)
      : spec_(std::move(spec)), config_(config) {
    if (config_.max_connections == 0) {
      config_.max_connections = 1;
    }
    pool_.resize(config_.max_connections);
    auto parsed = parse_socket_address(spec_);
    if (parsed.ok()) {
      address_ = std::move(parsed).value();
      parsed_ok_ = true;
    } else {
      parse_error_ = parsed.status();
    }
    jitter_state_ = config_.jitter_seed ^
                    fnv1a64(reinterpret_cast<const std::uint8_t*>(
                                spec_.data()),
                            spec_.size());
  }

  ~SocketChannel() override {
    std::lock_guard<std::mutex> lock(mutex_);
    for (PooledConn& conn : pool_) {
      close_fd(conn.fd);
    }
  }

  common::Result<Bytes> call(const Bytes& request) override {
    if (!parsed_ok_) {
      return parse_error_;
    }
    if (request.size() > config_.max_frame_bytes) {
      return Status::InvalidArgument(
          "request of " + std::to_string(request.size()) +
          " bytes exceeds the frame bound");
    }
    const std::int64_t deadline = steady_now_ms() + config_.call_timeout_ms;

    // Lease a pooled connection: an idle open one first, else a free slot
    // to dial lazily, else wait (bounded by the call deadline) for a
    // concurrent caller to return one. Backoff state is per-endpoint —
    // inside the window every caller fails fast with the retry hint.
    int slot = -1;
    bool need_dial = false;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      for (;;) {
        reap_idle_locked();
        slot = find_slot_locked(/*open=*/true);
        if (slot >= 0) {
          break;
        }
        slot = find_slot_locked(/*open=*/false);
        if (slot >= 0) {
          const std::int64_t now = steady_now_ms();
          if (now < next_attempt_ms_) {
            // Fail fast inside the backoff window — no syscall, and the
            // remaining wait travels as a structured retry hint.
            return Status::Unavailable("reconnect to " + spec_ +
                                       " backing off")
                .with_retry_after(next_attempt_ms_ - now);
          }
          need_dial = true;
          break;
        }
        const std::int64_t remaining = deadline - steady_now_ms();
        if (remaining <= 0) {
          timeouts_.fetch_add(1, std::memory_order_relaxed);
          return Status::DeadlineExceeded(
              "call deadline expired waiting for a pooled connection to " +
              spec_);
        }
        lease_freed_.wait_for(lock, std::chrono::milliseconds(remaining));
      }
      pool_[slot].leased = true;
    }

    if (need_dial) {
      auto dialed = dial(address_, config_.connect_timeout_ms);
      std::lock_guard<std::mutex> lock(mutex_);
      if (!dialed.ok()) {
        // Capped exponential backoff with deterministic jitter: delay =
        // min(max, base << failures) + U[0, delay/4).
        const std::int64_t shift =
            std::min<std::int64_t>(consecutive_connect_failures_, 20);
        std::int64_t delay = config_.backoff_base_ms;
        if (shift < 63 && (delay << shift) > 0) {
          delay = std::min(config_.backoff_max_ms, delay << shift);
        } else {
          delay = config_.backoff_max_ms;
        }
        if (delay > 4) {
          delay += static_cast<std::int64_t>(splitmix64(jitter_state_) %
                                             static_cast<std::uint64_t>(
                                                 delay / 4));
        }
        delay = std::min(delay, config_.backoff_max_ms);
        next_attempt_ms_ = steady_now_ms() + delay;
        consecutive_connect_failures_++;
        release_locked(slot);
        return dialed.status();
      }
      pool_[slot].fd = dialed.value();
      pool_[slot].last_used_ms = steady_now_ms();
      consecutive_connect_failures_ = 0;
      next_attempt_ms_ = 0;
      connects_.fetch_add(1, std::memory_order_relaxed);
      open_count_++;
      if (open_count_ > pool_peak_.load(std::memory_order_relaxed)) {
        pool_peak_.store(open_count_, std::memory_order_relaxed);
      }
    }

    // The exchange runs outside the channel lock: concurrent callers on
    // different leases overlap on the wire. The fd is private to this
    // lease until release.
    Bytes response;
    const Status io = exchange(pool_[slot].fd, request, deadline, response);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (io.ok()) {
        pool_[slot].last_used_ms = steady_now_ms();
      } else {
        // Any I/O failure poisons the connection: close it and let a
        // later call re-dial lazily. A fresh connection that failed
        // mid-exchange (the peer died between our connect and its reply)
        // is not retried here — the router owns retry policy.
        close_fd(pool_[slot].fd);
        open_count_--;
        if (io.code() == common::StatusCode::kDeadlineExceeded) {
          timeouts_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      release_locked(slot);
    }
    if (!io.ok()) {
      return io;
    }
    return response;
  }

  const std::string& endpoint() const override { return spec_; }

  // Lock-free: stats() must never wait behind a blocking call() (the
  // router snapshots counters while traffic is in flight).
  ChannelStats stats() const override {
    ChannelStats out;
    out.connects = connects_.load(std::memory_order_relaxed);
    out.pool_peak = pool_peak_.load(std::memory_order_relaxed);
    // The first dial of each pool slot grows the pool; dials beyond the
    // peak replaced a torn connection.
    out.reconnects =
        out.connects > out.pool_peak ? out.connects - out.pool_peak : 0;
    out.timeouts = timeouts_.load(std::memory_order_relaxed);
    return out;
  }

 private:
  struct PooledConn {
    int fd = -1;
    std::int64_t last_used_ms = 0;
    bool leased = false;
  };

  int find_slot_locked(bool open) const {
    for (std::size_t i = 0; i < pool_.size(); ++i) {
      if (!pool_[i].leased && (pool_[i].fd >= 0) == open) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }

  void release_locked(int slot) {
    pool_[slot].leased = false;
    lease_freed_.notify_one();
  }

  void reap_idle_locked() {
    if (config_.idle_timeout_ms <= 0) {
      return;
    }
    const std::int64_t now = steady_now_ms();
    for (PooledConn& conn : pool_) {
      if (!conn.leased && conn.fd >= 0 &&
          now - conn.last_used_ms >= config_.idle_timeout_ms) {
        close_fd(conn.fd);
        open_count_--;
      }
    }
  }

  Status exchange(int fd, const Bytes& request, std::int64_t deadline,
                  Bytes& response) {
    if (Status s = write_all(fd, frame_payload(request, config_.auth_key),
                             deadline);
        !s.ok()) {
      return s;
    }
    FrameAssembler assembler(config_.max_frame_bytes, config_.auth_key);
    if (Status s = read_frame(fd, assembler, deadline); !s.ok()) {
      return s;
    }
    response = assembler.take();
    return Status::Ok();
  }

  std::string spec_;
  SocketTransportConfig config_;
  SocketAddress address_;
  bool parsed_ok_ = false;
  Status parse_error_;

  mutable std::mutex mutex_;
  std::condition_variable lease_freed_;
  std::vector<PooledConn> pool_;
  std::int64_t open_count_ = 0;
  std::int64_t consecutive_connect_failures_ = 0;
  std::int64_t next_attempt_ms_ = 0;
  std::uint64_t jitter_state_ = 0;
  std::atomic<std::int64_t> connects_{0};
  std::atomic<std::int64_t> pool_peak_{0};
  std::atomic<std::int64_t> timeouts_{0};
};

}  // namespace

SocketTransport::SocketTransport(SocketTransportConfig config)
    : config_(config) {}

std::shared_ptr<Channel> SocketTransport::connect(const std::string& address) {
  return std::make_shared<SocketChannel>(address, config_);
}

// ----------------------------------------------------------------- server

std::string SocketServerCounters::to_json() const {
  std::string out = "{";
  out += "\"connections\":" + std::to_string(connections);
  out += ",\"connections_shed\":" + std::to_string(connections_shed);
  out += ",\"requests\":" + std::to_string(requests);
  out += ",\"read_errors\":" + std::to_string(read_errors);
  out += ",\"auth_failures\":" + std::to_string(auth_failures);
  out += ",\"write_errors\":" + std::to_string(write_errors);
  out += "}";
  return out;
}

struct SocketServer::Impl {
  SocketServerConfig config;
  WireHandler handler;
  std::atomic<bool> stopping{false};
  int listen_fd = -1;
  std::string unix_path;  // Unlinked on shutdown.

  mutable std::mutex mutex;
  std::unordered_map<std::uint64_t, std::thread> connections;
  std::vector<std::uint64_t> finished;  // Ids whose serve loop returned.
  std::uint64_t next_connection_id = 0;
  std::atomic<std::int64_t> active{0};
  std::atomic<std::int64_t> accepted{0};
  std::atomic<std::int64_t> shed{0};
  std::atomic<std::int64_t> requests{0};
  std::atomic<std::int64_t> read_errors{0};
  std::atomic<std::int64_t> auth_failures{0};
  std::atomic<std::int64_t> write_errors{0};

  /// Joins every connection thread that announced completion. Called with
  /// `mutex` held. A finishing thread pushes its id under the mutex as its
  /// last locked action, so any id visible here belongs to a thread that
  /// is past its serve loop — join() returns ~immediately.
  void reap_finished_locked() {
    for (const std::uint64_t id : finished) {
      auto it = connections.find(id);
      if (it == connections.end()) {
        continue;
      }
      it->second.join();
      connections.erase(it);
    }
    finished.clear();
  }

  /// One connection: sequential framed request/response exchanges. On
  /// shutdown, an exchange already in progress (a partially read request
  /// or a running handler) completes and its response is written; an idle
  /// connection closes at the next 100 ms poll tick.
  void serve_connection(int fd) {
    FrameAssembler assembler(config.max_frame_bytes, config.auth_key);
    std::uint8_t chunk[16384];
    bool mid_frame = false;
    std::int64_t frame_deadline = 0;
    for (;;) {
      if (stopping.load(std::memory_order_relaxed) && !mid_frame) {
        break;  // Graceful: never abandon a request already arriving.
      }
      struct pollfd pfd {};
      pfd.fd = fd;
      pfd.events = POLLIN;
      const int rc = ::poll(&pfd, 1, 100);
      if (rc < 0 && errno != EINTR) {
        break;
      }
      if (rc <= 0) {
        if (mid_frame && steady_now_ms() > frame_deadline) {
          read_errors.fetch_add(1, std::memory_order_relaxed);
          break;  // Stalled mid-frame: disconnect the peer.
        }
        continue;
      }
      const std::size_t cap = std::min(sizeof(chunk), assembler.want());
      const ssize_t n = ::recv(fd, chunk, cap, 0);
      if (n <= 0) {
        if (n < 0 && (errno == EINTR || errno == EAGAIN ||
                      errno == EWOULDBLOCK)) {
          continue;
        }
        if (n < 0 || mid_frame) {
          read_errors.fetch_add(1, std::memory_order_relaxed);
        }
        break;  // Peer closed (cleanly between frames, or torn).
      }
      if (!mid_frame) {
        mid_frame = true;
        frame_deadline = steady_now_ms() + config.io_timeout_ms;
      }
      if (Status s = assembler.feed(chunk, static_cast<std::size_t>(n));
          !s.ok()) {
        if (s.code() == common::StatusCode::kPermissionDenied) {
          // Auth failed at the trust boundary: answer a typed status —
          // the peer's payload was never decoded — then disconnect.
          auth_failures.fetch_add(1, std::memory_order_relaxed);
          const Bytes denial =
              encode_status(Status::PermissionDenied(s.message()));
          if (!write_all(fd, frame_payload(denial, config.auth_key),
                         steady_now_ms() + config.io_timeout_ms)
                   .ok()) {
            write_errors.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          // Hostile length / checksum mismatch: the peer is feeding us
          // garbage; drop the connection (the client decodes the close
          // as a typed failure on its side).
          read_errors.fetch_add(1, std::memory_order_relaxed);
        }
        break;
      }
      if (!assembler.complete()) {
        continue;
      }
      const Bytes request = assembler.take();
      mid_frame = false;
      requests.fetch_add(1, std::memory_order_relaxed);
      const Bytes response = handler(request);
      const std::int64_t write_deadline =
          steady_now_ms() + config.io_timeout_ms;
      if (!write_all(fd, frame_payload(response, config.auth_key),
                     write_deadline)
               .ok()) {
        write_errors.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      if (stopping.load(std::memory_order_relaxed)) {
        break;  // Drained: last response written, close now.
      }
    }
    ::close(fd);
  }
};

SocketServer::SocketServer(SocketServerConfig config)
    : config_(config), impl_(std::make_shared<Impl>()) {
  impl_->config = config_;
}

SocketServer::~SocketServer() { shutdown(); }

common::Status SocketServer::start(const std::string& address,
                                   WireHandler handler) {
  if (impl_->listen_fd >= 0) {
    return Status::FailedPrecondition("server already started");
  }
  auto parsed = parse_socket_address(address);
  if (!parsed.ok()) {
    return parsed.status();
  }
  auto listener = bind_and_listen(parsed.value());
  if (!listener.ok()) {
    return listener.status();
  }
  bound_address_ = listener.value().bound_address;
  impl_->unix_path = listener.value().unix_path;
  impl_->handler = std::move(handler);
  impl_->listen_fd = listener.value().fd;
  accept_thread_ = std::thread([this] { accept_loop(); });
  return Status::Ok();
}

void SocketServer::accept_loop() {
  auto impl = impl_;
  while (!impl->stopping.load(std::memory_order_relaxed)) {
    struct pollfd pfd {};
    pfd.fd = impl->listen_fd;
    pfd.events = POLLIN;
    const int rc = ::poll(&pfd, 1, 100);
    if (rc < 0 && errno != EINTR) {
      break;
    }
    if (rc <= 0) {
      continue;
    }
    int conn = ::accept(impl->listen_fd, nullptr, nullptr);
    if (conn < 0) {
      continue;
    }
    const std::size_t cap = impl->config.max_connections;
    if (cap > 0 &&
        impl->active.load(std::memory_order_relaxed) >=
            static_cast<std::int64_t>(cap)) {
      // Accept-side shed: over the cap the connection is closed before a
      // thread or frame buffer exists for it — a flood can never exhaust
      // fds/threads ahead of admission control.
      impl->shed.fetch_add(1, std::memory_order_relaxed);
      close_fd(conn);
      continue;
    }
    impl->accepted.fetch_add(1, std::memory_order_relaxed);
    impl->active.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(impl->mutex);
    impl->reap_finished_locked();  // Bound live handles by concurrency.
    const std::uint64_t id = impl->next_connection_id++;
    impl->connections.emplace(id, std::thread([impl, conn, id] {
      impl->serve_connection(conn);
      impl->active.fetch_sub(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> finish_lock(impl->mutex);
      impl->finished.push_back(id);
    }));
  }
}

void SocketServer::shutdown() {
  if (!impl_ || impl_->listen_fd < 0) {
    return;
  }
  impl_->stopping.store(true, std::memory_order_relaxed);
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  close_fd(impl_->listen_fd);
  std::unordered_map<std::uint64_t, std::thread> connections;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    connections.swap(impl_->connections);
    impl_->finished.clear();
  }
  for (auto& [id, thread] : connections) {
    (void)id;
    thread.join();  // Drain: in-flight requests answer before closing.
  }
  if (!impl_->unix_path.empty()) {
    ::unlink(impl_->unix_path.c_str());
  }
}

SocketServerCounters SocketServer::counters() const {
  SocketServerCounters out;
  out.connections = impl_->accepted.load(std::memory_order_relaxed);
  out.connections_shed = impl_->shed.load(std::memory_order_relaxed);
  out.requests = impl_->requests.load(std::memory_order_relaxed);
  out.read_errors = impl_->read_errors.load(std::memory_order_relaxed);
  out.auth_failures = impl_->auth_failures.load(std::memory_order_relaxed);
  out.write_errors = impl_->write_errors.load(std::memory_order_relaxed);
  return out;
}

std::size_t SocketServer::live_connection_threads() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->connections.size();
}

}  // namespace diffpattern::dist
