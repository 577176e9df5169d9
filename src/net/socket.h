#ifndef FSJOIN_NET_SOCKET_H_
#define FSJOIN_NET_SOCKET_H_

#include <cstddef>
#include <string>
#include <utility>

#include "util/endpoint.h"
#include "util/status.h"

namespace fsjoin::net {

/// Thin RAII wrappers over POSIX TCP sockets — just enough transport for
/// the cluster RPC layer (net/frame.h): blocking whole-buffer send/recv,
/// poll-based readability waits for heartbeat timeouts, and an ephemeral-
/// port listener. No TLS, no Nagle tuning beyond TCP_NODELAY; the
/// integrity story is the frame layer's CRC32C, the security story is
/// "run it on your own network", like Hadoop's unauthenticated RPC era.
///
/// Windows builds compile these as stubs returning Unimplemented — the
/// cluster runtime is POSIX-only, like the subprocess runner's fork path.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  ~Socket();

  /// Dials `endpoint` (numeric address or resolvable name), failing after
  /// `timeout_ms`. The returned socket has TCP_NODELAY set — RPC frames
  /// are latency-bound, not throughput-bound.
  static Result<Socket> Connect(const Endpoint& endpoint, int timeout_ms);

  /// A connected pair of local sockets (socketpair) — for tests that need
  /// a real byte pipe without a listener.
  static Result<std::pair<Socket, Socket>> Pair();

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Writes all `n` bytes (retrying partial writes / EINTR).
  Status SendAll(const void* data, size_t n);

  /// Reads exactly `n` bytes. A clean peer close mid-read (or before any
  /// byte) returns IoError("connection closed ...") — the caller decides
  /// whether that close was expected. So does a wait past the receive
  /// timeout, when one is set.
  Status RecvAll(void* data, size_t n);

  /// Bounds every wait for incoming bytes to `timeout_ms` (SO_RCVTIMEO):
  /// a peer that stays silent that long fails the read with IoError
  /// ("recv timed out") instead of blocking it until TCP gives up.
  Status SetRecvTimeout(int timeout_ms);

  /// Polls for readability. Sets *readable and returns OK on poll success
  /// (false = timeout); IoError when the descriptor is dead.
  Status WaitReadable(int timeout_ms, bool* readable);

  /// Shuts both directions down without releasing the descriptor, so a
  /// recv or poll blocked in another thread returns at once (the peer sees
  /// the close too). Close afterwards, once that thread is done.
  void Shutdown();

  void Close();

 private:
  int fd_ = -1;
};

/// A listening TCP socket. Listen on port 0 for an ephemeral port and read
/// it back with port() — how spawned local workers and per-worker shuffle
/// servers avoid port configuration entirely.
class Listener {
 public:
  Listener() = default;
  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;
  ~Listener();

  /// The backlog must exceed the worst-case connection burst. Shuffle
  /// fetches reuse one pooled connection per (worker, shuffle server), so
  /// a server sees at most one dial per worker per connection lifetime;
  /// the default stays generous because a backlog smaller than a burst
  /// overflows the accept queue, and the dropped handshakes stall on TCP
  /// retransmission timers (~200ms-1s each, pure wall-clock with zero
  /// CPU) — what one connection per (map, reduce) once did at 30 maps.
  static Result<Listener> Listen(const std::string& host, uint16_t port,
                                 int backlog = 512);

  bool valid() const { return fd_ >= 0; }
  uint16_t port() const { return port_; }

  /// Accepts one connection, waiting at most `timeout_ms` (< 0 = forever).
  /// Timeout surfaces as IoError("accept timed out ...").
  Result<Socket> Accept(int timeout_ms);

  /// Wakes an Accept blocked in another thread (it then fails at once, as
  /// does every later Accept) without releasing the descriptor, so it is
  /// safe while that thread still uses it. Close afterwards, once the
  /// accepting thread is done.
  void Shutdown();

  void Close();

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
};

}  // namespace fsjoin::net

#endif  // FSJOIN_NET_SOCKET_H_
