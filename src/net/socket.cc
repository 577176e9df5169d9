#include "net/socket.h"

#include <cstring>
#include <utility>

#ifndef _WIN32
#include <arpa/inet.h>
#include <cerrno>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/types.h>
#include <unistd.h>
#endif

namespace fsjoin::net {

#ifdef _WIN32

Socket::Socket(Socket&&) noexcept = default;
Socket& Socket::operator=(Socket&&) noexcept = default;
Socket::~Socket() = default;
Result<Socket> Socket::Connect(const Endpoint&, int) {
  return Status::Unimplemented("cluster sockets require POSIX");
}
Result<std::pair<Socket, Socket>> Socket::Pair() {
  return Status::Unimplemented("cluster sockets require POSIX");
}
Status Socket::SendAll(const void*, size_t) {
  return Status::Unimplemented("cluster sockets require POSIX");
}
Status Socket::RecvAll(void*, size_t) {
  return Status::Unimplemented("cluster sockets require POSIX");
}
Status Socket::SetRecvTimeout(int) {
  return Status::Unimplemented("cluster sockets require POSIX");
}
Status Socket::WaitReadable(int, bool*) {
  return Status::Unimplemented("cluster sockets require POSIX");
}
void Socket::Shutdown() {}
void Socket::Close() {}
Listener::Listener(Listener&&) noexcept = default;
Listener& Listener::operator=(Listener&&) noexcept = default;
Listener::~Listener() = default;
Result<Listener> Listener::Listen(const std::string&, uint16_t, int) {
  return Status::Unimplemented("cluster sockets require POSIX");
}
Result<Socket> Listener::Accept(int) {
  return Status::Unimplemented("cluster sockets require POSIX");
}
void Listener::Shutdown() {}
void Listener::Close() {}

#else  // !_WIN32

namespace {

Status Errno(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

void SetNoDelay(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Blocks SIGPIPE per send (MSG_NOSIGNAL): a peer that died mid-frame must
/// surface as an IoError the runner can handle, not kill the coordinator.
Status SendBytes(int fd, const char* data, size_t n) {
  while (n > 0) {
    const ssize_t sent = ::send(fd, data, n, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return Errno("send failed");
    }
    data += sent;
    n -= static_cast<size_t>(sent);
  }
  return Status::OK();
}

}  // namespace

Socket::Socket(Socket&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

Socket::~Socket() { Close(); }

void Socket::Shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<Socket> Socket::Connect(const Endpoint& endpoint, int timeout_ms) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* result = nullptr;
  const std::string port = std::to_string(endpoint.port);
  const int rc = getaddrinfo(endpoint.host.c_str(), port.c_str(), &hints,
                             &result);
  if (rc != 0) {
    return Status::IoError("cannot resolve " + endpoint.ToString() + ": " +
                           gai_strerror(rc));
  }
  Status last = Status::IoError("no addresses for " + endpoint.ToString());
  for (addrinfo* ai = result; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last = Errno("socket failed");
      continue;
    }
    // Non-blocking connect + poll gives a real timeout; a worker that is
    // down should fail fast, not hang in the kernel's SYN retries.
    const int flags = fcntl(fd, F_GETFL, 0);
    fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    int crc = ::connect(fd, ai->ai_addr, ai->ai_addrlen);
    if (crc < 0 && errno == EINPROGRESS) {
      pollfd pfd{fd, POLLOUT, 0};
      const int prc = ::poll(&pfd, 1, timeout_ms);
      if (prc <= 0) {
        last = prc == 0 ? Status::IoError("connect to " +
                                          endpoint.ToString() + " timed out")
                        : Errno("poll failed");
        ::close(fd);
        continue;
      }
      int soerr = 0;
      socklen_t len = sizeof(soerr);
      getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &len);
      if (soerr != 0) {
        last = Status::IoError("connect to " + endpoint.ToString() +
                               " failed: " + std::strerror(soerr));
        ::close(fd);
        continue;
      }
    } else if (crc < 0) {
      last = Status::IoError("connect to " + endpoint.ToString() +
                             " failed: " + std::strerror(errno));
      ::close(fd);
      continue;
    }
    fcntl(fd, F_SETFL, flags);
    SetNoDelay(fd);
    freeaddrinfo(result);
    return Socket(fd);
  }
  freeaddrinfo(result);
  return last;
}

Result<std::pair<Socket, Socket>> Socket::Pair() {
  int fds[2] = {-1, -1};
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    return Errno("socketpair failed");
  }
  return std::make_pair(Socket(fds[0]), Socket(fds[1]));
}

Status Socket::SendAll(const void* data, size_t n) {
  if (fd_ < 0) return Status::IoError("send on closed socket");
  return SendBytes(fd_, static_cast<const char*>(data), n);
}

Status Socket::RecvAll(void* data, size_t n) {
  if (fd_ < 0) return Status::IoError("recv on closed socket");
  char* p = static_cast<char*>(data);
  while (n > 0) {
    const ssize_t got = ::recv(fd_, p, n, 0);
    if (got < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::IoError("recv timed out");
      }
      return Errno("recv failed");
    }
    if (got == 0) {
      return Status::IoError("connection closed by peer");
    }
    p += got;
    n -= static_cast<size_t>(got);
  }
  return Status::OK();
}

Status Socket::SetRecvTimeout(int timeout_ms) {
  if (fd_ < 0) return Status::IoError("timeout on closed socket");
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  if (setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
    return Errno("setsockopt(SO_RCVTIMEO) failed");
  }
  return Status::OK();
}

Status Socket::WaitReadable(int timeout_ms, bool* readable) {
  *readable = false;
  if (fd_ < 0) return Status::IoError("wait on closed socket");
  pollfd pfd{fd_, POLLIN, 0};
  int rc;
  do {
    rc = ::poll(&pfd, 1, timeout_ms);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) return Errno("poll failed");
  // POLLHUP/POLLERR count as readable: the next recv reports the close.
  *readable = rc > 0;
  return Status::OK();
}

Listener::Listener(Listener&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      port_(std::exchange(other.port_, 0)) {}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
    port_ = std::exchange(other.port_, 0);
  }
  return *this;
}

Listener::~Listener() { Close(); }

void Listener::Shutdown() {
  // On a listening socket, shutdown() moves it out of LISTEN: a poll() in
  // Accept reports it readable and the accept() that follows fails.
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Listener::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<Listener> Listener::Listen(const std::string& host, uint16_t port,
                                  int backlog) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  addrinfo* result = nullptr;
  const std::string port_str = std::to_string(port);
  const int rc = getaddrinfo(host.empty() ? nullptr : host.c_str(),
                             port_str.c_str(), &hints, &result);
  if (rc != 0) {
    return Status::IoError("cannot resolve listen host '" + host +
                           "': " + gai_strerror(rc));
  }
  Status last = Status::IoError("no addresses for listen host '" + host + "'");
  for (addrinfo* ai = result; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last = Errno("socket failed");
      continue;
    }
    int one = 1;
    setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) != 0 ||
        ::listen(fd, backlog) != 0) {
      last = Errno("bind/listen on " + host + ":" + port_str + " failed");
      ::close(fd);
      continue;
    }
    sockaddr_storage addr{};
    socklen_t len = sizeof(addr);
    uint16_t bound = port;
    if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
      if (addr.ss_family == AF_INET) {
        bound = ntohs(reinterpret_cast<sockaddr_in*>(&addr)->sin_port);
      } else if (addr.ss_family == AF_INET6) {
        bound = ntohs(reinterpret_cast<sockaddr_in6*>(&addr)->sin6_port);
      }
    }
    freeaddrinfo(result);
    Listener listener;
    listener.fd_ = fd;
    listener.port_ = bound;
    return listener;
  }
  freeaddrinfo(result);
  return last;
}

Result<Socket> Listener::Accept(int timeout_ms) {
  if (fd_ < 0) return Status::IoError("accept on closed listener");
  pollfd pfd{fd_, POLLIN, 0};
  int rc;
  do {
    rc = ::poll(&pfd, 1, timeout_ms);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) return Errno("poll failed");
  if (rc == 0) {
    return Status::IoError("accept timed out after " +
                           std::to_string(timeout_ms) + " ms");
  }
  int fd;
  do {
    fd = ::accept(fd_, nullptr, nullptr);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return Errno("accept failed");
  SetNoDelay(fd);
  return Socket(fd);
}

#endif  // _WIN32

}  // namespace fsjoin::net
