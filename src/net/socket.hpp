#pragma once

#include <chrono>
#include <cstdint>
#include <string>

namespace mpct::net {

/// Move-only RAII owner of a POSIX file descriptor.  The whole net
/// subsystem is plain poll(2) + nonblocking BSD sockets — no external
/// dependencies, Linux/POSIX only (like the CI hosts).
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void close();

 private:
  int fd_ = -1;
};

bool set_nonblocking(int fd);
/// TCP_NODELAY: the protocol is pipelined request/response, so Nagle
/// buffering only adds latency.
bool set_nodelay(int fd);

/// Create a nonblocking listening TCP socket on @p host:@p port (dotted
/// IPv4 only; the service mesh in front of a real deployment terminates
/// everything else).  @p port 0 binds an ephemeral port; on success
/// @p bound_port carries the actual one.  On failure the returned socket
/// is invalid and @p error explains why.
Socket listen_tcp(const std::string& host, std::uint16_t port,
                  std::uint16_t& bound_port, std::string& error);

/// Connect with a bounded wait (nonblocking connect + poll).  The
/// returned socket stays nonblocking, with TCP_NODELAY set.
Socket connect_tcp(const std::string& host, std::uint16_t port,
                   int timeout_ms, std::string& error);

/// poll(2) timeout that wakes at @p until: whole milliseconds rounded
/// up, 0 once @p until has passed, at most INT_MAX.
int poll_timeout_ms(std::chrono::steady_clock::time_point until);

}  // namespace mpct::net
