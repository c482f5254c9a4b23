#include "net/socket.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <limits>

namespace mpct::net {
namespace {

std::string errno_string(const char* what) {
  return std::string(what) + ": " + ::strerror(errno);
}

bool parse_addr(const std::string& host, std::uint16_t port,
                sockaddr_in& addr, std::string& error) {
  addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string target = host.empty() ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, target.c_str(), &addr.sin_addr) != 1) {
    error = "invalid IPv4 address: " + target;
    return false;
  }
  return true;
}

}  // namespace

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

bool set_nodelay(int fd) {
  int one = 1;
  return ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) == 0;
}

Socket listen_tcp(const std::string& host, std::uint16_t port,
                  std::uint16_t& bound_port, std::string& error) {
  sockaddr_in addr;
  if (!parse_addr(host, port, addr, error)) return {};

  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) {
    error = errno_string("socket");
    return {};
  }
  int one = 1;
  ::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(sock.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    error = errno_string("bind");
    return {};
  }
  if (::listen(sock.fd(), SOMAXCONN) != 0) {
    error = errno_string("listen");
    return {};
  }
  if (!set_nonblocking(sock.fd())) {
    error = errno_string("fcntl(O_NONBLOCK)");
    return {};
  }
  sockaddr_in actual{};
  socklen_t len = sizeof(actual);
  if (::getsockname(sock.fd(), reinterpret_cast<sockaddr*>(&actual), &len) !=
      0) {
    error = errno_string("getsockname");
    return {};
  }
  bound_port = ntohs(actual.sin_port);
  error.clear();
  return sock;
}

Socket connect_tcp(const std::string& host, std::uint16_t port,
                   int timeout_ms, std::string& error) {
  sockaddr_in addr;
  if (!parse_addr(host, port, addr, error)) return {};

  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) {
    error = errno_string("socket");
    return {};
  }
  if (!set_nonblocking(sock.fd())) {
    error = errno_string("fcntl(O_NONBLOCK)");
    return {};
  }
  if (::connect(sock.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    if (errno != EINPROGRESS) {
      error = errno_string("connect");
      return {};
    }
    pollfd pfd{sock.fd(), POLLOUT, 0};
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready <= 0) {
      error = ready == 0 ? "connect timed out" : errno_string("poll");
      return {};
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    if (::getsockopt(sock.fd(), SOL_SOCKET, SO_ERROR, &so_error, &len) != 0 ||
        so_error != 0) {
      errno = so_error != 0 ? so_error : errno;
      error = errno_string("connect");
      return {};
    }
  }
  set_nodelay(sock.fd());
  error.clear();
  return sock;
}

int poll_timeout_ms(std::chrono::steady_clock::time_point until) {
  const auto now = std::chrono::steady_clock::now();
  if (until <= now) return 0;
  const auto ms =
      std::chrono::ceil<std::chrono::milliseconds>(until - now).count();
  return static_cast<int>(
      std::min<std::int64_t>(ms, std::numeric_limits<int>::max()));
}

}  // namespace mpct::net
