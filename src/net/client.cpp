#include "net/client.hpp"

#include <errno.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <thread>
#include <utility>

#include "trace/trace.hpp"
#include "wire/wire.hpp"

namespace mpct::net {
namespace {

using Clock = service::Clock;

constexpr std::size_t kReadChunk = 64 * 1024;

/// Remaining budget in whole milliseconds for the wire (0 = no
/// deadline).  A just-expired deadline maps to 1 ms, not 0: the server
/// must still see *a* deadline and answer DeadlineExceeded.
std::uint32_t wire_deadline_ms(service::Deadline deadline,
                               Clock::time_point now) {
  if (deadline.is_infinite()) return 0;
  const auto remaining =
      std::chrono::duration_cast<std::chrono::milliseconds>(deadline.at - now)
          .count();
  if (remaining <= 0) return 1;
  if (remaining >= std::numeric_limits<std::uint32_t>::max()) {
    return std::numeric_limits<std::uint32_t>::max();
  }
  return static_cast<std::uint32_t>(remaining);
}

}  // namespace

Client::Client(ClientOptions options)
    : options_(std::move(options)),
      agreed_version_(options_.protocol_version) {}

void Client::disconnect() {
  socket_.close();
  in_.clear();
  in_offset_ = 0;
  pending_.clear();
  completed_.clear();
  pongs_.clear();
  hello_ack_.reset();
}

service::QueryResponse Client::call(service::Request request,
                                    service::Deadline deadline,
                                    std::uint64_t trace_id) {
  std::vector<service::Request> batch;
  batch.push_back(std::move(request));
  return std::move(call_batch(std::move(batch), deadline, trace_id).front());
}

std::vector<service::QueryResponse> Client::call_batch(
    std::vector<service::Request> requests, service::Deadline deadline,
    std::uint64_t trace_id) {
  trace::ScopedSpan span("net.call_batch", trace::Category::Net, "requests",
                         static_cast<std::int64_t>(requests.size()));
  // Logical requests, counted exactly once — retries below re-send some
  // of these but never re-count them.
  if (options_.metrics) {
    options_.metrics->net_requests_sent.add(requests.size());
  }
  std::vector<service::QueryResponse> responses(requests.size());
  std::vector<std::size_t> unanswered(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) unanswered[i] = i;

  int attempts = 0;
  auto backoff = options_.initial_backoff;
  // Sleep before a retry, honouring @p hint (a shedding server's
  // retry_after_ms) and never past the deadline.
  const auto pause_for_retry = [&](std::chrono::milliseconds hint) {
    auto pause = std::max(backoff, hint);
    if (!deadline.is_infinite()) {
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline.at - Clock::now());
      pause = std::min(pause, std::max(remaining,
                                       std::chrono::milliseconds(0)));
    }
    if (pause.count() > 0) std::this_thread::sleep_for(pause);
    backoff *= 2;
  };
  while (!unanswered.empty()) {
    if (deadline.expired()) {
      for (std::size_t i : unanswered) {
        responses[i].status = service::Status::deadline_exceeded();
      }
      break;
    }
    std::string error;
    const std::vector<std::size_t> sent = unanswered;
    if (attempt(requests, unanswered, responses, deadline, trace_id, error)) {
      // Overloaded answers are admission-control backpressure, not
      // verdicts on the request: within the retry budget, resend them
      // after sleeping at least the server's retry-after hint.
      std::vector<std::size_t> shed;
      std::uint32_t hint_ms = 0;
      for (std::size_t i : sent) {
        if (responses[i].status.code == service::StatusCode::Overloaded) {
          shed.push_back(i);
          hint_ms = std::max(hint_ms, responses[i].status.retry_after_ms);
        }
      }
      if (shed.empty() || attempts >= options_.max_retries ||
          deadline.expired()) {
        break;
      }
      ++attempts;
      if (options_.metrics) options_.metrics->net_retries.add();
      pause_for_retry(std::chrono::milliseconds(hint_ms));
      unanswered = std::move(shed);
      continue;
    }

    // Transport failure: the stream is unusable (unknown how much the
    // server saw), so reconnect and resend only what is unanswered.
    disconnect();
    if (attempts >= options_.max_retries) {
      for (std::size_t i : unanswered) {
        responses[i].status = service::Status::unavailable(error);
      }
      break;
    }
    ++attempts;
    if (options_.metrics) options_.metrics->net_retries.add();
    pause_for_retry(std::chrono::milliseconds(0));
  }
  return responses;
}

bool Client::ensure_connected(std::string& error) {
  if (socket_.valid()) return true;
  socket_ = connect_tcp(
      options_.host, options_.port,
      static_cast<int>(options_.connect_timeout.count()), error);
  if (socket_.valid() && options_.metrics) {
    options_.metrics->net_connections_opened.add();
  }
  return socket_.valid();
}

bool Client::attempt(const std::vector<service::Request>& requests,
                     std::vector<std::size_t>& unanswered,
                     std::vector<service::QueryResponse>& responses,
                     service::Deadline deadline, std::uint64_t trace_id,
                     std::string& error) {
  if (!ensure_connected(error)) return false;
  const std::uint32_t deadline_ms = wire_deadline_ms(deadline, Clock::now());

  // Pipelining: every frame is encoded up front and written in one go
  // before any response is awaited.  The ids are consecutive, so
  // id - first_id indexes @p unanswered.
  const std::uint64_t first_id = next_id_;
  std::vector<std::uint8_t> out;
  for (std::size_t index : unanswered) {
    const std::uint64_t id = next_id_++;
    // Untraced calls still get a per-request trace id (the request id)
    // so a v2 server can stitch its spans to this frame.
    const auto frame = wire::encode_request_frame(
        id, requests[index], deadline_ms, agreed_version_,
        trace_id != 0 ? trace_id : id, options_.priority);
    out.insert(out.end(), frame.begin(), frame.end());
    track(id);
  }

  std::vector<char> answered(unanswered.size(), 0);
  std::size_t waiting = unanswered.size();
  // Move this attempt's answers out of completed_; answers owed to
  // primitive-layer requests stay there for take_response().
  const auto collect = [&] {
    for (auto it = completed_.begin(); it != completed_.end();) {
      const std::uint64_t id = it->first;
      if (id < first_id || id - first_id >= answered.size()) {
        ++it;
        continue;
      }
      const std::size_t k = id - first_id;
      responses[unanswered[k]] = std::move(it->second);
      answered[k] = 1;
      --waiting;
      it = completed_.erase(it);
    }
  };

  bool ok = write_frames(out, unanswered.size(), deadline, error);
  while (ok) {
    collect();
    if (waiting == 0 || deadline.expired()) break;
    ok = pump_until(deadline.at, error) >= 0;
  }

  // The rest stays unanswered for the caller's retry after a transport
  // failure, and is answered DeadlineExceeded here after an expiry.
  const bool settled = ok || deadline.expired();
  std::size_t kept = 0;
  for (std::size_t k = 0; k < answered.size(); ++k) {
    if (answered[k]) continue;
    if (settled) {
      responses[unanswered[k]].status = service::Status::deadline_exceeded();
    } else {
      unanswered[kept++] = unanswered[k];
    }
  }
  unanswered.resize(kept);
  // After an expiry the stream may still hold half a request frame.
  if (settled && waiting > 0) disconnect();
  return settled;
}

bool Client::write_frames(const std::vector<std::uint8_t>& bytes,
                          std::size_t frames, service::Deadline deadline,
                          std::string& error) {
  std::size_t offset = 0;
  while (offset < bytes.size()) {
    const Clock::time_point now = Clock::now();
    if (deadline.expired(now)) {
      error = "deadline expired mid-write";
      disconnect();
      return false;
    }
    pollfd pfd{socket_.fd(), POLLIN | POLLOUT, 0};
    const int ready = ::poll(
        &pfd, 1,
        poll_timeout_ms(std::min(deadline.at, now + options_.io_timeout)));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) {
      error = ready == 0 ? "I/O timed out"
                         : std::string("poll: ") + ::strerror(errno);
      disconnect();
      return false;
    }
    // Keep receiving while writing, so a peer answering a long pipeline
    // never blocks on a full socket buffer of its own.
    if ((pfd.revents & (POLLIN | POLLERR | POLLHUP)) && receive(error) < 0) {
      return false;
    }
    if (!(pfd.revents & POLLOUT)) continue;
    const ssize_t n = ::send(socket_.fd(), bytes.data() + offset,
                             bytes.size() - offset, MSG_NOSIGNAL);
    if (n > 0) {
      offset += static_cast<std::size_t>(n);
      if (options_.metrics) {
        options_.metrics->net_bytes_out.add(static_cast<std::uint64_t>(n));
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                  errno == EINTR)) {
      continue;
    }
    error = std::string("send: ") + ::strerror(errno);
    disconnect();
    return false;
  }
  if (options_.metrics) options_.metrics->net_frames_out.add(frames);
  return true;
}

bool Client::drain_frames(std::string& error) {
  const auto broken = [&](const char* what, const wire::WireError& why) {
    if (options_.metrics) options_.metrics->net_decode_errors.add();
    error = what + why.to_string();
    return false;
  };
  while (in_offset_ < in_.size()) {
    const wire::FrameScan scan =
        wire::scan_frame(in_.data() + in_offset_, in_.size() - in_offset_);
    if (scan.state == wire::FrameScan::State::NeedMore) break;
    if (scan.state == wire::FrameScan::State::Bad) {
      return broken("bad response stream: ", scan.error);
    }
    const std::uint8_t* frame = in_.data() + in_offset_;
    const std::size_t frame_size = scan.frame_size;
    in_offset_ += frame_size;
    switch (scan.header.kind) {
      case wire::FrameKind::Pong:
        pongs_.insert(scan.header.request_id);
        continue;
      case wire::FrameKind::HelloAck: {
        auto ack = wire::decode_hello_ack_frame(frame, frame_size);
        if (!ack.ok()) return broken("bad HelloAck frame: ", ack.error);
        hello_ack_ = *ack.value;
        continue;
      }
      case wire::FrameKind::Response:
        break;
      default:
        continue;  // Request/Ping/Hello towards a client: ignore
    }
    auto decoded = wire::decode_response_frame(frame, frame_size);
    if (!decoded.ok()) return broken("bad response frame: ", decoded.error);
    if (options_.metrics) options_.metrics->net_frames_in.add();
    const std::uint64_t id = decoded.value->request_id;
    // Only tracked ids are kept; cancelled/stale responses are dropped.
    if (pending_.erase(id) > 0) {
      completed_.emplace(id, std::move(decoded.value->response));
    }
  }
  if (in_offset_ == in_.size()) {
    in_.clear();
    in_offset_ = 0;
  } else if (in_offset_ > (1u << 20)) {
    in_.erase(in_.begin(),
              in_.begin() + static_cast<std::ptrdiff_t>(in_offset_));
    in_offset_ = 0;
  }
  return true;
}

bool Client::send_request(const service::Request& request,
                          service::Deadline deadline, std::uint64_t trace_id,
                          std::uint64_t& id_out, std::string& error,
                          std::optional<qos::PriorityClass> priority) {
  if (!ensure_connected(error)) return false;
  const std::uint64_t id = next_id_++;
  const auto frame = wire::encode_request_frame(
      id, request, wire_deadline_ms(deadline, Clock::now()), agreed_version_,
      trace_id != 0 ? trace_id : id, priority ? priority : options_.priority);
  if (!write_frames(frame, 1, deadline, error)) return false;
  track(id);
  id_out = id;
  return true;
}

bool Client::send_cancel(std::uint64_t id, std::string& error) {
  if (agreed_version_ < 2) return true;  // cancellation does not exist at v1
  if (!socket_.valid()) {
    error = "not connected";
    return false;
  }
  // The caller is abandoning this request; bound the courtesy write by
  // the io stall timeout rather than the (often already expired)
  // request deadline.
  if (!write_frames(wire::encode_cancel_frame(id), 1,
                    service::Deadline::in(options_.io_timeout), error)) {
    return false;
  }
  if (options_.metrics) options_.metrics->qos_cancels_sent.add();
  trace::emit_instant("net.cancel_sent", trace::Category::Qos);
  return true;
}

void Client::track(std::uint64_t id) {
  if (pending_.empty()) heard_at_ = Clock::now();
  pending_.insert(id);
}

Clock::time_point Client::stall_at() const {
  return pending_.empty() ? Clock::time_point::max()
                          : heard_at_ + options_.io_timeout;
}

int Client::receive(std::string& error) {
  if (!socket_.valid()) {
    error = "not connected";
    return -1;
  }
  // Read until a short read or EAGAIN.  A close or error after bytes
  // were read is left to the next call, once their frames are taken.
  bool heard = false;
  if (!recv_buffer_) {
    recv_buffer_ = std::make_unique_for_overwrite<std::uint8_t[]>(kReadChunk);
  }
  for (;;) {
    const ssize_t n = ::recv(socket_.fd(), recv_buffer_.get(), kReadChunk, 0);
    const int recv_errno = errno;
    if (n > 0) {
      in_.insert(in_.end(), recv_buffer_.get(), recv_buffer_.get() + n);
      heard = true;
      if (options_.metrics) {
        options_.metrics->net_bytes_in.add(static_cast<std::uint64_t>(n));
      }
      if (static_cast<std::size_t>(n) < kReadChunk) break;
      continue;
    }
    if (n < 0 && recv_errno == EINTR) continue;
    if (heard ||
        (n < 0 && (recv_errno == EAGAIN || recv_errno == EWOULDBLOCK))) {
      break;
    }
    error = n == 0 ? "connection closed by server"
                   : std::string("recv: ") + ::strerror(recv_errno);
    disconnect();
    return -1;
  }

  const Clock::time_point now = Clock::now();
  if (heard) heard_at_ = now;
  const std::size_t before = completed_.size();
  if (!drain_frames(error)) {
    disconnect();
    return -1;
  }
  if (now >= stall_at()) {
    error = "I/O timed out";
    disconnect();
    return -1;
  }
  return static_cast<int>(completed_.size() - before);
}

int Client::pump_until(Clock::time_point until, std::string& error) {
  // A disconnected client has nothing to wait for: receive() says so.
  if (socket_.valid()) {
    pollfd pfd{socket_.fd(), POLLIN, 0};
    ::poll(&pfd, 1, poll_timeout_ms(std::min(until, stall_at())));
  }
  return receive(error);
}

int Client::pump(std::chrono::milliseconds wait, std::string& error) {
  return pump_until(Clock::now() + wait, error);
}

bool Client::take_response(std::uint64_t id, service::QueryResponse& out) {
  const auto it = completed_.find(id);
  if (it == completed_.end()) return false;
  out = std::move(it->second);
  completed_.erase(it);
  return true;
}

void Client::cancel(std::uint64_t id) {
  pending_.erase(id);
  completed_.erase(id);
}

bool Client::ping(std::chrono::milliseconds timeout, std::string& error) {
  if (!ensure_connected(error)) return false;
  const std::uint64_t id = next_id_++;
  const service::Deadline deadline = service::Deadline::in(timeout);
  if (!write_frames(wire::encode_ping_frame(id), 1, deadline, error)) {
    return false;
  }
  while (!pongs_.count(id)) {
    if (deadline.expired()) {
      error = "ping timed out";
      return false;
    }
    if (pump_until(deadline.at, error) < 0) return false;
  }
  pongs_.erase(id);
  return true;
}

service::Status Client::negotiate() {
  std::string error;
  if (!ensure_connected(error)) return service::Status::unavailable(error);
  const std::uint64_t id = next_id_++;
  const service::Deadline deadline =
      service::Deadline::in(options_.io_timeout);
  hello_ack_.reset();
  if (!write_frames(wire::encode_hello_frame(id, wire::kMinProtocolVersion,
                                             options_.protocol_version),
                    1, deadline, error)) {
    return service::Status::unavailable(error);
  }
  while (!hello_ack_ || hello_ack_->request_id != id) {
    if (deadline.expired()) {
      disconnect();
      return service::Status::unavailable("negotiation timed out");
    }
    if (pump_until(deadline.at, error) < 0) {
      return service::Status::unavailable(error);
    }
  }
  const wire::HelloAckFrame ack = *hello_ack_;
  hello_ack_.reset();
  if (!ack.status.ok()) return ack.status;
  if (ack.agreed_version < wire::kMinProtocolVersion ||
      ack.agreed_version > options_.protocol_version) {
    disconnect();
    return service::Status::protocol_error(
        "server agreed to version " + std::to_string(ack.agreed_version) +
        ", outside the advertised range");
  }
  agreed_version_ = ack.agreed_version;
  return service::Status::okay();
}

}  // namespace mpct::net
