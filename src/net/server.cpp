#include "net/server.hpp"

#include <errno.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "trace/trace.hpp"
#include "wire/wire.hpp"

namespace mpct::net {
namespace {

using Clock = std::chrono::steady_clock;

/// Chunk size for recv(); frames larger than this just take several
/// reads to accumulate.
constexpr std::size_t kReadChunk = 64 * 1024;

/// Poll granularity: upper bound on how stale the idle sweep and the
/// drain-deadline check can be.  Completions interrupt poll via the
/// self-pipe, so this is not a latency floor.
constexpr int kPollTickMs = 100;

/// Reading from a connection pauses once its unsent response bytes
/// exceed this (and resumes below half of it).  Bounds per-connection
/// memory against a client that pipelines faster than it reads.
constexpr std::size_t kWriteHighWatermark = 4u << 20;

/// A connection with no traffic, no queued writes and no in-flight
/// requests for this long is closed.
constexpr std::chrono::milliseconds kIdleTimeout{30000};

/// Open connections the loop holds at most; it stops accepting (new
/// clients wait in the listen backlog) until one closes.
constexpr std::size_t kMaxConnections = 256;

/// How long stop() waits for in-flight requests to complete and
/// response bytes to flush before closing connections anyway.
constexpr std::chrono::milliseconds kDrainTimeout{5000};

}  // namespace

Server::Server(service::QueryEngine& engine, ServerOptions options)
    : handler_([&engine](service::Request request, service::Deadline deadline,
                         const RequestContext& context,
                         service::QueryEngine::ResponseCallback callback) {
        // The wire identity (connection serial, request id) doubles as
        // the engine's cancellation key, so a CancelRequest frame can
        // name this submission later.
        engine.submit_async(std::move(request), deadline, context.priority,
                            context.conn_id, context.request_id,
                            std::move(callback));
      }),
      engine_(&engine),
      options_(std::move(options)),
      metrics_(engine.metrics()) {}

Server::Server(Handler handler, service::MetricsRegistry& metrics,
               ServerOptions options)
    : handler_(std::move(handler)),
      options_(std::move(options)),
      metrics_(metrics) {}

Server::~Server() { stop(); }

bool Server::start() {
  if (running_.load(std::memory_order_acquire)) return true;
  error_.clear();
  stopping_.store(false, std::memory_order_release);

  listener_ = listen_tcp(options_.host, options_.port, port_, error_);
  if (!listener_.valid()) return false;

  if (!options_.capture_path.empty() &&
      !capture_.open(options_.capture_path, error_)) {
    listener_.close();
    return false;
  }

  if (::pipe(wake_fds_) != 0) {
    error_ = std::string("pipe: ") + ::strerror(errno);
    listener_.close();
    capture_.close();
    return false;
  }
  set_nonblocking(wake_fds_[0]);
  set_nonblocking(wake_fds_[1]);

  running_.store(true, std::memory_order_release);
  loop_thread_ = std::thread([this] { loop(); });
  return true;
}

void Server::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stopping_.store(true, std::memory_order_release);
  wake();
  if (loop_thread_.joinable()) loop_thread_.join();
  running_.store(false, std::memory_order_release);

  // The loop may have given up on slow in-flight requests at the drain
  // deadline; their engine callbacks still reference this object.  Wait
  // for the engine to finish everything before tearing state down so no
  // callback can touch a dead Server.  (Handler mode: the handler's
  // owner provides this guarantee — see the Handler ctor contract.)
  if (engine_) engine_->drain();

  for (int& fd : wake_fds_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
  connections_.clear();
  connection_count_.store(0, std::memory_order_release);
  completions_.clear();
  capture_.close();
}

void Server::wake() {
  if (wake_fds_[1] < 0) return;
  const char byte = 1;
  // EAGAIN means the pipe already holds a wake-up; that is enough.
  [[maybe_unused]] ssize_t n = ::write(wake_fds_[1], &byte, 1);
}

void Server::loop() {
  std::vector<pollfd> pfds;
  std::vector<std::uint64_t> pfd_conn;  // conn id per pollfd row (0 = none)
  bool drain_deadline_set = false;
  Clock::time_point drain_deadline{};

  for (;;) {
    const bool stopping = stopping_.load(std::memory_order_acquire);
    if (stopping && !drain_deadline_set) {
      drain_deadline = Clock::now() + kDrainTimeout;
      drain_deadline_set = true;
    }
    if (stopping) {
      const bool drained =
          in_flight_total_.load(std::memory_order_acquire) == 0 &&
          std::all_of(connections_.begin(), connections_.end(),
                      [](const auto& kv) {
                        return kv.second.write_buffer.size() ==
                               kv.second.write_offset;
                      });
      if (drained || Clock::now() >= drain_deadline) break;
    }

    pfds.clear();
    pfd_conn.clear();
    pfds.push_back({wake_fds_[0], POLLIN, 0});
    pfd_conn.push_back(0);
    const bool accepting =
        !stopping && connections_.size() < kMaxConnections;
    if (accepting) {
      pfds.push_back({listener_.fd(), POLLIN, 0});
      pfd_conn.push_back(0);
    }
    for (auto& [id, conn] : connections_) {
      short events = 0;
      if (!stopping && !conn.paused) events |= POLLIN;
      if (conn.write_buffer.size() > conn.write_offset) events |= POLLOUT;
      pfds.push_back({conn.socket.fd(), events, 0});
      pfd_conn.push_back(id);
    }

    ::poll(pfds.data(), pfds.size(), kPollTickMs);

    if (pfds[0].revents & POLLIN) {
      char buf[64];
      while (::read(wake_fds_[0], buf, sizeof(buf)) > 0) {
      }
    }
    drain_completions();
    if (accepting && (pfds[1].revents & POLLIN)) accept_connections();

    // Walk by conn id, re-resolving per event: any handler may have
    // closed the connection (stale pollfd rows must not be trusted).
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      const std::uint64_t id = pfd_conn[i];
      if (id == 0) continue;
      auto it = connections_.find(id);
      if (it == connections_.end()) continue;
      const short revents = pfds[i].revents;
      if (revents & (POLLERR | POLLHUP | POLLNVAL)) {
        close_connection(id);
        continue;
      }
      if ((revents & POLLOUT) && !handle_writable(it->second)) {
        close_connection(id);
        continue;
      }
      if ((revents & POLLIN) && !handle_readable(id, it->second)) {
        close_connection(id);
      }
    }

    if (!stopping) sweep_idle(Clock::now());
  }

  // Shutdown: close every socket.  Completions racing in afterwards are
  // swallowed by the final drain in stop() — the engine is drained there
  // before the Server dies, so no callback outlives it.
  drain_completions();
  for (auto& [id, conn] : connections_) {
    (void)id;
    conn.socket.close();
    metrics_.net_connections_closed.add();
    metrics_.net_active_connections.decrement();
  }
  connections_.clear();
  connection_count_.store(0, std::memory_order_release);
  listener_.close();
}

void Server::accept_connections() {
  for (;;) {
    if (connections_.size() >= kMaxConnections) break;
    const int fd = ::accept(listener_.fd(), nullptr, nullptr);
    if (fd < 0) break;  // EAGAIN or transient error: try next poll round
    trace::emit_instant("net.accept", trace::Category::Net);
    set_nonblocking(fd);
    set_nodelay(fd);
    Connection conn;
    conn.socket = Socket(fd);
    conn.last_activity = Clock::now();
    connections_.emplace(next_conn_id_++, std::move(conn));
    connection_count_.store(connections_.size(), std::memory_order_release);
    metrics_.net_connections_opened.add();
    metrics_.net_active_connections.increment();
  }
}

bool Server::handle_readable(std::uint64_t conn_id, Connection& conn) {
  // One uninitialised chunk, reused by every read of every connection
  // (loop thread only): only the bytes received are appended.
  if (!recv_buffer_) {
    recv_buffer_ = std::make_unique_for_overwrite<std::uint8_t[]>(kReadChunk);
  }
  for (;;) {
    const ssize_t n = ::recv(conn.socket.fd(), recv_buffer_.get(), kReadChunk, 0);
    if (n > 0) {
      conn.read_buffer.insert(conn.read_buffer.end(), recv_buffer_.get(),
                              recv_buffer_.get() + n);
      conn.last_activity = Clock::now();
      metrics_.net_bytes_in.add(static_cast<std::uint64_t>(n));
      if (!consume_frames(conn_id, conn)) return false;
      // consume_frames may have tripped the write watermark: stop
      // reading until the client drains its responses.
      if (conn.paused) return true;
      if (static_cast<std::size_t>(n) < kReadChunk) return true;
      continue;
    }
    if (n == 0) return false;  // orderly EOF
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return true;
    return false;
  }
}

bool Server::consume_frames(std::uint64_t conn_id, Connection& conn) {
  bool ok = true;
  std::size_t offset = 0;
  while (offset < conn.read_buffer.size()) {
    const wire::FrameScan scan = wire::scan_frame(
        conn.read_buffer.data() + offset, conn.read_buffer.size() - offset);
    if (scan.state == wire::FrameScan::State::NeedMore) break;
    if (scan.state == wire::FrameScan::State::Bad) {
      // Framing is gone: nothing downstream of a bad header can be
      // trusted, so the stream (not just the frame) is unrecoverable.
      metrics_.net_decode_errors.add();
      ok = false;
      break;
    }
    metrics_.net_frames_in.add();
    if (!dispatch_request(conn_id, conn, conn.read_buffer.data() + offset,
                          scan)) {
      ok = false;
      break;
    }
    offset += scan.frame_size;
  }
  conn.read_buffer.erase(conn.read_buffer.begin(),
                         conn.read_buffer.begin() +
                             static_cast<std::ptrdiff_t>(offset));
  return ok;
}

bool Server::dispatch_request(std::uint64_t conn_id, Connection& conn,
                              const std::uint8_t* frame,
                              const wire::FrameScan& scan) {
  const std::size_t frame_size = scan.frame_size;
  // Request frames install their wire trace id as the thread's trace
  // context before the dispatch span opens, so this span — and every
  // span the handler records inline — is stamped with it.
  trace::TraceContextScope context(
      scan.header.kind == wire::FrameKind::Request ? scan.header.trace_id : 0);
  trace::ScopedSpan span("net.dispatch", trace::Category::Net);

  // Control frames are answered inline on the loop thread: they carry
  // no payload worth a worker round trip, and health probes must stay
  // answerable even when the engine queue is saturated.
  switch (scan.header.kind) {
    case wire::FrameKind::Ping:
      return queue_write(conn,
                         wire::encode_pong_frame(scan.header.request_id));
    case wire::FrameKind::Hello: {
      auto hello = wire::decode_hello_frame(frame, frame_size);
      if (!hello.ok()) {
        metrics_.net_decode_errors.add();
        return queue_write(
            conn, wire::encode_hello_ack_frame(
                      scan.header.request_id,
                      service::Status::protocol_error(
                          hello.error.to_string()),
                      wire::kProtocolVersion));
      }
      const auto agreed = wire::negotiate_version(hello.value->min_version,
                                                  hello.value->max_version);
      service::Status status =
          agreed ? service::Status::okay()
                 : service::Status::unsupported_version(
                       "client speaks " +
                       std::to_string(hello.value->min_version) + ".." +
                       std::to_string(hello.value->max_version) +
                       ", this server speaks " +
                       std::to_string(wire::kMinProtocolVersion) + ".." +
                       std::to_string(wire::kProtocolVersion));
      return queue_write(
          conn, wire::encode_hello_ack_frame(
                    hello.value->request_id, status,
                    agreed.value_or(wire::kProtocolVersion)));
    }
    case wire::FrameKind::Pong:
    case wire::FrameKind::HelloAck:
      return true;  // meaningless server-side; tolerate and move on
    case wire::FrameKind::CancelRequest: {
      // Fire-and-forget: no response frame.  The cancelled request's own
      // response (Cancelled if the cancel won, the result if it lost) is
      // the acknowledgement, so an unknown/already-resolved id needs no
      // answer either.
      auto cancel = wire::decode_cancel_frame(frame, frame_size);
      if (!cancel.ok()) {
        metrics_.net_decode_errors.add();
        return true;  // losing one cancel must not kill the stream
      }
      metrics_.qos_cancels_received.add();
      trace::emit_instant("net.cancel_request", trace::Category::Qos);
      // Handler mode (the proxy tier) has no engine-side queue to
      // reclaim; the frame is counted and dropped there.
      if (engine_ != nullptr) {
        engine_->cancel(conn_id, cancel.value->request_id);
      }
      return true;
    }
    case wire::FrameKind::SpanBatch: {
      // Fire-and-forget streaming export: no response frame ever.  A
      // malformed payload inside a good frame is counted and skipped —
      // losing one batch must not kill the stream carrying the rest.
      auto batch = wire::decode_span_batch_frame(frame, frame_size);
      if (!batch.ok()) {
        metrics_.net_decode_errors.add();
        return true;
      }
      metrics_.trace_collector_batches.add();
      metrics_.trace_collector_spans.add(batch.value->batch.spans.size());
      if (options_.span_sink) options_.span_sink(std::move(*batch.value));
      return true;
    }
    default:
      break;  // Request (or Response, rejected in-band below)
  }

  // Recorder hook: every well-framed request frame, verbatim, before
  // decode — so a replay exercises the same decode path this server
  // did, malformed payloads included.  Loop thread only, like all
  // frame handling.
  if (capture_.is_open() && scan.header.kind == wire::FrameKind::Request) {
    capture_.record(frame, frame_size);
  }

  auto decoded = wire::decode_request_frame(frame, frame_size);
  if (!decoded.ok()) {
    // Well-framed but undecodable payload: answer in-band so the client
    // learns *which* request died, and keep the stream alive.
    metrics_.net_decode_errors.add();
    service::QueryResponse response;
    response.status =
        service::Status::protocol_error(decoded.error.to_string());
    return queue_write(conn, wire::encode_response_frame(
                                 scan.header.request_id, response,
                                 scan.header.version,
                                 scan.header.trace_id));
  }

  const std::uint64_t request_id = decoded.value->request_id;
  const std::uint16_t version = decoded.value->version;
  const std::uint64_t trace_id = decoded.value->trace_id;
  if (trace_id != 0) {
    span.annotate("trace_id", static_cast<std::int64_t>(trace_id));
  }
  service::Deadline deadline = service::Deadline::never();
  if (decoded.value->deadline_ms > 0) {
    deadline = service::Deadline::in(
        std::chrono::milliseconds(decoded.value->deadline_ms));
  }

  ++conn.in_flight;
  in_flight_total_.fetch_add(1, std::memory_order_acq_rel);
  const RequestContext request_context{trace_id, decoded.value->priority,
                                       conn_id, request_id};
  const auto complete = [this, conn_id, request_id, version,
                         trace_id](service::QueryResponse response) {
    // Worker thread (or this thread, for rejections): encode here so
    // serialisation cost never lands on the event loop.  The response
    // goes out at the version (and with the trace id) the request
    // arrived with, which is what keeps v1 clients working.
    trace::TraceContextScope encode_context(trace_id);
    trace::ScopedSpan encode_span("net.encode", trace::Category::Net,
                                  "trace_id",
                                  static_cast<std::int64_t>(trace_id));
    enqueue_completion(conn_id, wire::encode_response_frame(
                                    request_id, response, version, trace_id));
  };
  // A handler answers every request it accepts, so one that throws has
  // not answered this one: the exception becomes its answer, and one
  // request can never end the server.
  service::QueryResponse failed;
  try {
    handler_(std::move(decoded.value->request), deadline, request_context,
             complete);
    return true;
  } catch (const std::exception& e) {
    failed.status = service::Status::internal_error(e.what());
  } catch (...) {
    failed.status = service::Status::internal_error("unknown exception");
  }
  complete(std::move(failed));
  return true;
}

void Server::enqueue_completion(std::uint64_t conn_id,
                                std::vector<std::uint8_t> bytes) {
  {
    std::lock_guard<std::mutex> lock(completions_mutex_);
    completions_.emplace_back(conn_id, std::move(bytes));
  }
  wake();
}

void Server::drain_completions() {
  std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>> ready;
  {
    std::lock_guard<std::mutex> lock(completions_mutex_);
    ready.swap(completions_);
  }
  for (auto& [conn_id, bytes] : ready) {
    in_flight_total_.fetch_sub(1, std::memory_order_acq_rel);
    auto it = connections_.find(conn_id);
    if (it == connections_.end()) continue;  // client left; drop response
    if (it->second.in_flight > 0) --it->second.in_flight;
    if (!queue_write(it->second, std::move(bytes))) close_connection(conn_id);
  }
}

bool Server::queue_write(Connection& conn, std::vector<std::uint8_t> bytes) {
  conn.write_buffer.insert(conn.write_buffer.end(), bytes.begin(),
                           bytes.end());
  metrics_.net_frames_out.add();
  const std::size_t pending = conn.write_buffer.size() - conn.write_offset;
  if (!conn.paused && pending > kWriteHighWatermark) {
    conn.paused = true;
  }
  // Opportunistic flush: most responses fit the socket buffer, so this
  // usually clears the backlog without waiting for the next POLLOUT.
  return handle_writable(conn);
}

bool Server::handle_writable(Connection& conn) {
  trace::ScopedSpan span("net.flush", trace::Category::Net);
  while (conn.write_offset < conn.write_buffer.size()) {
    const ssize_t n = ::send(
        conn.socket.fd(), conn.write_buffer.data() + conn.write_offset,
        conn.write_buffer.size() - conn.write_offset, MSG_NOSIGNAL);
    if (n > 0) {
      conn.write_offset += static_cast<std::size_t>(n);
      conn.last_activity = Clock::now();
      metrics_.net_bytes_out.add(static_cast<std::uint64_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      break;
    }
    return false;
  }
  if (conn.write_offset == conn.write_buffer.size()) {
    conn.write_buffer.clear();
    conn.write_offset = 0;
  } else if (conn.write_offset > (1u << 20)) {
    // Compact occasionally so a long-lived backlog does not pin the
    // already-sent prefix.
    conn.write_buffer.erase(conn.write_buffer.begin(),
                            conn.write_buffer.begin() +
                                static_cast<std::ptrdiff_t>(conn.write_offset));
    conn.write_offset = 0;
  }
  const std::size_t pending = conn.write_buffer.size() - conn.write_offset;
  if (conn.paused && pending < kWriteHighWatermark / 2) {
    conn.paused = false;
  }
  return true;
}

void Server::close_connection(std::uint64_t conn_id) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  // In-flight responses for this connection will be dropped when their
  // completions arrive; in_flight_total_ is decremented there, so the
  // drain accounting stays exact.
  connections_.erase(it);
  connection_count_.store(connections_.size(), std::memory_order_release);
  metrics_.net_connections_closed.add();
  metrics_.net_active_connections.decrement();
}

void Server::sweep_idle(Clock::time_point now) {
  std::vector<std::uint64_t> idle;
  for (const auto& [id, conn] : connections_) {
    if (conn.in_flight > 0) continue;
    if (conn.write_buffer.size() > conn.write_offset) continue;
    if (now - conn.last_activity >= kIdleTimeout) idle.push_back(id);
  }
  for (std::uint64_t id : idle) close_connection(id);
}

}  // namespace mpct::net
