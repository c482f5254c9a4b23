#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/capture.hpp"
#include "net/socket.hpp"
#include "service/engine.hpp"
#include "wire/protocol.hpp"

namespace mpct::net {

/// Tuning knobs of a Server.
struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; Server::port() reports the actual one.
  std::uint16_t port = 0;

  /// When non-empty, record every well-framed request frame (verbatim,
  /// with arrival gaps) to this capture file for later replay with
  /// net::replay_capture.  Opening the file is part of start(): a path
  /// that cannot be created fails the server rather than silently
  /// recording nothing.
  std::string capture_path;

  /// Where decoded SpanBatch frames (streaming flight-recorder export)
  /// go — set on a collector server, typically feeding a
  /// trace::Collector.  Called from the loop thread; keep it cheap
  /// (the Collector's ingest is one lock + a few vector appends).
  /// Span batches are fire-and-forget: no response frame is written,
  /// and without a sink they are counted and discarded.
  std::function<void(wire::SpanBatchFrame)> span_sink;
};

/// Poll-based nonblocking TCP front end for a service::QueryEngine.
///
/// One event-loop thread owns every socket: it accepts connections,
/// splits the byte stream into frames (wire::scan_frame), decodes
/// requests and hands them to the engine via submit_async().  Engine
/// callbacks run on worker threads: they encode the response frame there
/// (keeping serialisation off the loop) and enqueue the bytes to a
/// completion list the loop drains after a self-pipe wake-up.  Responses
/// therefore complete out of order; clients match them by request id.
///
/// Error handling is two-tier, mirroring the wire layer's split:
///  * A broken *stream* (bad magic, unknown version, oversized frame)
///    means framing is unrecoverable — the connection is closed.
///  * A malformed *payload* inside a well-framed frame gets a typed
///    StatusCode::ProtocolError response keyed by the frame's request
///    id, and the stream continues.
///
/// Backpressure is never silent: a full engine queue surfaces as a
/// QueueFull response on the wire, and a slow-reading client stops being
/// read from (past 4 MiB of unsent response bytes) until it catches up.
class Server {
 public:
  /// Per-request wire context handed to a Handler alongside the decoded
  /// request.  `trace_id` is the frame's v2 trace field (0 on v1
  /// frames); `priority` is the decoded QoS class (the request type's
  /// default when the frame did not carry the byte); (`conn_id`,
  /// `request_id`) is the cancellation identity the engine registers
  /// the request under — a later CancelRequest frame on the same
  /// connection names exactly this pair.
  struct RequestContext {
    std::uint64_t trace_id = 0;
    qos::PriorityClass priority = qos::PriorityClass::Interactive;
    std::uint64_t conn_id = 0;
    std::uint64_t request_id = 0;
  };

  /// Where decoded request frames go.  The handler must eventually
  /// invoke the callback exactly once (from any thread); the response
  /// is encoded there and shipped back on the frame's connection at the
  /// frame's wire version.
  using Handler =
      std::function<void(service::Request, service::Deadline,
                         const RequestContext&,
                         service::QueryEngine::ResponseCallback)>;

  /// The engine must outlive the server.  Network counters are recorded
  /// into engine.metrics().
  explicit Server(service::QueryEngine& engine, ServerOptions options = {});

  /// Generic front end (the cluster proxy tier): requests go to
  /// @p handler instead of an engine.  The caller owns draining — every
  /// callback must have fired before this Server is destroyed (the
  /// engine ctor gets that for free from QueryEngine::drain()).
  Server(Handler handler, service::MetricsRegistry& metrics,
         ServerOptions options = {});

  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen and launch the event-loop thread.  False + error() on
  /// failure (port in use, bad address).
  bool start();

  /// Graceful drain: stop accepting connections and reading requests,
  /// wait (up to 5 s) for in-flight requests to resolve and their
  /// responses to flush, then close everything and join the loop.
  /// Idempotent; called by the destructor.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// Actual bound port (after start()); useful with ServerOptions::port 0.
  std::uint16_t port() const { return port_; }
  const std::string& error() const { return error_; }
  const ServerOptions& options() const { return options_; }

  /// Live connection count, as seen by the loop (test/diagnostic aid).
  std::size_t connection_count() const {
    return connection_count_.load(std::memory_order_acquire);
  }

 private:
  struct Connection {
    Socket socket;
    std::vector<std::uint8_t> read_buffer;
    /// Pending response bytes; write_offset marks how much of the front
    /// has already been sent (compacted once fully drained).
    std::vector<std::uint8_t> write_buffer;
    std::size_t write_offset = 0;
    /// Requests handed to the engine whose responses have not yet been
    /// appended to write_buffer.
    std::size_t in_flight = 0;
    /// Reading paused by the write watermark.
    bool paused = false;
    std::chrono::steady_clock::time_point last_activity{};
  };

  void loop();
  void accept_connections();
  // The bool-returning handlers report "connection still healthy"; only
  // their top-level callers (the loop, drain_completions) close and
  // erase connections, so no frame on the stack ever holds a reference
  // into an erased Connection.
  bool handle_readable(std::uint64_t conn_id, Connection& conn);
  bool handle_writable(Connection& conn);
  /// Split conn.read_buffer into frames and dispatch them.  Returns
  /// false when the stream is broken and the connection must close.
  bool consume_frames(std::uint64_t conn_id, Connection& conn);
  /// Answer or hand off one complete frame at @p frame, whose header
  /// consume_frames() already scanned into @p scan (state Ready).
  bool dispatch_request(std::uint64_t conn_id, Connection& conn,
                        const std::uint8_t* frame,
                        const wire::FrameScan& scan);
  /// Append encoded response bytes to a connection's write buffer,
  /// update the watermark, and opportunistically flush (loop thread
  /// only).
  bool queue_write(Connection& conn, std::vector<std::uint8_t> bytes);
  /// Thread-safe completion entry point used by engine callbacks.
  void enqueue_completion(std::uint64_t conn_id,
                          std::vector<std::uint8_t> bytes);
  void drain_completions();
  void close_connection(std::uint64_t conn_id);
  void sweep_idle(std::chrono::steady_clock::time_point now);
  void wake();

  Handler handler_;
  /// Set only by the engine ctor; stop() drains it so no callback can
  /// outlive this object.  Null in handler mode.
  service::QueryEngine* engine_ = nullptr;
  ServerOptions options_;
  service::MetricsRegistry& metrics_;

  Socket listener_;
  std::uint16_t port_ = 0;
  std::string error_;

  /// Traffic recorder (ServerOptions::capture_path); owned and touched
  /// by start()/stop() and the loop thread only.
  CaptureWriter capture_;

  /// Self-pipe: [0] is polled by the loop, [1] is written by callbacks
  /// (and stop()) to interrupt a blocking poll.
  int wake_fds_[2] = {-1, -1};

  std::thread loop_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  /// Owned and touched by the loop thread only.
  std::unordered_map<std::uint64_t, Connection> connections_;
  /// Scratch every recv() lands in before its bytes are appended to the
  /// connection's read buffer (allocated on first read, never zeroed).
  std::unique_ptr<std::uint8_t[]> recv_buffer_;
  std::uint64_t next_conn_id_ = 1;
  std::atomic<std::size_t> connection_count_{0};

  /// Requests accepted by this server whose responses have not yet been
  /// appended to a write buffer (or dropped with their connection).
  /// Tracked here rather than via the engine (which may be shared).
  std::atomic<std::size_t> in_flight_total_{0};

  std::mutex completions_mutex_;
  std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>>
      completions_;
};

}  // namespace mpct::net
