#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/socket.hpp"
#include "service/engine.hpp"
#include "wire/protocol.hpp"

namespace mpct::net {

/// Tuning knobs of a Client.
struct ClientOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::chrono::milliseconds connect_timeout{2000};
  /// Stall bound: a connection that owes answers and receives no byte
  /// for this long counts as dead.  It applies to the synchronous calls
  /// and the primitive layer alike, and also bounds each blocked write.
  std::chrono::milliseconds io_timeout{10000};
  /// Reconnect-and-resend attempts after the first try.  Every request
  /// in the service API is idempotent (pure functions of the request +
  /// the engine's component library), so resending is always safe.
  int max_retries = 2;
  /// First retry backoff; doubles per retry.
  std::chrono::milliseconds initial_backoff{50};
  /// Highest wire version this client will speak.  Frames are encoded at
  /// this version until negotiate() agrees on another; set 1 to emulate
  /// an old v1 client against a v2 server.
  std::uint16_t protocol_version = wire::kProtocolVersion;
  /// Optional registry for net_* counters (e.g. the engine's own, or a
  /// client-side one).  May be null.
  service::MetricsRegistry* metrics = nullptr;
  /// QoS class stamped on every request frame this client sends.
  /// nullopt lets the wire layer derive the request type's default
  /// class (point queries Interactive, grid work Batch); a replay soak
  /// sets Background so live traffic outranks it.  v1 frames cannot
  /// carry the byte — the value is dropped when the agreed version is 1.
  std::optional<qos::PriorityClass> priority;
};

/// Blocking TCP client for a net::Server.
///
/// call() submits one request; call_batch() pipelines a whole batch on
/// one connection — every frame is written before responses are
/// awaited, and responses are matched to requests by id, so the server
/// completing them out of order is invisible to the caller.
///
/// Failure model (all failures are *typed*, never exceptions):
///  * Transport errors (connect refused, reset, EOF, undecodable
///    response bytes) are retried with exponential backoff, resending
///    only the still-unanswered requests; when retries are exhausted the
///    remaining slots get StatusCode::Unavailable.
///  * A deadline bounds the whole call: the remaining budget travels on
///    the wire (the server rejects late requests DeadlineExceeded), and
///    a locally-expired deadline yields DeadlineExceeded without I/O.
///  * Per-request server-side errors (QueueFull, ProtocolError, ...)
///    arrive as ordinary responses and are returned as-is — they are
///    answers, not transport failures, and are never retried.  The one
///    exception is StatusCode::Overloaded: an admission-control shed is
///    explicitly transient, so call()/call_batch() resend shed requests
///    within the retry budget, sleeping max(backoff, the server's
///    retry_after_ms hint) first.
///
/// Metrics accounting: net_requests_sent counts *logical* requests —
/// once per request handed to call()/call_batch(), never re-counted on
/// retry (retries tick net_retries; hedges issued by the cluster layer
/// tick net_hedges_sent there).
///
/// Besides the synchronous API there is a non-blocking primitive layer
/// (send_request / receive / take_response / cancel) used by
/// cluster::ClusterClient to hedge across connections: it needs to park
/// a request on one server, start the same request elsewhere, and
/// cancel whichever loses.  Both styles track requests by id in one
/// stream state and read through one receive step, so they mix on one
/// client: a synchronous call leaves a pending primitive-layer answer
/// for take_response().  io_timeout bounds both: receive() declares a
/// connection dead once it owes answers and has been silent that long.
///
/// Not thread-safe: one Client per thread (they are cheap — one socket).
class Client {
 public:
  explicit Client(ClientOptions options);
  ~Client() = default;

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Synchronous round trip for one request.  @p trace_id stamps the
  /// frame's v2 trace field (0 = derive one from the request id).
  service::QueryResponse call(
      service::Request request,
      service::Deadline deadline = service::Deadline::never(),
      std::uint64_t trace_id = 0);

  /// Pipelined round trip: element i of the result answers request i.
  std::vector<service::QueryResponse> call_batch(
      std::vector<service::Request> requests,
      service::Deadline deadline = service::Deadline::never(),
      std::uint64_t trace_id = 0);

  /// Hello/HelloAck version negotiation: agree with the server on the
  /// highest version both speak and use it for every later frame.
  /// Optional — without it the client just emits options().protocol_version.
  /// Returns Ok, UnsupportedVersion (typed, from the server), or
  /// Unavailable (transport).
  service::Status negotiate();

  /// Version subsequent frames are encoded at (protocol_version until a
  /// successful negotiate()).
  std::uint16_t agreed_version() const { return agreed_version_; }

  /// Liveness probe: Ping → Pong round trip within @p timeout.
  bool ping(std::chrono::milliseconds timeout, std::string& error);

  // --- Non-blocking primitive layer (cluster::ClusterClient) ---------

  /// Write one request frame (blocking until written or failed) and
  /// track its id; the response is collected later via receive() or
  /// pump(), then take_response().  Does NOT count net_requests_sent —
  /// the caller owns logical-request accounting.  @p priority overrides
  /// options().priority for this one frame (hedges inherit the
  /// original request's class).
  bool send_request(const service::Request& request,
                    service::Deadline deadline, std::uint64_t trace_id,
                    std::uint64_t& id_out, std::string& error,
                    std::optional<qos::PriorityClass> priority = std::nullopt);

  /// One non-blocking receive step: read every byte the socket holds,
  /// decode every complete frame, then apply the io_timeout stall rule.
  /// Returns the number of newly completed tracked requests, or -1 on
  /// transport error (the connection is reset; every tracked request is
  /// lost).  Call it when fd() polls readable or stall_at() has passed.
  int receive(std::string& error);

  /// Wait up to @p wait (never past stall_at()) for the socket to
  /// become readable, then receive().
  int pump(std::chrono::milliseconds wait, std::string& error);

  /// The socket to poll for readability; -1 while disconnected.
  int fd() const { return socket_.fd(); }

  /// When this connection counts as stalled: io_timeout after the last
  /// byte received, or after the send that left it owing its first
  /// answer.  time_point::max() while no answer is owed.
  service::Clock::time_point stall_at() const;

  /// Move request @p id's response out, if it has completed.
  bool take_response(std::uint64_t id, service::QueryResponse& out);

  /// Stop tracking @p id (hedge loser): a late response is dropped on
  /// arrival.  The server still executes it — requests are idempotent
  /// and its result may warm the server's cache.
  void cancel(std::uint64_t id);

  /// Ask the *server* to abandon request @p id too (wire CancelRequest,
  /// v2-only — a no-op returning true when the agreed version is 1).
  /// Fire-and-forget: the cancelled request's own response is the
  /// acknowledgement.  Counts qos_cancels_sent.  Callers usually pair
  /// this with cancel(id) to also drop the local tracking.
  bool send_cancel(std::uint64_t id, std::string& error);

  bool connected() const { return socket_.valid(); }
  void disconnect();
  const ClientOptions& options() const { return options_; }

 private:
  /// One wire attempt over the current connection: send every request in
  /// @p unanswered, collect responses into @p responses.  Returns false
  /// on a transport failure (the caller decides whether to retry);
  /// indices answered before the failure keep their responses.
  bool attempt(const std::vector<service::Request>& requests,
               std::vector<std::size_t>& unanswered,
               std::vector<service::QueryResponse>& responses,
               service::Deadline deadline, std::uint64_t trace_id,
               std::string& error);
  bool ensure_connected(std::string& error);
  /// Blocking write of @p frames whole frames (poll + send loop) that
  /// receives whatever arrives meanwhile.  On failure the connection is
  /// reset.
  bool write_frames(const std::vector<std::uint8_t>& bytes,
                    std::size_t frames, service::Deadline deadline,
                    std::string& error);
  /// pump() until a point in time.
  int pump_until(service::Clock::time_point until, std::string& error);
  /// Decode every complete frame in in_ into completed_ / pongs_ /
  /// hello_ack_.  False on a broken stream.
  bool drain_frames(std::string& error);
  /// Expect an answer to @p id; starts the stall clock if none was owed.
  void track(std::uint64_t id);

  ClientOptions options_;
  Socket socket_;
  std::uint64_t next_id_ = 1;
  std::uint16_t agreed_version_;

  // Stream state of both styles (reset by disconnect()).
  std::vector<std::uint8_t> in_;
  std::size_t in_offset_ = 0;
  /// Scratch every recv() lands in before its bytes are appended to in_
  /// (allocated on first read, never zeroed).
  std::unique_ptr<std::uint8_t[]> recv_buffer_;
  /// Last sign of life while answers are owed (see stall_at()).
  service::Clock::time_point heard_at_{};
  std::unordered_set<std::uint64_t> pending_;
  std::unordered_map<std::uint64_t, service::QueryResponse> completed_;
  std::unordered_set<std::uint64_t> pongs_;
  std::optional<wire::HelloAckFrame> hello_ack_;
};

}  // namespace mpct::net
