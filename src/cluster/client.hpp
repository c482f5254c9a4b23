#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cluster/health.hpp"
#include "cluster/ring.hpp"
#include "net/client.hpp"
#include "service/fingerprint.hpp"
#include "service/metrics.hpp"
#include "service/request.hpp"

namespace mpct::cluster {

/// Tuning knobs of a ClusterClient.
struct ClusterOptions {
  std::vector<Endpoint> endpoints;

  // --- Health -------------------------------------------------------
  HealthOptions health;
  /// Share another component's tracker (the proxy gives every worker's
  /// ClusterClient the same one, fed by a single HealthPinger).  Null =
  /// this client owns a private tracker.
  HealthTracker* shared_health = nullptr;
  /// Probe settings of the CombiningProxy's HealthPinger.
  PingerOptions pinger;

  // --- Hedging (call() only; see ClusterClient) ---------------------
  /// Until the histogram holds this many samples the hedge delay falls
  /// back to hedge_max_delay (a cold p99 estimate is noise).
  std::uint64_t hedge_min_samples = 32;
  std::chrono::milliseconds hedge_min_delay{1};
  std::chrono::milliseconds hedge_max_delay{100};

  // --- Per-connection knobs (forwarded to each net::Client) ---------
  std::chrono::milliseconds connect_timeout{2000};
  /// A backend connection that owes answers and sends no byte for this
  /// long counts as dead: its requests fail over.
  std::chrono::milliseconds io_timeout{10000};
  std::uint16_t protocol_version = wire::kProtocolVersion;

  /// Client-side registry: request latencies recorded here feed the
  /// hedge delay, and net_requests_sent / net_hedges_* / net_failovers
  /// land here.  May be null (hedging then always waits hedge_max_delay).
  service::MetricsRegistry* metrics = nullptr;
};

/// Fleet-aware request router: consistent-hash placement, health-driven
/// failover, and p99-delayed hedged retries over a set of net::Servers.
///
/// Routing — call() keys the ring with the request's canonical
/// fingerprint (service::fingerprint), so identical requests from any
/// client reach the same server and hit its result cache.  Replicas for
/// failover/hedging are the ring successors, Down endpoints sorted last.
///
/// Failover — a transport error (connect refused, reset, broken stream,
/// or io_timeout of silence while answers are owed) records a failure
/// against the endpoint and transparently re-sends to the next replica;
/// so do ShuttingDown/Unavailable answers, which mean "this server is
/// going away", not "this request is bad".  A request only fails once
/// every replica has been tried.  Each move counts net_failovers and
/// emits one cluster.failover instant naming the endpoint left.
///
/// Hedging — when the primary has not answered after the live p99 of
/// its request type (from metrics->latency(), clamped to
/// [hedge_min_delay, hedge_max_delay]), the same request is re-issued
/// to the next replica; the first response wins and the loser is
/// cancelled both client-side (its late answer is dropped) and
/// server-side (a wire CancelRequest lets the loser's server dequeue
/// or abandon the duplicate — reclaimed capacity, not just an ignored
/// response).
///
/// call() and call_many() share one dispatch loop: each request is a
/// slot walking its candidates, and one poll(2) over every connection
/// in flight wakes on an answer, a hedge time, the deadline or a stall.
///
/// Not thread-safe: one ClusterClient per thread, like net::Client.
/// Concurrent ClusterClients may share a HealthTracker.
class ClusterClient {
 public:
  explicit ClusterClient(ClusterOptions options);

  ClusterClient(const ClusterClient&) = delete;
  ClusterClient& operator=(const ClusterClient&) = delete;

  /// Route one request (hash placement + failover + hedging).
  /// @p trace_id stamps every frame sent for this request (hedges
  /// included); 0 derives one from the request fingerprint.
  /// @p priority is the QoS class stamped on every frame (hedges
  /// inherit it); nullopt lets the wire derive the request type's
  /// default.  An Overloaded answer is returned as-is — admission shed
  /// is *policy*, so re-routing it to a replica would defeat the
  /// fleet's load shedding (the caller's net::Client backoff is the
  /// right place to wait out the retry-after hint).
  service::QueryResponse call(
      const service::Request& request,
      service::Deadline deadline = service::Deadline::never(),
      std::uint64_t trace_id = 0,
      std::optional<qos::PriorityClass> priority = std::nullopt);

  /// Scatter a batch concurrently: element i answers request i.  Each
  /// request routes independently by its own fingerprint with full
  /// failover, but no hedging — this is the proxy's chunk fan-out,
  /// where duplicated work would cost more than a tail stall.
  std::vector<service::QueryResponse> call_many(
      const std::vector<service::Request>& requests,
      service::Deadline deadline = service::Deadline::never(),
      std::uint64_t trace_id = 0,
      std::optional<qos::PriorityClass> priority = std::nullopt);

  HealthTracker& health() { return *tracker_; }
  const HealthTracker& health() const { return *tracker_; }

  /// Ring owner of @p request (test/diagnostic aid).
  std::size_t owner_of(const service::Request& request) const;

  /// Hedge delay call() would use right now for @p type (test aid).
  std::chrono::milliseconds hedge_delay(service::RequestType type) const;

 private:
  /// The routing loop behind call() (@p hedge set) and call_many():
  /// element i answers request i.  Records net_requests_sent and the
  /// client-observed latency from entry to each winning answer.
  std::vector<service::QueryResponse> dispatch(
      std::span<const service::Request> requests, service::Deadline deadline,
      std::uint64_t trace_id, std::optional<qos::PriorityClass> priority,
      bool hedge);
  /// Connected-and-negotiated client for endpoint @p index, or null
  /// (with @p error set) when it cannot be reached.
  net::Client* endpoint_client(std::size_t index, std::string& error);
  /// Ring preference order for @p key with Down endpoints moved to the
  /// back (last resort, in case the whole fleet looks down).
  void candidates_for(service::Fingerprint key,
                      std::vector<std::size_t>& out) const;

  ClusterOptions options_;
  HashRing ring_;
  std::unique_ptr<HealthTracker> own_tracker_;
  HealthTracker* tracker_ = nullptr;
  /// Lazily connected, index-aligned with options_.endpoints.
  std::vector<std::unique_ptr<net::Client>> clients_;
};

}  // namespace mpct::cluster
