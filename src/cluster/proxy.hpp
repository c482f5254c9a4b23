#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/client.hpp"
#include "cluster/health.hpp"
#include "net/server.hpp"
#include "qos/wfq_queue.hpp"
#include "service/metrics.hpp"
#include "service/request.hpp"

namespace mpct::cluster {

/// Tuning knobs of a CombiningProxy.
struct ProxyOptions {
  /// Front door the proxy listens on.
  net::ServerOptions server;
  /// Backend fleet.  `cluster.metrics` defaults to the proxy's own
  /// registry, `cluster.shared_health` is overridden with the proxy's
  /// tracker (one fleet, one health view).
  ClusterOptions cluster;
  /// Worker threads, each owning one ClusterClient.
  std::size_t worker_threads = 4;
  /// Task-queue capacity per priority class: each class (the frame's
  /// QoS byte, else the request type's default) waits in its own
  /// weighted-fair subqueue of this many tasks, so a Batch flood cannot
  /// crowd Interactive work out of the proxy.
  std::size_t queue_capacity = 256;
  /// Sweep scatter factor: a sweep splits into about
  /// endpoints x this many chunks, so the fleet can balance even when
  /// backends run at different speeds.
  std::size_t chunks_per_endpoint = 2;
  /// Run a background HealthPinger against the fleet.
  bool enable_pinger = true;
};

/// Scatter/gather front end for a fleet of taxonomy servers.
///
/// Speaks the same wire protocol as net::Server, so any net::Client can
/// point at the proxy unchanged.  Incoming requests wait in a
/// weighted-fair queue (qos::WfqQueue) under their priority class, as
/// in the engine.  Grid-shaped requests (SweepRequest,
/// FaultSweepRequest) are split into disjoint flat-index chunk requests
/// (SweepChunkRequest / FaultChunkRequest, wire v2) by the engine's own
/// chunk rule (mpct::split_range), scattered across the fleet via
/// ClusterClient::call_many, checked to hold exactly their range's cell
/// count, and merged by GridKind::merge: chunk cells concatenate in
/// index order, then
///
///  * sweep — one explore::pareto_front over all the cells folds the
///    front; the split and the candidate count come from the grid's
///    explore::SweepShape, which prices nothing;
///  * fault sweep — CurveEvaluator::finalize, the reduction the
///    engine's completion runs, reduces the outcomes (each trial's RNG
///    stream derives from its flat cell index, so placement cannot
///    change it).
///
/// Merged responses are therefore bit-identical to a single server
/// evaluating the whole request (test-enforced).  Every other request
/// type passes through ClusterClient::call — consistent-hash routed,
/// health-checked, hedged.
///
/// The merge reads no component-library state; the cells come from the
/// backends, and every QueryEngine prices against the default component
/// library, so every chunk prices against the same one.
class CombiningProxy {
 public:
  explicit CombiningProxy(ProxyOptions options);
  ~CombiningProxy();

  CombiningProxy(const CombiningProxy&) = delete;
  CombiningProxy& operator=(const CombiningProxy&) = delete;

  /// Bind the front door, spawn workers (and the pinger).  False +
  /// error() on failure.  A proxy starts at most once.
  bool start();

  /// Stop: close the task queue, drain the workers, then shut the
  /// server down (so every accepted request is answered before its
  /// connection dies).  Idempotent; called by the destructor.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// Actual bound port (after start()).
  std::uint16_t port() const { return server_ ? server_->port() : 0; }
  const std::string& error() const { return error_; }

  service::MetricsRegistry& metrics() { return metrics_; }
  HealthTracker& health() { return tracker_; }
  /// Null unless options().enable_pinger.
  HealthPinger* pinger() { return pinger_.get(); }
  const ProxyOptions& options() const { return options_; }

 private:
  struct ProxyTask {
    service::Request request;
    service::Deadline deadline;
    std::uint64_t trace_id = 0;
    /// Front-door QoS class, forwarded verbatim on every backend frame
    /// (sweep chunks included) so a Background sweep stays Background
    /// on the whole fleet.
    qos::PriorityClass priority = qos::PriorityClass::Interactive;
    service::QueryEngine::ResponseCallback callback;
  };

  void worker_loop();
  service::QueryResponse handle(ClusterClient& cluster,
                                const service::Request& request,
                                service::Deadline deadline,
                                std::uint64_t trace_id,
                                qos::PriorityClass priority);
  /// Split a grid request (service::GridKind) into chunk requests,
  /// scatter them over the fleet and merge the answers.
  template <typename GridRequest>
  service::QueryResponse scatter(ClusterClient& cluster,
                                 const GridRequest& request,
                                 service::Deadline deadline,
                                 std::uint64_t trace_id,
                                 qos::PriorityClass priority);

  ProxyOptions options_;
  service::MetricsRegistry metrics_;
  HealthTracker tracker_;
  std::unique_ptr<HealthPinger> pinger_;
  qos::WfqQueue<ProxyTask> queue_;
  std::vector<std::thread> workers_;
  std::unique_ptr<net::Server> server_;
  std::string error_;
  std::atomic<bool> running_{false};
  bool started_ = false;
};

}  // namespace mpct::cluster
