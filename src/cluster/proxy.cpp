#include "cluster/proxy.hpp"

#include <exception>
#include <string>
#include <utility>
#include <variant>

#include "core/range_split.hpp"
#include "service/grid_kind.hpp"
#include "trace/trace.hpp"

namespace mpct::cluster {

CombiningProxy::CombiningProxy(ProxyOptions options)
    : options_(std::move(options)),
      tracker_(options_.cluster.endpoints.size(), options_.cluster.health),
      queue_(options_.queue_capacity) {
  if (options_.worker_threads == 0) options_.worker_threads = 1;
}

CombiningProxy::~CombiningProxy() { stop(); }

bool CombiningProxy::start() {
  if (started_) return running();
  started_ = true;

  server_ = std::make_unique<net::Server>(
      [this](service::Request request, service::Deadline deadline,
             const net::Server::RequestContext& context,
             service::QueryEngine::ResponseCallback callback) {
        ProxyTask task{std::move(request), deadline, context.trace_id,
                       context.priority, std::move(callback)};
        if (!queue_.try_push(task.priority, task)) {
          // try_push leaves the task untouched on failure, so the
          // callback is still ours to answer with.
          service::QueryResponse response;
          response.status = queue_.closed() ? service::Status::shutting_down()
                                            : service::Status::queue_full();
          task.callback(std::move(response));
        }
      },
      metrics_, options_.server);
  if (!server_->start()) {
    error_ = server_->error();
    server_.reset();
    return false;
  }

  if (options_.enable_pinger) {
    pinger_ = std::make_unique<HealthPinger>(options_.cluster.endpoints,
                                             tracker_, options_.cluster.pinger);
    pinger_->start();
  }

  workers_.reserve(options_.worker_threads);
  for (std::size_t i = 0; i < options_.worker_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  running_.store(true, std::memory_order_release);
  return true;
}

void CombiningProxy::stop() {
  running_.store(false, std::memory_order_release);
  if (pinger_) pinger_->stop();
  // Order matters: close the queue and drain the workers *before*
  // stopping the server — handler-mode Server requires every accepted
  // request's callback to have fired before it goes away.  Requests
  // arriving in between get an inline ShuttingDown from the handler.
  queue_.close();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  if (server_) server_->stop();
}

void CombiningProxy::worker_loop() {
  ClusterOptions copts = options_.cluster;
  copts.shared_health = &tracker_;
  if (copts.metrics == nullptr) copts.metrics = &metrics_;
  ClusterClient cluster(copts);

  ProxyTask task;
  while (queue_.pop(task)) {
    service::QueryResponse response;
    // Restore the originating request's trace context so scatter and
    // cluster spans recorded on this worker join its trace.
    trace::TraceContextScope context(task.trace_id);
    if (task.deadline.expired()) {
      trace::emit_instant("deadline.expired", trace::Category::Mark);
      response.status = service::Status::deadline_exceeded();
    } else {
      // One request must not end the proxy: anything it throws is its
      // answer.
      try {
        response = handle(cluster, task.request, task.deadline, task.trace_id,
                          task.priority);
      } catch (const std::exception& e) {
        response = {};
        response.status = service::Status::internal_error(e.what());
      } catch (...) {
        response = {};
        response.status = service::Status::internal_error("unknown exception");
      }
    }
    task.callback(std::move(response));
    task = ProxyTask{};  // drop the callback before blocking in pop()
  }
}

service::QueryResponse CombiningProxy::handle(ClusterClient& cluster,
                                              const service::Request& request,
                                              service::Deadline deadline,
                                              std::uint64_t trace_id,
                                              qos::PriorityClass priority) {
  if (const auto* sweep = std::get_if<service::SweepRequest>(&request)) {
    return scatter(cluster, *sweep, deadline, trace_id, priority);
  }
  if (const auto* curve = std::get_if<service::FaultSweepRequest>(&request)) {
    return scatter(cluster, *curve, deadline, trace_id, priority);
  }
  // Point queries pass through: hash-routed, health-checked, hedged.
  return cluster.call(request, deadline, trace_id, priority);
}

template <typename GridRequest>
service::QueryResponse CombiningProxy::scatter(ClusterClient& cluster,
                                               const GridRequest& request,
                                               service::Deadline deadline,
                                               std::uint64_t trace_id,
                                               qos::PriorityClass priority) {
  using Kind = service::GridKind<GridRequest>;
  trace::ScopedSpan span(Kind::scatter_span, trace::Category::Cluster);
  service::QueryResponse response;
  response.status = Kind::validate(Kind::input(request));
  if (!response.ok()) return response;

  // The kind's Gather (a sweep's shape, a curve's evaluator, built with
  // the default component library) sizes the split and runs the merge,
  // which reads no library state.  Chunks carry the *original* input:
  // backends normalize it identically, and identical outer requests then
  // fingerprint to identical chunks — deterministic placement and cache
  // affinity on repeats.
  const typename Kind::Gather gather(Kind::input(request));
  const std::vector<CellRange> ranges = split_range(
      gather.cell_count(),
      options_.cluster.endpoints.size() * options_.chunks_per_endpoint,
      gather.row_cells());
  span.annotate("chunks", static_cast<std::int64_t>(ranges.size()));
  std::vector<service::Request> chunks;
  chunks.reserve(ranges.size());
  for (const CellRange& range : ranges) {
    chunks.emplace_back(typename Kind::ChunkRequest{Kind::input(request),
                                                    range.begin, range.end});
  }
  const auto parts = cluster.call_many(chunks, deadline, trace_id, priority);

  // Gather: the kind's merge, over the chunk cells concatenated in
  // index order.  A chunk must answer with exactly its range's cell
  // count — a short or long answer (a bug or version skew behind the
  // socket) would misplace every later cell.
  std::vector<typename Kind::Cell> cells;
  cells.reserve(gather.cell_count());
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (!parts[i].ok()) {
      response.status = parts[i].status;
      return response;
    }
    const auto* chunk =
        parts[i].payload
            ? std::get_if<typename Kind::ChunkResponse>(parts[i].payload.get())
            : nullptr;
    const std::size_t want = ranges[i].end - ranges[i].begin;
    if (chunk == nullptr || Kind::cells(*chunk).size() != want) {
      response.status = service::Status::internal_error(
          "backend answered " + std::string(to_string(Kind::chunk_type)) +
          " [" + std::to_string(ranges[i].begin) + ", " +
          std::to_string(ranges[i].end) + ") with " +
          (chunk == nullptr
               ? std::string("the wrong payload type")
               : std::to_string(Kind::cells(*chunk).size()) + " cells"));
      return response;
    }
    cells.insert(cells.end(), Kind::cells(*chunk).begin(),
                 Kind::cells(*chunk).end());
  }
  response.payload = std::make_shared<const service::ResponsePayload>(
      Kind::merge(gather, std::move(cells)));
  return response;
}

}  // namespace mpct::cluster
