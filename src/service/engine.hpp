#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "core/range_split.hpp"
#include "cost/component_library.hpp"
#include "qos/admission.hpp"
#include "qos/cancel.hpp"
#include "qos/priority.hpp"
#include "qos/wfq_queue.hpp"
#include "service/cache.hpp"
#include "service/fingerprint.hpp"
#include "service/metrics.hpp"
#include "service/request.hpp"

namespace mpct::service {

/// Tuning knobs of a QueryEngine.
struct EngineOptions {
  /// Worker threads executing queued requests.  0 selects the
  /// single-threaded fallback mode: submit() executes the request inline
  /// on the calling thread (still cached, still metered) so results and
  /// metric counts are fully deterministic — the mode ctest runs in.
  unsigned worker_threads = 4;

  /// Bounded request-queue capacity (requests, not batches).  When full,
  /// submit() rejects with StatusCode::QueueFull instead of blocking.
  std::size_t queue_capacity = 1024;

  /// Result cache geometry; shards are rounded up to a power of two.
  /// Total capacity = cache_shards * cache_capacity_per_shard.
  std::size_t cache_shards = 8;
  std::size_t cache_capacity_per_shard = 128;
  bool enable_cache = true;

  /// When false, worker threads are created by start() instead of the
  /// constructor.  Lets tests fill the bounded queue deterministically
  /// before anything drains it.
  bool start_workers = true;

  /// Master switch for the QoS serving path (src/qos).  Off (the
  /// default), the engine behaves exactly like the pre-QoS build: every
  /// request rides the Interactive subqueue in submit order (a single
  /// FIFO), admission control never runs, and no response is ever
  /// degraded.  On, requests are classed (explicitly or by
  /// qos::default_priority), dispatched by weighted fair queueing, and
  /// subject to the admission controller's degrade/shed ladder.
  bool enable_qos = false;

  /// Admission-control thresholds, used when enable_qos is on.
  qos::AdmissionOptions admission;
};

/// Concurrent front door to the taxonomy library.
///
/// Turns the synchronous single-caller API (`ArchitectureSpec::classify`,
/// `explore::recommend`, `cost::estimate_area` / `estimate_config_bits`)
/// into a query service: requests are submitted (individually or as a
/// batch), flow through a bounded per-class queue (weighted fair
/// queueing when enable_qos is on, plain FIFO otherwise) into a fixed
/// worker pool, hit a sharded LRU result cache keyed by canonical
/// request fingerprint, and resolve with structured Status codes instead
/// of exceptions.
///
/// Every queued request is one job of one or more chunk tasks: a point
/// request or a sweep is a one-chunk job run whole, a fault curve
/// (GridKind) is split into cell-range chunks merged by the last one to
/// finish.  A job resolves exactly once, through one ResponseCallback;
/// submit()'s future is a promise that callback fulfils.
///
/// Guarantees:
///  * submit() never blocks on a full queue — it returns a ready future
///    carrying StatusCode::QueueFull (explicit backpressure).
///  * Responses are bit-identical to the sequential API: workers call
///    exactly the same functions, and the taxonomy/registry singletons
///    they share are initialise-once, read-only (see the const-read notes
///    in arch/registry.hpp and core/taxonomy_table.hpp).
///  * A request whose deadline has passed is answered DeadlineExceeded,
///    never silently dropped: every accepted future becomes ready.
///  * Destruction drains the queue (pending requests complete) and joins
///    all workers.
class QueryEngine {
 public:
  explicit QueryEngine(EngineOptions options = {});
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Submit one request.  The future is always eventually satisfied; a
  /// queue-full / shutdown / expired-deadline rejection satisfies it
  /// immediately.  In single-threaded mode (worker_threads == 0) the
  /// request executes inline and the returned future is already ready.
  std::future<QueryResponse> submit(Request request,
                                    Deadline deadline = Deadline::never());

  /// Submit with an explicit QoS class instead of the request type's
  /// default (qos::default_priority) — e.g. a replay soak tagging its
  /// whole stream Background.  With enable_qos off the class is
  /// recorded on the task but everything still dispatches FIFO.
  std::future<QueryResponse> submit(Request request, Deadline deadline,
                                    qos::PriorityClass priority);

  /// Completion hook for event-driven callers (the TCP server in
  /// src/net, whose poll loop cannot block on futures).
  using ResponseCallback = std::function<void(QueryResponse)>;

  /// Submit one request, resolving through @p callback instead of a
  /// future.  The callback is invoked exactly once with the response —
  /// on the calling thread for rejections, cache hits and the inline
  /// (worker_threads == 0) mode, otherwise on whichever worker completes
  /// the request.  Backpressure still applies: a full queue invokes the
  /// callback immediately with StatusCode::QueueFull.  The callback must
  /// be fast, non-blocking and non-throwing (it runs on the worker's
  /// dequeue path), and must not call back into this engine.
  void submit_async(Request request, Deadline deadline,
                    ResponseCallback callback);

  /// submit_async with an explicit QoS class and a cancellation
  /// identity.  (@p cancel_owner, @p cancel_id) keys the request in the
  /// engine's cancel registry — the net server passes its connection
  /// serial and the wire request id, so a CancelRequest frame can name
  /// exactly this submission; (0, 0) skips registration.  Registration
  /// is dropped automatically when the request resolves.
  void submit_async(Request request, Deadline deadline,
                    qos::PriorityClass priority, std::uint64_t cancel_owner,
                    std::uint64_t cancel_id, ResponseCallback callback);

  /// Server-side cancellation: flag the request registered under
  /// (@p owner, @p id).  If it is still queued it is dequeued now and
  /// resolved with StatusCode::Cancelled (reclaimed capacity, counted
  /// as qos_cancelled_queued); if it is executing, chunk workers notice
  /// the flag at the next chunk boundary (qos_cancelled_inflight); if
  /// it already finished this is a no-op.  Returns false when the key
  /// is unknown (never registered or already resolved).
  bool cancel(std::uint64_t owner, std::uint64_t id);

  /// Submit a batch; element i of the result corresponds to request i.
  /// Requests that no longer fit in the queue are rejected individually
  /// (QueueFull) — the ones that fit still execute.
  std::vector<std::future<QueryResponse>> submit_batch(
      std::vector<Request> requests, Deadline deadline = Deadline::never());

  /// Execute a request synchronously on the calling thread, through the
  /// cache and metrics like any queued request.  This is the sequential
  /// reference path the tests compare the concurrent path against.
  QueryResponse execute(const Request& request,
                        Deadline deadline = Deadline::never());

  /// Launch the worker pool when constructed with start_workers = false.
  /// No-op when workers are already running or worker_threads == 0.
  void start();

  /// Block until every accepted request has completed.
  void drain();

  /// Stop accepting work, drain the queue, join workers.  Idempotent;
  /// called by the destructor.
  void shutdown();

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  CacheStats cache_stats() const { return cache_.stats(); }

  std::size_t queue_depth() const { return queue_->size(); }
  const EngineOptions& options() const { return options_; }

 private:
  /// One accepted request, shared by its chunk tasks.  A point request
  /// is a one-chunk job whose run step is run_request(); a grid request
  /// (SweepRequest / FaultSweepRequest) has GridKind hooks instead.  A
  /// sweep is one chunk; a curve's evaluator is immutable and its
  /// outcome vector pre-sized, with each chunk writing only its own
  /// disjoint slice, so chunks need no locking, only the final
  /// fetch_sub on `remaining` to elect the finisher (complete_job()).
  struct Job {
    Request request;
    Deadline deadline;
    Clock::time_point enqueued;
    /// Submitter's trace context, restored on every worker that runs a
    /// chunk so queue waits, execute, chunk and merge spans join it.
    std::uint64_t trace_id = 0;
    /// The grid was strided by admission Degrade: the merged response
    /// carries QueryResponse::sampled.
    bool sampled = false;
    /// Invoked exactly once with the response, by whoever resolves the
    /// job: the submitter for a rejection, the finisher otherwise.
    ResponseCallback callback;
    /// Cancellation identity + shared token (null when unregistered).
    qos::CancelToken cancel;
    std::uint64_t cancel_owner = 0;
    std::uint64_t cancel_id = 0;

    std::atomic<std::size_t> remaining{0};
    /// First failure wins: 0 = ok, otherwise the StatusCode to answer
    /// with (deadline, shutdown, cancelled, internal).
    std::atomic<int> fail_code{0};
    std::string fail_message;  ///< written only by the winning CAS

    /// A point job's answer, metered by run_request().
    QueryResponse response;

    /// Grid hooks, bound by submit_grid() to the kind's Run
    /// (service/grid_kind.hpp): evaluate one chunk's cells [begin, end);
    /// build the payload once every chunk has run (called once, by the
    /// finisher).  Empty for a point job.
    std::function<void(std::size_t, std::size_t)> evaluate;
    std::function<ResponsePayload()> merge;
    const char* chunk_span = nullptr;  ///< static span names
    const char* merge_span = nullptr;
    Fingerprint key = 0;  ///< cache key of the merged response

    /// Returns true when this call won the first-failure CAS — the
    /// caller that gets to count the failure exactly once.
    bool fail(StatusCode code, std::string message = {});
  };

  /// One queue entry: a chunk of a job.
  struct Task {
    std::shared_ptr<Job> job;
    CellRange range;  ///< a grid chunk's cells; unused for a point job
    /// QoS class the job was admitted under — the WFQ subqueue it waits in.
    qos::PriorityClass priority = qos::PriorityClass::Interactive;
  };

  void worker_loop();

  /// Common body of submit() and submit_async().  @p priority nullopt
  /// derives the class from the request type; the admission controller
  /// (enable_qos only) may degrade or shed before any enqueue.
  void submit_impl(Request request, Deadline deadline,
                   ResponseCallback callback,
                   std::optional<qos::PriorityClass> priority = std::nullopt,
                   std::uint64_t cancel_owner = 0,
                   std::uint64_t cancel_id = 0);

  /// Grid half of submit_impl() (GridKind): validate, probe the cache,
  /// build the kind's Run, bind the job's hooks to it and enqueue one
  /// task per chunk (one for a sweep).  An invalid request, a cache hit
  /// or a Run that failed to build is answered on the caller's thread.
  template <typename GridRequest>
  void submit_grid(std::shared_ptr<Job> job, qos::PriorityClass priority);

  /// Register the job's cancel token and enqueue one task per chunk in
  /// @p chunks, all or none; a shutdown or full-queue rejection is
  /// answered through the callback after the lifecycle lock is released.
  void enqueue(std::shared_ptr<Job> job, qos::PriorityClass priority,
               std::span<const CellRange> chunks);

  /// A job's run step for one chunk (skipped once the job has failed):
  /// run_request() for a point job, the evaluate hook for a grid chunk.
  void run_chunk(const Task& task);
  /// True (and the cancel counted once) when the job was cancelled
  /// before this chunk started.
  bool cancelled_in_flight(Job& job);
  /// Count one chunk done; the last one calls complete_job().
  void release_chunk(Job& job);
  /// Merge (or answer the first failure), publish to the cache, resolve.
  void complete_job(Job& job);
  /// The response for a job that failed with @p code, counted under its
  /// rejection counter.
  QueryResponse failure(const Job& job, StatusCode code);

  /// Deadline check + cache + execution + completion metrics; shared by
  /// workers, the inline single-threaded path, and execute().
  QueryResponse run_request(const Request& request, Deadline deadline,
                            Clock::time_point start);
  QueryResponse execute_uncached(const Request& request) const;
  QueryResponse execute_cached(const Request& request);

  /// Stamp @p response's latency since @p start, record it under
  /// @p type, and count a success as completed and a failure as failed
  /// (deadline, shutdown and cancel answers are counted where they
  /// happen).  Shared by run_request() and the grid path.
  void meter(QueryResponse& response, RequestType type,
             Clock::time_point start);

  /// Cache lookup, traced and counted as a hit or a miss.
  std::optional<QueryResponse> cached(Fingerprint key);

  /// Merged cumulative latency buckets of the Interactive request types
  /// — the admission controller's latency signal.
  LatencyHistogram::Buckets interactive_buckets() const;

  /// Subqueue a task of class @p cls actually waits in: @p cls when
  /// QoS is on, Interactive (the single legacy FIFO) when it is off.
  qos::PriorityClass enqueue_class(qos::PriorityClass cls) const;

  /// Count + flag one degraded response exactly once (no-op when the
  /// response failed or was already marked).
  void mark_degraded(QueryResponse& response);

  EngineOptions options_;
  /// Cost, recommend and grid queries price against this library.  It
  /// is part of the engine, not the request, so cached responses can
  /// never mix libraries.
  const cost::ComponentLibrary library_ =
      cost::ComponentLibrary::default_library();
  MetricsRegistry metrics_;
  ShardedLruCache<ResponsePayload> cache_;
  std::unique_ptr<qos::WfqQueue<Task>> queue_;
  qos::AdmissionController admission_;
  qos::CancelRegistry cancels_;
  std::vector<std::thread> workers_;

  std::mutex lifecycle_mutex_;
  std::condition_variable drained_;
  std::size_t pending_ = 0;  ///< accepted but not yet completed
  bool started_ = false;
  bool shutdown_ = false;
};

}  // namespace mpct::service
