#include "service/engine.hpp"

#include <algorithm>
#include <exception>
#include <type_traits>
#include <utility>

#include "arch/adl_parser.hpp"
#include "core/range_split.hpp"
#include "cost/area_model.hpp"
#include "cost/config_bits.hpp"
#include "explore/recommend.hpp"
#include "service/fingerprint.hpp"
#include "service/grid_kind.hpp"
#include "trace/trace.hpp"

namespace mpct::service {

namespace {

/// Static-storage span name for the per-type execute span (trace span
/// names must outlive the tracer, so no runtime concatenation).
const char* execute_span_name(RequestType type) {
  switch (type) {
    case RequestType::Classify:   return "execute.classify";
    case RequestType::Recommend:  return "execute.recommend";
    case RequestType::Cost:       return "execute.cost";
    case RequestType::Sweep:      return "execute.sweep";
    case RequestType::FaultSweep: return "execute.fault_sweep";
    case RequestType::SweepChunk: return "execute.sweep_chunk";
    case RequestType::FaultChunk: return "execute.fault_chunk";
    case RequestType::Simulate:   return "execute.simulate";
  }
  return "execute";
}

QueryResponse rejected(Status status) {
  QueryResponse response;
  response.status = std::move(status);
  return response;
}

std::future<QueryResponse> ready_future(QueryResponse response) {
  std::promise<QueryResponse> promise;
  std::future<QueryResponse> future = promise.get_future();
  promise.set_value(std::move(response));
  return future;
}

/// Resolve an immediately-available response on the submitter's thread:
/// through the callback (submit_async, returning an invalid future the
/// caller discards) or as a ready future (submit).
std::future<QueryResponse> resolve_ready(
    const QueryEngine::ResponseCallback& callback, QueryResponse response) {
  if (callback) {
    callback(std::move(response));
    return {};
  }
  return ready_future(std::move(response));
}

QueryResponse execute_classify(const ClassifyRequest& request) {
  QueryResponse response;
  ClassifyResponse payload;
  if (const auto* spec = std::get_if<arch::ArchitectureSpec>(&request.input)) {
    payload.spec = *spec;
  } else {
    const arch::ParseResult parsed =
        arch::parse_single_adl(std::get<std::string>(request.input));
    if (!parsed.ok()) {
      std::string message;
      for (const arch::ParseError& error : parsed.errors) {
        if (!message.empty()) message += "; ";
        message += error.to_string();
      }
      response.status = Status::parse_error(std::move(message));
      return response;
    }
    payload.spec = parsed.specs.front();
  }
  payload.classification = payload.spec.classify();
  payload.flexibility = payload.spec.flexibility();
  response.payload =
      std::make_shared<const ResponsePayload>(std::move(payload));
  return response;
}

QueryResponse execute_recommend(const RecommendRequest& request,
                                const cost::ComponentLibrary& library) {
  QueryResponse response;
  if (request.requirements.n <= 0) {
    response.status = Status::invalid_request(
        "recommend: design-point n must be positive, got " +
        std::to_string(request.requirements.n));
    return response;
  }
  RecommendResponse payload;
  payload.recommendations =
      explore::recommend(request.requirements, library);
  if (request.top_k != 0 &&
      payload.recommendations.size() > request.top_k) {
    payload.recommendations.resize(request.top_k);
  }
  response.payload =
      std::make_shared<const ResponsePayload>(std::move(payload));
  return response;
}

Status validate_chunk_range(std::string_view what, std::uint64_t begin,
                            std::uint64_t end, std::uint64_t cells) {
  if (begin >= end || end > cells) {
    return Status::invalid_request(
        std::string(what) + ": chunk range [" + std::to_string(begin) + ", " +
        std::to_string(end) + ") invalid for " + std::to_string(cells) +
        " cells");
  }
  return Status::okay();
}

/// A whole grid request, or one disjoint cell range of it when
/// @p GridOrChunk is Kind::ChunkRequest, evaluated on the calling
/// thread.  A whole grid is the inline (worker_threads == 0) and
/// execute() path; the worker pool goes through submit_grid()
/// instead, with the same evaluator and the same merge.  A chunk is
/// how the cluster proxy scatters a grid across backends: it goes
/// through the normal cached single-task path, so a repeated chunk
/// (same input, same range) is a cache hit on the server that owns it
/// on the consistent-hash ring.  Chunks carry the whole input because
/// cell indices (and each curve trial's RNG stream) are over the
/// whole grid, so chunk cells are bit-identical to the same cells of
/// a single-server evaluation.
template <typename Kind, typename GridOrChunk>
QueryResponse execute_grid(const GridOrChunk& request,
                           const cost::ComponentLibrary& library) {
  constexpr bool chunk =
      std::is_same_v<GridOrChunk, typename Kind::ChunkRequest>;
  QueryResponse response;
  response.status = Kind::validate(Kind::input(request));
  if (!response.ok()) return response;
  const typename Kind::Evaluator evaluator(Kind::input(request), library);
  std::uint64_t begin = 0;
  std::uint64_t end = evaluator.cell_count();
  if constexpr (chunk) {
    response.status = validate_chunk_range(to_string(Kind::chunk_type),
                                           request.begin, request.end, end);
    if (!response.ok()) return response;
    begin = request.begin;
    end = request.end;
  }
  std::vector<typename Kind::Cell> cells(end - begin);
  evaluator.evaluate_range(begin, end, cells.data());
  if constexpr (chunk) {
    response.payload = std::make_shared<const ResponsePayload>(
        Kind::chunk_response(evaluator, std::move(cells)));
  } else {
    typename Kind::Summary summary;
    summary.add(cells);
    response.payload = std::make_shared<const ResponsePayload>(
        Kind::merge(evaluator, std::move(cells), {&summary, 1}));
  }
  return response;
}

/// Lower a workload onto the machine the target names and run it.  The
/// request is wrong (InvalidRequest) whenever the lowering refuses it:
/// bad spec bounds, an unclassifiable target, a class without the
/// switches the kernel needs, or faults that break the fixed mapping.
/// Only a genuine machine trap escapes to the InternalError catch-all.
QueryResponse execute_simulate(const SimulateRequest& request) {
  QueryResponse response;
  const std::string bad_spec = workload::validate(request.workload);
  if (!bad_spec.empty()) {
    response.status = Status::invalid_request("simulate: " + bad_spec);
    return response;
  }
  if (request.options.width < 1 || request.options.width > 64) {
    response.status = Status::invalid_request(
        "simulate: width must be 1..64, got " +
        std::to_string(request.options.width));
    return response;
  }
  if (request.options.max_cycles < 1 ||
      request.options.max_cycles > 100'000'000) {
    response.status = Status::invalid_request(
        "simulate: max_cycles must be 1..100000000, got " +
        std::to_string(request.options.max_cycles));
    return response;
  }
  MachineClass target;
  if (const auto* mc = std::get_if<MachineClass>(&request.target)) {
    target = *mc;
  } else {
    const auto& spec = std::get<arch::ArchitectureSpec>(request.target);
    const Classification classification = spec.classify();
    if (!classification.ok()) {
      response.status = Status::invalid_request(
          "simulate: target spec is not a runnable taxonomy class: " +
          classification.note);
      return response;
    }
    const std::optional<MachineClass> canonical =
        canonical_class(*classification.name);
    if (!canonical) {
      response.status = Status::invalid_request(
          "simulate: " + to_string(*classification.name) +
          " has no canonical machine class");
      return response;
    }
    target = *canonical;
  }
  SimulateResponse payload;
  try {
    payload.result = workload::run_workload(request.workload, target,
                                            request.options, request.faults,
                                            request.seed);
  } catch (const workload::LoweringError& e) {
    response.status =
        Status::invalid_request(std::string("simulate: ") + e.what());
    return response;
  }
  response.payload =
      std::make_shared<const ResponsePayload>(std::move(payload));
  return response;
}

/// Admission said Degrade: shrink grid work in place so it costs a
/// fraction of the full request (GridKind::stride).  Returns true when
/// the request actually shrank (the response must then carry
/// QueryResponse::sampled).  The strided input fingerprints differently
/// from the full one, so degraded and full-precision results never
/// share a cache entry.
bool stride_for_degrade(Request& request) {
  return std::visit(
      [](auto& r) {
        using T = std::decay_t<decltype(r)>;
        if constexpr (is_grid_request_v<T>) {
          return GridKind<T>::stride(r);
        } else {
          return false;
        }
      },
      request);
}

QueryResponse execute_cost(const CostRequest& request,
                           const cost::ComponentLibrary& library) {
  QueryResponse response;
  std::vector<std::int64_t> sweep = request.n_sweep;
  if (sweep.empty()) sweep.push_back(request.options.n);
  for (std::int64_t n : sweep) {
    if (n <= 0) {
      response.status = Status::invalid_request(
          "cost: sweep value n must be positive, got " + std::to_string(n));
      return response;
    }
  }
  CostResponse payload;
  payload.points.reserve(sweep.size());
  for (std::int64_t n : sweep) {
    cost::EstimateOptions options = request.options;
    options.n = n;
    CostResponse::Point point;
    point.n = n;
    if (const auto* mc = std::get_if<MachineClass>(&request.target)) {
      point.area = cost::estimate_area(*mc, library, options);
      point.config_bits = cost::estimate_config_bits(*mc, library, options);
    } else {
      const auto& spec = std::get<arch::ArchitectureSpec>(request.target);
      point.area = cost::estimate_area(spec, library, options);
      point.config_bits = cost::estimate_config_bits(spec, library, options);
    }
    payload.points.push_back(std::move(point));
  }
  response.payload =
      std::make_shared<const ResponsePayload>(std::move(payload));
  return response;
}

}  // namespace

QueryEngine::QueryEngine(EngineOptions options)
    : options_(std::move(options)),
      cache_(options_.cache_shards, options_.cache_capacity_per_shard),
      queue_(std::make_unique<qos::WfqQueue<Task>>(
          options_.queue_capacity == 0 ? 1 : options_.queue_capacity,
          options_.wfq_weights)),
      admission_(options_.admission) {
  if (options_.max_batch == 0) options_.max_batch = 1;
  if (options_.start_workers) start();
}

/// With QoS off, every task rides the Interactive subqueue no matter
/// its recorded class — one FIFO, byte-for-byte the pre-QoS dispatch
/// order.  The class is still stamped on the task so callers can
/// observe it.
qos::PriorityClass QueryEngine::enqueue_class(qos::PriorityClass cls) const {
  return options_.enable_qos ? cls : qos::PriorityClass::Interactive;
}

QueryEngine::~QueryEngine() { shutdown(); }

void QueryEngine::start() {
  std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  if (started_ || shutdown_ || options_.worker_threads == 0) return;
  started_ = true;
  workers_.reserve(options_.worker_threads);
  for (unsigned i = 0; i < options_.worker_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

std::future<QueryResponse> QueryEngine::submit(Request request,
                                               Deadline deadline) {
  return submit_impl(std::move(request), deadline, nullptr);
}

std::future<QueryResponse> QueryEngine::submit(Request request,
                                               Deadline deadline,
                                               qos::PriorityClass priority) {
  return submit_impl(std::move(request), deadline, nullptr, priority);
}

void QueryEngine::submit_async(Request request, Deadline deadline,
                               ResponseCallback callback) {
  submit_impl(std::move(request), deadline, std::move(callback));
}

void QueryEngine::submit_async(Request request, Deadline deadline,
                               qos::PriorityClass priority,
                               std::uint64_t cancel_owner,
                               std::uint64_t cancel_id,
                               ResponseCallback callback) {
  submit_impl(std::move(request), deadline, std::move(callback), priority,
              cancel_owner, cancel_id);
}

std::future<QueryResponse> QueryEngine::submit_impl(
    Request request, Deadline deadline, ResponseCallback callback,
    std::optional<qos::PriorityClass> priority, std::uint64_t cancel_owner,
    std::uint64_t cancel_id) {
  trace::ScopedSpan span("engine.submit", trace::Category::Engine, "type",
                         static_cast<std::int64_t>(request_type(request)));
  metrics_.submitted.add();

  if (deadline.expired()) {
    metrics_.rejected_deadline.add();
    trace::emit_instant("deadline.expired", trace::Category::Mark);
    return resolve_ready(callback, rejected(Status::deadline_exceeded()));
  }

  const qos::PriorityClass cls =
      priority.value_or(qos::default_priority(request));
  bool degraded = false;
  bool strided = false;
  if (options_.enable_qos) {
    admission_.observe(interactive_buckets(), Clock::now());
    const qos::Admission admission =
        admission_.decide(cls, queue_->max_fill());
    if (admission.action == qos::AdmissionAction::Shed) {
      // Disjoint from the lifecycle rejection counters by design: a
      // shed is a policy refusal, never counted as a deadline / queue /
      // shutdown event (docs/SERVICE.md, "Counting invariants").
      if (cls == qos::PriorityClass::Background) {
        metrics_.qos_shed_background.add();
      } else {
        metrics_.qos_shed_batch.add();
      }
      trace::emit_instant("qos.shed", trace::Category::Qos);
      return resolve_ready(
          callback,
          rejected(Status::overloaded(
              std::string(qos::to_string(cls)) + " load shed: pressure " +
                  std::to_string(admission.pressure),
              admission.retry_after_ms)));
    }
    if (admission.action == qos::AdmissionAction::Degrade) {
      degraded = true;
      strided = stride_for_degrade(request);
      if (strided) trace::emit_instant("qos.degrade", trace::Category::Qos);
    }
  }

  if (options_.worker_threads == 0) {
    // Single-threaded fallback: execute inline, deterministically.
    metrics_.batch_sizes.record(1);
    QueryResponse response =
        run_request(request, deadline, Clock::now(), degraded);
    if (strided) mark_degraded(response);
    return resolve_ready(callback, std::move(response));
  }

  if (auto* sweep = std::get_if<SweepRequest>(&request)) {
    return submit_grid(std::move(*sweep), deadline, std::move(callback), cls,
                       degraded, strided, cancel_owner, cancel_id);
  }
  if (auto* curve = std::get_if<FaultSweepRequest>(&request)) {
    return submit_grid(std::move(*curve), deadline, std::move(callback), cls,
                       degraded, strided, cancel_owner, cancel_id);
  }

  Task task;
  task.request = std::move(request);
  task.deadline = deadline;
  task.enqueued = Clock::now();
  task.trace_id = trace::current_trace_id();
  task.callback = std::move(callback);
  task.priority = cls;
  task.allow_stale = degraded;
  if (cancel_owner != 0 || cancel_id != 0) {
    task.cancel = cancels_.add(cancel_owner, cancel_id);
    task.cancel_owner = cancel_owner;
    task.cancel_id = cancel_id;
  }
  std::future<QueryResponse> future;
  if (!task.callback) future = task.promise.get_future();

  Status rejection;
  {
    trace::ScopedSpan enqueue("engine.enqueue", trace::Category::Engine);
    std::lock_guard<std::mutex> lock(lifecycle_mutex_);
    if (shutdown_) {
      metrics_.rejected_shutdown.add();
      rejection = Status::shutting_down();
    } else if (!queue_->try_push(enqueue_class(cls), task)) {
      metrics_.rejected_queue_full.add();
      rejection = Status::queue_full();
    } else {
      ++pending_;
    }
  }
  if (!rejection.ok()) {
    if (task.cancel) cancels_.erase(task.cancel_owner, task.cancel_id);
    // Resolved after the lock is released so a callback can never run
    // while the engine's lifecycle mutex is held.
    return resolve_ready(task.callback, rejected(std::move(rejection)));
  }
  metrics_.queue_depth.increment();
  return future;
}

std::vector<std::future<QueryResponse>> QueryEngine::submit_batch(
    std::vector<Request> requests, Deadline deadline) {
  std::vector<std::future<QueryResponse>> futures;
  futures.reserve(requests.size());
  for (Request& request : requests) {
    futures.push_back(submit(std::move(request), deadline));
  }
  return futures;
}

QueryResponse QueryEngine::execute(const Request& request, Deadline deadline) {
  metrics_.submitted.add();
  if (deadline.expired()) {
    metrics_.rejected_deadline.add();
    return rejected(Status::deadline_exceeded());
  }
  return run_request(request, deadline, Clock::now());
}

void QueryEngine::worker_loop() {
  std::vector<Task> batch;
  for (;;) {
    batch.clear();
    Task first;
    if (!queue_->pop(first)) return;  // closed and drained
    batch.push_back(std::move(first));
    while (batch.size() < options_.max_batch) {
      std::optional<Task> next = queue_->try_pop();
      if (!next) break;
      batch.push_back(std::move(*next));
    }
    metrics_.batch_sizes.record(batch.size());
    for (Task& task : batch) {
      metrics_.queue_depth.decrement();
      metrics_.in_flight.increment();
      // Restore the submitter's trace context for everything this task
      // records — queue.wait, execute spans, chunk spans, merge spans.
      trace::TraceContextScope context(task.trace_id);
      if (trace::enabled()) [[unlikely]] {
        // The wait is only measurable here: the submitter stamped
        // task.enqueued, this worker knows the dequeue time.
        trace::emit_span("queue.wait", trace::Category::Queue, task.enqueued,
                         Clock::now());
      }
      if (task.job) {
        run_chunk(task);
        metrics_.in_flight.decrement();
        continue;
      }
      if (task.cancel && task.cancel->is_cancelled()) {
        // The cancel arrived after this worker popped the task (the
        // queue sweep missed it) — honour it here instead of spending
        // the execution.
        metrics_.qos_cancelled_inflight.add();
        trace::emit_instant("qos.cancelled", trace::Category::Qos);
        metrics_.in_flight.decrement();
        finish_task(task, rejected(Status::cancelled()));
        continue;
      }
      QueryResponse response = run_request(task.request, task.deadline,
                                           task.enqueued, task.allow_stale);
      metrics_.in_flight.decrement();
      finish_task(task, std::move(response));
    }
  }
}

void QueryEngine::finish_task(Task& task, QueryResponse response) {
  if (task.cancel) cancels_.erase(task.cancel_owner, task.cancel_id);
  if (task.callback) {
    task.callback(std::move(response));
  } else {
    task.promise.set_value(std::move(response));
  }
  {
    std::lock_guard<std::mutex> lock(lifecycle_mutex_);
    --pending_;
  }
  drained_.notify_all();
}

bool QueryEngine::GridJob::fail(StatusCode code, std::string message) {
  int expected = 0;
  if (fail_code.compare_exchange_strong(expected, static_cast<int>(code),
                                        std::memory_order_acq_rel)) {
    // Only the winning CAS writes the message; complete_job() reads it
    // after the final fetch_sub on `remaining` synchronizes with ours.
    fail_message = std::move(message);
    return true;
  }
  return false;
}

void QueryEngine::GridJob::resolve(QueryResponse response) {
  if (callback) {
    callback(std::move(response));
  } else {
    promise.set_value(std::move(response));
  }
}

template <typename GridRequest>
std::future<QueryResponse> QueryEngine::submit_grid(
    GridRequest request, Deadline deadline, ResponseCallback callback,
    qos::PriorityClass priority, bool degraded, bool strided,
    std::uint64_t cancel_owner, std::uint64_t cancel_id) {
  using Kind = GridKind<GridRequest>;
  const Clock::time_point enqueued = Clock::now();
  const typename Kind::Input& input = Kind::input(request);

  Status valid = Kind::validate(input);
  if (!valid.ok()) {
    metrics_.failed.add();
    return resolve_ready(callback, rejected(std::move(valid)));
  }

  // fingerprint(Request(request)) without the copy, so the inline and
  // chunk-parallel paths share cache entries.  A strided (degraded)
  // request hashes differently, so it can only hit other degraded runs.
  const Fingerprint key = fingerprint(request);

  if (options_.enable_cache) {
    bool served_stale = false;
    std::shared_ptr<const ResponsePayload> hit;
    {
      trace::ScopedSpan probe("cache.probe", trace::Category::Cache);
      hit = probe_cache(key, degraded, served_stale);
      probe.annotate("hit", hit ? 1 : 0);
    }
    if (hit) {
      metrics_.cache_hits.add();
      QueryResponse response;
      response.payload = std::move(hit);
      response.cache_hit = true;
      if (served_stale || strided) mark_degraded(response);
      response.latency = std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now() - enqueued);
      metrics_.latency(Kind::type).record(response.latency);
      metrics_.completed.add();
      return resolve_ready(callback, std::move(response));
    }
    metrics_.cache_misses.add();
  }

  // The kind's evaluator, the pre-sized result vector each chunk writes a
  // disjoint slice of, and one summary slot per chunk, shared by the
  // job's two hooks.
  struct Slices {
    typename Kind::Evaluator evaluator;
    std::vector<typename Kind::Cell> cells;
    std::vector<typename Kind::Summary> summaries;
    Slices(const typename Kind::Input& in, const cost::ComponentLibrary& lib)
        : evaluator(in, lib), cells(evaluator.cell_count()) {}
  };
  auto slices = std::make_shared<Slices>(input, options_.library);

  // Aim for ~2 chunks per worker (load balance without queue churn), but
  // never more chunks than the queue could ever hold.  Boundaries land
  // on whole evaluator rows, so every chunk runs the batch kernel end to
  // end.
  const std::vector<CellRange> chunks = split_range(
      slices->evaluator.cell_count(),
      std::min<std::size_t>(std::size_t{options_.worker_threads} * 2,
                            queue_->capacity()),
      slices->evaluator.row_cells());
  slices->summaries.resize(chunks.size());

  auto job = std::make_shared<GridJob>();
  job->evaluate = [slices](std::size_t chunk, std::size_t begin,
                           std::size_t end) {
    typename Kind::Cell* out = slices->cells.data() + begin;
    slices->evaluator.evaluate_range(begin, end, out);
    // Folded right after the slice is written, while it is in cache.
    slices->summaries[chunk].add({out, end - begin});
  };
  job->merge = [slices] {
    return ResponsePayload(Kind::merge(
        slices->evaluator, std::move(slices->cells), slices->summaries));
  };
  job->type = Kind::type;
  job->chunk_span = Kind::chunk_span;
  job->merge_span = Kind::merge_span;
  job->key = key;
  job->enqueued = enqueued;
  job->trace_id = trace::current_trace_id();
  job->callback = std::move(callback);
  job->sampled = strided;
  if (cancel_owner != 0 || cancel_id != 0) {
    job->cancel = cancels_.add(cancel_owner, cancel_id);
    job->cancel_owner = cancel_owner;
    job->cancel_id = cancel_id;
  }
  std::future<QueryResponse> future;
  if (!job->callback) future = job->promise.get_future();

  job->remaining.store(chunks.size(), std::memory_order_relaxed);

  Status rejection;
  {
    trace::ScopedSpan enqueue("engine.enqueue", trace::Category::Engine);
    std::lock_guard<std::mutex> lock(lifecycle_mutex_);
    if (shutdown_) {
      metrics_.rejected_shutdown.add();
      rejection = Status::shutting_down();
    } else if (!queue_->has_room(enqueue_class(priority), chunks.size())) {
      // All-or-nothing enqueue: pushes are serialized by lifecycle_mutex_
      // and concurrent pops only shrink the queue, so after this capacity
      // check every chunk's try_push is guaranteed to succeed.
      metrics_.rejected_queue_full.add();
      rejection = Status::queue_full();
    } else {
      for (std::size_t c = 0; c < chunks.size(); ++c) {
        Task task;
        task.deadline = deadline;
        task.enqueued = enqueued;
        task.trace_id = job->trace_id;
        task.job = job;
        task.priority = priority;
        task.chunk = c;
        task.chunk_begin = chunks[c].begin;
        task.chunk_end = chunks[c].end;
        if (!queue_->try_push(enqueue_class(priority), task)) {
          // Unreachable (see the capacity check above); keep the job's
          // chunk accounting consistent anyway so the request resolves.
          job->fail(StatusCode::InternalError, "grid chunk enqueue failed");
          if (job->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            job->resolve(rejected(Status::internal_error(job->fail_message)));
            return future;  // no chunk enqueued; pending_ untouched
          }
          continue;
        }
        metrics_.queue_depth.increment();
      }
      ++pending_;
    }
  }
  if (!rejection.ok()) {
    if (job->cancel) cancels_.erase(job->cancel_owner, job->cancel_id);
    // Resolved after the lock is released so a callback can never run
    // while the engine's lifecycle mutex is held.
    return resolve_ready(job->callback, rejected(std::move(rejection)));
  }
  return future;
}

void QueryEngine::run_chunk(Task& task) {
  GridJob& job = *task.job;
  {
    // Scoped so the merge (complete_job) traces as a sibling span, not
    // a child of whichever chunk happens to finish last.
    trace::ScopedSpan span(
        job.chunk_span, trace::Category::Chunk, "cells",
        static_cast<std::int64_t>(task.chunk_end - task.chunk_begin));
    if (job.cancel && job.cancel->is_cancelled()) {
      // Cooperative cancellation: checked once per chunk, so an
      // in-flight job stops within one chunk's work.
      if (job.fail(StatusCode::Cancelled)) {
        metrics_.qos_cancelled_inflight.add();
        trace::emit_instant("qos.cancelled", trace::Category::Qos);
      }
    } else if (task.deadline.expired()) {
      trace::emit_instant("deadline.expired", trace::Category::Mark);
      job.fail(StatusCode::DeadlineExceeded);
    } else if (job.fail_code.load(std::memory_order_relaxed) == 0) {
      try {
        job.evaluate(task.chunk, task.chunk_begin, task.chunk_end);
      } catch (const std::exception& e) {
        job.fail(StatusCode::InternalError, e.what());
      } catch (...) {
        job.fail(StatusCode::InternalError, "unknown exception");
      }
    }
  }
  release_chunk(job);
}

void QueryEngine::release_chunk(GridJob& job) {
  if (job.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    complete_job(job);
  }
}

void QueryEngine::complete_job(GridJob& job) {
  QueryResponse response;
  {
    // Closed before the end-to-end latency is stamped, so queue-wait +
    // chunk + merge spans stay accountable within the recorded latency.
    trace::ScopedSpan span(job.merge_span, trace::Category::Merge);
    const int fail = job.fail_code.load(std::memory_order_acquire);
    if (fail != 0) {
      switch (static_cast<StatusCode>(fail)) {
        case StatusCode::DeadlineExceeded:
          metrics_.rejected_deadline.add();
          metrics_.expired_in_queue.add();
          response = rejected(Status::deadline_exceeded());
          break;
        case StatusCode::ShuttingDown:
          metrics_.rejected_shutdown.add();
          response = rejected(Status::shutting_down());
          break;
        case StatusCode::Cancelled:
          // Already counted (queued or in-flight) by whoever won the
          // fail CAS; the response is just the ack.
          response = rejected(Status::cancelled());
          break;
        default:
          response = rejected(Status::internal_error(job.fail_message));
          trace::emit_instant("request.failed", trace::Category::Mark);
          break;
      }
    } else {
      response.payload = std::make_shared<const ResponsePayload>(job.merge());
      if (options_.enable_cache) cache_.put(job.key, response.payload);
      if (job.sampled) mark_degraded(response);
    }
  }
  response.latency = std::chrono::duration_cast<std::chrono::nanoseconds>(
      Clock::now() - job.enqueued);
  metrics_.latency(job.type).record(response.latency);
  if (response.ok()) {
    metrics_.completed.add();
  } else if (response.status.code != StatusCode::DeadlineExceeded &&
             response.status.code != StatusCode::Cancelled) {
    metrics_.failed.add();
  }
  if (job.cancel) cancels_.erase(job.cancel_owner, job.cancel_id);
  job.resolve(std::move(response));
  {
    std::lock_guard<std::mutex> lock(lifecycle_mutex_);
    --pending_;
  }
  drained_.notify_all();
}

QueryResponse QueryEngine::run_request(const Request& request,
                                       Deadline deadline,
                                       Clock::time_point start,
                                       bool allow_stale) {
  QueryResponse response;
  if (deadline.expired()) {
    // The submit-time check already passed, so this request aged out
    // after acceptance — while queued (worker path) or between the
    // check and execution (inline path).
    metrics_.rejected_deadline.add();
    metrics_.expired_in_queue.add();
    trace::emit_instant("deadline.expired", trace::Category::Mark);
    response = rejected(Status::deadline_exceeded());
  } else {
    trace::ScopedSpan span(execute_span_name(request_type(request)),
                           trace::Category::Execute);
    response = execute_cached(request, allow_stale);
    if (const auto* sim = std::get_if<SimulateRequest>(&request)) {
      if (response.ok() && !response.cache_hit) {
        metrics_.sim_runs.add();
        if (!sim->faults.empty()) metrics_.sim_fault_runs.add();
        if (const SimulateResponse* payload = response.simulate()) {
          metrics_.sim_cycles.add(
              static_cast<std::uint64_t>(payload->result.cycles));
        }
      }
    }
  }
  response.latency = std::chrono::duration_cast<std::chrono::nanoseconds>(
      Clock::now() - start);
  metrics_.latency(request_type(request)).record(response.latency);
  if (response.ok()) {
    metrics_.completed.add();
  } else if (response.status.code != StatusCode::DeadlineExceeded) {
    metrics_.failed.add();
    // Tail-sampling trigger: a failed request force-keeps its trace.
    trace::emit_instant("request.failed", trace::Category::Mark);
  }
  return response;
}

QueryResponse QueryEngine::execute_cached(const Request& request,
                                          bool allow_stale) {
  if (!options_.enable_cache) return execute_uncached(request);

  const Fingerprint key = fingerprint(request);
  bool served_stale = false;
  std::shared_ptr<const ResponsePayload> hit;
  {
    trace::ScopedSpan probe("cache.probe", trace::Category::Cache);
    hit = probe_cache(key, allow_stale, served_stale);
    probe.annotate("hit", hit ? 1 : 0);
  }
  if (hit) {
    metrics_.cache_hits.add();
    QueryResponse response;
    response.payload = std::move(hit);
    response.cache_hit = true;
    if (served_stale) mark_degraded(response);
    return response;
  }
  metrics_.cache_misses.add();
  QueryResponse response = execute_uncached(request);
  if (response.ok()) cache_.put(key, response.payload);
  return response;
}

/// Soft-TTL ladder: with the TTL disabled (the default) this is a plain
/// cache lookup, byte-for-byte the pre-QoS behavior.  With a TTL, a
/// fresh entry is a hit; a stale one is served only under admission
/// Degrade (trading staleness for a worker's time), otherwise treated
/// as a miss so the recompute refreshes it.
std::shared_ptr<const ResponsePayload> QueryEngine::probe_cache(
    Fingerprint key, bool allow_stale, bool& served_stale) {
  served_stale = false;
  if (options_.cache_soft_ttl.count() <= 0) return cache_.get(key);
  std::chrono::steady_clock::duration age{};
  std::shared_ptr<const ResponsePayload> hit = cache_.get(key, &age);
  if (!hit || age <= options_.cache_soft_ttl) return hit;
  if (!allow_stale) return nullptr;  // stale ⇒ miss; the put() refreshes
  served_stale = true;
  return hit;
}

void QueryEngine::mark_degraded(QueryResponse& response) {
  if (!response.ok() || response.sampled) return;
  response.sampled = true;
  metrics_.qos_degraded_responses.add();
}

LatencyHistogram::Buckets QueryEngine::interactive_buckets() const {
  LatencyHistogram::Buckets merged{};
  for (const RequestType type :
       {RequestType::Classify, RequestType::Recommend, RequestType::Cost,
        RequestType::Simulate}) {
    const LatencyHistogram::Buckets b = metrics_.latency(type).buckets();
    for (std::size_t i = 0; i < b.counts.size(); ++i) {
      merged.counts[i] += b.counts[i];
    }
    merged.count += b.count;
    merged.sum_ns += b.sum_ns;
  }
  return merged;
}

bool QueryEngine::cancel(std::uint64_t owner, std::uint64_t id) {
  trace::ScopedSpan span("qos.cancel", trace::Category::Qos);
  qos::CancelToken token = cancels_.cancel(owner, id);
  if (!token) return false;

  // Dequeue-if-queued: the reclaimed-capacity half of cancellation.
  // Anything still waiting is pulled out of its subqueue now; in-flight
  // work sees the token at the next chunk boundary instead.
  std::vector<Task> removed;
  queue_->remove_all_if(
      [owner, id](const Task& task) {
        if (task.job) {
          return task.job->cancel_owner == owner &&
                 task.job->cancel_id == id && task.job->cancel;
        }
        return task.cancel_owner == owner && task.cancel_id == id &&
               task.cancel != nullptr;
      },
      removed);
  for (Task& task : removed) {
    metrics_.queue_depth.decrement();
    if (task.job) {
      if (task.job->fail(StatusCode::Cancelled)) {
        metrics_.qos_cancelled_queued.add();
        trace::emit_instant("qos.cancelled", trace::Category::Qos);
      }
      release_chunk(*task.job);
      continue;
    }
    metrics_.qos_cancelled_queued.add();
    trace::emit_instant("qos.cancelled", trace::Category::Qos);
    finish_task(task, rejected(Status::cancelled()));
  }
  return true;
}

QueryResponse QueryEngine::execute_uncached(const Request& request) const {
  try {
    return std::visit(
        [this](const auto& req) -> QueryResponse {
          using T = std::decay_t<decltype(req)>;
          if constexpr (std::is_same_v<T, ClassifyRequest>) {
            return execute_classify(req);
          } else if constexpr (std::is_same_v<T, RecommendRequest>) {
            return execute_recommend(req, options_.library);
          } else if constexpr (is_grid_request_v<T>) {
            return execute_grid<GridKind<T>>(req, options_.library);
          } else if constexpr (std::is_same_v<T, SweepChunkRequest>) {
            return execute_grid<GridKind<SweepRequest>>(req,
                                                        options_.library);
          } else if constexpr (std::is_same_v<T, FaultChunkRequest>) {
            return execute_grid<GridKind<FaultSweepRequest>>(
                req, options_.library);
          } else if constexpr (std::is_same_v<T, SimulateRequest>) {
            return execute_simulate(req);
          } else {
            static_assert(std::is_same_v<T, CostRequest>);
            return execute_cost(req, options_.library);
          }
        },
        request);
  } catch (const std::exception& e) {
    return rejected(Status::internal_error(e.what()));
  } catch (...) {
    return rejected(Status::internal_error("unknown exception"));
  }
}

void QueryEngine::drain() {
  std::unique_lock<std::mutex> lock(lifecycle_mutex_);
  drained_.wait(lock, [this] { return pending_ == 0; });
}

void QueryEngine::shutdown() {
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(lifecycle_mutex_);
    shutdown_ = true;
    workers.swap(workers_);
  }
  queue_->close();
  for (std::thread& worker : workers) {
    if (worker.joinable()) worker.join();
  }
  // An engine that was never start()ed can still hold enqueued tasks;
  // every accepted future must become ready, so reject them here.
  while (std::optional<Task> leftover = queue_->try_pop()) {
    metrics_.queue_depth.decrement();
    if (leftover->job) {
      // Chunks resolve through their shared job; the last chunk drained
      // answers ShuttingDown (and counts it) exactly once.
      leftover->job->fail(StatusCode::ShuttingDown);
      release_chunk(*leftover->job);
      continue;
    }
    metrics_.rejected_shutdown.add();
    finish_task(*leftover, rejected(Status::shutting_down()));
  }
}

}  // namespace mpct::service
