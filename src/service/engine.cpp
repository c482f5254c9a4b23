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

/// submit()'s delivery: a callback fulfilling the promise behind
/// @p future (shared, because std::function needs a copyable target).
QueryEngine::ResponseCallback fulfil(std::future<QueryResponse>& future) {
  auto promise = std::make_shared<std::promise<QueryResponse>>();
  future = promise->get_future();
  return [promise](QueryResponse response) {
    promise->set_value(std::move(response));
  };
}

/// Most tasks a worker drains from the queue per wake-up (amortises
/// queue synchronisation; recorded in the batch-size histogram).
constexpr std::size_t kMaxBatch = 16;

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
/// execute() path: the kind's Run, every chunk in turn, as the worker
/// pool runs it through submit_grid().  A chunk is how the cluster proxy
/// scatters a grid across backends: it goes through the normal cached
/// single-task path, so a repeated chunk (same input, same range) is a
/// cache hit on the server that owns it on the consistent-hash ring.
/// Chunks carry the whole input because cell indices (and each curve
/// trial's RNG stream) are over the whole grid, so chunk cells are
/// bit-identical to the same cells of a single-server evaluation.
template <typename Kind, typename GridOrChunk>
QueryResponse execute_grid(const GridOrChunk& request,
                           const cost::ComponentLibrary& library) {
  QueryResponse response;
  response.status = Kind::validate(Kind::input(request));
  if (!response.ok()) return response;
  if constexpr (std::is_same_v<GridOrChunk, typename Kind::ChunkRequest>) {
    const typename Kind::Evaluator evaluator(Kind::input(request), library);
    response.status =
        validate_chunk_range(to_string(Kind::chunk_type), request.begin,
                             request.end, evaluator.cell_count());
    if (!response.ok()) return response;
    std::vector<typename Kind::Cell> cells(request.end - request.begin);
    evaluator.evaluate_range(request.begin, request.end, cells.data());
    response.payload = std::make_shared<const ResponsePayload>(
        Kind::chunk_response(evaluator, std::move(cells)));
  } else {
    typename Kind::Run run(Kind::input(request), library);
    for (const CellRange& chunk : run.chunks(1)) {
      run.evaluate(chunk.begin, chunk.end);
    }
    response.payload = std::make_shared<const ResponsePayload>(run.finish());
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
          qos::WfqWeights{})),
      admission_(options_.admission) {
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
  std::future<QueryResponse> future;
  submit_impl(std::move(request), deadline, fulfil(future));
  return future;
}

std::future<QueryResponse> QueryEngine::submit(Request request,
                                               Deadline deadline,
                                               qos::PriorityClass priority) {
  std::future<QueryResponse> future;
  submit_impl(std::move(request), deadline, fulfil(future), priority);
  return future;
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

void QueryEngine::submit_impl(Request request, Deadline deadline,
                              ResponseCallback callback,
                              std::optional<qos::PriorityClass> priority,
                              std::uint64_t cancel_owner,
                              std::uint64_t cancel_id) {
  trace::ScopedSpan span("engine.submit", trace::Category::Engine, "type",
                         static_cast<std::int64_t>(request_type(request)));
  metrics_.submitted.add();

  if (deadline.expired()) {
    metrics_.rejected_deadline.add();
    trace::emit_instant("deadline.expired", trace::Category::Mark);
    return callback(rejected(Status::deadline_exceeded()));
  }

  const qos::PriorityClass cls =
      priority.value_or(qos::default_priority(request));
  bool strided = false;
  if (options_.enable_qos) {
    admission_.observe([this] { return interactive_buckets(); },
                       Clock::now());
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
      return callback(rejected(Status::overloaded(
          std::string(qos::to_string(cls)) + " load shed: pressure " +
              std::to_string(admission.pressure),
          admission.retry_after_ms)));
    }
    if (admission.action == qos::AdmissionAction::Degrade) {
      strided = stride_for_degrade(request);
      if (strided) trace::emit_instant("qos.degrade", trace::Category::Qos);
    }
  }

  if (options_.worker_threads == 0) {
    // Single-threaded fallback: execute inline, deterministically.
    metrics_.batch_sizes.record(1);
    QueryResponse response = run_request(request, deadline, Clock::now());
    if (strided) mark_degraded(response);
    return callback(std::move(response));
  }

  auto job = std::make_shared<Job>();
  job->request = std::move(request);
  job->deadline = deadline;
  job->enqueued = Clock::now();
  job->trace_id = trace::current_trace_id();
  job->sampled = strided;
  job->callback = std::move(callback);
  job->cancel_owner = cancel_owner;
  job->cancel_id = cancel_id;
  if (std::holds_alternative<SweepRequest>(job->request)) {
    return submit_grid<SweepRequest>(std::move(job), cls);
  }
  if (std::holds_alternative<FaultSweepRequest>(job->request)) {
    return submit_grid<FaultSweepRequest>(std::move(job), cls);
  }
  const CellRange whole;  // a point job is one chunk, run whole
  enqueue(std::move(job), cls, {&whole, 1});
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

template <typename GridRequest>
void QueryEngine::submit_grid(std::shared_ptr<Job> job,
                              qos::PriorityClass priority) {
  using Kind = GridKind<GridRequest>;
  const GridRequest& request = std::get<GridRequest>(job->request);
  const typename Kind::Input& input = Kind::input(request);
  // Metered and answered here, on the submitter's thread, as the inline
  // path would answer the same request.
  const auto answer_now = [this, &job](QueryResponse response) {
    meter(response, Kind::type, job->enqueued);
    job->callback(std::move(response));
  };

  if (Status valid = Kind::validate(input); !valid.ok()) {
    return answer_now(rejected(std::move(valid)));
  }

  // fingerprint(Request(request)) without the copy, so the inline and
  // chunk-parallel paths share cache entries.  A strided (degraded)
  // request hashes differently, so it can only hit other degraded runs.
  job->key = fingerprint(request);
  if (options_.enable_cache) {
    std::optional<QueryResponse> hit = cached(job->key);
    if (hit) {
      if (job->sampled) mark_degraded(*hit);
      return answer_now(std::move(*hit));
    }
  }

  // The kind's whole-request state, built here so the task only
  // computes (see GridKind<SweepRequest>::Run on where the points are
  // allocated).  Validation bounds its size; anything it still throws
  // is answered, never left to unwind through the submitter.
  std::shared_ptr<typename Kind::Run> run;
  try {
    run = std::make_shared<typename Kind::Run>(input, library_);
  } catch (const std::exception& e) {
    return answer_now(rejected(Status::internal_error(e.what())));
  }

  // A sweep is one task.  A curve aims for ~2 chunks per worker (load
  // balance without queue churn), but never more chunks than the queue
  // could ever hold, with boundaries on whole lane blocks.
  const std::vector<CellRange> chunks = run->chunks(std::min<std::size_t>(
      std::size_t{options_.worker_threads} * 2, queue_->capacity()));
  job->evaluate = [run](std::size_t begin, std::size_t end) {
    run->evaluate(begin, end);
  };
  job->merge = [run] { return ResponsePayload(run->finish()); };
  job->chunk_span = Kind::chunk_span;
  job->merge_span = Kind::merge_span;
  enqueue(std::move(job), priority, chunks);
}

void QueryEngine::enqueue(std::shared_ptr<Job> job,
                          qos::PriorityClass priority,
                          std::span<const CellRange> chunks) {
  if (job->cancel_owner != 0 || job->cancel_id != 0) {
    job->cancel = cancels_.add(job->cancel_owner, job->cancel_id);
  }
  job->remaining.store(chunks.size(), std::memory_order_relaxed);

  Status rejection;
  {
    trace::ScopedSpan span("engine.enqueue", trace::Category::Engine);
    std::lock_guard<std::mutex> lock(lifecycle_mutex_);
    if (shutdown_) {
      metrics_.rejected_shutdown.add();
      rejection = Status::shutting_down();
    } else if (!queue_->try_push_all(
                   enqueue_class(priority), chunks.size(),
                   [&](std::size_t c) {
                     return Task{job, chunks[c], priority};
                   })) {
      // All or nothing: a job never leaves some of its chunks behind.
      metrics_.rejected_queue_full.add();
      rejection = Status::queue_full();
    } else {
      for (std::size_t c = 0; c < chunks.size(); ++c) {
        metrics_.queue_depth.increment();
      }
      ++pending_;
    }
  }
  if (!rejection.ok()) {
    if (job->cancel) cancels_.erase(job->cancel_owner, job->cancel_id);
    // Answered after the lock is released so a callback can never run
    // while the engine's lifecycle mutex is held.
    job->callback(rejected(std::move(rejection)));
  }
}

void QueryEngine::worker_loop() {
  std::vector<Task> batch;
  for (;;) {
    batch.clear();
    Task first;
    if (!queue_->pop(first)) return;  // closed and drained
    batch.push_back(std::move(first));
    while (batch.size() < kMaxBatch) {
      std::optional<Task> next = queue_->try_pop();
      if (!next) break;
      batch.push_back(std::move(*next));
    }
    metrics_.batch_sizes.record(batch.size());
    for (const Task& task : batch) {
      metrics_.queue_depth.decrement();
      metrics_.in_flight.increment();
      // Restore the submitter's trace context for everything this task
      // records — queue.wait, execute spans, chunk spans, merge spans.
      trace::TraceContextScope context(task.job->trace_id);
      if (trace::enabled()) [[unlikely]] {
        // The wait is only measurable here: the submitter stamped
        // job->enqueued, this worker knows the dequeue time.
        trace::emit_span("queue.wait", trace::Category::Queue,
                         task.job->enqueued, Clock::now());
      }
      run_chunk(task);
      metrics_.in_flight.decrement();
      release_chunk(*task.job);
    }
  }
}

bool QueryEngine::Job::fail(StatusCode code, std::string message) {
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

void QueryEngine::run_chunk(const Task& task) {
  Job& job = *task.job;
  if (!job.evaluate) {
    if (!cancelled_in_flight(job)) {
      job.response = run_request(job.request, job.deadline, job.enqueued);
    }
    return;
  }
  // Closed before release_chunk(), so the merge (complete_job) traces as
  // a sibling span, not a child of whichever chunk happens to finish last.
  trace::ScopedSpan span(
      job.chunk_span, trace::Category::Chunk, "cells",
      static_cast<std::int64_t>(task.range.end - task.range.begin));
  if (cancelled_in_flight(job)) return;
  if (job.deadline.expired()) {
    // One expiry per job, however many of its chunks find it dead.
    if (job.fail(StatusCode::DeadlineExceeded)) {
      trace::emit_instant("deadline.expired", trace::Category::Mark);
    }
    return;
  }
  if (job.fail_code.load(std::memory_order_relaxed) != 0) return;
  try {
    job.evaluate(task.range.begin, task.range.end);
  } catch (const std::exception& e) {
    job.fail(StatusCode::InternalError, e.what());
  } catch (...) {
    job.fail(StatusCode::InternalError, "unknown exception");
  }
}

bool QueryEngine::cancelled_in_flight(Job& job) {
  if (!job.cancel || !job.cancel->is_cancelled()) return false;
  // The cancel arrived after a worker popped this chunk (the queue sweep
  // missed it).  Checked once per chunk, so a running job stops within
  // one chunk's work.
  if (job.fail(StatusCode::Cancelled)) {
    metrics_.qos_cancelled_inflight.add();
    trace::emit_instant("qos.cancelled", trace::Category::Qos);
  }
  return true;
}

void QueryEngine::release_chunk(Job& job) {
  if (job.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    complete_job(job);
  }
}

void QueryEngine::complete_job(Job& job) {
  const auto code = static_cast<StatusCode>(
      job.fail_code.load(std::memory_order_acquire));
  QueryResponse response;
  if (!job.merge && code == StatusCode::Ok) {
    // A point job that ran was already metered by run_request().
    response = std::move(job.response);
  } else if (!job.merge) {
    // Cancelled or drained before it ran: still one latency sample.
    response = failure(job, code);
    meter(response, request_type(job.request), job.enqueued);
  } else {
    {
      // Closed before the end-to-end latency is stamped, so queue-wait +
      // chunk + merge spans stay accountable within the recorded latency.
      trace::ScopedSpan span(job.merge_span, trace::Category::Merge);
      if (code != StatusCode::Ok) {
        response = failure(job, code);
      } else {
        response.payload =
            std::make_shared<const ResponsePayload>(job.merge());
        if (options_.enable_cache) cache_.put(job.key, response.payload);
        if (job.sampled) mark_degraded(response);
      }
    }
    meter(response, request_type(job.request), job.enqueued);
  }
  if (job.cancel) cancels_.erase(job.cancel_owner, job.cancel_id);
  job.callback(std::move(response));
  {
    std::lock_guard<std::mutex> lock(lifecycle_mutex_);
    --pending_;
  }
  drained_.notify_all();
}

QueryResponse QueryEngine::failure(const Job& job, StatusCode code) {
  switch (code) {
    case StatusCode::DeadlineExceeded:
      metrics_.rejected_deadline.add();
      metrics_.expired_in_queue.add();
      return rejected(Status::deadline_exceeded());
    case StatusCode::ShuttingDown:
      metrics_.rejected_shutdown.add();
      return rejected(Status::shutting_down());
    case StatusCode::Cancelled:
      // Already counted (queued or in-flight) by whoever won the fail
      // CAS; the response is just the ack.
      return rejected(Status::cancelled());
    default:
      return rejected(Status::internal_error(job.fail_message));
  }
}

QueryResponse QueryEngine::run_request(const Request& request,
                                       Deadline deadline,
                                       Clock::time_point start) {
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
    response = execute_cached(request);
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
  meter(response, request_type(request), start);
  return response;
}

void QueryEngine::meter(QueryResponse& response, RequestType type,
                        Clock::time_point start) {
  response.latency = std::chrono::duration_cast<std::chrono::nanoseconds>(
      Clock::now() - start);
  metrics_.latency(type).record(response.latency);
  switch (response.status.code) {
    case StatusCode::Ok:
      metrics_.completed.add();
      break;
    case StatusCode::DeadlineExceeded:
    case StatusCode::ShuttingDown:
    case StatusCode::Cancelled:
      break;  // counted as rejections where they happen
    default:
      metrics_.failed.add();
      // Tail-sampling trigger: a failed request force-keeps its trace.
      trace::emit_instant("request.failed", trace::Category::Mark);
  }
}

QueryResponse QueryEngine::execute_cached(const Request& request) {
  if (!options_.enable_cache) return execute_uncached(request);

  const Fingerprint key = fingerprint(request);
  if (std::optional<QueryResponse> hit = cached(key)) {
    return std::move(*hit);
  }
  QueryResponse response = execute_uncached(request);
  if (response.ok()) cache_.put(key, response.payload);
  return response;
}

std::optional<QueryResponse> QueryEngine::cached(Fingerprint key) {
  std::shared_ptr<const ResponsePayload> hit;
  {
    trace::ScopedSpan probe("cache.probe", trace::Category::Cache);
    hit = cache_.get(key);
    probe.annotate("hit", hit ? 1 : 0);
  }
  if (!hit) {
    metrics_.cache_misses.add();
    return std::nullopt;
  }
  metrics_.cache_hits.add();
  QueryResponse response;
  response.payload = std::move(hit);
  response.cache_hit = true;
  return response;
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
      [&token](const Task& task) { return task.job->cancel == token; },
      removed);
  for (const Task& task : removed) {
    metrics_.queue_depth.decrement();
    if (task.job->fail(StatusCode::Cancelled)) {
      metrics_.qos_cancelled_queued.add();
      trace::emit_instant("qos.cancelled", trace::Category::Qos);
    }
    release_chunk(*task.job);
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
            return execute_recommend(req, library_);
          } else if constexpr (is_grid_request_v<T>) {
            return execute_grid<GridKind<T>>(req, library_);
          } else if constexpr (std::is_same_v<T, SweepChunkRequest>) {
            return execute_grid<GridKind<SweepRequest>>(req, library_);
          } else if constexpr (std::is_same_v<T, FaultChunkRequest>) {
            return execute_grid<GridKind<FaultSweepRequest>>(req, library_);
          } else if constexpr (std::is_same_v<T, SimulateRequest>) {
            return execute_simulate(req);
          } else {
            static_assert(std::is_same_v<T, CostRequest>);
            return execute_cost(req, library_);
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
    // Every chunk resolves through its job; the last one drained answers
    // ShuttingDown (and counts it) exactly once.
    metrics_.queue_depth.decrement();
    leftover->job->fail(StatusCode::ShuttingDown);
    release_chunk(*leftover->job);
  }
}

}  // namespace mpct::service
