#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string_view>
#include <vector>

namespace mpct::trace {

/// Span taxonomy: which layer of the stack an event belongs to.  The
/// Chrome exporter renders this as the event category, so Perfetto can
/// filter e.g. only queue events.  docs/OBSERVABILITY.md is the
/// narrative companion to this enum.
enum class Category : std::uint8_t {
  Engine,   ///< service::QueryEngine request lifecycle (submit, enqueue)
  Queue,    ///< time spent waiting in the engine's task queue
  Cache,    ///< sharded LRU probes (annotated hit/miss)
  Execute,  ///< request execution on a worker or the inline path
  Chunk,    ///< one sweep / fault-sweep chunk on a pool worker
  Merge,    ///< last-completer reduction (Pareto front, curve finalize)
  Sweep,    ///< explore::SweepEvaluator internals
  Fault,    ///< fault::CurveEvaluator / route-around internals
  Core,     ///< core::TaxonomyIndex and friends
  Cost,     ///< cost::CostPlan evaluation
  Noc,      ///< interconnect route / route-around
  Mark,     ///< instant markers (deadline expiry, shutdown)
  Net,      ///< wire + TCP server/client (accept, decode, enqueue, flush)
  Cluster,  ///< cluster tier (ring routing, hedging, proxy scatter/merge)
  Sim,      ///< workload lowering + machine simulation (SimulateRequest)
  Qos,      ///< admission decisions, WFQ dispatch, cancellation
};
inline constexpr std::size_t kCategoryCount = 16;
std::string_view to_string(Category category);

/// One recorded span.  `name` and `arg_name` point to static storage
/// (string literals at the instrumentation site) — recording never
/// copies or allocates.
struct Span {
  const char* name = nullptr;
  const char* arg_name = nullptr;  ///< nullptr = no annotation
  std::int64_t arg = 0;            ///< meaningful only with arg_name
  std::uint64_t id = 0;            ///< process-unique, 1-based
  std::uint64_t parent = 0;        ///< enclosing span on the same thread; 0 = root
  std::uint64_t trace_id = 0;      ///< originating request's wire trace id; 0 = none
  std::uint32_t thread = 0;        ///< Tracer registration-order thread index
  Category category = Category::Engine;
  std::int64_t start_ns = 0;       ///< monotonic, relative to the Tracer epoch
  /// Duration in ns; kInstant marks a zero-extent instant event
  /// (deadline expiry and similar markers).
  std::int64_t dur_ns = 0;

  static constexpr std::int64_t kInstant = -1;
  bool instant() const { return dur_ns == kInstant; }
};

/// Per-(ProfilePoint, process) aggregate: hot paths too cheap to span
/// individually (a 4 ns classify) tick these instead.
enum class ProfilePoint : std::uint8_t {
  ClassifyFast,   ///< core::TaxonomyIndex::classify
  CostEvaluate,   ///< cost::CostPlan::evaluate
  SweepCell,      ///< explore::SweepEvaluator::evaluate_cell
  CurveTrial,     ///< fault::CurveEvaluator::evaluate_cell
  NocReroute,     ///< interconnect::MeshNoc::rebuild_routes (timed)
  RouteAround,    ///< fault::analyze_noc replay (timed)
  OmegaRoute,     ///< interconnect::OmegaNetwork::connect
  SweepBatch,     ///< one batch-kernel block (timed; sweep/curve evaluate_range)
};
inline constexpr std::size_t kProfilePointCount = 8;
std::string_view to_string(ProfilePoint point);

struct ProfileTotals {
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;  ///< 0 for count-only points
};

/// Frozen, deterministic view of everything recorded so far: spans
/// sorted by (start_ns, id) — ids are process-unique, so the order is a
/// total one and both exporters are pure functions of this value.
struct TraceSnapshot {
  std::vector<Span> spans;
  std::array<ProfileTotals, kProfilePointCount> profile{};
  std::uint64_t dropped = 0;  ///< spans evicted by ring wrap-around
  std::uint32_t thread_count = 0;
};

namespace detail {

/// The process-wide on/off switch.  A namespace-scope atomic (constant
/// initialisation, no Meyers-singleton guard) so the disabled fast path
/// is exactly one relaxed load and one predicted branch — the < 2 ns
/// budget bench_trace enforces.
inline std::atomic<bool> g_enabled{false};

// Out-of-line slow paths (trace.cpp); called only while enabled.
std::uint64_t begin_span();
void end_span(const char* name, const char* arg_name, std::int64_t arg,
              std::uint64_t id, std::uint64_t parent, Category category,
              std::int64_t start_ns, std::int64_t dur_ns);
std::int64_t now_ns();
std::uint64_t current_parent();
void set_current_parent(std::uint64_t id);
std::uint64_t current_trace_id();
void set_current_trace_id(std::uint64_t trace_id);
void profile_add(ProfilePoint point, std::uint64_t calls, std::int64_t ns);

}  // namespace detail

/// Whether spans are currently being recorded.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Trace id every span recorded on this thread is currently stamped
/// with (0 = no request context).  Set by TraceContextScope; read only
/// on the enabled recording path, so the disabled cost stays at one
/// relaxed load + branch.
inline std::uint64_t current_trace_id() {
  return detail::current_trace_id();
}

/// RAII request context: stamps every span the calling thread records
/// while alive with @p trace_id, restoring the previous context on
/// destruction.  Cheap enough to install unconditionally (two
/// thread-local stores) — the server's dispatch path and the engine's
/// workers wrap request execution in one of these so the wire-v2 trace
/// id reaches every engine / chunk / merge span, not just the
/// cluster-layer instants.
class TraceContextScope {
 public:
  explicit TraceContextScope(std::uint64_t trace_id)
      : saved_(detail::current_trace_id()) {
    detail::set_current_trace_id(trace_id);
  }
  ~TraceContextScope() { detail::set_current_trace_id(saved_); }

  TraceContextScope(const TraceContextScope&) = delete;
  TraceContextScope& operator=(const TraceContextScope&) = delete;

 private:
  std::uint64_t saved_;
};

/// Process-wide span sink: per-thread lock-free ring buffers (each
/// thread writes only its own buffer; one relaxed store per field and a
/// release publish, no lock, no allocation after the buffer exists)
/// behind a registry a snapshot walks.
///
/// Disabled (the default), every instrumentation hook is one relaxed
/// load + branch.  Enabled, a span costs two clock reads plus the slot
/// stores.  Snapshots may race recording: spans whose slot could have
/// been overwritten mid-copy are discarded by index arithmetic, so a
/// returned span is always fully written — never torn (the concurrency
/// test in tests/test_trace.cpp runs this under TSan).
class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 8192;  ///< spans/thread

  static Tracer& instance();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Start recording.  The first enable() fixes the epoch all start_ns
  /// values are relative to.
  void enable();
  void disable();

  /// Drop every recorded span and profile total (keeps registered
  /// buffers, resizing them to the current capacity).  Call quiescent —
  /// concurrent recorders may interleave, though nothing tears.
  void clear();

  /// Ring capacity (spans) for each per-thread buffer; rounded up to a
  /// power of two.  Applies to buffers registered after the call and to
  /// existing buffers at the next clear().
  void set_capacity_per_thread(std::size_t spans);

  /// ns since the epoch (0 before the first enable()).
  std::int64_t now_ns() const;

  /// The steady_clock epoch (ns since the clock's own epoch) fixed by
  /// the first enable(); 0 before that.
  std::int64_t epoch_ns() const {
    return epoch_ns_.load(std::memory_order_acquire);
  }

  TraceSnapshot snapshot() const;

  /// What one exporter drain() returns: every fully-written span pushed
  /// since the previous drain(), plus how many were lost to ring
  /// wrap-around in between.  Unlike snapshot(), spans come back in
  /// per-thread push order (exporters do not need the global sort).
  struct DrainResult {
    std::vector<Span> spans;
    std::uint64_t dropped = 0;  ///< wrapped past the cursor before this drain
  };

  /// Incremental export: copy spans the exporter has not seen yet and
  /// advance the exporter's persistent per-ring read cursor.  The cursor
  /// is owned by drain() alone — snapshot() never reads or moves it, so
  /// on-demand dumps taken mid-stream neither double-export nor starve
  /// the streamer, and drain() never returns the same span twice.
  /// Single consumer: at most one exporter may call drain().
  DrainResult drain();

  /// Opaque per-thread ring; defined in trace.cpp.  Public only so the
  /// thread_local registration pointer can name the type.
  struct ThreadBuffer;

 private:
  Tracer() = default;
  friend std::uint64_t detail::begin_span();
  friend void detail::end_span(const char*, const char*, std::int64_t,
                               std::uint64_t, std::uint64_t, Category,
                               std::int64_t, std::int64_t);
  friend std::int64_t detail::now_ns();
  friend void detail::profile_add(ProfilePoint, std::uint64_t, std::int64_t);

  ThreadBuffer& local_buffer();

  mutable std::mutex registry_mutex_;
  std::vector<ThreadBuffer*> buffers_;
  std::size_t capacity_ = kDefaultCapacity;
  std::atomic<std::int64_t> epoch_ns_{0};  ///< steady_clock epoch, ns
  std::atomic<bool> epoch_set_{false};
  std::atomic<std::uint64_t> next_id_{1};
};

/// RAII span.  Construction with the tracer disabled is the no-op fast
/// path; destruction then touches nothing but a register test.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, Category category) {
    if (!enabled()) [[likely]] {
      return;
    }
    begin(name, category);
  }
  ScopedSpan(const char* name, Category category, const char* arg_name,
             std::int64_t arg)
      : ScopedSpan(name, category) {
    annotate(arg_name, arg);
  }
  ~ScopedSpan() {
    if (id_ != 0) [[unlikely]] {
      end();
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attach one (key, integer) annotation; no-op when not recording.
  void annotate(const char* arg_name, std::int64_t arg) {
    if (id_ != 0) [[unlikely]] {
      arg_name_ = arg_name;
      arg_ = arg;
    }
  }
  bool active() const { return id_ != 0; }

 private:
  void begin(const char* name, Category category);
  void end();

  const char* name_ = nullptr;
  const char* arg_name_ = nullptr;
  std::int64_t arg_ = 0;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::int64_t start_ns_ = 0;
  Category category_ = Category::Engine;
};

/// Record a span for an interval measured elsewhere (e.g. queue wait:
/// enqueue happened on the submitting thread, the wait is known only at
/// dequeue).  The span is attributed to the calling thread.
void emit_span(const char* name, Category category,
               std::chrono::steady_clock::time_point start,
               std::chrono::steady_clock::time_point end,
               const char* arg_name = nullptr, std::int64_t arg = 0);

/// Record a zero-extent instant marker (deadline expiry and similar).
void emit_instant(const char* name, Category category,
                  const char* arg_name = nullptr, std::int64_t arg = 0);

/// Count-only profiling hook for paths too hot to time per call.
inline void profile_count(ProfilePoint point) {
  if (!enabled()) [[likely]] {
    return;
  }
  detail::profile_add(point, 1, 0);
}

/// Bulk count hook: one tick covering @p calls logical operations.  The
/// batch kernels use this so per-point accounting (cost evaluations,
/// sweep cells, curve trials) stays accurate without a hook inside the
/// lane loop — profile totals read the same as the scalar path's.
inline void profile_count_n(ProfilePoint point, std::uint64_t calls) {
  if (!enabled()) [[likely]] {
    return;
  }
  if (calls != 0) detail::profile_add(point, calls, 0);
}

/// Timed profiling hook (two clock reads when enabled) for coarse
/// operations: route-table rebuilds, traffic replays.
class ProfileTimer {
 public:
  explicit ProfileTimer(ProfilePoint point) {
    if (!enabled()) [[likely]] {
      return;
    }
    point_ = point;
    armed_ = true;
    start_ = std::chrono::steady_clock::now();
  }
  ~ProfileTimer() {
    if (armed_) [[unlikely]] {
      detail::profile_add(
          point_, 1,
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start_)
              .count());
    }
  }

  ProfileTimer(const ProfileTimer&) = delete;
  ProfileTimer& operator=(const ProfileTimer&) = delete;

 private:
  ProfilePoint point_ = ProfilePoint::ClassifyFast;
  bool armed_ = false;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace mpct::trace
