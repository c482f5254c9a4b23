#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "service/cache.hpp"
#include "service/request.hpp"

namespace mpct::service {

/// Monotonic event counter.  Relaxed ordering: metrics observe, they do
/// not synchronise — a snapshot taken mid-traffic is allowed to be a few
/// events stale on some counters.
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous level (queue depth, in-flight requests).
class Gauge {
 public:
  void increment() { value_.fetch_add(1, std::memory_order_relaxed); }
  void decrement() { value_.fetch_sub(1, std::memory_order_relaxed); }
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket latency histogram: bucket i counts samples in
/// [2^i, 2^(i+1)) nanoseconds, so 40 buckets span 1 ns to ~18 minutes
/// with constant relative error (one power of two) and wait-free
/// recording — one relaxed fetch_add per sample, no allocation, no lock.
///
/// Bucket boundaries, pinned (tests/test_service.cpp holds these exact
/// edges):
///  * every bucket's lower bound is INCLUSIVE, its upper bound
///    EXCLUSIVE: a sample of exactly 2^i ns lands in bucket i, a sample
///    of 2^i - 1 ns in bucket i-1;
///  * bucket 0 is the irregular one: it covers [0, 2) ns, absorbing the
///    would-be [1, 2) bucket plus zero (and clamped negative) samples;
///  * the last bucket (i = kBucketCount - 1 = 39) is unbounded above:
///    [2^39 ns, +inf) — samples beyond ~9.2 minutes clamp into it.
/// The Prometheus exposition derives its `le` bounds from these edges:
/// bucket i's samples are exactly those <= 2^(i+1) - 1 ns, so the
/// emitted inclusive `le` bound is (2^(i+1) - 1) ns in seconds.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBucketCount = 40;

  void record(std::chrono::nanoseconds latency);

  /// The bucket record() files @p latency under — exposed so the
  /// boundary semantics above stay test-enforced.
  static std::size_t bucket_of(std::chrono::nanoseconds latency) {
    return bucket_index(latency);
  }

  /// Inclusive upper edge of bucket @p i in ns: 2^(i+1) - 1 (INT64_MAX
  /// for the unbounded last bucket).
  static std::int64_t bucket_upper_ns(std::size_t i);

  /// Samples per bucket.
  using Counts = std::array<std::uint64_t, kBucketCount>;

  /// Raw wait-free view for exporters: per-bucket counts plus the
  /// `_sum` / `_count` pair.  Reads are relaxed and per-field, exactly
  /// like snapshot(): racing records may be missed, values never tear.
  struct Buckets {
    Counts counts{};
    std::uint64_t count = 0;
    std::uint64_t sum_ns = 0;
  };
  Buckets buckets() const;

  struct Snapshot {
    std::uint64_t count = 0;
    double mean_us = 0;
    double min_us = 0;
    double max_us = 0;
    double p50_us = 0;
    double p95_us = 0;
    double p99_us = 0;
  };

  /// Consistent-enough view for reporting: buckets are read one by one
  /// (relaxed), so a snapshot racing a record() may miss the newest
  /// sample — never a torn value.
  Snapshot snapshot() const;

  /// Quantile in microseconds via bucket interpolation, clamped to the
  /// observed min and max; q in [0, 1].
  double quantile_us(double q) const;

  /// Quantile in microseconds of the samples @p counts holds, by linear
  /// interpolation inside the bucket the rank falls in (q clamped to
  /// [0, 1]); nullopt when @p counts holds none.  Shared by
  /// quantile_us() and the admission controller's windowed p99.
  static std::optional<double> quantile_of(const Counts& counts, double q);

  /// Total samples recorded so far — the cheap read the cluster client
  /// uses to decide whether quantile_us() has enough data to trust for
  /// hedge-delay derivation.
  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }

 private:
  static std::size_t bucket_index(std::chrono::nanoseconds latency);

  std::array<std::atomic<std::uint64_t>, kBucketCount> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_ns_{0};
  std::atomic<std::uint64_t> min_ns_{UINT64_MAX};
  std::atomic<std::uint64_t> max_ns_{0};
};

/// Histogram of executed batch sizes (1 = no batching win); buckets are
/// the exact sizes 1..kMaxTracked, larger batches clamp to the last.
class BatchSizeHistogram {
 public:
  static constexpr std::size_t kMaxTracked = 64;

  void record(std::size_t batch_size);
  std::uint64_t batches() const { return batches_.value(); }
  std::uint64_t requests() const { return requests_.value(); }
  double mean() const;
  /// How many executed batches had exactly @p batch_size requests
  /// (sizes above kMaxTracked clamp to the last slot).
  std::uint64_t size_count(std::size_t batch_size) const;

 private:
  Counter batches_;
  Counter requests_;
  std::array<std::atomic<std::uint64_t>, kMaxTracked> sizes_{};
};

/// Everything the engine measures, in one place.  All members are safe
/// for concurrent mutation from workers and concurrent reads from a
/// reporting thread.
class MetricsRegistry {
 public:
  // Request lifecycle.
  Counter submitted;
  Counter completed;
  Counter rejected_queue_full;
  Counter rejected_deadline;
  Counter rejected_shutdown;
  /// Requests whose deadline expired *after* acceptance — the engine had
  /// queued them but a worker (or chunk) found them dead on dequeue.  A
  /// strict subset of rejected_deadline: submit-time expiries increment
  /// only that counter, in-queue expiries increment both.  Sustained
  /// growth here means the queue itself is the bottleneck (requests age
  /// out while waiting), not the callers' deadlines.
  Counter expired_in_queue;
  Counter failed;  ///< ParseError / InvalidRequest / InternalError

  // Caching (engine-level mirror of the cache's own accounting, kept so
  // one registry renders the whole picture).
  Counter cache_hits;
  Counter cache_misses;

  // Execution shape.
  Gauge queue_depth;
  Gauge in_flight;
  BatchSizeHistogram batch_sizes;

  // Network (src/net): zeros unless a Server/Client shares this
  // registry.  Bytes/frames count whole frames as seen by the wire
  // layer, so bytes_in includes rejected frames' headers.
  Counter net_bytes_in;
  Counter net_bytes_out;
  Counter net_frames_in;
  Counter net_frames_out;
  Counter net_decode_errors;
  Counter net_connections_opened;
  Counter net_connections_closed;
  Counter net_retries;  ///< client reconnect-and-resend attempts
  Gauge net_active_connections;

  /// Logical client requests: each request a caller hands to
  /// net::Client / cluster::ClusterClient counts exactly once here, no
  /// matter how many times it is retried, failed over, or hedged on the
  /// wire (those re-sends show up in net_retries / net_hedges_sent /
  /// net_failovers instead).
  Counter net_requests_sent;
  Counter net_hedges_sent;  ///< speculative duplicates issued after p99 delay
  Counter net_hedges_won;   ///< hedged duplicate answered before the original
  Counter net_failovers;    ///< requests re-routed off an unhealthy endpoint

  // Simulation (SimulateRequest executions through src/workload; cache
  // hits do not re-count — these measure machine time actually spent).
  Counter sim_runs;        ///< workloads simulated to completion
  Counter sim_cycles;      ///< machine cycles across all simulations
  Counter sim_fault_runs;  ///< simulations with a non-empty fault set

  // Tracing pipeline (src/trace streaming export + collection): zeros
  // unless a net::TraceStreamer or a collector Server shares this
  // registry.  The sampler keep ratio is exported / (exported +
  // sampled_out); dropped counts real losses (ring wrap past the export
  // cursor, batches shed under back-pressure), sampled_out counts
  // deliberate policy discards.
  Counter trace_spans_exported;     ///< spans shipped in sent batches
  Counter trace_spans_dropped;      ///< spans lost (wrap / shed batches)
  Counter trace_spans_sampled_out;  ///< spans discarded by head sampling
  Counter trace_batches_sent;
  Counter trace_batches_dropped;    ///< batches shed (outbox full / dead link)
  Counter trace_collector_batches;  ///< batches a collector server absorbed
  Counter trace_collector_spans;    ///< spans a collector server absorbed

  // QoS (src/qos admission + cancellation).  Shed counters are
  // *disjoint* from the request-lifecycle rejection counters above:
  // an admission shed increments exactly one qos_shed_* counter and
  // answers Overloaded — it never touches rejected_deadline /
  // expired_in_queue / rejected_queue_full (see docs/SERVICE.md,
  // "Counting invariants").
  Counter qos_shed_background;     ///< Background sheds (Overloaded)
  Counter qos_shed_batch;          ///< Batch sheds (Overloaded)
  Counter qos_degraded_responses;  ///< served on a strided subgrid
  Counter qos_cancelled_queued;    ///< cancels that dequeued waiting work
  Counter qos_cancelled_inflight;  ///< cancels honoured at a chunk boundary
  Counter qos_cancels_received;    ///< CancelRequest frames dispatched
  Counter qos_cancels_sent;        ///< client-side wire cancels issued

  /// Submit-to-completion latency per request type.
  std::array<LatencyHistogram, kRequestTypeCount> latency_by_type;

  LatencyHistogram& latency(RequestType type) {
    return latency_by_type[static_cast<std::size_t>(type)];
  }
  const LatencyHistogram& latency(RequestType type) const {
    return latency_by_type[static_cast<std::size_t>(type)];
  }

  double cache_hit_rate() const {
    return CacheStats{cache_hits.value(), cache_misses.value()}.hit_rate();
  }

  /// Render as a report::TextTable (ASCII) — one row per metric_rows()
  /// entry with a table name, then one row per request type with
  /// count/mean/p50/p95/p99/max.
  /// @p cache supplies entry counts and evictions from the cache itself.
  std::string to_table(const CacheStats& cache) const;

  /// Prometheus text exposition (version 0.0.4) of the whole registry:
  /// one sample per metric_rows() entry with a family (counters as
  /// `*_total`, gauges), then per-request-type latency
  /// histograms with cumulative `_bucket{le="..."}` / `_sum` / `_count`
  /// samples whose `le` bounds come from LatencyHistogram's pinned
  /// bucket edges.  Appends the Tracer's profiling totals when
  /// @p include_profile is set.  Deterministic given frozen metric
  /// values (rendered via trace::PromWriter).
  std::string to_prometheus(const CacheStats& cache,
                            bool include_profile = false) const;
};

/// One row of the metric table.  to_table, to_prometheus and replay's
/// soak report all walk metric_rows(), so a metric is added by adding
/// one row there.  A field row points at a Counter or Gauge member; a
/// derived row reads other state through a small accessor.  An empty
/// `name` keeps a row out of to_table, an empty `family` out of
/// to_prometheus.
struct MetricRow {
  std::string_view section;  ///< to_table section banner
  std::string_view name;     ///< to_table row label
  /// Prometheus metric family: a counter if it ends in `_total` (the
  /// exposition's naming rule), a gauge otherwise.
  std::string_view family;
  std::string_view labels;   ///< sample labels, e.g. `reason="deadline"`
  std::string_view help;     ///< `# HELP` text, on a family's first row
  Counter MetricsRegistry::*counter = nullptr;
  Gauge MetricsRegistry::*gauge = nullptr;
  std::uint64_t (*derive)(const MetricsRegistry&, const CacheStats&) = nullptr;
  double (*ratio)(const MetricsRegistry&) = nullptr;  ///< table-only rows

  /// The value of a counter row or a derived count.
  std::uint64_t count(const MetricsRegistry& metrics,
                      const CacheStats& cache) const {
    return counter != nullptr ? (metrics.*counter).value()
                              : derive(metrics, cache);
  }
};

/// Every metric row, in render order.
std::span<const MetricRow> metric_rows();

}  // namespace mpct::service
