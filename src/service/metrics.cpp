#include "service/metrics.hpp"

#include <algorithm>
#include <cstdio>

#include "report/table.hpp"
#include "trace/prometheus.hpp"
#include "trace/trace.hpp"

namespace mpct::service {

namespace {

std::string format_us(double us) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.2f", us);
  return buffer;
}

std::string format_rate(double rate) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.4f", rate);
  return buffer;
}

/// Update an atomic min/max without a CAS loop race losing updates.
void atomic_min(std::atomic<std::uint64_t>& target, std::uint64_t value) {
  std::uint64_t current = target.load(std::memory_order_relaxed);
  while (value < current &&
         !target.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<std::uint64_t>& target, std::uint64_t value) {
  std::uint64_t current = target.load(std::memory_order_relaxed);
  while (value > current &&
         !target.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace

std::size_t LatencyHistogram::bucket_index(std::chrono::nanoseconds latency) {
  const std::int64_t ns = latency.count();
  if (ns <= 0) return 0;
  std::size_t index = 0;
  std::uint64_t bound = 2;  // bucket 0 covers [0, 2) ns
  while (index + 1 < kBucketCount &&
         static_cast<std::uint64_t>(ns) >= bound) {
    ++index;
    bound <<= 1;
  }
  return index;
}

void LatencyHistogram::record(std::chrono::nanoseconds latency) {
  const std::uint64_t ns =
      latency.count() < 0 ? 0 : static_cast<std::uint64_t>(latency.count());
  buckets_[bucket_index(latency)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_ns_.fetch_add(ns, std::memory_order_relaxed);
  atomic_min(min_ns_, ns);
  atomic_max(max_ns_, ns);
}

std::int64_t LatencyHistogram::bucket_upper_ns(std::size_t i) {
  if (i + 1 >= kBucketCount) return INT64_MAX;  // last bucket: unbounded
  return static_cast<std::int64_t>((std::uint64_t{1} << (i + 1)) - 1);
}

LatencyHistogram::Buckets LatencyHistogram::buckets() const {
  Buckets result;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    result.counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  result.count = count_.load(std::memory_order_relaxed);
  result.sum_ns = sum_ns_.load(std::memory_order_relaxed);
  return result;
}

std::optional<double> LatencyHistogram::quantile_of(const Counts& counts,
                                                    double q) {
  q = std::clamp(q, 0.0, 1.0);
  std::uint64_t total = 0;
  for (const std::uint64_t count : counts) total += count;
  if (total == 0) return std::nullopt;
  const double rank = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    cumulative += counts[i];
    if (static_cast<double>(cumulative) >= rank) {
      // Linear interpolation inside [lower, upper) of this bucket.
      const double lower =
          i == 0 ? 0.0 : static_cast<double>(1ULL << i);
      const double upper = static_cast<double>(1ULL << (i + 1));
      const double before =
          static_cast<double>(cumulative - counts[i]);
      const double fraction =
          counts[i] == 0
              ? 0.0
              : (rank - before) / static_cast<double>(counts[i]);
      return (lower + fraction * (upper - lower)) / 1000.0;
    }
  }
  return static_cast<double>(1ULL << kBucketCount) / 1000.0;
}

double LatencyHistogram::quantile_us(double q) const {
  const std::optional<double> us = quantile_of(buckets().counts, q);
  if (!us) return 0;
  // Clamp interpolated estimates into the truly observed range so a
  // single-valued distribution reports that value for every quantile.
  const std::uint64_t min_ns = min_ns_.load(std::memory_order_relaxed);
  const double observed_min =
      min_ns == UINT64_MAX ? 0.0 : static_cast<double>(min_ns) / 1000.0;
  const double observed_max =
      static_cast<double>(max_ns_.load(std::memory_order_relaxed)) / 1000.0;
  return std::clamp(*us, observed_min, observed_max);
}

LatencyHistogram::Snapshot LatencyHistogram::snapshot() const {
  Snapshot snap;
  snap.count = count_.load(std::memory_order_relaxed);
  if (snap.count == 0) return snap;
  snap.mean_us = static_cast<double>(sum_ns_.load(std::memory_order_relaxed)) /
                 static_cast<double>(snap.count) / 1000.0;
  const std::uint64_t min_ns = min_ns_.load(std::memory_order_relaxed);
  snap.min_us =
      min_ns == UINT64_MAX ? 0.0 : static_cast<double>(min_ns) / 1000.0;
  snap.max_us =
      static_cast<double>(max_ns_.load(std::memory_order_relaxed)) / 1000.0;
  snap.p50_us = quantile_us(0.50);
  snap.p95_us = quantile_us(0.95);
  snap.p99_us = quantile_us(0.99);
  return snap;
}

void BatchSizeHistogram::record(std::size_t batch_size) {
  if (batch_size == 0) return;
  batches_.add(1);
  requests_.add(batch_size);
  const std::size_t slot = std::min(batch_size, kMaxTracked) - 1;
  sizes_[slot].fetch_add(1, std::memory_order_relaxed);
}

double BatchSizeHistogram::mean() const {
  const std::uint64_t b = batches_.value();
  return b == 0 ? 0.0
                : static_cast<double>(requests_.value()) /
                      static_cast<double>(b);
}

std::uint64_t BatchSizeHistogram::size_count(std::size_t batch_size) const {
  if (batch_size == 0) return 0;
  const std::size_t slot = std::min(batch_size, kMaxTracked) - 1;
  return sizes_[slot].load(std::memory_order_relaxed);
}

namespace {

using R = MetricsRegistry;

// Columns: section, table name, Prometheus family, labels, help, then
// how to read the value.
constexpr MetricRow kRows[] = {
    {"requests", "submitted", "mpct_requests_submitted_total", "",
     "Requests submitted to the QueryEngine.", &R::submitted},
    {"requests", "completed", "mpct_requests_completed_total", "",
     "Requests that completed successfully (cached or executed).",
     &R::completed},
    {"requests", "rejected (queue full)", "mpct_requests_rejected_total",
     "reason=\"queue_full\"", "Requests rejected, by reason.",
     &R::rejected_queue_full},
    {"requests", "rejected (deadline)", "mpct_requests_rejected_total",
     "reason=\"deadline\"", "", &R::rejected_deadline},
    {"requests", "rejected (shutdown)", "mpct_requests_rejected_total",
     "reason=\"shutdown\"", "", &R::rejected_shutdown},
    {"requests", "expired in queue", "mpct_requests_expired_in_queue_total",
     "",
     "Accepted requests whose deadline expired before execution "
     "(strict subset of reason=\"deadline\" rejections).",
     &R::expired_in_queue},
    {"requests", "failed", "mpct_requests_failed_total", "",
     "Requests that failed (parse / invalid / internal errors).",
     &R::failed},
    {"requests", "queue depth", "mpct_queue_depth", "",
     "Requests currently waiting in the bounded queue.", nullptr,
     &R::queue_depth},
    {"requests", "in flight", "mpct_in_flight", "",
     "Requests currently executing on workers.", nullptr, &R::in_flight},

    {"batching", "batches executed", "mpct_batches_total", "",
     "Worker wake-ups that drained at least one request.", nullptr, nullptr,
     [](const R& m, const CacheStats&) { return m.batch_sizes.batches(); }},
    {"batching", "mean batch size", "", "", "", nullptr, nullptr, nullptr,
     [](const R& m) { return m.batch_sizes.mean(); }},
    {"batching", "", "mpct_batch_requests_total", "",
     "Requests drained across all batches.", nullptr, nullptr,
     [](const R& m, const CacheStats&) { return m.batch_sizes.requests(); }},

    {"network", "bytes in", "mpct_net_bytes_total", "direction=\"in\"",
     "Bytes moved by the wire layer, by direction.", &R::net_bytes_in},
    {"network", "bytes out", "mpct_net_bytes_total", "direction=\"out\"", "",
     &R::net_bytes_out},
    {"network", "frames in", "mpct_net_frames_total", "direction=\"in\"",
     "Complete frames moved by the wire layer, by direction.",
     &R::net_frames_in},
    {"network", "frames out", "mpct_net_frames_total", "direction=\"out\"",
     "", &R::net_frames_out},
    {"network", "decode errors", "mpct_net_decode_errors_total", "",
     "Frames or payloads that failed to decode.", &R::net_decode_errors},
    {"network", "connections opened", "mpct_net_connections_total",
     "event=\"opened\"", "TCP connections, by lifecycle event.",
     &R::net_connections_opened},
    {"network", "connections closed", "mpct_net_connections_total",
     "event=\"closed\"", "", &R::net_connections_closed},
    {"network", "active connections", "mpct_net_active_connections", "",
     "Connections currently open on the server.", nullptr,
     &R::net_active_connections},
    {"network", "client retries", "mpct_net_retries_total", "",
     "Client reconnect-and-resend attempts.", &R::net_retries},
    {"network", "client requests sent", "mpct_net_requests_sent_total", "",
     "Logical client requests (retries and hedges not re-counted).",
     &R::net_requests_sent},
    {"network", "hedges sent", "mpct_net_hedges_total", "event=\"sent\"",
     "Speculative hedged duplicates, by outcome.", &R::net_hedges_sent},
    {"network", "hedges won", "mpct_net_hedges_total", "event=\"won\"", "",
     &R::net_hedges_won},
    {"network", "failovers", "mpct_net_failovers_total", "",
     "Requests re-routed off an unhealthy endpoint.", &R::net_failovers},

    {"simulation", "runs", "mpct_sim_runs_total", "",
     "Workload simulations executed (cache hits not re-counted).",
     &R::sim_runs},
    {"simulation", "cycles", "mpct_sim_cycles_total", "",
     "Machine cycles across all workload simulations.", &R::sim_cycles},
    {"simulation", "fault runs", "mpct_sim_fault_runs_total", "",
     "Workload simulations that injected at least one fault.",
     &R::sim_fault_runs},

    {"tracing", "spans exported", "mpct_trace_spans_total",
     "outcome=\"exported\"",
     "Spans through the streaming exporter, by outcome (exported = "
     "shipped; dropped = lost to ring wrap or shed batches; "
     "sampled_out = discarded by the head-sampling policy).",
     &R::trace_spans_exported},
    {"tracing", "spans dropped", "mpct_trace_spans_total",
     "outcome=\"dropped\"", "", &R::trace_spans_dropped},
    {"tracing", "spans sampled out", "mpct_trace_spans_total",
     "outcome=\"sampled_out\"", "", &R::trace_spans_sampled_out},
    {"tracing", "batches sent", "mpct_trace_batches_total",
     "outcome=\"sent\"",
     "Span batches through the streaming exporter, by outcome.",
     &R::trace_batches_sent},
    {"tracing", "batches dropped", "mpct_trace_batches_total",
     "outcome=\"dropped\"", "", &R::trace_batches_dropped},
    {"tracing", "collector batches", "mpct_trace_collector_batches_total", "",
     "Span batches absorbed by this process's collector server.",
     &R::trace_collector_batches},
    {"tracing", "collector spans", "mpct_trace_collector_spans_total", "",
     "Spans absorbed by this process's collector server.",
     &R::trace_collector_spans},

    {"qos", "shed (background)", "mpct_qos_shed_total",
     "class=\"background\"",
     "Requests rejected by admission control, by priority class "
     "(disjoint from mpct_requests_rejected_total: a shed answers "
     "Overloaded and touches no lifecycle rejection counter).",
     &R::qos_shed_background},
    {"qos", "shed (batch)", "mpct_qos_shed_total", "class=\"batch\"", "",
     &R::qos_shed_batch},
    {"qos", "degraded responses", "mpct_qos_degraded_responses_total", "",
     "Responses served at reduced precision under pressure "
     "(grid requests answered on a strided subgrid).",
     &R::qos_degraded_responses},
    {"qos", "cancelled (queued)", "mpct_qos_cancelled_total",
     "stage=\"queued\"",
     "Server-side cancellations honoured, by where the request "
     "was caught.",
     &R::qos_cancelled_queued},
    {"qos", "cancelled (in flight)", "mpct_qos_cancelled_total",
     "stage=\"in_flight\"", "", &R::qos_cancelled_inflight},
    {"qos", "cancels received", "mpct_qos_cancels_total",
     "direction=\"received\"", "Wire CancelRequest frames, by direction.",
     &R::qos_cancels_received},
    {"qos", "cancels sent", "mpct_qos_cancels_total", "direction=\"sent\"",
     "", &R::qos_cancels_sent},

    {"cache", "hits", "mpct_cache_hits_total", "", "Result-cache hits.",
     &R::cache_hits},
    {"cache", "misses", "mpct_cache_misses_total", "", "Result-cache misses.",
     &R::cache_misses},
    {"cache", "hit rate", "", "", "", nullptr, nullptr, nullptr,
     [](const R& m) { return m.cache_hit_rate(); }},
    {"cache", "entries", "mpct_cache_entries", "",
     "Entries currently resident in the result cache.", nullptr, nullptr,
     [](const R&, const CacheStats& c) -> std::uint64_t { return c.entries; }},
    {"cache", "insertions", "mpct_cache_insertions_total", "",
     "Result-cache insertions.", nullptr, nullptr,
     [](const R&, const CacheStats& c) { return c.insertions; }},
    {"cache", "evictions", "mpct_cache_evictions_total", "",
     "Result-cache LRU evictions.", nullptr, nullptr,
     [](const R&, const CacheStats& c) { return c.evictions; }},
};

}  // namespace

std::span<const MetricRow> metric_rows() { return kRows; }

std::string MetricsRegistry::to_table(const CacheStats& cache) const {
  report::TextTable table({"metric", "value"});
  table.set_align(1, report::Align::Right);

  std::string_view section;
  for (const MetricRow& row : kRows) {
    if (row.name.empty()) continue;
    if (row.section != section) table.add_section(std::string(row.section));
    section = row.section;
    std::string value;
    if (row.gauge != nullptr) {
      value = std::to_string((this->*row.gauge).value());
    } else if (row.ratio != nullptr) {
      value = format_rate(row.ratio(*this));
    } else {
      value = std::to_string(row.count(*this, cache));
    }
    table.add_row({std::string(row.name), std::move(value)});
  }

  for (std::size_t i = 0; i < kRequestTypeCount; ++i) {
    const auto type = static_cast<RequestType>(i);
    const LatencyHistogram::Snapshot snap = latency(type).snapshot();
    table.add_section(std::string("latency: ") +
                      std::string(to_string(type)) + " (us)");
    table.add_row({"count", std::to_string(snap.count)});
    table.add_row({"mean", format_us(snap.mean_us)});
    table.add_row({"p50", format_us(snap.p50_us)});
    table.add_row({"p95", format_us(snap.p95_us)});
    table.add_row({"p99", format_us(snap.p99_us)});
    table.add_row({"max", format_us(snap.max_us)});
  }
  return table.render_ascii();
}

std::string MetricsRegistry::to_prometheus(const CacheStats& cache,
                                           bool include_profile) const {
  using trace::PromWriter;
  PromWriter w;

  std::string_view family;
  for (const MetricRow& row : kRows) {
    if (row.family.empty()) continue;
    if (row.family != family) {
      w.header(row.family,
               row.family.ends_with("_total") ? PromWriter::Type::Counter
                                              : PromWriter::Type::Gauge,
               row.help);
    }
    family = row.family;
    if (row.gauge != nullptr) {
      w.sample(row.family, row.labels,
               static_cast<double>((this->*row.gauge).value()));
    } else {
      w.sample(row.family, row.labels, row.count(*this, cache));
    }
  }

  // Per-type latency histograms.  Cumulative buckets; the inclusive
  // `le` bound of bucket i is its inclusive upper edge 2^(i+1) - 1 ns
  // (see the pinned boundary semantics in metrics.hpp).
  w.header("mpct_request_latency_seconds", PromWriter::Type::Histogram,
           "Submit-to-completion latency by request type.");
  for (std::size_t t = 0; t < kRequestTypeCount; ++t) {
    const auto type = static_cast<RequestType>(t);
    const LatencyHistogram::Buckets snap = latency(type).buckets();
    const std::string type_label =
        std::string("type=\"") + std::string(to_string(type)) + "\"";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < LatencyHistogram::kBucketCount; ++i) {
      cumulative += snap.counts[i];
      if (i + 1 == LatencyHistogram::kBucketCount) break;  // +Inf below
      char le[64];
      std::snprintf(le, sizeof(le), "%s,le=\"%.9g\"", type_label.c_str(),
                    static_cast<double>(
                        LatencyHistogram::bucket_upper_ns(i)) /
                        1e9);
      w.sample("mpct_request_latency_seconds_bucket", le, cumulative);
    }
    w.inf_bucket("mpct_request_latency_seconds_bucket", type_label,
                 cumulative);
    w.sample("mpct_request_latency_seconds_sum", type_label,
             static_cast<double>(snap.sum_ns) / 1e9);
    w.sample("mpct_request_latency_seconds_count", type_label, snap.count);
  }

  if (include_profile) {
    trace::render_profile(w, trace::Tracer::instance().snapshot());
  }
  return w.str();
}

}  // namespace mpct::service
