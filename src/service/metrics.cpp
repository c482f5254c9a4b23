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

double LatencyHistogram::quantile_us(double q) const {
  q = std::clamp(q, 0.0, 1.0);
  std::array<std::uint64_t, kBucketCount> counts;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  if (total == 0) return 0;
  // Clamp interpolated estimates into the truly observed range so a
  // single-valued distribution reports that value for every quantile.
  const std::uint64_t min_ns = min_ns_.load(std::memory_order_relaxed);
  const double observed_min =
      min_ns == UINT64_MAX ? 0.0 : static_cast<double>(min_ns) / 1000.0;
  const double observed_max =
      static_cast<double>(max_ns_.load(std::memory_order_relaxed)) / 1000.0;
  const auto clamp_observed = [&](double us) {
    return std::clamp(us, observed_min, observed_max);
  };
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
      return clamp_observed((lower + fraction * (upper - lower)) / 1000.0);
    }
  }
  return clamp_observed(static_cast<double>(1ULL << kBucketCount) / 1000.0);
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

double MetricsRegistry::cache_hit_rate() const {
  const std::uint64_t hits = cache_hits.value();
  const std::uint64_t lookups = hits + cache_misses.value();
  return lookups == 0
             ? 0.0
             : static_cast<double>(hits) / static_cast<double>(lookups);
}

std::string MetricsRegistry::to_table(const CacheStats& cache) const {
  report::TextTable table({"metric", "value"});
  table.set_align(1, report::Align::Right);

  table.add_section("requests");
  table.add_row({"submitted", std::to_string(submitted.value())});
  table.add_row({"completed", std::to_string(completed.value())});
  table.add_row(
      {"rejected (queue full)", std::to_string(rejected_queue_full.value())});
  table.add_row(
      {"rejected (deadline)", std::to_string(rejected_deadline.value())});
  table.add_row(
      {"rejected (shutdown)", std::to_string(rejected_shutdown.value())});
  table.add_row(
      {"expired in queue", std::to_string(expired_in_queue.value())});
  table.add_row({"failed", std::to_string(failed.value())});
  table.add_row({"queue depth", std::to_string(queue_depth.value())});
  table.add_row({"in flight", std::to_string(in_flight.value())});

  table.add_section("batching");
  table.add_row({"batches executed", std::to_string(batch_sizes.batches())});
  table.add_row({"mean batch size", format_rate(batch_sizes.mean())});

  table.add_section("network");
  table.add_row({"bytes in", std::to_string(net_bytes_in.value())});
  table.add_row({"bytes out", std::to_string(net_bytes_out.value())});
  table.add_row({"frames in", std::to_string(net_frames_in.value())});
  table.add_row({"frames out", std::to_string(net_frames_out.value())});
  table.add_row({"decode errors", std::to_string(net_decode_errors.value())});
  table.add_row(
      {"connections opened", std::to_string(net_connections_opened.value())});
  table.add_row(
      {"connections closed", std::to_string(net_connections_closed.value())});
  table.add_row(
      {"active connections", std::to_string(net_active_connections.value())});
  table.add_row({"client retries", std::to_string(net_retries.value())});
  table.add_row(
      {"client requests sent", std::to_string(net_requests_sent.value())});
  table.add_row({"hedges sent", std::to_string(net_hedges_sent.value())});
  table.add_row({"hedges won", std::to_string(net_hedges_won.value())});
  table.add_row({"failovers", std::to_string(net_failovers.value())});

  table.add_section("simulation");
  table.add_row({"runs", std::to_string(sim_runs.value())});
  table.add_row({"cycles", std::to_string(sim_cycles.value())});
  table.add_row({"fault runs", std::to_string(sim_fault_runs.value())});

  table.add_section("tracing");
  table.add_row(
      {"spans exported", std::to_string(trace_spans_exported.value())});
  table.add_row(
      {"spans dropped", std::to_string(trace_spans_dropped.value())});
  table.add_row(
      {"spans sampled out", std::to_string(trace_spans_sampled_out.value())});
  table.add_row(
      {"batches sent", std::to_string(trace_batches_sent.value())});
  table.add_row(
      {"batches dropped", std::to_string(trace_batches_dropped.value())});
  table.add_row({"collector batches",
                 std::to_string(trace_collector_batches.value())});
  table.add_row(
      {"collector spans", std::to_string(trace_collector_spans.value())});

  table.add_section("qos");
  table.add_row(
      {"shed (background)", std::to_string(qos_shed_background.value())});
  table.add_row({"shed (batch)", std::to_string(qos_shed_batch.value())});
  table.add_row(
      {"degraded responses", std::to_string(qos_degraded_responses.value())});
  table.add_row(
      {"cancelled (queued)", std::to_string(qos_cancelled_queued.value())});
  table.add_row({"cancelled (in flight)",
                 std::to_string(qos_cancelled_inflight.value())});
  table.add_row(
      {"cancels received", std::to_string(qos_cancels_received.value())});
  table.add_row({"cancels sent", std::to_string(qos_cancels_sent.value())});

  table.add_section("cache");
  table.add_row({"hits", std::to_string(cache_hits.value())});
  table.add_row({"misses", std::to_string(cache_misses.value())});
  table.add_row({"hit rate", format_rate(cache_hit_rate())});
  table.add_row({"entries", std::to_string(cache.entries)});
  table.add_row({"insertions", std::to_string(cache.insertions)});
  table.add_row({"evictions", std::to_string(cache.evictions)});

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

  w.header("mpct_requests_submitted_total", PromWriter::Type::Counter,
           "Requests submitted to the QueryEngine.");
  w.sample("mpct_requests_submitted_total", {}, submitted.value());
  w.header("mpct_requests_completed_total", PromWriter::Type::Counter,
           "Requests that completed successfully (cached or executed).");
  w.sample("mpct_requests_completed_total", {}, completed.value());
  w.header("mpct_requests_rejected_total", PromWriter::Type::Counter,
           "Requests rejected, by reason.");
  w.sample("mpct_requests_rejected_total", "reason=\"queue_full\"",
           rejected_queue_full.value());
  w.sample("mpct_requests_rejected_total", "reason=\"deadline\"",
           rejected_deadline.value());
  w.sample("mpct_requests_rejected_total", "reason=\"shutdown\"",
           rejected_shutdown.value());
  w.header("mpct_requests_expired_in_queue_total", PromWriter::Type::Counter,
           "Accepted requests whose deadline expired before execution "
           "(strict subset of reason=\"deadline\" rejections).");
  w.sample("mpct_requests_expired_in_queue_total", {},
           expired_in_queue.value());
  w.header("mpct_requests_failed_total", PromWriter::Type::Counter,
           "Requests that failed (parse / invalid / internal errors).");
  w.sample("mpct_requests_failed_total", {}, failed.value());

  w.header("mpct_queue_depth", PromWriter::Type::Gauge,
           "Requests currently waiting in the bounded queue.");
  w.sample("mpct_queue_depth", {},
           static_cast<double>(queue_depth.value()));
  w.header("mpct_in_flight", PromWriter::Type::Gauge,
           "Requests currently executing on workers.");
  w.sample("mpct_in_flight", {}, static_cast<double>(in_flight.value()));

  w.header("mpct_batches_total", PromWriter::Type::Counter,
           "Worker wake-ups that drained at least one request.");
  w.sample("mpct_batches_total", {}, batch_sizes.batches());
  w.header("mpct_batch_requests_total", PromWriter::Type::Counter,
           "Requests drained across all batches.");
  w.sample("mpct_batch_requests_total", {}, batch_sizes.requests());

  w.header("mpct_net_bytes_total", PromWriter::Type::Counter,
           "Bytes moved by the wire layer, by direction.");
  w.sample("mpct_net_bytes_total", "direction=\"in\"", net_bytes_in.value());
  w.sample("mpct_net_bytes_total", "direction=\"out\"", net_bytes_out.value());
  w.header("mpct_net_frames_total", PromWriter::Type::Counter,
           "Complete frames moved by the wire layer, by direction.");
  w.sample("mpct_net_frames_total", "direction=\"in\"", net_frames_in.value());
  w.sample("mpct_net_frames_total", "direction=\"out\"",
           net_frames_out.value());
  w.header("mpct_net_decode_errors_total", PromWriter::Type::Counter,
           "Frames or payloads that failed to decode.");
  w.sample("mpct_net_decode_errors_total", {}, net_decode_errors.value());
  w.header("mpct_net_connections_total", PromWriter::Type::Counter,
           "TCP connections, by lifecycle event.");
  w.sample("mpct_net_connections_total", "event=\"opened\"",
           net_connections_opened.value());
  w.sample("mpct_net_connections_total", "event=\"closed\"",
           net_connections_closed.value());
  w.header("mpct_net_active_connections", PromWriter::Type::Gauge,
           "Connections currently open on the server.");
  w.sample("mpct_net_active_connections", {},
           static_cast<double>(net_active_connections.value()));
  w.header("mpct_net_retries_total", PromWriter::Type::Counter,
           "Client reconnect-and-resend attempts.");
  w.sample("mpct_net_retries_total", {}, net_retries.value());
  w.header("mpct_net_requests_sent_total", PromWriter::Type::Counter,
           "Logical client requests (retries and hedges not re-counted).");
  w.sample("mpct_net_requests_sent_total", {}, net_requests_sent.value());
  w.header("mpct_net_hedges_total", PromWriter::Type::Counter,
           "Speculative hedged duplicates, by outcome.");
  w.sample("mpct_net_hedges_total", "event=\"sent\"", net_hedges_sent.value());
  w.sample("mpct_net_hedges_total", "event=\"won\"", net_hedges_won.value());
  w.header("mpct_net_failovers_total", PromWriter::Type::Counter,
           "Requests re-routed off an unhealthy endpoint.");
  w.sample("mpct_net_failovers_total", {}, net_failovers.value());

  w.header("mpct_sim_runs_total", PromWriter::Type::Counter,
           "Workload simulations executed (cache hits not re-counted).");
  w.sample("mpct_sim_runs_total", {}, sim_runs.value());
  w.header("mpct_sim_cycles_total", PromWriter::Type::Counter,
           "Machine cycles across all workload simulations.");
  w.sample("mpct_sim_cycles_total", {}, sim_cycles.value());
  w.header("mpct_sim_fault_runs_total", PromWriter::Type::Counter,
           "Workload simulations that injected at least one fault.");
  w.sample("mpct_sim_fault_runs_total", {}, sim_fault_runs.value());

  w.header("mpct_trace_spans_total", PromWriter::Type::Counter,
           "Spans through the streaming exporter, by outcome (exported = "
           "shipped; dropped = lost to ring wrap or shed batches; "
           "sampled_out = discarded by the head-sampling policy).");
  w.sample("mpct_trace_spans_total", "outcome=\"exported\"",
           trace_spans_exported.value());
  w.sample("mpct_trace_spans_total", "outcome=\"dropped\"",
           trace_spans_dropped.value());
  w.sample("mpct_trace_spans_total", "outcome=\"sampled_out\"",
           trace_spans_sampled_out.value());
  w.header("mpct_trace_batches_total", PromWriter::Type::Counter,
           "Span batches through the streaming exporter, by outcome.");
  w.sample("mpct_trace_batches_total", "outcome=\"sent\"",
           trace_batches_sent.value());
  w.sample("mpct_trace_batches_total", "outcome=\"dropped\"",
           trace_batches_dropped.value());
  w.header("mpct_trace_collector_batches_total", PromWriter::Type::Counter,
           "Span batches absorbed by this process's collector server.");
  w.sample("mpct_trace_collector_batches_total", {},
           trace_collector_batches.value());
  w.header("mpct_trace_collector_spans_total", PromWriter::Type::Counter,
           "Spans absorbed by this process's collector server.");
  w.sample("mpct_trace_collector_spans_total", {},
           trace_collector_spans.value());

  w.header("mpct_qos_shed_total", PromWriter::Type::Counter,
           "Requests rejected by admission control, by priority class "
           "(disjoint from mpct_requests_rejected_total: a shed answers "
           "Overloaded and touches no lifecycle rejection counter).");
  w.sample("mpct_qos_shed_total", "class=\"background\"",
           qos_shed_background.value());
  w.sample("mpct_qos_shed_total", "class=\"batch\"", qos_shed_batch.value());
  w.header("mpct_qos_degraded_responses_total", PromWriter::Type::Counter,
           "Responses served at reduced precision under pressure "
           "(strided subgrid sweeps, cache entries past soft-TTL).");
  w.sample("mpct_qos_degraded_responses_total", {},
           qos_degraded_responses.value());
  w.header("mpct_qos_cancelled_total", PromWriter::Type::Counter,
           "Server-side cancellations honoured, by where the request "
           "was caught.");
  w.sample("mpct_qos_cancelled_total", "stage=\"queued\"",
           qos_cancelled_queued.value());
  w.sample("mpct_qos_cancelled_total", "stage=\"in_flight\"",
           qos_cancelled_inflight.value());
  w.header("mpct_qos_cancels_total", PromWriter::Type::Counter,
           "Wire CancelRequest frames, by direction.");
  w.sample("mpct_qos_cancels_total", "direction=\"received\"",
           qos_cancels_received.value());
  w.sample("mpct_qos_cancels_total", "direction=\"sent\"",
           qos_cancels_sent.value());

  w.header("mpct_cache_hits_total", PromWriter::Type::Counter,
           "Result-cache hits.");
  w.sample("mpct_cache_hits_total", {}, cache_hits.value());
  w.header("mpct_cache_misses_total", PromWriter::Type::Counter,
           "Result-cache misses.");
  w.sample("mpct_cache_misses_total", {}, cache_misses.value());
  w.header("mpct_cache_entries", PromWriter::Type::Gauge,
           "Entries currently resident in the result cache.");
  w.sample("mpct_cache_entries", {},
           static_cast<std::uint64_t>(cache.entries));
  w.header("mpct_cache_insertions_total", PromWriter::Type::Counter,
           "Result-cache insertions.");
  w.sample("mpct_cache_insertions_total", {},
           static_cast<std::uint64_t>(cache.insertions));
  w.header("mpct_cache_evictions_total", PromWriter::Type::Counter,
           "Result-cache LRU evictions.");
  w.sample("mpct_cache_evictions_total", {},
           static_cast<std::uint64_t>(cache.evictions));

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
