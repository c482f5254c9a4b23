/// Tracing-overhead benchmarks + the disabled-path budget gate.
///
/// Artifact: a CSV summary (disabled/enabled span cost, profile-hook
/// cost, snapshot + Chrome-export throughput) printed first.  The
/// disabled-tracer ScopedSpan cost is a hard budget, not a report: if
/// it measures at or above kDisabledSpanBudgetNs the binary exits
/// nonzero, so CI fails when instrumentation creeps into the fast path.
///
/// Flags (both stripped before benchmark::Initialize):
///   --json <path>       write the numbers as BENCH_trace JSON
///   --trace-out <path>  record one engine SweepRequest and write the
///                       Chrome trace (load it at ui.perfetto.dev)
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "explore/sweep.hpp"
#include "net/net.hpp"
#include "net/trace_stream.hpp"
#include "report/csv.hpp"
#include "service/service.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/sampler.hpp"
#include "trace/trace.hpp"

namespace {

using namespace mpct;

/// The acceptance budget for a ScopedSpan while the tracer is off: one
/// relaxed atomic load and a predicted branch.  2 ns is ~6 cycles at
/// 3 GHz — generous for that, unreachable for anything heavier.
constexpr double kDisabledSpanBudgetNs = 2.0;

/// Minimum ns/op over fixed-count timed loops taken one at a time
/// (noise on a shared machine is additive; the minimum is the robust
/// estimator).
class MinNs {
 public:
  template <typename Fn>
  void sample(Fn&& fn, std::size_t iterations) {
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < iterations; ++i) fn();
    const auto elapsed = std::chrono::steady_clock::now() - start;
    const double ns =
        std::chrono::duration<double, std::nano>(elapsed).count() /
        static_cast<double>(iterations);
    if (samples_++ == 0 || ns < best_) best_ = ns;
  }
  double ns() const { return best_; }

 private:
  double best_ = 0;
  int samples_ = 0;
};

/// Samples per fixed-count cell.  They are taken in rounds, one sample
/// of every cell per round, so a cell's samples lie a whole round (about
/// half a second, mostly the export cell) apart: one CPU-steal episode
/// on a shared host cannot cover all of a gated cell's samples, as it
/// could when they ran back to back.
constexpr int kRounds = 7;

/// The fixed-count cells: span and profile-hook costs with the tracer
/// off and on, the same span costs while a live net::TraceStreamer
/// drains the rings at 1% head sampling (the recorder must not feel the
/// export thread on either path), and snapshot() + to_chrome_json()
/// throughput over a full default ring.
struct HotPathCells {
  double disabled_span_ns = 0;
  double disabled_profile_ns = 0;
  double enabled_span_ns = 0;
  double exporter_disabled_span_ns = 0;  ///< disabled path, exporter live
  double exporter_enabled_1pct_ns = 0;   ///< enabled path, exporter at 1%
  double export_spans_per_s = 0;
  std::size_t export_spans = 0;
};

HotPathCells measure_hot_paths(std::uint16_t collector_port) {
  trace::Tracer& tracer = trace::Tracer::instance();
  tracer.set_capacity_per_thread(trace::Tracer::kDefaultCapacity);
  const auto disabled_span = [] {
    trace::ScopedSpan span("bench.disabled", trace::Category::Core);
    benchmark::DoNotOptimize(span);
  };
  MinNs disabled, profile, enabled, exporter_disabled, exporter_enabled,
      export_ns;
  std::size_t spans = 0;
  for (int round = 0; round < kRounds; ++round) {
    tracer.disable();
    tracer.clear();
    disabled.sample(disabled_span, 1u << 20);
    profile.sample(
        [] { trace::profile_count(trace::ProfilePoint::ClassifyFast); },
        1u << 20);
    tracer.enable();
    enabled.sample(
        [] {
          trace::ScopedSpan span("bench.enabled", trace::Category::Core,
                                 "i", 1);
          benchmark::DoNotOptimize(span);
        },
        1u << 16);
    tracer.disable();
    tracer.clear();

    net::TraceStreamerOptions stream_options;
    stream_options.port = collector_port;
    stream_options.node = "bench";
    stream_options.policy = trace::SamplerPolicy::probabilistic(0.01);
    stream_options.interval = std::chrono::milliseconds(5);
    net::TraceStreamer streamer(stream_options);
    streamer.start();
    exporter_disabled.sample(disabled_span, 1u << 20);
    tracer.enable();
    exporter_enabled.sample(
        [] {
          trace::ScopedSpan span("bench.streamed", trace::Category::Core,
                                 "i", 1);
          benchmark::DoNotOptimize(span);
        },
        1u << 16);
    tracer.disable();
    streamer.stop();
    tracer.clear();

    tracer.enable();
    for (int i = 0; i < 10000; ++i) {
      trace::ScopedSpan span("bench.fill", trace::Category::Sweep, "i", i);
    }
    tracer.disable();
    export_ns.sample(
        [&spans] {
          trace::TraceSnapshot snap = trace::Tracer::instance().snapshot();
          std::string json = trace::to_chrome_json(snap);
          benchmark::DoNotOptimize(json);
          spans = snap.spans.size();
        },
        64);
    tracer.clear();
  }

  HotPathCells cells;
  cells.disabled_span_ns = disabled.ns();
  cells.disabled_profile_ns = profile.ns();
  cells.enabled_span_ns = enabled.ns();
  cells.exporter_disabled_span_ns = exporter_disabled.ns();
  cells.exporter_enabled_1pct_ns = exporter_enabled.ns();
  cells.export_spans = spans;
  cells.export_spans_per_s =
      spans == 0 ? 0 : static_cast<double>(spans) / (export_ns.ns() * 1e-9);
  return cells;
}

/// Streaming export throughput and drop rate when span production far
/// outruns the drain cadence.
struct SaturationCells {
  double export_spans_per_s = 0;
  double drop_rate = 0;  ///< dropped / (exported + dropped)
  std::uint64_t exported = 0;
  std::uint64_t dropped = 0;
};

SaturationCells measure_saturation(std::uint16_t collector_port) {
  // Hammer spans for a fixed window at a drain cadence they easily
  // outrun, then count what crossed the wire vs what the ring wrapped
  // away — the drop-counted back-pressure story in one number.
  SaturationCells cells;
  trace::Tracer& tracer = trace::Tracer::instance();
  tracer.set_capacity_per_thread(trace::Tracer::kDefaultCapacity);
  tracer.clear();
  net::TraceStreamerOptions stream_options;
  stream_options.port = collector_port;
  stream_options.node = "bench";
  stream_options.interval = std::chrono::milliseconds(2);
  net::TraceStreamer streamer(stream_options);
  streamer.start();
  tracer.enable();
  const auto start = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - start <
         std::chrono::milliseconds(400)) {
    for (int i = 0; i < 1024; ++i) {
      trace::ScopedSpan span("bench.saturate", trace::Category::Sweep, "i",
                             i);
    }
  }
  tracer.disable();
  streamer.stop();  // final drain + flush included in the window
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  cells.exported = streamer.spans_exported();
  cells.dropped = streamer.spans_dropped();
  const double total = static_cast<double>(cells.exported + cells.dropped);
  cells.drop_rate =
      total == 0 ? 0 : static_cast<double>(cells.dropped) / total;
  cells.export_spans_per_s =
      elapsed_s == 0 ? 0 : static_cast<double>(cells.exported) / elapsed_s;
  tracer.clear();
  return cells;
}

/// Trace one chunk-parallel SweepRequest end to end and return the
/// Chrome JSON — the sample artifact CI uploads.
std::string record_sample_trace() {
  trace::Tracer& tracer = trace::Tracer::instance();
  tracer.set_capacity_per_thread(1u << 16);
  tracer.clear();
  tracer.enable();

  service::EngineOptions options;
  options.worker_threads = 2;
  options.enable_cache = true;
  service::QueryEngine engine(options);
  explore::SweepGrid grid;
  for (std::int64_t n = 2; n <= 64; n *= 2) grid.n_values.push_back(n);
  grid.lut_budgets = {64, 1024, 16384};
  grid.objectives = {explore::Requirements::Objective::MinConfigBits,
                     explore::Requirements::Objective::MinArea};
  service::QueryResponse response =
      engine.submit(service::SweepRequest{grid}).get();
  benchmark::DoNotOptimize(response);
  // Resubmit so the trace also shows a cache hit.
  response = engine.submit(service::SweepRequest{grid}).get();
  benchmark::DoNotOptimize(response);

  tracer.disable();
  std::string json = trace::to_chrome_json(tracer.snapshot());
  tracer.clear();
  tracer.set_capacity_per_thread(trace::Tracer::kDefaultCapacity);
  return json;
}

std::string fmt(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3g", value);
  return buffer;
}

/// Prints the artifact CSV, writes the optional JSON/trace outputs, and
/// returns false when the disabled-path budget is blown (or the
/// collector the exporter cells stream to cannot start).
bool print_artifact(const std::string& json_path,
                    const std::string& trace_path) {
  // The streaming cells' collector, in this process: an inline engine
  // behind a server that decodes and counts the span batches it gets.
  service::EngineOptions engine_options;
  engine_options.worker_threads = 0;
  service::QueryEngine engine(engine_options);
  net::Server server(engine, net::ServerOptions{});
  if (!server.start()) {
    std::cerr << "bench_trace: collector server: " << server.error() << "\n";
    return false;
  }
  const HotPathCells hot = measure_hot_paths(server.port());
  const SaturationCells saturation = measure_saturation(server.port());
  server.stop();

  report::CsvWriter csv;
  csv.add_row({"metric", "value", "budget"});
  csv.add_row({"disabled_scoped_span_ns", fmt(hot.disabled_span_ns),
               fmt(kDisabledSpanBudgetNs)});
  csv.add_row({"disabled_span_exporter_on_ns",
               fmt(hot.exporter_disabled_span_ns), fmt(kDisabledSpanBudgetNs)});
  csv.add_row({"disabled_profile_count_ns", fmt(hot.disabled_profile_ns), ""});
  csv.add_row({"enabled_scoped_span_ns", fmt(hot.enabled_span_ns), ""});
  csv.add_row({"enabled_span_1pct_exporter_ns",
               fmt(hot.exporter_enabled_1pct_ns), ""});
  csv.add_row({"snapshot_export_spans_per_s", fmt(hot.export_spans_per_s), ""});
  csv.add_row({"streaming_export_spans_per_s",
               fmt(saturation.export_spans_per_s), ""});
  csv.add_row({"streaming_drop_rate", fmt(saturation.drop_rate), ""});
  std::cout << "# tracing overhead (disabled path is the CI-enforced "
               "budget, with and without a live exporter)\n"
            << csv.str() << "\n";

  const bool within_budget =
      hot.disabled_span_ns < kDisabledSpanBudgetNs &&
      hot.exporter_disabled_span_ns < kDisabledSpanBudgetNs;
  std::cout << (within_budget ? "BUDGET OK: " : "BUDGET EXCEEDED: ")
            << fmt(hot.disabled_span_ns) << " ns/span disabled, "
            << fmt(hot.exporter_disabled_span_ns)
            << " ns/span disabled with exporter live (budget "
            << fmt(kDisabledSpanBudgetNs) << " ns)\n\n";

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n"
        << "  \"bench\": \"bench_trace\",\n"
        << "  \"host_cpus\": " << std::thread::hardware_concurrency()
        << ",\n"
        << "  \"op\": \"ScopedSpan record (disabled / enabled) and "
           "snapshot export\",\n"
        << "  \"budget\": {\n"
        << "    \"disabled_span_ns\": " << fmt(kDisabledSpanBudgetNs)
        << "\n  },\n"
        << "  \"current\": {\n"
        << "    \"disabled_span_ns\": " << fmt(hot.disabled_span_ns) << ",\n"
        << "    \"disabled_span_exporter_on_ns\": "
        << fmt(hot.exporter_disabled_span_ns) << ",\n"
        << "    \"disabled_profile_count_ns\": " << fmt(hot.disabled_profile_ns)
        << ",\n"
        << "    \"enabled_span_ns\": " << fmt(hot.enabled_span_ns) << ",\n"
        << "    \"enabled_span_1pct_exporter_ns\": "
        << fmt(hot.exporter_enabled_1pct_ns) << ",\n"
        << "    \"snapshot_export_spans_per_s\": "
        << fmt(hot.export_spans_per_s) << ",\n"
        << "    \"snapshot_export_span_count\": " << hot.export_spans << ",\n"
        << "    \"streaming_export_spans_per_s\": "
        << fmt(saturation.export_spans_per_s) << ",\n"
        << "    \"streaming_export_spans\": " << saturation.exported << ",\n"
        << "    \"streaming_dropped_spans\": " << saturation.dropped << ",\n"
        << "    \"streaming_drop_rate\": " << fmt(saturation.drop_rate)
        << "\n  }\n}\n";
    std::cout << "JSON written to " << json_path << "\n\n";
  }

  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    out << record_sample_trace();
    std::cout << "Chrome trace written to " << trace_path
              << " (load at ui.perfetto.dev)\n\n";
  }
  return within_budget;
}

// ---------------------------------------------------------------------------
// Registered microbenchmarks (the artifact numbers above are the gate;
// these give the usual google-benchmark statistics for the same ops).

void bm_scoped_span_disabled(benchmark::State& state) {
  trace::Tracer::instance().disable();
  for (auto _ : state) {
    trace::ScopedSpan span("bench.disabled", trace::Category::Core);
    benchmark::DoNotOptimize(span);
  }
}
BENCHMARK(bm_scoped_span_disabled);

void bm_scoped_span_enabled(benchmark::State& state) {
  trace::Tracer& tracer = trace::Tracer::instance();
  tracer.clear();
  tracer.enable();
  for (auto _ : state) {
    trace::ScopedSpan span("bench.enabled", trace::Category::Core, "i", 1);
    benchmark::DoNotOptimize(span);
  }
  tracer.disable();
  tracer.clear();
}
BENCHMARK(bm_scoped_span_enabled);

void bm_profile_count_enabled(benchmark::State& state) {
  trace::Tracer& tracer = trace::Tracer::instance();
  tracer.clear();
  tracer.enable();
  for (auto _ : state) {
    trace::profile_count(trace::ProfilePoint::ClassifyFast);
  }
  tracer.disable();
  tracer.clear();
}
BENCHMARK(bm_profile_count_enabled);

void bm_snapshot_export(benchmark::State& state) {
  trace::Tracer& tracer = trace::Tracer::instance();
  tracer.clear();
  tracer.enable();
  for (int i = 0; i < 4096; ++i) {
    trace::ScopedSpan span("bench.fill", trace::Category::Sweep, "i", i);
  }
  tracer.disable();
  for (auto _ : state) {
    trace::TraceSnapshot snap = tracer.snapshot();
    std::string json = trace::to_chrome_json(snap);
    benchmark::DoNotOptimize(json);
  }
  tracer.clear();
}
BENCHMARK(bm_snapshot_export)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  // Strip the artifact flags before benchmark::Initialize.
  std::string json_path, trace_path;
  for (int i = 1; i + 1 < argc;) {
    const std::string_view flag(argv[i]);
    std::string* target = flag == "--json"        ? &json_path
                          : flag == "--trace-out" ? &trace_path
                                                  : nullptr;
    if (target == nullptr) {
      ++i;
      continue;
    }
    *target = argv[i + 1];
    for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
    argc -= 2;
  }
  std::cout << "TRACING BENCHMARKS\n"
            << "(per-thread ring spans; the disabled path must stay under "
            << kDisabledSpanBudgetNs << " ns/span)\n\n";
  const bool within_budget = print_artifact(json_path, trace_path);
  mpct::bench::apply_csv_flag(&argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return within_budget ? 0 : 1;
}
