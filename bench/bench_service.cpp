/// Service-layer benchmarks: classify-query throughput and tail latency
/// of the concurrent QueryEngine vs worker-thread count (1/2/4/8) and vs
/// cache hit ratio (0%, 50%, 95%).
///
/// Like every bench binary, the regenerated artifact prints first — here
/// a CSV sweep (threads x hit-ratio -> qps, p50, p95, p99) emitted via
/// report::CsvWriter — followed by google-benchmark timings.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "arch/registry.hpp"
#include "report/csv.hpp"
#include "service/service.hpp"

namespace {

using namespace mpct;
using namespace mpct::service;

/// Monotonic source of never-seen-before specs, so a "miss" request can
/// never accidentally hit an earlier iteration's cache entry.
std::atomic<std::uint64_t> unique_counter{0};

arch::ArchitectureSpec unique_spec() {
  arch::ArchitectureSpec spec = arch::surveyed_architectures()[2];
  spec.name += '#';
  spec.name += std::to_string(unique_counter.fetch_add(1));
  return spec;
}

// GCC 12 flags the never-constructed MachineClass alternative of the
// Request variant as "maybe uninitialized" when vector::push_back moves
// it (false positive; the variant index guards the access).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

/// A request stream with ~hit_pct% repeats of the 25 surveyed specs
/// (cache hits once warmed) and the rest unique specs (always misses).
std::vector<Request> make_stream(std::size_t count, int hit_pct) {
  const auto surveyed = arch::surveyed_architectures();
  std::vector<Request> requests;
  requests.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const bool hit = static_cast<int>((i * 100) / count) <
                     hit_pct;  // deterministic interleave
    if (hit) {
      requests.push_back(ClassifyRequest::of(surveyed[i % surveyed.size()]));
    } else {
      requests.push_back(ClassifyRequest::of(unique_spec()));
    }
  }
  return requests;
}

EngineOptions engine_options(unsigned threads) {
  EngineOptions options;
  options.worker_threads = threads;
  options.queue_capacity = 16384;
  options.cache_shards = 16;
  options.cache_capacity_per_shard = 256;
  return options;
}

void warm_cache(QueryEngine& engine) {
  std::vector<Request> warmup;
  for (const arch::ArchitectureSpec& spec : arch::surveyed_architectures()) {
    warmup.push_back(ClassifyRequest::of(spec));
  }
  for (auto& future : engine.submit_batch(std::move(warmup))) future.get();
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

/// The printed artifact: one timed sweep per (threads, hit ratio) cell.
void print_sweep_csv() {
  constexpr std::size_t kRequests = 2000;
  report::CsvWriter csv;
  csv.add_row({"workers", "hit_pct", "requests", "qps", "p50_us", "p95_us",
               "p99_us", "cache_hit_rate"});

  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    for (int hit_pct : {0, 50, 95}) {
      QueryEngine engine(engine_options(threads));
      warm_cache(engine);
      std::vector<Request> stream = make_stream(kRequests, hit_pct);

      const auto start = std::chrono::steady_clock::now();
      auto futures = engine.submit_batch(std::move(stream));
      for (auto& future : futures) future.get();
      const auto elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();

      const auto snap =
          engine.metrics().latency(RequestType::Classify).snapshot();
      char qps[32], rate[32], p50[32], p95[32], p99[32];
      std::snprintf(qps, sizeof(qps), "%.0f",
                    static_cast<double>(kRequests) / elapsed);
      std::snprintf(rate, sizeof(rate), "%.3f",
                    engine.metrics().cache_hit_rate());
      std::snprintf(p50, sizeof(p50), "%.1f", snap.p50_us);
      std::snprintf(p95, sizeof(p95), "%.1f", snap.p95_us);
      std::snprintf(p99, sizeof(p99), "%.1f", snap.p99_us);
      csv.add_row({std::to_string(threads), std::to_string(hit_pct),
                   std::to_string(kRequests), qps, p50, p95, p99, rate});
    }
  }
  std::cout << "# service sweep: classify throughput / latency\n"
            << csv.str() << "\n";
}

/// Throughput: batched classify queries; range(0) = workers,
/// range(1) = cache hit percentage.
void bm_classify_qps(benchmark::State& state) {
  const auto threads = static_cast<unsigned>(state.range(0));
  const int hit_pct = static_cast<int>(state.range(1));
  constexpr std::size_t kBatch = 500;

  QueryEngine engine(engine_options(threads));
  warm_cache(engine);

  for (auto _ : state) {
    state.PauseTiming();
    std::vector<Request> stream = make_stream(kBatch, hit_pct);
    state.ResumeTiming();
    auto futures = engine.submit_batch(std::move(stream));
    for (auto& future : futures) {
      QueryResponse response = future.get();
      benchmark::DoNotOptimize(response);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatch));
  state.counters["cache_hit_rate"] = engine.metrics().cache_hit_rate();
  state.counters["p99_us"] =
      engine.metrics().latency(RequestType::Classify).quantile_us(0.99);
}
BENCHMARK(bm_classify_qps)
    ->ArgNames({"workers", "hit_pct"})
    ->ArgsProduct({{1, 2, 4, 8}, {0, 50, 95}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Single-request end-to-end latency through the queue (uncached).
void bm_single_query_latency(benchmark::State& state) {
  QueryEngine engine(engine_options(static_cast<unsigned>(state.range(0))));
  for (auto _ : state) {
    QueryResponse response = engine.submit(ClassifyRequest::of(unique_spec())).get();
    benchmark::DoNotOptimize(response);
  }
}
BENCHMARK(bm_single_query_latency)
    ->ArgName("workers")
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime();

/// Inline (single-threaded fallback) execution, cached vs uncached — the
/// cache's raw win independent of threading.
void bm_inline_execute(benchmark::State& state) {
  const bool cached = state.range(0) != 0;
  EngineOptions options;
  options.worker_threads = 0;
  options.enable_cache = cached;
  QueryEngine engine(options);
  const Request request =
      ClassifyRequest::of(arch::surveyed_architectures()[2]);
  engine.execute(request);  // warm
  for (auto _ : state) {
    QueryResponse response = engine.execute(request);
    benchmark::DoNotOptimize(response);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(bm_inline_execute)->ArgName("cached")->Arg(0)->Arg(1);

/// Recommend + cost sweeps through the engine, the two heavier request
/// types, single worker so numbers are comparable across machines.
void bm_recommend_query(benchmark::State& state) {
  QueryEngine engine(engine_options(1));
  for (auto _ : state) {
    RecommendRequest request;
    request.requirements.min_flexibility =
        static_cast<int>(unique_counter.fetch_add(1) % 9);
    QueryResponse response = engine.submit(Request(request)).get();
    benchmark::DoNotOptimize(response);
  }
}
BENCHMARK(bm_recommend_query)->UseRealTime();

void bm_cost_sweep_query(benchmark::State& state) {
  QueryEngine engine(engine_options(1));
  for (auto _ : state) {
    CostRequest request;
    request.target = arch::surveyed_architectures()
        [unique_counter.fetch_add(1) % arch::surveyed_count()];
    request.n_sweep = {4, 8, 16, 32, 64};
    QueryResponse response = engine.submit(Request(request)).get();
    benchmark::DoNotOptimize(response);
  }
}
BENCHMARK(bm_cost_sweep_query)->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  std::cout << "SERVICE LAYER BENCHMARKS\n"
            << "(concurrent query engine: batching, sharded cache, "
               "backpressure)\n\n";
  print_sweep_csv();
  mpct::bench::apply_csv_flag(&argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
