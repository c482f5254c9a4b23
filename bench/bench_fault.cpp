/// Fault-injection benchmarks + the BENCH_fault baseline artifact.
///
/// Artifact: a CSV summary (degrade ns/op per canonical probe class;
/// Monte-Carlo degradation-curve throughput vs thread count, library
/// evaluate_curve() vs the engine's chunk-parallel FaultSweepRequest;
/// single-thread throughput of a NoC-free curve) printed first, and —
/// with `--json <path>` — the same numbers as JSON in the BENCH_fault
/// format committed at the repo root.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/taxonomy_index.hpp"
#include "fault/fault.hpp"
#include "report/csv.hpp"
#include "service/service.hpp"

namespace {

using namespace mpct;

// Hard regression floor for single-thread trials/s on the NoC-free
// fabric curve (fabric_spec), enforced by bench/check_regression.py
// against the "floors" block this binary emits.  The fault-list kernel
// that preceded the counting census kernel ran 4.1e5-4.8e5 trials/s on
// the recording host (4 vCPUs with AVX-512, Release); the census kernel
// with eight scalar streams ran 1.9e6-4.0e6 there.  Drawn as one lane
// vector, the avx512 census kernel runs 5.5e6-6.9e6 and the baseline
// one 1.7e6-3.0e6, so the floor holds on a runner without AVX-512 too.
constexpr double kFabricCurveTrialsPerSFloor = 1.2e6;

// Probe rows spanning the taxonomy: IUP (1), a data-flow multi (8), an
// array processor (22), an instruction-flow multi (40) and USP (47).
constexpr int kProbeSerials[] = {1, 8, 22, 40, 47};

/// ns/op via a fixed-count timed loop, minimum over 7 runs (scheduler
/// noise is additive; the minimum is the robust estimator).
template <typename Fn>
double measure_ns(Fn&& fn, std::size_t iterations) {
  double best = 0;
  for (int run = 0; run < 7; ++run) {
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < iterations; ++i) fn();
    const auto elapsed = std::chrono::steady_clock::now() - start;
    const double ns =
        std::chrono::duration<double, std::nano>(elapsed).count() /
        static_cast<double>(iterations);
    if (run == 0 || ns < best) best = ns;
  }
  return best;
}

cost::EstimateOptions bench_bindings() {
  cost::EstimateOptions bindings;
  bindings.n = 16;
  bindings.m = 16;
  bindings.v = 256;
  return bindings;
}

double current_degrade_ns(int serial) {
  const MachineClass mc = taxonomy_index().by_serial(serial)->machine;
  const fault::FabricShape shape = fault::FabricShape::of(mc, bench_bindings());
  const cost::ComponentLibrary lib = cost::ComponentLibrary::default_library();
  std::uint64_t seed = 1;
  return measure_ns(
      [&] {
        const fault::FaultSet faults = fault::sample_faults(
            shape, fault::FaultRates::uniform(0.1), seed++);
        fault::DegradeResult result =
            fault::degrade(mc, shape, faults, lib, bench_bindings());
        benchmark::DoNotOptimize(result);
      },
      1u << 11);
}

fault::CurveSpec scaling_spec() {
  fault::CurveSpec spec;
  spec.machine = taxonomy_index().by_serial(40)->machine;
  spec.bindings = bench_bindings();
  spec.noc_width = 4;
  spec.noc_height = 4;
  for (int i = 0; i <= 20; ++i) spec.fault_rates.push_back(0.02 * i);
  spec.trials_per_rate = 48;
  spec.seed = 7;
  return spec;  // 21 * 48 = 1008 Monte-Carlo cells
}

/// The batch curve shape of perfbench without its NoC: serial 40 at the
/// default bindings (160 components), 21 rates x 128 trials.  With no
/// NoC, a trial's cost is the fabric draw and census plus the structure.
fault::CurveSpec fabric_spec() {
  fault::CurveSpec spec;
  spec.machine = taxonomy_index().by_serial(40)->machine;
  for (int i = 0; i <= 20; ++i) spec.fault_rates.push_back(0.4 * i / 20);
  spec.trials_per_rate = 128;
  spec.seed = 7;
  return spec;  // 21 * 128 = 2688 Monte-Carlo cells
}

/// Single-thread evaluate_curve() trials/s on fabric_spec().
double measure_fabric_curve_trials_per_s() {
  const fault::CurveSpec spec = fabric_spec();
  const double ns = measure_ns(
      [&] {
        fault::CurveResult result = fault::evaluate_curve(spec);
        benchmark::DoNotOptimize(result);
      },
      4);
  return static_cast<double>(spec.cell_count()) / (ns * 1e-9);
}

struct ScalingRow {
  unsigned threads = 0;
  double cells_per_s = 0;
  double speedup = 1;
};

std::vector<ScalingRow> measure_scaling() {
  const fault::CurveSpec spec = scaling_spec();
  const double cells = static_cast<double>(spec.cell_count());
  std::vector<ScalingRow> rows;
  double sequential_s = 0;
  for (unsigned threads : {0u, 1u, 2u, 4u}) {
    std::vector<double> runs;
    for (int run = 0; run < 3; ++run) {
      const auto start = std::chrono::steady_clock::now();
      fault::CurveResult result = fault::evaluate_curve(
          spec, cost::ComponentLibrary::default_library(), threads);
      benchmark::DoNotOptimize(result);
      runs.push_back(std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count());
    }
    std::sort(runs.begin(), runs.end());
    const double seconds = runs[runs.size() / 2];
    if (threads == 0) sequential_s = seconds;
    rows.push_back(
        {threads, cells / seconds, threads == 0 ? 1 : sequential_s / seconds});
  }
  return rows;
}

double measure_engine_curve_s() {
  service::EngineOptions options;
  options.worker_threads = 4;
  options.enable_cache = false;  // measure execution, not the cache
  service::QueryEngine engine(options);
  const fault::CurveSpec spec = scaling_spec();
  std::vector<double> runs;
  for (int run = 0; run < 3; ++run) {
    const auto start = std::chrono::steady_clock::now();
    service::QueryResponse response =
        engine.submit(service::FaultSweepRequest{spec}).get();
    benchmark::DoNotOptimize(response);
    runs.push_back(std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count());
  }
  std::sort(runs.begin(), runs.end());
  return runs[runs.size() / 2];
}

std::string fmt(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3g", value);
  return buffer;
}

/// Prints the artifact CSV and, when @p json_path is non-empty, writes
/// the BENCH_fault JSON.
void print_artifact(const std::string& json_path) {
  report::CsvWriter degrade_csv;
  degrade_csv.add_row({"serial", "class", "degrade_ns"});
  std::vector<double> degrade_ns;
  for (int serial : kProbeSerials) {
    degrade_ns.push_back(current_degrade_ns(serial));
    degrade_csv.add_row(
        {std::to_string(serial),
         std::string(taxonomy_index().by_serial(serial)->interned_name),
         fmt(degrade_ns.back())});
  }
  std::cout << "# sample_faults + degrade: ns/op at 10% uniform fault rate "
               "(n=16, v=256)\n"
            << degrade_csv.str() << "\n";

  const std::vector<ScalingRow> scaling = measure_scaling();
  const double engine_s = measure_engine_curve_s();
  const double cells = static_cast<double>(scaling_spec().cell_count());
  report::CsvWriter scaling_csv;
  scaling_csv.add_row({"threads", "cells_per_s", "speedup_vs_sequential"});
  for (const ScalingRow& row : scaling) {
    scaling_csv.add_row({std::to_string(row.threads), fmt(row.cells_per_s),
                         fmt(row.speedup)});
  }
  scaling_csv.add_row({"engine(4 workers)", fmt(cells / engine_s),
                       fmt(scaling[0].cells_per_s > 0
                               ? (cells / engine_s) / scaling[0].cells_per_s
                               : 0)});
  std::cout << "# degradation-curve scaling: 1008-cell Monte-Carlo grid, "
               "library evaluate_curve() + engine FaultSweepRequest\n"
            << scaling_csv.str() << "\n";

  const double fabric_trials_per_s = measure_fabric_curve_trials_per_s();
  std::cout << "# NoC-free degradation curve (serial 40, n=16, 2688 "
               "trials), single thread, "
            << fault::detail::census_kernel().name
            << " census kernel\ntrials_per_s\n"
            << fmt(fabric_trials_per_s) << "\n\n";

  if (json_path.empty()) return;
  std::ofstream out(json_path);
  out << "{\n"
      << "  \"bench\": \"bench_fault\",\n"
      << "  \"host_cpus\": " << std::thread::hardware_concurrency() << ",\n"
      << "  \"census_kernel\": \"" << fault::detail::census_kernel().name
      << "\",\n"
      << "  \"op\": \"sample_faults + degrade (10% uniform rate, n=16, "
         "v=256)\",\n"
      << "  \"current\": {\n"
      << "    \"serials\": [1, 8, 22, 40, 47],\n"
      << "    \"degrade_ns\": [" << fmt(degrade_ns[0]);
  for (std::size_t i = 1; i < degrade_ns.size(); ++i) {
    out << ", " << fmt(degrade_ns[i]);
  }
  out << "],\n    \"curve_grid_cells\": " << static_cast<long>(cells)
      << ",\n    \"curve_cells_per_s\": {";
  for (std::size_t i = 0; i < scaling.size(); ++i) {
    out << (i ? ", " : "") << "\"threads_" << scaling[i].threads
        << "\": " << fmt(scaling[i].cells_per_s);
  }
  out << "},\n    \"curve_speedup\": {";
  for (std::size_t i = 0; i < scaling.size(); ++i) {
    out << (i ? ", " : "") << "\"threads_" << scaling[i].threads
        << "\": " << fmt(scaling[i].speedup);
  }
  out << "},\n    \"engine_curve_cells_per_s\": " << fmt(cells / engine_s)
      << ",\n    \"fabric_curve_grid_cells\": " << fabric_spec().cell_count()
      << ",\n    \"fabric_curve_trials_per_s\": " << fmt(fabric_trials_per_s)
      << "\n  },\n"
      << "  \"floors\": {\n"
      << "    \"fabric_curve_trials_per_s\": "
      << fmt(kFabricCurveTrialsPerSFloor) << "\n  }\n}\n";
  std::cout << "JSON written to " << json_path << "\n\n";
}

// ---------------------------------------------------------------------------
// Registered microbenchmarks.

void bm_sample_faults(benchmark::State& state) {
  const MachineClass mc =
      taxonomy_index().by_serial(static_cast<int>(state.range(0)))->machine;
  const fault::FabricShape shape = fault::FabricShape::of(mc, bench_bindings());
  std::uint64_t seed = 1;
  for (auto _ : state) {
    fault::FaultSet faults =
        fault::sample_faults(shape, fault::FaultRates::uniform(0.1), seed++);
    benchmark::DoNotOptimize(faults);
  }
}
BENCHMARK(bm_sample_faults)->Arg(22)->Arg(40)->Arg(47);

void bm_degrade(benchmark::State& state) {
  const MachineClass mc =
      taxonomy_index().by_serial(static_cast<int>(state.range(0)))->machine;
  const fault::FabricShape shape = fault::FabricShape::of(mc, bench_bindings());
  const cost::ComponentLibrary lib = cost::ComponentLibrary::default_library();
  const fault::FaultSet faults =
      fault::sample_faults(shape, fault::FaultRates::uniform(0.1), 99);
  for (auto _ : state) {
    fault::DegradeResult result =
        fault::degrade(mc, shape, faults, lib, bench_bindings());
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(bm_degrade)->Arg(1)->Arg(22)->Arg(40)->Arg(47);

void bm_noc_route_around(benchmark::State& state) {
  fault::FabricShape shape;
  shape.dps = 64;
  shape.noc_width = 8;
  shape.noc_height = 8;
  fault::FaultSet faults;
  faults.add(fault::FaultKind::NocRouterDead, 27);
  faults.add_noc_link(0, 1);
  faults.add_noc_link(9, 17);
  for (auto _ : state) {
    fault::NocDegradation d = fault::analyze_noc(shape, faults);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(bm_noc_route_around)->Unit(benchmark::kMicrosecond);

void bm_curve(benchmark::State& state) {
  const fault::CurveSpec spec = scaling_spec();
  const auto threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    fault::CurveResult result = fault::evaluate_curve(
        spec, cost::ComponentLibrary::default_library(), threads);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(spec.cell_count()));
}
BENCHMARK(bm_curve)
    ->ArgName("threads")
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void bm_engine_fault_sweep(benchmark::State& state) {
  service::EngineOptions options;
  options.worker_threads = static_cast<unsigned>(state.range(0));
  options.enable_cache = false;
  service::QueryEngine engine(options);
  const fault::CurveSpec spec = scaling_spec();
  for (auto _ : state) {
    service::QueryResponse response =
        engine.submit(service::FaultSweepRequest{spec}).get();
    benchmark::DoNotOptimize(response);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(spec.cell_count()));
}
BENCHMARK(bm_engine_fault_sweep)
    ->ArgName("workers")
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // Strip the artifact flag (--json <path>) before benchmark::Initialize.
  std::string json_path;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string_view(argv[i]) == "--json") {
      json_path = argv[i + 1];
      for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
      argc -= 2;
      break;
    }
  }
  std::cout << "FAULT-INJECTION / GRACEFUL-DEGRADATION BENCHMARKS\n"
            << "(seeded fault sampling, structural degrade, NoC "
               "route-around, Monte-Carlo degradation curves)\n\n";
  print_artifact(json_path);
  mpct::bench::apply_csv_flag(&argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
