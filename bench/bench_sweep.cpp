/// Design-space sweep benchmarks + the repo's benchmark baseline
/// artifact.
///
/// Artifact: a CSV summary (classify fast-path ns/op vs the pre-index
/// baseline; sweep throughput vs thread count) printed first, and —
/// with `--json <path>` — the same numbers as JSON in the BENCH_sweep
/// format committed at the repo root (see docs/PERF.md for how the
/// baseline block was measured and how to regenerate).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/classifier.hpp"
#include "core/range_split.hpp"
#include "core/taxonomy_index.hpp"
#include "cost/area_model.hpp"
#include "cost/config_bits.hpp"
#include "cost/cost_plan.hpp"
#include "cost/cost_plan_set.hpp"
#include "explore/recommend.hpp"
#include "explore/sweep.hpp"
#include "report/csv.hpp"
#include "service/service.hpp"

namespace {

using namespace mpct;

// Pre-index baseline, measured at commit 08a248c (Release, same
// harness): the single-point op was classify() + to_string(name) +
// flexibility_score(), i.e. rule walk + name render + per-call scoring.
constexpr int kProbeSerials[] = {1, 8, 22, 40, 47};
constexpr double kBaselineSinglePointNs[] = {10.6, 31.3, 39.4, 29.0, 7.32};
constexpr double kBaselineClassifyNs[] = {4.13, 3.00, 3.91, 3.62, 1.68};

// Hard regression floor for single-thread sweep throughput, enforced by
// bench/check_regression.py against the "floors" block this binary
// emits: 5x the scalar-path baseline committed before the batch-kernel
// rewrite (sweep_cells_per_s.threads_0 = 2.76e5 at commit 586f006).
constexpr double kSweepCellsPerSFloor = 1.38e6;

// Hard regression ceilings for the Pareto-front stages (ns per grid cell
// on the scaling grid), enforced by bench/check_regression.py against
// the "ceilings" block this binary emits: about twice what the
// summary-and-filter front records on the 4-vCPU recording host (front
// 6.9-8.0, merge 4.6-5.7 ns/cell), and below the linear-time front it
// replaced (14-20 ns/cell there); see docs/PERF.md.
constexpr double kFrontNsPerCellCeiling = 15;
constexpr double kMergeNsPerCellCeiling = 12;

/// ns/op of @p fn via a fixed-count timed loop, minimum over 7 runs —
/// scheduler noise on a shared machine is strictly additive, so the
/// minimum is the robust estimator for a deterministic micro-op.  The
/// artifact needs numbers available in-process, which the registered
/// google-benchmark timings below are not.
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

/// The post-index single-point op: one table load + two field reads.
double current_single_point_ns(int serial) {
  const TaxonomyIndex& index = taxonomy_index();
  const MachineClass mc = index.by_serial(serial)->machine;
  return measure_ns(
      [&] {
        MachineClass probe = mc;
        benchmark::DoNotOptimize(probe);
        const TaxonomyIndex::FastClassification fast = index.classify(probe);
        std::string_view name =
            fast.info ? fast.info->interned_name : fast.note;
        const int flexibility = fast.info ? fast.info->flexibility : -1;
        benchmark::DoNotOptimize(name);
        benchmark::DoNotOptimize(flexibility);
      },
      1u << 16);
}

double current_classify_ns(int serial) {
  const MachineClass mc = taxonomy_index().by_serial(serial)->machine;
  return measure_ns(
      [&] {
        MachineClass probe = mc;
        benchmark::DoNotOptimize(probe);
        Classification result = classify(probe);
        benchmark::DoNotOptimize(result);
      },
      1u << 15);
}

explore::SweepGrid scaling_grid() {
  explore::SweepGrid grid;
  grid.base.min_flexibility = 0;
  for (std::int64_t n = 2; n <= 128; n += 2) grid.n_values.push_back(n);
  for (std::int64_t v = 64; v <= 64 * 256; v += 64) {
    grid.lut_budgets.push_back(v);
  }
  grid.objectives = {explore::Requirements::Objective::MinConfigBits,
                     explore::Requirements::Objective::MinArea};
  // 64 * 256 * 2 = 32768 cells: enough work per sweep (milliseconds)
  // that thread start-up and wake-ups do not swamp the scaling rows.
  return grid;
}

struct ScalingRow {
  unsigned threads = 0;
  double cells_per_s = 0;
  double speedup = 1;
};

std::vector<ScalingRow> measure_scaling() {
  const explore::SweepGrid grid = scaling_grid();
  const double cells = static_cast<double>(grid.cell_count());
  std::vector<ScalingRow> rows;
  double sequential_s = 0;
  for (unsigned threads : {0u, 1u, 2u, 4u}) {
    std::vector<double> runs;
    for (int run = 0; run < 3; ++run) {
      const auto start = std::chrono::steady_clock::now();
      explore::SweepResult result = explore::sweep(
          grid, cost::ComponentLibrary::default_library(), threads);
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

/// Per-cell time split of a single-thread sweep().  `total` (the batch
/// kernel, evaluate_range), `decode`, `evaluate`, `front`, `merge` and
/// `sweep` are measured; `reduce` is the remainder — the winner-fold
/// cannot be timed in isolation through the public API, but total =
/// decode + evaluate + reduce by construction of the kernel (see
/// docs/PERF.md).  `front` is pareto_front over the grid's points
/// (summarise the one range, then filter); `merge` is the serial step a
/// served sweep runs after its chunks, which folded their own summaries:
/// combine the kMergeChunks summaries, then filter.  `sweep` is the
/// whole sweep() call, so sweep - total - front is roughly what sweep()
/// adds around the two: building the evaluator and allocating its
/// result vectors.
struct StageBreakdown {
  double decode_ns = 0;
  double evaluate_ns = 0;
  double reduce_ns = 0;
  double total_ns = 0;
  double front_ns = 0;
  double merge_ns = 0;
  double sweep_ns = 0;
};

/// Chunks a served sweep of the scaling grid is split into: the
/// engine's two per worker at perfbench's two workers.
constexpr std::size_t kMergeChunks = 4;

StageBreakdown measure_stages() {
  const explore::SweepGrid grid = scaling_grid().normalized();
  const explore::SweepEvaluator evaluator(grid);
  const std::size_t cells = evaluator.cell_count();
  const double cells_d = static_cast<double>(cells);
  StageBreakdown stages;

  // Total: the batch path end to end, single thread.
  std::vector<explore::SweepPoint> points(cells);
  stages.total_ns = measure_ns(
                        [&] {
                          evaluator.evaluate_range(0, cells, points.data());
                          benchmark::DoNotOptimize(points.data());
                        },
                        4) /
                    cells_d;

  // Decode: flat cell index -> (ni, li, oi), once per cell.
  const std::size_t row = evaluator.row_cells();
  const std::size_t o_count = grid.objectives.size();
  stages.decode_ns = measure_ns(
                         [&] {
                           std::size_t acc = 0;
                           for (std::size_t i = 0; i < cells; ++i) {
                             const std::size_t ni = i / row;
                             const std::size_t rest = i - ni * row;
                             const std::size_t li = rest / o_count;
                             acc += ni + li + (rest - li * o_count);
                           }
                           benchmark::DoNotOptimize(acc);
                         },
                         16) /
                     cells_d;

  // Evaluate: replay exactly the kernel's CostPlanSet calls — the
  // scaling grid's min_flexibility 0 admits every named taxonomy row,
  // so this is the same candidate set the evaluator built; v-dependent
  // plans price every (n, v) lane, v-independent ones once per row.
  const cost::ComponentLibrary lib = cost::ComponentLibrary::default_library();
  cost::CostPlanSet plans;
  std::vector<std::size_t> v_dep, v_indep;
  for (const TaxonomyIndex::ClassInfo& taxon : taxonomy_index().rows()) {
    if (!taxon.named) continue;
    const std::size_t p = plans.size();
    plans.add(taxon.machine, lib);
    (plans.depends_v(p) ? v_dep : v_indep).push_back(p);
  }
  std::vector<cost::CostPoint> lane(grid.lut_budgets.size());
  stages.evaluate_ns =
      measure_ns(
          [&] {
            for (const std::int64_t n : grid.n_values) {
              for (const std::size_t p : v_indep) {
                cost::CostPoint point =
                    plans.evaluate(p, n, grid.lut_budgets[0]);
                benchmark::DoNotOptimize(point);
              }
              for (const std::size_t p : v_dep) {
                plans.evaluate_row(p, n, grid.lut_budgets, lane.data());
                benchmark::DoNotOptimize(lane.data());
              }
            }
          },
          4) /
      cells_d;
  stages.reduce_ns = std::max(
      0.0, stages.total_ns - stages.evaluate_ns - stages.decode_ns);

  // Front: the whole front of the points computed above, built from
  // scratch on one thread.
  stages.front_ns = measure_ns(
                        [&] {
                          std::vector<explore::SweepPoint> front =
                              explore::pareto_front(points);
                          benchmark::DoNotOptimize(front.data());
                        },
                        4) /
                    cells_d;
  // Merge: what the engine's last chunk (and the proxy's gather) runs
  // once every chunk has folded its slice into its own summary.
  std::vector<explore::FrontSummary> summaries;
  for (const CellRange& chunk : split_range(cells, kMergeChunks, row)) {
    summaries.emplace_back(std::span<const explore::SweepPoint>(points).subspan(
        chunk.begin, chunk.end - chunk.begin));
  }
  stages.merge_ns = measure_ns(
                        [&] {
                          std::vector<explore::SweepPoint> front =
                              explore::pareto_front(points, summaries);
                          benchmark::DoNotOptimize(front.data());
                        },
                        4) /
                    cells_d;
  stages.sweep_ns = measure_ns(
                        [&] {
                          explore::SweepResult result = explore::sweep(grid);
                          benchmark::DoNotOptimize(result);
                        },
                        4) /
                    cells_d;
  return stages;
}

double measure_engine_sweep_s() {
  service::EngineOptions options;
  options.worker_threads = 4;
  options.enable_cache = false;  // measure execution, not the cache
  service::QueryEngine engine(options);
  const explore::SweepGrid grid = scaling_grid();
  std::vector<double> runs;
  for (int run = 0; run < 3; ++run) {
    const auto start = std::chrono::steady_clock::now();
    service::QueryResponse response =
        engine.submit(service::SweepRequest{grid}).get();
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
/// the BENCH_sweep JSON (baseline block + freshly measured numbers).
void print_artifact(const std::string& json_path) {
  report::CsvWriter classify_csv;
  classify_csv.add_row({"serial", "baseline_classify_ns", "classify_ns",
                        "baseline_single_point_ns", "single_point_ns",
                        "speedup"});
  std::vector<double> classify_ns, single_point_ns;
  for (std::size_t i = 0; i < std::size(kProbeSerials); ++i) {
    classify_ns.push_back(current_classify_ns(kProbeSerials[i]));
    single_point_ns.push_back(current_single_point_ns(kProbeSerials[i]));
    classify_csv.add_row({std::to_string(kProbeSerials[i]),
                          fmt(kBaselineClassifyNs[i]), fmt(classify_ns[i]),
                          fmt(kBaselineSinglePointNs[i]),
                          fmt(single_point_ns[i]),
                          fmt(kBaselineSinglePointNs[i] / single_point_ns[i])});
  }
  std::cout << "# classify fast path: ns/op vs pre-index baseline (08a248c)\n"
            << classify_csv.str() << "\n";

  const std::vector<ScalingRow> scaling = measure_scaling();
  const StageBreakdown stages = measure_stages();
  const double engine_s = measure_engine_sweep_s();
  const double cells = static_cast<double>(scaling_grid().cell_count());
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
  std::cout << "# sweep scaling: " << static_cast<long>(cells)
            << "-cell grid, library sweep() + engine SweepRequest\n"
            << scaling_csv.str() << "\n";

  report::CsvWriter stage_csv;
  stage_csv.add_row({"stage", "ns_per_cell"});
  stage_csv.add_row({"decode", fmt(stages.decode_ns)});
  stage_csv.add_row({"evaluate", fmt(stages.evaluate_ns)});
  stage_csv.add_row({"reduce", fmt(stages.reduce_ns)});
  stage_csv.add_row({"total", fmt(stages.total_ns)});
  stage_csv.add_row({"front", fmt(stages.front_ns)});
  stage_csv.add_row({"merge", fmt(stages.merge_ns)});
  stage_csv.add_row({"sweep", fmt(stages.sweep_ns)});
  std::cout << "# sweep() per-cell stage breakdown (single thread; decode "
               "+ evaluate + reduce = total; sweep = total + front + "
               "evaluator build and result allocation; merge = combine "
               << kMergeChunks << " chunk summaries + filter)\n"
            << stage_csv.str() << "\n";

  // Monotone-scaling gate: with the worker pool clamped to
  // hardware_concurrency, asking for the most threads must never run
  // slower than one thread (the regression this PR removes).  10% noise
  // guard for shared CI machines.
  const double single_thread = scaling[0].cells_per_s;
  const double clamped_max = scaling.back().cells_per_s;
  if (clamped_max < 0.9 * single_thread) {
    std::cerr << "FAIL: sweep at the clamped max thread count ("
              << fmt(clamped_max) << " cells/s) fell below the "
              << "single-thread figure (" << fmt(single_thread)
              << " cells/s)\n";
    std::exit(1);
  }

  if (json_path.empty()) return;
  std::ofstream out(json_path);
  out << "{\n"
      << "  \"bench\": \"bench_sweep\",\n"
      << "  \"host_cpus\": " << std::thread::hardware_concurrency()
      << ",\n"
      << "  \"op\": \"classify + rendered name + flexibility (single "
         "design point)\",\n"
      << "  \"baseline\": {\n"
      << "    \"commit\": \"08a248c\",\n"
      << "    \"serials\": [1, 8, 22, 40, 47],\n"
      << "    \"classify_ns\": [4.13, 3.00, 3.91, 3.62, 1.68],\n"
      << "    \"single_point_ns\": [10.6, 31.3, 39.4, 29.0, 7.32]\n"
      << "  },\n"
      << "  \"current\": {\n"
      << "    \"classify_ns\": [" << fmt(classify_ns[0]);
  for (std::size_t i = 1; i < classify_ns.size(); ++i) {
    out << ", " << fmt(classify_ns[i]);
  }
  out << "],\n    \"single_point_ns\": [" << fmt(single_point_ns[0]);
  for (std::size_t i = 1; i < single_point_ns.size(); ++i) {
    out << ", " << fmt(single_point_ns[i]);
  }
  out << "],\n    \"sweep_grid_cells\": " << static_cast<long>(cells)
      << ",\n    \"sweep_cells_per_s\": {";
  for (std::size_t i = 0; i < scaling.size(); ++i) {
    out << (i ? ", " : "") << "\"threads_" << scaling[i].threads
        << "\": " << fmt(scaling[i].cells_per_s);
  }
  out << "},\n    \"sweep_speedup\": {";
  for (std::size_t i = 0; i < scaling.size(); ++i) {
    out << (i ? ", " : "") << "\"threads_" << scaling[i].threads
        << "\": " << fmt(scaling[i].speedup);
  }
  out << "},\n    \"sweep_stage_ns_per_cell\": {\"decode\": "
      << fmt(stages.decode_ns) << ", \"evaluate\": " << fmt(stages.evaluate_ns)
      << ", \"reduce\": " << fmt(stages.reduce_ns)
      << ", \"total\": " << fmt(stages.total_ns)
      << ", \"front\": " << fmt(stages.front_ns)
      << ", \"merge\": " << fmt(stages.merge_ns)
      << ", \"sweep\": " << fmt(stages.sweep_ns) << "}";
  out << ",\n    \"engine_sweep_cells_per_s\": " << fmt(cells / engine_s)
      << "\n  },\n"
      << "  \"floors\": {\n"
      << "    \"sweep_cells_per_s.threads_0\": " << fmt(kSweepCellsPerSFloor)
      << "\n  },\n"
      << "  \"ceilings\": {\n"
      << "    \"sweep_stage_ns_per_cell.front\": "
      << fmt(kFrontNsPerCellCeiling) << ",\n"
      << "    \"sweep_stage_ns_per_cell.merge\": "
      << fmt(kMergeNsPerCellCeiling) << "\n  }\n}\n";
  std::cout << "JSON written to " << json_path << "\n\n";
}

// ---------------------------------------------------------------------------
// Registered microbenchmarks.

void bm_classify_fast(benchmark::State& state) {
  const MachineClass mc =
      taxonomy_index().by_serial(static_cast<int>(state.range(0)))->machine;
  for (auto _ : state) {
    MachineClass probe = mc;
    benchmark::DoNotOptimize(probe);
    TaxonomyIndex::FastClassification fast = classify_fast(probe);
    benchmark::DoNotOptimize(fast);
  }
}
BENCHMARK(bm_classify_fast)->Arg(1)->Arg(22)->Arg(47);

void bm_cost_plan_evaluate(benchmark::State& state) {
  const MachineClass mc = taxonomy_index().by_serial(22)->machine;
  const cost::CostPlan plan(mc, cost::ComponentLibrary::default_library());
  std::int64_t n = 1;
  for (auto _ : state) {
    cost::CostPoint point = plan.evaluate(n, 1024);
    benchmark::DoNotOptimize(point);
    n = (n % 64) + 1;
  }
}
BENCHMARK(bm_cost_plan_evaluate);

void bm_estimate_pair(benchmark::State& state) {
  const MachineClass mc = taxonomy_index().by_serial(22)->machine;
  const cost::ComponentLibrary lib = cost::ComponentLibrary::default_library();
  cost::EstimateOptions options;
  for (auto _ : state) {
    double area = cost::estimate_area(mc, lib, options).total_kge();
    std::int64_t bits = cost::estimate_config_bits(mc, lib, options).total();
    benchmark::DoNotOptimize(area);
    benchmark::DoNotOptimize(bits);
    options.n = (options.n % 64) + 1;
    options.m = options.n;
  }
}
BENCHMARK(bm_estimate_pair);

void bm_recommend(benchmark::State& state) {
  explore::Requirements req;
  req.min_flexibility = static_cast<int>(state.range(0));
  for (auto _ : state) {
    std::vector<explore::Recommendation> recs = explore::recommend(req);
    benchmark::DoNotOptimize(recs);
  }
}
BENCHMARK(bm_recommend)->ArgName("min_flex")->Arg(0)->Arg(6);

void bm_sweep(benchmark::State& state) {
  const explore::SweepGrid grid = scaling_grid();
  const auto threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    explore::SweepResult result = explore::sweep(
        grid, cost::ComponentLibrary::default_library(), threads);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(grid.cell_count()));
}
BENCHMARK(bm_sweep)
    ->ArgName("threads")
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void bm_engine_sweep(benchmark::State& state) {
  service::EngineOptions options;
  options.worker_threads = static_cast<unsigned>(state.range(0));
  options.enable_cache = false;
  service::QueryEngine engine(options);
  const explore::SweepGrid grid = scaling_grid();
  for (auto _ : state) {
    service::QueryResponse response =
        engine.submit(service::SweepRequest{grid}).get();
    benchmark::DoNotOptimize(response);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(grid.cell_count()));
}
BENCHMARK(bm_engine_sweep)
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
  std::cout << "DESIGN-SPACE SWEEP BENCHMARKS\n"
            << "(zero-allocation classify fast path, memoized cost plans, "
               "parallel Pareto sweep)\n\n";
  print_artifact(json_path);
  mpct::bench::apply_csv_flag(&argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
