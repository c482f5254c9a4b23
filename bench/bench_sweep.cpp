/// Design-space sweep benchmarks + the repo's benchmark baseline
/// artifact.
///
/// Artifact: a CSV summary (classify fast-path ns/op vs the pre-index
/// baseline; single-thread sweep throughput and its stages) printed
/// first, and —
/// with `--json <path>` — the same numbers as JSON in the BENCH_sweep
/// format committed at the repo root (see docs/PERF.md for how the
/// baseline block was measured and how to regenerate).
#include <benchmark/benchmark.h>
#include <sys/resource.h>

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
#include "core/classifier.hpp"
#include "core/taxonomy_index.hpp"
#include "cost/area_model.hpp"
#include "cost/config_bits.hpp"
#include "cost/cost_plan.hpp"
#include "explore/recommend.hpp"
#include "explore/sweep.hpp"
#include "report/csv.hpp"
#include "trace/trace.hpp"

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
// emits: below a third of the slowest of six Release runs of the
// factored sweep on the 4-vCPU recording host (1.82e7-2.14e7 cells/s),
// and 18x the scalar-path baseline committed before the batch-kernel
// rewrite (sweep_cells_per_s.threads_0 = 2.76e5 at commit 586f006); see
// docs/PERF.md.
constexpr double kSweepCellsPerSFloor = 5e6;

// Hard regression ceiling for the Pareto front (ns per grid cell on the
// scaling grid), the fold the cluster proxy runs over a gathered sweep,
// enforced by bench/check_regression.py against the "ceilings" block
// this binary emits: about twice what the summary-and-filter front
// records on the 4-vCPU recording host (6.9-8.0 ns/cell), and below the
// linear-time front it replaced (14-20 ns/cell there); see
// docs/PERF.md.
constexpr double kFrontNsPerCellCeiling = 15;

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
  // 64 * 256 * 2 = 32768 cells: enough work per sweep (about a
  // millisecond) that the clock's resolution does not matter.
  return grid;
}

/// Single-thread sweep() cells/s on the scaling grid, median of three
/// runs.
double measure_sweep_cells_per_s() {
  const explore::SweepGrid grid = scaling_grid();
  std::vector<double> runs;
  for (int run = 0; run < 3; ++run) {
    const auto start = std::chrono::steady_clock::now();
    explore::SweepResult result = explore::sweep(grid);
    benchmark::DoNotOptimize(result);
    runs.push_back(std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count());
  }
  std::sort(runs.begin(), runs.end());
  return static_cast<double>(grid.cell_count()) / runs[runs.size() / 2];
}

/// Per-cell time split of a single-thread sweep(), each stage timed on
/// its own.  `total` is the kernel over the whole grid into a kept
/// buffer (evaluate_range: factors, then one expansion); `evaluate`
/// replays just the kernel's CostPlan calls.  `factor` and `expand` are
/// the kernel's own timers (trace::ProfilePoint::SweepFactor and
/// SweepExpand) inside traced sweep() calls: pricing the row winners,
/// cutting them into the LUT-budget winners and marking the front, then
/// writing the points and the front.  `front` is pareto_front over the
/// grid's points (summarise the one range, then filter), the fold the
/// cluster proxy's merge runs over its gathered chunks.  `sweep` is the
/// whole sweep() call.  The part of a traced sweep() outside factor and
/// expand (building the evaluator, allocating the result vectors) is
/// printed as a residual, never recorded as a stage; `faults` counts
/// the minor page faults of one sweep() call (getrusage).
struct StageBreakdown {
  double evaluate_ns = 0;
  double total_ns = 0;
  double factor_ns = 0;
  double expand_ns = 0;
  double traced_sweep_ns = 0;
  double front_ns = 0;
  double sweep_ns = 0;
  double faults = 0;
};

/// sweep() calls the factor and expand timers and the fault count
/// average over.
constexpr int kStageSweeps = 32;

long minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

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

  // Evaluate: replay exactly the kernel's CostPlan calls — the scaling
  // grid's min_flexibility 0 admits every named taxonomy row, so this is
  // the same candidate set the evaluator built: plans that read v price
  // every LUT budget once (the evaluator's construction-time LUT-budget
  // winners), and the others once per row.
  const cost::ComponentLibrary lib = cost::ComponentLibrary::default_library();
  std::vector<cost::CostPlan> per_row, per_lut;
  for (const TaxonomyIndex::ClassInfo& taxon : taxonomy_index().rows()) {
    if (!taxon.named) continue;
    cost::CostPlan plan(taxon.machine, lib);
    (plan.depends_v() ? per_lut : per_row).push_back(plan);
  }
  stages.evaluate_ns =
      measure_ns(
          [&] {
            for (const cost::CostPlan& plan : per_lut) {
              for (const std::int64_t v : grid.lut_budgets) {
                cost::CostPoint point = plan.evaluate(grid.n_values[0], v);
                benchmark::DoNotOptimize(point);
              }
            }
            for (const std::int64_t n : grid.n_values) {
              for (const cost::CostPlan& plan : per_row) {
                cost::CostPoint point = plan.evaluate(n, grid.lut_budgets[0]);
                benchmark::DoNotOptimize(point);
              }
            }
          },
          4) /
      cells_d;

  // Factor and expand: the kernel's own timers over traced sweep()
  // calls, next to those calls' wall time.
  trace::Tracer& tracer = trace::Tracer::instance();
  tracer.clear();
  tracer.enable();
  const auto traced_start = std::chrono::steady_clock::now();
  for (int i = 0; i < kStageSweeps; ++i) {
    explore::SweepResult result = explore::sweep(grid);
    benchmark::DoNotOptimize(result);
  }
  const double traced_ns =
      std::chrono::duration<double, std::nano>(
          std::chrono::steady_clock::now() - traced_start)
          .count();
  tracer.disable();
  const trace::TraceSnapshot snapshot = tracer.snapshot();
  tracer.clear();
  const double traced_cells = cells_d * kStageSweeps;
  const auto timed_ns = [&](trace::ProfilePoint point) {
    return static_cast<double>(
               snapshot.profile[static_cast<std::size_t>(point)].total_ns) /
           traced_cells;
  };
  stages.factor_ns = timed_ns(trace::ProfilePoint::SweepFactor);
  stages.expand_ns = timed_ns(trace::ProfilePoint::SweepExpand);
  stages.traced_sweep_ns = traced_ns / traced_cells;

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
  stages.sweep_ns = measure_ns(
                        [&] {
                          explore::SweepResult result = explore::sweep(grid);
                          benchmark::DoNotOptimize(result);
                        },
                        4) /
                    cells_d;
  const long faults_before = minor_faults();
  for (int i = 0; i < kStageSweeps; ++i) {
    explore::SweepResult result = explore::sweep(grid);
    benchmark::DoNotOptimize(result);
  }
  stages.faults =
      static_cast<double>(minor_faults() - faults_before) / kStageSweeps;
  return stages;
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

  const double cells_per_s = measure_sweep_cells_per_s();
  const StageBreakdown stages = measure_stages();
  const double cells = static_cast<double>(scaling_grid().cell_count());
  std::cout << "# sweep throughput: " << static_cast<long>(cells)
            << "-cell grid, single-thread library sweep(): "
            << fmt(cells_per_s) << " cells/s (floor "
            << fmt(kSweepCellsPerSFloor) << ")\n\n";

  report::CsvWriter stage_csv;
  stage_csv.add_row({"stage", "ns_per_cell"});
  stage_csv.add_row({"evaluate", fmt(stages.evaluate_ns)});
  stage_csv.add_row({"total", fmt(stages.total_ns)});
  stage_csv.add_row({"factor", fmt(stages.factor_ns)});
  stage_csv.add_row({"expand", fmt(stages.expand_ns)});
  stage_csv.add_row({"front", fmt(stages.front_ns)});
  stage_csv.add_row({"sweep", fmt(stages.sweep_ns)});
  std::cout << "# sweep() per-cell stage breakdown (single thread; "
               "evaluate = the kernel's cost-plan calls within total; "
               "factor and expand = the kernel's timers inside sweep(); "
               "front = pareto_front over the points, the proxy's "
               "merge)\n"
            << stage_csv.str() << "# traced sweep() "
            << fmt(stages.traced_sweep_ns)
            << " ns/cell = factor + expand + residual "
            << fmt(stages.traced_sweep_ns - stages.factor_ns -
                   stages.expand_ns)
            << " (evaluator build, result allocation); minor faults per "
               "sweep() call: "
            << fmt(stages.faults) << "\n\n";

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
      << ",\n    \"sweep_cells_per_s\": {\"threads_0\": " << fmt(cells_per_s)
      << "},\n    \"sweep_stage_ns_per_cell\": {\"evaluate\": "
      << fmt(stages.evaluate_ns) << ", \"total\": " << fmt(stages.total_ns)
      << ", \"factor\": " << fmt(stages.factor_ns)
      << ", \"expand\": " << fmt(stages.expand_ns)
      << ", \"front\": " << fmt(stages.front_ns)
      << ", \"sweep\": " << fmt(stages.sweep_ns) << "}"
      << ",\n    \"sweep_minor_faults_per_call\": " << fmt(stages.faults)
      << "\n  },\n"
      << "  \"floors\": {\n"
      << "    \"sweep_cells_per_s.threads_0\": " << fmt(kSweepCellsPerSFloor)
      << "\n  },\n"
      << "  \"ceilings\": {\n"
      << "    \"sweep_stage_ns_per_cell.front\": "
      << fmt(kFrontNsPerCellCeiling) << "\n  }\n}\n";
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
  for (auto _ : state) {
    explore::SweepResult result = explore::sweep(grid);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(grid.cell_count()));
}
BENCHMARK(bm_sweep)->Unit(benchmark::kMillisecond);

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
               "factored Pareto sweep)\n\n";
  print_artifact(json_path);
  mpct::bench::apply_csv_flag(&argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
