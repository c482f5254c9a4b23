#include "explore/sweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <iterator>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "core/range_split.hpp"
#include "core/taxonomy_index.hpp"
#include "cost/cost_plan.hpp"
#include "cost/cost_plan_set.hpp"
#include "explore/recommend.hpp"
#include "fault/degradation_curve.hpp"
#include "service/engine.hpp"

namespace mpct::explore {
namespace {

// ---------------------------------------------------------------------------
// CostPlan: the memoized evaluator must be bit-identical to the
// unmemoized estimate functions, for every row of the table and across
// representative design points.  EXPECT_EQ on the doubles is deliberate:
// the contract is same-ops-same-order, not "close".

TEST(CostPlan, BitIdenticalToEstimatesAcrossTable) {
  const cost::ComponentLibrary lib = cost::ComponentLibrary::default_library();
  const std::int64_t ns[] = {1, 2, 8, 16, 64, 1000};
  const std::int64_t vs[] = {1, 64, 1024, 100000};
  for (const TaxonomyIndex::ClassInfo& row : taxonomy_index().rows()) {
    const cost::CostPlan plan(row.machine, lib);
    for (std::int64_t n : ns) {
      for (std::int64_t v : vs) {
        cost::EstimateOptions options;
        options.n = n;
        options.m = n;
        options.v = v;
        const cost::CostPoint point = plan.evaluate(n, v);
        EXPECT_EQ(point.area_kge,
                  cost::estimate_area(row.machine, lib, options).total_kge())
            << "serial " << row.serial << " n=" << n << " v=" << v;
        EXPECT_EQ(point.config_bits,
                  cost::estimate_config_bits(row.machine, lib, options).total())
            << "serial " << row.serial << " n=" << n << " v=" << v;
      }
    }
  }
}

TEST(CostPlan, BitIdenticalWithIpDpSwitchAndOtherLibraries) {
  for (const cost::ComponentLibrary& lib :
       {cost::ComponentLibrary::embedded(), cost::ComponentLibrary::hpc()}) {
    for (const TaxonomyIndex::ClassInfo& row : taxonomy_index().rows()) {
      const cost::CostPlan plan(row.machine, lib, /*include_ip_dp_switch=*/true);
      cost::EstimateOptions options;
      options.n = 32;
      options.m = 32;
      options.v = 4096;
      options.include_ip_dp_switch = true;
      const cost::CostPoint point = plan.evaluate(options);
      EXPECT_EQ(point.area_kge,
                cost::estimate_area(row.machine, lib, options).total_kge());
      EXPECT_EQ(point.config_bits,
                cost::estimate_config_bits(row.machine, lib, options).total());
    }
  }
}

// ---------------------------------------------------------------------------
// SweepGrid / sweep(): grid semantics and equivalence to sequential
// recommend() calls.

SweepGrid demo_grid() {
  SweepGrid grid;
  grid.base.min_flexibility = 2;
  grid.n_values = {4, 16, 64};
  grid.lut_budgets = {256, 1024};
  grid.objectives = {Requirements::Objective::MinConfigBits,
                     Requirements::Objective::MinArea};
  return grid;
}

TEST(Sweep, EmptyAxesNormalizeToBase) {
  SweepGrid grid;
  grid.base.n = 12;
  grid.base.lut_budget = 99;
  EXPECT_EQ(grid.cell_count(), 1u);
  const SweepResult result = sweep(grid);
  ASSERT_EQ(result.points.size(), 1u);
  EXPECT_EQ(result.points[0].n, 12);
  EXPECT_EQ(result.points[0].lut_budget, 99);
  EXPECT_EQ(result.points[0].objective, grid.base.objective);
}

TEST(Sweep, EveryCellMatchesSequentialRecommendBitForBit) {
  const SweepGrid grid = demo_grid();
  const SweepResult result = sweep(grid);
  ASSERT_EQ(result.points.size(), grid.cell_count());
  for (const SweepPoint& point : result.points) {
    Requirements req = grid.base;
    req.n = point.n;
    req.lut_budget = point.lut_budget;
    req.objective = point.objective;
    const std::vector<Recommendation> recs = recommend(req);
    ASSERT_FALSE(recs.empty());
    ASSERT_TRUE(point.feasible);
    EXPECT_EQ(point.best, recs.front().name);
    EXPECT_EQ(point.flexibility, recs.front().flexibility);
    EXPECT_EQ(point.area_kge, recs.front().area_kge);
    EXPECT_EQ(point.config_bits, recs.front().config_bits);
    EXPECT_EQ(result.candidate_classes, recs.size());
  }
}

TEST(Sweep, ThreadCountDoesNotChangeResults) {
  SweepGrid grid = demo_grid();
  grid.n_values = {1, 2, 3, 5, 8, 13, 21, 34, 55};
  grid.lut_budgets = {16, 256, 4096};
  const SweepResult sequential = sweep(grid);
  for (unsigned threads : {1u, 2u, 3u, 4u, 7u, 16u}) {
    EXPECT_EQ(sweep(grid, cost::ComponentLibrary::default_library(), threads),
              sequential)
        << "threads=" << threads;
  }
}

TEST(Sweep, ImpossibleFloorYieldsInfeasibleCells) {
  SweepGrid grid = demo_grid();
  grid.base.min_flexibility = 9;
  const SweepResult result = sweep(grid);
  EXPECT_EQ(result.candidate_classes, 0u);
  EXPECT_TRUE(result.pareto_front.empty());
  for (const SweepPoint& point : result.points) {
    EXPECT_FALSE(point.feasible);
  }
}

TEST(Sweep, ParetoFrontIsExactlyTheNonDominatedSubset) {
  const SweepGrid grid = demo_grid();
  const SweepResult result = sweep(grid);
  ASSERT_FALSE(result.pareto_front.empty());
  const auto cost_of = [](const SweepPoint& p) {
    return p.objective == Requirements::Objective::MinConfigBits
               ? static_cast<double>(p.config_bits)
               : p.area_kge;
  };
  const auto dominated = [&](const SweepPoint& p) {
    for (const SweepPoint& q : result.points) {
      if (!q.feasible || q.objective != p.objective) continue;
      if (q.flexibility >= p.flexibility && cost_of(q) <= cost_of(p) &&
          (q.flexibility > p.flexibility || cost_of(q) < cost_of(p))) {
        return true;
      }
    }
    return false;
  };
  for (const SweepPoint& p : result.pareto_front) {
    EXPECT_TRUE(p.feasible);
    EXPECT_FALSE(dominated(p));
  }
  std::size_t non_dominated = 0;
  for (const SweepPoint& p : result.points) {
    if (p.feasible && !dominated(p)) ++non_dominated;
  }
  EXPECT_EQ(result.pareto_front.size(), non_dominated);
}

TEST(Sweep, FilterMatchesRecommendCandidateSet) {
  SweepGrid grid;
  grid.base.paradigm = MachineType::InstructionFlow;
  grid.base.needs_pe_exchange = true;
  const SweepResult result = sweep(grid);
  EXPECT_EQ(result.candidate_classes, recommend(grid.base).size());
}

// ---------------------------------------------------------------------------
// Batch-kernel parity: evaluate_range() (batch path) must be
// bit-identical to evaluate_cell() (scalar path), cell for cell, over
// every canonical class and randomized (n, lut_budget, objective)
// grids — including ranges that split grid rows (the scalar edge path).

TEST(CostPlanBatch, EvaluateBatchBitIdenticalToScalar) {
  const cost::ComponentLibrary lib = cost::ComponentLibrary::default_library();
  std::mt19937_64 rng(2024);
  std::uniform_int_distribution<std::int64_t> n_dist(1, 4096);
  std::uniform_int_distribution<std::int64_t> v_dist(1, 1 << 20);
  for (const TaxonomyIndex::ClassInfo& row : taxonomy_index().rows()) {
    const cost::CostPlan plan(row.machine, lib);
    std::vector<std::int64_t> ns, vs;
    for (int i = 0; i < 64; ++i) {
      ns.push_back(n_dist(rng));
      vs.push_back(v_dist(rng));
    }
    std::vector<cost::CostPoint> batch(ns.size());
    plan.evaluate_batch(ns, vs, batch.data());
    for (std::size_t i = 0; i < ns.size(); ++i) {
      EXPECT_EQ(batch[i], plan.evaluate(ns[i], vs[i]))
          << "serial " << row.serial << " lane " << i;
    }
  }
}

TEST(CostPlanBatch, PlanSetMatchesIndividualPlans) {
  const cost::ComponentLibrary lib = cost::ComponentLibrary::default_library();
  cost::CostPlanSet set;
  std::vector<cost::CostPlan> plans;
  for (const TaxonomyIndex::ClassInfo& row : taxonomy_index().rows()) {
    set.add(row.machine, lib);
    plans.emplace_back(row.machine, lib);
  }
  ASSERT_EQ(set.size(), plans.size());
  const std::vector<std::int64_t> ns = {1, 2, 16, 64, 999};
  const std::vector<std::int64_t> vs = {1, 64, 4096, 100000, 7};
  std::vector<cost::CostPoint> lanes(ns.size());
  for (std::size_t p = 0; p < set.size(); ++p) {
    set.evaluate_lanes(p, ns, vs, lanes.data());
    for (std::size_t i = 0; i < ns.size(); ++i) {
      EXPECT_EQ(lanes[i], plans[p].evaluate(ns[i], vs[i])) << "plan " << p;
      EXPECT_EQ(set.evaluate(p, ns[i], vs[i]),
                plans[p].evaluate(ns[i], vs[i]));
    }
    set.evaluate_row(p, 16, vs, lanes.data());
    for (std::size_t i = 0; i < vs.size(); ++i) {
      EXPECT_EQ(lanes[i], plans[p].evaluate(16, vs[i])) << "plan " << p;
    }
  }
}

SweepGrid random_grid(std::mt19937_64& rng) {
  std::uniform_int_distribution<std::int64_t> n_dist(1, 512);
  std::uniform_int_distribution<std::int64_t> v_dist(1, 1 << 18);
  std::uniform_int_distribution<int> axis(1, 9);
  SweepGrid grid;
  const int n_count = axis(rng), l_count = axis(rng);
  for (int i = 0; i < n_count; ++i) grid.n_values.push_back(n_dist(rng));
  for (int i = 0; i < l_count; ++i) grid.lut_budgets.push_back(v_dist(rng));
  grid.objectives = {Requirements::Objective::MinConfigBits,
                     Requirements::Objective::MinArea};
  if (axis(rng) <= 3) grid.objectives.pop_back();
  return grid;
}

TEST(SweepBatch, RangeBitIdenticalToScalarCellsOnRandomGrids) {
  std::mt19937_64 rng(7);
  for (int round = 0; round < 8; ++round) {
    const SweepGrid grid = random_grid(rng);
    const SweepEvaluator evaluator(grid);
    // The default filter admits every named canonical class, so the
    // batch kernel is exercised across the entire table.
    EXPECT_EQ(evaluator.candidate_count(), recommend(grid.base).size());
    const std::size_t cells = evaluator.cell_count();
    std::vector<SweepPoint> batch(cells);
    evaluator.evaluate_range(0, cells, batch.data());
    for (std::size_t i = 0; i < cells; ++i) {
      EXPECT_EQ(batch[i], evaluator.evaluate_cell(i))
          << "round " << round << " cell " << i;
    }
  }
}

TEST(SweepBatch, RowSplittingRangesAgreeWithFullRange) {
  std::mt19937_64 rng(11);
  const SweepGrid grid = random_grid(rng);
  const SweepEvaluator evaluator(grid);
  const std::size_t cells = evaluator.cell_count();
  std::vector<SweepPoint> whole(cells);
  evaluator.evaluate_range(0, cells, whole.data());
  // Deliberately misaligned range boundaries: every split must land on
  // the same bits through the scalar edge path.
  std::uniform_int_distribution<std::size_t> cut(0, cells);
  for (int round = 0; round < 16; ++round) {
    std::size_t a = cut(rng), b = cut(rng);
    if (a > b) std::swap(a, b);
    std::vector<SweepPoint> part(b - a);
    evaluator.evaluate_range(a, b, part.data());
    for (std::size_t i = a; i < b; ++i) {
      EXPECT_EQ(part[i - a], whole[i]) << "range [" << a << "," << b << ")";
    }
  }
}

// ---------------------------------------------------------------------------
// Pareto front: the linear-time front must return exactly the points the
// quadratic reference computes, in the same order, on randomized inputs
// dense with ties and on the hostile values a wire-decoded merge can
// carry: negative, extreme and many-distinct flexibilities, NaN and
// signed-zero areas.

/// Input positions of @p front's points (each test point's n is its
/// index).  Compared instead of the points themselves because a NaN area
/// makes a point unequal to its own copy.
std::vector<std::int64_t> ids(const std::vector<SweepPoint>& front) {
  std::vector<std::int64_t> out;
  for (const SweepPoint& p : front) out.push_back(p.n);
  return out;
}

TEST(ParetoFront, MatchesReferenceOnRandomizedPoints) {
  using Limits = std::numeric_limits<int>;
  using Bits = std::numeric_limits<std::int64_t>;
  const int extreme_flex[] = {Limits::min(), Limits::min() + 1, -1, 0, 1,
                              Limits::max() - 1, Limits::max()};
  const std::int64_t extreme_bits[] = {Bits::min(), -1, 0, 1, Bits::max()};
  std::mt19937_64 rng(99);
  std::uniform_int_distribution<std::int64_t> bits(0, 20);
  std::uniform_int_distribution<int> area_step(0, 20);
  std::uniform_int_distribution<int> coin(0, 9);
  for (int round = 0; round < 500; ++round) {
    const int count = 1 + static_cast<int>(rng() % 200);
    // Flexibility regimes: taxonomy-like 0..5 (tie-dense), negative,
    // INT_MIN/INT_MAX extremes, distinct values around the group size,
    // and arbitrary 32-bit values (nearly all distinct).
    const int regime = round % 5;
    const auto flexibility = [&]() -> int {
      switch (regime) {
        case 0: return static_cast<int>(rng() % 6);
        case 1: return static_cast<int>(rng() % 11) - 5;
        case 2: return extreme_flex[rng() % std::size(extreme_flex)];
        case 3: return static_cast<int>(rng() % static_cast<unsigned>(count));
        default: return static_cast<int>(static_cast<std::uint32_t>(rng()));
      }
    };
    // Odd rounds mix NaN, -0.0 and +0.0 into the areas.
    const bool hostile_area = round % 2 == 1;
    const auto area = [&]() -> double {
      const int c = coin(rng);
      if (hostile_area && c == 0) {
        return std::numeric_limits<double>::quiet_NaN();
      }
      if (hostile_area && c == 1) return -0.0;
      if (hostile_area && c == 2) return 0.0;
      return 0.5 * area_step(rng);  // coarse on purpose: many exact ties
    };
    std::vector<SweepPoint> points;
    for (int i = 0; i < count; ++i) {
      SweepPoint p;
      p.feasible = coin(rng) > 0;  // ~10% infeasible
      p.objective = coin(rng) < 5 ? Requirements::Objective::MinConfigBits
                                  : Requirements::Objective::MinArea;
      p.flexibility = flexibility();
      p.config_bits = regime == 2 && coin(rng) < 3
                          ? extreme_bits[rng() % std::size(extreme_bits)]
                          : bits(rng);
      p.area_kge = area();
      p.n = i;
      points.push_back(p);
    }
    EXPECT_EQ(ids(pareto_front(points)),
              ids(detail::pareto_front_reference(points)))
        << "round " << round;
  }
}

TEST(ParetoFront, MatchesReferenceOnRealSweepOutput) {
  std::mt19937_64 rng(123);
  for (int round = 0; round < 4; ++round) {
    const SweepGrid grid = random_grid(rng);
    const SweepResult result = sweep(grid);
    EXPECT_EQ(result.pareto_front,
              detail::pareto_front_reference(result.points));
  }
}

// ---------------------------------------------------------------------------
// FrontSummary: summaries built per chunk and combined in any order must
// filter to exactly the reference front.  The chunkings include empty
// chunks, one-cell chunks and chunks holding only infeasible cells; the
// points carry the same hostile values as above.

std::vector<SweepPoint> hostile_points(std::mt19937_64& rng, int round) {
  using Limits = std::numeric_limits<int>;
  using Bits = std::numeric_limits<std::int64_t>;
  const int extreme_flex[] = {Limits::min(), Limits::min() + 1, -1, 0,
                              63, 64, Limits::max() - 1, Limits::max()};
  const std::int64_t extreme_bits[] = {Bits::min(), -1, 0, 1, Bits::max()};
  const double special_area[] = {std::numeric_limits<double>::quiet_NaN(),
                                 -0.0, 0.0};
  const int count = static_cast<int>(rng() % 160);
  std::vector<SweepPoint> points;
  for (int i = 0; i < count; ++i) {
    SweepPoint p;
    p.feasible = rng() % 8 != 0;
    p.objective = rng() % 2 == 0 ? Requirements::Objective::MinConfigBits
                                 : Requirements::Objective::MinArea;
    switch (round % 3) {
      case 0: p.flexibility = static_cast<int>(rng() % 9); break;
      case 1: p.flexibility = extreme_flex[rng() % std::size(extreme_flex)];
        break;
      default: p.flexibility = static_cast<int>(rng() % 140) - 70; break;
    }
    p.config_bits = rng() % 4 == 0
                        ? extreme_bits[rng() % std::size(extreme_bits)]
                        : static_cast<std::int64_t>(rng() % 20);
    p.area_kge = rng() % 4 == 0 ? special_area[rng() % std::size(special_area)]
                                : 0.5 * static_cast<double>(rng() % 20);
    points.push_back(p);
  }
  // A block of infeasible points, so some chunk can hold nothing else.
  const std::size_t at = rng() % (points.size() + 1);
  points.insert(points.begin() + static_cast<std::ptrdiff_t>(at),
                rng() % 4, SweepPoint{});
  for (std::size_t i = 0; i < points.size(); ++i) {
    points[i].n = static_cast<std::int64_t>(i);
  }
  return points;
}

TEST(FrontSummary, ShuffledChunkSummariesMatchReference) {
  std::mt19937_64 rng(2025);
  for (int round = 0; round < 600; ++round) {
    const std::vector<SweepPoint> points = hostile_points(rng, round);
    // Random cuts: repeats make empty chunks, neighbours one-cell ones,
    // and the cuts around each infeasible run isolate it in its own.
    std::vector<std::size_t> cuts{0, points.size()};
    for (std::size_t k = rng() % 12; k > 0; --k) {
      cuts.push_back(rng() % (points.size() + 1));
    }
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (!points[i].feasible && (i == 0 || points[i - 1].feasible)) {
        cuts.push_back(i);
      }
      if (!points[i].feasible &&
          (i + 1 == points.size() || points[i + 1].feasible)) {
        cuts.push_back(i + 1);
      }
    }
    std::sort(cuts.begin(), cuts.end());
    std::vector<FrontSummary> chunks;
    for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
      chunks.emplace_back(std::span<const SweepPoint>(points).subspan(
          cuts[c], cuts[c + 1] - cuts[c]));
    }
    std::shuffle(chunks.begin(), chunks.end(), rng);
    const std::vector<SweepPoint> front = pareto_front(points, chunks);
    EXPECT_EQ(ids(front), ids(detail::pareto_front_reference(points)))
        << "round " << round << ", " << chunks.size() << " chunks";
    // The summary's survivor count sized the front exactly.
    EXPECT_EQ(front.capacity(), front.size()) << "round " << round;
  }
}

// ---------------------------------------------------------------------------
// split_range: the one chunk rule of the engine's grid jobs, the cluster
// proxy's scatter and the library's threaded sweep and curve.

void expect_valid_split(std::size_t cells, std::size_t parts,
                        std::size_t grain) {
  SCOPED_TRACE("cells " + std::to_string(cells) + ", parts " +
               std::to_string(parts) + ", grain " + std::to_string(grain));
  const std::vector<CellRange> ranges = split_range(cells, parts, grain);
  if (cells == 0) {
    EXPECT_TRUE(ranges.empty());
    return;
  }
  ASSERT_FALSE(ranges.empty());
  EXPECT_LE(ranges.size(), std::max<std::size_t>(parts, 1));
  std::size_t next = 0;
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    EXPECT_EQ(ranges[i].begin, next) << "range " << i;  // contiguous
    EXPECT_LT(ranges[i].begin, ranges[i].end) << "range " << i;  // non-empty
    if (i + 1 < ranges.size()) {
      EXPECT_EQ(ranges[i].end % std::max<std::size_t>(grain, 1), 0u)
          << "range " << i;  // aligned
    }
    next = ranges[i].end;
  }
  EXPECT_EQ(next, cells);  // covers [0, cells)
  if (grain <= 1 && parts >= 1 && parts <= cells) {
    // Unaligned, the split is near-equal: exactly `parts` ranges whose
    // sizes differ by at most one cell.
    ASSERT_EQ(ranges.size(), parts);
    for (const CellRange& range : ranges) {
      EXPECT_GE(range.end - range.begin, cells / parts);
      EXPECT_LE(range.end - range.begin, (cells + parts - 1) / parts);
    }
  }
}

TEST(SplitRange, SeededShapesAreContiguousNonEmptyCoveringAndAligned) {
  std::mt19937_64 rng(2026);
  for (int round = 0; round < 3000; ++round) {
    // Small cell counts make parts > cells and grain > cells common.
    const std::size_t cells = rng() % (round % 3 == 0 ? 12 : 5000);
    const std::size_t parts = rng() % 40;
    const std::size_t grain = round % 5 == 0 ? 1 : rng() % 300;
    expect_valid_split(cells, parts, grain);
  }
  expect_valid_split(3, 10, 1);  // parts > cells: one range per cell
  EXPECT_EQ(split_range(3, 10, 1),
            (std::vector<CellRange>{{0, 1}, {1, 2}, {2, 3}}));
  expect_valid_split(100, 4, 1000);  // grain > cells: one range
  EXPECT_EQ(split_range(100, 4, 1000), (std::vector<CellRange>{{0, 100}}));
  EXPECT_EQ(split_range(10, 3, 1),  // grain 1: near-equal
            (std::vector<CellRange>{{0, 3}, {3, 6}, {6, 10}}));
  EXPECT_EQ(split_range(10, 3, 4),  // boundaries round up to the grain
            (std::vector<CellRange>{{0, 4}, {4, 8}, {8, 10}}));
}

TEST(SplitRange, PerfbenchShapesSplitIntoEqualWholeRowChunks) {
  // The four grid shapes perfbench runs, each into 4 parts (2 engine
  // workers x 2, or 2 backends x 2 chunks per endpoint): sweep rows are
  // 128 LUT budgets x 2 objectives, curve blocks are the 8-lane width.
  const auto equal_quarters = [](std::size_t cells) {
    const std::size_t q = cells / 4;
    return std::vector<CellRange>{{0, q}, {q, 2 * q}, {2 * q, 3 * q},
                                  {3 * q, cells}};
  };
  const std::size_t curve_grain = fault::CurveEvaluator::kLanes;
  EXPECT_EQ(split_range(32768, 4, 256), equal_quarters(32768));  // batch
  EXPECT_EQ(split_range(2688, 4, curve_grain), equal_quarters(2688));
  EXPECT_EQ(split_range(16384, 4, 256), equal_quarters(16384));  // fleet
  EXPECT_EQ(split_range(1344, 4, curve_grain), equal_quarters(1344));
}

}  // namespace
}  // namespace mpct::explore

// ---------------------------------------------------------------------------
// Service integration: the chunk-parallel SweepRequest path must be
// indistinguishable from the sequential library call, under any worker
// count and interleaving (this suite also runs under TSan in CI).

namespace mpct::service {
namespace {

explore::SweepGrid service_grid() {
  explore::SweepGrid grid;
  grid.n_values = {2, 4, 8, 16, 32, 64};
  grid.lut_budgets = {64, 512, 4096};
  grid.objectives = {explore::Requirements::Objective::MinConfigBits,
                     explore::Requirements::Objective::MinArea};
  return grid;
}

/// A small fault curve (3 rates x 8 trials), for the lifecycle tests
/// that must hold for both kinds of grid job.
fault::CurveSpec service_curve() {
  fault::CurveSpec spec;
  spec.machine.granularity = Granularity::IpDp;
  spec.machine.ips = Multiplicity::Many;
  spec.machine.dps = Multiplicity::Many;
  spec.machine.set_switch(ConnectivityRole::IpDp, SwitchKind::Crossbar);
  spec.machine.set_switch(ConnectivityRole::DpDm, SwitchKind::Crossbar);
  spec.bindings.n = 4;
  spec.fault_rates = {0.0, 0.1, 0.25};
  spec.trials_per_rate = 8;
  spec.seed = 42;
  return spec;
}

/// One job of each grid kind: every chunked-job lifecycle rule below
/// must hold for sweeps and fault curves alike.
std::vector<Request> grid_jobs() {
  return {SweepRequest{service_grid()}, FaultSweepRequest{service_curve()}};
}

TEST(SweepService, WorkerPoolMatchesSequentialLibrarySweep) {
  EngineOptions options;
  options.worker_threads = 4;
  QueryEngine engine(options);
  const explore::SweepGrid grid = service_grid();
  QueryResponse response = engine.submit(SweepRequest{grid}).get();
  ASSERT_TRUE(response.ok()) << response.status.to_string();
  const SweepResponse* payload = response.sweep();
  ASSERT_NE(payload, nullptr);
  EXPECT_EQ(payload->result, explore::sweep(grid));
}

TEST(SweepService, OneToFourWorkersMatchLibrarySweep) {
  std::mt19937_64 rng(31);
  std::vector<explore::SweepGrid> grids{service_grid()};
  for (int i = 0; i < 3; ++i) grids.push_back(explore::random_grid(rng));
  for (unsigned workers = 1; workers <= 4; ++workers) {
    EngineOptions options;
    options.worker_threads = workers;
    options.enable_cache = false;
    QueryEngine engine(options);
    for (const explore::SweepGrid& grid : grids) {
      const explore::SweepResult expected = explore::sweep(grid);
      QueryResponse response = engine.submit(SweepRequest{grid}).get();
      ASSERT_TRUE(response.ok()) << response.status.to_string();
      ASSERT_NE(response.sweep(), nullptr);
      EXPECT_EQ(response.sweep()->result.points, expected.points)
          << "workers=" << workers;
      EXPECT_EQ(response.sweep()->result.pareto_front, expected.pareto_front)
          << "workers=" << workers;
    }
  }
}

TEST(SweepService, InlineModeMatchesWorkerPool) {
  EngineOptions inline_options;
  inline_options.worker_threads = 0;
  QueryEngine inline_engine(inline_options);
  EngineOptions pool_options;
  pool_options.worker_threads = 4;
  QueryEngine pool_engine(pool_options);

  const explore::SweepGrid grid = service_grid();
  QueryResponse inline_response =
      inline_engine.submit(SweepRequest{grid}).get();
  QueryResponse pool_response = pool_engine.submit(SweepRequest{grid}).get();
  ASSERT_TRUE(inline_response.ok());
  ASSERT_TRUE(pool_response.ok());
  ASSERT_NE(inline_response.sweep(), nullptr);
  ASSERT_NE(pool_response.sweep(), nullptr);
  EXPECT_EQ(inline_response.sweep()->result, pool_response.sweep()->result);
}

TEST(SweepService, SecondSubmissionHitsTheCache) {
  EngineOptions options;
  options.worker_threads = 4;
  QueryEngine engine(options);
  const explore::SweepGrid grid = service_grid();
  QueryResponse first = engine.submit(SweepRequest{grid}).get();
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.cache_hit);
  QueryResponse second = engine.submit(SweepRequest{grid}).get();
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.cache_hit);
  // Shared payload, not a deep copy.
  EXPECT_EQ(first.payload.get(), second.payload.get());
}

TEST(SweepService, InvalidGridRejectedInBothModes) {
  explore::SweepGrid bad = service_grid();
  bad.n_values.push_back(-3);
  for (unsigned workers : {0u, 4u}) {
    EngineOptions options;
    options.worker_threads = workers;
    QueryEngine engine(options);
    QueryResponse response = engine.submit(SweepRequest{bad}).get();
    EXPECT_EQ(response.status.code, StatusCode::InvalidRequest)
        << "workers=" << workers;
  }
}

TEST(SweepService, QueueTooSmallForChunksRejectsWholeSweep) {
  for (const Request& job : grid_jobs()) {
    SCOPED_TRACE(to_string(request_type(job)));
    EngineOptions options;
    options.worker_threads = 2;
    options.queue_capacity = 3;
    options.start_workers = false;
    QueryEngine engine(options);
    // Fill two of the three slots so the job's chunks cannot all fit.
    std::vector<std::future<QueryResponse>> fillers;
    fillers.push_back(engine.submit(RecommendRequest{}));
    fillers.push_back(engine.submit(RecommendRequest{}));
    QueryResponse rejected = engine.submit(job).get();
    EXPECT_EQ(rejected.status.code, StatusCode::QueueFull);
    EXPECT_EQ(engine.queue_depth(), 2u);  // no chunk was left behind
    EXPECT_EQ(engine.metrics().rejected_queue_full.value(), 1u);
    engine.start();
    for (auto& filler : fillers) {
      EXPECT_TRUE(filler.get().ok());
    }
  }
}

TEST(SweepService, ShutdownResolvesQueuedSweepChunks) {
  for (const Request& job : grid_jobs()) {
    SCOPED_TRACE(to_string(request_type(job)));
    EngineOptions options;
    options.worker_threads = 2;
    options.start_workers = false;
    QueryEngine engine(options);
    std::future<QueryResponse> future = engine.submit(job);
    EXPECT_GT(engine.queue_depth(), 1u);  // really split into chunks
    engine.shutdown();
    EXPECT_EQ(future.get().status.code, StatusCode::ShuttingDown);
    // The whole job is one shutdown rejection, however many chunks.
    EXPECT_EQ(engine.metrics().rejected_shutdown.value(), 1u);
    EXPECT_EQ(engine.queue_depth(), 0u);
  }
}

TEST(SweepService, ConcurrentSweepsAndPointQueriesAgree) {
  EngineOptions options;
  options.worker_threads = 4;
  options.enable_cache = false;  // force every submission to execute
  QueryEngine engine(options);

  std::vector<explore::SweepGrid> grids;
  for (int i = 0; i < 6; ++i) {
    explore::SweepGrid grid = service_grid();
    grid.base.min_flexibility = i;
    grids.push_back(grid);
  }

  std::vector<std::future<QueryResponse>> sweeps;
  std::vector<std::future<QueryResponse>> recommends;
  for (const explore::SweepGrid& grid : grids) {
    sweeps.push_back(engine.submit(SweepRequest{grid}));
    RecommendRequest point;
    point.requirements = grid.base;
    recommends.push_back(engine.submit(point));
  }
  engine.drain();

  for (std::size_t i = 0; i < grids.size(); ++i) {
    QueryResponse sweep_response = sweeps[i].get();
    ASSERT_TRUE(sweep_response.ok()) << sweep_response.status.to_string();
    ASSERT_NE(sweep_response.sweep(), nullptr);
    EXPECT_EQ(sweep_response.sweep()->result, explore::sweep(grids[i]));
    QueryResponse rec_response = recommends[i].get();
    ASSERT_TRUE(rec_response.ok());
  }
}

}  // namespace
}  // namespace mpct::service
