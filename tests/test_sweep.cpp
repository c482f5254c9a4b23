#include "explore/sweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <future>
#include <iterator>
#include <limits>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/range_split.hpp"
#include "core/taxonomy_index.hpp"
#include "cost/cost_plan.hpp"
#include "explore/recommend.hpp"
#include "fault/degradation_curve.hpp"
#include "service/engine.hpp"
#include "trace/trace.hpp"

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

/// Equal down to the bits of the area, so -0.0 and 0.0 differ.
bool same_bits(const cost::CostPoint& a, const cost::CostPoint& b) {
  return std::bit_cast<std::uint64_t>(a.area_kge) ==
             std::bit_cast<std::uint64_t>(b.area_kge) &&
         a.config_bits == b.config_bits;
}

// The sweep prices each candidate once per value of the axes its plan
// says it reads, so a cleared flag must mean the cost is bit-identical at
// every value of that axis.  The census is what the three-way split of
// the sweep kernel sees: no named class reads both axes.
TEST(CostPlan, ClearedAxisFlagMeansTheCostIgnoresThatAxis) {
  std::mt19937_64 rng(2929);
  std::uniform_int_distribution<std::int64_t> count(1, std::int64_t{1} << 20);
  for (const cost::ComponentLibrary& lib :
       {cost::ComponentLibrary::default_library(),
        cost::ComponentLibrary::embedded(), cost::ComponentLibrary::hpc()}) {
    std::size_t n_only = 0, v_only = 0, neither = 0, both = 0;
    for (const bool ip_dp : {false, true}) {
      for (const TaxonomyIndex::ClassInfo& row : taxonomy_index().rows()) {
        if (!row.named) continue;
        const cost::CostPlan plan(row.machine, lib, ip_dp);
        for (int draw = 0; draw < 16; ++draw) {
          const std::int64_t n1 = count(rng), n2 = count(rng);
          const std::int64_t v1 = count(rng), v2 = count(rng);
          if (!plan.depends_n()) {
            EXPECT_TRUE(same_bits(plan.evaluate(n1, v1), plan.evaluate(n2, v1)))
                << "serial " << row.serial << " ip_dp=" << ip_dp << " n=" << n1
                << "/" << n2 << " v=" << v1;
          }
          if (!plan.depends_v()) {
            EXPECT_TRUE(same_bits(plan.evaluate(n1, v1), plan.evaluate(n1, v2)))
                << "serial " << row.serial << " ip_dp=" << ip_dp << " n=" << n1
                << " v=" << v1 << "/" << v2;
          }
        }
        ++(plan.depends_n() ? (plan.depends_v() ? both : n_only)
                            : (plan.depends_v() ? v_only : neither));
      }
    }
    EXPECT_EQ(both, 0u);
    EXPECT_EQ(n_only, 80u);
    EXPECT_EQ(v_only, 2u);
    EXPECT_EQ(neither, 4u);
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
// Kernel parity: evaluate_range() must be bit-identical to evaluate_cell()
// (the scalar reference), cell for cell, over every canonical class and
// randomized (n, lut_budget, objective) grids, for ranges that split grid
// rows as well as whole ones.

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

/// Whether the class named @p name prices differently across LUT budgets.
bool reads_lut_budget(const TaxonomicName& name) {
  return cost::CostPlan(taxonomy_index().by_name(name)->machine,
                        cost::ComponentLibrary::default_library())
      .depends_v();
}

// A range runs the same kernel whether or not it splits rows: each cell
// is the better of its row's winner and its LUT budget's winner.  Every
// one-cell range, random cuts and the full range must land on the scalar
// reference's bits, on seeded random grids and on grids that stress each
// winner: small LUT budgets where USP (the one class whose cost reads v)
// wins some cells and loses others, under two objectives and one; a floor
// only USP clears (no row winner); and a floor nothing clears (no winner
// of either kind).  No filter leaves every other class but drops USP:
// universal flow satisfies every paradigm and need.
TEST(SweepBatch, RowSplittingRangesAgreeWithFullRange) {
  std::mt19937_64 rng(11);
  std::vector<SweepGrid> grids;
  for (int i = 0; i < 3; ++i) grids.push_back(random_grid(rng));
  SweepGrid mixed;
  mixed.n_values = {1, 3, 16, 200};
  mixed.lut_budgets = {1, 2, 5, 40, 3000, 1 << 18};
  mixed.objectives = {Requirements::Objective::MinConfigBits,
                      Requirements::Objective::MinArea};
  grids.push_back(mixed);
  mixed.objectives = {Requirements::Objective::MinArea};
  grids.push_back(mixed);
  mixed.base.min_flexibility = 8;
  grids.push_back(mixed);
  mixed.base.min_flexibility = 9;
  grids.push_back(mixed);

  struct Wins {
    std::size_t lut = 0, row = 0;
  };
  std::vector<Wins> wins;
  for (std::size_t g = 0; g < grids.size(); ++g) {
    const SweepEvaluator evaluator(grids[g]);
    const std::size_t cells = evaluator.cell_count();
    std::vector<SweepPoint> scalar(cells);
    Wins& won = wins.emplace_back();
    for (std::size_t i = 0; i < cells; ++i) {
      scalar[i] = evaluator.evaluate_cell(i);
      if (scalar[i].feasible) {
        ++(reads_lut_budget(scalar[i].best) ? won.lut : won.row);
      }
    }
    std::vector<CellRange> ranges = {{0, cells}};
    for (std::size_t i = 0; i < cells; ++i) ranges.push_back({i, i + 1});
    std::uniform_int_distribution<std::size_t> cut(0, cells);
    for (int round = 0; round < 16; ++round) {
      std::size_t a = cut(rng), b = cut(rng);
      if (a > b) std::swap(a, b);
      ranges.push_back({a, b});
    }
    for (const CellRange& range : ranges) {
      std::vector<SweepPoint> part(range.end - range.begin);
      evaluator.evaluate_range(range.begin, range.end, part.data());
      for (std::size_t i = range.begin; i < range.end; ++i) {
        EXPECT_EQ(part[i - range.begin], scalar[i])
            << "grid " << g << " range [" << range.begin << ","
            << range.end << ") cell " << i;
      }
    }
  }
  // Both winners decide cells of the small-budget grids.
  for (const std::size_t g : {3u, 4u}) {
    EXPECT_GT(wins[g].lut, 0u) << "grid " << g;
    EXPECT_GT(wins[g].row, 0u) << "grid " << g;
  }
  EXPECT_EQ(wins[5].lut, grids[5].cell_count());
  EXPECT_EQ(wins[5].row, 0u);
  EXPECT_EQ(wins[6].lut + wins[6].row, 0u);
}

// The kernel's profile counters read exact totals: a range prices the
// candidates whose cost does not read v once per row piece it touches,
// and takes each LUT budget's winner from the table the evaluator built
// when it was constructed; SweepCell counts only direct evaluate_cell()
// calls, which the kernel never makes.
TEST(SweepProfile, TracedRangesCountCostEvaluationsAndScalarCellsExactly) {
  SweepGrid grid;
  grid.n_values = {2, 8, 64};
  for (std::int64_t v = 1; grid.lut_budgets.size() < 130; v += 97) {
    grid.lut_budgets.push_back(v);  // re-pricing v per row adds 130
  }
  grid.objectives = {Requirements::Objective::MinConfigBits,
                     Requirements::Objective::MinArea};
  const SweepEvaluator evaluator(grid);
  ASSERT_EQ(evaluator.row_cells(), 260u);
  ASSERT_EQ(evaluator.cell_count(), 780u);

  trace::Tracer& tracer = trace::Tracer::instance();
  tracer.disable();
  tracer.clear();
  tracer.enable();
  std::vector<SweepPoint> out(evaluator.cell_count());
  // Four row pieces: row 0 whole; row 1 whole and the head of row 2 (a
  // range that ends inside it); the rest of row 2 (one that starts inside).
  for (const CellRange& range :
       {CellRange{0, 260}, CellRange{260, 600}, CellRange{600, 780}}) {
    evaluator.evaluate_range(range.begin, range.end,
                             out.data() + range.begin);
  }
  tracer.disable();
  const trace::TraceSnapshot snap = tracer.snapshot();
  tracer.clear();

  const auto calls = [&](trace::ProfilePoint point) {
    return snap.profile[static_cast<std::size_t>(point)].calls;
  };
  // 43 candidates; the one that reads v was priced per LUT budget when
  // the evaluator was built, before tracing started: 4 row pieces x 42.
  EXPECT_EQ(evaluator.candidate_count(), 43u);
  EXPECT_EQ(calls(trace::ProfilePoint::CostEvaluate), 168u);
  EXPECT_EQ(calls(trace::ProfilePoint::SweepCell), 0u);
}

// ---------------------------------------------------------------------------
// Factored kernel: a sweep is its row and LUT-budget winners, expanded
// once.  Every cell must land on the scalar oracle's bits and the front
// on the quadratic reference's points, sized exactly, on the grids a
// served sweep sees (requirements that leave a front of a few percent of
// the cells) and on the edge shapes of the factors.

/// A seeded grid under a random requirement set: min_flexibility 0..9
/// and each needs_* flag one time in four.
SweepGrid requirement_grid(std::mt19937_64& rng) {
  std::uniform_int_distribution<std::int64_t> n_dist(1, 512);
  std::uniform_int_distribution<std::int64_t> v_dist(1, 1 << 14);
  std::uniform_int_distribution<int> axis(1, 24);
  SweepGrid grid;
  grid.base.min_flexibility = static_cast<int>(rng() % 10);
  grid.base.needs_independent_programs = rng() % 4 == 0;
  grid.base.needs_pe_exchange = rng() % 4 == 0;
  grid.base.needs_shared_memory = rng() % 4 == 0;
  for (int i = axis(rng); i > 0; --i) grid.n_values.push_back(n_dist(rng));
  for (int i = axis(rng); i > 0; --i) grid.lut_budgets.push_back(v_dist(rng));
  grid.objectives = {Requirements::Objective::MinConfigBits,
                     Requirements::Objective::MinArea};
  if (rng() % 4 == 0) grid.objectives.erase(grid.objectives.begin() + rng() % 2);
  return grid;
}

/// Equal down to the bits of the area, so NaN equals NaN.
bool same_point(const SweepPoint& a, const SweepPoint& b) {
  return a.n == b.n && a.lut_budget == b.lut_budget &&
         a.objective == b.objective && a.feasible == b.feasible &&
         a.best == b.best && a.flexibility == b.flexibility &&
         std::bit_cast<std::uint64_t>(a.area_kge) ==
             std::bit_cast<std::uint64_t>(b.area_kge) &&
         a.config_bits == b.config_bits;
}

void expect_same_points(const std::vector<SweepPoint>& got,
                        const std::vector<SweepPoint>& want,
                        const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(same_point(got[i], want[i])) << what << " point " << i;
  }
}

/// What every path must answer for @p grid: the scalar oracle's cells
/// and the reference front over them.
SweepResult oracle_sweep(const SweepGrid& grid,
                         const cost::ComponentLibrary& lib =
                             cost::ComponentLibrary::default_library()) {
  const SweepEvaluator evaluator(grid, lib);
  SweepResult result;
  result.candidate_classes = evaluator.candidate_count();
  for (std::size_t i = 0; i < evaluator.cell_count(); ++i) {
    result.points.push_back(evaluator.evaluate_cell(i));
  }
  result.pareto_front = detail::pareto_front_reference(result.points);
  return result;
}

TEST(SweepFactors, RequirementGridsMatchTheScalarOracleAndReferenceFront) {
  std::mt19937_64 rng(3131);
  std::size_t small_fronts = 0;
  for (int round = 0; round < 400; ++round) {
    const SweepGrid grid = requirement_grid(rng);
    const SweepResult want = oracle_sweep(grid);
    const SweepResult got = sweep(grid);
    EXPECT_EQ(got, want) << "round " << round;
    // The factors counted the front exactly: it was allocated once.
    EXPECT_EQ(got.pareto_front.capacity(), want.pareto_front.size())
        << "round " << round;
    if (want.pareto_front.size() * 10 < want.points.size()) ++small_fronts;
  }
  // The mix really exercises fronts that are a small part of the grid.
  EXPECT_GT(small_fronts, 200u);
}

// Edge shapes: rows with no winner of their own (min_flexibility 8
// leaves only USP, whose cost reads v), a floor nothing clears,
// single-axis and one-cell grids, repeated axis values and objectives,
// and costs a custom library pushes to infinity or NaN, where ties and
// unordered areas must keep the winners' sort a strict weak order.
TEST(SweepFactors, EdgeShapesMatchTheScalarOracle) {
  using Objective = Requirements::Objective;
  struct Case {
    std::string name;
    SweepGrid grid;
    cost::ComponentLibrary lib = cost::ComponentLibrary::default_library();
  };
  std::vector<Case> cases;
  SweepGrid base;
  base.n_values = {1, 4, 64, 300};
  base.lut_budgets = {1, 3, 40, 900, 1 << 16};
  base.objectives = {Objective::MinConfigBits, Objective::MinArea};

  Case only_usp{"only USP", base};
  only_usp.grid.base.min_flexibility = 8;
  cases.push_back(only_usp);
  Case none{"nothing clears", base};
  none.grid.base.min_flexibility = 9;
  cases.push_back(none);
  Case one_n{"one n", base};
  one_n.grid.n_values = {16};
  cases.push_back(one_n);
  Case one_v{"one LUT budget", base};
  one_v.grid.lut_budgets = {7};
  cases.push_back(one_v);
  Case one_objective{"one objective", base};
  one_objective.grid.objectives = {Objective::MinArea};
  cases.push_back(one_objective);
  cases.push_back({"one cell", SweepGrid{}});
  Case repeats{"repeated values", base};
  repeats.grid.n_values = {8, 8, 2, 8};
  repeats.grid.lut_budgets = {5, 5, 1};
  repeats.grid.objectives = {Objective::MinArea, Objective::MinConfigBits,
                             Objective::MinArea};
  cases.push_back(repeats);
  Case infinite{"infinite areas", base};
  infinite.grid.n_values = {1, 1000, std::int64_t{1} << 40};
  for (cost::ComponentParams* block :
       {&infinite.lib.ip, &infinite.lib.dp, &infinite.lib.im,
        &infinite.lib.dm, &infinite.lib.lut}) {
    block->area_kge = 1e308;  // any two blocks sum to infinity
  }
  cases.push_back(infinite);
  // Every class but USP gets a NaN area; budgets large enough that they
  // still win cells on configuration bits.
  Case unordered{"NaN areas", base};
  unordered.grid.lut_budgets = {900, 1 << 16};
  unordered.lib.dp.area_kge = std::numeric_limits<double>::quiet_NaN();
  cases.push_back(unordered);

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const SweepResult want = oracle_sweep(c.grid, c.lib);
    const SweepResult got = sweep(c.grid, c.lib);
    expect_same_points(got.points, want.points, "points");
    expect_same_points(got.pareto_front, want.pareto_front, "front");
    EXPECT_EQ(got.candidate_classes, want.candidate_classes);
  }
  // The infinite case really ties at infinity, and the NaN case really
  // carries NaN areas onto its front, while a NaN area never wins a
  // cell by area: it sorts after every number.
  const auto any = [](const std::vector<SweepPoint>& points, auto pred) {
    return std::any_of(points.begin(), points.end(), pred);
  };
  EXPECT_TRUE(any(sweep(infinite.grid, infinite.lib).points,
                  [](const SweepPoint& p) { return std::isinf(p.area_kge); }));
  const SweepResult nan_areas = sweep(unordered.grid, unordered.lib);
  EXPECT_TRUE(any(nan_areas.pareto_front,
                  [](const SweepPoint& p) { return std::isnan(p.area_kge); }));
  EXPECT_FALSE(any(nan_areas.points, [](const SweepPoint& p) {
    return p.objective == Objective::MinArea && std::isnan(p.area_kge);
  }));
}

// The factors need every candidate's cost to ignore n or the LUT budget.
// A plan forced to read both (a machine whose processors scale with n
// and whose data processors with v) is refused when an evaluator would
// be built; every named class passes.
TEST(SweepFactors, APlanReadingBothAxesIsRefused) {
  const cost::ComponentLibrary lib = cost::ComponentLibrary::default_library();
  MachineClass both;
  both.granularity = Granularity::IpDp;
  both.ips = Multiplicity::Many;
  both.dps = Multiplicity::Variable;
  const cost::CostPlan plan(both, lib);
  ASSERT_TRUE(plan.depends_n());
  ASSERT_TRUE(plan.depends_v());
  EXPECT_THROW(detail::require_separable(plan, TaxonomicName{}),
               std::logic_error);
  for (const TaxonomyIndex::ClassInfo& row : taxonomy_index().rows()) {
    if (!row.named) continue;
    EXPECT_NO_THROW(
        detail::require_separable(cost::CostPlan(row.machine, lib), row.name))
        << "serial " << row.serial;
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
    const std::vector<SweepPoint> front = pareto_front(points);
    EXPECT_EQ(ids(front), ids(detail::pareto_front_reference(points)))
        << "round " << round;
    // The summary's survivor count sized the front exactly.
    EXPECT_EQ(front.capacity(), front.size()) << "round " << round;
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
// split_range: the one chunk rule of the engine's grid jobs and the
// cluster proxy's scatter.

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
    // Fill the queue so the job's tasks cannot all fit: two of the three
    // slots against a curve's three chunks, all three against a sweep's
    // one task.
    const std::size_t fill =
        std::holds_alternative<SweepRequest>(job) ? 3 : 2;
    std::vector<std::future<QueryResponse>> fillers;
    for (std::size_t i = 0; i < fill; ++i) {
      fillers.push_back(engine.submit(RecommendRequest{}));
    }
    QueryResponse rejected = engine.submit(job).get();
    EXPECT_EQ(rejected.status.code, StatusCode::QueueFull);
    EXPECT_EQ(engine.queue_depth(), fill);  // no chunk was left behind
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
    if (std::holds_alternative<SweepRequest>(job)) {
      EXPECT_EQ(engine.queue_depth(), 1u);  // a sweep is one task
    } else {
      EXPECT_GT(engine.queue_depth(), 1u);  // really split into chunks
    }
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


// Every serving path runs the factored kernel and lands on the scalar
// oracle: inline execute(), the worker pool, the library sweep(), and
// chunk requests over one-cell and partial-row ranges.
TEST(SweepService, EveryPathMatchesTheScalarOracleOnRequirementGrids) {
  EngineOptions inline_options;
  inline_options.worker_threads = 0;
  inline_options.enable_cache = false;
  QueryEngine inline_engine(inline_options);
  EngineOptions pool_options;
  pool_options.worker_threads = 2;
  pool_options.enable_cache = false;
  QueryEngine pool_engine(pool_options);

  std::mt19937_64 rng(3232);
  for (int round = 0; round < 12; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const explore::SweepGrid grid = explore::requirement_grid(rng);
    const explore::SweepResult want = explore::oracle_sweep(grid);

    for (QueryEngine* engine : {&inline_engine, &pool_engine}) {
      const QueryResponse response = engine->submit(SweepRequest{grid}).get();
      ASSERT_TRUE(response.ok()) << response.status.to_string();
      ASSERT_NE(response.sweep(), nullptr);
      EXPECT_EQ(response.sweep()->result, want);
    }
    const QueryResponse executed = inline_engine.execute(SweepRequest{grid});
    ASSERT_NE(executed.sweep(), nullptr);
    EXPECT_EQ(executed.sweep()->result, want);
    EXPECT_EQ(explore::sweep(grid), want);

    const std::size_t cells = want.points.size();
    const std::size_t row = explore::SweepShape(grid).row_cells();
    std::vector<CellRange> ranges = {{0, 1}, {cells - 1, cells}};
    if (cells > row) ranges.push_back({row / 2, std::min(cells, row + row / 2 + 1)});
    for (const CellRange& range : ranges) {
      const QueryResponse chunk = inline_engine.execute(
          SweepChunkRequest{grid, range.begin, range.end});
      ASSERT_NE(chunk.sweep_chunk(), nullptr) << chunk.status.to_string();
      EXPECT_EQ(chunk.sweep_chunk()->points,
                std::vector<explore::SweepPoint>(
                    want.points.begin() + static_cast<std::ptrdiff_t>(range.begin),
                    want.points.begin() + static_cast<std::ptrdiff_t>(range.end)))
          << "[" << range.begin << ", " << range.end << ")";
    }
  }
}

}  // namespace
}  // namespace mpct::service
