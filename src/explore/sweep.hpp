#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "core/taxonomy_index.hpp"
#include "cost/cost_plan_set.hpp"
#include "explore/recommend.hpp"

namespace mpct::explore {

/// The (n x lut_budget x objective) design-space grid a sweep covers.
///
/// `base` carries everything a single recommend() call would take except
/// the swept axes: paradigm, the needs_* constraints and min_flexibility
/// all apply uniformly across the grid (they are design-point
/// independent, so the candidate set is filtered exactly once per
/// sweep).  Empty axis vectors normalize to the corresponding value in
/// `base`, so a default SweepGrid prices one point.
struct SweepGrid {
  Requirements base;
  std::vector<std::int64_t> n_values;
  std::vector<std::int64_t> lut_budgets;
  std::vector<Requirements::Objective> objectives;

  /// Copy with empty axes replaced by the single base value.
  SweepGrid normalized() const;
  /// Cell count of the normalized grid.
  std::size_t cell_count() const;

  bool operator==(const SweepGrid&) const = default;
};

/// One evaluated grid cell: the winning class (if any) at this design
/// point under this objective, with its costs.
struct SweepPoint {
  std::int64_t n = 0;
  std::int64_t lut_budget = 0;
  Requirements::Objective objective = Requirements::Objective::MinConfigBits;
  bool feasible = false;  ///< false iff no class passed the filter
  TaxonomicName best;     ///< valid only when feasible
  int flexibility = 0;
  double area_kge = 0;
  std::int64_t config_bits = 0;

  bool operator==(const SweepPoint&) const = default;
};

/// Full sweep output: every cell, plus the per-objective Pareto front
/// over (flexibility maximize, objective cost minimize).
struct SweepResult {
  std::vector<SweepPoint> points;        ///< row-major (n, lut, objective)
  std::vector<SweepPoint> pareto_front;  ///< non-dominated subset
  std::size_t candidate_classes = 0;     ///< rows surviving the filter

  bool operator==(const SweepResult&) const = default;
};

/// Mergeable summary of a point set's Pareto front: for each objective,
/// the minimum cost at each flexibility over the feasible points added.
///
/// A point dominates another of the same objective when its flexibility
/// is >= and its objective cost is <= with at least one strict, so a
/// point (f, c) is dominated exactly when the summarised points with
/// flexibility >= f include a cost below c, or those with flexibility
/// > f include a cost no greater than c.  Per-flexibility minima over a
/// union are the minima of the parts' minima, so summaries built over
/// disjoint chunks (each while its cells are cache-hot) and combined in
/// any order equal the summary of all the points: a point dominated
/// within its chunk is dominated globally, and the combined summary
/// finds every domination across chunks.  A NaN cost fails every
/// comparison, so it never enters a minimum and is never dominated.
///
/// Flexibilities in [0, 64) (the taxonomy scores 0..8) land in dense
/// slots; any other int (hostile wire input) is kept as a (flexibility,
/// cost) pair and resolved by sorting once in filter(), O(N log N).
class FrontSummary {
 public:
  /// Flexibilities 0..kDenseSlots-1 take the dense slots.
  static constexpr int kDenseSlots = 64;

  FrontSummary() = default;
  explicit FrontSummary(std::span<const SweepPoint> points) { add(points); }

  /// Fold @p points into the summary.
  void add(std::span<const SweepPoint> points);
  /// Fold another summary in.  add() and combine() commute.
  void combine(const FrontSummary& other);

  /// The points of @p points that no summarised point dominates, in
  /// input order; infeasible points never appear.  @p points must be
  /// the points summarised: the summary then knows the front's size, so
  /// the front is reserved to exactly that (cached payloads hold it) and
  /// one scan copies each run of survivors in bulk as it ends.  When
  /// every point survives, as on most taxonomy grids, the scan is
  /// skipped and the points are copied whole.
  std::vector<SweepPoint> filter(std::span<const SweepPoint> points) const;

 private:
  /// One objective's minimum cost at each flexibility, with how many
  /// points share it (the ones that can be on the front).
  template <typename Cost>
  struct MinCost {
    std::array<Cost, kDenseSlots> dense{};  ///< valid where `present`
    std::array<std::size_t, kDenseSlots> ties{};  ///< points at dense[f]
    std::uint64_t present = 0;              ///< bit f: dense[f] is set
    std::vector<std::pair<int, Cost>> wide;  ///< flexibility outside dense
    std::size_t unordered = 0;  ///< NaN costs: never dominated

    void add(int flexibility, Cost cost, std::size_t count = 1);
    void combine(const MinCost& other);
  };

  MinCost<std::int64_t> bits_;  ///< MinConfigBits points, by config_bits
  MinCost<double> area_;        ///< MinArea points, by area_kge
};

/// Cells of @p points not dominated by any other cell under the same
/// objective (see FrontSummary), in input order: the summary of the one
/// range, then its filter.  Returns exactly the front
/// detail::pareto_front_reference computes, in the same order.
std::vector<SweepPoint> pareto_front(const std::vector<SweepPoint>& points);

/// The same front, when @p points were split into chunks and @p chunks
/// holds each chunk's summary (in any order): combine, then filter once.
/// Exact, because a union's minimum cost at each flexibility is the
/// minimum of its chunks' minima, and a NaN cost never enters one.
/// The one merge of sweep(), the engine's grid jobs and the proxy.
std::vector<SweepPoint> pareto_front(std::span<const SweepPoint> points,
                                     std::span<const FrontSummary> chunks);

namespace detail {

/// The original all-pairs O(N^2) implementation, kept as the oracle the
/// randomized equivalence tests compare the front against
/// (tests/test_sweep.cpp, ParetoFront.MatchesReference* and
/// FrontSummary.*).
std::vector<SweepPoint> pareto_front_reference(
    const std::vector<SweepPoint>& points);

}  // namespace detail

/// Memoized sweep evaluator.  Construction filters the 47-row taxonomy
/// once against `grid.base` and folds each survivor's Eq. 1 / Eq. 2
/// invariants into one slot of a plan-major cost::CostPlanSet; each
/// candidate's interned name and flexibility are cached alongside, so
/// cell evaluation touches no taxonomy or library state at all.
///
/// evaluate_range() runs the batch kernel: cell indices are decoded once
/// per grid row (no per-cell div/mod), candidates whose cost is
/// independent of the LUT-budget axis are priced once per row and folded
/// into a per-objective champion, and the remaining candidates are
/// evaluated candidate-major over cache-sized blocks of LUT-budget lanes
/// before a per-cell winner reduction.  evaluate_cell() is the scalar
/// reference the parity tests compare against.
///
/// Bit-identity contract: both paths pick the same winner with
/// bit-identical costs as `recommend()` called at that cell's
/// Requirements and taking the front row (tests/test_sweep.cpp).  This
/// holds because each candidate's cost at a given (n, v) is computed by
/// the one shared cost::detail::evaluate_terms kernel regardless of
/// batching, and the winner ordering (`cell_precedes`, tie-broken by the
/// unique interned class name) is a strict total order — the minimum is
/// a property of the cell's cost set, independent of fold order or how
/// cells are partitioned into ranges.
///
/// Thread safety: immutable after construction; evaluate_cell() and
/// evaluate_range() are const and touch only the output range (batch
/// scratch is per-call) — workers may share one evaluator and write
/// disjoint ranges concurrently.
class SweepEvaluator {
 public:
  explicit SweepEvaluator(const SweepGrid& grid,
                          const cost::ComponentLibrary& lib =
                              cost::ComponentLibrary::default_library());

  std::size_t cell_count() const { return cells_; }
  std::size_t candidate_count() const { return candidates_.size(); }

  /// Cells per grid row (one n value x all LUT budgets x all
  /// objectives) — the batch kernel's natural granularity.  Chunking
  /// callers round their chunk sizes up to a multiple of this so no
  /// range splits a row (a split row still evaluates correctly, just
  /// through the scalar edge path).
  std::size_t row_cells() const {
    return grid_.lut_budgets.size() * grid_.objectives.size();
  }

  /// Evaluate one cell by flat row-major index
  /// `(ni * lut_budgets.size() + li) * objectives.size() + oi`.
  /// Scalar reference path.
  SweepPoint evaluate_cell(std::size_t index) const;

  /// Evaluate cells [begin, end) into @p out (out[i] = cell begin + i)
  /// through the batch kernel (scalar edge path for partial rows).
  void evaluate_range(std::size_t begin, std::size_t end,
                      SweepPoint* out) const;

  const SweepGrid& grid() const { return grid_; }

 private:
  /// Everything the winner reduction reads about one candidate, cached
  /// at construction (the plan itself lives in plans_ at the same
  /// index).
  struct Candidate {
    TaxonomicName name;
    std::string_view interned;  ///< unique -> cell_precedes totally orders
    int flexibility = 0;
  };

  /// Best v-independent candidate of a row under one objective.
  struct Champion;

  void evaluate_row_batch(std::size_t ni, SweepPoint* out,
                          cost::CostPoint* scratch, Champion* champ) const;

  SweepGrid grid_;  ///< normalized
  std::size_t cells_ = 0;
  cost::CostPlanSet plans_;            ///< plan-major, index-aligned with
  std::vector<Candidate> candidates_;  ///< ...this metadata array
  std::vector<std::uint32_t> v_dep_;   ///< candidates whose cost reads v
  std::vector<std::uint32_t> v_indep_;  ///< ...and those priced once/row
};

/// Sweep the whole grid.  @p threads == 0 (or 1) evaluates sequentially
/// on the caller's thread; otherwise the cell range is split
/// (mpct::parallel_ranges) across scoped workers writing disjoint slices
/// of the result, each folding its slice into its own FrontSummary for
/// the one filter pass (results are bit-identical either way).  The worker
/// count is clamped to std::thread::hardware_concurrency() —
/// oversubscribing cores only adds scheduling overhead to a CPU-bound
/// kernel — and chunks align to whole grid rows so every worker runs the
/// batch path.  The service layer instead chunks over its own worker
/// pool (engine.cpp); this entry point is for library callers and for
/// the sequential reference the tests compare against.
SweepResult sweep(const SweepGrid& grid,
                  const cost::ComponentLibrary& lib =
                      cost::ComponentLibrary::default_library(),
                  unsigned threads = 0);

}  // namespace mpct::explore
