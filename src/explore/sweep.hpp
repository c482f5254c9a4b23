#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "core/taxonomy_index.hpp"
#include "cost/cost_plan.hpp"
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

/// Summary of a point set's Pareto front: for each objective, the
/// minimum cost at each flexibility over the feasible points added.
///
/// A point dominates another of the same objective when its flexibility
/// is >= and its objective cost is <= with at least one strict, so a
/// point (f, c) is dominated exactly when the summarised points with
/// flexibility >= f include a cost below c, or those with flexibility
/// > f include a cost no greater than c.  A NaN cost fails every
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
  /// Fold @p count points with @p point's objective, flexibility and
  /// cost (nothing when it is infeasible or @p count is 0).
  void add(const SweepPoint& point, std::size_t count);

  /// The points of @p points that no summarised point dominates, in
  /// input order; infeasible points never appear.  @p points must be
  /// the points summarised: the summary then knows the front's size, so
  /// the front is reserved to exactly that (cached payloads hold it) and
  /// one scan copies each run of survivors in bulk as it ends.  When
  /// every point survives, as on most taxonomy grids, the scan is
  /// skipped and the points are copied whole.
  std::vector<SweepPoint> filter(std::span<const SweepPoint> points) const;

  /// Set on_front[i] to whether no summarised point dominates points[i]
  /// (0 for an infeasible one) and return how many summarised points are
  /// on the front.  What filter() decides per point, for callers that
  /// summarised weighted points (add(point, count)) and expand the
  /// front themselves.
  std::size_t mark(std::span<const SweepPoint> points,
                   std::span<std::uint8_t> on_front) const;

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
  };

  MinCost<std::int64_t> bits_;  ///< MinConfigBits points, by config_bits
  MinCost<double> area_;        ///< MinArea points, by area_kge
};

/// Cells of @p points not dominated by any other cell under the same
/// objective (see FrontSummary), in input order: the summary of the one
/// range, then its filter.  Returns exactly the front
/// detail::pareto_front_reference computes, in the same order.  The
/// cluster proxy's merge runs it once over the chunk answers it gathers.
std::vector<SweepPoint> pareto_front(const std::vector<SweepPoint>& points);

namespace detail {

/// The original all-pairs O(N^2) implementation, kept as the oracle the
/// randomized equivalence tests compare the front against
/// (tests/test_sweep.cpp, ParetoFront.MatchesReference*).
std::vector<SweepPoint> pareto_front_reference(
    const std::vector<SweepPoint>& points);

}  // namespace detail

/// The shape of a sweep, read without pricing anything: what the
/// cluster proxy needs to split a grid into chunks and to label the
/// merged answer.  The candidate filter reads only the grid's
/// requirements, never a component library, so every backend reports
/// the same count.
class SweepShape {
 public:
  explicit SweepShape(const SweepGrid& grid);

  std::size_t cell_count() const { return cells_; }
  /// LUT budgets x objectives of the normalized grid.
  std::size_t row_cells() const { return row_; }
  std::size_t candidate_count() const { return candidates_; }

 private:
  std::size_t cells_ = 0;
  std::size_t row_ = 0;
  std::size_t candidates_ = 0;
};

/// A sweep in factored form, for the grid rows [first_row, first_row +
/// rows): per (row, objective), the winner among the candidates whose
/// cost ignores the LUT budget, and where it cuts into its objective's
/// sorted LUT-budget winners (SweepEvaluator).  Cell (n, v, o) is the
/// better of its row's winner and its LUT budget's winner, so these
/// (rows + LUT budgets) x objectives winners fix every cell.  Once
/// SweepEvaluator::mark_front() has run over factors of every row, each
/// winner also carries whether its cells are on the Pareto front, and
/// `front_size` counts those cells.
struct SweepFactors {
  std::size_t first_row = 0;
  std::size_t rows = 0;
  /// [r * objectives + oi]: the winner of row first_row + r under
  /// objectives[oi], as a cell's winner fields (n and lut_budget unset;
  /// infeasible when no such candidate passed the filter).
  std::vector<SweepPoint> row_best;
  /// [r * objectives + oi]: how many of objectives[oi]'s LUT-budget
  /// winners precede that row winner (all feasible ones, when it is
  /// empty); a cell takes its LUT-budget winner exactly when that
  /// winner's rank is below the cut.
  std::vector<std::size_t> row_cut;
  /// Set by mark_front(): [r * objectives + oi] / [li * objectives + oi]
  /// is 1 when that row / LUT-budget winner's cells are on the front.
  std::vector<std::uint8_t> row_front;
  std::vector<std::uint8_t> lut_front;
  std::size_t front_size = 0;
};

/// Memoized sweep evaluator.  Construction filters the 47-row taxonomy
/// once against `grid.base` and folds each survivor's Eq. 1 / Eq. 2
/// invariants into one cost::CostPlan of a contiguous vector; each
/// candidate's interned name and flexibility are cached alongside, so
/// cell evaluation touches no taxonomy or library state at all.
///
/// The grid is separable: no named class's cost reads both n and the
/// LUT budget v (CostPlan::depends_n / depends_v; the census in
/// CostPlan.ClearedAxisFlagMeansTheCostIgnoresThatAxis pins it, and
/// construction checks it, throwing std::logic_error if a candidate
/// reads both), so a cell's winner is the better of its row's winner and
/// its LUT budget's.  Construction prices the candidates whose cost
/// reads v at the first n, folds them into one winner per (LUT budget,
/// objective) and sorts each objective's LUT-budget winners once.
///
/// Every evaluation is factors, then one expansion:
///  * factors() prices the candidates that ignore v once per row and
///    finds, by one binary search, where each row winner cuts into the
///    sorted LUT-budget winners;
///  * mark_front() counts each winner's cells from the cuts alone,
///    folds the counts into a FrontSummary and flags the winners on the
///    front, O((N + V) log(N + V)) for N rows and V LUT budgets;
///  * expand() writes cells: per cell, one integer compare of the
///    LUT-budget winner's rank against the row winner's cut picks the
///    record to copy.
/// evaluate_range() is factors for the rows it touches plus expand();
/// evaluate_all() and front() are the whole answer.  evaluate_cell()
/// prices every candidate at the cell, the scalar reference of the
/// parity tests.
///
/// Bit-identity contract: every path picks the same winner with
/// bit-identical costs as `recommend()` called at that cell's
/// Requirements and taking the front row (tests/test_sweep.cpp).  This
/// holds because each candidate's cost at a given (n, v) is computed by
/// the one CostPlan kernel regardless of batching (a cost that does not
/// read an axis is bit-identical at every value of it), and the winner
/// ordering (`cell_precedes`, tie-broken by the unique interned class
/// name, NaN areas after every number) is a strict total order — the
/// minimum is a property of the cell's cost set, independent of fold
/// order, and the LUT-budget winners that beat a row winner are a
/// prefix of their sorted order.
///
/// Thread safety: immutable after construction; every method is const
/// and writes only its output — workers may share one evaluator and
/// write disjoint ranges concurrently.  Not copyable: the LUT-budget
/// winners point into the evaluator's own candidates.
class SweepEvaluator {
 public:
  explicit SweepEvaluator(const SweepGrid& grid,
                          const cost::ComponentLibrary& lib =
                              cost::ComponentLibrary::default_library());
  SweepEvaluator(const SweepEvaluator&) = delete;
  SweepEvaluator& operator=(const SweepEvaluator&) = delete;

  std::size_t cell_count() const { return cells_; }
  std::size_t candidate_count() const { return candidates_.size(); }

  /// Cells per grid row (one n value x all LUT budgets x all
  /// objectives).  Chunking callers round their chunk sizes up to a
  /// multiple of this so each range prices its rows' winners once per
  /// row (a split row still evaluates correctly, pricing them once per
  /// piece).
  std::size_t row_cells() const {
    return grid_.lut_budgets.size() * grid_.objectives.size();
  }

  /// Evaluate one cell by flat row-major index
  /// `(ni * lut_budgets.size() + li) * objectives.size() + oi`.
  /// Scalar reference path.
  SweepPoint evaluate_cell(std::size_t index) const;

  /// Evaluate cells [begin, end) into @p out (out[i] = cell begin + i).
  void evaluate_range(std::size_t begin, std::size_t end,
                      SweepPoint* out) const;

  /// The whole grid: every cell appended to @p points (reserve it first
  /// to choose where that allocation happens), returning the factors of
  /// every row with the front marked, for front().
  SweepFactors evaluate_all(std::vector<SweepPoint>& points) const;
  /// The Pareto front of the whole grid, allocated at its exact size,
  /// from evaluate_all()'s factors.
  std::vector<SweepPoint> front(const SweepFactors& factors) const;

  /// Cells [begin, end), which must lie in @p factors' rows, into @p out
  /// (out[i] = cell begin + i).
  void expand(const SweepFactors& factors, std::size_t begin,
              std::size_t end, SweepPoint* out) const;

 private:
  /// Factors of rows [row_begin, row_end).
  SweepFactors factors(std::size_t row_begin, std::size_t row_end) const;
  /// Count the cells each winner takes, flag the winners on the Pareto
  /// front and size it.  @p factors must cover every row.
  void mark_front(SweepFactors& factors) const;
  /// Append cells [begin, end) to @p out; with @p front_only, only the
  /// cells on the front, in index order (mark_front() must have run).
  void expand(const SweepFactors& factors, std::size_t begin,
              std::size_t end, std::vector<SweepPoint>& out,
              bool front_only = false) const;

  /// Everything the winner reduction reads about one candidate, cached
  /// at construction (the plan itself lives in plans_ at the same
  /// index).
  struct Candidate {
    TaxonomicName name;
    std::string_view interned;  ///< unique -> cell_precedes totally orders
    int flexibility = 0;
  };

  /// The running winner of one cell under one objective.  Offer it each
  /// candidate's cost in any order: the cell_precedes minimum stays.
  struct Winner {
    explicit Winner(Requirements::Objective objective = {})
        : objective(objective) {}

    Requirements::Objective objective;
    const Candidate* best = nullptr;
    cost::CostPoint cost;

    void offer(const Candidate& candidate, const cost::CostPoint& offered);
    /// Whether this winner precedes @p other under cell_precedes; a
    /// winner precedes every empty one, and an empty one nothing.
    bool precedes(const Winner& other) const;
    /// Fill @p point's winner fields; a cell no candidate reached stays
    /// infeasible.
    void write(SweepPoint& point) const;
  };

  /// The one expansion loop: each cell of [begin, end) (on the front
  /// only, with @p front_only) is handed to @p emit in index order.
  template <typename Emit>
  void expand_cells(const SweepFactors& factors, std::size_t begin,
                    std::size_t end, bool front_only, Emit&& emit) const;

  SweepGrid grid_;  ///< normalized
  std::size_t cells_ = 0;
  std::vector<cost::CostPlan> plans_;  ///< contiguous, index-aligned with
  std::vector<Candidate> candidates_;  ///< ...this metadata array
  std::vector<std::uint32_t> per_row_;  ///< candidates whose cost ignores v
  /// [li * objectives.size() + oi]: the winner among the candidates whose
  /// cost reads v, at lut_budgets[li] under objectives[oi] ...
  std::vector<Winner> lut_winners_;
  /// ...as a cell's winner fields (n and lut_budget unset)...
  std::vector<SweepPoint> lut_best_;
  /// ...and its position among objectives[oi]'s LUT-budget winners
  /// sorted by Winner::precedes (empty ones last, past every cut).
  std::vector<std::size_t> lut_rank_;
  /// [oi * lut_budgets.size() + k]: the index into lut_winners_ of
  /// objectives[oi]'s k-th LUT-budget winner in that order.
  std::vector<std::size_t> lut_sorted_;
};

namespace detail {

/// Throws std::logic_error when @p plan, the plan of class @p name, reads
/// both n and the LUT budget: the factored sweep cannot price it.
void require_separable(const cost::CostPlan& plan, const TaxonomicName& name);

}  // namespace detail

/// Sweep the whole grid on the caller's thread: evaluate_all(), then
/// front() (SweepEvaluator).  The service layer runs a sweep as one task
/// on its worker pool (service/grid_kind.hpp); this entry point is for
/// library callers and for the sequential reference the tests compare
/// against.  It allocates and frees both result vectors on one thread,
/// so back-to-back calls can cross glibc's dynamic trim threshold and
/// fault both in again every time (~878 minor faults per 32,768-cell
/// call), which the engine's allocation placement avoids (docs/PERF.md).
SweepResult sweep(const SweepGrid& grid,
                  const cost::ComponentLibrary& lib =
                      cost::ComponentLibrary::default_library());

}  // namespace mpct::explore
