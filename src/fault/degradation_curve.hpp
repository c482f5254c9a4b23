#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cost/component_library.hpp"
#include "fault/degrade.hpp"
#include "fault/fault_model.hpp"

namespace mpct::fault {

/// The (fault-rate x trial) Monte-Carlo grid a degradation curve covers.
///
/// Determinism contract: trial t of rate r draws its FaultSet from
/// Rng::derive_seed(seed, r * trials_per_rate + t), so every cell's
/// outcome depends only on (spec, cell index) — never on thread count,
/// chunking, or evaluation order.  The same spec therefore produces a
/// byte-identical CSV on every run (tests/test_fault.cpp pins this
/// across 0, 1 and N worker threads).
struct CurveSpec {
  MachineClass machine;
  /// Binds the machine to a concrete FabricShape (Many -> n, Variable ->
  /// v), exactly as degrade() and the cost equations bind it.
  cost::EstimateOptions bindings;
  /// Optional mesh NoC laid over the fabric (router i at DP i); both 0
  /// to analyse the structural fabric alone.
  int noc_width = 0;
  int noc_height = 0;
  /// Swept axis: uniform per-component failure probabilities.
  std::vector<double> fault_rates;
  int trials_per_rate = 32;
  std::uint64_t seed = 1;

  /// Copy with an empty rate axis replaced by {0.0} and trials clamped
  /// to >= 1.
  CurveSpec normalized() const;
  std::size_t cell_count() const;

  friend bool operator==(const CurveSpec&, const CurveSpec&) = default;
};

/// One Monte-Carlo trial: the facts of a single degrade() call the
/// curve aggregates.  Plain data so chunk workers can write disjoint
/// slices.
struct TrialOutcome {
  bool alive = false;
  int degraded_score = 0;
  double flexibility_retention = 0;
  double component_survival = 1.0;
  /// Surviving connectivity: NoC reachable fraction when the spec lays
  /// a mesh over the fabric, else the surviving switch-port fraction.
  double connectivity = 1.0;

  friend bool operator==(const TrialOutcome&, const TrialOutcome&) = default;
};

/// Aggregated outcomes of all trials at one fault rate.
struct CurvePoint {
  double fault_rate = 0;
  int trials = 0;
  double yield = 0;               ///< fraction of trials still alive()
  double mean_flexibility = 0;    ///< mean flexibility retention
  double mean_connectivity = 0;   ///< mean connectivity retention
  double mean_survival = 0;       ///< mean component survival

  friend bool operator==(const CurvePoint&, const CurvePoint&) = default;
};

/// Full curve output.
struct CurveResult {
  CurveSpec spec;  ///< normalized
  std::vector<CurvePoint> points;  ///< one per fault rate, in axis order

  friend bool operator==(const CurveResult&, const CurveResult&) = default;
};

namespace detail {

/// Trials one census block draws together, one per lane.
inline constexpr std::size_t kCensusLanes = 8;
using LaneWords = std::array<std::uint64_t, kCensusLanes>;
using LaneCounts = std::array<std::int64_t, kCensusLanes>;

/// What one census block drew.  Per lane: the dead components of each
/// population (DPs include those a dead co-located router killed, as in
/// DeadCensus), and the hit masks (-1 hit, 0 miss) of the draws whose
/// identity matters, laid out [item * kCensusLanes + lane].
struct CensusBlock {
  LaneCounts ips{};
  LaneCounts dps{};
  LaneCounts luts{};
  std::array<LaneCounts, kConnectivityRoleCount> ports{};
  std::vector<std::int64_t> dp_dead;      ///< the min(dps, nodes) routed DPs
  std::vector<std::int64_t> router_dead;  ///< NoC routers, by node
  std::vector<std::int64_t> link_dead;    ///< NoC links, sample_faults' order

  friend bool operator==(const CensusBlock&, const CensusBlock&) = default;
};

/// One compiled form of the census kernel.  `run` draws one block: lane
/// l < @p live steps the stream Rng(seeds[l]) through @p shape's
/// populations in sample_faults' order, each draw hitting at
/// Rng::bernoulli_hit(draw, thresholds[l]); lanes >= @p live draw
/// nothing.  Every variant gives the same bits; they differ only in the
/// instructions the lane vector compiles to.
struct CensusVariant {
  std::string_view name;  ///< "baseline" or "avx512"
  void (*run)(const FabricShape& shape, const LaneWords& seeds,
              const LaneWords& thresholds, std::size_t live,
              CensusBlock& out);
};

/// The compiled variants this CPU can run, baseline first.
std::span<const CensusVariant> census_variants();

/// The variant CurveEvaluator uses: the last of census_variants(),
/// chosen once per process from the CPU's feature bits.
const CensusVariant& census_kernel();

}  // namespace detail

/// Memoized Monte-Carlo evaluator, the fault analogue of
/// explore::SweepEvaluator.  Construction binds the shape once and
/// hoists the per-spec invariants every trial used to re-derive (the
/// original structure's flexibility score); evaluate_range() then runs
/// trials through the batch census kernel: eight trials' streams held
/// in one lane vector and drawn in lockstep (detail::census_kernel()),
/// each trial's failures counted per population
/// (fault::detail::DeadCensus) rather than listed, and the shared
/// structural kernel (fault::detail::structural_degrade), skipping the
/// Eq. 1 / Eq. 2 pricing degrade() performs but no TrialOutcome field
/// consumes.  NoC specs take the same path; their lanes also collect the
/// router and link faults the route-around connectivity needs.
///
/// Determinism: every lane consumes exactly its cell's
/// `Rng::derive_seed(seed, index)` stream in sample_faults' component
/// order, with the same Bernoulli threshold (Rng::bernoulli_threshold),
/// so outcomes — and the finalize() curve, and its CSV — are
/// byte-for-byte what the scalar path produces (tests/test_fault.cpp
/// pins this).
///
/// Thread safety: immutable after construction; evaluate_range() is
/// const and touches only the output slice (scratch is per-call) — the
/// service engine's workers share one evaluator and write disjoint
/// ranges concurrently (engine.cpp), bit-identical to the sequential
/// path.
class CurveEvaluator {
 public:
  explicit CurveEvaluator(const CurveSpec& spec,
                          const cost::ComponentLibrary& lib =
                              cost::ComponentLibrary::default_library());

  /// Trials the batch kernel advances together: the lanes of one
  /// 8 x 64-bit vector (a single AVX-512 register).
  static constexpr std::size_t kLanes = detail::kCensusLanes;

  std::size_t cell_count() const { return cells_; }
  /// The batch kernel's block width, kLanes trials — the grain chunking
  /// callers align their ranges to, as with SweepEvaluator::row_cells()
  /// (any range still evaluates correctly).
  std::size_t row_cells() const { return kLanes; }
  const CurveSpec& spec() const { return spec_; }
  const FabricShape& shape() const { return shape_; }

  /// Evaluate one trial by flat index `rate_index * trials + trial`.
  /// Scalar reference path: full sample_faults + degrade per trial (the
  /// oracle the batch-parity tests compare evaluate_range against).
  TrialOutcome evaluate_cell(std::size_t index) const;

  /// Evaluate cells [begin, end) into @p out (out[i] = cell begin + i)
  /// through the batch census kernel; any begin and end work.
  void evaluate_range(std::size_t begin, std::size_t end,
                      TrialOutcome* out) const;

  /// Sequential index-order reduction of all cell outcomes into the
  /// per-rate curve (deterministic double summation order).
  std::vector<CurvePoint> finalize(
      std::span<const TrialOutcome> outcomes) const;

 private:
  CurveSpec spec_;  ///< normalized
  std::size_t cells_ = 0;
  FabricShape shape_;
  /// Held by value: callers routinely pass the temporary
  /// ComponentLibrary::default_library() returns.
  cost::ComponentLibrary lib_;
  int original_score_ = 0;  ///< flexibility of the pristine structure
};

/// Sweep the whole curve.  @p threads == 0 (or 1) evaluates
/// sequentially on the caller's thread; otherwise the cell range is
/// split (mpct::parallel_ranges, clamped to the core count) across
/// scoped workers writing disjoint slices (bit-identical either way).
/// The service layer instead chunks over its own worker pool
/// (FaultSweepRequest in engine.cpp); this entry point serves library
/// callers and the sequential reference the tests compare against.
CurveResult evaluate_curve(const CurveSpec& spec,
                           const cost::ComponentLibrary& lib =
                               cost::ComponentLibrary::default_library(),
                           unsigned threads = 0);

/// Render the curve as CSV (fixed %.6f formatting, so equal doubles
/// produce byte-identical documents):
/// fault_rate,trials,yield,flexibility_retention,connectivity,survival.
std::string to_csv(const CurveResult& result);

/// Render yield / flexibility-retention / connectivity as an SVG line
/// chart (report::svg_line_chart).
std::string to_svg(const CurveResult& result, const std::string& title = "");

}  // namespace mpct::fault
