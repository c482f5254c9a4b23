#include "explore/sweep.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <optional>
#include <span>
#include <thread>
#include <type_traits>

#include "trace/trace.hpp"

namespace mpct::explore {

SweepGrid SweepGrid::normalized() const {
  SweepGrid g = *this;
  if (g.n_values.empty()) g.n_values.push_back(base.n);
  if (g.lut_budgets.empty()) g.lut_budgets.push_back(base.lut_budget);
  if (g.objectives.empty()) g.objectives.push_back(base.objective);
  return g;
}

std::size_t SweepGrid::cell_count() const {
  const std::size_t n = n_values.empty() ? 1 : n_values.size();
  const std::size_t l = lut_budgets.empty() ? 1 : lut_budgets.size();
  const std::size_t o = objectives.empty() ? 1 : objectives.size();
  return n * l * o;
}

namespace {

/// LUT-budget lanes evaluated per batch block: bounds the candidate-major
/// scratch (up to 47 candidates x 128 lanes x 16 B = 96 KiB) so a block's
/// costs stay cache-resident through the winner reduction.
constexpr std::size_t kBlockLanes = 128;

/// The exact ordering recommendation_precedes() applies, on raw fields —
/// the sweep's winner must be the row recommend() would sort first.
/// With distinct names (interned class names are unique) this is a
/// strict total order, so the minimum over any candidate set is unique
/// and independent of the order the set is folded in — the property the
/// batch kernel's champion + per-cell reduction relies on.
bool cell_precedes(Requirements::Objective objective, double a_area,
                   std::int64_t a_bits, std::string_view a_name,
                   double b_area, std::int64_t b_bits,
                   std::string_view b_name) {
  if (objective == Requirements::Objective::MinConfigBits &&
      a_bits != b_bits) {
    return a_bits < b_bits;
  }
  if (a_area != b_area) return a_area < b_area;
  if (a_bits != b_bits) return a_bits < b_bits;
  return a_name < b_name;
}

std::int64_t objective_cost_bits(const SweepPoint& p) {
  return p.config_bits;
}

bool dominates(const SweepPoint& a, const SweepPoint& b) {
  // Same-objective comparison only; caller guarantees it.
  const bool by_bits =
      a.objective == Requirements::Objective::MinConfigBits;
  const bool flex_ge = a.flexibility >= b.flexibility;
  const bool flex_gt = a.flexibility > b.flexibility;
  bool cost_le = false, cost_lt = false;
  if (by_bits) {
    cost_le = objective_cost_bits(a) <= objective_cost_bits(b);
    cost_lt = objective_cost_bits(a) < objective_cost_bits(b);
  } else {
    cost_le = a.area_kge <= b.area_kge;
    cost_lt = a.area_kge < b.area_kge;
  }
  return flex_ge && cost_le && (flex_gt || cost_lt);
}

/// The summary one objective group's domination test needs: for each
/// distinct flexibility f, the minimum objective cost over the group's
/// points with flexibility >= f.  A point (f, c) is dominated exactly
/// when a point with flexibility >= f costs strictly less than c, or a
/// point with flexibility > f costs no more than c, so each test is two
/// lookups: the suffix minimum at f's slot and at the next slot.
///
/// Slots are dense (flexibility - lo) when the group's flexibility range
/// is narrower than the group itself (the taxonomy scores 0..8), making
/// the build one pass plus a suffix minimum over a handful of slots.
/// Wider ranges (wire-decoded points may carry any int) fall back to
/// ranks in the sorted distinct values: O(N log N), never worse.  A NaN
/// cost fails every comparison, so it never dominates (it stays out of
/// the minimum) and is never dominated, exactly as in dominates().
template <typename Cost>
class MinCostByFlexibility {
 public:
  MinCostByFlexibility(const std::vector<SweepPoint>& points,
                       Requirements::Objective objective,
                       Cost SweepPoint::*cost)
      : cost_(cost) {
    const auto in_group = [objective](const SweepPoint& p) {
      return p.feasible && p.objective == objective;
    };
    std::size_t count = 0;
    int lo = std::numeric_limits<int>::max();
    int hi = std::numeric_limits<int>::min();
    for (const SweepPoint& p : points) {
      if (!in_group(p)) continue;
      ++count;
      lo = std::min(lo, p.flexibility);
      hi = std::max(hi, p.flexibility);
    }
    if (count == 0) return;
    lo_ = lo;
    const auto range = static_cast<std::uint64_t>(std::int64_t{hi} - lo);
    std::size_t slots = 0;
    if (range < count) {
      slots = static_cast<std::size_t>(range) + 1;
    } else {
      ranks_.reserve(count);
      for (const SweepPoint& p : points) {
        if (in_group(p)) ranks_.push_back(p.flexibility);
      }
      std::sort(ranks_.begin(), ranks_.end());
      ranks_.erase(std::unique(ranks_.begin(), ranks_.end()), ranks_.end());
      slots = ranks_.size();
    }
    // One extra empty slot past the highest flexibility, so the
    // "strictly greater flexibility" lookup needs no bounds check.
    min_.assign(slots + 1, std::nullopt);
    for (const SweepPoint& p : points) {
      if (!in_group(p)) continue;
      const Cost c = p.*cost_;
      if constexpr (std::is_floating_point_v<Cost>) {
        if (std::isnan(c)) continue;
      }
      std::optional<Cost>& m = min_[slot(p.flexibility)];
      if (!m || c < *m) m = c;
    }
    for (std::size_t k = slots; k-- > 0;) {
      const std::optional<Cost>& above = min_[k + 1];
      if (above && (!min_[k] || *above < *min_[k])) min_[k] = above;
    }
  }

  /// Whether a point of this group is dominated by any point of it.
  bool dominated(const SweepPoint& p) const {
    const std::size_t k = slot(p.flexibility);
    const Cost c = p.*cost_;
    return (min_[k] && *min_[k] < c) || (min_[k + 1] && *min_[k + 1] <= c);
  }

 private:
  std::size_t slot(int flexibility) const {
    if (ranks_.empty()) {
      return static_cast<std::size_t>(std::int64_t{flexibility} - lo_);
    }
    return static_cast<std::size_t>(
        std::lower_bound(ranks_.begin(), ranks_.end(), flexibility) -
        ranks_.begin());
  }

  Cost SweepPoint::*cost_;
  std::int64_t lo_ = 0;
  std::vector<int> ranks_;  ///< sorted distinct flexibilities; empty if dense
  std::vector<std::optional<Cost>> min_;  ///< suffix minimum per slot
};

}  // namespace

namespace detail {

std::vector<SweepPoint> pareto_front_reference(
    const std::vector<SweepPoint>& points) {
  std::vector<SweepPoint> front;
  for (const SweepPoint& p : points) {
    if (!p.feasible) continue;
    bool dominated = false;
    for (const SweepPoint& q : points) {
      if (!q.feasible || q.objective != p.objective) continue;
      if (dominates(q, p)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) front.push_back(p);
  }
  return front;
}

}  // namespace detail

std::vector<SweepPoint> pareto_front(const std::vector<SweepPoint>& points) {
  using Objective = Requirements::Objective;
  const MinCostByFlexibility<std::int64_t> by_bits(
      points, Objective::MinConfigBits, &SweepPoint::config_bits);
  const MinCostByFlexibility<double> by_area(points, Objective::MinArea,
                                             &SweepPoint::area_kge);
  const auto on_front = [&](const SweepPoint& p) {
    if (!p.feasible) return false;
    return p.objective == Objective::MinConfigBits ? !by_bits.dominated(p)
                                                   : !by_area.dominated(p);
  };
  std::vector<SweepPoint> front;
  front.reserve(static_cast<std::size_t>(
      std::count_if(points.begin(), points.end(), on_front)));
  std::copy_if(points.begin(), points.end(), std::back_inserter(front),
               on_front);
  return front;
}

SweepEvaluator::SweepEvaluator(const SweepGrid& grid,
                               const cost::ComponentLibrary& lib)
    : grid_(grid.normalized()), cells_(grid_.cell_count()) {
  trace::ScopedSpan span("sweep.build", trace::Category::Sweep);
  // The requirements filter is design-point independent, so the
  // candidate set is shared by every cell: filter the 47 rows once and
  // fold each survivor's Eq. 1 / Eq. 2 invariants into one contiguous
  // CostPlanSet slot, with the name and flexibility the winner reduction
  // needs cached index-aligned.
  const TaxonomyIndex& index = taxonomy_index();
  candidates_.reserve(index.rows().size());
  plans_.reserve(index.rows().size());
  for (const TaxonomyIndex::ClassInfo& row : index.rows()) {
    if (!row.named) continue;
    if (!satisfies_requirements(row.machine, row.name, grid_.base,
                                row.flexibility)) {
      continue;
    }
    const std::size_t p = plans_.add(row.machine, lib);
    candidates_.push_back(Candidate{row.name, index.interned_name(row.name),
                                    row.flexibility});
    (plans_.depends_v(p) ? v_dep_ : v_indep_)
        .push_back(static_cast<std::uint32_t>(p));
  }
}

SweepPoint SweepEvaluator::evaluate_cell(std::size_t index) const {
  trace::profile_count(trace::ProfilePoint::SweepCell);
  const std::size_t o_count = grid_.objectives.size();
  const std::size_t l_count = grid_.lut_budgets.size();
  const std::size_t oi = index % o_count;
  const std::size_t li = (index / o_count) % l_count;
  const std::size_t ni = index / (o_count * l_count);

  SweepPoint point;
  point.n = grid_.n_values[ni];
  point.lut_budget = grid_.lut_budgets[li];
  point.objective = grid_.objectives[oi];

  trace::profile_count_n(trace::ProfilePoint::CostEvaluate,
                         candidates_.size());
  int best = -1;
  cost::CostPoint best_cost;
  std::string_view best_name;
  for (std::size_t c = 0; c < candidates_.size(); ++c) {
    const cost::CostPoint cost =
        plans_.evaluate(c, point.n, point.lut_budget);
    const std::string_view name = candidates_[c].interned;
    if (best < 0 || cell_precedes(point.objective, cost.area_kge,
                                  cost.config_bits, name, best_cost.area_kge,
                                  best_cost.config_bits, best_name)) {
      best = static_cast<int>(c);
      best_cost = cost;
      best_name = name;
    }
  }
  if (best >= 0) {
    point.feasible = true;
    point.best = candidates_[static_cast<std::size_t>(best)].name;
    point.flexibility =
        candidates_[static_cast<std::size_t>(best)].flexibility;
    point.area_kge = best_cost.area_kge;
    point.config_bits = best_cost.config_bits;
  }
  return point;
}

void SweepEvaluator::evaluate_row_batch(std::size_t ni, SweepPoint* out,
                                        cost::CostPoint* scratch) const {
  const std::int64_t n = grid_.n_values[ni];
  const std::size_t l_count = grid_.lut_budgets.size();
  const std::size_t o_count = grid_.objectives.size();
  const std::span<const std::int64_t> v_all(grid_.lut_budgets);

  // Candidates whose cost never reads the LUT-budget axis price
  // identically across the whole row: evaluate each once (the v argument
  // is immaterial — the kernel performs the same ops for any v) and fold
  // them into one champion per objective.  The per-cell reduction then
  // starts from the champion instead of re-folding them lane by lane.
  trace::profile_count_n(trace::ProfilePoint::CostEvaluate, v_indep_.size());
  struct Champion {
    int cand = -1;
    cost::CostPoint cost;
  };
  std::vector<Champion> champ(o_count);
  for (const std::uint32_t c : v_indep_) {
    const cost::CostPoint cost = plans_.evaluate(c, n, v_all[0]);
    for (std::size_t oi = 0; oi < o_count; ++oi) {
      Champion& ch = champ[oi];
      if (ch.cand < 0 ||
          cell_precedes(grid_.objectives[oi], cost.area_kge,
                        cost.config_bits, candidates_[c].interned,
                        ch.cost.area_kge, ch.cost.config_bits,
                        candidates_[static_cast<std::size_t>(ch.cand)]
                            .interned)) {
        ch.cand = static_cast<int>(c);
        ch.cost = cost;
      }
    }
  }

  // v-dependent candidates, candidate-major over cache-sized lane
  // blocks: for each block, stream every candidate's plan across the
  // lanes (pure multiply-add over one contiguous PlanTerms), then reduce
  // winners per cell while the block's costs are still cache-hot.
  for (std::size_t lb = 0; lb < l_count; lb += kBlockLanes) {
    const std::size_t lanes = std::min(kBlockLanes, l_count - lb);
    trace::ProfileTimer timer(trace::ProfilePoint::SweepBatch);
    for (std::size_t d = 0; d < v_dep_.size(); ++d) {
      plans_.evaluate_row(v_dep_[d], n, v_all.subspan(lb, lanes),
                          scratch + d * lanes);
    }
    for (std::size_t li = lb; li < lb + lanes; ++li) {
      for (std::size_t oi = 0; oi < o_count; ++oi) {
        SweepPoint point;
        point.n = n;
        point.lut_budget = grid_.lut_budgets[li];
        point.objective = grid_.objectives[oi];

        int best = champ[oi].cand;
        cost::CostPoint best_cost = champ[oi].cost;
        std::string_view best_name =
            best >= 0 ? candidates_[static_cast<std::size_t>(best)].interned
                      : std::string_view{};
        for (std::size_t d = 0; d < v_dep_.size(); ++d) {
          const cost::CostPoint cost = scratch[d * lanes + (li - lb)];
          const std::uint32_t c = v_dep_[d];
          if (best < 0 ||
              cell_precedes(point.objective, cost.area_kge,
                            cost.config_bits, candidates_[c].interned,
                            best_cost.area_kge, best_cost.config_bits,
                            best_name)) {
            best = static_cast<int>(c);
            best_cost = cost;
            best_name = candidates_[c].interned;
          }
        }
        if (best >= 0) {
          point.feasible = true;
          point.best = candidates_[static_cast<std::size_t>(best)].name;
          point.flexibility =
              candidates_[static_cast<std::size_t>(best)].flexibility;
          point.area_kge = best_cost.area_kge;
          point.config_bits = best_cost.config_bits;
        }
        out[li * o_count + oi] = point;
      }
    }
  }
}

void SweepEvaluator::evaluate_range(std::size_t begin, std::size_t end,
                                    SweepPoint* out) const {
  trace::ScopedSpan span("sweep.cells", trace::Category::Sweep, "cells",
                         static_cast<std::int64_t>(end - begin));
  const std::size_t row = row_cells();
  const std::size_t l_count = grid_.lut_budgets.size();
  // Per-call scratch keeps evaluate_range const and concurrency-safe.
  std::vector<cost::CostPoint> scratch(
      v_dep_.size() * std::min(kBlockLanes, l_count));
  std::size_t i = begin;
  while (i < end) {
    const std::size_t row_start = (i / row) * row;
    if (i == row_start && row_start + row <= end) {
      evaluate_row_batch(i / row, out + (i - begin), scratch.data());
      i += row;
    } else {
      // Partial row at a range edge: scalar path (bit-identical — the
      // per-cell winner is partition-independent).
      const std::size_t stop = std::min(end, row_start + row);
      for (; i < stop; ++i) out[i - begin] = evaluate_cell(i);
    }
  }
}

SweepResult sweep(const SweepGrid& grid, const cost::ComponentLibrary& lib,
                  unsigned threads) {
  const SweepEvaluator evaluator(grid, lib);
  const std::size_t cells = evaluator.cell_count();

  SweepResult result;
  result.candidate_classes = evaluator.candidate_count();
  result.points.resize(cells);

  // More workers than cores only adds context-switch overhead to a
  // CPU-bound kernel (the committed bench once measured 4 threads at
  // 0.6x the single-thread rate on a 1-core host) — clamp.
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t workers =
      threads > 1
          ? std::min({static_cast<std::size_t>(threads), hw,
                      cells ? cells : std::size_t{1}})
          : 1;
  if (workers <= 1) {
    evaluator.evaluate_range(0, cells, result.points.data());
  } else {
    // Contiguous disjoint slices, rounded up to whole grid rows so every
    // worker runs the batch kernel; each worker writes only its own
    // range, so no synchronization beyond join() is needed.
    std::vector<std::thread> pool;
    pool.reserve(workers);
    const std::size_t row = evaluator.row_cells();
    std::size_t chunk = (cells + workers - 1) / workers;
    chunk = (chunk + row - 1) / row * row;
    for (std::size_t w = 0; w < workers; ++w) {
      const std::size_t begin = std::min(w * chunk, cells);
      const std::size_t end = std::min(begin + chunk, cells);
      if (begin == end) break;
      pool.emplace_back([&evaluator, &result, begin, end] {
        evaluator.evaluate_range(begin, end, result.points.data() + begin);
      });
    }
    for (std::thread& t : pool) t.join();
  }

  result.pareto_front = pareto_front(result.points);
  return result;
}

}  // namespace mpct::explore
