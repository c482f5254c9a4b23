#include "explore/sweep.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <span>
#include <type_traits>

#include "core/range_split.hpp"
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

/// One objective's domination test, resolved from a MinCost table.
///
/// Over the table's sorted keys k_0 < ... < k_{K-1} (the dense slots
/// 0..63, or every distinct flexibility once any is wide), a query
/// flexibility f falls at one of 2K+1 positions: exactly on k_i (2i+1),
/// just below k_i (2i) or above them all (2K).  With ge / gt the minimum
/// cost over the keys >= f / > f, a point (f, c) is dominated when
/// ge < c or gt <= c.  As ge <= gt, that is c > ge, or c == ge when
/// gt == ge, so each position stores one bound and a tie flag; a
/// position with no key at or above it gets a bound nothing exceeds.
///
/// The same test counts the front: a point at k_i survives exactly when
/// its cost is k_i's minimum and that minimum is below gt, so the
/// survivors are those minima's tie counts plus the NaN-cost points.
template <typename Cost>
class FrontLookup {
 public:
  template <typename Table>
  explicit FrontLookup(const Table& table) : survivors_(table.unordered) {
    constexpr auto dense_slots = std::size_t{FrontSummary::kDenseSlots};
    if (table.wide.empty()) {
      // Key k is flexibility k; the table is read in place, so the common
      // case allocates nothing.
      resolve(dense_slots, dense_.data(), [&](std::size_t k) {
        return table.present >> k & 1
                   ? Level{table.dense[k], table.ties[k]}
                   : Level{};
      });
      return;
    }
    struct Entry {
      int f;
      Cost c;
      std::size_t ties;
    };
    std::vector<Entry> all;
    all.reserve(table.wide.size() + dense_slots);
    for (const auto& [f, c] : table.wide) all.push_back({f, c, 1});
    for (std::size_t f = 0; f < dense_slots; ++f) {
      if (table.present >> f & 1) {
        all.push_back({static_cast<int>(f), table.dense[f], table.ties[f]});
      }
    }
    // NaN never enters a table, so entries sort strictly weakly and each
    // flexibility's minimum and its ties come first.
    std::sort(all.begin(), all.end(), [](const Entry& a, const Entry& b) {
      return a.f != b.f ? a.f < b.f : a.c < b.c;
    });
    std::vector<Level> levels;  // index-aligned with keys_
    for (const Entry& e : all) {
      if (keys_.empty() || keys_.back() != e.f) {
        keys_.push_back(e.f);
        levels.push_back({e.c, e.ties});
      } else if (e.c == *levels.back().min) {
        levels.back().ties += e.ties;
      }
    }
    wide_.resize(2 * levels.size() + 1);
    resolve(levels.size(), wide_.data(),
            [&](std::size_t k) { return levels[k]; });
  }

  /// Whether a summarised point dominates a point at (@p f, @p c).
  bool dominated(int f, Cost c) const {
    const Verdict* verdicts = dense_.data();
    std::size_t at = 0;
    if (keys_.empty()) {  // dense: k_i == i
      at = static_cast<std::size_t>(std::clamp<std::int64_t>(
          2 * std::int64_t{f} + 1, 0,
          static_cast<std::int64_t>(dense_.size() - 1)));
    } else {
      const std::size_t i = static_cast<std::size_t>(
          std::lower_bound(keys_.begin(), keys_.end(), f) - keys_.begin());
      at = 2 * i + (i < keys_.size() && keys_[i] == f ? 1 : 0);
      verdicts = wide_.data();
    }
    const Verdict& v = verdicts[at];
    return c > v.bound || (v.tie && c == v.bound);
  }

  /// How many summarised points no summarised point dominates.
  std::size_t survivors() const { return survivors_; }

 private:
  struct Level {
    std::optional<Cost> min;
    std::size_t ties = 0;
  };
  struct Verdict {
    Cost bound;
    bool tie;
  };

  /// Fill the 2K+1 positions of @p out from keys 0..K-1 (@p level(k) is
  /// key k's minimum and tie count), walking down so the running
  /// minimum over the keys above is gt, and count the survivors.
  template <typename LevelAt>
  void resolve(std::size_t keys, Verdict* out, const LevelAt& level) {
    std::optional<Cost> above;  // minimum over keys > k
    out[2 * keys] = verdict(above, above);
    for (std::size_t k = keys; k-- > 0;) {
      const Level own = level(k);
      if (own.min && (!above || *own.min < *above)) survivors_ += own.ties;
      const std::optional<Cost> ge =
          above && (!own.min || *above < *own.min) ? above : own.min;
      out[2 * k + 1] = verdict(ge, above);
      out[2 * k] = verdict(ge, ge);
      above = ge;
    }
  }

  static Verdict verdict(const std::optional<Cost>& ge,
                         const std::optional<Cost>& gt) {
    if (!ge) {
      using Limits = std::numeric_limits<Cost>;
      return {Limits::has_infinity ? Limits::infinity() : Limits::max(),
              false};
    }
    return {*ge, gt && *gt == *ge};
  }

  std::size_t survivors_ = 0;
  std::vector<int> keys_;  ///< sorted distinct flexibilities; empty if dense
  /// Per position, over the dense keys 0..kDenseSlots-1.
  std::array<Verdict, 2 * FrontSummary::kDenseSlots + 1> dense_{};
  std::vector<Verdict> wide_;         ///< per position, keys_ when wide
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

template <typename Cost>
void FrontSummary::MinCost<Cost>::add(int flexibility, Cost cost,
                                      std::size_t count) {
  if constexpr (std::is_floating_point_v<Cost>) {
    if (std::isnan(cost)) {
      unordered += count;
      return;
    }
  }
  if (flexibility < 0 || flexibility >= kDenseSlots) {
    wide.insert(wide.end(), count, {flexibility, cost});
    return;
  }
  const std::uint64_t bit = std::uint64_t{1} << flexibility;
  const auto f = static_cast<std::size_t>(flexibility);
  if (!(present & bit) || cost < dense[f]) {
    dense[f] = cost;
    ties[f] = count;
  } else if (cost == dense[f]) {
    ties[f] += count;
  }
  present |= bit;
}

template <typename Cost>
void FrontSummary::MinCost<Cost>::combine(const MinCost& other) {
  for (int f = 0; f < kDenseSlots; ++f) {
    if (other.present >> f & 1) {
      add(f, other.dense[static_cast<std::size_t>(f)],
          other.ties[static_cast<std::size_t>(f)]);
    }
  }
  wide.insert(wide.end(), other.wide.begin(), other.wide.end());
  unordered += other.unordered;
}

void FrontSummary::add(std::span<const SweepPoint> points) {
  for (const SweepPoint& p : points) {
    if (!p.feasible) continue;
    if (p.objective == Requirements::Objective::MinConfigBits) {
      bits_.add(p.flexibility, p.config_bits);
    } else {
      area_.add(p.flexibility, p.area_kge);
    }
  }
}

void FrontSummary::combine(const FrontSummary& other) {
  bits_.combine(other.bits_);
  area_.combine(other.area_);
}

std::vector<SweepPoint> FrontSummary::filter(
    std::span<const SweepPoint> points) const {
  const FrontLookup<std::int64_t> by_bits(bits_);
  const FrontLookup<double> by_area(area_);
  const auto on_front = [&](const SweepPoint& p) {
    if (!p.feasible) return false;
    return p.objective == Requirements::Objective::MinConfigBits
               ? !by_bits.dominated(p.flexibility, p.config_bits)
               : !by_area.dominated(p.flexibility, p.area_kge);
  };
  const std::size_t survivors = by_bits.survivors() + by_area.survivors();
  if (survivors == points.size()) return {points.begin(), points.end()};
  std::vector<SweepPoint> front;
  front.reserve(survivors);
  for (std::size_t i = 0; i < points.size();) {
    if (!on_front(points[i])) {
      ++i;
      continue;
    }
    const std::size_t begin = i;
    while (++i < points.size() && on_front(points[i])) {
    }
    front.insert(front.end(), points.begin() + begin, points.begin() + i);
  }
  return front;
}

std::vector<SweepPoint> pareto_front(const std::vector<SweepPoint>& points) {
  return FrontSummary(points).filter(points);
}

std::vector<SweepPoint> pareto_front(std::span<const SweepPoint> points,
                                     std::span<const FrontSummary> chunks) {
  FrontSummary whole;
  for (const FrontSummary& chunk : chunks) whole.combine(chunk);
  return whole.filter(points);
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

struct SweepEvaluator::Champion {
  int cand = -1;
  cost::CostPoint cost;
};

void SweepEvaluator::evaluate_row_batch(std::size_t ni, SweepPoint* out,
                                        cost::CostPoint* scratch,
                                        Champion* champ) const {
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
  std::fill(champ, champ + o_count, Champion{});
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
  std::vector<Champion> champ(grid_.objectives.size());
  std::size_t i = begin;
  while (i < end) {
    const std::size_t row_start = (i / row) * row;
    if (i == row_start && row_start + row <= end) {
      evaluate_row_batch(i / row, out + (i - begin), scratch.data(),
                         champ.data());
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

  // One summary slot per worker range, each folded while its slice is
  // cache-hot; the filter then runs once over their combination.  A
  // sequential sweep keeps its one slot on the stack: a heap block
  // between the points and the front made the allocator keep more
  // memory resident across concurrent sweeps.
  FrontSummary sequential;
  std::vector<FrontSummary> parts(threads > 1 ? threads : 0);
  const std::span<FrontSummary> summaries =
      parts.empty() ? std::span(&sequential, 1) : std::span(parts);
  parallel_ranges(cells, threads, evaluator.row_cells(),
                  [&](std::size_t part, std::size_t begin, std::size_t end) {
                    SweepPoint* out = result.points.data() + begin;
                    evaluator.evaluate_range(begin, end, out);
                    summaries[part].add({out, end - begin});
                  });

  result.pareto_front = pareto_front(result.points, summaries);
  return result;
}

}  // namespace mpct::explore
