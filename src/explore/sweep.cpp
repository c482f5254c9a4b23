#include "explore/sweep.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
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

/// The exact ordering recommendation_precedes() applies, on raw fields —
/// the sweep's winner must be the row recommend() would sort first.
/// With distinct names (interned class names are unique) this is a
/// strict total order, so the minimum over any candidate set is unique
/// and independent of the order the set is folded in — the property the
/// kernel's row-winner + LUT-budget-winner reduction relies on.  A NaN
/// area (only a custom component library can produce one) sorts after
/// every number and ties with NaN, so the order stays total and the
/// kernel's sort stays well defined.
bool cell_precedes(Requirements::Objective objective, double a_area,
                   std::int64_t a_bits, std::string_view a_name,
                   double b_area, std::int64_t b_bits,
                   std::string_view b_name) {
  if (objective == Requirements::Objective::MinConfigBits &&
      a_bits != b_bits) {
    return a_bits < b_bits;
  }
  const bool a_nan = std::isnan(a_area), b_nan = std::isnan(b_area);
  if (a_nan != b_nan) return b_nan;
  if (!a_nan && a_area != b_area) return a_area < b_area;
  if (a_bits != b_bits) return a_bits < b_bits;
  return a_name < b_name;
}

/// Call @p fn with each named taxonomy row that passes @p base: a
/// sweep's candidates, in table order.
template <typename Fn>
void for_each_candidate(const Requirements& base, Fn&& fn) {
  for (const TaxonomyIndex::ClassInfo& row : taxonomy_index().rows()) {
    if (row.named && satisfies_requirements(row.machine, row.name, base,
                                            row.flexibility)) {
      fn(row);
    }
  }
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

void FrontSummary::add(const SweepPoint& point, std::size_t count) {
  if (!point.feasible || count == 0) return;
  if (point.objective == Requirements::Objective::MinConfigBits) {
    bits_.add(point.flexibility, point.config_bits, count);
  } else {
    area_.add(point.flexibility, point.area_kge, count);
  }
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

std::size_t FrontSummary::mark(std::span<const SweepPoint> points,
                               std::span<std::uint8_t> on_front) const {
  const FrontLookup<std::int64_t> by_bits(bits_);
  const FrontLookup<double> by_area(area_);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    on_front[i] =
        p.feasible &&
        (p.objective == Requirements::Objective::MinConfigBits
             ? !by_bits.dominated(p.flexibility, p.config_bits)
             : !by_area.dominated(p.flexibility, p.area_kge));
  }
  return by_bits.survivors() + by_area.survivors();
}

std::vector<SweepPoint> pareto_front(const std::vector<SweepPoint>& points) {
  return FrontSummary(points).filter(points);
}

namespace detail {

void require_separable(const cost::CostPlan& plan, const TaxonomicName& name) {
  if (plan.depends_n() && plan.depends_v()) {
    throw std::logic_error("sweep: the cost of " + to_string(name) +
                           " reads both n and the LUT budget, which the "
                           "factored sweep cannot price");
  }
}

}  // namespace detail

SweepShape::SweepShape(const SweepGrid& grid)
    : cells_(grid.cell_count()),
      row_((grid.lut_budgets.empty() ? 1 : grid.lut_budgets.size()) *
           (grid.objectives.empty() ? 1 : grid.objectives.size())) {
  for_each_candidate(grid.base, [this](const TaxonomyIndex::ClassInfo&) {
    ++candidates_;
  });
}

SweepEvaluator::SweepEvaluator(const SweepGrid& grid,
                               const cost::ComponentLibrary& lib)
    : grid_(grid.normalized()), cells_(grid_.cell_count()) {
  trace::ScopedSpan span("sweep.build", trace::Category::Sweep);
  // The requirements filter is design-point independent, so the
  // candidate set is shared by every cell: filter the 47 rows once and
  // fold each survivor's Eq. 1 / Eq. 2 invariants into one contiguous
  // CostPlan, with the name and flexibility the winner reduction needs
  // cached index-aligned.
  const TaxonomyIndex& index = taxonomy_index();
  candidates_.reserve(index.rows().size());
  plans_.reserve(index.rows().size());
  for_each_candidate(grid_.base, [&](const TaxonomyIndex::ClassInfo& row) {
    plans_.emplace_back(row.machine, lib);
    detail::require_separable(plans_.back(), row.name);
    candidates_.push_back(Candidate{row.name, index.interned_name(row.name),
                                    row.flexibility});
  });
  // A cost that reads v reads no n, so price it at the first n.
  const std::size_t o_count = grid_.objectives.size();
  const std::size_t l_count = grid_.lut_budgets.size();
  lut_winners_.reserve(row_cells());
  for (std::size_t i = 0; i < row_cells(); ++i) {
    lut_winners_.emplace_back(grid_.objectives[i % o_count]);
  }
  for (std::uint32_t c = 0; c < plans_.size(); ++c) {
    if (!plans_[c].depends_v()) {
      per_row_.push_back(c);
      continue;
    }
    for (std::size_t li = 0; li < l_count; ++li) {
      const cost::CostPoint cost =
          plans_[c].evaluate(grid_.n_values[0], grid_.lut_budgets[li]);
      for (std::size_t oi = 0; oi < o_count; ++oi) {
        lut_winners_[li * o_count + oi].offer(candidates_[c], cost);
      }
    }
  }
  // Each LUT-budget winner as a cell's record, and each objective's
  // sorted once, so a row winner's cut is one binary search.
  lut_best_.resize(row_cells());
  lut_rank_.resize(row_cells());
  lut_sorted_.resize(row_cells());
  for (std::size_t i = 0; i < row_cells(); ++i) {
    lut_best_[i].objective = lut_winners_[i].objective;
    lut_winners_[i].write(lut_best_[i]);
  }
  for (std::size_t oi = 0; oi < o_count; ++oi) {
    const auto sorted = lut_sorted_.begin() +
                        static_cast<std::ptrdiff_t>(oi * l_count);
    for (std::size_t li = 0; li < l_count; ++li) {
      sorted[static_cast<std::ptrdiff_t>(li)] = li * o_count + oi;
    }
    std::sort(sorted, sorted + static_cast<std::ptrdiff_t>(l_count),
              [this](std::size_t a, std::size_t b) {
                return lut_winners_[a].precedes(lut_winners_[b]);
              });
    for (std::size_t k = 0; k < l_count; ++k) {
      lut_rank_[sorted[static_cast<std::ptrdiff_t>(k)]] = k;
    }
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

  int best = -1;
  cost::CostPoint best_cost;
  std::string_view best_name;
  for (std::size_t c = 0; c < candidates_.size(); ++c) {
    const cost::CostPoint cost = plans_[c].evaluate(point.n, point.lut_budget);
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

void SweepEvaluator::Winner::offer(const Candidate& candidate,
                                   const cost::CostPoint& offered) {
  if (best == nullptr ||
      cell_precedes(objective, offered.area_kge, offered.config_bits,
                    candidate.interned, cost.area_kge, cost.config_bits,
                    best->interned)) {
    best = &candidate;
    cost = offered;
  }
}

bool SweepEvaluator::Winner::precedes(const Winner& other) const {
  if (best == nullptr) return false;
  if (other.best == nullptr) return true;
  return cell_precedes(objective, cost.area_kge, cost.config_bits,
                       best->interned, other.cost.area_kge,
                       other.cost.config_bits, other.best->interned);
}

void SweepEvaluator::Winner::write(SweepPoint& point) const {
  if (best == nullptr) return;
  point.feasible = true;
  point.best = best->name;
  point.flexibility = best->flexibility;
  point.area_kge = cost.area_kge;
  point.config_bits = cost.config_bits;
}

SweepFactors SweepEvaluator::factors(std::size_t row_begin,
                                     std::size_t row_end) const {
  trace::ProfileTimer timer(trace::ProfilePoint::SweepFactor);
  const std::size_t o_count = grid_.objectives.size();
  const std::size_t l_count = grid_.lut_budgets.size();
  SweepFactors factors;
  factors.first_row = row_begin;
  factors.rows = row_end - row_begin;
  factors.row_best.resize(factors.rows * o_count);
  factors.row_cut.resize(factors.rows * o_count);
  std::vector<Winner> winners(o_count);
  for (std::size_t r = 0; r < factors.rows; ++r) {
    // Candidates whose cost does not read v price identically across the
    // row: evaluate each once (at any v) and offer it to one winner per
    // objective.
    const std::int64_t n = grid_.n_values[row_begin + r];
    for (std::size_t oi = 0; oi < o_count; ++oi) {
      winners[oi] = Winner(grid_.objectives[oi]);
    }
    for (const std::uint32_t c : per_row_) {
      const cost::CostPoint cost = plans_[c].evaluate(n, grid_.lut_budgets[0]);
      for (std::size_t oi = 0; oi < o_count; ++oi) {
        winners[oi].offer(candidates_[c], cost);
      }
    }
    // The LUT-budget winners that beat a row winner are a prefix of
    // their sorted order.
    for (std::size_t oi = 0; oi < o_count; ++oi) {
      const std::size_t slot = r * o_count + oi;
      factors.row_best[slot].objective = grid_.objectives[oi];
      winners[oi].write(factors.row_best[slot]);
      const auto sorted = lut_sorted_.begin() +
                          static_cast<std::ptrdiff_t>(oi * l_count);
      factors.row_cut[slot] = static_cast<std::size_t>(
          std::partition_point(sorted,
                               sorted + static_cast<std::ptrdiff_t>(l_count),
                               [&](std::size_t l) {
                                 return lut_winners_[l].precedes(winners[oi]);
                               }) -
          sorted);
    }
  }
  return factors;
}

void SweepEvaluator::mark_front(SweepFactors& factors) const {
  trace::ProfileTimer timer(trace::ProfilePoint::SweepFactor);
  const std::size_t o_count = grid_.objectives.size();
  const std::size_t l_count = grid_.lut_budgets.size();
  // Each winner's cell count, from the cuts alone: a row winner takes
  // the cells whose LUT-budget winner ranks at or past its cut, and a
  // LUT-budget winner of rank q the rows whose cut is past q.
  FrontSummary summary;
  std::vector<std::size_t> cuts(factors.rows);
  for (std::size_t oi = 0; oi < o_count; ++oi) {
    for (std::size_t r = 0; r < factors.rows; ++r) {
      const std::size_t slot = r * o_count + oi;
      cuts[r] = factors.row_cut[slot];
      summary.add(factors.row_best[slot], l_count - cuts[r]);
    }
    std::sort(cuts.begin(), cuts.end());
    for (std::size_t li = 0; li < l_count; ++li) {
      const std::size_t slot = li * o_count + oi;
      summary.add(lut_best_[slot],
                  static_cast<std::size_t>(
                      cuts.end() -
                      std::upper_bound(cuts.begin(), cuts.end(),
                                       lut_rank_[slot])));
    }
  }
  factors.row_front.resize(factors.row_best.size());
  factors.lut_front.resize(lut_best_.size());
  factors.front_size = summary.mark(factors.row_best, factors.row_front);
  summary.mark(lut_best_, factors.lut_front);
}

template <typename Emit>
void SweepEvaluator::expand_cells(const SweepFactors& factors,
                                  std::size_t begin, std::size_t end,
                                  bool front_only, Emit&& emit) const {
  trace::ProfileTimer timer(trace::ProfilePoint::SweepExpand);
  const std::size_t o_count = grid_.objectives.size();
  const std::size_t row = row_cells();
  // Within a row, cell i's LUT-budget winner is lut slot i.
  for (std::size_t ni = begin / row; ni * row < end; ++ni) {
    const std::size_t lo = std::max(begin, ni * row) - ni * row;
    const std::size_t hi = std::min(end - ni * row, row);
    const std::size_t first = (ni - factors.first_row) * o_count;
    const SweepPoint* row_best = factors.row_best.data() + first;
    const std::size_t* cut = factors.row_cut.data() + first;
    const std::uint8_t* row_front =
        front_only ? factors.row_front.data() + first : nullptr;
    const std::int64_t n = grid_.n_values[ni];
    std::size_t li = lo / o_count, oi = lo % o_count;
    for (std::size_t i = lo; i < hi; ++i) {
      const bool lut = lut_rank_[i] < cut[oi];
      if (!front_only || (lut ? factors.lut_front[i] : row_front[oi])) {
        SweepPoint point = lut ? lut_best_[i] : row_best[oi];
        point.n = n;
        point.lut_budget = grid_.lut_budgets[li];
        emit(point);
      }
      if (++oi == o_count) {
        oi = 0;
        ++li;
      }
    }
  }
}

void SweepEvaluator::expand(const SweepFactors& factors, std::size_t begin,
                            std::size_t end, SweepPoint* out) const {
  expand_cells(factors, begin, end, false,
               [&out](const SweepPoint& point) { *out++ = point; });
}

void SweepEvaluator::expand(const SweepFactors& factors, std::size_t begin,
                            std::size_t end, std::vector<SweepPoint>& out,
                            bool front_only) const {
  expand_cells(factors, begin, end, front_only,
               [&out](const SweepPoint& point) { out.push_back(point); });
}

void SweepEvaluator::evaluate_range(std::size_t begin, std::size_t end,
                                    SweepPoint* out) const {
  trace::ScopedSpan span("sweep.cells", trace::Category::Sweep, "cells",
                         static_cast<std::int64_t>(end - begin));
  if (begin >= end) return;
  const std::size_t row = row_cells();
  expand(factors(begin / row, (end - 1) / row + 1), begin, end, out);
}

SweepFactors SweepEvaluator::evaluate_all(
    std::vector<SweepPoint>& points) const {
  SweepFactors whole = factors(0, grid_.n_values.size());
  mark_front(whole);
  expand(whole, 0, cells_, points);
  return whole;
}

std::vector<SweepPoint> SweepEvaluator::front(
    const SweepFactors& factors) const {
  std::vector<SweepPoint> front;
  front.reserve(factors.front_size);
  expand(factors, 0, cells_, front, /*front_only=*/true);
  return front;
}

SweepResult sweep(const SweepGrid& grid, const cost::ComponentLibrary& lib) {
  const SweepEvaluator evaluator(grid, lib);
  SweepResult result;
  result.candidate_classes = evaluator.candidate_count();
  result.points.reserve(evaluator.cell_count());
  result.pareto_front = evaluator.front(evaluator.evaluate_all(result.points));
  return result;
}

}  // namespace mpct::explore
