#include "fault/degradation_curve.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <thread>
#include <utility>

#include "core/flexibility.hpp"
#include "fault/route_around.hpp"
#include "report/csv.hpp"
#include "report/svg.hpp"
#include "trace/trace.hpp"

namespace mpct::fault {

CurveSpec CurveSpec::normalized() const {
  CurveSpec spec = *this;
  if (spec.fault_rates.empty()) spec.fault_rates.push_back(0.0);
  spec.trials_per_rate = std::max(spec.trials_per_rate, 1);
  if (spec.noc_width <= 0 || spec.noc_height <= 0) {
    spec.noc_width = 0;
    spec.noc_height = 0;
  }
  return spec;
}

std::size_t CurveSpec::cell_count() const {
  const std::size_t rates = fault_rates.empty() ? 1 : fault_rates.size();
  return rates * static_cast<std::size_t>(std::max(trials_per_rate, 1));
}

CurveEvaluator::CurveEvaluator(const CurveSpec& spec,
                               const cost::ComponentLibrary& lib)
    : spec_(spec.normalized()), cells_(spec_.cell_count()), lib_(lib) {
  shape_ = FabricShape::of(spec_.machine, spec_.bindings);
  shape_.noc_width = spec_.noc_width;
  shape_.noc_height = spec_.noc_height;
  // Per-spec invariant every trial consumes (the denominator of
  // flexibility retention) — hoisted so the batch path never re-scores
  // the pristine structure.
  original_score_ = flexibility_score(spec_.machine);
}

namespace {

/// Trials the batch kernel advances together: eight independent xorshift
/// dependency chains keep the pipeline full where one chain would stall
/// on its own latency.
constexpr std::size_t kLanes = 8;
using LaneCounts = std::array<std::int64_t, kLanes>;

/// The one TrialOutcome builder, shared by the scalar oracle (a full
/// DegradeResult) and the batch kernel (a detail::StructuralDegrade).
/// @p noc_faults need hold only the trial's NoC faults.
template <typename Degraded>
TrialOutcome outcome_of(const Degraded& degraded, int original_score,
                        const FabricShape& shape,
                        std::span<const Fault> noc_faults) {
  TrialOutcome outcome;
  outcome.alive = degraded.alive();
  outcome.degraded_score = degraded.degraded_score;
  if (!outcome.alive) {
    outcome.flexibility_retention = 0.0;
  } else if (original_score <= 0) {
    outcome.flexibility_retention = 1.0;
  } else {
    outcome.flexibility_retention =
        static_cast<double>(degraded.degraded_score) /
        static_cast<double>(original_score);
  }
  outcome.component_survival = degraded.component_survival;
  if (shape.noc_nodes() > 0) {
    outcome.connectivity =
        build_degraded_noc(shape, noc_faults).reachable_fraction();
  } else {
    const std::int64_t total = shape.total_ports();
    std::int64_t surviving = 0;
    for (const std::int64_t ports : degraded.surviving_ports) {
      surviving += ports;
    }
    outcome.connectivity = total <= 0 ? 1.0
                                      : static_cast<double>(surviving) /
                                            static_cast<double>(total);
  }
  return outcome;
}

/// The streams of trials first .. first + kLanes - 1.
template <std::size_t... L>
std::array<Rng, kLanes> lane_streams(std::uint64_t seed, std::size_t first,
                                     std::index_sequence<L...>) {
  return {Rng(Rng::derive_seed(seed, first + L))...};
}

}  // namespace

TrialOutcome CurveEvaluator::evaluate_cell(std::size_t index) const {
  trace::profile_count(trace::ProfilePoint::CurveTrial);
  const std::size_t trials =
      static_cast<std::size_t>(spec_.trials_per_rate);
  const double rate = spec_.fault_rates[index / trials];

  // Every trial owns an independent derived stream, so outcomes depend
  // only on (spec, cell index) — the thread-count-invariance the
  // service path relies on.
  const FaultSet faults = sample_faults(
      shape_, FaultRates::uniform(rate),
      Rng::derive_seed(spec_.seed, static_cast<std::uint64_t>(index)));
  const DegradeResult degraded =
      degrade(spec_.machine, shape_, faults, lib_, spec_.bindings);
  return outcome_of(degraded, original_score_, shape_, faults.faults());
}

void CurveEvaluator::evaluate_range(std::size_t begin, std::size_t end,
                                    TrialOutcome* out) const {
  trace::ScopedSpan span("fault.cells", trace::Category::Fault, "cells",
                         static_cast<std::int64_t>(end - begin));
  // Batch path: per-cell CurveTrial ticks become one bulk count plus a
  // timed SweepBatch hook over the whole block.
  trace::profile_count_n(trace::ProfilePoint::CurveTrial, end - begin);
  trace::ProfileTimer timer(trace::ProfilePoint::SweepBatch);
  const std::size_t trials =
      static_cast<std::size_t>(spec_.trials_per_rate);
  const int nodes = shape_.noc_nodes();
  // Router i kills DP i unless DP i already died, so the router section
  // needs the fate of each DP that has a router: dp_dead[dp * kLanes + l].
  const std::int64_t routed_dps = std::min<std::int64_t>(shape_.dps, nodes);
  std::vector<std::uint8_t> dp_dead(
      static_cast<std::size_t>(routed_dps) * kLanes);
  std::array<std::vector<Fault>, kLanes> noc_faults;

  // Each block advances kLanes consecutive trials' streams together.  A
  // lane draws exactly its own trial's stream in sample_faults' canonical
  // component order, so its census equals that of the oracle's FaultSet.
  // Lanes past `end` (range tails) draw at threshold 0 and are dropped.
  for (std::size_t first = begin; first < end; first += kLanes) {
    const std::size_t live = std::min(kLanes, end - first);
    std::array<Rng, kLanes> rng = lane_streams(
        spec_.seed, first, std::make_index_sequence<kLanes>{});
    std::array<std::uint64_t, kLanes> threshold{};
    for (std::size_t l = 0; l < live; ++l) {
      threshold[l] =
          Rng::bernoulli_threshold(spec_.fault_rates[(first + l) / trials]);
    }
    const auto count = [&](std::int64_t components, LaneCounts& dead) {
      for (std::int64_t c = 0; c < components; ++c) {
        for (std::size_t l = 0; l < kLanes; ++l) {
          dead[l] += rng[l].bernoulli(threshold[l]);
        }
      }
    };

    LaneCounts ips{}, dps{}, luts{};
    std::array<LaneCounts, kConnectivityRoleCount> ports{};
    count(shape_.ips, ips);
    for (std::int64_t d = 0; d < routed_dps; ++d) {
      for (std::size_t l = 0; l < kLanes; ++l) {
        const bool hit = rng[l].bernoulli(threshold[l]);
        dp_dead[static_cast<std::size_t>(d) * kLanes + l] = hit;
        dps[l] += hit;
      }
    }
    count(shape_.dps - routed_dps, dps);
    count(shape_.luts, luts);
    for (std::size_t role = 0; role < kConnectivityRoleCount; ++role) {
      count(shape_.switch_ports[role], ports[role]);
    }
    for (int node = 0; node < nodes; ++node) {
      for (std::size_t l = 0; l < kLanes; ++l) {
        if (!rng[l].bernoulli(threshold[l])) continue;
        noc_faults[l].push_back(
            Fault{FaultKind::NocRouterDead, ConnectivityRole::IpIp, node, 0});
        if (node < routed_dps &&
            !dp_dead[static_cast<std::size_t>(node) * kLanes + l]) {
          ++dps[l];
        }
      }
    }
    const auto draw_link = [&](int a, int b) {
      for (std::size_t l = 0; l < kLanes; ++l) {
        if (rng[l].bernoulli(threshold[l])) {
          noc_faults[l].push_back(
              Fault{FaultKind::NocLinkDead, ConnectivityRole::IpIp, a, b});
        }
      }
    };
    for (int y = 0; y < shape_.noc_height; ++y) {
      for (int x = 0; x < shape_.noc_width; ++x) {
        const int node = y * shape_.noc_width + x;
        if (x + 1 < shape_.noc_width) draw_link(node, node + 1);
        if (y + 1 < shape_.noc_height) draw_link(node, node + shape_.noc_width);
      }
    }

    for (std::size_t l = 0; l < live; ++l) {
      detail::DeadCensus dead;
      dead.ips = ips[l];
      dead.dps = dps[l];
      dead.luts = luts[l];
      for (std::size_t role = 0; role < kConnectivityRoleCount; ++role) {
        dead.ports[role] = ports[role][l];
      }
      out[first - begin + l] = outcome_of(
          detail::structural_degrade(spec_.machine, shape_, dead),
          original_score_, shape_, noc_faults[l]);
      noc_faults[l].clear();
    }
  }
}

std::vector<CurvePoint> CurveEvaluator::finalize(
    std::span<const TrialOutcome> outcomes) const {
  const std::size_t trials =
      static_cast<std::size_t>(spec_.trials_per_rate);
  std::vector<CurvePoint> points;
  points.reserve(spec_.fault_rates.size());
  for (std::size_t r = 0; r < spec_.fault_rates.size(); ++r) {
    CurvePoint point;
    point.fault_rate = spec_.fault_rates[r];
    point.trials = spec_.trials_per_rate;
    std::int64_t alive = 0;
    double flex = 0, conn = 0, survival = 0;
    // Fixed index-order summation: identical result no matter how the
    // cells were chunked across workers.
    for (std::size_t t = 0; t < trials; ++t) {
      const TrialOutcome& o = outcomes[r * trials + t];
      alive += o.alive ? 1 : 0;
      flex += o.flexibility_retention;
      conn += o.connectivity;
      survival += o.component_survival;
    }
    const double denom = static_cast<double>(trials);
    point.yield = static_cast<double>(alive) / denom;
    point.mean_flexibility = flex / denom;
    point.mean_connectivity = conn / denom;
    point.mean_survival = survival / denom;
    points.push_back(point);
  }
  return points;
}

CurveResult evaluate_curve(const CurveSpec& spec,
                           const cost::ComponentLibrary& lib,
                           unsigned threads) {
  const CurveEvaluator evaluator(spec, lib);
  const std::size_t cells = evaluator.cell_count();
  std::vector<TrialOutcome> outcomes(cells);

  // Clamp to the core count: trials are CPU-bound, so oversubscription
  // only adds context-switch overhead (see the sweep() clamp rationale).
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t workers =
      threads > 1
          ? std::min({static_cast<std::size_t>(threads), hw,
                      cells ? cells : std::size_t{1}})
          : 1;
  if (workers <= 1) {
    evaluator.evaluate_range(0, cells, outcomes.data());
  } else {
    // Contiguous disjoint slices; each worker writes only its own range.
    std::vector<std::thread> pool;
    pool.reserve(workers);
    const std::size_t chunk = (cells + workers - 1) / workers;
    for (unsigned w = 0; w < workers; ++w) {
      const std::size_t begin = std::min<std::size_t>(w * chunk, cells);
      const std::size_t end = std::min<std::size_t>(begin + chunk, cells);
      if (begin == end) break;
      pool.emplace_back([&evaluator, &outcomes, begin, end] {
        evaluator.evaluate_range(begin, end, outcomes.data() + begin);
      });
    }
    for (std::thread& t : pool) t.join();
  }

  CurveResult result;
  result.spec = evaluator.spec();
  result.points = evaluator.finalize(outcomes);
  return result;
}

namespace {

std::string fixed6(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6f", value);
  return buffer;
}

}  // namespace

std::string to_csv(const CurveResult& result) {
  report::CsvWriter csv;
  csv.add_row({"fault_rate", "trials", "yield", "flexibility_retention",
               "connectivity", "survival"});
  for (const CurvePoint& p : result.points) {
    csv.add_row({fixed6(p.fault_rate), std::to_string(p.trials),
                 fixed6(p.yield), fixed6(p.mean_flexibility),
                 fixed6(p.mean_connectivity), fixed6(p.mean_survival)});
  }
  return csv.str();
}

std::string to_svg(const CurveResult& result, const std::string& title) {
  std::vector<std::string> x_labels;
  x_labels.reserve(result.points.size());
  report::Series yield{"yield", {}};
  report::Series flex{"flexibility retention", {}};
  report::Series conn{"connectivity", {}};
  for (const CurvePoint& p : result.points) {
    char label[32];
    std::snprintf(label, sizeof(label), "%.3f", p.fault_rate);
    x_labels.push_back(label);
    yield.values.push_back(p.yield);
    flex.values.push_back(p.mean_flexibility);
    conn.values.push_back(p.mean_connectivity);
  }
  report::SvgOptions options;
  options.title = title.empty() ? "graceful degradation" : title;
  return report::svg_line_chart(x_labels, {yield, flex, conn}, options);
}

}  // namespace mpct::fault
