#include "fault/degradation_curve.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>

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

constexpr std::size_t kLanes = CurveEvaluator::kLanes;

// The census kernel's lane vector, one 64-bit word per trial, through the
// GCC/clang vector extension.  Vector values stay inside this file and
// travel only by reference or memcpy: passed by value they would change
// the calling convention with the ISA (-Wpsabi), and a container of them
// would lose their 64-byte alignment.
using LaneVector = std::uint64_t
    __attribute__((vector_size(kLanes * sizeof(std::uint64_t))));
/// A lane-wise comparison's result: -1 where the lane's test held, else 0.
using LaneMask = std::int64_t
    __attribute__((vector_size(kLanes * sizeof(std::int64_t))));

/// kLanes xorshift64* streams stepped in lockstep, one lane per trial.
struct LaneStreams {
  LaneVector state;
  LaneVector threshold;

  /// One Bernoulli draw on every lane: Rng::bernoulli lane by lane.
  [[gnu::always_inline]] void draw(LaneMask& hit) {
    Rng::advance(state);
    hit = LaneMask(((state * Rng::kMultiplier) >> 11) < threshold);
  }

  /// Draw @p components per lane, adding each lane's hits to @p dead.
  [[gnu::always_inline]] void count(std::int64_t components,
                                    LaneMask& dead) {
    LaneMask hit;
    for (std::int64_t c = 0; c < components; ++c) {
      draw(hit);
      dead -= hit;
    }
  }
};

/// The NoC links sample_faults draws: each node's east link, then its
/// south link, in row-major node order.
std::size_t noc_link_count(const FabricShape& shape) {
  const std::int64_t w = shape.noc_width, h = shape.noc_height;
  if (w <= 0 || h <= 0) return 0;
  return static_cast<std::size_t>((w - 1) * h + w * (h - 1));
}

/// The census kernel, written once and compiled once per variant below.
/// Every step is integer arithmetic on the lanes, and each lane draws its
/// own stream in sample_faults' order, so all variants give the same bits.
[[gnu::always_inline]] inline void draw_census(
    const FabricShape& shape, const detail::LaneWords& seeds,
    const detail::LaneWords& thresholds, std::size_t live,
    detail::CensusBlock& out) {
  detail::LaneWords state{}, threshold{};
  for (std::size_t l = 0; l < kLanes; ++l) {
    state[l] = Rng::initial_state(seeds[l]);
    if (l < live) threshold[l] = thresholds[l];
  }
  LaneStreams lanes;
  std::memcpy(&lanes.state, state.data(), sizeof lanes.state);
  std::memcpy(&lanes.threshold, threshold.data(), sizeof lanes.threshold);

  // Router i kills DP i unless DP i already died, so the router draws
  // need the fate of each DP that has a router.
  const std::int64_t nodes = std::max(shape.noc_nodes(), 0);
  const std::int64_t routed_dps =
      std::max<std::int64_t>(std::min(shape.dps, nodes), 0);
  const std::size_t links = noc_link_count(shape);
  out.dp_dead.resize(static_cast<std::size_t>(routed_dps) * kLanes);
  out.router_dead.resize(static_cast<std::size_t>(nodes) * kLanes);
  out.link_dead.resize(links * kLanes);

  LaneMask ips{}, dps{}, luts{}, hit;
  LaneMask ports[kConnectivityRoleCount] = {};
  lanes.count(shape.ips, ips);
  for (std::int64_t d = 0; d < routed_dps; ++d) {
    lanes.draw(hit);
    std::memcpy(&out.dp_dead[static_cast<std::size_t>(d) * kLanes], &hit,
                sizeof hit);
    dps -= hit;
  }
  lanes.count(shape.dps - routed_dps, dps);
  lanes.count(shape.luts, luts);
  for (std::size_t role = 0; role < kConnectivityRoleCount; ++role) {
    lanes.count(shape.switch_ports[role], ports[role]);
  }
  for (std::int64_t node = 0; node < nodes; ++node) {
    const std::size_t at = static_cast<std::size_t>(node) * kLanes;
    lanes.draw(hit);
    std::memcpy(&out.router_dead[at], &hit, sizeof hit);
    if (node < routed_dps) {
      LaneMask dp_dead;
      std::memcpy(&dp_dead, &out.dp_dead[at], sizeof dp_dead);
      dps -= hit & ~dp_dead;
    }
  }
  for (std::size_t link = 0; link < links; ++link) {
    lanes.draw(hit);
    std::memcpy(&out.link_dead[link * kLanes], &hit, sizeof hit);
  }

  std::memcpy(out.ips.data(), &ips, sizeof ips);
  std::memcpy(out.dps.data(), &dps, sizeof dps);
  std::memcpy(out.luts.data(), &luts, sizeof luts);
  for (std::size_t role = 0; role < kConnectivityRoleCount; ++role) {
    std::memcpy(out.ports[role].data(), &ports[role], sizeof ports[role]);
  }
}

void census_baseline(const FabricShape& shape, const detail::LaneWords& seeds,
                     const detail::LaneWords& thresholds, std::size_t live,
                     detail::CensusBlock& out) {
  draw_census(shape, seeds, thresholds, live, out);
}

#if defined(__x86_64__)
// AVX-512F holds all eight lanes in one register; AVX-512DQ adds the
// 64-bit lane multiply (vpmullq) and the mask-to-vector move.
[[gnu::target("avx512f,avx512dq")]] void census_avx512(
    const FabricShape& shape, const detail::LaneWords& seeds,
    const detail::LaneWords& thresholds, std::size_t live,
    detail::CensusBlock& out) {
  draw_census(shape, seeds, thresholds, live, out);
}
#endif

std::vector<detail::CensusVariant> runnable_variants() {
  std::vector<detail::CensusVariant> variants{{"baseline", census_baseline}};
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512dq")) {
    variants.push_back({"avx512", census_avx512});
  }
#endif
  return variants;
}

/// Lane @p lane's NoC faults from @p block's router and link masks, in
/// sample_faults' order.
void lane_noc_faults(const FabricShape& shape, const detail::CensusBlock& block,
                     std::size_t lane, std::vector<Fault>& faults) {
  faults.clear();
  const int nodes = shape.noc_nodes();
  for (int node = 0; node < nodes; ++node) {
    if (block.router_dead[static_cast<std::size_t>(node) * kLanes + lane]) {
      faults.push_back(
          Fault{FaultKind::NocRouterDead, ConnectivityRole::IpIp, node, 0});
    }
  }
  std::size_t link = 0;
  const auto link_fault = [&](int a, int b) {
    if (block.link_dead[link++ * kLanes + lane]) {
      faults.push_back(
          Fault{FaultKind::NocLinkDead, ConnectivityRole::IpIp, a, b});
    }
  };
  for (int y = 0; y < shape.noc_height; ++y) {
    for (int x = 0; x < shape.noc_width; ++x) {
      const int node = y * shape.noc_width + x;
      if (x + 1 < shape.noc_width) link_fault(node, node + 1);
      if (y + 1 < shape.noc_height) link_fault(node, node + shape.noc_width);
    }
  }
}

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

}  // namespace

namespace detail {

std::span<const CensusVariant> census_variants() {
  static const std::vector<CensusVariant> variants = runnable_variants();
  return variants;
}

const CensusVariant& census_kernel() { return census_variants().back(); }

}  // namespace detail

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
  const detail::CensusVariant& kernel = detail::census_kernel();
  detail::CensusBlock block;
  std::vector<Fault> noc_faults;

  // Each block draws kLanes consecutive trials' streams as one vector.  A
  // lane draws exactly its own trial's stream in sample_faults' canonical
  // component order, so its census equals that of the oracle's FaultSet.
  // Lanes past `end` (range tails) draw nothing and are dropped.
  for (std::size_t first = begin; first < end; first += kLanes) {
    const std::size_t live = std::min(kLanes, end - first);
    detail::LaneWords seeds{}, thresholds{};
    for (std::size_t l = 0; l < live; ++l) {
      seeds[l] = Rng::derive_seed(spec_.seed, first + l);
      thresholds[l] =
          Rng::bernoulli_threshold(spec_.fault_rates[(first + l) / trials]);
    }
    kernel.run(shape_, seeds, thresholds, live, block);

    for (std::size_t l = 0; l < live; ++l) {
      detail::DeadCensus dead;
      dead.ips = block.ips[l];
      dead.dps = block.dps[l];
      dead.luts = block.luts[l];
      for (std::size_t role = 0; role < kConnectivityRoleCount; ++role) {
        dead.ports[role] = block.ports[role][l];
      }
      lane_noc_faults(shape_, block, l, noc_faults);
      out[first - begin + l] = outcome_of(
          detail::structural_degrade(spec_.machine, shape_, dead),
          original_score_, shape_, noc_faults);
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
                           const cost::ComponentLibrary& lib) {
  const CurveEvaluator evaluator(spec, lib);
  std::vector<TrialOutcome> outcomes(evaluator.cell_count());
  evaluator.evaluate_range(0, outcomes.size(), outcomes.data());

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
