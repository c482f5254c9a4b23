#include "fault/degrade.hpp"

#include <algorithm>
#include <cstdio>

#include "core/flexibility.hpp"

namespace mpct::fault {

namespace {

/// Well-typed diagnosis for the one degraded shape classify() cannot
/// describe itself: a universal-flow fabric whose whole block population
/// died (classify would still call any LUT-grain structure a USP).
constexpr std::string_view kNoteFabricDead =
    "universal-flow fabric: every LUT block failed; nothing remains to "
    "assume an IP or DP role";

Multiplicity degrade_multiplicity(Multiplicity original,
                                  std::int64_t surviving) {
  if (original == Multiplicity::Variable) {
    return surviving > 0 ? Multiplicity::Variable : Multiplicity::Zero;
  }
  if (surviving <= 0) return Multiplicity::Zero;
  if (surviving == 1) return Multiplicity::One;
  return Multiplicity::Many;
}

void strip_column(MachineClass& mc, ConnectivityRole role) {
  mc.set_switch(role, SwitchKind::None);
}

}  // namespace

double DegradeResult::flexibility_retention() const {
  if (!alive()) return 0.0;
  if (original_score <= 0) return 1.0;
  return static_cast<double>(degraded_score) /
         static_cast<double>(original_score);
}

namespace detail {

StructuralDegrade structural_degrade(const MachineClass& mc,
                                     const FabricShape& shape,
                                     std::span<const Fault> faults) {
  // Count each dead component once, respecting the shape's bounds (an
  // out-of-range fault names a component this fabric instance does not
  // have; it is inert by construction, not an error).
  DeadCensus dead;
  const int noc_nodes = shape.noc_nodes();
  for (const Fault& fault : faults) {
    switch (fault.kind) {
      case FaultKind::IpDead:
        if (fault.index >= 0 && fault.index < shape.ips) ++dead.ips;
        break;
      case FaultKind::DpDead:
        if (fault.index >= 0 && fault.index < shape.dps) ++dead.dps;
        break;
      case FaultKind::LutDead:
        if (fault.index >= 0 && fault.index < shape.luts) ++dead.luts;
        break;
      case FaultKind::SwitchPortDead: {
        const auto role = static_cast<std::size_t>(fault.role);
        if (fault.index >= 0 && fault.index < shape.switch_ports[role]) {
          ++dead.ports[role];
        }
        break;
      }
      case FaultKind::NocRouterDead:
        // Router i is co-located with DP i: losing the router unreaches
        // the DP.  Count it dead unless a DpDead fault already did.
        if (fault.index >= 0 && fault.index < noc_nodes &&
            fault.index < shape.dps &&
            !std::binary_search(faults.begin(), faults.end(),
                                Fault{FaultKind::DpDead,
                                      ConnectivityRole::IpIp, fault.index,
                                      0})) {
          ++dead.dps;
        }
        break;
      case FaultKind::NocLinkDead:
        // Topology-level: handled by the route-around analysis, not the
        // structural class.
        break;
    }
  }
  return structural_degrade(mc, shape, dead);
}

StructuralDegrade structural_degrade(const MachineClass& mc,
                                     const FabricShape& shape,
                                     const DeadCensus& dead) {
  StructuralDegrade result;

  // --- Surviving census -------------------------------------------------
  result.surviving_ips = shape.ips - dead.ips;
  result.surviving_dps = shape.dps - dead.dps;
  result.surviving_luts = shape.luts - dead.luts;
  std::int64_t alive_components =
      result.surviving_ips + result.surviving_dps + result.surviving_luts;
  for (ConnectivityRole role : kAllConnectivityRoles) {
    const auto i = static_cast<std::size_t>(role);
    result.surviving_ports[i] = shape.switch_ports[i] - dead.ports[i];
    alive_components += result.surviving_ports[i];
  }
  const std::int64_t total = shape.total_components();
  result.component_survival =
      total <= 0 ? 1.0
                 : static_cast<double>(alive_components) /
                       static_cast<double>(total);

  // --- Degraded structure ----------------------------------------------
  MachineClass degraded = mc;
  // A column whose ports all died can no longer switch anything.
  for (ConnectivityRole role : kAllConnectivityRoles) {
    const auto i = static_cast<std::size_t>(role);
    if (degraded.switch_at(role) != SwitchKind::None &&
        shape.switch_ports[i] > 0 && result.surviving_ports[i] <= 0) {
      strip_column(degraded, role);
    }
  }
  if (mc.granularity == Granularity::Lut) {
    result.degraded = degraded;
    if (shape.luts > 0 && result.surviving_luts <= 0) {
      result.classification.name.reset();
      result.classification.implementable = false;
      result.classification.note = std::string(kNoteFabricDead);
    } else {
      result.classification = classify(degraded);
    }
  } else {
    degraded.ips = degrade_multiplicity(mc.ips, result.surviving_ips);
    degraded.dps = degrade_multiplicity(mc.dps, result.surviving_dps);
    // A dead population cannot keep its side's connectivity: stripping
    // these columns is what lets the survivors form a coherent smaller
    // machine (IMP with no IPs left -> data-flow multiprocessor) instead
    // of an orphan structure classify() must reject.
    if (result.surviving_ips <= 0) {
      strip_column(degraded, ConnectivityRole::IpIp);
      strip_column(degraded, ConnectivityRole::IpDp);
      strip_column(degraded, ConnectivityRole::IpIm);
    }
    if (result.surviving_dps <= 0) {
      strip_column(degraded, ConnectivityRole::IpDp);
      strip_column(degraded, ConnectivityRole::DpDm);
      strip_column(degraded, ConnectivityRole::DpDp);
    }
    result.degraded = degraded;
    result.classification = classify(degraded);
  }
  result.degraded_score =
      result.classification.ok() ? flexibility_score(result.degraded) : 0;
  return result;
}

}  // namespace detail

DegradeResult degrade(const MachineClass& mc, const FabricShape& shape,
                      const FaultSet& faults,
                      const cost::ComponentLibrary& lib,
                      const cost::EstimateOptions& bindings) {
  DegradeResult result;
  result.original = mc;
  result.original_classification = classify(mc);
  result.original_score = flexibility_score(mc);
  result.faults = faults;

  detail::StructuralDegrade structural =
      detail::structural_degrade(mc, shape, faults.faults());
  result.surviving_ips = structural.surviving_ips;
  result.surviving_dps = structural.surviving_dps;
  result.surviving_luts = structural.surviving_luts;
  result.surviving_ports = structural.surviving_ports;
  result.component_survival = structural.component_survival;
  result.degraded = structural.degraded;
  result.classification = std::move(structural.classification);
  result.degraded_score = structural.degraded_score;

  // --- Costs ------------------------------------------------------------
  const cost::CostPlan original_plan(mc, lib, bindings.include_ip_dp_switch);
  result.original_cost = original_plan.evaluate(bindings.n, bindings.v);
  if (result.alive()) {
    // The surviving fabric is paced by its scarcest Many-population; a
    // Variable population binds to its surviving block count.
    std::int64_t n_eff = bindings.n;
    bool have_many = false;
    const auto consider = [&](Multiplicity m, std::int64_t surviving) {
      if (m != Multiplicity::Many) return;
      n_eff = have_many ? std::min(n_eff, surviving) : surviving;
      have_many = true;
    };
    consider(result.degraded.ips, result.surviving_ips);
    consider(result.degraded.dps, result.surviving_dps);
    if (have_many) n_eff = std::max<std::int64_t>(n_eff, 2);
    const std::int64_t v_eff =
        result.surviving_luts > 0 ? result.surviving_luts : bindings.v;
    const cost::CostPlan degraded_plan(result.degraded, lib,
                                       bindings.include_ip_dp_switch);
    result.degraded_cost = degraded_plan.evaluate(n_eff, v_eff);
  }
  return result;
}

DegradeResult degrade(const arch::ArchitectureSpec& spec,
                      const FaultSet& faults,
                      const cost::ComponentLibrary& lib,
                      const cost::EstimateOptions& bindings) {
  return degrade(spec.machine_class(), FabricShape::of(spec, bindings),
                 faults, lib, bindings);
}

std::string to_string(const DegradeResult& result) {
  const auto name_of = [](const Classification& c) -> std::string {
    if (c.ok()) return mpct::to_string(*c.name);
    return c.note.empty() ? std::string("unclassifiable") : c.note;
  };
  char survival[32];
  std::snprintf(survival, sizeof(survival), "%.0f%% alive",
                100.0 * result.component_survival);
  return name_of(result.original_classification) + " -> " +
         name_of(result.classification) + " (flex " +
         std::to_string(result.original_score) + " -> " +
         std::to_string(result.degraded_score) + ", " + survival + ")";
}

}  // namespace mpct::fault
