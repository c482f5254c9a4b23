#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>

#include "arch/spec.hpp"
#include "core/classifier.hpp"
#include "core/machine_class.hpp"
#include "cost/component_library.hpp"
#include "cost/cost_plan.hpp"
#include "fault/fault_model.hpp"

namespace mpct::fault {

/// The structural consequence of a FaultSet applied to a bound fabric:
/// the surviving component census, the *degraded* machine class the
/// survivors form, its (re)classification, flexibility, and the Eq. 1 /
/// Eq. 2 cost of the surviving fabric.
///
/// Classification of the degraded structure may legitimately fail — a
/// fabric whose last DP died computes nothing, and n IPs left driving a
/// single surviving DP is one of Table I's NI rows.  Those cases come
/// back as a well-typed `classification` with `ok() == false` and a
/// non-empty note (never an assert, never silent garbage); `alive()`
/// folds them into one predicate.
///
/// Monotonicity guarantee (test-enforced over all 47 canonical classes
/// and fuzzed structures): faults only remove capability, so whenever
/// both the original and the degraded structure classify,
/// `degraded_score <= original_score`, i.e. degradation only moves a
/// class *down* the flexibility order of Table I — multiplicities only
/// shrink (n -> 1 -> 0), crossbars can only disappear, and the
/// granularity never changes.
struct DegradeResult {
  MachineClass original;
  Classification original_classification;
  int original_score = 0;

  FaultSet faults;  ///< the applied set (canonical order)

  // Surviving census.
  std::int64_t surviving_ips = 0;
  std::int64_t surviving_dps = 0;
  std::int64_t surviving_luts = 0;
  std::array<std::int64_t, kConnectivityRoleCount> surviving_ports{};
  /// Fraction of the shape's components (blocks + switch ports) still
  /// alive; 1.0 for an empty FaultSet.
  double component_survival = 1.0;

  // Degraded structure.
  MachineClass degraded;
  Classification classification;  ///< of `degraded`
  int degraded_score = 0;         ///< 0 when !classification.ok()

  // Eq. 1 / Eq. 2 of the original and the surviving fabric (degraded
  // values are 0 when the degraded structure does not classify).
  cost::CostPoint original_cost;
  cost::CostPoint degraded_cost;

  /// The fabric still classifies as an implementable machine.
  bool alive() const {
    return classification.ok() && classification.implementable;
  }

  /// degraded flexibility / original flexibility in [0, 1]; 0 when dead,
  /// 1 when the original scored 0 but the fabric is still alive (an
  /// inflexible machine that survives retains all of nothing).
  double flexibility_retention() const;
};

namespace detail {

/// degrade() minus everything a Monte-Carlo trial does not consume: the
/// surviving census, the degraded structure, its (re)classification and
/// flexibility — but no Eq. 1 / Eq. 2 pricing and no re-derivation of
/// the original's classification (both are per-spec invariants a curve
/// hoists out of the trial loop).
struct StructuralDegrade {
  std::int64_t surviving_ips = 0;
  std::int64_t surviving_dps = 0;
  std::int64_t surviving_luts = 0;
  std::array<std::int64_t, kConnectivityRoleCount> surviving_ports{};
  double component_survival = 1.0;
  MachineClass degraded;
  Classification classification;
  int degraded_score = 0;

  bool alive() const {
    return classification.ok() && classification.implementable;
  }
};

/// How many components of each population a fault set killed, within
/// the shape's bounds.  `dps` includes the DPs lost to a dead co-located
/// NoC router (counted once when the DP itself also died).  Without a
/// NoC this census is all a trial's structural outcome depends on.
struct DeadCensus {
  std::int64_t ips = 0;
  std::int64_t dps = 0;
  std::int64_t luts = 0;
  std::array<std::int64_t, kConnectivityRoleCount> ports{};
};

/// Shared structural kernel: both degrade() and the curve batch path
/// funnel through this, so their census/classification/score agree bit
/// for bit.  The curve kernel counts its census while drawing.
StructuralDegrade structural_degrade(const MachineClass& mc,
                                     const FabricShape& shape,
                                     const DeadCensus& dead);

/// Census @p faults (out-of-range faults are inert), then build the
/// structure from it.  @p faults must be in FaultSet's canonical order
/// (sorted, unique), as FaultSet::faults() is.
StructuralDegrade structural_degrade(const MachineClass& mc,
                                     const FabricShape& shape,
                                     std::span<const Fault> faults);

}  // namespace detail

/// Apply @p faults to the class @p mc bound at @p shape.
///
/// Degradation rules:
///  * block multiplicities re-derive from the surviving counts
///    (0 -> Zero, 1 -> One, >= 2 -> Many; a Variable population stays
///    Variable while any block survives);
///  * a connectivity column whose ports all died becomes None; a column
///    with any surviving port keeps its switch kind (a crossbar with dead
///    ports is a smaller crossbar, not a direct wire);
///  * columns whose endpoint population died out are stripped (a dead IP
///    set cannot keep IP-side connectivity) — this is what lets "all IPs
///    dead" degrade an IMP gracefully into a data-flow multiprocessor
///    instead of an inconsistent orphan structure;
///  * NocRouterDead i kills the co-located DP i when the shape carries a
///    NoC; NocLinkDead affects only the connectivity analysis
///    (fault/route_around.hpp), not the structural class.
///
/// Cost binding of the surviving fabric: Many binds to the smallest
/// surviving Many-population (a lockstep fabric is paced by its scarcest
/// resource) and Variable to the surviving block count.
///
/// Deterministic and allocation-light; safe for concurrent callers
/// (reads only the taxonomy singletons documented thread-safe).
DegradeResult degrade(const MachineClass& mc, const FabricShape& shape,
                      const FaultSet& faults,
                      const cost::ComponentLibrary& lib =
                          cost::ComponentLibrary::default_library(),
                      const cost::EstimateOptions& bindings = {});

/// Convenience: bind @p spec's counts through @p bindings (FabricShape::of)
/// and degrade the resulting shape.
DegradeResult degrade(const arch::ArchitectureSpec& spec,
                      const FaultSet& faults,
                      const cost::ComponentLibrary& lib =
                          cost::ComponentLibrary::default_library(),
                      const cost::EstimateOptions& bindings = {});

/// One-line human summary: "IMP-XVI -> DMP-IV (flex 6 -> 3, 71% alive)".
std::string to_string(const DegradeResult& result);

}  // namespace mpct::fault
