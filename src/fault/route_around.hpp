#pragma once

#include <span>
#include <string>

#include "fault/fault_model.hpp"
#include "interconnect/mesh_noc.hpp"
#include "interconnect/traffic.hpp"

namespace mpct::fault {

/// Connectivity and performance loss of a NoC-backed fabric under a
/// FaultSet, measured by re-running the existing traffic generators on
/// the route-around mesh (dead routers/links masked, BFS detours).
struct NocDegradation {
  int width = 0;
  int height = 0;
  int total_routers = 0;
  int alive_routers = 0;
  int failed_links = 0;  ///< NocLinkDead faults that named a real link
  /// Ordered alive-router pairs still connected (1.0 fault-free).
  double reachable_fraction = 1.0;
  int bisection_before = 0;  ///< mid-cut links of the pristine mesh
  int bisection_after = 0;   ///< surviving mid-cut links
  interconnect::MeshNoc::Stats baseline;  ///< uniform traffic, no faults
  interconnect::MeshNoc::Stats degraded;  ///< same packets, faulted mesh
  /// degraded.delivered / baseline.delivered in [0, 1] (1.0 when the
  /// baseline delivered nothing — no traffic means nothing was lost).
  double delivered_ratio = 1.0;

  double bisection_retention() const {
    return bisection_before == 0
               ? 1.0
               : static_cast<double>(bisection_after) / bisection_before;
  }
};

/// Build the shape's mesh with every NocRouterDead / NocLinkDead fault
/// applied.  Faults naming routers or links outside the shape's mesh are
/// inert.  Throws std::invalid_argument when the shape carries no NoC
/// (noc_width * noc_height == 0).
interconnect::MeshNoc build_degraded_noc(const FabricShape& shape,
                                         const FaultSet& faults,
                                         int link_capacity = 1);

/// Same, over a plain fault list (any order; structural faults are
/// ignored) — the curve kernel passes each trial's NoC faults without
/// building a FaultSet.
interconnect::MeshNoc build_degraded_noc(const FabricShape& shape,
                                         std::span<const Fault> faults,
                                         int link_capacity = 1);

/// Simulate the same uniform traffic (same params, same packet stream)
/// on the pristine and the degraded mesh and report connectivity /
/// bisection / delivery loss.  Fully deterministic in (shape, faults,
/// params).  Throws like build_degraded_noc when the shape has no NoC.
NocDegradation analyze_noc(const FabricShape& shape, const FaultSet& faults,
                           const interconnect::TrafficParams& params = {});

/// One-line human summary for reports and examples.
std::string to_string(const NocDegradation& d);

}  // namespace mpct::fault
