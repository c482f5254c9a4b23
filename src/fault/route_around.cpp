#include "fault/route_around.hpp"

#include <cstdio>
#include <stdexcept>

#include "trace/trace.hpp"

namespace mpct::fault {

interconnect::MeshNoc build_degraded_noc(const FabricShape& shape,
                                         const FaultSet& faults,
                                         int link_capacity) {
  return build_degraded_noc(shape, faults.faults(), link_capacity);
}

interconnect::MeshNoc build_degraded_noc(const FabricShape& shape,
                                         std::span<const Fault> faults,
                                         int link_capacity) {
  if (shape.noc_nodes() <= 0) {
    throw std::invalid_argument("build_degraded_noc: shape has no NoC");
  }
  interconnect::MeshNoc mesh(shape.noc_width, shape.noc_height,
                             link_capacity);
  for (const Fault& fault : faults) {
    switch (fault.kind) {
      case FaultKind::NocRouterDead:
        if (fault.index >= 0 && fault.index < mesh.node_count()) {
          mesh.fail_node(fault.index);
        }
        break;
      case FaultKind::NocLinkDead:
        mesh.fail_link(fault.index, fault.index2);
        break;
      default:
        break;  // structural faults do not touch the NoC topology
    }
  }
  return mesh;
}

NocDegradation analyze_noc(const FabricShape& shape, const FaultSet& faults,
                           const interconnect::TrafficParams& params) {
  trace::ProfileTimer timer(trace::ProfilePoint::RouteAround);
  NocDegradation d;
  d.width = shape.noc_width;
  d.height = shape.noc_height;

  interconnect::MeshNoc pristine(shape.noc_width, shape.noc_height);
  interconnect::MeshNoc degraded = build_degraded_noc(shape, faults);
  d.total_routers = pristine.node_count();
  d.alive_routers = degraded.alive_node_count();
  for (const Fault& fault : faults.faults()) {
    if (fault.kind == FaultKind::NocLinkDead &&
        !degraded.link_alive(fault.index, fault.index2) &&
        fault.index >= 0 && fault.index2 < pristine.node_count()) {
      ++d.failed_links;
    }
  }
  d.reachable_fraction = degraded.reachable_fraction();
  d.bisection_before = pristine.bisection_width();
  d.bisection_after = degraded.bisection_width();

  // Identical packet stream on both meshes: the generators draw from the
  // pristine topology, so the comparison isolates the routing fabric.
  std::vector<interconnect::Packet> packets =
      interconnect::uniform_traffic(pristine, params);
  std::vector<interconnect::Packet> replay = packets;
  d.baseline = pristine.simulate(packets);
  d.degraded = degraded.simulate(replay);
  d.delivered_ratio =
      d.baseline.delivered == 0
          ? 1.0
          : static_cast<double>(d.degraded.delivered) /
                static_cast<double>(d.baseline.delivered);
  return d;
}

std::string to_string(const NocDegradation& d) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer),
                "mesh %dx%d: %d/%d routers, %d links down, reach %.3f, "
                "bisection %d->%d, delivery %.3f",
                d.width, d.height, d.alive_routers, d.total_routers,
                d.failed_links, d.reachable_fraction, d.bisection_before,
                d.bisection_after, d.delivered_ratio);
  return buffer;
}

}  // namespace mpct::fault
