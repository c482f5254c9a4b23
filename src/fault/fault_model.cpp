#include "fault/fault_model.hpp"

#include <algorithm>
#include <limits>
#include <map>

namespace mpct::fault {

namespace {

/// Shape counts bound from multiplicities can be arbitrary int64 design
/// points, but Fault indices are int32; clamp so sampling never overflows
/// (a fabric with > 2^31 components is outside the model's scope anyway).
std::int64_t clamp_count(std::int64_t count) {
  return std::clamp<std::int64_t>(count, 0,
                                  std::numeric_limits<std::int32_t>::max());
}

std::int64_t bind(Multiplicity m, const cost::EstimateOptions& bindings) {
  switch (m) {
    case Multiplicity::Zero:
      return 0;
    case Multiplicity::One:
      return 1;
    case Multiplicity::Many:
      return clamp_count(bindings.n);
    case Multiplicity::Variable:
      return clamp_count(bindings.v);
  }
  return 0;
}

}  // namespace

std::string_view to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::IpDead:
      return "ip";
    case FaultKind::DpDead:
      return "dp";
    case FaultKind::SwitchPortDead:
      return "switch-port";
    case FaultKind::NocRouterDead:
      return "noc-router";
    case FaultKind::NocLinkDead:
      return "noc-link";
    case FaultKind::LutDead:
      return "lut";
  }
  return "unknown";
}

std::string to_string(const Fault& fault) {
  switch (fault.kind) {
    case FaultKind::SwitchPortDead:
      return "port[" + std::string(to_string(fault.role)) + ":" +
             std::to_string(fault.index) + "]";
    case FaultKind::NocLinkDead:
      return "link[" + std::to_string(fault.index) + "-" +
             std::to_string(fault.index2) + "]";
    default:
      return std::string(to_string(fault.kind)) + "[" +
             std::to_string(fault.index) + "]";
  }
}

FaultSet::FaultSet(std::vector<Fault> faults) : faults_(std::move(faults)) {
  std::sort(faults_.begin(), faults_.end());
  faults_.erase(std::unique(faults_.begin(), faults_.end()), faults_.end());
}

void FaultSet::add(const Fault& fault) {
  const auto at = std::lower_bound(faults_.begin(), faults_.end(), fault);
  if (at != faults_.end() && *at == fault) return;
  faults_.insert(at, fault);
}

void FaultSet::add(FaultKind kind, std::int32_t index) {
  add(Fault{kind, ConnectivityRole::IpIp, index, 0});
}

void FaultSet::add_switch_port(ConnectivityRole role, std::int32_t port) {
  add(Fault{FaultKind::SwitchPortDead, role, port, 0});
}

void FaultSet::add_noc_link(std::int32_t a, std::int32_t b) {
  add(Fault{FaultKind::NocLinkDead, ConnectivityRole::IpIp, std::min(a, b),
            std::max(a, b)});
}

bool FaultSet::contains(const Fault& fault) const {
  return std::binary_search(faults_.begin(), faults_.end(), fault);
}

std::size_t FaultSet::count(FaultKind kind) const {
  return static_cast<std::size_t>(
      std::count_if(faults_.begin(), faults_.end(),
                    [kind](const Fault& f) { return f.kind == kind; }));
}

std::size_t FaultSet::count_ports(ConnectivityRole role) const {
  return static_cast<std::size_t>(std::count_if(
      faults_.begin(), faults_.end(), [role](const Fault& f) {
        return f.kind == FaultKind::SwitchPortDead && f.role == role;
      }));
}

void FaultSet::merge(const FaultSet& other) {
  for (const Fault& fault : other.faults_) add(fault);
}

std::int64_t FabricShape::total_ports() const {
  std::int64_t total = 0;
  for (std::int64_t ports : switch_ports) total += ports;
  return total;
}

FabricShape FabricShape::of(const MachineClass& mc,
                            const cost::EstimateOptions& bindings) {
  FabricShape shape;
  if (mc.granularity == Granularity::Lut) {
    // Universal flow: v fine-grained blocks; every populated column is a
    // crossbar over the block population (the Eq. 1/Eq. 2 view).
    shape.luts = clamp_count(bindings.v);
    for (ConnectivityRole role : kAllConnectivityRoles) {
      if (mc.switch_at(role) != SwitchKind::None) {
        shape.switch_ports[static_cast<std::size_t>(role)] = shape.luts;
      }
    }
    return shape;
  }
  shape.ips = bind(mc.ips, bindings);
  shape.dps = bind(mc.dps, bindings);
  for (ConnectivityRole role : kAllConnectivityRoles) {
    if (mc.switch_at(role) == SwitchKind::None) continue;
    std::int64_t ports = 0;
    switch (role) {
      case ConnectivityRole::IpIp:
        ports = shape.ips;  // one port per participating IP
        break;
      case ConnectivityRole::IpDp:
        ports = shape.ips + shape.dps;
        break;
      case ConnectivityRole::IpIm:
        ports = 2 * shape.ips;  // one IM per IP in the cost model
        break;
      case ConnectivityRole::DpDm:
        ports = 2 * shape.dps;  // one DM per DP
        break;
      case ConnectivityRole::DpDp:
        ports = shape.dps;
        break;
    }
    shape.switch_ports[static_cast<std::size_t>(role)] = clamp_count(ports);
  }
  return shape;
}

FabricShape FabricShape::of(const arch::ArchitectureSpec& spec,
                            const cost::EstimateOptions& bindings) {
  // Concrete fixed counts bind exactly; symbolic counts through the same
  // n/m/v substitutions the cost estimators use.
  FabricShape shape = of(spec.machine_class(), bindings);
  const std::map<char, std::int64_t> symbols{{'n', bindings.n},
                                             {'m', bindings.m}};
  const MachineClass mc = spec.machine_class();
  if (mc.granularity == Granularity::IpDp) {
    if (const auto ips = spec.ips.evaluate(symbols)) {
      shape.ips = clamp_count(*ips);
    }
    if (const auto dps = spec.dps.evaluate(symbols)) {
      shape.dps = clamp_count(*dps);
    }
    // Re-derive port populations from the concrete block counts.
    for (ConnectivityRole role : kAllConnectivityRoles) {
      if (mc.switch_at(role) == SwitchKind::None) continue;
      std::int64_t ports = 0;
      switch (role) {
        case ConnectivityRole::IpIp:
          ports = shape.ips;
          break;
        case ConnectivityRole::IpDp:
          ports = shape.ips + shape.dps;
          break;
        case ConnectivityRole::IpIm:
          ports = 2 * shape.ips;
          break;
        case ConnectivityRole::DpDm:
          ports = 2 * shape.dps;
          break;
        case ConnectivityRole::DpDp:
          ports = shape.dps;
          break;
      }
      shape.switch_ports[static_cast<std::size_t>(role)] = clamp_count(ports);
    }
  }
  return shape;
}

FaultSet sample_faults(const FabricShape& shape, const FaultRates& rates,
                       std::uint64_t seed) {
  Rng rng(seed);
  // Draw unconditionally so the stream position of every later component
  // is independent of earlier rates — changing one rate must not
  // reshuffle which components fail elsewhere.  The integer threshold is
  // the exact form of `next_double() < rate` the curve kernel shares.
  const std::uint64_t ip = Rng::bernoulli_threshold(rates.ip);
  const std::uint64_t dp = Rng::bernoulli_threshold(rates.dp);
  const std::uint64_t lut = Rng::bernoulli_threshold(rates.lut);
  const std::uint64_t port = Rng::bernoulli_threshold(rates.switch_port);
  const std::uint64_t router = Rng::bernoulli_threshold(rates.noc_router);
  const std::uint64_t link = Rng::bernoulli_threshold(rates.noc_link);
  std::vector<Fault> faults;
  for (std::int64_t i = 0; i < shape.ips; ++i) {
    if (rng.bernoulli(ip)) {
      faults.push_back(Fault{FaultKind::IpDead, ConnectivityRole::IpIp,
                             static_cast<std::int32_t>(i), 0});
    }
  }
  for (std::int64_t i = 0; i < shape.dps; ++i) {
    if (rng.bernoulli(dp)) {
      faults.push_back(Fault{FaultKind::DpDead, ConnectivityRole::IpIp,
                             static_cast<std::int32_t>(i), 0});
    }
  }
  for (std::int64_t i = 0; i < shape.luts; ++i) {
    if (rng.bernoulli(lut)) {
      faults.push_back(Fault{FaultKind::LutDead, ConnectivityRole::IpIp,
                             static_cast<std::int32_t>(i), 0});
    }
  }
  for (ConnectivityRole role : kAllConnectivityRoles) {
    const std::int64_t ports =
        shape.switch_ports[static_cast<std::size_t>(role)];
    for (std::int64_t p = 0; p < ports; ++p) {
      if (rng.bernoulli(port)) {
        faults.push_back(Fault{FaultKind::SwitchPortDead, role,
                               static_cast<std::int32_t>(p), 0});
      }
    }
  }
  const int nodes = shape.noc_nodes();
  for (int node = 0; node < nodes; ++node) {
    if (rng.bernoulli(router)) {
      faults.push_back(Fault{FaultKind::NocRouterDead, ConnectivityRole::IpIp,
                             node, 0});
    }
  }
  for (int y = 0; y < shape.noc_height; ++y) {
    for (int x = 0; x < shape.noc_width; ++x) {
      const int node = y * shape.noc_width + x;
      if (x + 1 < shape.noc_width && rng.bernoulli(link)) {
        faults.push_back(Fault{FaultKind::NocLinkDead, ConnectivityRole::IpIp,
                               node, node + 1});
      }
      if (y + 1 < shape.noc_height && rng.bernoulli(link)) {
        faults.push_back(Fault{FaultKind::NocLinkDead, ConnectivityRole::IpIp,
                               node, node + shape.noc_width});
      }
    }
  }
  return FaultSet(std::move(faults));
}

namespace {

FaultSet kill_range(FaultKind kind, std::int64_t count) {
  std::vector<Fault> faults;
  faults.reserve(static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i) {
    faults.push_back(
        Fault{kind, ConnectivityRole::IpIp, static_cast<std::int32_t>(i), 0});
  }
  return FaultSet(std::move(faults));
}

}  // namespace

FaultSet kill_all_ips(const FabricShape& shape) {
  return kill_range(FaultKind::IpDead, shape.ips);
}

FaultSet kill_all_dps(const FabricShape& shape) {
  return kill_range(FaultKind::DpDead, shape.dps);
}

FaultSet kill_all_luts(const FabricShape& shape) {
  return kill_range(FaultKind::LutDead, shape.luts);
}

FaultSet kill_all_switch_ports(const FabricShape& shape) {
  FaultSet set;
  for (ConnectivityRole role : kAllConnectivityRoles) {
    const std::int64_t ports =
        shape.switch_ports[static_cast<std::size_t>(role)];
    for (std::int64_t p = 0; p < ports; ++p) {
      set.add_switch_port(role, static_cast<std::int32_t>(p));
    }
  }
  return set;
}

}  // namespace mpct::fault
