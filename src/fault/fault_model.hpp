#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "arch/spec.hpp"
#include "core/machine_class.hpp"
#include "core/rng.hpp"
#include "cost/area_model.hpp"

namespace mpct::fault {

/// Kind of component a fault removes from the fabric.
///
/// The first three express against the structural model (arch::ArchSpec
/// counts and the five connectivity columns); the NoC kinds express
/// against a packet-switched interconnect::MeshNoc topology mapped onto
/// the fabric (router i co-located with DP i).  LutDead targets the
/// fine-grained blocks of universal-flow fabrics, which have no discrete
/// IPs/DPs to kill.
enum class FaultKind : std::uint8_t {
  IpDead = 0,         ///< instruction processor `index` failed
  DpDead = 1,         ///< data processor `index` failed
  SwitchPortDead = 2, ///< port `index` of the `role` connectivity column
  NocRouterDead = 3,  ///< NoC router at node `index` failed
  NocLinkDead = 4,    ///< NoC link `index` -> `index2` failed (undirected)
  LutDead = 5,        ///< LUT/CLB block `index` of a universal-flow fabric
};

inline constexpr std::size_t kFaultKindCount = 6;

std::string_view to_string(FaultKind kind);

/// One failed component.  Identity is structural, so Faults order and
/// compare deterministically — FaultSet keeps them canonically sorted.
struct Fault {
  FaultKind kind = FaultKind::IpDead;
  /// Connectivity column of a SwitchPortDead fault; ignored otherwise.
  ConnectivityRole role = ConnectivityRole::IpIp;
  /// Component index (block, port, or NoC node of the link source).
  std::int32_t index = 0;
  /// NocLinkDead: the link's other endpoint (canonicalised index <
  /// index2); 0 for every other kind.
  std::int32_t index2 = 0;

  friend bool operator==(const Fault&, const Fault&) = default;
  friend auto operator<=>(const Fault&, const Fault&) = default;
};

/// Render "ip[3]", "port[DP-DM:7]", "link[2-3]" — used in reports and
/// test diagnostics.
std::string to_string(const Fault& fault);

/// A reproducible set of component failures.
///
/// Canonical representation: faults are kept sorted (Fault's structural
/// order) and deduplicated, so two FaultSets built from the same faults
/// in any insertion order compare equal, iterate identically, and hash
/// identically in the service cache.  Everything downstream (degrade(),
/// the Monte-Carlo curves, the engine's FaultSweepRequest) relies on this
/// for bit-reproducibility.
class FaultSet {
 public:
  FaultSet() = default;
  explicit FaultSet(std::vector<Fault> faults);

  /// Insert (idempotent).
  void add(const Fault& fault);
  void add(FaultKind kind, std::int32_t index);
  void add_switch_port(ConnectivityRole role, std::int32_t port);
  void add_noc_link(std::int32_t a, std::int32_t b);

  bool contains(const Fault& fault) const;
  bool empty() const { return faults_.empty(); }
  std::size_t size() const { return faults_.size(); }
  std::span<const Fault> faults() const { return faults_; }

  /// Number of faults of one kind.
  std::size_t count(FaultKind kind) const;
  /// Number of SwitchPortDead faults against one column.
  std::size_t count_ports(ConnectivityRole role) const;

  /// Union (canonical order preserved).
  void merge(const FaultSet& other);

  friend bool operator==(const FaultSet&, const FaultSet&) = default;

 private:
  std::vector<Fault> faults_;  ///< sorted, unique
};

/// Concrete component counts of a fabric instance — the universe the
/// fault sampler draws from and the denominator of every survival
/// fraction.  Obtained by binding an ArchitectureSpec / MachineClass's
/// symbolic multiplicities through cost::EstimateOptions (Many -> n,
/// Variable -> v), exactly as the cost equations bind them.
struct FabricShape {
  std::int64_t ips = 0;
  std::int64_t dps = 0;
  std::int64_t luts = 0;  ///< universal-flow block count (0 for coarse)
  /// Port count of each connectivity column (0 when the column is None).
  std::array<std::int64_t, kConnectivityRoleCount> switch_ports{};
  /// Optional packet-switched NoC mapped onto the fabric; both 0 when the
  /// fabric has no NoC model.  Router i is co-located with DP i.
  int noc_width = 0;
  int noc_height = 0;

  /// Bind a machine class at a design point.  Column ports resolve to the
  /// endpoint populations of the column (e.g. IP-DP has ips + dps ports,
  /// DP-DM has dps data + dps memory ports); universal-flow fabrics get v
  /// ports per populated column, mirroring Eq. 1/Eq. 2's crossbar terms.
  static FabricShape of(const MachineClass& mc,
                        const cost::EstimateOptions& bindings = {});
  /// Bind a concrete spec (counts evaluate through the spec's symbols:
  /// 'n'/'m' -> bindings.n/m, variable -> bindings.v).
  static FabricShape of(const arch::ArchitectureSpec& spec,
                        const cost::EstimateOptions& bindings = {});

  std::int64_t total_blocks() const { return ips + dps + luts; }
  std::int64_t total_ports() const;
  /// Blocks + ports: the component universe a fault rate applies to.
  std::int64_t total_components() const {
    return total_blocks() + total_ports();
  }
  int noc_nodes() const { return noc_width * noc_height; }

  friend bool operator==(const FabricShape&, const FabricShape&) = default;
};

/// Per-kind Bernoulli failure probabilities (per component).
struct FaultRates {
  double ip = 0;
  double dp = 0;
  double lut = 0;
  double switch_port = 0;
  double noc_router = 0;
  double noc_link = 0;

  /// Same probability for every component kind — the single-axis sweep
  /// the degradation curves use.
  static FaultRates uniform(double p) { return {p, p, p, p, p, p}; }

  friend bool operator==(const FaultRates&, const FaultRates&) = default;
};

/// Draw a FaultSet: one Bernoulli trial per component, in a fixed
/// canonical order (IPs, DPs, LUTs, switch ports column by column, NoC
/// routers, NoC +x/+y links) from a single xorshift64* stream — so the
/// same (shape, rates, seed) triple yields the same FaultSet on every
/// platform, thread count, and call site.  This is the reproducibility
/// contract docs/FAULT.md documents and tests/test_fault.cpp pins.
/// A component fails when its draw hits Rng::bernoulli_threshold(rate)
/// (exactly `next_double() < rate`).  The curve kernel
/// (CurveEvaluator::evaluate_range) consumes the identical stream in the
/// identical order, but counts each trial's failures instead of listing
/// them.
FaultSet sample_faults(const FabricShape& shape, const FaultRates& rates,
                       std::uint64_t seed);

/// Deterministic whole-population kill sets (the degradation table test's
/// worst cases).
FaultSet kill_all_ips(const FabricShape& shape);
FaultSet kill_all_dps(const FabricShape& shape);
FaultSet kill_all_luts(const FabricShape& shape);
FaultSet kill_all_switch_ports(const FabricShape& shape);

}  // namespace mpct::fault
