#pragma once

#include <array>
#include <cstdint>

#include "core/machine_class.hpp"
#include "cost/area_model.hpp"
#include "cost/component_library.hpp"
#include "cost/switch_cost.hpp"

namespace mpct::cost {

/// Both predictive equations evaluated at one bound design point.
struct CostPoint {
  double area_kge = 0;           ///< Eq. 1 total
  std::int64_t config_bits = 0;  ///< Eq. 2 total

  friend bool operator==(const CostPoint&, const CostPoint&) = default;
};

namespace detail {

/// Which design-point axis a symbolic count binds to (Many -> n,
/// Variable -> v, exactly as cost/resolve binds multiplicities).
enum class Bind : std::uint8_t { Zero, One, N, V };

/// One connectivity column, resolved to its switch kind and symbolic
/// endpoint populations.  Fixed slot order: IP-IP, IP-IM, IP-DP, DP-DM,
/// DP-DP (the Eq. 1 / Eq. 2 term order).
struct RoleTerm {
  SwitchKind kind = SwitchKind::None;
  Bind left = Bind::Zero;
  Bind right = Bind::Zero;
};

/// Every design-point-independent invariant of Eq. 1 / Eq. 2 for one
/// (class, library) pair, laid out flat: block coefficients as plain
/// doubles/ints, connectivity columns as five fixed slots of
/// (kind, left-bind, right-bind).  A CostPlan is exactly one of these,
/// so a vector of plans is one contiguous array of them — evaluating a
/// design point reads only this struct plus (n, v), no pointer chasing
/// into the class or the library.
struct PlanTerms {
  bool lut_grain = false;
  Bind ips = Bind::Zero;
  Bind dps = Bind::One;
  double ip_area = 0, dp_area = 0, im_area = 0, dm_area = 0, lut_area = 0;
  std::int64_t ip_bits = 0, dp_bits = 0, im_bits = 0, dm_bits = 0,
               lut_bits = 0;
  int width = 32;  ///< datapath width the switches carry (1 for LUT grain)
  SwitchCostParams switch_params;
  std::array<RoleTerm, 5> roles{};  ///< IP-IP, IP-IM, IP-DP, DP-DM, DP-DP
  /// Whether any count the kernel reads binds to n / to v.
  bool depends_n = false;
  bool depends_v = false;
};

}  // namespace detail

/// Memoized per-(class, component-library) evaluator of Eq. 1 / Eq. 2.
///
/// `estimate_area` / `estimate_config_bits` re-resolve the symbolic
/// structure and re-walk the component library on every call — fine for
/// one query, wasteful for a design-space sweep that prices the same
/// class at thousands of (n, lut_budget) points.  A CostPlan folds every
/// design-point-independent invariant at construction into one flat
/// detail::PlanTerms: the library parameters for each block type, the
/// switch kind and symbolic endpoint multiplicities of each connectivity
/// column, and the datapath width.  `evaluate(n, v)` is then a handful
/// of multiplies and adds.  depends_n() / depends_v() say which sweep
/// axes the cost reads, so the sweep evaluator prices each plan once per
/// value of those axes.
///
/// Bit-identity contract: evaluate() runs one scalar kernel
/// (cost_plan.cpp) that performs the *same floating point operations in
/// the same order* as the unmemoized pair
/// (`estimate_area(mc, lib, o).total_kge()`,
/// `estimate_config_bits(mc, lib, o).total()`), so their results are
/// bit-identical, not merely close — the sweep engine's results must be
/// indistinguishable from sequential `recommend()` calls
/// (tests/test_sweep.cpp enforces this over the whole table).
///
/// Profiling: each priced design point counts one
/// trace::ProfilePoint::CostEvaluate.
///
/// Thread safety: immutable after construction; evaluate() is const and
/// touches no shared state — safe to share across sweep workers.
class CostPlan {
 public:
  CostPlan(const MachineClass& mc, const ComponentLibrary& lib,
           bool include_ip_dp_switch = false);

  /// Price the design point where Multiplicity::Many binds to @p n and
  /// Multiplicity::Variable (the LUT budget) binds to @p v.
  CostPoint evaluate(std::int64_t n, std::int64_t v) const;

  /// Same binding rules as the estimate functions take them.
  CostPoint evaluate(const EstimateOptions& options) const {
    return evaluate(options.n, options.v);
  }

  /// Whether the cost reads n (a non-LUT-grain processor or an active
  /// switch endpoint bound to n) / reads v (LUT grain, or such a bind to
  /// v).  Cleared: bit-identical at every value of that axis.
  bool depends_n() const { return terms_.depends_n; }
  bool depends_v() const { return terms_.depends_v; }

 private:
  detail::PlanTerms terms_;
};

}  // namespace mpct::cost
