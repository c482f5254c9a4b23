#include "cost/cost_plan.hpp"

#include <algorithm>

#include "trace/trace.hpp"

namespace mpct::cost {

namespace {

using detail::Bind;
using detail::PlanTerms;
using detail::RoleTerm;

Bind bind_of(Multiplicity mult) {
  switch (mult) {
    case Multiplicity::Zero:     return Bind::Zero;
    case Multiplicity::One:      return Bind::One;
    case Multiplicity::Many:     return Bind::N;
    case Multiplicity::Variable: return Bind::V;
  }
  return Bind::Zero;
}

std::int64_t bind_count(Bind bind, std::int64_t n, std::int64_t v) {
  switch (bind) {
    case Bind::Zero: return 0;
    case Bind::One:  return 1;
    case Bind::N:    return n;
    case Bind::V:    return v;
  }
  return 0;
}

PlanTerms build_plan_terms(const MachineClass& mc, const ComponentLibrary& lib,
                           bool include_ip_dp_switch) {
  PlanTerms t;
  t.lut_grain = mc.granularity == Granularity::Lut;
  t.ips = bind_of(mc.ips);
  t.dps = bind_of(mc.dps);
  t.ip_area = lib.ip.area_kge;
  t.dp_area = lib.dp.area_kge;
  t.im_area = lib.im.area_kge;
  t.dm_area = lib.dm.area_kge;
  t.lut_area = lib.lut.area_kge;
  t.ip_bits = lib.ip.config_bits;
  t.dp_bits = lib.dp.config_bits;
  t.im_bits = lib.im.config_bits;
  t.dm_bits = lib.dm.config_bits;
  t.lut_bits = lib.lut.config_bits;
  t.width = t.lut_grain ? 1 : lib.data_width;
  t.switch_params = lib.switch_params;

  // Resolve each connectivity column to (kind, left-bind, right-bind).
  // Memory bank counts mirror their processors (ims = ips, dms = dps),
  // so the endpoint binds below reuse the processor binds; a LUT fabric
  // overrides every endpoint to the v-block pool, exactly as the scalar
  // link() lambda used to.
  const Bind l = Bind::V;  // lut-grain endpoint
  const auto kind_of = [&](ConnectivityRole role) {
    return mc.switches[static_cast<std::size_t>(role)];
  };
  const Bind ips = t.lut_grain ? l : t.ips;
  const Bind dps = t.lut_grain ? l : t.dps;
  t.roles[0] = {kind_of(ConnectivityRole::IpIp), ips, ips};
  t.roles[1] = {kind_of(ConnectivityRole::IpIm), ips, ips};  // ims = ips
  t.roles[2] = include_ip_dp_switch
                   ? RoleTerm{kind_of(ConnectivityRole::IpDp), ips, dps}
                   : RoleTerm{SwitchKind::None, Bind::Zero, Bind::Zero};
  t.roles[3] = {kind_of(ConnectivityRole::DpDm), dps, dps};  // dms = dps
  t.roles[4] = {kind_of(ConnectivityRole::DpDp), dps, dps};

  // Axis dependence: the counts the kernel reads are the block counts
  // (the processor binds, or v for a LUT fabric) and the endpoints of
  // every active switch role.
  const auto reads = [&t](Bind axis) {
    return (t.lut_grain ? axis == Bind::V : t.ips == axis || t.dps == axis) ||
           std::ranges::any_of(t.roles, [axis](const RoleTerm& role) {
             return role.kind != SwitchKind::None &&
                    (role.left == axis || role.right == axis);
           });
  };
  t.depends_n = reads(Bind::N);
  t.depends_v = reads(Bind::V);
  return t;
}

/// The one scalar kernel: one design point of one plan.
///
/// Bit-identity contract: performs the *same floating point operations
/// in the same order* as the unmemoized pair
/// (`estimate_area(mc, lib, o).total_kge()`,
/// `estimate_config_bits(mc, lib, o).total()`).
inline CostPoint evaluate_terms(const PlanTerms& t, std::int64_t n,
                                std::int64_t v) {
  // Bind the symbolic structure exactly as detail::resolve(mc, options)
  // does: memory bank counts mirror their processors; for a LUT fabric
  // every connectivity column spans the v-block pool.
  std::int64_t ips = 0, dps = 0, luts = 0;
  if (t.lut_grain) {
    luts = v;
  } else {
    ips = bind_count(t.ips, n, v);
    dps = bind_count(t.dps, n, v);
  }
  const std::int64_t ims = ips, dms = dps;

  // Block terms — same expressions as the estimate_from helpers.
  double a_ip = 0, a_im = 0, a_dp = 0, a_dm = 0, a_lut = 0;
  std::int64_t b_ip = 0, b_im = 0, b_dp = 0, b_dm = 0, b_lut = 0;
  if (t.lut_grain) {
    a_lut = static_cast<double>(luts) * t.lut_area;
    b_lut = luts * t.lut_bits;
  } else {
    a_ip = static_cast<double>(ips) * t.ip_area;
    a_dp = static_cast<double>(dps) * t.dp_area;
    a_im = static_cast<double>(ims) * t.im_area;
    a_dm = static_cast<double>(dms) * t.dm_area;
    b_ip = ips * t.ip_bits;
    b_dp = dps * t.dp_bits;
    b_im = ims * t.im_bits;
    b_dm = dms * t.dm_bits;
  }

  // Switch terms through the same (inline) cost function the estimates
  // use; role slots carry the lut-grain override (both endpoints = V,
  // width 1) resolved at build time.
  const auto link = [&](const RoleTerm& role) {
    return switch_cost(role.kind, bind_count(role.left, n, v),
                       bind_count(role.right, n, v), t.width,
                       t.switch_params);
  };
  const SwitchCost ip_ip = link(t.roles[0]);
  const SwitchCost ip_im = link(t.roles[1]);
  const SwitchCost dp_dm = link(t.roles[3]);
  const SwitchCost dp_dp = link(t.roles[4]);
  SwitchCost ip_dp;  // Eq. 1/2 as printed omit IP-DP; extended model adds it
  if (t.roles[2].kind != SwitchKind::None) ip_dp = link(t.roles[2]);

  // Totals in the exact member order of AreaEstimate::total_kge() and
  // ConfigBitsEstimate::total() — addition order matters for the
  // bit-identity contract.
  CostPoint point;
  point.area_kge = a_ip + a_im + a_dp + a_dm + a_lut + ip_ip.area_kge +
                   ip_im.area_kge + ip_dp.area_kge + dp_dm.area_kge +
                   dp_dp.area_kge;
  point.config_bits = b_ip + b_im + b_dp + b_dm + b_lut +
                      ip_ip.config_bits + ip_im.config_bits +
                      ip_dp.config_bits + dp_dm.config_bits +
                      dp_dp.config_bits;
  return point;
}

}  // namespace

CostPlan::CostPlan(const MachineClass& mc, const ComponentLibrary& lib,
                   bool include_ip_dp_switch)
    : terms_(build_plan_terms(mc, lib, include_ip_dp_switch)) {}

CostPoint CostPlan::evaluate(std::int64_t n, std::int64_t v) const {
  trace::profile_count(trace::ProfilePoint::CostEvaluate);
  return evaluate_terms(terms_, n, v);
}

}  // namespace mpct::cost
