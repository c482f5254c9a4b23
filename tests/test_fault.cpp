/// Fault-injection and graceful-degradation engine (src/fault): fault-set
/// canonicalisation, sampling reproducibility, the degradation table over
/// all 47 canonical classes, interconnect route-around, Monte-Carlo
/// degradation curves (byte-identical across runs and thread counts) and
/// the service engine's FaultSweepRequest parity with the inline path.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <random>
#include <stdexcept>
#include <thread>

#include "core/classifier.hpp"
#include "core/flexibility.hpp"
#include "core/range_split.hpp"
#include "core/taxonomy_index.hpp"
#include "fault/fault.hpp"
#include "interconnect/benes.hpp"
#include "interconnect/bus.hpp"
#include "interconnect/crossbar.hpp"
#include "interconnect/hierarchical.hpp"
#include "interconnect/mesh_noc.hpp"
#include "interconnect/omega.hpp"
#include "interconnect/traffic.hpp"
#include "service/engine.hpp"

namespace mpct {
namespace {

using fault::CurveResult;
using fault::CurveSpec;
using fault::DegradeResult;
using fault::FabricShape;
using fault::Fault;
using fault::FaultKind;
using fault::FaultRates;
using fault::FaultSet;

cost::EstimateOptions small_bindings() {
  cost::EstimateOptions bindings;
  bindings.n = 4;
  bindings.m = 4;
  bindings.v = 16;
  return bindings;
}

/// A canonical instruction-flow multiprocessor: n IPs and n DPs joined by
/// crossbars — plenty of structure for faults to chew on.
MachineClass imp_machine() {
  MachineClass mc;
  mc.granularity = Granularity::IpDp;
  mc.ips = Multiplicity::Many;
  mc.dps = Multiplicity::Many;
  mc.set_switch(ConnectivityRole::IpDp, SwitchKind::Crossbar);
  mc.set_switch(ConnectivityRole::DpDm, SwitchKind::Crossbar);
  mc.set_switch(ConnectivityRole::DpDp, SwitchKind::Direct);
  return mc;
}

MachineClass usp_machine() {
  MachineClass mc;
  mc.granularity = Granularity::Lut;
  mc.ips = Multiplicity::Variable;
  mc.dps = Multiplicity::Variable;
  mc.set_switch(ConnectivityRole::DpDp, SwitchKind::Crossbar);
  return mc;
}

// ---------------------------------------------------------------------------
// FaultSet canonicalisation

TEST(FaultSet, CanonicalOrderIsInsertionIndependent) {
  FaultSet a;
  a.add(FaultKind::DpDead, 3);
  a.add(FaultKind::IpDead, 1);
  a.add_switch_port(ConnectivityRole::DpDm, 7);
  a.add(FaultKind::IpDead, 0);

  FaultSet b;
  b.add(FaultKind::IpDead, 0);
  b.add_switch_port(ConnectivityRole::DpDm, 7);
  b.add(FaultKind::IpDead, 1);
  b.add(FaultKind::DpDead, 3);

  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 4u);
  // Sorted by (kind, role, index, index2): IPs before DPs before ports.
  EXPECT_EQ(a.faults()[0].kind, FaultKind::IpDead);
  EXPECT_EQ(a.faults()[0].index, 0);
  EXPECT_EQ(a.faults()[1].index, 1);
  EXPECT_EQ(a.faults()[2].kind, FaultKind::DpDead);
  EXPECT_EQ(a.faults()[3].kind, FaultKind::SwitchPortDead);
}

TEST(FaultSet, AddIsIdempotent) {
  FaultSet set;
  set.add(FaultKind::IpDead, 2);
  set.add(FaultKind::IpDead, 2);
  set.add_noc_link(4, 5);
  set.add_noc_link(5, 4);  // canonicalised to (4, 5)
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.contains({FaultKind::IpDead, ConnectivityRole::IpIp, 2, 0}));
  EXPECT_TRUE(
      set.contains({FaultKind::NocLinkDead, ConnectivityRole::IpIp, 4, 5}));
  EXPECT_FALSE(
      set.contains({FaultKind::NocLinkDead, ConnectivityRole::IpIp, 5, 4}));
}

TEST(FaultSet, CountAndMerge) {
  FaultSet a;
  a.add(FaultKind::IpDead, 0);
  a.add(FaultKind::IpDead, 1);
  a.add_switch_port(ConnectivityRole::IpDp, 0);
  FaultSet b;
  b.add(FaultKind::IpDead, 1);  // overlaps
  b.add(FaultKind::DpDead, 0);
  a.merge(b);
  EXPECT_EQ(a.size(), 4u);
  EXPECT_EQ(a.count(FaultKind::IpDead), 2u);
  EXPECT_EQ(a.count(FaultKind::DpDead), 1u);
  EXPECT_EQ(a.count_ports(ConnectivityRole::IpDp), 1u);
  EXPECT_EQ(a.count_ports(ConnectivityRole::DpDm), 0u);
}

// ---------------------------------------------------------------------------
// FabricShape binding and fault sampling

TEST(FabricShape, BindsMultiplicitiesLikeTheCostModel) {
  const FabricShape shape = FabricShape::of(imp_machine(), small_bindings());
  EXPECT_EQ(shape.ips, 4);
  EXPECT_EQ(shape.dps, 4);
  EXPECT_EQ(shape.luts, 0);
  // IP-DP column spans both populations; DP-DM pairs each DP with a
  // memory port; DP-DP is a direct wire but still has DP-side ports.
  EXPECT_EQ(shape.switch_ports[static_cast<int>(ConnectivityRole::IpDp)], 8);
  EXPECT_EQ(shape.switch_ports[static_cast<int>(ConnectivityRole::DpDm)], 8);
  EXPECT_EQ(shape.switch_ports[static_cast<int>(ConnectivityRole::IpIp)], 0);
  EXPECT_GT(shape.total_ports(), 0);
  EXPECT_EQ(shape.total_components(), shape.total_blocks() + shape.total_ports());
}

TEST(FabricShape, LutGrainBindsVariableToV) {
  const FabricShape shape = FabricShape::of(usp_machine(), small_bindings());
  EXPECT_EQ(shape.luts, 16);
  EXPECT_EQ(shape.ips, 0);
  EXPECT_EQ(shape.dps, 0);
  EXPECT_EQ(shape.switch_ports[static_cast<int>(ConnectivityRole::DpDp)], 16);
}

TEST(SampleFaults, DeterministicInSeedAndMonotoneInRate) {
  const FabricShape shape = FabricShape::of(imp_machine(), small_bindings());
  const FaultSet a = fault::sample_faults(shape, FaultRates::uniform(0.3), 42);
  const FaultSet b = fault::sample_faults(shape, FaultRates::uniform(0.3), 42);
  EXPECT_EQ(a, b);
  const FaultSet c = fault::sample_faults(shape, FaultRates::uniform(0.3), 43);
  EXPECT_NE(a, c);

  EXPECT_TRUE(fault::sample_faults(shape, FaultRates::uniform(0.0), 1).empty());
  const FaultSet all = fault::sample_faults(shape, FaultRates::uniform(1.0), 1);
  EXPECT_EQ(static_cast<std::int64_t>(all.size()), shape.total_components());
}

TEST(SampleFaults, KillAllHelpersCoverThePopulations) {
  const FabricShape shape = FabricShape::of(imp_machine(), small_bindings());
  EXPECT_EQ(fault::kill_all_ips(shape).count(FaultKind::IpDead), 4u);
  EXPECT_EQ(fault::kill_all_dps(shape).count(FaultKind::DpDead), 4u);
  EXPECT_TRUE(fault::kill_all_luts(shape).empty());
  EXPECT_EQ(
      static_cast<std::int64_t>(fault::kill_all_switch_ports(shape).size()),
      shape.total_ports());
}

// ---------------------------------------------------------------------------
// degrade(): graceful structural degradation

TEST(Degrade, EmptyFaultSetIsIdentity) {
  const MachineClass mc = imp_machine();
  const FabricShape shape = FabricShape::of(mc, small_bindings());
  const DegradeResult r =
      fault::degrade(mc, shape, FaultSet{},
                     cost::ComponentLibrary::default_library(),
                     small_bindings());
  EXPECT_EQ(r.degraded, mc);
  EXPECT_TRUE(r.classification.ok());
  EXPECT_EQ(r.degraded_score, r.original_score);
  EXPECT_DOUBLE_EQ(r.component_survival, 1.0);
  EXPECT_DOUBLE_EQ(r.flexibility_retention(), 1.0);
  EXPECT_TRUE(r.alive());
  EXPECT_DOUBLE_EQ(r.degraded_cost.area_kge, r.original_cost.area_kge);
  EXPECT_EQ(r.degraded_cost.config_bits, r.original_cost.config_bits);
}

TEST(Degrade, AllIpsDeadDegradesImpIntoDataFlow) {
  const MachineClass mc = imp_machine();
  const FabricShape shape = FabricShape::of(mc, small_bindings());
  const DegradeResult r = fault::degrade(mc, shape, fault::kill_all_ips(shape));
  EXPECT_EQ(r.surviving_ips, 0);
  EXPECT_EQ(r.surviving_dps, 4);
  ASSERT_TRUE(r.classification.ok()) << r.classification.note;
  EXPECT_EQ(r.classification.name->machine_type, MachineType::DataFlow);
  EXPECT_LE(r.degraded_score, r.original_score);
  // Dead IPs take their connectivity with them.
  EXPECT_EQ(r.degraded.switch_at(ConnectivityRole::IpDp), SwitchKind::None);
}

TEST(Degrade, AllDpsDeadIsWellTypedFailure) {
  const MachineClass mc = imp_machine();
  const FabricShape shape = FabricShape::of(mc, small_bindings());
  const DegradeResult r = fault::degrade(mc, shape, fault::kill_all_dps(shape));
  EXPECT_FALSE(r.classification.ok());
  EXPECT_FALSE(r.classification.note.empty());
  EXPECT_FALSE(r.alive());
  EXPECT_EQ(r.degraded_score, 0);
  EXPECT_DOUBLE_EQ(r.flexibility_retention(), 0.0);
}

TEST(Degrade, AllLutsDeadKillsUniversalFlowFabric) {
  const MachineClass mc = usp_machine();
  const FabricShape shape = FabricShape::of(mc, small_bindings());
  const DegradeResult r =
      fault::degrade(mc, shape, fault::kill_all_luts(shape));
  EXPECT_FALSE(r.classification.ok());
  EXPECT_FALSE(r.classification.note.empty());
  EXPECT_FALSE(r.alive());
  EXPECT_EQ(r.surviving_luts, 0);
}

TEST(Degrade, PartialFaultsShrinkMultiplicity) {
  MachineClass mc = imp_machine();
  const FabricShape shape = FabricShape::of(mc, small_bindings());
  FaultSet faults;  // 3 of 4 IPs die -> One
  faults.add(FaultKind::IpDead, 0);
  faults.add(FaultKind::IpDead, 1);
  faults.add(FaultKind::IpDead, 3);
  const DegradeResult r = fault::degrade(mc, shape, faults);
  EXPECT_EQ(r.surviving_ips, 1);
  EXPECT_EQ(r.degraded.ips, Multiplicity::One);
  EXPECT_EQ(r.degraded.dps, Multiplicity::Many);
  EXPECT_LE(r.degraded_score, r.original_score);
}

TEST(Degrade, DeadColumnPortsTurnSwitchToNone) {
  const MachineClass mc = imp_machine();
  const FabricShape shape = FabricShape::of(mc, small_bindings());
  FaultSet faults;
  const std::int64_t dm_ports =
      shape.switch_ports[static_cast<int>(ConnectivityRole::DpDm)];
  for (std::int64_t p = 0; p < dm_ports; ++p) {
    faults.add_switch_port(ConnectivityRole::DpDm,
                           static_cast<std::int32_t>(p));
  }
  const DegradeResult r = fault::degrade(mc, shape, faults);
  EXPECT_EQ(r.degraded.switch_at(ConnectivityRole::DpDm), SwitchKind::None);
  // A partially-dead column keeps its kind.
  FaultSet one_port;
  one_port.add_switch_port(ConnectivityRole::DpDm, 0);
  const DegradeResult r2 = fault::degrade(mc, shape, one_port);
  EXPECT_EQ(r2.degraded.switch_at(ConnectivityRole::DpDm),
            SwitchKind::Crossbar);
}

TEST(Degrade, NocRouterDeathKillsColocatedDp) {
  const MachineClass mc = imp_machine();
  FabricShape shape = FabricShape::of(mc, small_bindings());
  shape.noc_width = 2;
  shape.noc_height = 2;
  FaultSet faults;
  faults.add(FaultKind::NocRouterDead, 1);
  const DegradeResult r = fault::degrade(mc, shape, faults);
  EXPECT_EQ(r.surviving_dps, 3);
  // The same DP is not double-counted when both faults name it.
  faults.add(FaultKind::DpDead, 1);
  const DegradeResult r2 = fault::degrade(mc, shape, faults);
  EXPECT_EQ(r2.surviving_dps, 3);
}

TEST(Degrade, OutOfRangeFaultsAreInert) {
  const MachineClass mc = imp_machine();
  const FabricShape shape = FabricShape::of(mc, small_bindings());
  FaultSet faults;
  faults.add(FaultKind::IpDead, 1000);
  faults.add(FaultKind::LutDead, 3);  // coarse fabric has no LUTs
  faults.add(FaultKind::NocRouterDead, 0);  // no NoC on this shape
  const DegradeResult r = fault::degrade(mc, shape, faults);
  EXPECT_EQ(r.degraded, mc);
  EXPECT_DOUBLE_EQ(r.component_survival, 1.0);
}

// The satellite acceptance test: every canonical Table I row, hit with
// each whole-population kill set, must come back as either a valid
// classification or a well-typed error (non-empty note) — never an
// assert, never silent garbage — and flexibility must be monotone.
TEST(Degrade, All47CanonicalClassesDegradeGracefully) {
  const cost::ComponentLibrary lib = cost::ComponentLibrary::default_library();
  const cost::EstimateOptions bindings = small_bindings();
  int rows_checked = 0;
  for (const TaxonomyIndex::ClassInfo& row : taxonomy_index().rows()) {
    const MachineClass& mc = row.machine;
    const FabricShape shape = FabricShape::of(mc, bindings);
    FaultSet everything = fault::kill_all_ips(shape);
    everything.merge(fault::kill_all_dps(shape));
    everything.merge(fault::kill_all_luts(shape));
    everything.merge(fault::kill_all_switch_ports(shape));
    const FaultSet kill_sets[] = {
        fault::kill_all_ips(shape), fault::kill_all_dps(shape),
        fault::kill_all_luts(shape), fault::kill_all_switch_ports(shape),
        everything};
    for (const FaultSet& faults : kill_sets) {
      const DegradeResult r = fault::degrade(mc, shape, faults, lib, bindings);
      // Valid class or well-typed error; never a nameless silent success.
      EXPECT_TRUE(r.classification.ok() || !r.classification.note.empty())
          << "row " << row.serial << " (" << row.interned_name << ")";
      EXPECT_GE(r.component_survival, 0.0);
      EXPECT_LE(r.component_survival, 1.0);
      EXPECT_GE(r.flexibility_retention(), 0.0);
      EXPECT_LE(r.flexibility_retention(), 1.0);
      if (r.original_classification.ok() && r.classification.ok()) {
        EXPECT_LE(r.degraded_score, r.original_score)
            << "row " << row.serial << ": degradation raised flexibility";
      }
    }
    ++rows_checked;
  }
  EXPECT_EQ(rows_checked, TaxonomyIndex::kRowCount);
}

TEST(Degrade, MonotoneUnderSampledFaults) {
  const cost::EstimateOptions bindings = small_bindings();
  Rng rng(7001);
  for (const TaxonomyIndex::ClassInfo& row : taxonomy_index().rows()) {
    const FabricShape shape = FabricShape::of(row.machine, bindings);
    for (int trial = 0; trial < 4; ++trial) {
      const FaultSet faults = fault::sample_faults(
          shape, FaultRates::uniform(0.25), rng.next());
      const DegradeResult r = fault::degrade(row.machine, shape, faults);
      EXPECT_TRUE(r.classification.ok() || !r.classification.note.empty());
      if (r.original_classification.ok() && r.classification.ok()) {
        EXPECT_LE(r.degraded_score, r.original_score)
            << row.interned_name << " + " << faults.size() << " faults";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Interconnect route-around

TEST(MeshNocFaults, LinkFailureRoutesAround) {
  interconnect::MeshNoc mesh(4, 4);
  EXPECT_FALSE(mesh.faulty());
  EXPECT_FALSE(mesh.fail_link(0, 5));  // diagonal: not mesh-adjacent
  ASSERT_TRUE(mesh.fail_link(0, 1));
  EXPECT_TRUE(mesh.faulty());
  EXPECT_FALSE(mesh.link_alive(0, 1));
  EXPECT_TRUE(mesh.link_alive(0, 4));
  // Still fully connected: the detour goes around the dead link.
  EXPECT_TRUE(mesh.routable(0, 1));
  EXPECT_DOUBLE_EQ(mesh.reachable_fraction(), 1.0);

  interconnect::TrafficParams params{.cycles = 100, .rate = 0.1, .seed = 3};
  auto packets = interconnect::uniform_traffic(mesh, params);
  const auto stats = mesh.simulate(packets, 100000);
  EXPECT_EQ(stats.unroutable, 0);
  EXPECT_EQ(stats.undelivered, 0);
  EXPECT_EQ(stats.delivered, static_cast<std::int64_t>(packets.size()));
}

TEST(MeshNocFaults, NodeFailureCountsUnroutablePackets) {
  interconnect::MeshNoc mesh(4, 4);
  mesh.fail_node(5);
  EXPECT_FALSE(mesh.node_alive(5));
  EXPECT_EQ(mesh.alive_node_count(), 15);
  EXPECT_FALSE(mesh.routable(0, 5));
  EXPECT_FALSE(mesh.routable(5, 0));
  EXPECT_TRUE(mesh.routable(0, 15));
  // Survivors remain fully connected on a 4x4 with one dead router.
  EXPECT_DOUBLE_EQ(mesh.reachable_fraction(), 1.0);

  interconnect::TrafficParams params{.cycles = 200, .rate = 0.1, .seed = 9};
  auto packets = interconnect::uniform_traffic(mesh, params);
  std::int64_t touching = 0;
  for (const interconnect::Packet& p : packets) {
    if (p.src == 5 || p.dst == 5) ++touching;
  }
  ASSERT_GT(touching, 0);
  const auto stats = mesh.simulate(packets, 100000);
  EXPECT_EQ(stats.unroutable, touching);
  EXPECT_EQ(stats.delivered + stats.unroutable,
            static_cast<std::int64_t>(packets.size()));
}

TEST(MeshNocFaults, IsolatedCornerBreaksConnectivity) {
  interconnect::MeshNoc mesh(4, 4);
  ASSERT_TRUE(mesh.fail_link(0, 1));
  ASSERT_TRUE(mesh.fail_link(0, 4));
  EXPECT_FALSE(mesh.routable(0, 5));
  EXPECT_LT(mesh.reachable_fraction(), 1.0);
  // 15 of 16 alive-pair sources still see each other: 1 - 2*15/(16*15).
  EXPECT_NEAR(mesh.reachable_fraction(), 1.0 - 2.0 * 15 / (16 * 15), 1e-12);
}

TEST(MeshNocFaults, BisectionWidthTracksCutLinks) {
  interconnect::MeshNoc mesh(4, 4);
  EXPECT_EQ(mesh.bisection_width(), 4);
  ASSERT_TRUE(mesh.fail_link(1, 2));  // row 0 crossing link
  EXPECT_EQ(mesh.bisection_width(), 3);
  mesh.fail_node(6);  // kills row 1's crossing link (5-6)
  EXPECT_EQ(mesh.bisection_width(), 2);
}

TEST(CrossbarFaults, DeadPortsRejectRoutesAndDropState) {
  interconnect::Crossbar xb(4, 4);
  ASSERT_TRUE(xb.connect(1, 2));
  xb.fail_input(1);
  EXPECT_FALSE(xb.input_alive(1));
  EXPECT_EQ(xb.live_input_count(), 3);
  EXPECT_FALSE(xb.source_of(2).has_value());  // torn down
  EXPECT_FALSE(xb.connect(1, 3));
  EXPECT_FALSE(xb.reachable(1, 3));
  EXPECT_TRUE(xb.connect(0, 3));

  xb.fail_output(3);
  EXPECT_EQ(xb.live_output_count(), 3);
  EXPECT_FALSE(xb.source_of(3).has_value());
  EXPECT_FALSE(xb.connect(0, 3));
}

TEST(CrossbarFaults, LoadBitstreamDropsRoutesThroughDeadPorts) {
  interconnect::Crossbar xb(4, 4);
  ASSERT_TRUE(xb.connect(0, 0));
  ASSERT_TRUE(xb.connect(2, 1));
  const std::vector<bool> bits = xb.bitstream();
  xb.fail_input(0);
  ASSERT_TRUE(xb.load_bitstream(bits));  // dead route dropped, not an error
  EXPECT_FALSE(xb.source_of(0).has_value());
  ASSERT_TRUE(xb.source_of(1).has_value());
  EXPECT_EQ(*xb.source_of(1), 2);
}

TEST(BenesFaults, DeadSwitchDropsSignalsAndReachability) {
  interconnect::BenesNetwork net(8);
  EXPECT_DOUBLE_EQ(net.output_reachability(), 1.0);
  EXPECT_FALSE(net.fail_switch(0, 99));
  ASSERT_TRUE(net.fail_switch(net.stage_count() - 1, 0));
  EXPECT_FALSE(net.switch_alive(net.stage_count() - 1, 0));
  EXPECT_EQ(net.dead_switch_count(), 1);

  const std::vector<bool> reach = net.reachable_outputs();
  EXPECT_FALSE(reach[0]);
  EXPECT_FALSE(reach[1]);
  for (int o = 2; o < 8; ++o) EXPECT_TRUE(reach[o]) << o;
  EXPECT_DOUBLE_EQ(net.output_reachability(), 0.75);

  // Identity configuration: signals bound for outputs 0/1 are dropped.
  const std::vector<std::uint64_t> in = {10, 20, 30, 40, 50, 60, 70, 80};
  const std::vector<std::uint64_t> out = net.propagate(in);
  EXPECT_EQ(out[0], 0u);
  EXPECT_EQ(out[1], 0u);
  EXPECT_EQ(net.source_of(0), -1);
}

// Fault-mask parity: every multistage/bus fabric answers the same
// questions (alive?, dead count, reachability fraction) the same way, so
// degrade()'s structural census and the executable models agree.
TEST(OmegaFaults, MaskMatchesDegradeCensusFraction) {
  // An 8-port DP-DP column, modelled both ways: the structural census
  // (SwitchPortDead faults into degrade()) and the executable Omega
  // fabric with its last-stage switch 0 dead — which unreaches exactly
  // outputs {0, 1}, the same 2-of-8 loss the census records.
  const MachineClass mc = imp_machine();
  FabricShape shape = FabricShape::of(mc, small_bindings());
  const auto role = static_cast<std::size_t>(ConnectivityRole::IpDp);
  shape.switch_ports[role] = 8;
  FaultSet faults;
  faults.add_switch_port(ConnectivityRole::IpDp, 0);
  faults.add_switch_port(ConnectivityRole::IpDp, 1);
  const DegradeResult r = fault::degrade(mc, shape, faults);
  EXPECT_EQ(r.surviving_ports[role], 6);
  // Partially-dead column keeps its switch kind.
  EXPECT_EQ(r.degraded.switch_at(ConnectivityRole::IpDp),
            SwitchKind::Crossbar);

  interconnect::OmegaNetwork net(8);
  ASSERT_TRUE(net.fail_switch(net.stage_count() - 1, 0));
  const double census_fraction =
      static_cast<double>(r.surviving_ports[role]) /
      static_cast<double>(shape.switch_ports[role]);
  EXPECT_DOUBLE_EQ(net.output_reachability(), census_fraction);
}

TEST(HierarchicalFaults, MaskMatchesDegradeCensusFraction) {
  // The same 8-port DP-DP column, modelled both ways: the structural
  // census (SwitchPortDead faults into degrade()) and the executable
  // two-level hierarchy with one cluster's local crossbar dead — which
  // unreaches exactly that cluster's outputs {0, 1}, the same 2-of-8
  // loss the census records.
  const MachineClass mc = imp_machine();
  FabricShape shape = FabricShape::of(mc, small_bindings());
  const auto role = static_cast<std::size_t>(ConnectivityRole::IpDp);
  shape.switch_ports[role] = 8;
  FaultSet faults;
  faults.add_switch_port(ConnectivityRole::IpDp, 0);
  faults.add_switch_port(ConnectivityRole::IpDp, 1);
  const DegradeResult r = fault::degrade(mc, shape, faults);
  EXPECT_EQ(r.surviving_ports[role], 6);
  // Partially-dead column keeps its switch kind.
  EXPECT_EQ(r.degraded.switch_at(ConnectivityRole::IpDp),
            SwitchKind::Crossbar);

  interconnect::HierarchicalNetwork net(8, 2, 1);
  ASSERT_TRUE(net.fail_switch(0));
  const double census_fraction =
      static_cast<double>(r.surviving_ports[role]) /
      static_cast<double>(shape.switch_ports[role]);
  EXPECT_DOUBLE_EQ(net.output_reachability(), census_fraction);
}

TEST(BusFaults, AllSegmentsDeadMirrorsColumnStrip) {
  // degrade() strips a connectivity column once every port died; the
  // executable bus fabric reaches the same verdict — nothing routes —
  // when every segment died.
  const MachineClass mc = imp_machine();
  const FabricShape shape = FabricShape::of(mc, small_bindings());
  FaultSet faults;
  const auto role = static_cast<std::size_t>(ConnectivityRole::DpDm);
  for (std::int64_t p = 0; p < shape.switch_ports[role]; ++p) {
    faults.add_switch_port(ConnectivityRole::DpDm,
                           static_cast<std::int32_t>(p));
  }
  const DegradeResult r = fault::degrade(mc, shape, faults);
  EXPECT_EQ(r.degraded.switch_at(ConnectivityRole::DpDm), SwitchKind::None);

  interconnect::BusNetwork bus(4, 4, 2);
  ASSERT_TRUE(bus.connect(0, 0));
  ASSERT_TRUE(bus.fail_segment(0));
  ASSERT_TRUE(bus.fail_segment(1));
  EXPECT_EQ(bus.live_bus_count(), 0);
  EXPECT_FALSE(bus.reachable(0, 0));
  EXPECT_FALSE(bus.connect(2, 2));
  EXPECT_FALSE(bus.source_of(0).has_value());
  // Config state is still physically present on both models, exactly as
  // Eq. 2 keeps pricing the stripped column's silicon.
  EXPECT_GT(bus.config_bits(), 0);
}

TEST(RouteAround, AnalyzeNocReportsConnectivityLoss) {
  FabricShape shape;
  shape.dps = 16;
  shape.noc_width = 4;
  shape.noc_height = 4;
  FaultSet faults;
  faults.add(FaultKind::NocRouterDead, 5);
  faults.add_noc_link(0, 1);
  faults.add(FaultKind::NocRouterDead, 99);  // out of range: inert

  const fault::NocDegradation d = fault::analyze_noc(shape, faults);
  EXPECT_EQ(d.total_routers, 16);
  EXPECT_EQ(d.alive_routers, 15);
  EXPECT_EQ(d.failed_links, 1);
  EXPECT_DOUBLE_EQ(d.reachable_fraction, 1.0);  // survivors connected
  EXPECT_EQ(d.bisection_before, 4);
  EXPECT_GT(d.baseline.delivered, 0);
  EXPECT_GT(d.degraded.unroutable, 0);
  EXPECT_LT(d.delivered_ratio, 1.0);
  EXPECT_GT(d.delivered_ratio, 0.0);
  EXPECT_LE(d.bisection_retention(), 1.0);
  EXPECT_FALSE(fault::to_string(d).empty());
}

TEST(RouteAround, NoNocShapeThrows) {
  FabricShape shape;
  shape.dps = 4;
  EXPECT_THROW(fault::build_degraded_noc(shape, FaultSet{}),
               std::invalid_argument);
  EXPECT_THROW(fault::analyze_noc(shape, FaultSet{}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Degradation curves: determinism across runs and range splits

/// The curve's CSV from split_range(cells, parts, kLanes) pieces of
/// evaluate_range, reduced by finalize: what the engine's worker pool
/// computes when it runs the curve as that many chunks.
std::string split_curve_csv(const fault::CurveEvaluator& evaluator,
                            std::size_t parts) {
  std::vector<fault::TrialOutcome> outcomes(evaluator.cell_count());
  for (const CellRange& range :
       split_range(evaluator.cell_count(), parts, evaluator.row_cells())) {
    evaluator.evaluate_range(range.begin, range.end,
                             outcomes.data() + range.begin);
  }
  CurveResult result;
  result.spec = evaluator.spec();
  result.points = evaluator.finalize(outcomes);
  return fault::to_csv(result);
}

CurveSpec curve_spec() {
  CurveSpec spec;
  spec.machine = imp_machine();
  spec.bindings = small_bindings();
  spec.noc_width = 2;
  spec.noc_height = 2;
  spec.fault_rates = {0.0, 0.05, 0.2, 0.5};
  spec.trials_per_rate = 16;
  spec.seed = 2026;
  return spec;
}

TEST(DegradationCurve, NormalizedSpecFillsDefaults) {
  CurveSpec spec;
  spec.trials_per_rate = 0;
  const CurveSpec norm = spec.normalized();
  EXPECT_EQ(norm.fault_rates, std::vector<double>{0.0});
  EXPECT_EQ(norm.trials_per_rate, 1);
  EXPECT_EQ(norm.cell_count(), 1u);
  EXPECT_EQ(curve_spec().cell_count(), 64u);
}

TEST(DegradationCurve, ZeroRateIsPerfectHealth) {
  const CurveResult result = fault::evaluate_curve(curve_spec());
  ASSERT_EQ(result.points.size(), 4u);
  const fault::CurvePoint& healthy = result.points[0];
  EXPECT_DOUBLE_EQ(healthy.fault_rate, 0.0);
  EXPECT_EQ(healthy.trials, 16);
  EXPECT_DOUBLE_EQ(healthy.yield, 1.0);
  EXPECT_DOUBLE_EQ(healthy.mean_flexibility, 1.0);
  EXPECT_DOUBLE_EQ(healthy.mean_connectivity, 1.0);
  EXPECT_DOUBLE_EQ(healthy.mean_survival, 1.0);
  // Higher fault rates only lose components on average.
  for (std::size_t i = 1; i < result.points.size(); ++i) {
    EXPECT_LE(result.points[i].mean_survival,
              result.points[i - 1].mean_survival + 1e-9);
  }
}

TEST(DegradationCurve, CellEvaluationMatchesRangeEvaluation) {
  const fault::CurveEvaluator evaluator(curve_spec());
  std::vector<fault::TrialOutcome> outcomes(evaluator.cell_count());
  evaluator.evaluate_range(0, evaluator.cell_count(), outcomes.data());
  for (std::size_t i = 0; i < evaluator.cell_count(); i += 7) {
    EXPECT_EQ(evaluator.evaluate_cell(i), outcomes[i]) << i;
  }
}

TEST(DegradationCurve, CsvIsByteIdenticalAcrossRunsAndThreadCounts) {
  const CurveSpec spec = curve_spec();
  const std::string run1 = fault::to_csv(fault::evaluate_curve(spec));
  const std::string run2 = fault::to_csv(fault::evaluate_curve(spec));
  EXPECT_EQ(run1, run2);
  // Split invariance: the engine's core determinism contract.
  const fault::CurveEvaluator evaluator(spec);
  for (const std::size_t parts : {1u, 2u, 5u}) {
    EXPECT_EQ(split_curve_csv(evaluator, parts), run1) << parts << " parts";
  }
  EXPECT_EQ(run1.rfind("fault_rate,trials,yield,flexibility_retention,"
                       "connectivity,survival",
                       0),
            0u);
}

// The batch-parity satellite: every canonical Table I row, on a
// randomized (rates, seed) spec, must produce bit-identical outcomes on
// the scalar oracle (evaluate_cell: full sample_faults + degrade) and
// the batch census kernel (evaluate_range), and the CSV reduced from the
// scalar outcomes must be byte-identical to what the library curve and
// a three-way split of the batch path render.  13 trials per rate put
// lane blocks across rate boundaries and leave a partial tail block; the
// rate axis adds the Bernoulli threshold's edges (rates outside [0, 1]
// reach the kernel through the library, though the engine rejects them);
// the large bindings make LUT fabrics draw thousands of components per
// trial; and every Many-DP row lays a NoC over its DPs, so dead routers
// land on dead and on live DPs.
TEST(DegradationCurve, BatchPathMatchesScalarOracleOnAll47Classes) {
  std::mt19937_64 rng(4242);
  std::uniform_real_distribution<double> rate(0.0, 0.5);
  cost::EstimateOptions large;
  large.n = 1000;
  large.v = 4096;
  int router_on_dead_dp = 0, router_on_live_dp = 0;
  for (const cost::EstimateOptions& bindings : {small_bindings(), large}) {
    for (const TaxonomyIndex::ClassInfo& row : taxonomy_index().rows()) {
      CurveSpec spec;
      spec.machine = row.machine;
      spec.bindings = bindings;
      spec.fault_rates = {rate(rng), rate(rng), 0.0,
                          1.0,       1.5,       -0.25,
                          5e-324,    std::nextafter(0.25, 0.0)};
      spec.trials_per_rate = 13;
      spec.seed = rng();
      if (row.machine.dps == Multiplicity::Many) {
        spec.noc_width = 2;
        spec.noc_height = 2;
      }
      const fault::CurveEvaluator evaluator(spec);
      const std::size_t cells = evaluator.cell_count();
      std::vector<fault::TrialOutcome> scalar(cells), batch(cells);
      for (std::size_t i = 0; i < cells; ++i) {
        scalar[i] = evaluator.evaluate_cell(i);
      }
      evaluator.evaluate_range(0, cells, batch.data());
      for (std::size_t i = 0; i < cells; ++i) {
        EXPECT_EQ(batch[i], scalar[i]) << "row " << row.serial << ", n "
                                       << bindings.n << ", cell " << i;
      }
      if (spec.noc_width > 0) {
        for (std::size_t i = 0; i < cells; ++i) {
          const FaultSet faults = fault::sample_faults(
              evaluator.shape(),
              FaultRates::uniform(
                  spec.fault_rates[i / static_cast<std::size_t>(
                                           spec.trials_per_rate)]),
              Rng::derive_seed(spec.seed, i));
          for (const Fault& f : faults.faults()) {
            if (f.kind != FaultKind::NocRouterDead) continue;
            ++(faults.contains(Fault{FaultKind::DpDead,
                                     ConnectivityRole::IpIp, f.index, 0})
                   ? router_on_dead_dp
                   : router_on_live_dp);
          }
        }
      }
      CurveResult oracle;
      oracle.spec = evaluator.spec();
      oracle.points = evaluator.finalize(scalar);
      const std::string csv = fault::to_csv(oracle);
      EXPECT_EQ(fault::to_csv(fault::evaluate_curve(spec)), csv)
          << "row " << row.serial << ", n " << bindings.n;
      EXPECT_EQ(split_curve_csv(evaluator, 3), csv)
          << "row " << row.serial << ", n " << bindings.n << ", 3 parts";
    }
  }
  // The router rule's two branches were both exercised.
  EXPECT_GT(router_on_dead_dp, 0);
  EXPECT_GT(router_on_live_dp, 0);
}

// Unaligned ranges: chunk boundaries anywhere in the cell space must
// reproduce the full-range bits (the engine chunks trials arbitrarily).
TEST(DegradationCurve, ArbitraryRangeSplitsAgreeWithFullRange) {
  const fault::CurveEvaluator evaluator(curve_spec());
  const std::size_t cells = evaluator.cell_count();
  std::vector<fault::TrialOutcome> whole(cells);
  evaluator.evaluate_range(0, cells, whole.data());
  std::mt19937_64 rng(5);
  std::uniform_int_distribution<std::size_t> cut(0, cells);
  for (int round = 0; round < 12; ++round) {
    std::size_t a = cut(rng), b = cut(rng);
    if (a > b) std::swap(a, b);
    std::vector<fault::TrialOutcome> part(b - a);
    evaluator.evaluate_range(a, b, part.data());
    for (std::size_t i = a; i < b; ++i) {
      EXPECT_EQ(part[i - a], whole[i]) << "range [" << a << "," << b << ")";
    }
  }
}

// ---------------------------------------------------------------------------
// Census kernel variants: every compiled form against eight scalar streams

using fault::detail::CensusBlock;
using fault::detail::kCensusLanes;
using fault::detail::LaneWords;

/// What eight scalar Rng streams draw for one census block, walked in
/// sample_faults' order: the reference every kernel variant must equal.
CensusBlock scalar_census(const FabricShape& shape, const LaneWords& seeds,
                          const LaneWords& thresholds, std::size_t live) {
  const std::int64_t nodes = std::max(shape.noc_nodes(), 0);
  const std::int64_t routed = std::max<std::int64_t>(
      std::min(shape.dps, nodes), 0);
  const int w = shape.noc_width, h = shape.noc_height;
  const std::int64_t links =
      w > 0 && h > 0 ? std::int64_t{w - 1} * h + std::int64_t{w} * (h - 1)
                     : 0;
  CensusBlock block;
  block.dp_dead.resize(static_cast<std::size_t>(routed) * kCensusLanes);
  block.router_dead.resize(static_cast<std::size_t>(nodes) * kCensusLanes);
  block.link_dead.resize(static_cast<std::size_t>(links) * kCensusLanes);
  for (std::size_t l = 0; l < kCensusLanes; ++l) {
    Rng rng(seeds[l]);
    const std::uint64_t threshold = l < live ? thresholds[l] : 0;
    const auto hit = [&] { return rng.bernoulli(threshold); };
    const auto at = [&](std::int64_t item) {
      return static_cast<std::size_t>(item) * kCensusLanes + l;
    };
    for (std::int64_t i = 0; i < shape.ips; ++i) block.ips[l] += hit();
    for (std::int64_t d = 0; d < shape.dps; ++d) {
      const bool dead = hit();
      block.dps[l] += dead;
      if (d < routed) block.dp_dead[at(d)] = dead ? -1 : 0;
    }
    for (std::int64_t i = 0; i < shape.luts; ++i) block.luts[l] += hit();
    for (std::size_t role = 0; role < kConnectivityRoleCount; ++role) {
      for (std::int64_t p = 0; p < shape.switch_ports[role]; ++p) {
        block.ports[role][l] += hit();
      }
    }
    for (std::int64_t node = 0; node < nodes; ++node) {
      const bool dead = hit();
      block.router_dead[at(node)] = dead ? -1 : 0;
      if (dead && node < routed && block.dp_dead[at(node)] == 0) {
        ++block.dps[l];
      }
    }
    std::int64_t link = 0;
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        if (x + 1 < w) block.link_dead[at(link++)] = hit() ? -1 : 0;
        if (y + 1 < h) block.link_dead[at(link++)] = hit() ? -1 : 0;
      }
    }
  }
  return block;
}

// Each variant reuses one output block across cases, as evaluate_range
// does, so a case that shrinks the populations must not see stale masks.
TEST(CensusKernel, EveryVariantMatchesEightScalarStreams) {
  std::mt19937_64 rng(2424);
  std::uniform_int_distribution<std::int64_t> population(0, 40);
  std::uniform_int_distribution<int> side(0, 4);
  std::uniform_int_distribution<std::uint64_t> any_threshold(
      0, std::uint64_t{1} << 53);
  const std::uint64_t edges[] = {0, 1, (std::uint64_t{1} << 53) - 1,
                                 std::uint64_t{1} << 53};
  std::vector<FabricShape> shapes(2);  // empty, then one DP behind a router
  shapes[1].dps = 1;
  shapes[1].noc_width = 1;
  shapes[1].noc_height = 1;
  for (int i = 0; i < 40; ++i) {
    FabricShape shape;
    shape.ips = population(rng);
    shape.dps = population(rng);
    shape.luts = i % 3 == 0 ? population(rng) * 8 : 0;
    for (std::int64_t& ports : shape.switch_ports) {
      ports = i % 2 == 0 ? population(rng) : 0;
    }
    if (i % 4 != 3) {
      shape.noc_width = side(rng);
      shape.noc_height = side(rng);
    }
    shapes.push_back(shape);
  }

  const auto variants = fault::detail::census_variants();
  ASSERT_FALSE(variants.empty());
  std::vector<CensusBlock> outs(variants.size());
  int checked = 0;
  for (const FabricShape& shape : shapes) {
    for (std::size_t live = 0; live <= kCensusLanes; ++live) {
      LaneWords seeds{}, thresholds{};
      for (std::size_t l = 0; l < kCensusLanes; ++l) {
        // Lane 3 holds seed 0, which Rng replaces by its fixed state.
        seeds[l] = l == 3 ? 0 : Rng::derive_seed(rng(), l);
        thresholds[l] = l < 4 ? edges[(l + live) % 4] : any_threshold(rng);
      }
      const CensusBlock expected =
          scalar_census(shape, seeds, thresholds, live);
      for (std::size_t v = 0; v < variants.size(); ++v) {
        variants[v].run(shape, seeds, thresholds, live, outs[v]);
        EXPECT_EQ(outs[v], expected)
            << variants[v].name << ": ips " << shape.ips << ", dps "
            << shape.dps << ", noc " << shape.noc_width << "x"
            << shape.noc_height << ", live " << live;
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, static_cast<int>(shapes.size() * (kCensusLanes + 1) *
                                       variants.size()));
}

// A build that silently lost the vector fast path fails here rather than
// only in a benchmark.
TEST(CensusKernel, StartupChoiceIsTheFastestVariantThisCpuRuns) {
  const auto variants = fault::detail::census_variants();
  ASSERT_FALSE(variants.empty());
  EXPECT_EQ(variants.front().name, "baseline");
  EXPECT_EQ(&fault::detail::census_kernel(), &variants.back());
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512dq")) {
    EXPECT_EQ(variants.size(), 2u);
    EXPECT_EQ(fault::detail::census_kernel().name, "avx512");
  }
#endif
}

TEST(DegradationCurve, SvgRendersAllSeries) {
  const CurveResult result = fault::evaluate_curve(curve_spec());
  const std::string svg = fault::to_svg(result, "degradation");
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("yield"), std::string::npos);
  EXPECT_NE(svg.find("connectivity"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Service engine integration: FaultSweepRequest

TEST(EngineFaultSweep, ParallelPathMatchesInlinePathBitForBit) {
  const CurveSpec spec = curve_spec();
  const CurveResult reference = fault::evaluate_curve(spec);

  service::EngineOptions inline_options;
  inline_options.worker_threads = 0;
  service::QueryEngine inline_engine(inline_options);
  const service::QueryResponse inline_response =
      inline_engine.submit(service::Request(service::FaultSweepRequest{spec}))
          .get();
  ASSERT_TRUE(inline_response.ok()) << inline_response.status.to_string();
  ASSERT_NE(inline_response.fault_sweep(), nullptr);
  EXPECT_EQ(inline_response.fault_sweep()->result, reference);

  service::EngineOptions pool_options;
  pool_options.worker_threads = 4;
  service::QueryEngine pool_engine(pool_options);
  const service::QueryResponse pool_response =
      pool_engine.submit(service::Request(service::FaultSweepRequest{spec}))
          .get();
  ASSERT_TRUE(pool_response.ok()) << pool_response.status.to_string();
  ASSERT_NE(pool_response.fault_sweep(), nullptr);
  EXPECT_EQ(pool_response.fault_sweep()->result, reference);
  EXPECT_EQ(fault::to_csv(pool_response.fault_sweep()->result),
            fault::to_csv(reference));

  // Second submission of the same spec is answered from the cache.
  const service::QueryResponse cached =
      pool_engine.submit(service::Request(service::FaultSweepRequest{spec}))
          .get();
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(cached.cache_hit);
  EXPECT_EQ(cached.fault_sweep()->result, reference);
  EXPECT_GE(pool_engine.metrics().cache_hits.value(), 1u);
}

// Engine chunk path vs the scalar oracle on a LUT-grain fabric: the
// pool chunks cells across workers, each running the batch kernel; the
// merged curve must render the byte-identical CSV the per-cell
// evaluate_cell oracle reduces to.
TEST(EngineFaultSweep, ChunkedPathMatchesScalarOracleOnLutGrainFabric) {
  CurveSpec spec;
  spec.machine = usp_machine();
  spec.bindings = small_bindings();
  spec.fault_rates = {0.0, 0.1, 0.3};
  spec.trials_per_rate = 8;
  spec.seed = 77;

  const fault::CurveEvaluator evaluator(spec);
  std::vector<fault::TrialOutcome> scalar(evaluator.cell_count());
  for (std::size_t i = 0; i < scalar.size(); ++i) {
    scalar[i] = evaluator.evaluate_cell(i);
  }
  CurveResult oracle;
  oracle.spec = evaluator.spec();
  oracle.points = evaluator.finalize(scalar);

  service::EngineOptions options;
  options.worker_threads = 3;
  service::QueryEngine engine(options);
  const service::QueryResponse response =
      engine.submit(service::Request(service::FaultSweepRequest{spec})).get();
  ASSERT_TRUE(response.ok()) << response.status.to_string();
  ASSERT_NE(response.fault_sweep(), nullptr);
  EXPECT_EQ(response.fault_sweep()->result, oracle);
  EXPECT_EQ(fault::to_csv(response.fault_sweep()->result),
            fault::to_csv(oracle));
}

TEST(EngineFaultSweep, ValidationRejectsMalformedSpecs) {
  service::EngineOptions options;
  options.worker_threads = 0;
  service::QueryEngine engine(options);

  CurveSpec bad_rate = curve_spec();
  bad_rate.fault_rates = {0.1, -0.2};
  EXPECT_EQ(engine.submit(service::Request(service::FaultSweepRequest{bad_rate}))
                .get()
                .status.code,
            service::StatusCode::InvalidRequest);

  CurveSpec bad_trials = curve_spec();
  bad_trials.trials_per_rate = 0;
  EXPECT_EQ(
      engine.submit(service::Request(service::FaultSweepRequest{bad_trials}))
          .get()
          .status.code,
      service::StatusCode::InvalidRequest);

  CurveSpec half_noc = curve_spec();
  half_noc.noc_height = 0;
  EXPECT_EQ(
      engine.submit(service::Request(service::FaultSweepRequest{half_noc}))
          .get()
          .status.code,
      service::StatusCode::InvalidRequest);
  EXPECT_EQ(engine.metrics().failed.value(), 3u);
}

TEST(EngineFaultSweep, BatchOfSpecsAllResolve) {
  service::EngineOptions options;
  options.worker_threads = 2;
  service::QueryEngine engine(options);
  std::vector<service::Request> batch;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    CurveSpec spec = curve_spec();
    spec.seed = seed;
    batch.emplace_back(service::FaultSweepRequest{spec});
  }
  auto futures = engine.submit_batch(std::move(batch));
  ASSERT_EQ(futures.size(), 3u);
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const service::QueryResponse response = futures[i].get();
    ASSERT_TRUE(response.ok()) << i;
    CurveSpec spec = curve_spec();
    spec.seed = i + 1;
    EXPECT_EQ(response.fault_sweep()->result, fault::evaluate_curve(spec));
  }
}

// ---------------------------------------------------------------------------
// Metrics: the expired-in-queue counter

TEST(Metrics, ExpiredInQueueRendersInTableAndPrometheus) {
  service::MetricsRegistry metrics;
  metrics.expired_in_queue.add(3);
  EXPECT_NE(metrics.to_table({}).find("expired in queue"), std::string::npos);
  EXPECT_NE(metrics.to_prometheus({}).find(
                "\nmpct_requests_expired_in_queue_total 3\n"),
            std::string::npos);
  EXPECT_NE(metrics.to_table({}).find("latency: fault_sweep"),
            std::string::npos);
}

TEST(Metrics, ExpiredInQueueCountsPostAcceptanceExpiry) {
  service::RecommendRequest point;
  point.top_k = 3;
  explore::SweepGrid grid;
  grid.n_values = {2, 4, 8, 16};
  grid.lut_budgets = {64, 4096};
  // A point query, then one grid job of each kind (split into chunks):
  // each expiry counts once per request, never once per chunk.
  for (const service::Request& request :
       {service::Request(point), service::Request(service::SweepRequest{grid}),
        service::Request(service::FaultSweepRequest{curve_spec()})}) {
    SCOPED_TRACE(service::to_string(service::request_type(request)));
    service::EngineOptions options;
    options.worker_threads = 1;
    options.start_workers = false;  // let the deadline lapse in the queue
    service::QueryEngine engine(options);

    auto future = engine.submit(
        request, service::Deadline::in(std::chrono::milliseconds(20)));
    const bool rejected_at_submit =
        future.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    engine.start();
    const service::QueryResponse response = future.get();
    engine.drain();

    EXPECT_EQ(response.status.code, service::StatusCode::DeadlineExceeded);
    EXPECT_EQ(engine.metrics().rejected_deadline.value(), 1u);
    // Accepted-then-expired increments both counters; a submit-time
    // rejection (slow test machine) increments only rejected_deadline.
    EXPECT_EQ(engine.metrics().expired_in_queue.value(),
              rejected_at_submit ? 0u : 1u);
    EXPECT_EQ(engine.metrics().failed.value(), 0u);
  }
}

}  // namespace
}  // namespace mpct
