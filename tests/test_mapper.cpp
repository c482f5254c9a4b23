#include "sim/spatial/mapper.hpp"

#include <gtest/gtest.h>

#include "core/indexed_name.hpp"
#include "sim/memory.hpp"

namespace mpct::sim::spatial {
namespace {

std::vector<std::pair<std::string, bool>> adder_inputs(int bits, unsigned a,
                                                       unsigned b,
                                                       bool cin) {
  std::vector<std::pair<std::string, bool>> in;
  for (int i = 0; i < bits; ++i) {
    in.emplace_back(indexed_name("a", i), (a >> i) & 1u);
    in.emplace_back(indexed_name("b", i), (b >> i) & 1u);
  }
  in.emplace_back("cin", cin);
  return in;
}

TEST(Mapper, MapsSimpleGateNetlist) {
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  nl.add_output("y", nl.add_xor(a, b));

  LutFabric fabric(4, 4, 4);
  const MappingReport report = map_netlist(nl, fabric);
  EXPECT_EQ(report.cells_used, 1);
  EXPECT_EQ(report.input_index.size(), 2u);
  EXPECT_EQ(report.output_index.size(), 1u);

  const auto in = pack_inputs(report, fabric.primary_inputs(),
                              {{"a", true}, {"b", false}});
  const auto out = unpack_outputs(report, fabric.step(in));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].second);
}

TEST(Mapper, MappedAdderMatchesNetlistSimulation) {
  // The universal-flow claim, executably: the fabric configured as an
  // adder computes exactly what the netlist reference computes.
  const int bits = 4;
  const Netlist adder = build_ripple_adder(bits);
  LutFabric fabric(64, 16, 8);
  const MappingReport report = map_netlist(adder, fabric);
  EXPECT_GT(report.cells_used, bits * 4);  // 5 gates per bit

  for (unsigned a : {0u, 3u, 9u, 15u}) {
    for (unsigned b : {0u, 1u, 7u, 15u}) {
      const auto stimulus = adder_inputs(bits, a, b, false);
      const auto expected = adder.simulate({stimulus})[0];
      const auto fabric_out = fabric.step(
          pack_inputs(report, fabric.primary_inputs(), stimulus));
      const auto named = unpack_outputs(report, fabric_out);
      for (const auto& [name, value] : named) {
        const int index = report.output_index.at(name);
        EXPECT_EQ(value, expected[static_cast<std::size_t>(index)])
            << name << " a=" << a << " b=" << b;
      }
    }
  }
}

TEST(Mapper, MappedCounterCountsOnFabric) {
  const Netlist counter = build_counter(3);
  LutFabric fabric(16, 4, 4);
  const MappingReport report = map_netlist(counter, fabric);

  for (int cycle = 0; cycle < 10; ++cycle) {
    const auto out = fabric.step(
        pack_inputs(report, fabric.primary_inputs(), {{"en", true}}));
    unsigned value = 0;
    for (int bit = 0; bit < 3; ++bit) {
      const int index = report.output_index.at(indexed_name("q", bit));
      if (out[static_cast<std::size_t>(index)]) value |= 1u << bit;
    }
    EXPECT_EQ(value, static_cast<unsigned>(cycle) % 8) << cycle;
  }
}

TEST(Mapper, SameFabricReconfiguresAcrossParadigms) {
  // One physical fabric, two personalities: first a combinational adder
  // (data flow), then a sequential FSM (instruction flow).  This is
  // Section II-C.3 running.
  LutFabric fabric(64, 16, 8);

  const Netlist adder = build_ripple_adder(2);
  const MappingReport adder_map = map_netlist(adder, fabric);
  const auto sum = fabric.step(pack_inputs(
      adder_map, fabric.primary_inputs(), adder_inputs(2, 1, 2, false)));
  unsigned value = 0;
  for (int bit = 0; bit < 2; ++bit) {
    if (sum[static_cast<std::size_t>(
            adder_map.output_index.at(indexed_name("s", bit)))]) {
      value |= 1u << bit;
    }
  }
  EXPECT_EQ(value, 3u);

  const Netlist fsm = build_sequence_detector();
  const MappingReport fsm_map = map_netlist(fsm, fabric);  // reconfigure
  const bool inputs[] = {true, true, true};
  std::vector<bool> hits;
  for (bool in : inputs) {
    const auto out = fabric.step(
        pack_inputs(fsm_map, fabric.primary_inputs(), {{"in", in}}));
    hits.push_back(out[static_cast<std::size_t>(
        fsm_map.output_index.at("hit"))]);
  }
  EXPECT_EQ(hits, (std::vector<bool>{false, true, true}));
}

TEST(Mapper, ThrowsWhenFabricTooSmall) {
  const Netlist adder = build_ripple_adder(4);
  LutFabric tiny(2, 16, 8);
  EXPECT_THROW(map_netlist(adder, tiny), SimError);
}

TEST(Mapper, ThrowsWhenPinsExhausted) {
  const Netlist adder = build_ripple_adder(4);  // 9 inputs, 5 outputs
  LutFabric few_inputs(64, 4, 8);
  EXPECT_THROW(map_netlist(adder, few_inputs), SimError);
  LutFabric few_outputs(64, 16, 2);
  EXPECT_THROW(map_netlist(adder, few_outputs), SimError);
}

TEST(Mapper, ThrowsOnInvalidNetlist) {
  Netlist nl;
  nl.add_dff();  // unconnected
  LutFabric fabric(4, 2, 2);
  EXPECT_THROW(map_netlist(nl, fabric), SimError);
}

TEST(Mapper, PackInputsRejectsUnknownName) {
  Netlist nl;
  const GateId a = nl.add_input("a");
  nl.add_output("y", nl.add_not(a));
  LutFabric fabric(2, 2, 2);
  const MappingReport report = map_netlist(nl, fabric);
  EXPECT_THROW(pack_inputs(report, 2, {{"zz", true}}), SimError);
}

}  // namespace
}  // namespace mpct::sim::spatial
