#include "sim/spatial/netlist.hpp"

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

unsigned decode_sum(const std::vector<bool>& outputs, int bits) {
  // Outputs are s0..s{bits-1}, cout in add_output order.
  unsigned value = 0;
  for (int i = 0; i < bits; ++i) {
    if (outputs[static_cast<std::size_t>(i)]) value |= 1u << i;
  }
  if (outputs[static_cast<std::size_t>(bits)]) value |= 1u << bits;
  return value;
}

TEST(Netlist, GateConstructionAndValidation) {
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  nl.add_output("y", nl.add_and(a, b));
  EXPECT_TRUE(nl.validate().empty());
  EXPECT_EQ(nl.gate_count(), 4);
  EXPECT_EQ(nl.dff_count(), 0);
}

TEST(Netlist, BasicGatesTruthTables) {
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  nl.add_output("and", nl.add_and(a, b));
  nl.add_output("or", nl.add_or(a, b));
  nl.add_output("xor", nl.add_xor(a, b));
  nl.add_output("not", nl.add_not(a));
  nl.add_output("one", nl.add_const(true));
  nl.add_output("zero", nl.add_const(false));
  for (int va = 0; va <= 1; ++va) {
    for (int vb = 0; vb <= 1; ++vb) {
      const auto out = nl.simulate(
          {{{"a", va != 0}, {"b", vb != 0}}})[0];
      EXPECT_EQ(out[0], va && vb);
      EXPECT_EQ(out[1], va || vb);
      EXPECT_EQ(out[2], va != vb);
      EXPECT_EQ(out[3], !va);
      EXPECT_TRUE(out[4]);
      EXPECT_FALSE(out[5]);
    }
  }
}

TEST(Netlist, MuxSelects) {
  Netlist nl;
  const GateId s = nl.add_input("s");
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  nl.add_output("y", nl.add_mux(s, a, b));
  EXPECT_TRUE(
      nl.simulate({{{"s", true}, {"a", true}, {"b", false}}})[0][0]);
  EXPECT_FALSE(
      nl.simulate({{{"s", false}, {"a", true}, {"b", false}}})[0][0]);
}

TEST(Netlist, UnconnectedDffFailsValidation) {
  Netlist nl;
  nl.add_dff();
  const auto problems = nl.validate();
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("unconnected DFF"), std::string::npos);
}

TEST(Netlist, CombinationalCycleDetected) {
  // gate 1 = and(in, gate 2); gate 2 = and(gate 1, in): a combinational
  // loop with no DFF to break it.
  Netlist cyc;
  const GateId in = cyc.add_input("in");
  const GateId g1 = cyc.add_and(in, 2);  // forward reference to gate 2
  cyc.add_and(g1, in);
  const auto problems = cyc.validate();
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("combinational cycle"), std::string::npos);
}

TEST(Netlist, DffBreaksCycle) {
  // Feedback through a DFF is legal: toggle flop.
  Netlist nl;
  const GateId q = nl.add_dff();
  const GateId next = nl.add_not(q);
  nl.connect_dff(q, next);
  nl.add_output("q", q);
  EXPECT_TRUE(nl.validate().empty());
  const auto trace = nl.simulate({{}, {}, {}, {}});
  EXPECT_FALSE(trace[0][0]);
  EXPECT_TRUE(trace[1][0]);
  EXPECT_FALSE(trace[2][0]);
  EXPECT_TRUE(trace[3][0]);
}

TEST(Netlist, ConnectDffOnlyOnDffs) {
  Netlist nl;
  const GateId a = nl.add_input("a");
  EXPECT_THROW(nl.connect_dff(a, a), SimError);
}

TEST(Netlist, MissingInputThrows) {
  Netlist nl;
  const GateId a = nl.add_input("a");
  nl.add_output("y", nl.add_not(a));
  EXPECT_THROW(nl.simulate({{}}), SimError);
}

/// Exhaustive property: the 4-bit ripple adder equals binary addition on
/// every operand pair (and both carries).
class RippleAdder : public ::testing::TestWithParam<int> {};

TEST_P(RippleAdder, MatchesArithmetic) {
  const int bits = 4;
  const Netlist adder = build_ripple_adder(bits);
  const unsigned a = static_cast<unsigned>(GetParam()) & 0xF;
  for (unsigned b = 0; b < 16; ++b) {
    for (unsigned cin = 0; cin <= 1; ++cin) {
      const auto out =
          adder.simulate({adder_inputs(bits, a, b, cin != 0)})[0];
      EXPECT_EQ(decode_sum(out, bits), a + b + cin)
          << a << "+" << b << "+" << cin;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllA, RippleAdder, ::testing::Range(0, 16));

TEST(Counter, CountsWhenEnabled) {
  const Netlist counter = build_counter(3);
  std::vector<std::vector<std::pair<std::string, bool>>> stimulus(
      10, {{"en", true}});
  const auto trace = counter.simulate(stimulus);
  for (int cycle = 0; cycle < 10; ++cycle) {
    unsigned value = 0;
    for (int bit = 0; bit < 3; ++bit) {
      if (trace[static_cast<std::size_t>(cycle)]
               [static_cast<std::size_t>(bit)]) {
        value |= 1u << bit;
      }
    }
    EXPECT_EQ(value, static_cast<unsigned>(cycle) % 8) << cycle;
  }
}

TEST(Counter, HoldsWhenDisabled) {
  const Netlist counter = build_counter(3);
  const auto trace = counter.simulate({
      {{"en", true}},   // -> 1
      {{"en", true}},   // -> 2
      {{"en", false}},  // hold 2
      {{"en", false}},  // hold 2
      {{"en", true}},   // -> 3
  });
  const auto value = [&](int cycle) {
    unsigned v = 0;
    for (int bit = 0; bit < 3; ++bit) {
      if (trace[static_cast<std::size_t>(cycle)]
               [static_cast<std::size_t>(bit)]) {
        v |= 1u << bit;
      }
    }
    return v;
  };
  EXPECT_EQ(value(0), 0u);
  EXPECT_EQ(value(1), 1u);
  EXPECT_EQ(value(2), 2u);
  EXPECT_EQ(value(3), 2u);
  EXPECT_EQ(value(4), 2u);
}

TEST(SequenceDetector, FiresOnConsecutiveOnes) {
  const Netlist fsm = build_sequence_detector();
  const bool inputs[] = {true, true, false, true, true, true};
  std::vector<std::vector<std::pair<std::string, bool>>> stimulus;
  for (bool in : inputs) stimulus.push_back({{"in", in}});
  const auto trace = fsm.simulate(stimulus);
  const bool expected[] = {false, true, false, false, true, true};
  for (std::size_t i = 0; i < std::size(inputs); ++i) {
    EXPECT_EQ(trace[i][0], expected[i]) << i;
  }
}

}  // namespace
}  // namespace mpct::sim::spatial
