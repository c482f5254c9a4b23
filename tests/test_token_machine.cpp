#include "sim/dataflow/token_machine.hpp"

#include <gtest/gtest.h>

#include "core/indexed_name.hpp"
#include "sim/memory.hpp"

namespace mpct::sim::df {
namespace {

/// Wide independent graph: k parallel multiply-add chains rejoined by
/// nothing — lots of instruction-level parallelism.
Graph wide_graph(int chains) {
  Graph g;
  for (int i = 0; i < chains; ++i) {
    const NodeId a = g.add_input(indexed_name("a", i));
    const NodeId b = g.add_input(indexed_name("b", i));
    const NodeId m = g.add_op(Op::Mul, a, b);
    const NodeId c = g.add_const(1);
    g.add_output(indexed_name("o", i), g.add_op(Op::Add, m, c));
  }
  return g;
}

std::vector<std::pair<std::string, Word>> wide_inputs(int chains) {
  std::vector<std::pair<std::string, Word>> inputs;
  for (int i = 0; i < chains; ++i) {
    inputs.emplace_back(indexed_name("a", i), i + 1);
    inputs.emplace_back(indexed_name("b", i), 2);
  }
  return inputs;
}

TEST(TokenMachine, DupMatchesFunctionalEvaluation) {
  const Graph g = wide_graph(3);
  TokenMachine dup(g, TokenMachineConfig::uniprocessor());
  const auto result = dup.run(wide_inputs(3));
  EXPECT_TRUE(result.stats.halted);
  const auto expected = evaluate(g, wide_inputs(3));
  EXPECT_EQ(result.outputs, expected);
  // One PE fires one node per cycle: makespan == node count.
  EXPECT_EQ(result.stats.instructions, g.node_count());
  EXPECT_EQ(result.stats.cycles, g.node_count());
}

TEST(TokenMachine, SubtypeFactory) {
  EXPECT_EQ(TokenMachineConfig::uniprocessor().subtype(), 0);
  EXPECT_EQ(TokenMachineConfig::for_subtype(1, 4).dp_dp,
            mpct::SwitchKind::None);
  EXPECT_EQ(TokenMachineConfig::for_subtype(2, 4).dp_dp,
            mpct::SwitchKind::Crossbar);
  EXPECT_EQ(TokenMachineConfig::for_subtype(3, 4).dp_dm,
            mpct::SwitchKind::Crossbar);
  EXPECT_EQ(TokenMachineConfig::for_subtype(4, 4).subtype(), 4);
  EXPECT_THROW(TokenMachineConfig::for_subtype(5, 4),
               std::invalid_argument);
}

TEST(TokenMachine, EveryDmpSubtypeComputesTheSameValues) {
  const Graph g = wide_graph(4);
  const auto expected = evaluate(g, wide_inputs(4));
  for (int subtype = 1; subtype <= 4; ++subtype) {
    TokenMachine machine(g, TokenMachineConfig::for_subtype(subtype, 4));
    const auto result = machine.run(wide_inputs(4));
    EXPECT_TRUE(result.stats.halted) << subtype;
    EXPECT_EQ(result.outputs, expected) << subtype;
  }
}

TEST(TokenMachine, ParallelPesBeatDupOnWideGraphs) {
  const Graph g = wide_graph(8);
  TokenMachine dup(g, TokenMachineConfig::uniprocessor());
  TokenMachine dmp4(g, TokenMachineConfig::for_subtype(4, 8));
  const auto t1 = dup.run(wide_inputs(8)).stats.cycles;
  const auto t8 = dmp4.run(wide_inputs(8)).stats.cycles;
  EXPECT_LT(t8, t1 / 2);
}

TEST(TokenMachine, Dmp1ParallelismIsLimitedToComponents) {
  // A single connected chain: DMP-I must serialise it on one PE while
  // DMP-IV pipelines it across PEs (the Fig. 3 sub-type story).
  Graph chain;
  NodeId prev = chain.add_input("x");
  for (int i = 0; i < 11; ++i) {
    prev = chain.add_op(Op::Add, prev, chain.add_const(1));
  }
  chain.add_output("r", prev);

  TokenMachine dmp1(chain, TokenMachineConfig::for_subtype(1, 4));
  const auto result = dmp1.run({{"x", 0}});
  EXPECT_EQ(result.outputs[0].second, 11);
  // All nodes on a single PE.
  const int pe = result.placement[0];
  for (int assignment : result.placement) {
    EXPECT_EQ(assignment, pe);
  }
}

TEST(TokenMachine, Dmp1RunsIndependentComponentsInParallel) {
  const Graph g = wide_graph(4);  // 4 independent components
  TokenMachine dmp1(g, TokenMachineConfig::for_subtype(1, 4));
  TokenMachine dup(g, TokenMachineConfig::uniprocessor());
  const auto t4 = dmp1.run(wide_inputs(4)).stats.cycles;
  const auto t1 = dup.run(wide_inputs(4)).stats.cycles;
  EXPECT_LT(t4, t1);
  // Components land on distinct PEs (each chain occupies 6 nodes, so
  // node 0 is in chain 0 and node 6 in chain 1).
  const auto placement = dmp1.run(wide_inputs(4)).placement;
  EXPECT_NE(placement[0], placement[6]);
}

TEST(TokenMachine, CrossbarTransferBeatsMemoryTransfer) {
  // The same connected graph on DMP-II (PE-PE crossbar, latency 1) vs
  // DMP-III (through memory, latency 2): the crossbar machine is at
  // least as fast.
  Graph chain;
  NodeId prev = chain.add_input("x");
  for (int i = 0; i < 16; ++i) {
    prev = chain.add_op(Op::Add, prev, chain.add_const(i));
  }
  chain.add_output("r", prev);

  TokenMachine dmp2(chain, TokenMachineConfig::for_subtype(2, 4));
  TokenMachine dmp3(chain, TokenMachineConfig::for_subtype(3, 4));
  const auto t2 = dmp2.run({{"x", 1}}).stats.cycles;
  const auto t3 = dmp3.run({{"x", 1}}).stats.cycles;
  EXPECT_LE(t2, t3);
}

TEST(TokenMachine, RejectsInvalidGraph) {
  Graph g;
  const NodeId a = g.add_input("a");
  g.add_op(Op::Add, a, 42);  // dangling
  EXPECT_THROW(TokenMachine(g, TokenMachineConfig::uniprocessor()),
               SimError);
}

TEST(TokenMachine, MissingInputThrows) {
  const Graph g = wide_graph(1);
  TokenMachine machine(g, TokenMachineConfig::uniprocessor());
  EXPECT_THROW(machine.run({}), SimError);
}

TEST(TokenMachine, FiringCountEqualsNodeCount) {
  const Graph g = wide_graph(5);
  for (int subtype = 1; subtype <= 4; ++subtype) {
    TokenMachine machine(g, TokenMachineConfig::for_subtype(subtype, 3));
    const auto result = machine.run(wide_inputs(5));
    EXPECT_EQ(result.stats.instructions, g.node_count()) << subtype;
  }
}

TEST(TokenMachine, RejectsBadPeCount) {
  const Graph g = wide_graph(1);
  TokenMachineConfig config;
  config.pes = 0;
  EXPECT_THROW(TokenMachine(g, config), std::invalid_argument);
}

/// Property sweep: for every subtype and PE count, results match the
/// functional evaluation (machine organisation never changes semantics).
struct SweepCase {
  int subtype;
  int pes;
};

class TokenMachineSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(TokenMachineSweep, SemanticsPreserved) {
  const Graph g = wide_graph(6);
  const auto expected = evaluate(g, wide_inputs(6));
  TokenMachine machine(
      g, TokenMachineConfig::for_subtype(GetParam().subtype, GetParam().pes));
  EXPECT_EQ(machine.run(wide_inputs(6)).outputs, expected);
}

INSTANTIATE_TEST_SUITE_P(
    SubtypesAndPes, TokenMachineSweep,
    ::testing::Values(SweepCase{1, 2}, SweepCase{1, 8}, SweepCase{2, 2},
                      SweepCase{2, 8}, SweepCase{3, 2}, SweepCase{3, 8},
                      SweepCase{4, 2}, SweepCase{4, 8}, SweepCase{4, 32}));

}  // namespace
}  // namespace mpct::sim::df
