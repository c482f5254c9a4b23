#include "sim/cgra/cgra.hpp"
#include "sim/cgra/scheduler.hpp"

#include <gtest/gtest.h>

#include "core/indexed_name.hpp"
#include "sim/memory.hpp"

namespace mpct::sim::cgra {
namespace {

df::Graph axpy() {
  df::Graph g;
  const df::NodeId a = g.add_input("a");
  const df::NodeId x = g.add_input("x");
  const df::NodeId y = g.add_input("y");
  const df::NodeId ax = g.add_op(df::Op::Mul, a, x);
  g.add_output("out", g.add_op(df::Op::Add, ax, y));
  return g;
}

df::Graph reduction_tree(int leaves) {
  df::Graph g;
  std::vector<df::NodeId> layer;
  for (int i = 0; i < leaves; ++i) {
    layer.push_back(g.add_input(indexed_name("i", i)));
  }
  while (layer.size() > 1) {
    std::vector<df::NodeId> next;
    for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
      next.push_back(g.add_op(df::Op::Add, layer[i], layer[i + 1]));
    }
    if (layer.size() % 2) next.push_back(layer.back());
    layer = std::move(next);
  }
  g.add_output("sum", layer[0]);
  return g;
}

std::vector<std::pair<std::string, Word>> tree_inputs(int leaves) {
  std::vector<std::pair<std::string, Word>> inputs;
  for (int i = 0; i < leaves; ++i) {
    inputs.emplace_back(indexed_name("i", i), i + 1);
  }
  return inputs;
}

// ------------------------------------------------------------- fabric

TEST(Cgra, ManualProgramAndRun) {
  CgraShape shape;
  shape.fus = 2;
  shape.contexts = 2;
  shape.primary_inputs = 2;
  Cgra cgra(shape);
  // cycle 0: fu0 = in0 + in1; cycle 1: fu1 = fu0 * 10.
  FuInstruction add;
  add.active = true;
  add.op = df::Op::Add;
  add.a = Operand::input_of(0);
  add.b = Operand::input_of(1);
  cgra.program(0, 0, add);
  FuInstruction mul;
  mul.active = true;
  mul.op = df::Op::Mul;
  mul.a = Operand::fu_of(0);
  mul.b = Operand::constant_of(10);
  cgra.program(1, 1, mul);

  const RunStats stats = cgra.run({3, 4});
  EXPECT_EQ(cgra.fu_value(0), 7);
  EXPECT_EQ(cgra.fu_value(1), 70);
  EXPECT_EQ(stats.instructions, 2);
  EXPECT_EQ(stats.cycles, 2);
}

TEST(Cgra, ReadsAreLatchedNotCombinational) {
  // Same cycle: fu1 reads fu0's OLD value, not the one computed this
  // cycle (synchronous semantics).
  CgraShape shape;
  shape.fus = 2;
  shape.contexts = 1;
  shape.primary_inputs = 1;
  Cgra cgra(shape);
  FuInstruction write5;
  write5.active = true;
  write5.op = df::Op::Add;
  write5.a = Operand::constant_of(5);
  write5.b = Operand::constant_of(0);
  cgra.program(0, 0, write5);
  FuInstruction copy;
  copy.active = true;
  copy.op = df::Op::Add;
  copy.a = Operand::fu_of(0);
  copy.b = Operand::constant_of(0);
  cgra.program(0, 1, copy);
  cgra.run({0});
  EXPECT_EQ(cgra.fu_value(0), 5);
  EXPECT_EQ(cgra.fu_value(1), 0);  // saw the pre-cycle value
}

TEST(Cgra, ProgramValidatesIndicesAndOperators) {
  Cgra cgra(CgraShape{.fus = 2, .contexts = 2, .primary_inputs = 1});
  FuInstruction inst;
  inst.active = true;
  inst.op = df::Op::Add;
  inst.a = Operand::constant_of(1);
  inst.b = Operand::constant_of(2);
  EXPECT_THROW(cgra.program(5, 0, inst), SimError);
  EXPECT_THROW(cgra.program(0, 9, inst), SimError);
  inst.a = Operand::fu_of(7);
  EXPECT_THROW(cgra.program(0, 0, inst), SimError);
  inst.a = Operand::input_of(3);
  EXPECT_THROW(cgra.program(0, 0, inst), SimError);
  inst.a = Operand::none();
  EXPECT_THROW(cgra.program(0, 0, inst), SimError);
  inst.a = Operand::constant_of(1);
  inst.op = df::Op::Input;
  EXPECT_THROW(cgra.program(0, 0, inst), SimError);
  inst.op = df::Op::Const;
  EXPECT_THROW(cgra.program(0, 0, inst), SimError);
}

TEST(Cgra, WindowConstrainsOperandRouting) {
  CgraShape shape;
  shape.fus = 8;
  shape.contexts = 2;
  shape.primary_inputs = 1;
  shape.window = 1;
  Cgra cgra(shape);
  FuInstruction inst;
  inst.active = true;
  inst.op = df::Op::Add;
  inst.a = Operand::fu_of(0);
  inst.b = Operand::constant_of(0);
  EXPECT_NO_THROW(cgra.program(1, 1, inst));  // distance 1: ok
  inst.a = Operand::fu_of(0);
  EXPECT_THROW(cgra.program(1, 3, inst), SimError);  // distance 3: no
}

TEST(Cgra, RunValidatesInputsAndDepth) {
  Cgra cgra(CgraShape{.fus = 2, .contexts = 2, .primary_inputs = 2});
  EXPECT_THROW(cgra.run({1}), SimError);        // wrong input count
  EXPECT_THROW(cgra.run({1, 2}, 5), SimError);  // beyond context depth
}

TEST(Cgra, ConfigBitsScaleWithShape) {
  const Cgra small(CgraShape{.fus = 4, .contexts = 4, .primary_inputs = 4});
  const Cgra deeper(
      CgraShape{.fus = 4, .contexts = 8, .primary_inputs = 4});
  const Cgra wider(CgraShape{.fus = 8, .contexts = 4, .primary_inputs = 4});
  EXPECT_EQ(deeper.config_bits(), 2 * small.config_bits());
  EXPECT_EQ(wider.config_bits(), 2 * small.config_bits());
  EXPECT_GT(small.config_bits(), 0);
}

// ---------------------------------------------------------- scheduler

TEST(Scheduler, AxpyMatchesFunctionalEvaluation) {
  const df::Graph g = axpy();
  Cgra cgra(CgraShape{.fus = 4, .contexts = 4, .primary_inputs = 4});
  const Schedule schedule = map_graph(g, cgra);
  EXPECT_EQ(schedule.fus_used, 2);
  EXPECT_EQ(schedule.depth, 2);  // mul then add
  const auto outputs =
      run_mapped(cgra, schedule, {{"a", 3}, {"x", 4}, {"y", 5}});
  const auto expected = df::evaluate(g, {{"a", 3}, {"x", 4}, {"y", 5}});
  EXPECT_EQ(outputs, expected);
}

TEST(Scheduler, ReductionTreeUsesLogDepth) {
  const df::Graph g = reduction_tree(8);
  Cgra cgra(CgraShape{.fus = 8, .contexts = 8, .primary_inputs = 8});
  const Schedule schedule = map_graph(g, cgra);
  EXPECT_EQ(schedule.fus_used, 7);  // 4 + 2 + 1 adders
  EXPECT_EQ(schedule.depth, 3);     // log2(8) levels
  const auto outputs = run_mapped(cgra, schedule, tree_inputs(8));
  EXPECT_EQ(outputs.at(0).second, 36);  // 1+..+8
}

TEST(Scheduler, MatchesEvaluationAcrossShapes) {
  const df::Graph g = reduction_tree(8);
  const auto expected = df::evaluate(g, tree_inputs(8));
  for (int window : {-1, 4, 7}) {
    CgraShape shape;
    shape.fus = 16;
    shape.contexts = 8;
    shape.primary_inputs = 8;
    shape.window = window;
    Cgra cgra(shape);
    const Schedule schedule = map_graph(g, cgra);
    EXPECT_EQ(run_mapped(cgra, schedule, tree_inputs(8)), expected)
        << "window " << window;
  }
}

TEST(Scheduler, RejectsWhenFabricTooSmall) {
  const df::Graph g = reduction_tree(8);  // 7 compute nodes
  Cgra few_fus(CgraShape{.fus = 3, .contexts = 8, .primary_inputs = 8});
  EXPECT_THROW(map_graph(g, few_fus), SimError);
  Cgra few_contexts(
      CgraShape{.fus = 8, .contexts = 2, .primary_inputs = 8});
  EXPECT_THROW(map_graph(g, few_contexts), SimError);
  Cgra few_inputs(CgraShape{.fus = 8, .contexts = 8, .primary_inputs = 4});
  EXPECT_THROW(map_graph(g, few_inputs), SimError);
}

TEST(Scheduler, NarrowWindowCanMakeGraphsUnmappable) {
  // A 16-leaf tree's final adder must reach across the row; with
  // window 1 the greedy placer runs out of reachable FUs.
  const df::Graph g = reduction_tree(16);
  CgraShape shape;
  shape.fus = 15;
  shape.contexts = 8;
  shape.primary_inputs = 16;
  shape.window = 1;
  Cgra cgra(shape);
  EXPECT_THROW(map_graph(g, cgra), SimError);
}

TEST(Scheduler, RejectsOutputFedByInput) {
  df::Graph g;
  const df::NodeId a = g.add_input("a");
  g.add_output("echo", a);
  Cgra cgra(CgraShape{.fus = 2, .contexts = 2, .primary_inputs = 2});
  EXPECT_THROW(map_graph(g, cgra), SimError);
}

TEST(Scheduler, RunMappedRejectsUnknownInput) {
  const df::Graph g = axpy();
  Cgra cgra(CgraShape{.fus = 4, .contexts = 4, .primary_inputs = 4});
  const Schedule schedule = map_graph(g, cgra);
  EXPECT_THROW(run_mapped(cgra, schedule, {{"zz", 1}}), SimError);
}

TEST(Scheduler, SelectAndMinMaxMap) {
  df::Graph g;
  const df::NodeId a = g.add_input("a");
  const df::NodeId b = g.add_input("b");
  const df::NodeId lt = g.add_op(df::Op::Lt, a, b);
  g.add_output("min", g.add_select(lt, a, b));
  Cgra cgra(CgraShape{.fus = 4, .contexts = 4, .primary_inputs = 4});
  const Schedule schedule = map_graph(g, cgra);
  EXPECT_EQ(run_mapped(cgra, schedule, {{"a", 3}, {"b", 9}}).at(0).second,
            3);
  EXPECT_EQ(run_mapped(cgra, schedule, {{"a", 12}, {"b", 9}}).at(0).second,
            9);
}

/// Property sweep: random-ish expression DAGs evaluate identically on
/// the CGRA and the reference across sizes.
class CgraTreeSweep : public ::testing::TestWithParam<int> {};

TEST_P(CgraTreeSweep, TreeOfAnySizeMatches) {
  const int leaves = GetParam();
  const df::Graph g = reduction_tree(leaves);
  CgraShape shape;
  shape.fus = leaves;
  shape.contexts = 8;
  shape.primary_inputs = leaves;
  Cgra cgra(shape);
  const Schedule schedule = map_graph(g, cgra);
  EXPECT_EQ(run_mapped(cgra, schedule, tree_inputs(leaves)),
            df::evaluate(g, tree_inputs(leaves)));
  EXPECT_EQ(run_mapped(cgra, schedule, tree_inputs(leaves)).at(0).second,
            leaves * (leaves + 1) / 2);
}

INSTANTIATE_TEST_SUITE_P(Leaves, CgraTreeSweep,
                         ::testing::Values(2, 3, 5, 8, 16, 32));

}  // namespace
}  // namespace mpct::sim::cgra
