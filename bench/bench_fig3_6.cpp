/// Regenerates Figures 3-6 — the machine organisations the paper
/// illustrates (data-flow sub-types, array-processor sub-types,
/// instruction-flow spatial processors, universal-flow spatial
/// processors) — as *executable* demonstrations rather than drawings,
/// and benchmarks each paradigm machine.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"

#include <iostream>

#include "core/indexed_name.hpp"
#include "core/roman.hpp"
#include "core/taxonomy_table.hpp"
#include "sim/dataflow/token_machine.hpp"
#include "sim/isa/assembler.hpp"
#include "sim/mimd/multiprocessor.hpp"
#include "sim/morph.hpp"
#include "sim/simd/array_processor.hpp"
#include "sim/spatial/mapper.hpp"

namespace {

using namespace mpct;
using namespace mpct::sim;

// ---------------------------------------------------------------- Fig 3

df::Graph make_chain(int length) {
  df::Graph g;
  df::NodeId prev = g.add_input("x");
  for (int i = 0; i < length; ++i) {
    prev = g.add_op(df::Op::Add, prev, g.add_const(1));
  }
  g.add_output("r", prev);
  return g;
}

df::Graph make_wide(int chains) {
  df::Graph g;
  for (int i = 0; i < chains; ++i) {
    const df::NodeId a = g.add_input(indexed_name("a", i));
    const df::NodeId b = g.add_input(indexed_name("b", i));
    g.add_output(indexed_name("o", i), g.add_op(df::Op::Mul, a, b));
  }
  return g;
}

void print_fig3() {
  std::cout << "FIGURE 3: DATA FLOW MACHINE WITH SUB-TYPES (executable)\n"
            << "workload A: one connected 24-node chain; workload B: 8 "
               "independent chains.\n"
            << "4 PEs; makespan in cycles per DMP sub-type:\n\n";
  const df::Graph chain = make_chain(24);
  const df::Graph wide = make_wide(8);
  std::vector<std::pair<std::string, Word>> wide_inputs;
  for (int i = 0; i < 8; ++i) {
    wide_inputs.emplace_back(indexed_name("a", i), i);
    wide_inputs.emplace_back(indexed_name("b", i), 3);
  }
  std::cout << "  sub-type   connected-chain   independent-chains\n";
  for (int subtype = 1; subtype <= 4; ++subtype) {
    const auto config = df::TokenMachineConfig::for_subtype(subtype, 4);
    df::TokenMachine machine_a(chain, config);
    df::TokenMachine machine_b(wide, config);
    std::cout << "  DMP-" << to_roman(subtype) << "\t\t"
              << machine_a.run({{"x", 0}}).stats.cycles << "\t\t"
              << machine_b.run(wide_inputs).stats.cycles << "\n";
  }
  df::TokenMachine dup(chain, df::TokenMachineConfig::uniprocessor());
  std::cout << "  DUP\t\t" << dup.run({{"x", 0}}).stats.cycles
            << "\t\t(single PE reference)\n\n";
}

// ---------------------------------------------------------------- Fig 4

void print_fig4() {
  std::cout << "FIGURE 4: ARRAY PROCESSOR WITH SUB-TYPES (executable)\n"
            << "8 lanes; which kernels each IAP sub-type can run:\n\n";
  const Program affine = assemble_or_throw(R"(
    lane r1
    ldi r2, 3
    mul r3, r1, r2
    out r3
    halt
  )");
  const Program shuffle = assemble_or_throw(R"(
    lane r1
    addi r2, r1, 1
    shuf r3, r1, r2
    out r3
    halt
  )");
  std::cout << "  sub-type  affine-kernel  lane-shuffle-kernel\n";
  for (int subtype = 1; subtype <= 4; ++subtype) {
    std::cout << "  IAP-" << to_roman(subtype) << "\tok\t\t";
    try {
      ArrayProcessor iap(shuffle,
                         ArrayProcessorConfig::for_subtype(subtype, 8, 64));
      iap.run();
      std::cout << "ok (DP-DP crossbar present)";
    } catch (const SimError&) {
      std::cout << "traps (no DP-DP switch)";
    }
    ArrayProcessor check(affine,
                         ArrayProcessorConfig::for_subtype(subtype, 8, 64));
    check.run();
    std::cout << "\n";
  }
  std::cout << "\n";
}

// ---------------------------------------------------------------- Fig 5

void print_fig5() {
  std::cout << "FIGURE 5: INSTRUCTION FLOW SPATIAL/MULTI PROCESSORS "
               "(executable)\n"
            << "morphing experiments backing Section III-B's flexibility "
               "ordering:\n\n";
  for (const MorphDemo& demo : all_morph_demos(4)) {
    std::cout << "  [" << to_string(demo.from) << " -> "
              << to_string(demo.to) << "] "
              << (demo.succeeded ? "MORPHS" : "CANNOT MORPH") << "\n    "
              << demo.description << "\n    " << demo.detail << "\n";
  }
  std::cout << "\n";
}

// ---------------------------------------------------------------- Fig 6

void print_fig6() {
  std::cout << "FIGURE 6: UNIVERSAL FLOW SPATIAL PROCESSOR (executable)\n"
            << "one 64-cell LUT fabric, reconfigured across paradigms:\n\n";
  spatial::LutFabric fabric(64, 16, 8);

  const spatial::Netlist adder = spatial::build_ripple_adder(4);
  const auto adder_map = spatial::map_netlist(adder, fabric);
  std::vector<std::pair<std::string, bool>> inputs;
  const unsigned a = 11, b = 5;
  for (int i = 0; i < 4; ++i) {
    inputs.emplace_back(indexed_name("a", i), (a >> i) & 1u);
    inputs.emplace_back(indexed_name("b", i), (b >> i) & 1u);
  }
  inputs.emplace_back("cin", false);
  const auto sum_bits = fabric.step(
      spatial::pack_inputs(adder_map, fabric.primary_inputs(), inputs));
  unsigned sum = 0;
  for (int i = 0; i < 4; ++i) {
    if (sum_bits[static_cast<std::size_t>(
            adder_map.output_index.at(indexed_name("s", i)))]) {
      sum |= 1u << i;
    }
  }
  if (sum_bits[static_cast<std::size_t>(adder_map.output_index.at("cout"))]) {
    sum |= 1u << 4;
  }
  std::cout << "  personality 1 (data flow): 4-bit ripple adder, " << a
            << " + " << b << " = " << sum << " (cells used: "
            << adder_map.cells_used << ")\n";

  const spatial::Netlist counter = spatial::build_counter(3);
  const auto counter_map = spatial::map_netlist(counter, fabric);
  std::cout << "  personality 2 (instruction flow): 3-bit counter FSM: ";
  for (int cycle = 0; cycle < 6; ++cycle) {
    const auto out = fabric.step(spatial::pack_inputs(
        counter_map, fabric.primary_inputs(), {{"en", true}}));
    unsigned value = 0;
    for (int bit = 0; bit < 3; ++bit) {
      if (out[static_cast<std::size_t>(
              counter_map.output_index.at(indexed_name("q", bit)))]) {
        value |= 1u << bit;
      }
    }
    std::cout << value << ' ';
  }
  std::cout << "(cells used: " << counter_map.cells_used << ")\n";
  std::cout << "  fabric configuration size: " << fabric.config_bits()
            << " bits — the overhead flexibility costs (Section III-B)\n\n";
}

// ----------------------------------------------------------- benchmarks

void bm_dmp_subtype(benchmark::State& state) {
  const df::Graph chain = make_chain(24);
  const auto config = df::TokenMachineConfig::for_subtype(
      static_cast<int>(state.range(0)), 4);
  df::TokenMachine machine(chain, config);
  for (auto _ : state) {
    auto result = machine.run({{"x", 0}});
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(bm_dmp_subtype)->DenseRange(1, 4);

void bm_iap_lanes(benchmark::State& state) {
  const Program affine = assemble_or_throw(R"(
    lane r1
    ldi r2, 3
    mul r3, r1, r2
    out r3
    halt
  )");
  for (auto _ : state) {
    ArrayProcessor iap(affine,
                       ArrayProcessorConfig::for_subtype(
                           1, static_cast<int>(state.range(0)), 64));
    auto stats = iap.run();
    benchmark::DoNotOptimize(stats);
  }
}
BENCHMARK(bm_iap_lanes)->RangeMultiplier(4)->Range(4, 64);

void bm_fabric_reconfigure(benchmark::State& state) {
  spatial::LutFabric fabric(64, 16, 8);
  const spatial::Netlist adder = spatial::build_ripple_adder(4);
  const spatial::Netlist counter = spatial::build_counter(3);
  for (auto _ : state) {
    auto m1 = spatial::map_netlist(adder, fabric);
    auto m2 = spatial::map_netlist(counter, fabric);
    benchmark::DoNotOptimize(m1);
    benchmark::DoNotOptimize(m2);
  }
}
BENCHMARK(bm_fabric_reconfigure);

}  // namespace

int main(int argc, char** argv) {
  print_fig3();
  print_fig4();
  print_fig5();
  print_fig6();
  mpct::bench::apply_csv_flag(&argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
