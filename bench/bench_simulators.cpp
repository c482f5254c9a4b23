/// Microbenchmarks of the paradigm simulators: instructions/second for
/// the instruction-flow machines, firings/second for the dataflow
/// machines, steps/second for the LUT fabric.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"

#include <iostream>

#include "core/indexed_name.hpp"
#include "sim/cgra/scheduler.hpp"
#include "sim/dataflow/expr_parser.hpp"
#include "sim/dataflow/token_machine.hpp"
#include "sim/isa/assembler.hpp"
#include "sim/isa/uniprocessor.hpp"
#include "sim/mimd/multiprocessor.hpp"
#include "sim/simd/array_processor.hpp"
#include "sim/spatial/mapper.hpp"

namespace {

using namespace mpct::sim;
using mpct::indexed_name;

const char* kLoopKernel = R"(
  ldi r1, 0
  ldi r2, 1000
  ldi r3, 0
loop:
  beq r2, r3, done
  add r1, r1, r2
  addi r2, r2, -1
  jmp loop
done:
  halt
)";

/// Dynamic instruction count of kLoopKernel (3 ldi + 1000x loop body of
/// 4 + exit beq + halt).
constexpr std::int64_t kLoopInstructions = 4005;

void bm_iup_loop(benchmark::State& state) {
  const Program program = assemble_or_throw(kLoopKernel);
  for (auto _ : state) {
    Uniprocessor cpu(program, 16);
    RunStats stats = cpu.run();
    benchmark::DoNotOptimize(stats);
  }
  state.SetItemsProcessed(state.iterations() * kLoopInstructions);
}
BENCHMARK(bm_iup_loop);

void bm_iap_lanes(benchmark::State& state) {
  const Program program = assemble_or_throw(kLoopKernel);
  const int lanes = static_cast<int>(state.range(0));
  for (auto _ : state) {
    ArrayProcessor iap(program,
                       ArrayProcessorConfig::for_subtype(1, lanes, 16));
    RunStats stats = iap.run();
    benchmark::DoNotOptimize(stats);
  }
  state.SetItemsProcessed(state.iterations() * kLoopInstructions * lanes);
}
BENCHMARK(bm_iap_lanes)->RangeMultiplier(4)->Range(4, 64);

void bm_imp_cores(benchmark::State& state) {
  const Program program = assemble_or_throw(kLoopKernel);
  const int cores = static_cast<int>(state.range(0));
  MultiprocessorConfig config = MultiprocessorConfig::for_subtype(1);
  config.cores = cores;
  config.bank_words = 16;
  for (auto _ : state) {
    Multiprocessor imp = Multiprocessor::broadcast(program, config);
    RunStats stats = imp.run();
    benchmark::DoNotOptimize(stats);
  }
  state.SetItemsProcessed(state.iterations() * kLoopInstructions * cores);
}
BENCHMARK(bm_imp_cores)->RangeMultiplier(4)->Range(4, 64);

void bm_imp_message_ring(benchmark::State& state) {
  // Token ring: each core receives and forwards 100 times.
  const int cores = static_cast<int>(state.range(0));
  std::vector<Program> programs;
  for (int c = 0; c < cores; ++c) {
    std::string source;
    if (c == 0) {
      source = R"(
        ldi r1, 0
        ldi r2, 1
        send r1, r2
        ldi r4, 100
        ldi r5, 0
loop:
        recv r3
        addi r3, r3, 1
        send r3, r2
        addi r4, r4, -1
        bne r4, r5, loop
        recv r3
        halt
      )";
    } else {
      source = R"(
        ldi r2, )" + std::to_string((c + 1) % cores) + R"(
        ldi r4, 101
        ldi r5, 0
loop:
        recv r3
        send r3, r2
        addi r4, r4, -1
        bne r4, r5, loop
        halt
      )";
    }
    programs.push_back(assemble_or_throw(source));
  }
  MultiprocessorConfig config = MultiprocessorConfig::for_subtype(2);
  config.cores = cores;
  for (auto _ : state) {
    Multiprocessor imp(programs, config);
    RunStats stats = imp.run(10'000'000);
    benchmark::DoNotOptimize(stats);
  }
}
BENCHMARK(bm_imp_message_ring)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void bm_dataflow_firings(benchmark::State& state) {
  const int pes = static_cast<int>(state.range(0));
  mpct::sim::df::Graph g;
  std::vector<mpct::sim::df::NodeId> layer;
  for (int i = 0; i < 32; ++i) {
    layer.push_back(g.add_input(indexed_name("i", i)));
  }
  // Reduction tree: 32 -> 1.
  while (layer.size() > 1) {
    std::vector<mpct::sim::df::NodeId> next;
    for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
      next.push_back(g.add_op(mpct::sim::df::Op::Add, layer[i],
                              layer[i + 1]));
    }
    if (layer.size() % 2) next.push_back(layer.back());
    layer = std::move(next);
  }
  g.add_output("sum", layer[0]);

  std::vector<std::pair<std::string, mpct::sim::Word>> inputs;
  for (int i = 0; i < 32; ++i) {
    inputs.emplace_back(indexed_name("i", i), i);
  }
  const auto config =
      pes == 1 ? mpct::sim::df::TokenMachineConfig::uniprocessor()
               : mpct::sim::df::TokenMachineConfig::for_subtype(4, pes);
  mpct::sim::df::TokenMachine machine(g, config);
  for (auto _ : state) {
    auto result = machine.run(inputs);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * g.node_count());
}
BENCHMARK(bm_dataflow_firings)->Arg(1)->Arg(4)->Arg(16);

void bm_fabric_steps(benchmark::State& state) {
  using namespace mpct::sim::spatial;
  LutFabric fabric(64, 16, 8);
  const Netlist adder = build_ripple_adder(4);
  const MappingReport report = map_netlist(adder, fabric);
  std::vector<std::pair<std::string, bool>> values;
  for (int i = 0; i < 4; ++i) {
    values.emplace_back(indexed_name("a", i), i % 2 == 0);
    values.emplace_back(indexed_name("b", i), i % 2 == 1);
  }
  values.emplace_back("cin", false);
  const auto inputs = pack_inputs(report, fabric.primary_inputs(), values);
  for (auto _ : state) {
    auto outputs = fabric.step(inputs);
    benchmark::DoNotOptimize(outputs);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_fabric_steps);

void bm_assemble(benchmark::State& state) {
  for (auto _ : state) {
    AssemblyResult result = assemble(kLoopKernel);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(bm_assemble);

constexpr std::string_view kFirProgram = R"(
  acc = x0*c0 + x1*c1 + x2*c2 + x3*c3
  out = min(acc, 1000)
)";

void bm_expression_compile(benchmark::State& state) {
  for (auto _ : state) {
    auto result = mpct::sim::df::compile_expression(kFirProgram);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(bm_expression_compile);

void bm_cgra_map(benchmark::State& state) {
  const auto graph = mpct::sim::df::compile_expression_or_throw(kFirProgram);
  mpct::sim::cgra::Cgra fabric(mpct::sim::cgra::CgraShape{
      .fus = 16, .contexts = 16, .primary_inputs = 8});
  for (auto _ : state) {
    auto schedule = mpct::sim::cgra::map_graph(graph, fabric);
    benchmark::DoNotOptimize(schedule);
  }
}
BENCHMARK(bm_cgra_map);

void bm_cgra_run(benchmark::State& state) {
  const auto graph = mpct::sim::df::compile_expression_or_throw(kFirProgram);
  mpct::sim::cgra::Cgra fabric(mpct::sim::cgra::CgraShape{
      .fus = 16, .contexts = 16, .primary_inputs = 8});
  const auto schedule = mpct::sim::cgra::map_graph(graph, fabric);
  std::vector<std::pair<std::string, Word>> inputs;
  int value = 1;
  for (const auto& [name, index] : schedule.input_index) {
    inputs.emplace_back(name, value++);
  }
  for (auto _ : state) {
    auto outputs = mpct::sim::cgra::run_mapped(fabric, schedule, inputs);
    benchmark::DoNotOptimize(outputs);
  }
  state.SetItemsProcessed(state.iterations() * schedule.fus_used);
}
BENCHMARK(bm_cgra_run);

}  // namespace

int main(int argc, char** argv) {
  std::cout << "PARADIGM SIMULATOR MICROBENCHMARKS\n"
            << "(items/s = simulated instructions, node firings, or "
               "fabric clock steps)\n\n";
  mpct::bench::apply_csv_flag(&argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
