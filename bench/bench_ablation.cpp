/// Ablation studies for the design choices DESIGN.md calls out:
///  (a) token-machine placement policy (component-aware vs round-robin),
///  (b) switch-cost model parameter sensitivity,
///  (c) interconnect family routability at equal port count
///      (crossbar / omega / bus / window),
///  (d) energy: the same dot-product workload priced across paradigms.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"

#include <iomanip>
#include <iostream>
#include <numeric>

#include "core/indexed_name.hpp"
#include "cost/energy.hpp"
#include "cost/switch_cost.hpp"
#include "interconnect/benes.hpp"
#include "interconnect/bus.hpp"
#include "interconnect/crossbar.hpp"
#include "interconnect/neighbor.hpp"
#include "interconnect/omega.hpp"
#include "interconnect/traffic.hpp"
#include "sim/cgra/pipeline.hpp"
#include "sim/cgra/scheduler.hpp"
#include "sim/dataflow/expr_parser.hpp"
#include "sim/dataflow/token_machine.hpp"
#include "sim/isa/assembler.hpp"
#include "sim/isa/uniprocessor.hpp"
#include "sim/simd/array_processor.hpp"

namespace {

using namespace mpct;
using namespace mpct::sim;

// ------------------------------------------------- placement ablation

void print_placement_ablation() {
  std::cout << "ABLATION (a): token-machine placement policy\n"
            << "8 independent 3-node chains on 4 PEs; makespan with the "
               "component-aware policy vs what naive round-robin costs "
               "per DMP sub-type:\n\n";
  df::Graph wide;
  for (int i = 0; i < 8; ++i) {
    const df::NodeId a = wide.add_input(indexed_name("a", i));
    const df::NodeId b = wide.add_input(indexed_name("b", i));
    wide.add_output(indexed_name("o", i),
                    wide.add_op(df::Op::Mul, a, b));
  }
  std::vector<std::pair<std::string, Word>> inputs;
  for (int i = 0; i < 8; ++i) {
    inputs.emplace_back(indexed_name("a", i), i);
    inputs.emplace_back(indexed_name("b", i), 2);
  }
  // The shipped policy is component-aware; approximating the round-robin
  // alternative by a connected workload of the same size shows what
  // cross-PE transfers cost.
  df::Graph chain;
  df::NodeId prev = chain.add_input("x");
  for (int i = 0; i < 31; ++i) {
    prev = chain.add_op(df::Op::Add, prev, chain.add_const(1));
  }
  chain.add_output("r", prev);

  std::cout << "  sub-type  component-parallel  forced-cross-PE(chain)\n";
  for (int subtype = 2; subtype <= 4; ++subtype) {
    df::TokenMachine parallel(wide,
                              df::TokenMachineConfig::for_subtype(subtype, 4));
    df::TokenMachine serial(chain,
                            df::TokenMachineConfig::for_subtype(subtype, 4));
    std::cout << "  DMP-" << subtype << "\t\t"
              << parallel.run(inputs).stats.cycles << "\t\t"
              << serial.run({{"x", 0}}).stats.cycles << "\n";
  }
  std::cout << "\n";
}

// ---------------------------------------------- parameter sensitivity

void print_parameter_sensitivity() {
  std::cout << "ABLATION (b): switch-cost parameter sensitivity "
               "(64x64 crossbar, 32-bit)\n"
            << "  ge/crosspoint-bit   area kGE\n";
  for (double ge : {1.0, 2.5, 5.0, 10.0}) {
    cost::SwitchCostParams params;
    params.ge_per_crosspoint_bit = ge;
    const auto cost =
        cost::switch_cost(SwitchKind::Crossbar, 64, 64, 32, params);
    std::cout << "  " << std::setw(8) << ge << std::setw(17) << std::fixed
              << std::setprecision(1) << cost.area_kge << "\n";
  }
  std::cout << "(config bits are parameter-free: always outputs * "
               "ceil(log2(inputs+1)))\n\n";
}

// --------------------------------------------------- family routability

void print_family_routability() {
  using namespace mpct::interconnect;
  std::cout << "ABLATION (c): interconnect families at 64 ports — routes "
               "completed out of 64 requests, against configuration "
               "bits\n\n  family          shift+1  shift+17  random   "
               "config-bits\n";
  Rng rng(11);
  std::vector<PortId> random_perm(64);
  std::iota(random_perm.begin(), random_perm.end(), 0);
  for (int i = 63; i > 0; --i) {
    std::swap(random_perm[static_cast<std::size_t>(i)],
              random_perm[rng.next_below(static_cast<std::uint64_t>(i + 1))]);
  }
  const auto route_all = [&](Network& net,
                             const std::vector<PortId>& perm) {
    net.reset();
    int routed = 0;
    for (int out = 0; out < 64; ++out) {
      if (net.connect(perm[static_cast<std::size_t>(out)], out)) ++routed;
    }
    return routed;
  };
  std::vector<PortId> shift1(64), shift17(64);
  for (int i = 0; i < 64; ++i) {
    shift1[static_cast<std::size_t>(i)] = (i + 1) % 64;
    shift17[static_cast<std::size_t>(i)] = (i + 17) % 64;
  }

  Crossbar xbar(64, 64);
  OmegaNetwork omega(64);
  BusNetwork bus(64, 64, 4);
  NeighborNetwork window(64, 3, true);
  const auto row = [&](Network& net, const char* label) {
    std::cout << "  " << std::left << std::setw(15) << label << std::right
              << std::setw(8) << route_all(net, shift1) << std::setw(10)
              << route_all(net, shift17) << std::setw(9)
              << route_all(net, random_perm) << std::setw(13)
              << net.config_bits() << "\n";
  };
  row(xbar, "crossbar");
  row(omega, "omega");
  row(bus, "bus x4");
  row(window, "window +-3");
  // The Beneš programs whole permutations (rearrangeable): all three
  // patterns route fully.
  BenesNetwork benes(64);
  const auto benes_routes = [&](const std::vector<PortId>& perm) {
    benes.route_permutation(perm);
    int correct = 0;
    for (int o = 0; o < 64; ++o) {
      if (benes.source_of(o) == perm[static_cast<std::size_t>(o)]) {
        ++correct;
      }
    }
    return correct;
  };
  std::cout << "  " << std::left << std::setw(15) << "benes" << std::right
            << std::setw(8) << benes_routes(shift1) << std::setw(10)
            << benes_routes(shift17) << std::setw(9)
            << benes_routes(random_perm) << std::setw(13)
            << benes.config_bits() << "\n";
  std::cout << "(routability rises with configuration bits — the paper's "
               "flexibility/overhead axis inside a single switch "
               "column)\n\n";
}

// --------------------------------------------------------- energy lens

void print_energy_comparison() {
  std::cout << "ABLATION (d): energy of an 8-element dot product per "
               "paradigm (defaults in pJ)\n";
  constexpr int kN = 8;
  constexpr Word kA[kN] = {1, 2, 3, 4, 5, 6, 7, 8};
  constexpr Word kB[kN] = {7, 3, 1, 9, 2, 8, 5, 4};

  // IUP: loop.
  Uniprocessor iup(assemble_or_throw(R"(
    ldi r1, 0
    ldi r2, 8
    ldi r3, 0
loop:
    beq r1, r2, done
    ld r4, r1, 0
    ld r5, r1, 8
    mul r6, r4, r5
    add r3, r3, r6
    addi r1, r1, 1
    jmp loop
done:
    out r3
    halt
  )"),
                   32);
  std::vector<Word> init(16);
  for (int i = 0; i < kN; ++i) {
    init[static_cast<std::size_t>(i)] = kA[i];
    init[static_cast<std::size_t>(i + 8)] = kB[i];
  }
  iup.dm().fill(init);
  iup.dm().reset_counters();
  const RunStats iup_stats = iup.run();
  cost::ActivityCounts iup_activity;
  iup_activity.instructions = iup_stats.instructions;
  iup_activity.memory_accesses =
      static_cast<std::int64_t>(iup.dm().loads() + iup.dm().stores());
  std::cout << "  IUP:    "
            << cost::estimate_energy(iup_activity).to_string() << "\n";

  // IAP-II: lanes multiply + shuffle reduce; shuffles count as hops.
  ArrayProcessor iap(assemble_or_throw(R"(
    ldi r1, 0
    ld r2, r1, 0
    ld r3, r1, 1
    mul r4, r2, r3
    lane r5
    addi r6, r5, 1
    shuf r7, r4, r6
    add r4, r4, r7
    addi r6, r5, 2
    shuf r7, r4, r6
    add r4, r4, r7
    addi r6, r5, 4
    shuf r7, r4, r6
    add r4, r4, r7
    out r4
    halt
  )"),
                     ArrayProcessorConfig::for_subtype(2, kN, 8));
  for (int i = 0; i < kN; ++i) {
    iap.bank(i).store(0, kA[i]);
    iap.bank(i).store(1, kB[i]);
    iap.bank(i).reset_counters();
  }
  const RunStats iap_stats = iap.run();
  cost::ActivityCounts iap_activity;
  iap_activity.instructions = iap_stats.instructions;
  for (int i = 0; i < kN; ++i) {
    iap_activity.memory_accesses += static_cast<std::int64_t>(
        iap.bank(i).loads() + iap.bank(i).stores());
  }
  iap_activity.interconnect_hops = 3 * kN;  // 3 shuffle stages x 8 lanes
  std::cout << "  IAP-II: "
            << cost::estimate_energy(iap_activity).to_string() << "\n";

  // DMP-IV: token graph; every firing's operands arrive over the fabric.
  df::Graph g;
  std::vector<df::NodeId> products;
  for (int i = 0; i < kN; ++i) {
    const df::NodeId a = g.add_input(indexed_name("a", i));
    const df::NodeId b = g.add_input(indexed_name("b", i));
    products.push_back(g.add_op(df::Op::Mul, a, b));
  }
  while (products.size() > 1) {
    std::vector<df::NodeId> next;
    for (std::size_t i = 0; i + 1 < products.size(); i += 2) {
      next.push_back(g.add_op(df::Op::Add, products[i], products[i + 1]));
    }
    products = std::move(next);
  }
  g.add_output("dot", products[0]);
  std::vector<std::pair<std::string, Word>> inputs;
  for (int i = 0; i < kN; ++i) {
    inputs.emplace_back(indexed_name("a", i), kA[i]);
    inputs.emplace_back(indexed_name("b", i), kB[i]);
  }
  df::TokenMachine dmp(g, df::TokenMachineConfig::for_subtype(4, 4));
  const auto dmp_result = dmp.run(inputs);
  cost::ActivityCounts dmp_activity;
  dmp_activity.instructions = dmp_result.stats.instructions;
  // Each edge carries one token; count the graph's edges as hops.
  std::int64_t edges = 0;
  for (const auto& node : g.nodes()) {
    edges += static_cast<std::int64_t>(node.inputs.size());
  }
  dmp_activity.interconnect_hops = edges;
  std::cout << "  DMP-IV: "
            << cost::estimate_energy(dmp_activity, {},
                                     /*has_instruction_processor=*/false)
                   .to_string()
            << "  (no IP control overhead)\n\n";
}

// --------------------------------------------------- pipelined CGRA (e)

void print_pipelining_ablation() {
  std::cout << "ABLATION (e): pipelined vs one-shot CGRA execution "
               "(PipeRench's pitch)\n";
  const df::Graph g = df::compile_expression_or_throw(
      "acc = x0*c0 + x1*c1 + x2*c2 + x3*c3\nout = min(acc, 1000)");
  cgra::Cgra oneshot(cgra::CgraShape{
      .fus = 32, .contexts = 16, .primary_inputs = 8});
  const cgra::Schedule spatial = cgra::map_graph(g, oneshot);
  cgra::Cgra pipe(cgra::CgraShape{
      .fus = 32, .contexts = 16, .primary_inputs = 8});
  const cgra::PipelineSchedule pipelined =
      cgra::map_graph_pipelined(g, pipe);

  std::cout << "  one-shot: " << spatial.fus_used << " FUs, "
            << spatial.depth << " cycles/sample\n"
            << "  pipelined: " << pipelined.fus_used << " FUs ("
            << pipelined.pass_fus << " delay registers), 1 sample/cycle "
            << "after " << pipelined.depth << "-cycle fill\n";
  for (int samples : {16, 256}) {
    const std::int64_t oneshot_cycles =
        static_cast<std::int64_t>(samples) * spatial.depth;
    const std::int64_t pipe_cycles = samples + pipelined.depth - 1;
    std::cout << "  " << samples << " samples: one-shot "
              << oneshot_cycles << " cycles, pipelined " << pipe_cycles
              << " cycles (" << std::fixed << std::setprecision(1)
              << static_cast<double>(oneshot_cycles) /
                     static_cast<double>(pipe_cycles)
              << "x)\n";
  }
  std::cout << "(pipelining buys throughput with extra FUs — area for "
               "time, the same axis as the paper's flexibility "
               "trade-offs)\n\n";
}

// ----------------------------------------------------------- benchmarks

void bm_cgra_stream(benchmark::State& state) {
  const df::Graph g = df::compile_expression_or_throw(
      "acc = x0*c0 + x1*c1 + x2*c2 + x3*c3\nout = min(acc, 1000)");
  cgra::Cgra pipe(cgra::CgraShape{
      .fus = 32, .contexts = 16, .primary_inputs = 8});
  const cgra::PipelineSchedule schedule =
      cgra::map_graph_pipelined(g, pipe);
  std::vector<std::vector<std::pair<std::string, Word>>> samples;
  for (int s = 0; s < 64; ++s) {
    samples.push_back({{"x0", s}, {"x1", s + 1}, {"x2", s + 2},
                       {"x3", s + 3}, {"c0", 1}, {"c1", 2}, {"c2", 3},
                       {"c3", 4}});
  }
  for (auto _ : state) {
    auto results = cgra::run_stream(pipe, schedule, samples);
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(samples.size()));
}
BENCHMARK(bm_cgra_stream);

void bm_omega_permutation(benchmark::State& state) {
  using namespace mpct::interconnect;
  OmegaNetwork omega(static_cast<int>(state.range(0)));
  std::vector<PortId> shift(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < shift.size(); ++i) {
    shift[i] = static_cast<PortId>((i + 1) % shift.size());
  }
  for (auto _ : state) {
    int routed = omega.route_permutation(shift);
    benchmark::DoNotOptimize(routed);
  }
}
BENCHMARK(bm_omega_permutation)->Arg(16)->Arg(64)->Arg(256);

void bm_energy_estimate(benchmark::State& state) {
  cost::ActivityCounts activity;
  activity.instructions = 100000;
  activity.memory_accesses = 20000;
  activity.interconnect_hops = 5000;
  for (auto _ : state) {
    auto e = cost::estimate_energy(activity);
    benchmark::DoNotOptimize(e);
  }
}
BENCHMARK(bm_energy_estimate);

}  // namespace

int main(int argc, char** argv) {
  print_placement_ablation();
  print_parameter_sensitivity();
  print_family_routability();
  print_energy_comparison();
  print_pipelining_ablation();
  mpct::bench::apply_csv_flag(&argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
