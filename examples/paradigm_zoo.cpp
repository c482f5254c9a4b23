/// Run the same logical workload — a dot product of two 8-element
/// vectors — on one machine from each branch of the taxonomy, showing
/// how the paradigms differ in organisation while agreeing on the
/// answer:
///
///   IUP    (instruction flow, uni):    sequential loop
///   IAP-II (instruction flow, array):  lanes multiply, log-step shuffle
///                                      reduction
///   IMP-II (instruction flow, multi):  cores multiply, message-passing
///                                      reduction to core 0
///   DMP-IV (data flow, multi):         multiply/add token graph
///   USP    (universal flow):           LUT fabric bit-serial-free demo —
///                                      computes the low bits with a
///                                      mapped adder tree (4-bit slice)
#include <iostream>

#include "core/indexed_name.hpp"
#include "sim/dataflow/token_machine.hpp"
#include "sim/isa/assembler.hpp"
#include "sim/isa/uniprocessor.hpp"
#include "sim/mimd/multiprocessor.hpp"
#include "sim/simd/array_processor.hpp"
#include "sim/spatial/mapper.hpp"

namespace {

using namespace mpct::sim;
using mpct::indexed_name;

constexpr int kN = 8;
constexpr Word kA[kN] = {1, 2, 3, 4, 5, 6, 7, 8};
constexpr Word kB[kN] = {7, 3, 1, 9, 2, 8, 5, 4};

Word reference() {
  Word sum = 0;
  for (int i = 0; i < kN; ++i) sum += kA[i] * kB[i];
  return sum;
}

Word run_iup() {
  // Memory layout: a[0..7] at 0, b[0..7] at 8.
  Uniprocessor cpu(assemble_or_throw(R"(
    ldi r1, 0      ; i
    ldi r2, 8      ; n
    ldi r3, 0      ; sum
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
  cpu.dm().fill(init);
  const RunStats stats = cpu.run();
  std::cout << "  IUP:    result " << stats.output.at(0) << " in "
            << stats.cycles << " cycles\n";
  return stats.output.at(0);
}

Word run_iap() {
  // Each lane holds a[i] at local 0 and b[i] at local 1; lanes multiply
  // in one step, then a 3-stage shuffle tree reduces.
  ArrayProcessor iap(assemble_or_throw(R"(
    ldi r1, 0
    ld r2, r1, 0    ; a[lane]
    ld r3, r1, 1    ; b[lane]
    mul r4, r2, r3
    lane r5
    ; tree reduction: stride 1, 2, 4
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
  }
  const RunStats stats = iap.run();
  // Lane 0 holds the full sum after log2(8) = 3 stages.
  std::cout << "  IAP-II: result " << stats.output.at(0) << " in "
            << stats.cycles << " broadcast cycles ("
            << iap.lanes() << " lanes)\n";
  return stats.output.at(0);
}

Word run_imp() {
  // Every core multiplies its pair and sends the product to core 0,
  // which accumulates — n different-by-id programs via LANE.
  const Program worker = assemble_or_throw(R"(
    ldi r1, 0
    ld r2, r1, 0
    ld r3, r1, 1
    mul r4, r2, r3
    lane r5
    ldi r6, 0
    beq r5, r6, master
    send r4, r6
    halt
master:
    ldi r7, 7      ; messages to receive
    ldi r8, 0
gather:
    beq r7, r8, done
    recv r9
    add r4, r4, r9
    addi r7, r7, -1
    jmp gather
done:
    out r4
    halt
  )");
  MultiprocessorConfig config = MultiprocessorConfig::for_subtype(2);
  config.cores = kN;
  config.bank_words = 8;
  Multiprocessor imp = Multiprocessor::broadcast(worker, config);
  for (int i = 0; i < kN; ++i) {
    imp.bank(i).store(0, kA[i]);
    imp.bank(i).store(1, kB[i]);
  }
  const RunStats stats = imp.run();
  std::cout << "  IMP-II: result " << stats.output.at(0) << " in "
            << stats.cycles << " cycles (" << config.cores << " cores, "
            << "message-passing reduction)\n";
  return stats.output.at(0);
}

Word run_dataflow() {
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
  df::TokenMachine machine(g, df::TokenMachineConfig::for_subtype(4, 4));
  const auto result = machine.run(inputs);
  std::cout << "  DMP-IV: result " << result.outputs.at(0).second << " in "
            << result.stats.cycles << " cycles ("
            << result.stats.instructions << " token firings on 4 PEs)\n";
  return result.outputs.at(0).second;
}

Word run_usp() {
  // The universal fabric demonstrates paradigm freedom rather than
  // width: configure it as a 4-bit adder and add the two low products
  // (1*7 + 2*3 = 13) the same way the data-flow graph's first adder
  // does.
  using namespace mpct::sim::spatial;
  LutFabric fabric(64, 16, 8);
  const Netlist adder = build_ripple_adder(4);
  const MappingReport report = map_netlist(adder, fabric);

  const unsigned p0 = static_cast<unsigned>(kA[0] * kB[0]);  // 7
  const unsigned p1 = static_cast<unsigned>(kA[1] * kB[1]);  // 6
  std::vector<std::pair<std::string, bool>> values;
  for (int i = 0; i < 4; ++i) {
    values.emplace_back(indexed_name("a", i), (p0 >> i) & 1u);
    values.emplace_back(indexed_name("b", i), (p1 >> i) & 1u);
  }
  values.emplace_back("cin", false);
  const auto out =
      fabric.step(pack_inputs(report, fabric.primary_inputs(), values));
  unsigned sum = 0;
  for (int i = 0; i < 4; ++i) {
    if (out[static_cast<std::size_t>(
            report.output_index.at(indexed_name("s", i)))]) {
      sum |= 1u << i;
    }
  }
  if (out[static_cast<std::size_t>(report.output_index.at("cout"))]) {
    sum |= 1u << 4;
  }
  std::cout << "  USP:    partial a0*b0 + a1*b1 = " << sum
            << " on a LUT fabric configured as a 4-bit adder ("
            << report.cells_used << " cells)\n";
  return sum;
}

}  // namespace

int main() {
  std::cout << "dot product of " << kN << "-element vectors across the "
            << "taxonomy's paradigms\n"
            << "reference: " << reference() << "\n\n";
  const Word expected = reference();
  bool all_ok = run_iup() == expected;
  all_ok = (run_iap() == expected) && all_ok;
  all_ok = (run_imp() == expected) && all_ok;
  all_ok = (run_dataflow() == expected) && all_ok;
  const Word partial = run_usp();
  all_ok = (partial == static_cast<Word>(kA[0] * kB[0] + kA[1] * kB[1])) &&
           all_ok;
  std::cout << "\n" << (all_ok ? "all machines agree" : "MISMATCH") << "\n";
  return all_ok ? 0 : 1;
}
