#include "sim/spatial/netlist.hpp"

#include <algorithm>
#include <map>

#include "core/indexed_name.hpp"
#include "sim/memory.hpp"

namespace mpct::sim::spatial {

std::string_view to_string(GateOp op) {
  switch (op) {
    case GateOp::Input:
      return "input";
    case GateOp::Zero:
      return "zero";
    case GateOp::One:
      return "one";
    case GateOp::Not:
      return "not";
    case GateOp::And:
      return "and";
    case GateOp::Or:
      return "or";
    case GateOp::Xor:
      return "xor";
    case GateOp::Mux:
      return "mux";
    case GateOp::Dff:
      return "dff";
    case GateOp::Output:
      return "output";
  }
  return "?";
}

int gate_arity(GateOp op) {
  switch (op) {
    case GateOp::Input:
    case GateOp::Zero:
    case GateOp::One:
      return 0;
    case GateOp::Not:
    case GateOp::Dff:
    case GateOp::Output:
      return 1;
    case GateOp::And:
    case GateOp::Or:
    case GateOp::Xor:
      return 2;
    case GateOp::Mux:
      return 3;
  }
  return 0;
}

GateId Netlist::append(Gate gate) {
  gates_.push_back(std::move(gate));
  return static_cast<GateId>(gates_.size() - 1);
}

GateId Netlist::add_input(std::string name) {
  Gate gate;
  gate.op = GateOp::Input;
  gate.name = std::move(name);
  const GateId id = append(std::move(gate));
  inputs_.push_back(id);
  return id;
}

GateId Netlist::add_const(bool value) {
  Gate gate;
  gate.op = value ? GateOp::One : GateOp::Zero;
  return append(std::move(gate));
}

GateId Netlist::add_not(GateId a) {
  Gate gate;
  gate.op = GateOp::Not;
  gate.inputs = {a};
  return append(std::move(gate));
}

GateId Netlist::add_and(GateId a, GateId b) {
  Gate gate;
  gate.op = GateOp::And;
  gate.inputs = {a, b};
  return append(std::move(gate));
}

GateId Netlist::add_or(GateId a, GateId b) {
  Gate gate;
  gate.op = GateOp::Or;
  gate.inputs = {a, b};
  return append(std::move(gate));
}

GateId Netlist::add_xor(GateId a, GateId b) {
  Gate gate;
  gate.op = GateOp::Xor;
  gate.inputs = {a, b};
  return append(std::move(gate));
}

GateId Netlist::add_mux(GateId sel, GateId if_true, GateId if_false) {
  Gate gate;
  gate.op = GateOp::Mux;
  gate.inputs = {sel, if_true, if_false};
  return append(std::move(gate));
}

GateId Netlist::add_dff() {
  Gate gate;
  gate.op = GateOp::Dff;
  return append(std::move(gate));
}

void Netlist::connect_dff(GateId dff, GateId d) {
  Gate& gate = gates_.at(static_cast<std::size_t>(dff));
  if (gate.op != GateOp::Dff) {
    throw SimError("connect_dff: gate is not a DFF");
  }
  gate.inputs = {d};
}

GateId Netlist::add_output(std::string name, GateId source) {
  Gate gate;
  gate.op = GateOp::Output;
  gate.name = std::move(name);
  gate.inputs = {source};
  const GateId id = append(std::move(gate));
  outputs_.push_back(id);
  return id;
}

int Netlist::dff_count() const {
  return static_cast<int>(
      std::count_if(gates_.begin(), gates_.end(), [](const Gate& g) {
        return g.op == GateOp::Dff;
      }));
}

std::vector<std::string> Netlist::validate() const {
  std::vector<std::string> problems;
  const int n = gate_count();
  for (GateId id = 0; id < n; ++id) {
    const Gate& gate = gates_[static_cast<std::size_t>(id)];
    if (static_cast<int>(gate.inputs.size()) != gate_arity(gate.op)) {
      problems.push_back("gate " + std::to_string(id) + " (" +
                         std::string(to_string(gate.op)) + ") has " +
                         std::to_string(gate.inputs.size()) +
                         " operands, expected " +
                         std::to_string(gate_arity(gate.op)) +
                         (gate.op == GateOp::Dff ? " (unconnected DFF?)"
                                                 : ""));
    }
    for (GateId producer : gate.inputs) {
      if (producer < 0 || producer >= n) {
        problems.push_back("gate " + std::to_string(id) +
                           " references missing gate " +
                           std::to_string(producer));
      }
    }
  }
  if (!problems.empty()) return problems;

  // Combinational cycle check: DFF outputs break the cycle (their value
  // is state, not a combinational function of this cycle's inputs).
  std::vector<int> indegree(static_cast<std::size_t>(n), 0);
  std::vector<std::vector<GateId>> consumers(static_cast<std::size_t>(n));
  for (GateId id = 0; id < n; ++id) {
    if (gates_[static_cast<std::size_t>(id)].op == GateOp::Dff) continue;
    for (GateId producer : gates_[static_cast<std::size_t>(id)].inputs) {
      consumers[static_cast<std::size_t>(producer)].push_back(id);
      ++indegree[static_cast<std::size_t>(id)];
    }
  }
  // DFF *inputs* still need evaluation order, but a DFF never blocks its
  // consumers, so seed the frontier with every gate whose combinational
  // inputs are satisfied (indegree 0 counts DFFs immediately).
  std::vector<GateId> frontier;
  int visited = 0;
  for (GateId id = 0; id < n; ++id) {
    if (indegree[static_cast<std::size_t>(id)] == 0) frontier.push_back(id);
  }
  while (!frontier.empty()) {
    const GateId id = frontier.back();
    frontier.pop_back();
    ++visited;
    for (GateId consumer : consumers[static_cast<std::size_t>(id)]) {
      if (--indegree[static_cast<std::size_t>(consumer)] == 0) {
        frontier.push_back(consumer);
      }
    }
  }
  if (visited != n) {
    problems.push_back("combinational cycle (not broken by a DFF)");
  }
  return problems;
}

std::vector<std::vector<bool>> Netlist::simulate(
    const std::vector<std::vector<std::pair<std::string, bool>>>& stimulus)
    const {
  const std::vector<std::string> problems = validate();
  if (!problems.empty()) {
    throw SimError("netlist invalid: " + problems.front());
  }
  const int n = gate_count();

  // Topological order over combinational edges (DFF outputs are sources).
  std::vector<int> indegree(static_cast<std::size_t>(n), 0);
  std::vector<std::vector<GateId>> consumers(static_cast<std::size_t>(n));
  for (GateId id = 0; id < n; ++id) {
    if (gates_[static_cast<std::size_t>(id)].op == GateOp::Dff) continue;
    for (GateId producer : gates_[static_cast<std::size_t>(id)].inputs) {
      consumers[static_cast<std::size_t>(producer)].push_back(id);
      ++indegree[static_cast<std::size_t>(id)];
    }
  }
  std::vector<GateId> order;
  order.reserve(static_cast<std::size_t>(n));
  {
    std::vector<GateId> frontier;
    for (GateId id = 0; id < n; ++id) {
      if (indegree[static_cast<std::size_t>(id)] == 0) {
        frontier.push_back(id);
      }
    }
    while (!frontier.empty()) {
      const GateId id = frontier.back();
      frontier.pop_back();
      order.push_back(id);
      for (GateId consumer : consumers[static_cast<std::size_t>(id)]) {
        if (--indegree[static_cast<std::size_t>(consumer)] == 0) {
          frontier.push_back(consumer);
        }
      }
    }
  }

  std::vector<bool> value(static_cast<std::size_t>(n), false);
  std::vector<bool> state(static_cast<std::size_t>(n), false);  // DFFs
  std::vector<std::vector<bool>> results;

  for (const auto& cycle_inputs : stimulus) {
    const std::map<std::string, bool> bound(cycle_inputs.begin(),
                                            cycle_inputs.end());
    for (GateId id : order) {
      const Gate& gate = gates_[static_cast<std::size_t>(id)];
      const auto in = [&](int index) -> bool {
        return value[static_cast<std::size_t>(
            gate.inputs[static_cast<std::size_t>(index)])];
      };
      switch (gate.op) {
        case GateOp::Input: {
          const auto it = bound.find(gate.name);
          if (it == bound.end()) {
            throw SimError("netlist: missing input '" + gate.name + "'");
          }
          value[static_cast<std::size_t>(id)] = it->second;
          break;
        }
        case GateOp::Zero:
          value[static_cast<std::size_t>(id)] = false;
          break;
        case GateOp::One:
          value[static_cast<std::size_t>(id)] = true;
          break;
        case GateOp::Not:
          value[static_cast<std::size_t>(id)] = !in(0);
          break;
        case GateOp::And:
          value[static_cast<std::size_t>(id)] = in(0) && in(1);
          break;
        case GateOp::Or:
          value[static_cast<std::size_t>(id)] = in(0) || in(1);
          break;
        case GateOp::Xor:
          value[static_cast<std::size_t>(id)] = in(0) != in(1);
          break;
        case GateOp::Mux:
          value[static_cast<std::size_t>(id)] = in(0) ? in(1) : in(2);
          break;
        case GateOp::Dff:
          value[static_cast<std::size_t>(id)] =
              state[static_cast<std::size_t>(id)];
          break;
        case GateOp::Output:
          value[static_cast<std::size_t>(id)] = in(0);
          break;
      }
    }
    // Latch DFFs on the clock edge.
    for (GateId id = 0; id < n; ++id) {
      const Gate& gate = gates_[static_cast<std::size_t>(id)];
      if (gate.op == GateOp::Dff) {
        state[static_cast<std::size_t>(id)] =
            value[static_cast<std::size_t>(gate.inputs[0])];
      }
    }
    std::vector<bool> outputs;
    outputs.reserve(outputs_.size());
    for (GateId id : outputs_) {
      outputs.push_back(value[static_cast<std::size_t>(id)]);
    }
    results.push_back(std::move(outputs));
  }
  return results;
}

Netlist build_ripple_adder(int bits) {
  Netlist nl;
  std::vector<GateId> a, b;
  for (int i = 0; i < bits; ++i) {
    a.push_back(nl.add_input(indexed_name("a", i)));
  }
  for (int i = 0; i < bits; ++i) {
    b.push_back(nl.add_input(indexed_name("b", i)));
  }
  GateId carry = nl.add_input("cin");
  for (int i = 0; i < bits; ++i) {
    const GateId axb = nl.add_xor(a[static_cast<std::size_t>(i)],
                                  b[static_cast<std::size_t>(i)]);
    const GateId sum = nl.add_xor(axb, carry);
    const GateId and1 = nl.add_and(a[static_cast<std::size_t>(i)],
                                   b[static_cast<std::size_t>(i)]);
    const GateId and2 = nl.add_and(axb, carry);
    carry = nl.add_or(and1, and2);
    nl.add_output(indexed_name("s", i), sum);
  }
  nl.add_output("cout", carry);
  return nl;
}

Netlist build_counter(int bits) {
  Netlist nl;
  const GateId en = nl.add_input("en");
  std::vector<GateId> q;
  for (int i = 0; i < bits; ++i) q.push_back(nl.add_dff());
  // Increment: toggle bit i when en and all lower bits are 1.
  GateId carry = en;
  for (int i = 0; i < bits; ++i) {
    const GateId next = nl.add_xor(q[static_cast<std::size_t>(i)], carry);
    carry = nl.add_and(carry, q[static_cast<std::size_t>(i)]);
    nl.connect_dff(q[static_cast<std::size_t>(i)], next);
    nl.add_output(indexed_name("q", i), q[static_cast<std::size_t>(i)]);
  }
  return nl;
}

Netlist build_sequence_detector() {
  // Moore FSM over states {idle, saw1}; output hit = in && state_saw1.
  Netlist nl;
  const GateId in = nl.add_input("in");
  const GateId saw1 = nl.add_dff();
  nl.connect_dff(saw1, in);  // next state: remembered last input bit
  const GateId hit = nl.add_and(in, saw1);
  nl.add_output("hit", hit);
  return nl;
}

}  // namespace mpct::sim::spatial
