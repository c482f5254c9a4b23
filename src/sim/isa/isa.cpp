#include "sim/isa/isa.hpp"

#include <sstream>

#include "core/indexed_name.hpp"
#include "sim/memory.hpp"

namespace mpct::sim {

namespace {

struct MnemonicEntry {
  Opcode op;
  std::string_view text;
};

constexpr std::array<MnemonicEntry, 26> kMnemonics{{
    {Opcode::Nop, "nop"},   {Opcode::Halt, "halt"}, {Opcode::Ldi, "ldi"},
    {Opcode::Mov, "mov"},   {Opcode::Add, "add"},   {Opcode::Sub, "sub"},
    {Opcode::Mul, "mul"},   {Opcode::Divs, "divs"}, {Opcode::And, "and"},
    {Opcode::Or, "or"},     {Opcode::Xor, "xor"},   {Opcode::Shl, "shl"},
    {Opcode::Shr, "shr"},   {Opcode::Addi, "addi"}, {Opcode::Ld, "ld"},
    {Opcode::St, "st"},     {Opcode::Beq, "beq"},   {Opcode::Bne, "bne"},
    {Opcode::Blt, "blt"},   {Opcode::Jmp, "jmp"},   {Opcode::Lane, "lane"},
    {Opcode::Shuf, "shuf"}, {Opcode::Send, "send"}, {Opcode::Recv, "recv"},
    {Opcode::Out, "out"},   {Opcode::Nop, "nop"},
}};

}  // namespace

std::string_view mnemonic(Opcode op) {
  for (const MnemonicEntry& entry : kMnemonics) {
    if (entry.op == op) return entry.text;
  }
  return "?";
}

std::optional<Opcode> opcode_from_mnemonic(std::string_view text) {
  for (const MnemonicEntry& entry : kMnemonics) {
    if (entry.text == text) return entry.op;
  }
  return std::nullopt;
}

std::string to_string(const Instruction& inst) {
  std::ostringstream os;
  os << mnemonic(inst.op);
  const auto r = [](int index) { return indexed_name("r", index); };
  switch (inst.op) {
    case Opcode::Nop:
    case Opcode::Halt:
      break;
    case Opcode::Ldi:
      os << ' ' << r(inst.rd) << ", " << inst.imm;
      break;
    case Opcode::Mov:
      os << ' ' << r(inst.rd) << ", " << r(inst.ra);
      break;
    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::Mul:
    case Opcode::Divs:
    case Opcode::And:
    case Opcode::Or:
    case Opcode::Xor:
    case Opcode::Shl:
    case Opcode::Shr:
    case Opcode::Shuf:
      os << ' ' << r(inst.rd) << ", " << r(inst.ra) << ", " << r(inst.rb);
      break;
    case Opcode::Addi:
      os << ' ' << r(inst.rd) << ", " << r(inst.ra) << ", " << inst.imm;
      break;
    case Opcode::Ld:
      os << ' ' << r(inst.rd) << ", [" << r(inst.ra) << '+' << inst.imm
         << ']';
      break;
    case Opcode::St:
      os << " [" << r(inst.ra) << '+' << inst.imm << "], " << r(inst.rb);
      break;
    case Opcode::Beq:
    case Opcode::Bne:
    case Opcode::Blt:
      os << ' ' << r(inst.ra) << ", " << r(inst.rb) << ", @" << inst.imm;
      break;
    case Opcode::Jmp:
      os << " @" << inst.imm;
      break;
    case Opcode::Lane:
    case Opcode::Recv:
      os << ' ' << r(inst.rd);
      break;
    case Opcode::Send:
      os << ' ' << r(inst.ra) << ", " << r(inst.rb);
      break;
    case Opcode::Out:
      os << ' ' << r(inst.ra);
      break;
  }
  return os.str();
}

bool is_alu_op(Opcode op) {
  switch (op) {
    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::Mul:
    case Opcode::Divs:
    case Opcode::And:
    case Opcode::Or:
    case Opcode::Xor:
    case Opcode::Shl:
    case Opcode::Shr:
      return true;
    default:
      return false;
  }
}

Word alu(Opcode op, Word a, Word b) {
  switch (op) {
    case Opcode::Add:
      return a + b;
    case Opcode::Sub:
      return a - b;
    case Opcode::Mul:
      return a * b;
    case Opcode::Divs:
      if (b == 0) throw SimError("division by zero");
      return a / b;
    case Opcode::And:
      return a & b;
    case Opcode::Or:
      return a | b;
    case Opcode::Xor:
      return a ^ b;
    case Opcode::Shl:
      return static_cast<Word>(static_cast<std::uint64_t>(a)
                               << (static_cast<std::uint64_t>(b) & 63));
    case Opcode::Shr:
      return static_cast<Word>(static_cast<std::uint64_t>(a) >>
                               (static_cast<std::uint64_t>(b) & 63));
    default:
      throw SimError("alu: not an ALU opcode: " +
                     std::string(mnemonic(op)));
  }
}

}  // namespace mpct::sim
