#include "ebpf/asm.h"

#include <sstream>
#include <stdexcept>

namespace srv6bpf::ebpf {

void Asm::bad_register(int reg) {
  throw std::invalid_argument("eBPF register out of range: " +
                              std::to_string(reg));
}

Asm& Asm::ld_imm64(int dst, std::uint64_t imm) {
  emit({BPF_LD | BPF_DW | BPF_IMM, u4(dst), 0, 0,
        static_cast<std::int32_t>(imm & 0xffffffffu)});
  emit({0, 0, 0, 0, static_cast<std::int32_t>(imm >> 32)});
  return *this;
}

Asm& Asm::ld_map(int dst, std::uint32_t map_id) {
  emit({BPF_LD | BPF_DW | BPF_IMM, u4(dst), BPF_PSEUDO_MAP_FD, 0,
        static_cast<std::int32_t>(map_id)});
  emit({0, 0, 0, 0, 0});
  return *this;
}

std::size_t Asm::label_index(const std::string& name) {
  for (std::size_t i = 0; i < labels_.size(); ++i)
    if (labels_[i].name == name) return i;
  labels_.push_back({name});
  return labels_.size() - 1;
}

Asm& Asm::label(const std::string& name) {
  Label& l = labels_[label_index(name)];
  if (l.at >= 0) throw std::runtime_error("duplicate label: " + name);
  l.at = static_cast<std::ptrdiff_t>(insns_.size());
  return *this;
}

Asm& Asm::jump(std::uint8_t opcode, int dst, int src, std::int32_t imm,
               const std::string& target) {
  fixups_.push_back({insns_.size(), label_index(target)});
  return emit({opcode, u4(dst), u4(src), 0, imm});
}

std::vector<Insn> Asm::build() const {
  std::vector<Insn> out = insns_;
  for (const Fixup& f : fixups_) {
    const Label& l = labels_[f.label];
    if (l.at < 0) throw std::runtime_error("undefined label: " + l.name);
    // Relative offset from the *next* instruction, as in the kernel.
    const std::ptrdiff_t rel =
        l.at - static_cast<std::ptrdiff_t>(f.insn_index) - 1;
    if (rel < INT16_MIN || rel > INT16_MAX)
      throw std::runtime_error("jump offset out of int16 range to label: " +
                               l.name);
    out[f.insn_index].off = static_cast<std::int16_t>(rel);
  }
  return out;
}

// ---- Disassembler ------------------------------------------------------------

namespace {

const char* alu_name(std::uint8_t op) {
  switch (op) {
    case BPF_ADD: return "add";
    case BPF_SUB: return "sub";
    case BPF_MUL: return "mul";
    case BPF_DIV: return "div";
    case BPF_OR: return "or";
    case BPF_AND: return "and";
    case BPF_LSH: return "lsh";
    case BPF_RSH: return "rsh";
    case BPF_NEG: return "neg";
    case BPF_MOD: return "mod";
    case BPF_XOR: return "xor";
    case BPF_MOV: return "mov";
    case BPF_ARSH: return "arsh";
    case BPF_END: return "end";
  }
  return "alu?";
}

const char* jmp_name(std::uint8_t op) {
  switch (op) {
    case BPF_JA: return "ja";
    case BPF_JEQ: return "jeq";
    case BPF_JGT: return "jgt";
    case BPF_JGE: return "jge";
    case BPF_JSET: return "jset";
    case BPF_JNE: return "jne";
    case BPF_JSGT: return "jsgt";
    case BPF_JSGE: return "jsge";
    case BPF_JLT: return "jlt";
    case BPF_JLE: return "jle";
    case BPF_JSLT: return "jslt";
    case BPF_JSLE: return "jsle";
  }
  return "jmp?";
}

const char* size_name(std::uint8_t size) {
  switch (size) {
    case BPF_W: return "u32";
    case BPF_H: return "u16";
    case BPF_B: return "u8";
    case BPF_DW: return "u64";
  }
  return "u?";
}

}  // namespace

std::string disasm(const Insn& insn) {
  std::ostringstream os;
  const std::uint8_t cls = insn.insn_class();
  switch (cls) {
    case BPF_ALU:
    case BPF_ALU64: {
      const std::uint8_t op = insn.alu_op();
      const char* suffix = cls == BPF_ALU ? "32" : "64";
      if (op == BPF_END) {
        os << (insn.uses_reg_src() ? "be" : "le") << insn.imm << " r"
           << int(insn.dst);
      } else if (op == BPF_NEG) {
        os << "neg" << suffix << " r" << int(insn.dst);
      } else if (insn.uses_reg_src()) {
        os << alu_name(op) << suffix << " r" << int(insn.dst) << ", r"
           << int(insn.src);
      } else {
        os << alu_name(op) << suffix << " r" << int(insn.dst) << ", "
           << insn.imm;
      }
      break;
    }
    case BPF_JMP:
    case BPF_JMP32: {
      const char* off_sign = insn.off >= 0 ? "+" : "";
      if (insn.is_call()) {
        os << "call " << insn.imm;
      } else if (insn.is_exit()) {
        os << "exit";
      } else if (insn.is_unconditional_jump()) {
        os << "ja " << off_sign << insn.off;
      } else {
        os << jmp_name(insn.alu_op()) << (cls == BPF_JMP32 ? "32" : "")
           << " r" << int(insn.dst) << ", ";
        if (insn.uses_reg_src())
          os << "r" << int(insn.src);
        else
          os << insn.imm;
        os << ", " << off_sign << insn.off;
      }
      break;
    }
    case BPF_LDX:
      os << "ldx" << size_name(insn.size_field()) << " r" << int(insn.dst)
         << ", [r" << int(insn.src) << (insn.off >= 0 ? "+" : "") << insn.off
         << "]";
      break;
    case BPF_STX:
      os << "stx" << size_name(insn.size_field()) << " [r" << int(insn.dst)
         << (insn.off >= 0 ? "+" : "") << insn.off << "], r" << int(insn.src);
      break;
    case BPF_ST:
      os << "st" << size_name(insn.size_field()) << " [r" << int(insn.dst)
         << (insn.off >= 0 ? "+" : "") << insn.off << "], " << insn.imm;
      break;
    case BPF_LD:
      if (insn.is_ld_imm64()) {
        if (insn.src == BPF_PSEUDO_MAP_FD)
          os << "ld_map r" << int(insn.dst) << ", map#" << insn.imm;
        else
          os << "ld_imm64 r" << int(insn.dst) << ", lo32=" << insn.imm;
      } else {
        os << "ld? opcode=0x" << std::hex << int(insn.opcode);
      }
      break;
    default:
      os << "?? opcode=0x" << std::hex << int(insn.opcode);
  }
  return os.str();
}

std::string disasm(const std::vector<Insn>& prog) {
  std::ostringstream os;
  for (std::size_t i = 0; i < prog.size(); ++i) {
    const Insn& insn = prog[i];
    os << i << ": ";
    if (insn.is_ld_imm64() && insn.src != BPF_PSEUDO_MAP_FD &&
        i + 1 < prog.size()) {
      // The second slot holds the high half: print the value the pair
      // loads, not only its low word.
      os << "ld_imm64 r" << int(insn.dst) << ", 0x" << std::hex
         << ld_imm64_value(insn, prog[i + 1]) << std::dec;
    } else {
      os << disasm(insn);
    }
    os << "\n";
    if (insn.is_ld_imm64()) ++i;  // skip the second slot
  }
  return os.str();
}

}  // namespace srv6bpf::ebpf
