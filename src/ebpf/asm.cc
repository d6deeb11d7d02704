#include "ebpf/asm.h"

#include <sstream>
#include <stdexcept>

namespace srv6bpf::ebpf {

std::uint8_t Asm::u4(int reg) {
  if (reg < 0 || reg >= kNumRegs + 5) {
    // Allow a handful of invalid register numbers through so the verifier
    // test corpus can exercise the "unknown register" rejection path, but
    // catch obvious programmer typos.
    throw std::invalid_argument("eBPF register out of range: " +
                                std::to_string(reg));
  }
  return static_cast<std::uint8_t>(reg);
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

Asm& Asm::label(const std::string& name) {
  if (!labels_.emplace(name, insns_.size()).second)
    throw std::runtime_error("duplicate label: " + name);
  return *this;
}

Asm& Asm::ja(const std::string& target) {
  fixups_.push_back({insns_.size(), target});
  return emit({BPF_JMP | BPF_JA, 0, 0, 0, 0});
}

Asm& Asm::jmp_imm(std::uint8_t op, int dst, std::int32_t imm,
                  const std::string& target) {
  fixups_.push_back({insns_.size(), target});
  return emit({static_cast<std::uint8_t>(BPF_JMP | op | BPF_K), u4(dst), 0, 0,
               imm});
}

Asm& Asm::jmp_reg(std::uint8_t op, int dst, int src,
                  const std::string& target) {
  fixups_.push_back({insns_.size(), target});
  return emit({static_cast<std::uint8_t>(BPF_JMP | op | BPF_X), u4(dst),
               u4(src), 0, 0});
}

std::vector<Insn> Asm::build() const {
  std::vector<Insn> out = insns_;
  for (const Fixup& f : fixups_) {
    auto it = labels_.find(f.target);
    if (it == labels_.end())
      throw std::runtime_error("undefined label: " + f.target);
    // Relative offset from the *next* instruction, as in the kernel.
    const std::ptrdiff_t rel = static_cast<std::ptrdiff_t>(it->second) -
                               static_cast<std::ptrdiff_t>(f.insn_index) - 1;
    if (rel < INT16_MIN || rel > INT16_MAX)
      throw std::runtime_error("jump offset out of int16 range to label: " +
                               f.target);
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
      const std::uint64_t lo = static_cast<std::uint32_t>(insn.imm);
      const std::uint64_t hi = static_cast<std::uint32_t>(prog[i + 1].imm);
      const std::uint64_t imm = (hi << 32) | lo;
      os << "ld_imm64 r" << int(insn.dst) << ", 0x" << std::hex << imm
         << std::dec;
    } else {
      os << disasm(insn);
    }
    os << "\n";
    if (insn.is_ld_imm64()) ++i;  // skip the second slot
  }
  return os.str();
}

}  // namespace srv6bpf::ebpf
