// The eBPF instruction set, as defined by the Linux kernel
// (Documentation/bpf/instruction-set.rst) and originally described in
// "Linux Socket Filtering aka Berkeley Packet Filter".
//
// An eBPF program is an array of fixed-size 64-bit instructions operating on
// eleven 64-bit registers (r0..r10, r10 = read-only frame pointer) and a
// 512-byte stack. We reproduce the encoding bit-for-bit so that programs in
// this repository could in principle be fed to a real kernel.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace srv6bpf::ebpf {

// ---- Instruction classes (low 3 bits of opcode) ----------------------------
inline constexpr std::uint8_t BPF_LD = 0x00;    // load (64-bit immediate)
inline constexpr std::uint8_t BPF_LDX = 0x01;   // load from memory
inline constexpr std::uint8_t BPF_ST = 0x02;    // store immediate to memory
inline constexpr std::uint8_t BPF_STX = 0x03;   // store register to memory
inline constexpr std::uint8_t BPF_ALU = 0x04;   // 32-bit arithmetic
inline constexpr std::uint8_t BPF_JMP = 0x05;   // 64-bit jumps
inline constexpr std::uint8_t BPF_JMP32 = 0x06; // 32-bit jumps
inline constexpr std::uint8_t BPF_ALU64 = 0x07; // 64-bit arithmetic

// ---- Size field for LD/LDX/ST/STX (bits 3-4) --------------------------------
inline constexpr std::uint8_t BPF_W = 0x00;   // 4 bytes
inline constexpr std::uint8_t BPF_H = 0x08;   // 2 bytes
inline constexpr std::uint8_t BPF_B = 0x10;   // 1 byte
inline constexpr std::uint8_t BPF_DW = 0x18;  // 8 bytes

// ---- Mode field for LD/LDX/ST/STX (bits 5-7) --------------------------------
inline constexpr std::uint8_t BPF_IMM = 0x00;   // 64-bit immediate (LD|DW only)
inline constexpr std::uint8_t BPF_MEM = 0x60;   // regular load/store

// ---- ALU / ALU64 operations (bits 4-7) --------------------------------------
inline constexpr std::uint8_t BPF_ADD = 0x00;
inline constexpr std::uint8_t BPF_SUB = 0x10;
inline constexpr std::uint8_t BPF_MUL = 0x20;
inline constexpr std::uint8_t BPF_DIV = 0x30;
inline constexpr std::uint8_t BPF_OR = 0x40;
inline constexpr std::uint8_t BPF_AND = 0x50;
inline constexpr std::uint8_t BPF_LSH = 0x60;
inline constexpr std::uint8_t BPF_RSH = 0x70;
inline constexpr std::uint8_t BPF_NEG = 0x80;
inline constexpr std::uint8_t BPF_MOD = 0x90;
inline constexpr std::uint8_t BPF_XOR = 0xa0;
inline constexpr std::uint8_t BPF_MOV = 0xb0;
inline constexpr std::uint8_t BPF_ARSH = 0xc0;
inline constexpr std::uint8_t BPF_END = 0xd0;  // byte-swap

// Source operand flag (bit 3): K = 32-bit immediate, X = register.
inline constexpr std::uint8_t BPF_K = 0x00;
inline constexpr std::uint8_t BPF_X = 0x08;

// BPF_END directions (stored in the source bit).
inline constexpr std::uint8_t BPF_TO_LE = 0x00;
inline constexpr std::uint8_t BPF_TO_BE = 0x08;

// ---- JMP operations (bits 4-7) ----------------------------------------------
inline constexpr std::uint8_t BPF_JA = 0x00;
inline constexpr std::uint8_t BPF_JEQ = 0x10;
inline constexpr std::uint8_t BPF_JGT = 0x20;
inline constexpr std::uint8_t BPF_JGE = 0x30;
inline constexpr std::uint8_t BPF_JSET = 0x40;
inline constexpr std::uint8_t BPF_JNE = 0x50;
inline constexpr std::uint8_t BPF_JSGT = 0x60;
inline constexpr std::uint8_t BPF_JSGE = 0x70;
inline constexpr std::uint8_t BPF_CALL = 0x80;
inline constexpr std::uint8_t BPF_EXIT = 0x90;
inline constexpr std::uint8_t BPF_JLT = 0xa0;
inline constexpr std::uint8_t BPF_JLE = 0xb0;
inline constexpr std::uint8_t BPF_JSLT = 0xc0;
inline constexpr std::uint8_t BPF_JSLE = 0xd0;

// ---- Registers ---------------------------------------------------------------
inline constexpr int kNumRegs = 11;
inline constexpr int R0 = 0;   // return value / scratch
inline constexpr int R1 = 1;   // arg1 (context on entry)
inline constexpr int R2 = 2;   // arg2
inline constexpr int R3 = 3;   // arg3
inline constexpr int R4 = 4;   // arg4
inline constexpr int R5 = 5;   // arg5
inline constexpr int R6 = 6;   // callee-saved
inline constexpr int R7 = 7;   // callee-saved
inline constexpr int R8 = 8;   // callee-saved
inline constexpr int R9 = 9;   // callee-saved
inline constexpr int R10 = 10; // frame pointer (read-only)

inline constexpr int kStackSize = 512;      // bytes, like the kernel
inline constexpr int kMaxInsns = 4096;      // classic kernel program limit

// Pseudo source-register value marking a LD_IMM64 as a map reference: the
// immediate carries a map id instead of a literal (mirrors BPF_PSEUDO_MAP_FD).
inline constexpr std::uint8_t BPF_PSEUDO_MAP_FD = 1;

// One 64-bit eBPF instruction. LD_IMM64 occupies two slots; the second slot
// has opcode 0 and carries the upper 32 immediate bits.
struct Insn {
  std::uint8_t opcode = 0;
  std::uint8_t dst : 4 = 0;  // 4 bits, as in the kernel wire format
  std::uint8_t src : 4 = 0;
  std::int16_t off = 0;
  std::int32_t imm = 0;

  constexpr std::uint8_t insn_class() const noexcept { return opcode & 0x07; }
  constexpr std::uint8_t alu_op() const noexcept { return opcode & 0xf0; }
  constexpr std::uint8_t size_field() const noexcept { return opcode & 0x18; }
  constexpr std::uint8_t mode_field() const noexcept { return opcode & 0xe0; }
  constexpr bool uses_reg_src() const noexcept { return opcode & BPF_X; }

  constexpr bool is_ld_imm64() const noexcept {
    return opcode == (BPF_LD | BPF_DW | BPF_IMM);
  }
  constexpr bool is_call() const noexcept {
    return opcode == (BPF_JMP | BPF_CALL);
  }
  constexpr bool is_exit() const noexcept {
    return opcode == (BPF_JMP | BPF_EXIT);
  }
  constexpr bool is_jump() const noexcept {
    const auto c = insn_class();
    return (c == BPF_JMP || c == BPF_JMP32) && !is_call() && !is_exit();
  }
  constexpr bool is_unconditional_jump() const noexcept {
    return opcode == (BPF_JMP | BPF_JA);
  }

  friend constexpr bool operator==(const Insn&, const Insn&) = default;
};

static_assert(sizeof(Insn) == 8, "eBPF instructions are 64 bits");

// Sign-extend a 32-bit wire immediate to the 64-bit value eBPF semantics
// prescribe for ALU64, JMP and ST operands.
constexpr std::uint64_t sext_imm64(std::int32_t imm) noexcept {
  return static_cast<std::uint64_t>(static_cast<std::int64_t>(imm));
}

// eBPF's ALU arithmetic, the one definition: `dst op src` for `op` from
// BPF_ADD to BPF_ARSH (BPF_NEG ignores `src`), 64-bit for ALU64 (`is64`).
// ALU truncates both operands to 32 bits and zero-extends its result.
// Division by 0 yields 0 and modulo by 0 keeps dst, as in the kernel; shift
// counts are masked to the operand width. The interpreter runs it and the
// verifier folds constants with it; the JIT emits its own machine code and
// is checked against it by the differential tests.
constexpr std::uint64_t alu(std::uint8_t op, bool is64, std::uint64_t dst,
                            std::uint64_t src) noexcept {
  const std::uint64_t mask = is64 ? ~std::uint64_t{0} : 0xffffffffu;
  const std::uint64_t a = dst & mask, b = src & mask;
  const unsigned shift = static_cast<unsigned>(b & (is64 ? 63 : 31));
  std::uint64_t r = 0;
  switch (op) {
    case BPF_ADD: r = a + b; break;
    case BPF_SUB: r = a - b; break;
    case BPF_MUL: r = a * b; break;
    case BPF_DIV: r = b ? a / b : 0; break;
    case BPF_OR: r = a | b; break;
    case BPF_AND: r = a & b; break;
    case BPF_LSH: r = a << shift; break;
    case BPF_RSH: r = a >> shift; break;
    case BPF_NEG: r = 0 - a; break;
    case BPF_MOD: r = b ? a % b : a; break;
    case BPF_XOR: r = a ^ b; break;
    case BPF_MOV: r = b; break;
    case BPF_ARSH:  // sign bit of the operand width
      r = static_cast<std::uint64_t>(
          (is64 ? static_cast<std::int64_t>(a)
                : static_cast<std::int32_t>(static_cast<std::uint32_t>(a))) >>
          shift);
      break;
  }
  return r & mask;
}

// The value an ld_imm64 pair (`lo`, then its second slot `hi`) loads. A map
// reference carries the registry id as its runtime value; a literal joins
// the two 32-bit immediates.
constexpr std::uint64_t ld_imm64_value(const Insn& lo,
                                       const Insn& hi) noexcept {
  if (lo.src == BPF_PSEUDO_MAP_FD) return static_cast<std::uint32_t>(lo.imm);
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(hi.imm))
          << 32) |
         static_cast<std::uint32_t>(lo.imm);
}

// Byte width of a memory access instruction.
constexpr int access_size(std::uint8_t size_field) noexcept {
  switch (size_field) {
    case BPF_W: return 4;
    case BPF_H: return 2;
    case BPF_B: return 1;
    case BPF_DW: return 8;
  }
  return 0;
}

// Program return codes shared by LWT and seg6local BPF programs
// (include/uapi/linux/bpf.h enum bpf_ret_code).
inline constexpr std::uint64_t BPF_OK = 0;
inline constexpr std::uint64_t BPF_DROP = 2;
inline constexpr std::uint64_t BPF_REDIRECT = 7;

// Human-readable disassembly of one instruction (best effort, for debugging
// and verifier error messages).
std::string disasm(const Insn& insn);

// Disassemble a whole program, one instruction per line with indices. An
// ld_imm64 pair takes one line, with its full 64-bit immediate.
std::string disasm(const std::vector<Insn>& prog);

}  // namespace srv6bpf::ebpf
