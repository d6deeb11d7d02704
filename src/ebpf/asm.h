// A typed in-C++ eBPF assembler.
//
// The paper's network functions were written in C and compiled with the LLVM
// BPF backend; since this repository is self-contained we provide an
// assembler with symbolic labels instead. Programs read naturally:
//
//   Asm a;
//   a.mov64_reg(R6, R1)                       // save ctx
//    .call(helper::KTIME_GET_NS)
//    .stx(BPF_DW, R10, R0, -8)                // spill timestamp
//    .mov32_imm(R0, BPF_OK)
//    .exit_();
//   std::vector<Insn> prog = a.build();
//
// build() resolves forward/backward label references, in 64-bit and JMP32
// jumps alike, into relative offsets and fails loudly on undefined or
// duplicate labels. The classic-BPF translator (cbpf/translate.cc) emits
// through it too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "ebpf/insn.h"

namespace srv6bpf::ebpf {

class Asm {
 public:
  // Room for a typical program (the translated filters run to ~200
  // instructions), so emitting one rarely reallocates.
  Asm() {
    insns_.reserve(256);
    labels_.reserve(32);
    fixups_.reserve(64);
  }

  // ---- ALU64 ----------------------------------------------------------------
  Asm& mov64_reg(int dst, int src) { return alu64_reg(BPF_MOV, dst, src); }
  Asm& mov64_imm(int dst, std::int32_t imm) { return alu64_imm(BPF_MOV, dst, imm); }
  Asm& add64_reg(int dst, int src) { return alu64_reg(BPF_ADD, dst, src); }
  Asm& add64_imm(int dst, std::int32_t imm) { return alu64_imm(BPF_ADD, dst, imm); }
  Asm& sub64_reg(int dst, int src) { return alu64_reg(BPF_SUB, dst, src); }
  Asm& sub64_imm(int dst, std::int32_t imm) { return alu64_imm(BPF_SUB, dst, imm); }
  Asm& mul64_imm(int dst, std::int32_t imm) { return alu64_imm(BPF_MUL, dst, imm); }
  Asm& mul64_reg(int dst, int src) { return alu64_reg(BPF_MUL, dst, src); }
  Asm& div64_imm(int dst, std::int32_t imm) { return alu64_imm(BPF_DIV, dst, imm); }
  Asm& mod64_imm(int dst, std::int32_t imm) { return alu64_imm(BPF_MOD, dst, imm); }
  Asm& mod64_reg(int dst, int src) { return alu64_reg(BPF_MOD, dst, src); }
  Asm& and64_imm(int dst, std::int32_t imm) { return alu64_imm(BPF_AND, dst, imm); }
  Asm& and64_reg(int dst, int src) { return alu64_reg(BPF_AND, dst, src); }
  Asm& or64_imm(int dst, std::int32_t imm) { return alu64_imm(BPF_OR, dst, imm); }
  Asm& or64_reg(int dst, int src) { return alu64_reg(BPF_OR, dst, src); }
  Asm& xor64_reg(int dst, int src) { return alu64_reg(BPF_XOR, dst, src); }
  Asm& xor64_imm(int dst, std::int32_t imm) { return alu64_imm(BPF_XOR, dst, imm); }
  Asm& lsh64_imm(int dst, std::int32_t imm) { return alu64_imm(BPF_LSH, dst, imm); }
  Asm& lsh64_reg(int dst, int src) { return alu64_reg(BPF_LSH, dst, src); }
  Asm& rsh64_imm(int dst, std::int32_t imm) { return alu64_imm(BPF_RSH, dst, imm); }
  Asm& rsh64_reg(int dst, int src) { return alu64_reg(BPF_RSH, dst, src); }
  Asm& arsh64_imm(int dst, std::int32_t imm) { return alu64_imm(BPF_ARSH, dst, imm); }
  Asm& neg64(int dst) { return emit({BPF_ALU64 | BPF_NEG, u4(dst), 0, 0, 0}); }

  // ---- ALU32 (upper 32 bits of dst are zeroed, like the kernel) -------------
  Asm& alu32_reg(std::uint8_t op, int dst, int src) {
    return emit({static_cast<std::uint8_t>(BPF_ALU | op | BPF_X), u4(dst),
                 u4(src), 0, 0});
  }
  Asm& alu32_imm(std::uint8_t op, int dst, std::int32_t imm) {
    return emit({static_cast<std::uint8_t>(BPF_ALU | op | BPF_K), u4(dst), 0,
                 0, imm});
  }
  Asm& mov32_reg(int dst, int src) { return alu32_reg(BPF_MOV, dst, src); }
  Asm& mov32_imm(int dst, std::int32_t imm) { return alu32_imm(BPF_MOV, dst, imm); }
  Asm& add32_imm(int dst, std::int32_t imm) { return alu32_imm(BPF_ADD, dst, imm); }
  Asm& add32_reg(int dst, int src) { return alu32_reg(BPF_ADD, dst, src); }
  Asm& sub32_imm(int dst, std::int32_t imm) { return alu32_imm(BPF_SUB, dst, imm); }
  Asm& mul32_imm(int dst, std::int32_t imm) { return alu32_imm(BPF_MUL, dst, imm); }
  Asm& div32_imm(int dst, std::int32_t imm) { return alu32_imm(BPF_DIV, dst, imm); }
  Asm& and32_imm(int dst, std::int32_t imm) { return alu32_imm(BPF_AND, dst, imm); }
  Asm& or32_imm(int dst, std::int32_t imm) { return alu32_imm(BPF_OR, dst, imm); }
  Asm& lsh32_imm(int dst, std::int32_t imm) { return alu32_imm(BPF_LSH, dst, imm); }
  Asm& rsh32_imm(int dst, std::int32_t imm) { return alu32_imm(BPF_RSH, dst, imm); }

  // ---- Byte swaps ------------------------------------------------------------
  // to_be16/32/64: convert dst between host and big-endian (BPF_END | TO_BE).
  Asm& to_be(int dst, int bits) {
    return emit({static_cast<std::uint8_t>(BPF_ALU | BPF_END | BPF_TO_BE),
                 u4(dst), 0, 0, bits});
  }
  Asm& to_le(int dst, int bits) {
    return emit({static_cast<std::uint8_t>(BPF_ALU | BPF_END | BPF_TO_LE),
                 u4(dst), 0, 0, bits});
  }

  // ---- Memory ---------------------------------------------------------------
  // ldx(size, dst, src, off): dst = *(size*)(src + off)
  Asm& ldx(std::uint8_t size, int dst, int src, std::int16_t off) {
    return emit({static_cast<std::uint8_t>(BPF_LDX | size | BPF_MEM), u4(dst),
                 u4(src), off, 0});
  }
  // stx(size, dst, src, off): *(size*)(dst + off) = src
  Asm& stx(std::uint8_t size, int dst, int src, std::int16_t off) {
    return emit({static_cast<std::uint8_t>(BPF_STX | size | BPF_MEM), u4(dst),
                 u4(src), off, 0});
  }
  // st(size, dst, off, imm): *(size*)(dst + off) = imm
  Asm& st(std::uint8_t size, int dst, std::int16_t off, std::int32_t imm) {
    return emit({static_cast<std::uint8_t>(BPF_ST | size | BPF_MEM), u4(dst),
                 0, off, imm});
  }

  // ---- 64-bit immediates & map references ------------------------------------
  Asm& ld_imm64(int dst, std::uint64_t imm);
  // Loads a map reference (verifier type CONST_MAP_PTR). `map_id` is the id
  // assigned by MapRegistry.
  Asm& ld_map(int dst, std::uint32_t map_id);

  // ---- Control flow -----------------------------------------------------------
  Asm& label(const std::string& name);
  Asm& ja(const std::string& target) {
    return jump(BPF_JMP | BPF_JA, 0, 0, 0, target);
  }
  // 64-bit conditional jumps against register / immediate.
  Asm& jeq_imm(int dst, std::int32_t imm, const std::string& t) { return jmp_imm(BPF_JEQ, dst, imm, t); }
  Asm& jne_imm(int dst, std::int32_t imm, const std::string& t) { return jmp_imm(BPF_JNE, dst, imm, t); }
  Asm& jgt_imm(int dst, std::int32_t imm, const std::string& t) { return jmp_imm(BPF_JGT, dst, imm, t); }
  Asm& jge_imm(int dst, std::int32_t imm, const std::string& t) { return jmp_imm(BPF_JGE, dst, imm, t); }
  Asm& jlt_imm(int dst, std::int32_t imm, const std::string& t) { return jmp_imm(BPF_JLT, dst, imm, t); }
  Asm& jle_imm(int dst, std::int32_t imm, const std::string& t) { return jmp_imm(BPF_JLE, dst, imm, t); }
  Asm& jsgt_imm(int dst, std::int32_t imm, const std::string& t) { return jmp_imm(BPF_JSGT, dst, imm, t); }
  Asm& jset_imm(int dst, std::int32_t imm, const std::string& t) { return jmp_imm(BPF_JSET, dst, imm, t); }
  Asm& jeq_reg(int dst, int src, const std::string& t) { return jmp_reg(BPF_JEQ, dst, src, t); }
  Asm& jne_reg(int dst, int src, const std::string& t) { return jmp_reg(BPF_JNE, dst, src, t); }
  Asm& jgt_reg(int dst, int src, const std::string& t) { return jmp_reg(BPF_JGT, dst, src, t); }
  Asm& jge_reg(int dst, int src, const std::string& t) { return jmp_reg(BPF_JGE, dst, src, t); }
  Asm& jlt_reg(int dst, int src, const std::string& t) { return jmp_reg(BPF_JLT, dst, src, t); }
  Asm& jle_reg(int dst, int src, const std::string& t) { return jmp_reg(BPF_JLE, dst, src, t); }
  // Conditional jumps by op (BPF_JEQ ... BPF_JSLE): jmp_* compares all 64
  // bits, jmp32_* (BPF_JMP32) the low 32 bits of both operands.
  Asm& jmp_imm(std::uint8_t op, int dst, std::int32_t imm, const std::string& t) {
    return jump(BPF_JMP | op | BPF_K, dst, 0, imm, t);
  }
  Asm& jmp_reg(std::uint8_t op, int dst, int src, const std::string& t) {
    return jump(BPF_JMP | op | BPF_X, dst, src, 0, t);
  }
  Asm& jmp32_imm(std::uint8_t op, int dst, std::int32_t imm, const std::string& t) {
    return jump(BPF_JMP32 | op | BPF_K, dst, 0, imm, t);
  }
  Asm& jmp32_reg(std::uint8_t op, int dst, int src, const std::string& t) {
    return jump(BPF_JMP32 | op | BPF_X, dst, src, 0, t);
  }

  Asm& call(std::int32_t helper_id) {
    return emit({BPF_JMP | BPF_CALL, 0, 0, 0, helper_id});
  }
  Asm& exit_() { return emit({BPF_JMP | BPF_EXIT, 0, 0, 0, 0}); }

  // Raw escape hatch (used by the verifier test corpus to craft invalid
  // encodings on purpose).
  Asm& raw(Insn insn) { return emit(insn); }

  // Number of instruction slots emitted so far.
  std::size_t size() const noexcept { return insns_.size(); }

  // Resolve labels and return the finished program.
  // Throws std::runtime_error on undefined labels or out-of-range offsets.
  std::vector<Insn> build() const;

 private:
  Asm& alu64_reg(std::uint8_t op, int dst, int src) {
    return emit({static_cast<std::uint8_t>(BPF_ALU64 | op | BPF_X), u4(dst),
                 u4(src), 0, 0});
  }
  Asm& alu64_imm(std::uint8_t op, int dst, std::int32_t imm) {
    return emit({static_cast<std::uint8_t>(BPF_ALU64 | op | BPF_K), u4(dst), 0,
                 0, imm});
  }
  // Emits a jump whose offset build() resolves to `target`.
  Asm& jump(std::uint8_t opcode, int dst, int src, std::int32_t imm,
            const std::string& target);
  Asm& emit(Insn insn) {
    insns_.push_back(insn);
    return *this;
  }
  // Lets a handful of invalid register numbers through, so the verifier
  // test corpus can exercise the "unknown register" rejection, but catches
  // obvious typos.
  static std::uint8_t u4(int reg) {
    if (reg < 0 || reg >= kNumRegs + 5) bad_register(reg);
    return static_cast<std::uint8_t>(reg);
  }
  [[noreturn]] static void bad_register(int reg);

  // Labels by name, each resolved to an index into labels_ once: label()
  // and every jump look their name up there (a linear search; a program
  // has tens of labels), adding it on first sight, and a fix-up keeps the
  // index.
  struct Label {
    std::string name;
    std::ptrdiff_t at = -1;  // insn index; -1 until label() places it
  };
  struct Fixup {
    std::size_t insn_index;
    std::size_t label;
  };
  std::size_t label_index(const std::string& name);

  std::vector<Insn> insns_;
  std::vector<Label> labels_;
  std::vector<Fixup> fixups_;
};

}  // namespace srv6bpf::ebpf
