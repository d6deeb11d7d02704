// Decoded program representation: the native JIT's front end.
//
// At load time (after verification) the raw Insn stream is translated once
// into a dense DecodedInsn array:
//   * operand kinds (reg vs. immediate, width) are folded into the op kind;
//   * immediates are sign- or zero-extended into a materialised imm64;
//   * register indices are validated once;
//   * ld_imm64 pairs are fused into a single op;
//   * helper calls are resolved to direct HelperFn pointers;
//   * jump offsets are rewritten as absolute decoded-pc targets.
//
// The native JIT (ebpf/jit_x86.h) compiles this form to unchecked machine
// code, trusting the verifier, as the kernel's JIT translates a verified
// program once at load. BpfSystem::load drops the decoded form after
// compiling it; the interpreter (ebpf/interp.h) runs the raw stream, as the
// kernel's ___bpf_prog_run does.
//
// Only the JIT reads this form; listings print the raw stream instead
// (disasm in ebpf/insn.h).
#pragma once

#include <cstdint>
#include <vector>

#include "ebpf/helpers.h"
#include "ebpf/insn.h"

namespace srv6bpf::ebpf {

// Every decoded op kind. Naming: <op><width><operand>, R = register
// source, I = immediate folded into imm64 at decode time.
enum OpKind : std::uint16_t {
  // 64-bit ALU, register source
  kAdd64R, kSub64R, kMul64R, kDiv64R, kMod64R, kOr64R,
  kAnd64R, kXor64R, kMov64R, kLsh64R, kRsh64R, kArsh64R,
  // 64-bit ALU, immediate
  kAdd64I, kSub64I, kMul64I, kDiv64I, kMod64I, kOr64I,
  kAnd64I, kXor64I, kMov64I, kLsh64I, kRsh64I, kArsh64I,
  kNeg64,
  // 32-bit ALU, register source
  kAdd32R, kSub32R, kMul32R, kDiv32R, kMod32R, kOr32R,
  kAnd32R, kXor32R, kMov32R, kLsh32R, kRsh32R, kArsh32R,
  // 32-bit ALU, immediate
  kAdd32I, kSub32I, kMul32I, kDiv32I, kMod32I, kOr32I,
  kAnd32I, kXor32I, kMov32I, kLsh32I, kRsh32I, kArsh32I,
  kNeg32,
  // Byte swaps
  kBe16, kBe32, kBe64, kLe16, kLe32, kLe64,
  // Memory
  kLd1, kLd2, kLd4, kLd8,
  kSt1R, kSt2R, kSt4R, kSt8R,
  kSt1I, kSt2I, kSt4I, kSt8I,
  // 64-bit immediate / map pointer (fused ld_imm64 pair)
  kLdImm64,
  // Jumps (R = register comparand, I = materialised immediate)
  kJa,
  kJeqR, kJneR, kJgtR, kJgeR, kJltR, kJleR, kJsetR,
  kJsgtR, kJsgeR, kJsltR, kJsleR,
  kJeqI, kJneI, kJgtI, kJgeI, kJltI, kJleI, kJsetI,
  kJsgtI, kJsgeI, kJsltI, kJsleI,
  kJeq32R, kJne32R, kJgt32R, kJge32R, kJlt32R, kJle32R,
  kJset32R, kJsgt32R, kJsge32R, kJslt32R, kJsle32R,
  kJeq32I, kJne32I, kJgt32I, kJge32I, kJlt32I, kJle32I,
  kJset32I, kJsgt32I, kJsge32I, kJslt32I, kJsle32I,
  // Calls and exit
  kCall, kExit,
};

// One decoded op. Jumps carry absolute op indices in `target`; ALU/JMP
// immediates are pre-extended into imm64 (64-bit ops sign-extend, 32-bit ops
// zero-extend after truncation, exactly the kernel semantics).
struct DecodedInsn {
  std::uint16_t kind = 0;
  std::uint8_t dst = 0;
  std::uint8_t src = 0;
  std::int16_t off = 0;
  std::int32_t imm = 0;
  std::int32_t target = 0;       // absolute successor for taken jumps
  std::uint64_t imm64 = 0;       // materialised 64-bit immediate
  const HelperFn* fn = nullptr;  // resolved helper for calls
};

// A decode-once program: BpfSystem::load decodes a verified program and
// hands the result to compile_native (ebpf/jit_x86.h).
class DecodedProgram {
 public:
  const DecodedInsn* data() const noexcept { return ops_.data(); }
  std::size_t size() const noexcept { return ops_.size(); }
  const std::vector<DecodedInsn>& ops() const noexcept { return ops_; }

 private:
  friend DecodedProgram decode_program(const std::vector<Insn>&,
                                       const HelperRegistry*);
  std::vector<DecodedInsn> ops_;
};

// Translates a raw instruction stream. Performs the structural validation
// the JIT relies on (register ranges, jump targets inside the program and
// not into ld_imm64 pairs, no fall-through past the end, resolvable helpers)
// and throws std::logic_error on violation. Programs that passed the
// verifier always decode; the checks exist so that a decoded program is
// *fetch-safe* even if handed an unverified stream (memory safety of the
// program's own loads/stores is then the verifier's proof).
DecodedProgram decode_program(const std::vector<Insn>& insns,
                              const HelperRegistry* helpers);

}  // namespace srv6bpf::ebpf
