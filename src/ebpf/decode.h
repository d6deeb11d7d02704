// Pre-decoded program representation shared by both execution engines.
//
// At load time (after verification) the raw Insn stream is translated once
// into a dense DecodedInsn array:
//   * operand kinds (reg vs. immediate, width) are folded into the op kind;
//   * immediates are sign- or zero-extended into a materialised imm64;
//   * register indices are validated once, never again at run time;
//   * ld_imm64 pairs are fused into a single op;
//   * helper calls are resolved to direct HelperFn pointers;
//   * jump offsets are rewritten as absolute decoded-pc targets.
//
// The native JIT (ebpf/jit_x86.h) compiles this form to unchecked machine
// code, trusting the verifier; the interpreter (ebpf/interp.h) runs the same form with runtime
// memory bounds checks and an amortised step budget. This mirrors the Linux
// kernel split between the eBPF JIT output and the ___bpf_prog_run
// computed-goto core: both consume a decode-once representation.
//
// Only the engines read this form; listings print the raw stream instead
// (disasm in ebpf/insn.h).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ebpf/helpers.h"
#include "ebpf/insn.h"
#include "ebpf/program.h"

namespace srv6bpf::ebpf {

// Every decoded op kind. The X-macro keeps the enum, the interpreter's
// computed-goto label table and the JIT's switch in lockstep: all three are
// generated from this single list, in this order.
//
// Naming: <op><width><operand>, R = register source, I = immediate folded
// into imm64 at decode time.
#define SRV6BPF_OPKIND_LIST(X)                                               \
  /* 64-bit ALU, register source */                                         \
  X(kAdd64R) X(kSub64R) X(kMul64R) X(kDiv64R) X(kMod64R) X(kOr64R)          \
  X(kAnd64R) X(kXor64R) X(kMov64R) X(kLsh64R) X(kRsh64R) X(kArsh64R)        \
  /* 64-bit ALU, immediate */                                               \
  X(kAdd64I) X(kSub64I) X(kMul64I) X(kDiv64I) X(kMod64I) X(kOr64I)          \
  X(kAnd64I) X(kXor64I) X(kMov64I) X(kLsh64I) X(kRsh64I) X(kArsh64I)        \
  X(kNeg64)                                                                 \
  /* 32-bit ALU, register source */                                         \
  X(kAdd32R) X(kSub32R) X(kMul32R) X(kDiv32R) X(kMod32R) X(kOr32R)          \
  X(kAnd32R) X(kXor32R) X(kMov32R) X(kLsh32R) X(kRsh32R) X(kArsh32R)        \
  /* 32-bit ALU, immediate */                                               \
  X(kAdd32I) X(kSub32I) X(kMul32I) X(kDiv32I) X(kMod32I) X(kOr32I)          \
  X(kAnd32I) X(kXor32I) X(kMov32I) X(kLsh32I) X(kRsh32I) X(kArsh32I)        \
  X(kNeg32)                                                                 \
  /* Byte swaps */                                                          \
  X(kBe16) X(kBe32) X(kBe64) X(kLe16) X(kLe32) X(kLe64)                     \
  /* Memory */                                                              \
  X(kLd1) X(kLd2) X(kLd4) X(kLd8)                                           \
  X(kSt1R) X(kSt2R) X(kSt4R) X(kSt8R)                                       \
  X(kSt1I) X(kSt2I) X(kSt4I) X(kSt8I)                                       \
  /* 64-bit immediate / map pointer (fused ld_imm64 pair) */                \
  X(kLdImm64)                                                               \
  /* Jumps (R = register comparand, I = materialised immediate) */          \
  X(kJa)                                                                    \
  X(kJeqR) X(kJneR) X(kJgtR) X(kJgeR) X(kJltR) X(kJleR) X(kJsetR)           \
  X(kJsgtR) X(kJsgeR) X(kJsltR) X(kJsleR)                                   \
  X(kJeqI) X(kJneI) X(kJgtI) X(kJgeI) X(kJltI) X(kJleI) X(kJsetI)           \
  X(kJsgtI) X(kJsgeI) X(kJsltI) X(kJsleI)                                   \
  X(kJeq32R) X(kJne32R) X(kJgt32R) X(kJge32R) X(kJlt32R) X(kJle32R)         \
  X(kJset32R) X(kJsgt32R) X(kJsge32R) X(kJslt32R) X(kJsle32R)               \
  X(kJeq32I) X(kJne32I) X(kJgt32I) X(kJge32I) X(kJlt32I) X(kJle32I)         \
  X(kJset32I) X(kJsgt32I) X(kJsge32I) X(kJslt32I) X(kJsle32I)               \
  /* Calls and exit */                                                      \
  X(kCall) X(kExit)

enum OpKind : std::uint16_t {
#define SRV6BPF_OPKIND_ENUM(name) name,
  SRV6BPF_OPKIND_LIST(SRV6BPF_OPKIND_ENUM)
#undef SRV6BPF_OPKIND_ENUM
  kNumOpKinds
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

// A decode-once program. Immutable after construction; shared (via
// CompiledProgram) between the threaded interpreter and the JIT engine.
class DecodedProgram {
 public:
  const DecodedInsn* data() const noexcept { return ops_.data(); }
  std::size_t size() const noexcept { return ops_.size(); }
  const std::vector<DecodedInsn>& ops() const noexcept { return ops_; }

 private:
  friend std::shared_ptr<const DecodedProgram> decode_program(
      const std::vector<Insn>&, const HelperRegistry*);
  std::vector<DecodedInsn> ops_;
};

// Translates a raw instruction stream. Performs the structural validation
// both engines rely on (register ranges, jump targets inside the program and
// not into ld_imm64 pairs, no fall-through past the end, resolvable helpers)
// and throws std::logic_error on violation. Programs that passed the
// verifier always decode; the checks exist so that a decoded program is
// *fetch-safe* even if handed an unverified stream (memory safety of the
// program's own loads/stores is then the interpreter's runtime checks or the
// verifier's proof, as before).
std::shared_ptr<const DecodedProgram> decode_program(
    const std::vector<Insn>& insns, const HelperRegistry* helpers);

inline std::shared_ptr<const DecodedProgram> decode_program(
    const Program& prog, const HelperRegistry* helpers) {
  return decode_program(prog.insns(), helpers);
}

}  // namespace srv6bpf::ebpf
