#include "ebpf/decode.h"

#include <stdexcept>
#include <string>

namespace srv6bpf::ebpf {
namespace {

[[noreturn]] void bad(std::size_t idx, const std::string& what) {
  throw std::logic_error("decode: insn " + std::to_string(idx) + ": " + what);
}

std::uint16_t alu_kind(std::uint8_t op, bool is64, bool reg_src) {
  struct Row { std::uint16_t r64, i64, r32, i32; };
  auto row = [&]() -> Row {
    switch (op) {
      case BPF_ADD: return {kAdd64R, kAdd64I, kAdd32R, kAdd32I};
      case BPF_SUB: return {kSub64R, kSub64I, kSub32R, kSub32I};
      case BPF_MUL: return {kMul64R, kMul64I, kMul32R, kMul32I};
      case BPF_DIV: return {kDiv64R, kDiv64I, kDiv32R, kDiv32I};
      case BPF_MOD: return {kMod64R, kMod64I, kMod32R, kMod32I};
      case BPF_OR: return {kOr64R, kOr64I, kOr32R, kOr32I};
      case BPF_AND: return {kAnd64R, kAnd64I, kAnd32R, kAnd32I};
      case BPF_XOR: return {kXor64R, kXor64I, kXor32R, kXor32I};
      case BPF_MOV: return {kMov64R, kMov64I, kMov32R, kMov32I};
      case BPF_LSH: return {kLsh64R, kLsh64I, kLsh32R, kLsh32I};
      case BPF_RSH: return {kRsh64R, kRsh64I, kRsh32R, kRsh32I};
      case BPF_ARSH: return {kArsh64R, kArsh64I, kArsh32R, kArsh32I};
    }
    throw std::logic_error("decode: bad ALU op");
  }();
  if (is64) return reg_src ? row.r64 : row.i64;
  return reg_src ? row.r32 : row.i32;
}

std::uint16_t jmp_kind(std::uint8_t op, bool is32, bool reg_src) {
  struct Row { std::uint16_t r, i, r32, i32; };
  auto row = [&]() -> Row {
    switch (op) {
      case BPF_JEQ: return {kJeqR, kJeqI, kJeq32R, kJeq32I};
      case BPF_JNE: return {kJneR, kJneI, kJne32R, kJne32I};
      case BPF_JGT: return {kJgtR, kJgtI, kJgt32R, kJgt32I};
      case BPF_JGE: return {kJgeR, kJgeI, kJge32R, kJge32I};
      case BPF_JLT: return {kJltR, kJltI, kJlt32R, kJlt32I};
      case BPF_JLE: return {kJleR, kJleI, kJle32R, kJle32I};
      case BPF_JSET: return {kJsetR, kJsetI, kJset32R, kJset32I};
      case BPF_JSGT: return {kJsgtR, kJsgtI, kJsgt32R, kJsgt32I};
      case BPF_JSGE: return {kJsgeR, kJsgeI, kJsge32R, kJsge32I};
      case BPF_JSLT: return {kJsltR, kJsltI, kJslt32R, kJslt32I};
      case BPF_JSLE: return {kJsleR, kJsleI, kJsle32R, kJsle32I};
    }
    throw std::logic_error("decode: bad JMP op");
  }();
  if (is32) return reg_src ? row.r32 : row.i32;
  return reg_src ? row.r : row.i;
}

}  // namespace

DecodedProgram decode_program(const std::vector<Insn>& insns,
                              const HelperRegistry* helpers) {
  const std::size_t n = insns.size();
  if (n == 0) throw std::logic_error("decode: empty program");

  // Pass 1: slot classification + insn index -> op index (ld_imm64 fuses
  // 2 slots into 1 op).
  std::vector<bool> is_aux(n, false);
  std::vector<std::int32_t> op_index(n + 1, -1);
  {
    std::int32_t next = 0;
    for (std::size_t i = 0; i < n; ++i) {
      op_index[i] = next++;
      if (insns[i].is_ld_imm64()) {
        if (i + 1 >= n) bad(i, "ld_imm64 missing second slot");
        is_aux[i + 1] = true;
        ++i;
      }
    }
    op_index[n] = next;
  }

  DecodedProgram out;
  out.ops_.reserve(op_index[n]);

  for (std::size_t i = 0; i < n; ++i) {
    const Insn& insn = insns[i];
    DecodedInsn op;
    op.dst = insn.dst;
    op.src = insn.src;
    op.off = insn.off;
    op.imm = insn.imm;
    if (insn.dst >= kNumRegs) bad(i, "destination register out of range");

    const std::uint8_t cls = insn.insn_class();
    const bool falls_through =
        !insn.is_exit() && !insn.is_unconditional_jump();
    switch (cls) {
      case BPF_ALU64:
      case BPF_ALU: {
        const std::uint8_t aop = insn.alu_op();
        if (insn.uses_reg_src() && aop != BPF_END && insn.src >= kNumRegs)
          bad(i, "source register out of range");
        if (aop == BPF_NEG) {
          // Linux rejects BPF_NEG with the source bit set (BPF_X); there is
          // no register operand to a negation.
          if (insn.uses_reg_src()) bad(i, "BPF_NEG with register source");
          op.kind = cls == BPF_ALU64 ? kNeg64 : kNeg32;
        } else if (aop == BPF_END) {
          const bool be = insn.uses_reg_src();
          if (insn.imm != 16 && insn.imm != 32 && insn.imm != 64)
            bad(i, "bad byteswap width");
          op.kind = insn.imm == 16   ? (be ? kBe16 : kLe16)
                    : insn.imm == 32 ? (be ? kBe32 : kLe32)
                                     : (be ? kBe64 : kLe64);
        } else {
          op.kind = alu_kind(aop, cls == BPF_ALU64, insn.uses_reg_src());
          if (!insn.uses_reg_src())
            op.imm64 = cls == BPF_ALU64
                           ? sext_imm64(insn.imm)
                           : static_cast<std::uint32_t>(insn.imm);
        }
        break;
      }
      case BPF_LD: {
        if (!insn.is_ld_imm64()) bad(i, "unsupported BPF_LD mode");
        op.kind = kLdImm64;
        if (insn.src == BPF_PSEUDO_MAP_FD) {
          // Map references carry the registry id as their runtime value.
          op.imm64 = static_cast<std::uint32_t>(insn.imm);
        } else {
          op.imm64 = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                          insns[i + 1].imm))
                      << 32) |
                     static_cast<std::uint32_t>(insn.imm);
        }
        ++i;  // skip aux slot
        break;
      }
      case BPF_LDX: {
        if (insn.src >= kNumRegs) bad(i, "source register out of range");
        switch (access_size(insn.size_field())) {
          case 1: op.kind = kLd1; break;
          case 2: op.kind = kLd2; break;
          case 4: op.kind = kLd4; break;
          case 8: op.kind = kLd8; break;
          default: bad(i, "bad load size");
        }
        break;
      }
      case BPF_STX:
      case BPF_ST: {
        const bool reg = cls == BPF_STX;
        if (reg && insn.src >= kNumRegs)
          bad(i, "source register out of range");
        switch (access_size(insn.size_field())) {
          case 1: op.kind = reg ? kSt1R : kSt1I; break;
          case 2: op.kind = reg ? kSt2R : kSt2I; break;
          case 4: op.kind = reg ? kSt4R : kSt4I; break;
          case 8: op.kind = reg ? kSt8R : kSt8I; break;
          default: bad(i, "bad store size");
        }
        break;
      }
      case BPF_JMP:
      case BPF_JMP32: {
        if (insn.is_exit()) {
          op.kind = kExit;
          break;
        }
        if (insn.is_call()) {
          op.kind = kCall;
          if (helpers == nullptr ||
              (op.fn = helpers->fn(insn.imm)) == nullptr)
            bad(i, "unresolved helper " + std::to_string(insn.imm));
          break;
        }
        const std::int64_t t64 =
            static_cast<std::int64_t>(i) + 1 + insn.off;
        if (t64 < 0 || t64 >= static_cast<std::int64_t>(n))
          bad(i, "jump target out of program bounds");
        const auto t = static_cast<std::size_t>(t64);
        if (is_aux[t]) bad(i, "jump into the middle of ld_imm64");
        op.target = op_index[t];
        if (insn.is_unconditional_jump()) {
          op.kind = kJa;
        } else {
          if (insn.uses_reg_src() && insn.src >= kNumRegs)
            bad(i, "source register out of range");
          op.kind =
              jmp_kind(insn.alu_op(), cls == BPF_JMP32, insn.uses_reg_src());
          if (!insn.uses_reg_src()) op.imm64 = sext_imm64(insn.imm);
        }
        break;
      }
      default:
        bad(i, "bad instruction class");
    }
    // Fetch safety: the engines never bounds-check the decoded pc, so no op
    // may fall through (or conditionally fall through) past the end. (`i`
    // already points at the aux slot for a fused ld_imm64.)
    if (falls_through && i + 1 >= n)
      bad(i, "control flow falls off the end of the program");
    out.ops_.push_back(op);
  }
  return out;
}

}  // namespace srv6bpf::ebpf
