#include "cbpf/translate.h"

#include <cstddef>
#include <string>

#include "ebpf/asm.h"
#include "ebpf/helpers.h"
#include "ebpf/skb.h"

namespace srv6bpf::cbpf {

namespace {

namespace e = srv6bpf::ebpf;

// Stack layout of the translated frame (fp-relative byte offsets).
constexpr std::int16_t kScratchOff = -72;  // bpf_skb_load_bytes target
constexpr std::int16_t mem_off(std::uint32_t k) {
  return static_cast<std::int16_t>(-64 + 4 * static_cast<int>(k));
}

// Direct packet loads encode the offset in the 16-bit off field; anything
// beyond that (or runtime-computed) goes through the helper.
constexpr std::uint32_t kDirectAbsLimit = 0x7fff;

// Label of the shared drop epilogue, where a failed packet load and a
// division by X == 0 jump (classic semantics: the filter returns 0). A
// classic instruction that a jump targets is labelled with its pc.
constexpr char kDrop[] = "drop";

// Bounds-checked direct load of `size` bytes at constant offset k into
// `dst`, in network order. Clobbers R1-R3. (cBPF and eBPF encode the W, H
// and B size fields alike.)
void emit_abs_load(e::Asm& a, std::uint32_t k, std::uint16_t size_field,
                   int dst) {
  const unsigned size = load_size(size_field);
  a.ldx(e::BPF_DW, e::R1, e::R6, e::skb_off::kData)
      .ldx(e::BPF_DW, e::R2, e::R6, e::skb_off::kDataEnd)
      .mov64_reg(e::R3, e::R1)
      .add64_imm(e::R3, static_cast<std::int32_t>(k + size))
      .jgt_reg(e::R3, e::R2, kDrop)  // data + k + size > data_end
      .ldx(static_cast<std::uint8_t>(size_field), dst, e::R1,
           static_cast<std::int16_t>(k));
  if (size > 1) a.to_be(dst, static_cast<int>(8 * size));
}

// Helper-based load for runtime-computed offsets (IND) and constant offsets
// too large for the 16-bit off field. `x_plus_k` selects X+k vs k as the
// offset. Clobbers R1-R5 (the call does), loads into `dst`.
void emit_helper_load(e::Asm& a, std::uint32_t k, std::uint16_t size_field,
                      int dst, bool x_plus_k) {
  const unsigned size = load_size(size_field);
  a.mov64_reg(e::R1, e::R6);
  if (x_plus_k) {
    a.mov32_reg(e::R2, e::R8);
    if (k != 0) a.add32_imm(e::R2, static_cast<std::int32_t>(k));
  } else {
    a.mov32_imm(e::R2, static_cast<std::int32_t>(k));
  }
  a.mov64_reg(e::R3, e::R10)
      .add64_imm(e::R3, kScratchOff)
      .mov32_imm(e::R4, static_cast<std::int32_t>(size))
      .call(e::helper::SKB_LOAD_BYTES)
      .jne_imm(e::R0, 0, kDrop)  // the load failed
      .ldx(static_cast<std::uint8_t>(size_field), dst, e::R10, kScratchOff);
  if (size > 1) a.to_be(dst, static_cast<int>(8 * size));
}

void emit_pkt_load(e::Asm& a, std::uint32_t k, std::uint16_t size_field,
                   int dst, bool x_plus_k) {
  // In 64 bits: for k near 2^32, k + size wraps in 32.
  const std::uint64_t end = std::uint64_t{k} + load_size(size_field);
  if (!x_plus_k && end <= kDirectAbsLimit)
    emit_abs_load(a, k, size_field, dst);
  else
    emit_helper_load(a, k, size_field, dst, x_plus_k);
}

}  // namespace

TranslateResult translate(const std::vector<SockFilter>& prog) {
  TranslateResult res;
  CheckResult chk = check(prog);
  if (!chk.ok) {
    res.error = "classic check failed at insn " +
                std::to_string(chk.error_insn) + ": " + chk.error;
    return res;
  }
  const std::uint32_t len = static_cast<std::uint32_t>(prog.size());

  // Classic programs may contain dead code (the kernel tolerates it; our
  // eBPF verifier rejects unreachable instructions), so translate only the
  // reachable subset. Jumps are forward-only: one ascending pass suffices.
  std::vector<bool> reach(len, false);
  reach[0] = true;
  for (std::uint32_t pc = 0; pc < len; ++pc) {
    if (!reach[pc]) continue;
    const SockFilter& in = prog[pc];
    if (in.insn_class() == BPF_RET) continue;
    if (in.insn_class() == BPF_JMP) {
      if (in.code == (BPF_JMP | BPF_JA)) {
        reach[pc + 1 + in.k] = true;
      } else {
        reach[pc + 1 + in.jt] = true;
        reach[pc + 1 + in.jf] = true;
      }
      continue;
    }
    reach[pc + 1] = true;
  }

  e::Asm a;

  // Prologue: save ctx, zero A and X (classic semantics), and zero every
  // scratch slot the program reads so the verifier's no-read-before-write
  // stack rule is satisfied and semantics match the zero-initialised M[] of
  // the reference interpreter.
  a.mov64_reg(e::R6, e::R1).mov32_imm(e::R7, 0).mov32_imm(e::R8, 0);
  bool mem_read[kMemWords] = {};
  for (std::uint32_t pc = 0; pc < len; ++pc) {
    if (!reach[pc]) continue;
    const SockFilter& in = prog[pc];
    if ((in.insn_class() == BPF_LD || in.insn_class() == BPF_LDX) &&
        in.mode_field() == BPF_MEM)
      mem_read[in.k] = true;
  }
  for (int m = 0; m < kMemWords; ++m)
    if (mem_read[m]) a.st(e::BPF_W, e::R10, mem_off(m), 0);

  bool drops = false;  // whether anything jumps to the drop epilogue
  // Being forward, a jump is emitted before its target, which takes its
  // label when the loop reaches it: only jump targets are labelled.
  std::vector<bool> jumped_to(len, false);
  const auto label_of = [&jumped_to](std::uint32_t target) {
    jumped_to[target] = true;
    return std::to_string(target);
  };
  for (std::uint32_t pc = 0; pc < len; ++pc) {
    if (!reach[pc]) continue;
    if (jumped_to[pc]) a.label(std::to_string(pc));
    const SockFilter& in = prog[pc];
    switch (in.insn_class()) {
      case BPF_LD:
        switch (in.mode_field()) {
          case BPF_IMM:
            a.mov32_imm(e::R7, static_cast<std::int32_t>(in.k));
            break;
          case BPF_MEM:
            a.ldx(e::BPF_W, e::R7, e::R10, mem_off(in.k));
            break;
          case BPF_LEN:
            a.ldx(e::BPF_W, e::R7, e::R6, e::skb_off::kLen);
            break;
          case BPF_ABS:
          case BPF_IND:
            emit_pkt_load(a, in.k, in.size_field(), e::R7,
                          in.mode_field() == BPF_IND);
            drops = true;
            break;
        }
        break;
      case BPF_LDX:
        switch (in.mode_field()) {
          case BPF_IMM:
            a.mov32_imm(e::R8, static_cast<std::int32_t>(in.k));
            break;
          case BPF_MEM:
            a.ldx(e::BPF_W, e::R8, e::R10, mem_off(in.k));
            break;
          case BPF_LEN:
            a.ldx(e::BPF_W, e::R8, e::R6, e::skb_off::kLen);
            break;
          case BPF_MSH:
            // X = 4 * (pkt[k] & 0xf) — the IP header-length idiom.
            emit_pkt_load(a, in.k, BPF_B, e::R8, false);
            drops = true;
            a.and32_imm(e::R8, 0xf).lsh32_imm(e::R8, 2);
            break;
        }
        break;
      case BPF_ST:
        a.stx(e::BPF_W, e::R10, e::R7, mem_off(in.k));
        break;
      case BPF_STX:
        a.stx(e::BPF_W, e::R10, e::R8, mem_off(in.k));
        break;
      case BPF_ALU: {
        // cBPF and eBPF share the ALU opcode numbering; 32-bit class gives
        // the unsigned-32 semantics classic filters expect (including the
        // 5-bit shift mask). NEG takes no operand.
        const std::uint8_t op = static_cast<std::uint8_t>(in.alu_op());
        if (op == BPF_NEG) {
          a.alu32_imm(op, e::R7, 0);
        } else if (in.uses_x()) {
          if (op == BPF_DIV || op == BPF_MOD) {
            // Classic division by zero returns 0 from the filter; eBPF's
            // div-by-zero yields 0 / leaves dst — guard explicitly.
            a.jmp32_imm(e::BPF_JEQ, e::R8, 0, kDrop);
            drops = true;
          }
          a.alu32_reg(op, e::R7, e::R8);
        } else {
          a.alu32_imm(op, e::R7, static_cast<std::int32_t>(in.k));
        }
        break;
      }
      case BPF_JMP: {
        if (in.code == (BPF_JMP | BPF_JA)) {
          a.ja(label_of(pc + 1 + in.k));
          break;
        }
        const std::uint32_t t_true = pc + 1 + in.jt;
        const std::uint32_t t_false = pc + 1 + in.jf;
        if (in.jt == in.jf) {
          a.ja(label_of(t_true));
          break;
        }
        // Classic compares map 1:1 onto eBPF JMP32 opcodes (same numbering
        // for JEQ/JGT/JGE/JSET); JEQ/JGT/JGE have inverses, JSET does not.
        const std::uint8_t op = static_cast<std::uint8_t>(in.jmp_op());
        std::uint8_t inv = 0;
        switch (op) {
          case e::BPF_JEQ: inv = e::BPF_JNE; break;
          case e::BPF_JGT: inv = e::BPF_JLE; break;
          case e::BPF_JGE: inv = e::BPF_JLT; break;
        }
        const auto emit_cond = [&](std::uint8_t cond, std::uint32_t target) {
          if (in.uses_x())
            a.jmp32_reg(cond, e::R7, e::R8, label_of(target));
          else
            a.jmp32_imm(cond, e::R7, static_cast<std::int32_t>(in.k),
                        label_of(target));
        };
        if (in.jf == 0) {
          emit_cond(op, t_true);
        } else if (in.jt == 0 && inv != 0) {
          emit_cond(inv, t_false);
        } else {
          emit_cond(op, t_true);
          a.ja(label_of(t_false));
        }
        break;
      }
      case BPF_RET:
        if (in.code & BPF_A)
          a.mov32_reg(e::R0, e::R7);
        else
          a.mov32_imm(e::R0, static_cast<std::int32_t>(in.k));
        a.exit_();
        break;
      case BPF_MISC:
        if (in.code & BPF_TXA)
          a.mov32_reg(e::R7, e::R8);
        else
          a.mov32_reg(e::R8, e::R7);
        break;
    }
  }

  // Shared drop epilogue, only if something jumps to it.
  if (drops) a.label(kDrop).mov32_imm(e::R0, 0).exit_();

  if (a.size() > static_cast<std::size_t>(e::kMaxInsns)) {
    res.error = "translated program exceeds eBPF instruction limit";
    return res;
  }
  res.ok = true;
  res.insns = a.build();
  return res;
}

}  // namespace srv6bpf::cbpf
