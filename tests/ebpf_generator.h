// The random eBPF program generators of the differential tests, shared
// with the verifier golden: generate() draws a random-but-verifiable
// program from a seeded Rng (the same seed gives the same program on every
// compiler), and sweep_program() places one instruction live or dead.
#pragma once

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "ebpf/asm.h"
#include "ebpf/helpers.h"
#include "ebpf/insn.h"
#include "util/rng.h"

namespace srv6bpf::ebpf {

// Entries of the array map (4-byte key, 8-byte value) the generated
// programs use.
inline constexpr std::uint32_t kMapEntries = 16;

// Registers the generator uses as general-purpose scalars. All are
// initialised by the preamble so any gadget may read any of them.
inline constexpr int kGpRegs[] = {R0, R1, R2, R3, R4, R5};

// No call takes two random draws as arguments: C++ leaves their order
// unspecified, and the corpus must not depend on the compiler. Named
// locals, or a braced list (evaluated left to right), fix the order: the
// one g++ gave the draws when they were arguments.
struct GenState {
  Asm a;
  Rng& rng;
  std::uint32_t map_id;
  int label_seq = 0;
  // 8-byte-aligned stack slots (fp-8*k) known to hold written data.
  std::vector<std::int16_t> written_slots;

  explicit GenState(Rng& r, std::uint32_t map) : rng(r), map_id(map) {}

  int gp() { return kGpRegs[rng.uniform(0, 5)]; }
  std::int32_t imm() { return static_cast<std::int32_t>(rng.next_u32()); }
  std::string fresh_label(const char* stem) {
    return std::string(stem) + std::to_string(label_seq++);
  }
};

inline void gadget_alu64_imm(GenState& g) {
  static constexpr std::uint8_t kOps[] = {BPF_ADD, BPF_SUB, BPF_MUL, BPF_DIV,
                                          BPF_MOD, BPF_OR,  BPF_AND, BPF_XOR,
                                          BPF_MOV, BPF_LSH, BPF_RSH, BPF_ARSH};
  const std::uint8_t op = kOps[g.rng.uniform(0, std::size(kOps) - 1)];
  std::int32_t imm = g.imm();
  if (op == BPF_LSH || op == BPF_RSH || op == BPF_ARSH) imm &= 63;
  if ((op == BPF_DIV || op == BPF_MOD) && imm == 0) imm = 7;
  g.a.raw({static_cast<std::uint8_t>(BPF_ALU64 | op | BPF_K),
           static_cast<std::uint8_t>(g.gp()), 0, 0, imm});
}

inline void gadget_alu64_reg(GenState& g) {
  static constexpr std::uint8_t kOps[] = {BPF_ADD, BPF_SUB, BPF_MUL, BPF_DIV,
                                          BPF_MOD, BPF_OR,  BPF_AND, BPF_XOR,
                                          BPF_MOV, BPF_LSH, BPF_RSH, BPF_ARSH};
  const std::uint8_t op = kOps[g.rng.uniform(0, std::size(kOps) - 1)];
  g.a.raw({static_cast<std::uint8_t>(BPF_ALU64 | op | BPF_X),
           static_cast<std::uint8_t>(g.gp()),
           static_cast<std::uint8_t>(g.gp()), 0, 0});
}

inline void gadget_alu32(GenState& g) {
  static constexpr std::uint8_t kOps[] = {BPF_ADD, BPF_SUB, BPF_MUL, BPF_DIV,
                                          BPF_MOD, BPF_OR,  BPF_AND, BPF_XOR,
                                          BPF_MOV, BPF_LSH, BPF_RSH, BPF_ARSH};
  const std::uint8_t op = kOps[g.rng.uniform(0, std::size(kOps) - 1)];
  const bool reg_src = g.rng.chance(0.5);
  std::int32_t imm = g.imm();
  if (op == BPF_LSH || op == BPF_RSH || op == BPF_ARSH) imm &= 31;
  if ((op == BPF_DIV || op == BPF_MOD) && imm == 0) imm = 7;
  if (reg_src)
    g.a.raw({static_cast<std::uint8_t>(BPF_ALU | op | BPF_X),
             static_cast<std::uint8_t>(g.gp()),
             static_cast<std::uint8_t>(g.gp()), 0, 0});
  else
    g.a.raw({static_cast<std::uint8_t>(BPF_ALU | op | BPF_K),
             static_cast<std::uint8_t>(g.gp()), 0, 0, imm});
}

inline void gadget_neg(GenState& g) {
  g.a.raw({static_cast<std::uint8_t>(
               (g.rng.chance(0.5) ? BPF_ALU64 : BPF_ALU) | BPF_NEG | BPF_K),
           static_cast<std::uint8_t>(g.gp()), 0, 0, 0});
}

inline void gadget_bswap(GenState& g) {
  const int bits = 16 << g.rng.uniform(0, 2);
  if (g.rng.chance(0.5))
    g.a.to_be(g.gp(), bits);
  else
    g.a.to_le(g.gp(), bits);
}

inline void gadget_ld_imm64(GenState& g) {
  const std::uint64_t imm = g.rng.next_u64();
  const int dst = g.gp();
  g.a.ld_imm64(dst, imm);
}

inline void gadget_stack_store(GenState& g) {
  const std::int16_t off = -8 * static_cast<std::int16_t>(g.rng.uniform(1, 8));
  g.a.stx(BPF_DW, R10, g.gp(), off);
  g.written_slots.push_back(off);
}

inline void gadget_stack_load(GenState& g) {
  if (g.written_slots.empty()) return gadget_stack_store(g);
  const std::int16_t off =
      g.written_slots[g.rng.uniform(0, g.written_slots.size() - 1)];
  // Narrower reloads of a written slot exercise all load widths.
  static constexpr std::uint8_t kSizes[] = {BPF_B, BPF_H, BPF_W, BPF_DW};
  const int dst = g.gp();
  const std::uint8_t size = kSizes[g.rng.uniform(0, 3)];
  g.a.ldx(size, dst, R10, off);
}

inline void gadget_fwd_jump(GenState& g, const std::string& out_label) {
  static constexpr std::uint8_t kOps[] = {BPF_JEQ,  BPF_JNE,  BPF_JGT,
                                          BPF_JGE,  BPF_JLT,  BPF_JLE,
                                          BPF_JSET, BPF_JSGT, BPF_JSGE,
                                          BPF_JSLT, BPF_JSLE};
  const std::uint8_t op = kOps[g.rng.uniform(0, std::size(kOps) - 1)];
  if (g.rng.chance(0.5)) {
    const std::int32_t imm = g.imm();
    const int dst = g.gp();
    g.a.jmp_imm(op, dst, imm, out_label);
  } else {
    const int src = g.gp();
    const int dst = g.gp();
    g.a.jmp_reg(op, dst, src, out_label);
  }
}

inline void gadget_jmp32(GenState& g) {
  // JMP32 over one filler instruction.
  static constexpr std::uint8_t kOps[] = {BPF_JEQ,  BPF_JNE,  BPF_JGT,
                                          BPF_JGE,  BPF_JLT,  BPF_JLE,
                                          BPF_JSET, BPF_JSGT, BPF_JSGE,
                                          BPF_JSLT, BPF_JSLE};
  const std::uint8_t op = kOps[g.rng.uniform(0, std::size(kOps) - 1)];
  const std::string skip = g.fresh_label("skip");
  const bool reg_src = g.rng.chance(0.5);
  const int dst = g.gp();
  if (reg_src) {
    const int src = g.gp();
    g.a.jmp32_reg(op, dst, src, skip);
  } else {
    const std::int32_t imm = g.imm();
    g.a.jmp32_imm(op, dst, imm, skip);
  }
  // Skipped when the branch is taken.
  const std::int32_t imm = g.imm();
  const int filler = g.gp();
  g.a.mov64_imm(filler, imm).label(skip);
}

// Helper calls clobber the caller-saved argument registers R1-R5 (the
// verifier marks them uninitialised, as the kernel does); gadgets ending in
// a call must re-scalarise them so later gadgets may read any GP register.
inline void rescalarize_caller_saved(GenState& g) {
  for (const int r : {R1, R2, R3, R4, R5})
    g.a.mov64_imm(r, static_cast<std::int32_t>(g.rng.next_u32()));
}

inline void gadget_ktime(GenState& g) {
  g.a.call(helper::KTIME_GET_NS);
  rescalarize_caller_saved(g);
}

inline void gadget_prandom(GenState& g) {
  g.a.call(helper::GET_PRANDOM_U32);
}

// lookup(map, key) -> increment value in place (covers helper dispatch, the
// map-value memory region, null checks and read-modify-write side effects).
inline void gadget_map_inc(GenState& g) {
  const std::string miss = g.fresh_label("miss");
  const std::int32_t key =
      static_cast<std::int32_t>(g.rng.uniform(0, kMapEntries - 1));
  g.a.st(BPF_W, R10, -4, key)
      .ld_map(R1, g.map_id)
      .mov64_reg(R2, R10)
      .add64_imm(R2, -4)
      .call(helper::MAP_LOOKUP_ELEM)
      .jeq_imm(R0, 0, miss)
      .ldx(BPF_DW, R3, R0, 0)
      .add64_imm(R3, 1)
      .stx(BPF_DW, R0, R3, 0)
      .label(miss)
      .mov64_imm(R0, 0);  // re-scalarise R0 (it held a map-value-or-null)
  rescalarize_caller_saved(g);
}

// update(map, key, value) from stack-built key/value.
inline void gadget_map_update(GenState& g) {
  const std::int32_t key =
      static_cast<std::int32_t>(g.rng.uniform(0, kMapEntries - 1));
  g.a.st(BPF_W, R10, -4, key)
      .stx(BPF_DW, R10, g.gp(), -16)
      .ld_map(R1, g.map_id)
      .mov64_reg(R2, R10)
      .add64_imm(R2, -4)
      .mov64_reg(R3, R10)
      .add64_imm(R3, -16)
      .mov64_imm(R4, 0)
      .call(helper::MAP_UPDATE_ELEM)
      .mov64_imm(R0, 0);
  rescalarize_caller_saved(g);
}

inline std::vector<Insn> generate(Rng& rng, std::uint32_t map_id) {
  GenState g(rng, map_id);
  const std::string out = "out";

  // Preamble: scalarise every general-purpose register.
  for (const int r : kGpRegs)
    g.a.mov64_imm(r, static_cast<std::int32_t>(rng.next_u32()));

  const int n = static_cast<int>(rng.uniform(8, 48));
  for (int i = 0; i < n; ++i) {
    switch (rng.uniform(0, 12)) {
      case 0: gadget_alu64_imm(g); break;
      case 1: gadget_alu64_reg(g); break;
      case 2: gadget_alu32(g); break;
      case 3: gadget_neg(g); break;
      case 4: gadget_bswap(g); break;
      case 5: gadget_ld_imm64(g); break;
      case 6: gadget_stack_store(g); break;
      case 7: gadget_stack_load(g); break;
      case 8: gadget_fwd_jump(g, out); break;
      case 9: gadget_jmp32(g); break;
      case 10: gadget_ktime(g); break;
      case 11: gadget_map_inc(g); break;
      case 12: gadget_map_update(g); break;
    }
  }
  gadget_prandom(g);  // ensure R0 is a scalar reaching the exit
  g.a.label(out).exit_();
  return g.a.build();
}

// One instruction at index 2, reachable after r0 = 0x1234 and r2 = 7, or
// dead behind a jump that is always taken; an ld_imm64 gets its second slot.
inline std::vector<Insn> sweep_program(const Insn& insn, bool dead) {
  Asm a;
  if (dead)
    a.mov64_imm(R0, 0).jeq_imm(R0, 0, "exit");
  else
    a.mov64_imm(R0, 0x1234).mov64_imm(R2, 7);
  a.raw(insn);
  if (insn.is_ld_imm64()) a.raw({});
  return a.label("exit").exit_().build();
}

}  // namespace srv6bpf::ebpf
