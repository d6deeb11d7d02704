// The random classic-BPF program generator of the translator's differential
// test, shared with the verifier golden.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <vector>

#include "cbpf/insn.h"
#include "util/rng.h"

namespace srv6bpf::cbpf {

// Every emitted program passes check() by construction: forward-in-range
// jumps, k < 16 for M[], nonzero constant divisors, constant shifts < 32,
// trailing RET. Mid-program RETs and jumps leave dead code on purpose — the
// translator's reachability pass must cope. With `wrap`, every ABS and MSH
// offset k lies in [2^32 - 8, 2^32 - 1], where k + size wraps in 32 bits:
// loads that pass check() and fail on every packet. No call takes two
// random draws as arguments, whose order C++ leaves unspecified: named
// locals fix the order (the one g++ gave them), whatever the compiler.

inline std::uint32_t wrap_offset(Rng& rng) {
  return static_cast<std::uint32_t>(rng.uniform(0xfffffff8u, 0xffffffffu));
}

inline SockFilter gen_insn(Rng& rng, std::uint32_t pc, std::uint32_t len,
                           bool wrap) {
  // Remaining forward range for conditional jump offsets.
  const std::uint32_t room =
      std::min<std::uint32_t>(255, len - 2 - pc);  // pc < len-1 here
  switch (rng.uniform(0, 16)) {
    case 0:
      return stmt(BPF_LD | BPF_IMM, rng.next_u32());
    case 1:
      return stmt(BPF_LDX | BPF_IMM, rng.next_u32() & 0xffff);
    case 2:
      return stmt(BPF_LD | BPF_MEM, rng.uniform(0, kMemWords - 1));
    case 3:
      return stmt(BPF_LDX | BPF_MEM, rng.uniform(0, kMemWords - 1));
    case 4:
      return stmt(BPF_ST, rng.uniform(0, kMemWords - 1));
    case 5:
      return stmt(BPF_STX, rng.uniform(0, kMemWords - 1));
    case 6:
      return stmt(BPF_LD | BPF_W | BPF_LEN, 0);
    case 7: {  // ABS load; offsets span in-packet, out-of-packet and the
               // >0x7fff helper fallback path
      static constexpr std::uint16_t kSz[] = {BPF_B, BPF_H, BPF_W};
      if (wrap) {
        const std::uint32_t k = wrap_offset(rng);
        const std::uint16_t size = kSz[rng.uniform(0, 2)];
        return stmt(BPF_LD | size | BPF_ABS, k);
      }
      const std::uint32_t offs[] = {
          static_cast<std::uint32_t>(rng.uniform(0, 80)),
          static_cast<std::uint32_t>(rng.uniform(0, 300)),
          static_cast<std::uint32_t>(rng.uniform(32760, 40000))};
      const std::uint32_t k = offs[rng.uniform(0, 2)];
      const std::uint16_t size = kSz[rng.uniform(0, 2)];
      return stmt(BPF_LD | size | BPF_ABS, k);
    }
    case 8: {  // IND load: offset = X + k with u32 wraparound
      static constexpr std::uint16_t kSz[] = {BPF_B, BPF_H, BPF_W};
      const std::uint32_t k =
          rng.chance(0.2) ? rng.next_u32() : rng.uniform(0, 100);
      const std::uint16_t size = kSz[rng.uniform(0, 2)];
      return stmt(BPF_LD | size | BPF_IND, k);
    }
    case 9:
      return stmt(BPF_LDX | BPF_B | BPF_MSH,
                  wrap ? wrap_offset(rng) : rng.uniform(0, 100));
    case 10: {  // ALU with constant
      static constexpr std::uint16_t kOps[] = {BPF_ADD, BPF_SUB, BPF_MUL,
                                               BPF_DIV, BPF_MOD, BPF_OR,
                                               BPF_AND, BPF_XOR, BPF_LSH,
                                               BPF_RSH};
      const std::uint16_t op = kOps[rng.uniform(0, std::size(kOps) - 1)];
      std::uint32_t k = rng.next_u32();
      if (op == BPF_LSH || op == BPF_RSH) k &= 31;
      if ((op == BPF_DIV || op == BPF_MOD) && k == 0) k = 7;
      return stmt(BPF_ALU | op | BPF_K, k);
    }
    case 11: {  // ALU with X — including unguarded DIV/MOD (X may be 0: the
                // oracle and the translated guard must agree on the drop)
      static constexpr std::uint16_t kOps[] = {BPF_ADD, BPF_SUB, BPF_MUL,
                                               BPF_DIV, BPF_MOD, BPF_OR,
                                               BPF_AND, BPF_XOR, BPF_LSH,
                                               BPF_RSH};
      return stmt(BPF_ALU | kOps[rng.uniform(0, std::size(kOps) - 1)] | BPF_X,
                  0);
    }
    case 12:
      return stmt(BPF_ALU | BPF_NEG, 0);
    case 13:
      return stmt(rng.chance(0.5) ? (BPF_MISC | BPF_TAX) : (BPF_MISC | BPF_TXA),
                  0);
    case 14: {  // conditional jump, forward targets only
      static constexpr std::uint16_t kOps[] = {BPF_JEQ, BPF_JGT, BPF_JGE,
                                               BPF_JSET};
      const std::uint16_t op = kOps[rng.uniform(0, std::size(kOps) - 1)];
      const std::uint16_t src = rng.chance(0.5) ? BPF_X : BPF_K;
      const std::uint32_t k =
          rng.chance(0.5) ? rng.uniform(0, 256) : rng.next_u32();
      const auto jf = static_cast<std::uint8_t>(rng.uniform(0, room));
      const auto jt = static_cast<std::uint8_t>(rng.uniform(0, room));
      return jump(BPF_JMP | op | src, k, jt, jf);
    }
    case 15:  // unconditional jump
      return stmt(BPF_JMP | BPF_JA, rng.uniform(0, room));
    default:  // scattered early return (often creates dead code)
      return rng.chance(0.5) ? stmt(BPF_RET | BPF_K, rng.next_u32())
                             : stmt(BPF_RET | BPF_A, 0);
  }
}

inline std::vector<SockFilter> generate(Rng& rng, bool wrap = false) {
  const std::uint32_t n = rng.uniform(2, 40);
  std::vector<SockFilter> prog;
  prog.reserve(n);
  for (std::uint32_t pc = 0; pc + 1 < n; ++pc)
    prog.push_back(gen_insn(rng, pc, n, wrap));
  prog.push_back(rng.chance(0.5) ? stmt(BPF_RET | BPF_A, 0)
                                 : stmt(BPF_RET | BPF_K, rng.next_u32()));
  return prog;
}

}  // namespace srv6bpf::cbpf
