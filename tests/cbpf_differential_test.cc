// Differential fuzzing of the classic-BPF translator.
//
// Generates random valid classic programs, runs each through the reference
// cBPF interpreter (the oracle) and through translate() on both eBPF
// engines, and asserts bit-identical accept/reject/length results. The
// translator must never emit a program the verifier rejects for a program
// that passed check() — a rejection here is a translator bug, so it is a
// hard failure rather than a skip. Each translated program is also a
// pruning-oracle case (pruning_oracle.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "cbpf/insn.h"
#include "cbpf/interp.h"
#include "cbpf/translate.h"
#include "ebpf/insn.h"
#include "ebpf/skb.h"
#include "ebpf/vm.h"
#include "net/packet.h"
#include "pruning_oracle.h"
#include "util/rng.h"

namespace srv6bpf::cbpf {
namespace {

constexpr int kWantedPrograms = 1000;
// Programs of the second pass, whose ABS and MSH offsets wrap.
constexpr int kWrapPrograms = 200;
// State budget of the pruning oracle's unpruned runs.
constexpr std::size_t kUnprunedBudget = 20000;

// ---- Random classic program generator ---------------------------------------
// Every emitted program passes check() by construction: forward-in-range
// jumps, k < 16 for M[], nonzero constant divisors, constant shifts < 32,
// trailing RET. Mid-program RETs and jumps leave dead code on purpose — the
// translator's reachability pass must cope. With `wrap`, every ABS and MSH
// offset k lies in [2^32 - 8, 2^32 - 1], where k + size wraps in 32 bits:
// loads that pass check() and fail on every packet. No call takes two
// random draws as arguments, whose order C++ leaves unspecified: named
// locals fix the order (the one g++ gave them), whatever the compiler.

std::uint32_t wrap_offset(Rng& rng) {
  return static_cast<std::uint32_t>(rng.uniform(0xfffffff8u, 0xffffffffu));
}

SockFilter gen_insn(Rng& rng, std::uint32_t pc, std::uint32_t len,
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

std::vector<SockFilter> generate(Rng& rng, bool wrap = false) {
  const std::uint32_t n = rng.uniform(2, 40);
  std::vector<SockFilter> prog;
  prog.reserve(n);
  for (std::uint32_t pc = 0; pc + 1 < n; ++pc)
    prog.push_back(gen_insn(rng, pc, n, wrap));
  prog.push_back(rng.chance(0.5) ? stmt(BPF_RET | BPF_A, 0)
                                 : stmt(BPF_RET | BPF_K, rng.next_u32()));
  return prog;
}

// ---- Packet corpus ----------------------------------------------------------

std::vector<std::vector<std::uint8_t>> make_corpus(Rng& rng) {
  std::vector<std::vector<std::uint8_t>> corpus;
  corpus.push_back({});                        // empty packet
  corpus.push_back({0x60, 0x01, 0x02});        // runt
  {
    // Realistic IPv6/UDP datagram.
    net::PacketSpec spec;
    spec.src = net::Ipv6Addr::must_parse("2001:db8::1");
    spec.dst = net::Ipv6Addr::must_parse("2001:db8::2");
    spec.src_port = 5555;
    spec.dst_port = 7;
    spec.payload_size = 64;
    net::Packet pkt = net::make_udp_packet(spec);
    corpus.emplace_back(pkt.bytes().begin(), pkt.bytes().end());
  }
  const std::size_t lens[] = {
      static_cast<std::size_t>(40 + rng.uniform(0, 24)), 200};
  for (const std::size_t len : lens) {
    std::vector<std::uint8_t> p(len);
    for (auto& b : p) b = static_cast<std::uint8_t>(rng.next_u32());
    corpus.push_back(std::move(p));
  }
  return corpus;
}

std::string dump(const std::vector<SockFilter>& prog,
                 const std::vector<ebpf::Insn>& insns) {
  return "classic:\n" + disasm(prog) + "translated:\n" + ebpf::disasm(insns);
}

TEST(CbpfDifferential, TranslatedProgramsMatchReferenceOnAllEngines) {
  Rng rng(0xcbcbf17e2026ull);
  const auto corpus = make_corpus(rng);
  // The wrap-band programs come last, from a generator of their own, so the
  // first kWantedPrograms do not depend on them.
  Rng wrap_rng(0x3a9f00c0ffeeull);

  int compared = 0;
  for (int n = 0; n < kWantedPrograms + kWrapPrograms; ++n) {
    const bool wrap = n >= kWantedPrograms;
    const std::vector<SockFilter> prog = generate(wrap ? wrap_rng : rng, wrap);
    ASSERT_TRUE(check(prog).ok) << disasm(prog);

    const TranslateResult tr = translate(prog);
    ASSERT_TRUE(tr.ok) << tr.error << "\n" << disasm(prog);

    ebpf::BpfSystem sys;
    const ebpf::PruningOracle oracle =
        ebpf::check_pruning(&sys.maps(), &sys.helpers(), tr.insns,
                            ebpf::ProgType::kSocketFilter, kUnprunedBudget);
    if (oracle.compared) {
      ++compared;
      ASSERT_TRUE(oracle.agree()) << dump(prog, tr.insns);
    }
    auto load = sys.load("cbpf_diff", ebpf::ProgType::kSocketFilter, tr.insns);
    ASSERT_TRUE(load.ok()) << "verifier rejected translated program at insn "
                           << load.verify.error_insn << ": "
                           << load.verify.error << "\n"
                           << dump(prog, tr.insns);

    for (const auto& pkt : corpus) {
      const std::uint32_t want = run(prog, pkt.data(), pkt.size());

      // bpf_get_prandom_u32 reads 4 without a PRNG state.
      ebpf::SkbRun run;
      run.point_data_at(pkt);
      run.env.now_ns = 42;

      for (const bool jit : {false, true}) {
        sys.set_jit_enabled(jit);
        const char* engine = ebpf::engine_name(sys.engine_for(*load.prog));
        const ebpf::ExecResult res =
            sys.run(*load.prog, run.env, run.ctx_addr());
        ASSERT_TRUE(res.ok())
            << engine << ": " << res.error << "\n" << dump(prog, tr.insns);
        ASSERT_EQ(static_cast<std::uint64_t>(want), res.ret)
            << engine << " diverges from the reference "
            << "interpreter on a " << pkt.size() << "-byte packet\n"
            << dump(prog, tr.insns);
      }
    }
  }
  // Most unpruned runs must fit the oracle's budget, or it checks little.
  EXPECT_GE(compared, (kWantedPrograms + kWrapPrograms) * 9 / 10);
}

}  // namespace
}  // namespace srv6bpf::cbpf
