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

#include <cstdint>
#include <string>
#include <vector>

#include "cbpf/insn.h"
#include "cbpf/interp.h"
#include "cbpf/translate.h"
#include "cbpf_generator.h"
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
