// Unit tests for the cBPF→eBPF translator: emitted programs must pass the
// verifier as ProgType::kSocketFilter and reproduce classic semantics.
// (The 1000-program differential test covers breadth; these pin down the
// individual lowering rules with known programs.)
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cbpf/insn.h"
#include "cbpf/interp.h"
#include "cbpf/translate.h"
#include "ebpf/skb.h"
#include "ebpf/vm.h"
#include "net/packet.h"

namespace srv6bpf::cbpf {
namespace {

// Loads the translated program and runs it over the packet on the default
// engine. Verification failures surface as gtest failures with diagnostics.
std::uint32_t run_translated(const std::vector<SockFilter>& prog,
                             const std::vector<std::uint8_t>& pkt) {
  const TranslateResult tr = translate(prog);
  EXPECT_TRUE(tr.ok) << tr.error;
  if (!tr.ok) return 0xdead;

  ebpf::BpfSystem sys;
  auto load = sys.load("t", ebpf::ProgType::kSocketFilter, tr.insns);
  EXPECT_TRUE(load.ok()) << load.verify.error << " at insn "
                         << load.verify.error_insn << "\n"
                         << ebpf::disasm(tr.insns);
  if (!load.ok()) return 0xdead;

  ebpf::SkbRun run;
  run.point_data_at(pkt);
  const ebpf::ExecResult res = sys.run(*load.prog, run.env, run.ctx_addr());
  EXPECT_TRUE(res.ok()) << res.error;
  return static_cast<std::uint32_t>(res.ret);
}

// Runs reference and translated form and asserts agreement; returns the value.
std::uint32_t both(const std::vector<SockFilter>& prog,
                   const std::vector<std::uint8_t>& pkt) {
  const std::uint32_t ref = run(prog, pkt.data(), pkt.size());
  const std::uint32_t got = run_translated(prog, pkt);
  EXPECT_EQ(ref, got) << disasm(prog);
  return got;
}

TEST(CbpfTranslate, RejectsInvalidClassicPrograms) {
  EXPECT_FALSE(translate({}).ok);
  EXPECT_FALSE(translate({stmt(BPF_LD | BPF_IMM, 1)}).ok);  // no RET
}

TEST(CbpfTranslate, CanonicalUdpDstPortFilter) {
  const std::vector<SockFilter> prog = {
      stmt(BPF_LD | BPF_B | BPF_ABS, 6),
      jump(BPF_JMP | BPF_JEQ | BPF_K, 17, 0, 3),
      stmt(BPF_LD | BPF_H | BPF_ABS, 42),
      jump(BPF_JMP | BPF_JEQ | BPF_K, 7, 0, 1),
      stmt(BPF_RET | BPF_K, 0xffff),
      stmt(BPF_RET | BPF_K, 0),
  };
  net::PacketSpec spec;
  spec.src = net::Ipv6Addr::must_parse("2001:db8::1");
  spec.dst = net::Ipv6Addr::must_parse("2001:db8::2");
  spec.dst_port = 7;
  net::Packet match = net::make_udp_packet(spec);
  spec.dst_port = 8;
  net::Packet miss = net::make_udp_packet(spec);

  EXPECT_EQ(both(prog, {match.bytes().begin(), match.bytes().end()}), 0xffffu);
  EXPECT_EQ(both(prog, {miss.bytes().begin(), miss.bytes().end()}), 0u);
}

TEST(CbpfTranslate, DirectAbsLoadBoundsCheckDropsShortPackets) {
  const std::vector<SockFilter> prog = {
      stmt(BPF_LD | BPF_W | BPF_ABS, 4),
      stmt(BPF_RET | BPF_A, 0),
  };
  EXPECT_EQ(both(prog, {1, 2, 3, 4, 5, 6, 7, 8}), 0x05060708u);
  EXPECT_EQ(both(prog, {1, 2, 3, 4, 5, 6, 7}), 0u);  // one byte short
  EXPECT_EQ(both(prog, {}), 0u);
}

TEST(CbpfTranslate, LargeAbsOffsetTakesHelperPathAndDrops) {
  // k + size > 0x7fff cannot be a direct ldx (16-bit offset field); the
  // translator must route it through bpf_skb_load_bytes, which faults here.
  const std::vector<SockFilter> prog = {
      stmt(BPF_LD | BPF_B | BPF_ABS, 0x9000),
      stmt(BPF_RET | BPF_K, 5),
  };
  EXPECT_EQ(both(prog, std::vector<std::uint8_t>(64)), 0u);
}

TEST(CbpfTranslate, IndLoadsUseRuntimeOffset) {
  const std::vector<SockFilter> prog = {
      stmt(BPF_LDX | BPF_IMM, 3),
      stmt(BPF_LD | BPF_H | BPF_IND, 1),  // pkt[3 + 1 .. 5]
      stmt(BPF_RET | BPF_A, 0),
  };
  EXPECT_EQ(both(prog, {0, 1, 2, 3, 0xab, 0xcd}), 0xabcdu);
  EXPECT_EQ(both(prog, {0, 1, 2, 3, 0xab}), 0u);  // straddles the end
}

TEST(CbpfTranslate, MshComputesHeaderLength) {
  const std::vector<SockFilter> prog = {
      stmt(BPF_LDX | BPF_B | BPF_MSH, 0),  // X = 4 * (0x47 & 0xf) = 28
      stmt(BPF_MISC | BPF_TXA, 0),
      stmt(BPF_RET | BPF_A, 0),
  };
  EXPECT_EQ(both(prog, {0x47, 0, 0, 0}), 28u);
}

TEST(CbpfTranslate, DivModByXGuardsMatchClassicDropSemantics) {
  for (const std::uint16_t op : {BPF_DIV, BPF_MOD}) {
    const std::vector<SockFilter> prog = {
        stmt(BPF_LD | BPF_B | BPF_ABS, 0),  // X from the packet (via A)
        stmt(BPF_MISC | BPF_TAX, 0),
        stmt(BPF_LD | BPF_IMM, 100),
        stmt(BPF_ALU | op | BPF_X, 0),
        stmt(BPF_RET | BPF_A, 0),
    };
    EXPECT_EQ(both(prog, {7}), op == BPF_DIV ? 14u : 2u);
    EXPECT_EQ(both(prog, {0}), 0u);  // X == 0: classic filters drop
  }
}

TEST(CbpfTranslate, ScratchMemoryAndLenLower) {
  const std::vector<SockFilter> prog = {
      stmt(BPF_LD | BPF_W | BPF_LEN, 0),
      stmt(BPF_ST, 15),
      stmt(BPF_LD | BPF_IMM, 0),
      stmt(BPF_LD | BPF_MEM, 15),
      stmt(BPF_LDX | BPF_MEM, 2),  // never written: must read as zero
      stmt(BPF_ALU | BPF_ADD | BPF_X, 0),
      stmt(BPF_RET | BPF_A, 0),
  };
  EXPECT_EQ(both(prog, std::vector<std::uint8_t>(33)), 33u);
}

TEST(CbpfTranslate, SkipsDeadCodeAfterReturns) {
  // The two instructions after the first RET are unreachable; a translator
  // without a reachability pass would emit them and trip the verifier's
  // unreachable-instruction rule.
  const std::vector<SockFilter> prog = {
      stmt(BPF_JMP | BPF_JA, 2),
      stmt(BPF_LD | BPF_W | BPF_ABS, 0),   // dead
      stmt(BPF_RET | BPF_K, 0),            // dead
      stmt(BPF_RET | BPF_K, 9),
  };
  EXPECT_EQ(both(prog, {}), 9u);
}

TEST(CbpfTranslate, RejectsProgramsThatExpandPastTheEbpfBudget) {
  // Each IND load costs ~10 eBPF instructions; 2000 of them blow through
  // the 4096-instruction program cap and must be reported, not truncated.
  std::vector<SockFilter> prog;
  for (int i = 0; i < 2000; ++i)
    prog.push_back(stmt(BPF_LD | BPF_B | BPF_IND, 0));
  prog.push_back(stmt(BPF_RET | BPF_A, 0));
  const TranslateResult tr = translate(prog);
  EXPECT_FALSE(tr.ok);
  EXPECT_FALSE(tr.error.empty());
}

}  // namespace
}  // namespace srv6bpf::cbpf
