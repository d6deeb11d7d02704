// JIT edge cases the random differential generator under-samples.
//
// Every test runs on all three engines (engine_fixture.h): the native
// x86-64 JIT is the newest and most delicate — division must not trap,
// 32-bit ops must zero-extend, the BPF stack boundary must be addressable,
// and helper-driven packet reallocation must not leave stale pointers — but
// asserting the same behaviour on all engines keeps the whole matrix honest.
// On hosts without native support the kNative parameter falls back to the
// pre-decoded interpreter and the expectations still hold.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "ebpf/asm.h"
#include "ebpf/helpers.h"
#include "ebpf/insn.h"
#include "ebpf/vm.h"
#include "engine_fixture.h"
#include "net/packet.h"
#include "seg6/ctx.h"
#include "seg6/seg6local.h"
#include "usecases/programs.h"

namespace srv6bpf::ebpf {
namespace {

using JitEdgeTest = EngineFixture;
INSTANTIATE_TEST_SUITE_P(Engines, JitEdgeTest, ::testing::ValuesIn(kEngines),
                         engine_param_name);

// ---- division / modulo by zero (register divisors; immediate-zero divisors
// ---- are rejected at load, asserted at the end of this section) ----

TEST_P(JitEdgeTest, Div64ByZeroRegisterYieldsZero) {
  Asm a;
  a.ld_imm64(R0, 0xdeadbeefcafebabeull)
      .mov64_imm(R1, 0)
      .raw({BPF_ALU64 | BPF_DIV | BPF_X, R0, R1, 0, 0})
      .exit_();
  EXPECT_EQ(eval(a.build()), 0u);
}

TEST_P(JitEdgeTest, Mod64ByZeroRegisterKeepsDividend) {
  Asm a;
  a.ld_imm64(R0, 0xdeadbeefcafebabeull)
      .mov64_imm(R1, 0)
      .raw({BPF_ALU64 | BPF_MOD | BPF_X, R0, R1, 0, 0})
      .exit_();
  EXPECT_EQ(eval(a.build()), 0xdeadbeefcafebabeull);
}

TEST_P(JitEdgeTest, Div32ByZeroRegisterYieldsZero) {
  Asm a;
  a.ld_imm64(R0, 0xdeadbeefcafebabeull)
      .mov64_imm(R1, 0)
      .raw({BPF_ALU | BPF_DIV | BPF_X, R0, R1, 0, 0})
      .exit_();
  EXPECT_EQ(eval(a.build()), 0u);
}

TEST_P(JitEdgeTest, Mod32ByZeroRegisterTruncatesDividend) {
  // The kernel's ALU32 mod-by-zero still zero-extends: dst = (u32)dst.
  Asm a;
  a.ld_imm64(R0, 0xdeadbeefcafebabeull)
      .mov64_imm(R1, 0)
      .raw({BPF_ALU | BPF_MOD | BPF_X, R0, R1, 0, 0})
      .exit_();
  EXPECT_EQ(eval(a.build()), 0xcafebabeull);
}

TEST_P(JitEdgeTest, Div32UsesTruncatedDivisor) {
  // Divisor 2^32 truncates to 0 in ALU32: division by zero, not by 2^32.
  Asm a;
  a.mov64_imm(R0, 100)
      .ld_imm64(R1, 0x100000000ull)
      .raw({BPF_ALU | BPF_DIV | BPF_X, R0, R1, 0, 0})
      .exit_();
  EXPECT_EQ(eval(a.build()), 0u);
}

// Division where dst/src land on the x86 registers the emitter must juggle
// (BPF r0 = rax, the implicit dividend; BPF r3 = rdx, the implicit
// high-half/remainder; BPF r4 = rcx, the shift-count register).
TEST_P(JitEdgeTest, DivModPreserveNeighbouringRegisters) {
  Asm a;
  a.mov64_imm(R0, 1000)   // rax
      .mov64_imm(R3, 77)  // rdx
      .mov64_imm(R4, 9)   // rcx
      .mov64_reg(R5, R0)
      .raw({BPF_ALU64 | BPF_DIV | BPF_X, R5, R4, 0, 0})  // r5 = 1000/9 = 111
      .raw({BPF_ALU64 | BPF_MOD | BPF_X, R3, R4, 0, 0})  // r3 = 77%9 = 5
      .add64_reg(R5, R3)                                 // 116
      .add64_reg(R5, R0)                                 // + 1000 (rax intact)
      .add64_reg(R5, R4)                                 // + 9 (rcx intact)
      .mov64_reg(R0, R5)
      .exit_();
  EXPECT_EQ(eval(a.build()), 1125u);
}

TEST_P(JitEdgeTest, VerifierRejectsImmediateZeroDivision) {
  for (const std::uint8_t cls : {BPF_ALU64, BPF_ALU}) {
    for (const std::uint8_t op : {BPF_DIV, BPF_MOD}) {
      Asm a;
      a.mov64_imm(R0, 1)
          .raw({static_cast<std::uint8_t>(cls | op | BPF_K), R0, 0, 0, 0})
          .exit_();
      BpfSystem sys;
      auto load = sys.load("divz", ProgType::kLwtSeg6Local, a.build());
      EXPECT_FALSE(load.ok())
          << "imm-zero division must be rejected at load time";
    }
  }
}

// ---- 32-bit ALU zero-extension ----

TEST_P(JitEdgeTest, Alu32ImmWritesClearUpperHalf) {
  // Every ALU32 form must zero bits 63..32 of dst, even when the 64-bit
  // value had them set.
  struct Case {
    std::uint8_t op;
    std::int32_t imm;
    std::uint64_t expect;
  };
  const Case cases[] = {
      {BPF_ADD, 1, 0xcafebabfull},
      {BPF_MOV, -1, 0xffffffffull},
      {BPF_OR, 0, 0xcafebabeull},
      {BPF_LSH, 0, 0xcafebabeull},  // shift by zero still truncates
      {BPF_RSH, 4, 0x0cafebabull},
      {BPF_ARSH, 4, 0xfcafebabull},  // sign bit of the *32-bit* value
      {BPF_XOR, 0, 0xcafebabeull},
  };
  for (const Case& c : cases) {
    Asm a;
    a.ld_imm64(R0, 0x11111111cafebabeull)
        .raw({static_cast<std::uint8_t>(BPF_ALU | c.op | BPF_K), R0, 0, 0,
              c.imm})
        .exit_();
    EXPECT_EQ(eval(a.build()), c.expect)
        << "ALU32 op " << static_cast<int>(c.op);
  }
}

TEST_P(JitEdgeTest, Neg32ClearsUpperHalf) {
  Asm a;
  a.ld_imm64(R0, 0x11111111cafebabeull)
      .raw({BPF_ALU | BPF_NEG | BPF_K, R0, 0, 0, 0})
      .exit_();
  EXPECT_EQ(eval(a.build()), 0x35014542ull);
}

TEST_P(JitEdgeTest, Mov32RegClearsUpperHalf) {
  Asm a;
  a.ld_imm64(R1, 0x11111111cafebabeull)
      .mov32_reg(R0, R1)
      .exit_();
  EXPECT_EQ(eval(a.build()), 0xcafebabeull);
}

TEST_P(JitEdgeTest, ShiftByRegisterThroughRcxAliases) {
  // BPF r4 maps to rcx, the hardware shift-count register; exercise count
  // in r4, value in r4, and both at once.
  Asm a;
  a.mov64_imm(R4, 4)
      .mov64_imm(R0, 0x10)
      .lsh64_reg(R0, R4)          // 0x100 (count in rcx)
      .mov64_reg(R3, R4)
      .lsh64_reg(R4, R3)          // r4 = 4 << 4 = 64 (dst in rcx)
      .add64_reg(R0, R4)          // 0x140
      .mov64_imm(R4, 2)
      .lsh64_reg(R4, R4)          // r4 = 2 << 2 = 8 (dst == count == rcx)
      .add64_reg(R0, R4)          // 0x148
      .exit_();
  EXPECT_EQ(eval(a.build()), 0x148u);
}

TEST_P(JitEdgeTest, Shift64ByRegisterMasksCountTo63) {
  Asm a;
  a.mov64_imm(R0, 1)
      .mov64_imm(R1, 64)  // & 63 == 0: must be a no-op, not zero
      .lsh64_reg(R0, R1)
      .exit_();
  EXPECT_EQ(eval(a.build()), 1u);
}

// ---- stack boundary ----

TEST_P(JitEdgeTest, StackBoundaryAtFpMinus512) {
  // fp-512 is the lowest legal stack byte; an 8-byte store/load there must
  // round-trip on every engine (the native JIT emits [rbp-512] directly).
  Asm a;
  a.ld_imm64(R1, 0x0123456789abcdefull)
      .stx(BPF_DW, R10, R1, -512)
      .ldx(BPF_DW, R0, R10, -512)
      .exit_();
  EXPECT_EQ(eval(a.build()), 0x0123456789abcdefull);
}

TEST_P(JitEdgeTest, NarrowReloadsAtStackBoundary) {
  Asm a;
  a.ld_imm64(R1, 0x0123456789abcdefull)
      .stx(BPF_DW, R10, R1, -512)
      .ldx(BPF_B, R0, R10, -512)    // 0xef on little-endian
      .ldx(BPF_H, R2, R10, -512)    // 0xcdef
      .add64_reg(R0, R2)
      .ldx(BPF_W, R3, R10, -508)    // high word: 0x01234567
      .add64_reg(R0, R3)
      .exit_();
  EXPECT_EQ(eval(a.build()), 0xefull + 0xcdefull + 0x01234567ull);
}

// ---- helper that reallocates the packet mid-program ----

TEST_P(JitEdgeTest, AddTlvReallocatesPacketIdenticallyOnAllEngines) {
  // bpf_lwt_seg6_adjust_srh grows the packet, invalidating every previously
  // derived packet pointer; the program re-derives them from ctx afterwards
  // (as the verifier requires). The resulting packet bytes must be identical
  // on every engine — a stale-pointer bug in any engine shows up here as a
  // divergence from the interpreter's bytes.
  const auto built = usecases::build_add_tlv();
  auto run_engine = [&](EngineKind engine) {
    seg6::Netns ns("edge");
    ns.table(0).add_route(net::Prefix::parse("fc00::/16").value(),
                          {net::Ipv6Addr::must_parse("fe80::1"), 0, 1});
    ns.bpf().set_engine(engine);
    auto load =
        ns.bpf().load(built.name, ProgType::kLwtSeg6Local, built.insns);
    EXPECT_TRUE(load.ok()) << load.verify.error;

    net::PacketSpec spec;
    spec.src = net::Ipv6Addr::must_parse("fc00::1");
    spec.segments = {net::Ipv6Addr::must_parse("fc00::e1"),
                     net::Ipv6Addr::must_parse("fc00::d1")};
    spec.payload_size = 64;
    net::Packet pkt = net::make_udp_packet(spec);
    const std::size_t before = pkt.size();

    seg6::Seg6LocalEntry e;
    e.action = seg6::Seg6Action::kEndBPF;
    e.prog = load.prog;
    seg6::ProcessTrace trace{};
    const auto r = seg6local_process(ns, pkt, e, &trace);
    EXPECT_EQ(r.disposition, seg6::Disposition::kContinue);
    EXPECT_EQ(pkt.size(), before + 8);
    return std::vector<std::uint8_t>(pkt.data(), pkt.data() + pkt.size());
  };

  const auto reference = run_engine(EngineKind::kInterp);
  EXPECT_EQ(run_engine(GetParam()), reference);
}

// ---- maximum-size programs ----

TEST_P(JitEdgeTest, MaxSizeProgramRuns) {
  // kMaxInsns (4096) straight-line ops: 1 preamble + 4094 ALU + exit. Big
  // enough to stress the emitter's buffer growth and rel32 bookkeeping.
  Asm a;
  a.mov64_imm(R0, 1);
  for (int i = 0; i < static_cast<int>(kMaxInsns) - 2; ++i) {
    switch (i % 4) {
      case 0: a.add64_imm(R0, 7); break;
      case 1: a.mul64_imm(R0, 3); break;
      case 2: a.xor64_imm(R0, 0x55aa); break;
      case 3: a.rsh64_imm(R0, 1); break;
    }
  }
  a.exit_();
  const auto insns = a.build();
  ASSERT_EQ(insns.size(), kMaxInsns);

  const ExecResult r = run(insns);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.insns_executed, kMaxInsns);
  // All engines must agree on the chain's value.
  BpfSystem ref;
  auto load = ref.load("ref", ProgType::kLwtSeg6Local, insns);
  ASSERT_TRUE(load.ok());
  ref.set_engine(EngineKind::kInterp);
  ExecEnv env;
  EXPECT_EQ(r.ret, ref.run(*load.prog, env, 0).ret);
  if (native_jit_available()) {
    EXPECT_GT(load.prog->native_code_size(), 0u);
  }
}

// ---- engine observability ----

TEST_P(JitEdgeTest, LoadedProgramReportsResolvedEngine) {
  BpfSystem sys;
  sys.set_engine(GetParam());
  Asm a;
  a.mov64_imm(R0, 0).exit_();
  auto load = sys.load("obs", ProgType::kLwtSeg6Local, a.build());
  ASSERT_TRUE(load.ok());
  EXPECT_EQ(load.prog->native() != nullptr, native_jit_available());
  EngineKind expect = GetParam();
  if (expect == EngineKind::kNative && !native_jit_available())
    expect = EngineKind::kInterp;
  EXPECT_EQ(sys.engine_for(*load.prog), expect);
  EXPECT_STRNE(engine_name(sys.engine_for(*load.prog)), "?");
}

// ---- the no-native fallback ----

// `prog` as a load leaves it on a host that cannot emit machine code: the
// decoded form and no native image.
ProgHandle without_native(BpfSystem& sys, const LoadedProgram& prog) {
  return std::make_shared<LoadedProgram>(
      prog.program(), decode_program(prog.program().insns(), &sys.helpers()),
      nullptr);
}

TEST(NoNativeFallback, RunsOnTheInterpreterWithNativeResults) {
  BpfSystem sys;
  Asm a;
  a.call(helper::KTIME_GET_NS)
      .mov64_reg(R6, R0)
      .call(helper::KTIME_GET_NS)
      .add64_reg(R0, R6)
      .exit_();
  auto load = sys.load("fallback", ProgType::kLwtSeg6Local, a.build());
  ASSERT_TRUE(load.ok()) << load.verify.error;
  const ProgHandle fallback = without_native(sys, *load.prog);
  ASSERT_EQ(fallback->native(), nullptr);

  sys.set_engine(EngineKind::kNative);
  EXPECT_EQ(sys.engine_for(*fallback), EngineKind::kInterp);
  EXPECT_TRUE(sys.jit_enabled());

  ExecEnv env;
  env.now_ns = 21;
  const ExecResult want = sys.run(*load.prog, env, 0);
  ASSERT_TRUE(want.ok()) << want.error;
  EXPECT_EQ(want.ret, 42u);
  const ExecResult got = sys.run(*fallback, env, 0);
  ASSERT_TRUE(got.ok()) << got.error;
  EXPECT_EQ(got.ret, want.ret);
  EXPECT_EQ(got.insns_executed, want.insns_executed);
  EXPECT_EQ(got.helper_calls, want.helper_calls);
}

TEST(NoNativeFallback, EndBpfStillBillsTheJitBucket) {
  // The cost model follows the selected engine, not the one that ran: a
  // program without native code under bpf_jit_enable=1 is billed as JIT, so
  // simulated rates do not depend on whether the host can emit code.
  const auto built = usecases::build_add_tlv();
  auto end_bpf = [&built](bool native) {
    seg6::Netns ns("fallback");
    ns.table(0).add_route(net::Prefix::parse("fc00::/16").value(),
                          {net::Ipv6Addr::must_parse("fe80::1"), 0, 1});
    ns.bpf().set_engine(EngineKind::kNative);
    auto load =
        ns.bpf().load(built.name, ProgType::kLwtSeg6Local, built.insns);
    EXPECT_TRUE(load.ok()) << load.verify.error;

    net::PacketSpec spec;
    spec.src = net::Ipv6Addr::must_parse("fc00::1");
    spec.segments = {net::Ipv6Addr::must_parse("fc00::e1"),
                     net::Ipv6Addr::must_parse("fc00::d1")};
    spec.payload_size = 64;
    net::Packet pkt = net::make_udp_packet(spec);

    seg6::Seg6LocalEntry e;
    e.action = seg6::Seg6Action::kEndBPF;
    e.prog = native ? load.prog : without_native(ns.bpf(), *load.prog);
    seg6::ProcessTrace trace{};
    const auto r = seg6local_process(ns, pkt, e, &trace);
    EXPECT_EQ(r.disposition, seg6::Disposition::kContinue);
    return std::pair{trace, std::vector<std::uint8_t>(
                                pkt.data(), pkt.data() + pkt.size())};
  };

  const auto [native, native_bytes] = end_bpf(true);
  const auto [fallback, fallback_bytes] = end_bpf(false);
  EXPECT_GT(fallback.bpf_insns_jit, 0u);
  EXPECT_EQ(fallback.bpf_insns_interp, 0u);
  EXPECT_EQ(fallback.bpf_insns_jit, native.bpf_insns_jit);
  EXPECT_EQ(fallback.helper_calls, native.helper_calls);
  EXPECT_EQ(fallback_bytes, native_bytes);
}

}  // namespace
}  // namespace srv6bpf::ebpf
