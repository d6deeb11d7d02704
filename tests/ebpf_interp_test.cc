// Instruction-semantics tests, run against ALL execution engines through a
// parameterized fixture (engine_fixture.h): any divergence between the
// interpreters and the native x86-64 JIT is a bug by definition.
#include <gtest/gtest.h>

#include "ebpf/asm.h"
#include "util/byteorder.h"
#include "ebpf/helpers.h"
#include "ebpf/interp.h"
#include "ebpf/map.h"
#include "ebpf/program.h"
#include "ebpf/vm.h"
#include "engine_fixture.h"

namespace srv6bpf::ebpf {
namespace {

using EngineTest = EngineFixture;
INSTANTIATE_TEST_SUITE_P(Engines, EngineTest, ::testing::ValuesIn(kEngines),
                         engine_param_name);

// ---- ALU64 -------------------------------------------------------------------

TEST_P(EngineTest, Alu64Add) {
  Asm a;
  a.mov64_imm(R0, 40).add64_imm(R0, 2).exit_();
  EXPECT_EQ(eval(a.build()), 42u);
}

TEST_P(EngineTest, Alu64SubWraps) {
  Asm a;
  a.mov64_imm(R0, 0).sub64_imm(R0, 1).exit_();
  EXPECT_EQ(eval(a.build()), ~0ull);
}

TEST_P(EngineTest, Alu64MulDivMod) {
  Asm a;
  a.mov64_imm(R0, 7)
      .mul64_imm(R0, 6)   // 42
      .mov64_imm(R1, 5)
      .div64_imm(R0, 4)   // 10
      .mod64_imm(R0, 7)   // 3
      .exit_();
  EXPECT_EQ(eval(a.build()), 3u);
}

TEST_P(EngineTest, DivByZeroRegisterYieldsZero) {
  Asm a;
  a.mov64_imm(R0, 42).mov64_imm(R1, 0).raw(
      {BPF_ALU64 | BPF_DIV | BPF_X, R0, R1, 0, 0});
  a.exit_();
  EXPECT_EQ(eval(a.build()), 0u);
}

TEST_P(EngineTest, ModByZeroRegisterKeepsDst) {
  Asm a;
  a.mov64_imm(R0, 42).mov64_imm(R1, 0).raw(
      {BPF_ALU64 | BPF_MOD | BPF_X, R0, R1, 0, 0});
  a.exit_();
  EXPECT_EQ(eval(a.build()), 42u);
}

TEST_P(EngineTest, Alu64Bitwise) {
  Asm a;
  a.mov64_imm(R0, 0b1100)
      .or64_imm(R0, 0b0011)   // 0b1111
      .and64_imm(R0, 0b1010)  // 0b1010
      .xor64_imm(R0, 0b0110)  // 0b1100
      .exit_();
  EXPECT_EQ(eval(a.build()), 0b1100u);
}

TEST_P(EngineTest, Shifts64) {
  Asm a;
  a.mov64_imm(R0, 1).lsh64_imm(R0, 63).rsh64_imm(R0, 62).exit_();
  EXPECT_EQ(eval(a.build()), 2u);
}

TEST_P(EngineTest, ArithmeticShiftRightSignExtends) {
  Asm a;
  a.mov64_imm(R0, -16).arsh64_imm(R0, 2).exit_();
  EXPECT_EQ(static_cast<std::int64_t>(eval(a.build())), -4);
}

TEST_P(EngineTest, Neg64) {
  Asm a;
  a.mov64_imm(R0, 5).neg64(R0).exit_();
  EXPECT_EQ(static_cast<std::int64_t>(eval(a.build())), -5);
}

TEST_P(EngineTest, MovImmSignExtends) {
  Asm a;
  a.mov64_imm(R0, -1).exit_();
  EXPECT_EQ(eval(a.build()), ~0ull);
}

// ---- ALU32 -------------------------------------------------------------------

TEST_P(EngineTest, Alu32ZeroExtends) {
  Asm a;
  a.mov64_imm(R0, -1)       // all ones
      .add32_imm(R0, 1)     // lower 32 wrap to 0; upper cleared
      .exit_();
  EXPECT_EQ(eval(a.build()), 0u);
}

TEST_P(EngineTest, Mov32TruncatesTo32Bits) {
  Asm a;
  a.ld_imm64(R1, 0x1122334455667788ull).mov32_reg(R0, R1).exit_();
  EXPECT_EQ(eval(a.build()), 0x55667788u);
}

TEST_P(EngineTest, Alu32SubWrapsAt32) {
  Asm a;
  a.mov32_imm(R0, 0).sub32_imm(R0, 1).exit_();
  EXPECT_EQ(eval(a.build()), 0xffffffffu);
}

// ---- Byte swaps ---------------------------------------------------------------

TEST_P(EngineTest, ToBe16) {
  Asm a;
  a.mov64_imm(R0, 0x1234).to_be(R0, 16).exit_();
  EXPECT_EQ(eval(a.build()), kHostIsLittleEndian ? 0x3412u : 0x1234u);
}

TEST_P(EngineTest, ToBe64RoundTrips) {
  Asm a;
  a.ld_imm64(R0, 0x0102030405060708ull)
      .to_be(R0, 64)
      .to_be(R0, 64)
      .exit_();
  EXPECT_EQ(eval(a.build()), 0x0102030405060708ull);
}

TEST_P(EngineTest, ToLe32IsIdentityOnLeHost) {
  Asm a;
  a.mov64_imm(R0, 0x11223344).to_le(R0, 32).exit_();
  if (kHostIsLittleEndian) {
    EXPECT_EQ(eval(a.build()), 0x11223344u);
  }
}

// ---- Memory (stack) --------------------------------------------------------------

TEST_P(EngineTest, StackStoreLoadAllSizes) {
  Asm a;
  a.mov64_imm(R1, 0x11)
      .stx(BPF_B, R10, R1, -1)
      .mov64_imm(R1, 0x2233)
      .stx(BPF_H, R10, R1, -4)
      .mov64_imm(R1, 0x44556677)
      .stx(BPF_W, R10, R1, -8)
      .ld_imm64(R1, 0x8899aabbccddeeffull)
      .stx(BPF_DW, R10, R1, -16)
      .ldx(BPF_B, R0, R10, -1)
      .ldx(BPF_H, R2, R10, -4)
      .add64_reg(R0, R2)
      .ldx(BPF_W, R2, R10, -8)
      .add64_reg(R0, R2)
      .ldx(BPF_DW, R2, R10, -16)
      .add64_reg(R0, R2)
      .exit_();
  EXPECT_EQ(eval(a.build()),
            0x11ull + 0x2233 + 0x44556677 + 0x8899aabbccddeeffull);
}

TEST_P(EngineTest, StoreImmediate) {
  Asm a;
  a.st(BPF_W, R10, -4, 1234).ldx(BPF_W, R0, R10, -4).exit_();
  EXPECT_EQ(eval(a.build()), 1234u);
}

// ---- Jumps -------------------------------------------------------------------------

TEST_P(EngineTest, ConditionalTakenAndNotTaken) {
  Asm a;
  a.mov64_imm(R1, 10)
      .mov64_imm(R0, 0)
      .jgt_imm(R1, 5, "big")
      .mov64_imm(R0, 1)
      .exit_()
      .label("big")
      .mov64_imm(R0, 2)
      .exit_();
  EXPECT_EQ(eval(a.build()), 2u);
}

TEST_P(EngineTest, UnsignedVsSignedComparison) {
  // -1 unsigned is huge; signed it is less than 5.
  Asm a;
  a.mov64_imm(R1, -1)
      .mov64_imm(R0, 0)
      .jgt_imm(R1, 5, "u_big")  // taken (unsigned)
      .exit_()
      .label("u_big")
      .jmp_imm(BPF_JSGT, R1, 5, "s_big")  // NOT taken (signed)
      .mov64_imm(R0, 7)
      .exit_()
      .label("s_big")
      .mov64_imm(R0, 8)
      .exit_();
  EXPECT_EQ(eval(a.build()), 7u);
}

TEST_P(EngineTest, Jset) {
  Asm a;
  a.mov64_imm(R1, 0b1010)
      .mov64_imm(R0, 0)
      .jset_imm(R1, 0b0010, "hit")
      .exit_()
      .label("hit")
      .mov64_imm(R0, 1)
      .exit_();
  EXPECT_EQ(eval(a.build()), 1u);
}

TEST_P(EngineTest, Jmp32ComparesLow32Only) {
  Asm a;
  // R1 = 2^32 + 1: as 32-bit it is 1.
  a.ld_imm64(R1, 0x100000001ull)
      .mov64_imm(R0, 0)
      .raw({BPF_JMP32 | BPF_JEQ | BPF_K, R1, 0, 2, 1})  // jeq32 r1,1,+2
      .mov64_imm(R0, 1)
      .exit_()
      .mov64_imm(R0, 2)
      .exit_();
  EXPECT_EQ(eval(a.build()), 2u);
}

// ---- Helper calls -------------------------------------------------------------------

TEST_P(EngineTest, KtimeHelperFlowsThrough) {
  BpfSystem sys;
  Asm a;
  a.call(helper::KTIME_GET_NS).exit_();
  auto load = sys.load("t", ProgType::kLwtSeg6Local, a.build());
  ASSERT_TRUE(load.ok()) << load.verify.error;
  ExecEnv env;
  env.now_ns = 12345;
  sys.set_engine(GetParam());
  const ExecResult r = sys.run(*load.prog, env, 0);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.ret, 12345u);
  EXPECT_EQ(r.helper_calls, 1u);
}

TEST_P(EngineTest, InsnCountIsAccurate) {
  Asm a;
  a.mov64_imm(R0, 0);
  for (int i = 0; i < 10; ++i) a.add64_imm(R0, 1);
  a.exit_();
  const ExecResult r = run(a.build());
  EXPECT_EQ(r.ret, 10u);
  EXPECT_EQ(r.insns_executed, 12u);
}

// ---- Interpreter-only runtime guards (the JIT relies on the verifier) -----------

TEST(InterpreterGuards, OutOfBoundsLoadAborts) {
  // Hand-built (unverifiable) program: load from a wild pointer. Only the
  // interpreter runs unverified code.
  Asm a;
  a.ld_imm64(R1, 0x1000).ldx(BPF_DW, R0, R1, 0).exit_();
  Program prog("wild", ProgType::kLwtSeg6Local, a.build());
  Interpreter interp;
  ExecEnv env;
  const ExecResult r = interp.run(prog, env, 0);
  EXPECT_TRUE(r.aborted);
  EXPECT_NE(r.error.find("invalid read"), std::string::npos);
}

TEST(InterpreterGuards, StackWriteWithinBoundsAllowed) {
  Asm a;
  a.mov64_imm(R1, 1).stx(BPF_DW, R10, R1, -512).mov64_imm(R0, 0).exit_();
  Program prog("edge", ProgType::kLwtSeg6Local, a.build());
  Interpreter interp;
  ExecEnv env;
  EXPECT_FALSE(interp.run(prog, env, 0).aborted);
}

TEST(InterpreterGuards, StackOverflowWriteAborts) {
  Asm a;
  a.mov64_imm(R1, 1).stx(BPF_DW, R10, R1, -520).mov64_imm(R0, 0).exit_();
  Program prog("over", ProgType::kLwtSeg6Local, a.build());
  Interpreter interp;
  ExecEnv env;
  EXPECT_TRUE(interp.run(prog, env, 0).aborted);
}

TEST(InterpreterGuards, UnknownHelperAborts) {
  Asm a;
  a.call(9999).exit_();
  Program prog("badcall", ProgType::kLwtSeg6Local, a.build());
  Interpreter interp;
  HelperRegistry helpers;
  ExecEnv env;
  env.helpers = &helpers;
  const ExecResult r = interp.run(prog, env, 0);
  EXPECT_TRUE(r.aborted);
}

TEST(InterpreterGuards, StepBudgetIsExact) {
  // Unverifiable infinite loop (backward JA): the baseline engine must stop
  // at exactly kMaxInterpSteps executed instructions, not one or two past it
  // (regression test for the `executed++ > max` off-by-one).
  std::vector<Insn> prog_insns = {
      {BPF_ALU64 | BPF_MOV | BPF_K, 0, 0, 0, 0},  // r0 = 0
      {BPF_JMP | BPF_JA, 0, 0, -1, 0},            // loop: goto loop
  };
  Program prog("spin", ProgType::kLwtSeg6Local, std::move(prog_insns));
  Interpreter interp;
  ExecEnv env;
  const ExecResult r = interp.run(prog, env, 0);
  EXPECT_TRUE(r.aborted);
  EXPECT_NE(r.error.find("budget"), std::string::npos);
  EXPECT_EQ(r.insns_executed, kMaxInterpSteps);
}

TEST(InterpreterGuards, RegSrcNegAborts) {
  // BPF_NEG with the BPF_X source bit set is an invalid encoding (Linux
  // rejects it); both interpreters must refuse it at runtime too.
  for (const std::uint8_t cls : {BPF_ALU64, BPF_ALU}) {
    std::vector<Insn> insns = {
        {static_cast<std::uint8_t>(BPF_ALU64 | BPF_MOV | BPF_K), 0, 0, 0, 5},
        {static_cast<std::uint8_t>(cls | BPF_NEG | BPF_X), 0, 1, 0, 0},
        {BPF_JMP | BPF_EXIT, 0, 0, 0, 0},
    };
    Program prog("regneg", ProgType::kLwtSeg6Local, std::move(insns));
    Interpreter interp;
    ExecEnv env;
    const ExecResult r = interp.run(prog, env, 0);
    EXPECT_TRUE(r.aborted);
    EXPECT_NE(r.error.find("BPF_NEG"), std::string::npos);
  }
}

// ---- Decoded-program structural validation ------------------------------------

TEST(Decode, RejectsRegSrcNeg) {
  std::vector<Insn> insns = {
      {static_cast<std::uint8_t>(BPF_ALU64 | BPF_MOV | BPF_K), 0, 0, 0, 5},
      {static_cast<std::uint8_t>(BPF_ALU64 | BPF_NEG | BPF_X), 0, 1, 0, 0},
      {BPF_JMP | BPF_EXIT, 0, 0, 0, 0},
  };
  HelperRegistry helpers;
  EXPECT_THROW(decode_program(insns, &helpers), std::logic_error);
}

TEST(Decode, RejectsFallOffTheEnd) {
  std::vector<Insn> insns = {
      {static_cast<std::uint8_t>(BPF_ALU64 | BPF_MOV | BPF_K), 0, 0, 0, 5},
  };
  HelperRegistry helpers;
  EXPECT_THROW(decode_program(insns, &helpers), std::logic_error);
}

TEST(Decode, FusesLdImm64AndRewritesJumpTargets) {
  Asm a;
  a.ld_imm64(R0, 0x1122334455667788ull)
      .jeq_imm(R1, 0, "done")
      .mov64_imm(R0, 1)
      .label("done")
      .exit_();
  const auto prog = decode_program(a.build(), nullptr);
  // 5 slots collapse to 4 ops; the jump target is an absolute op index past
  // the fused ld_imm64.
  ASSERT_EQ(prog.size(), 4u);
  EXPECT_EQ(prog.ops()[0].kind, kLdImm64);
  EXPECT_EQ(prog.ops()[0].imm64, 0x1122334455667788ull);
  EXPECT_EQ(prog.ops()[1].kind, kJeqI);
  EXPECT_EQ(prog.ops()[1].target, 3);
}

}  // namespace
}  // namespace srv6bpf::ebpf
