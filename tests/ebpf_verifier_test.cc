// Verifier accept/reject corpus. Mirrors the style of the kernel's
// tools/testing/selftests/bpf/verifier tests: each case is a small program
// plus an expectation about acceptance or the rejection reason. Every case
// is also a pruning-oracle case (pruning_oracle.h): it must get the same
// verdict with state pruning on and off.
#include <gtest/gtest.h>

#include <string>

#include "cbpf/expr.h"
#include "cbpf/translate.h"
#include "cbpf_generator.h"
#include "ebpf/asm.h"
#include "ebpf/helpers.h"
#include "ebpf/map.h"
#include "ebpf/perf_event.h"
#include "ebpf/verifier.h"
#include "ebpf/vm.h"
#include "ebpf_generator.h"
#include "pruning_oracle.h"
#include "seg6/helpers.h"
#include "usecases/programs.h"
#include "util/hash.h"
#include "util/rng.h"

namespace srv6bpf::ebpf {
namespace {

class VerifierTest : public ::testing::Test {
 protected:
  VerifierTest() {
    register_generic_helpers(helpers_);
    seg6::register_seg6_helpers(helpers_);
    map_id_ = maps_.create({MapType::kHash, 4, 8, 16, "h"});
    perf_id_ = create_perf_event_array(maps_, "perf");
  }

  // The pruned verdict, after checking it against the unpruned one.
  VerifyResult verify(const std::vector<Insn>& insns,
                      ProgType type = ProgType::kLwtSeg6Local) const {
    const PruningOracle o = check_pruning(&maps_, &helpers_, insns, type);
    EXPECT_TRUE(o.compared);
    EXPECT_TRUE(o.agree());
    return o.pruned;
  }
  VerifyResult verify(const Asm& a,
                      ProgType type = ProgType::kLwtSeg6Local) const {
    return verify(a.build(), type);
  }

  void expect_ok(const Asm& a, ProgType type = ProgType::kLwtSeg6Local) {
    const auto r = verify(a, type);
    EXPECT_TRUE(r.ok) << r.error;
  }
  void expect_reject(const Asm& a, const std::string& needle,
                     ProgType type = ProgType::kLwtSeg6Local) {
    const auto r = verify(a, type);
    EXPECT_FALSE(r.ok) << "expected rejection containing '" << needle << "'";
    if (!r.ok) {
      EXPECT_NE(r.error.find(needle), std::string::npos)
          << "actual error: " << r.error;
    }
  }

  MapRegistry maps_;
  HelperRegistry helpers_;
  std::uint32_t map_id_;
  std::uint32_t perf_id_;
};

// ---- CFG ----------------------------------------------------------------------

TEST_F(VerifierTest, EmptyProgramRejected) {
  const auto r = verify(std::vector<Insn>{});
  EXPECT_FALSE(r.ok);
}

TEST_F(VerifierTest, MinimalProgramAccepted) {
  Asm a;
  a.mov64_imm(R0, 0).exit_();
  expect_ok(a);
}

TEST_F(VerifierTest, RegSrcNegRejected) {
  // BPF_NEG has no register operand; Linux rejects the BPF_X encoding.
  for (const std::uint8_t cls : {BPF_ALU64, BPF_ALU}) {
    Asm a;
    a.mov64_imm(R0, 5)
        .raw({static_cast<std::uint8_t>(cls | BPF_NEG | BPF_X), 0, 1, 0, 0})
        .exit_();
    expect_reject(a, "BPF_NEG");
  }
}

TEST_F(VerifierTest, ImmNegStillAccepted) {
  Asm a;
  a.mov64_imm(R0, 5).neg64(R0).exit_();
  expect_ok(a);
}

TEST_F(VerifierTest, BackEdgeRejected) {
  Asm a;
  a.mov64_imm(R0, 0).label("loop").add64_imm(R0, 1).ja("loop");
  expect_reject(a, "back-edge");
}

TEST_F(VerifierTest, FallOffEndRejected) {
  Asm a;
  a.mov64_imm(R0, 0);  // no exit
  expect_reject(a, "falls off the end");
}

TEST_F(VerifierTest, JumpOutOfBoundsRejected) {
  Asm a;
  a.raw({BPF_JMP | BPF_JA, 0, 0, 100, 0}).exit_();
  expect_reject(a, "out of program bounds");
}

TEST_F(VerifierTest, JumpIntoLdImm64Rejected) {
  Asm a;
  a.raw({BPF_JMP | BPF_JA, 0, 0, 1, 0});  // lands on the aux slot
  a.ld_imm64(R0, 1).exit_();
  expect_reject(a, "middle of ld_imm64");
}

TEST_F(VerifierTest, UnreachableCodeRejected) {
  Asm a;
  a.mov64_imm(R0, 0).exit_().mov64_imm(R1, 1).exit_();
  expect_reject(a, "unreachable");
}

TEST_F(VerifierTest, TooManyInstructionsRejected) {
  Asm a;
  for (int i = 0; i < kMaxInsns; ++i) a.mov64_imm(R0, 0);
  a.exit_();
  expect_reject(a, "too large");
}

// ---- Encoding: every instruction, dead code included --------------------------------

TEST_F(VerifierTest, Alu64ByteSwapIsUnknownOpcode) {
  // Byte swaps are class ALU only; Linux 4.18 has no BPF_ALU64 | BPF_END.
  Asm a;
  a.mov64_imm(R0, 0x1234)
      .raw({BPF_ALU64 | BPF_END | BPF_TO_BE, R0, 0, 0, 16})
      .exit_();
  expect_reject(a, "unknown opcode df");
}

TEST_F(VerifierTest, UnusedSourceFieldOutOfRangeRejected) {
  // A K-form ALU instruction reads no source register, but its src field
  // still has to name one: the JIT maps every register field.
  Asm a;
  a.raw({BPF_ALU64 | BPF_MOV | BPF_K, R0, 15, 0, 5}).exit_();
  expect_reject(a, "unknown register r15");
}

TEST_F(VerifierTest, DeadInstructionEncodingChecked) {
  // r0 == 0 always takes the jump, so exploration never steps insn 2; its
  // encoding is checked all the same.
  Asm a;
  a.mov64_imm(R0, 0)
      .jeq_imm(R0, 0, "out")
      .raw({BPF_ALU64 | BPF_NEG | BPF_X, R0, R1, 0, 0})
      .label("out")
      .exit_();
  const auto r = verify(a);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("BPF_NEG"), std::string::npos) << r.error;
  EXPECT_EQ(r.error_insn, 2);
}

TEST_F(VerifierTest, DeadLdImm64OperandsChecked) {
  // As above, exploration never steps insn 2, an ld_imm64; its pseudo
  // source and, for a map load, its map id are checked all the same.
  const auto dead_load = [this](std::uint8_t src, std::int32_t imm) {
    Asm a;
    a.mov64_imm(R0, 0)
        .jeq_imm(R0, 0, "out")
        .raw({BPF_LD | BPF_DW | BPF_IMM, R1, src, 0, imm})
        .raw({0, 0, 0, 0, 0})
        .label("out")
        .exit_();
    return verify(a);
  };
  const auto pseudo = dead_load(2, 0);
  EXPECT_FALSE(pseudo.ok);
  EXPECT_NE(pseudo.error.find("unknown ld_imm64 pseudo source"),
            std::string::npos)
      << pseudo.error;
  EXPECT_EQ(pseudo.error_insn, 2);
  const auto map = dead_load(BPF_PSEUDO_MAP_FD, 99);
  EXPECT_FALSE(map.ok);
  EXPECT_NE(map.error.find("unknown map id 99"), std::string::npos)
      << map.error;
  EXPECT_EQ(map.error_insn, 2);
  EXPECT_TRUE(dead_load(BPF_PSEUDO_MAP_FD, static_cast<std::int32_t>(map_id_))
                  .ok);
}

// ---- Register initialisation -----------------------------------------------------

TEST_F(VerifierTest, ReadUninitialisedRegisterRejected) {
  Asm a;
  a.mov64_reg(R0, R2).exit_();
  expect_reject(a, "uninitialised register");
}

TEST_F(VerifierTest, ExitWithoutR0Rejected) {
  Asm a;
  a.exit_();
  expect_reject(a, "uninitialised");
}

TEST_F(VerifierTest, ExitWithPointerR0Rejected) {
  Asm a;
  a.mov64_reg(R0, R1).exit_();  // R1 = ctx pointer
  expect_reject(a, "scalar return value");
}

TEST_F(VerifierTest, WriteToFramePointerRejected) {
  Asm a;
  a.mov64_imm(R10, 0).mov64_imm(R0, 0).exit_();
  expect_reject(a, "read-only");
}

// ---- Stack ------------------------------------------------------------------------

TEST_F(VerifierTest, StackReadBeforeWriteRejected) {
  Asm a;
  a.ldx(BPF_DW, R0, R10, -8).exit_();
  expect_reject(a, "uninitialised stack");
}

TEST_F(VerifierTest, StackWriteThenReadOk) {
  Asm a;
  a.mov64_imm(R1, 7)
      .stx(BPF_DW, R10, R1, -8)
      .ldx(BPF_DW, R0, R10, -8)
      .exit_();
  expect_ok(a);
}

TEST_F(VerifierTest, StackOutOfBoundsRejected) {
  Asm a;
  a.mov64_imm(R1, 7).stx(BPF_DW, R10, R1, -520).mov64_imm(R0, 0).exit_();
  expect_reject(a, "stack access out of bounds");
}

TEST_F(VerifierTest, PositiveStackOffsetRejected) {
  Asm a;
  a.mov64_imm(R1, 7).stx(BPF_DW, R10, R1, 8).mov64_imm(R0, 0).exit_();
  expect_reject(a, "stack access out of bounds");
}

TEST_F(VerifierTest, PartiallyInitialisedStackReadRejected) {
  Asm a;
  a.mov64_imm(R1, 7)
      .stx(BPF_W, R10, R1, -8)      // only 4 of 8 bytes
      .ldx(BPF_DW, R0, R10, -8)
      .exit_();
  expect_reject(a, "uninitialised stack");
}

TEST_F(VerifierTest, PointerSpillAndFillPreservesType) {
  Asm a;
  a.stx(BPF_DW, R10, R1, -8)      // spill ctx
      .ldx(BPF_DW, R2, R10, -8)   // fill
      .ldx(BPF_W, R0, R2, 16)     // use as ctx: load skb->len
      .exit_();
  expect_ok(a);
}

TEST_F(VerifierTest, PartialPointerSpillRejected) {
  Asm a;
  a.stx(BPF_W, R10, R1, -8).mov64_imm(R0, 0).exit_();
  expect_reject(a, "pointer spill");
}

TEST_F(VerifierTest, PartialReadOfSpilledPointerRejected) {
  Asm a;
  a.stx(BPF_DW, R10, R1, -8)
      .ldx(BPF_W, R0, R10, -8)
      .exit_();
  expect_reject(a, "spilled pointer");
}

// ---- Ctx access ---------------------------------------------------------------------

TEST_F(VerifierTest, CtxLoadKnownFieldsOk) {
  Asm a;
  a.ldx(BPF_W, R0, R1, 16)   // len
      .ldx(BPF_W, R2, R1, 24)  // mark
      .ldx(BPF_DW, R3, R1, 32)  // tstamp
      .exit_();
  expect_ok(a);
}

TEST_F(VerifierTest, CtxLoadBadOffsetRejected) {
  Asm a;
  a.ldx(BPF_W, R0, R1, 17).exit_();
  expect_reject(a, "invalid ctx access");
}

TEST_F(VerifierTest, CtxLoadWrongSizeRejected) {
  Asm a;
  a.ldx(BPF_B, R0, R1, 16).exit_();
  expect_reject(a, "invalid ctx access");
}

TEST_F(VerifierTest, CtxWriteMarkAllowed) {
  Asm a;
  a.mov64_imm(R2, 1)
      .stx(BPF_W, R1, R2, 24)
      .mov64_imm(R0, 0)
      .exit_();
  expect_ok(a);
}

TEST_F(VerifierTest, CtxWriteReadOnlyFieldRejected) {
  Asm a;
  a.mov64_imm(R2, 1).stx(BPF_W, R1, R2, 16).mov64_imm(R0, 0).exit_();
  expect_reject(a, "read-only ctx field");
}

// ---- Packet access ---------------------------------------------------------------------

TEST_F(VerifierTest, PacketReadWithoutBoundsCheckRejected) {
  Asm a;
  a.ldx(BPF_DW, R2, R1, 0)   // data
      .ldx(BPF_B, R0, R2, 0)  // unchecked read
      .exit_();
  expect_reject(a, "bound check");
}

TEST_F(VerifierTest, PacketReadAfterBoundsCheckOk) {
  Asm a;
  a.ldx(BPF_DW, R2, R1, 0)    // data
      .ldx(BPF_DW, R3, R1, 8)  // data_end
      .mov64_reg(R4, R2)
      .add64_imm(R4, 40)
      .jgt_reg(R4, R3, "out")
      .ldx(BPF_B, R0, R2, 39)
      .exit_()
      .label("out")
      .mov64_imm(R0, 0)
      .exit_();
  expect_ok(a);
}

TEST_F(VerifierTest, PacketReadBeyondCheckedRangeRejected) {
  Asm a;
  a.ldx(BPF_DW, R2, R1, 0)
      .ldx(BPF_DW, R3, R1, 8)
      .mov64_reg(R4, R2)
      .add64_imm(R4, 40)
      .jgt_reg(R4, R3, "out")
      .ldx(BPF_B, R0, R2, 40)  // one past the verified range
      .exit_()
      .label("out")
      .mov64_imm(R0, 0)
      .exit_();
  expect_reject(a, "out of verified range");
}

TEST_F(VerifierTest, PacketWriteRejectedForLwtPrograms) {
  Asm a;
  a.ldx(BPF_DW, R2, R1, 0)
      .ldx(BPF_DW, R3, R1, 8)
      .mov64_reg(R4, R2)
      .add64_imm(R4, 40)
      .jgt_reg(R4, R3, "out")
      .mov64_imm(R5, 0)
      .stx(BPF_B, R2, R5, 0)  // direct packet write: forbidden (§3)
      .label("out")
      .mov64_imm(R0, 0)
      .exit_();
  expect_reject(a, "direct packet write");
}

TEST_F(VerifierTest, WrongBranchOfBoundsCheckRejected) {
  Asm a;
  a.ldx(BPF_DW, R2, R1, 0)
      .ldx(BPF_DW, R3, R1, 8)
      .mov64_reg(R4, R2)
      .add64_imm(R4, 40)
      .jgt_reg(R4, R3, "over")   // taken branch: data+40 > end -> NOT safe
      .mov64_imm(R0, 0)
      .exit_()
      .label("over")
      .ldx(BPF_B, R0, R2, 0)  // reading here is invalid
      .exit_();
  expect_reject(a, "bound check");
}

TEST_F(VerifierTest, PacketPointersKilledByResizingHelper) {
  Asm a;
  a.mov64_reg(R6, R1)
      .ldx(BPF_DW, R7, R6, 0)
      .ldx(BPF_DW, R8, R6, 8)
      .mov64_reg(R4, R7)
      .add64_imm(R4, 48)
      .jgt_reg(R4, R8, "out")
      // adjust_srh can reallocate the packet...
      .mov64_reg(R1, R6)
      .mov64_imm(R2, 48)
      .mov64_imm(R3, 8)
      .call(helper::LWT_SEG6_ADJUST_SRH)
      // ...so the old pointer must be unusable now.
      .ldx(BPF_B, R0, R7, 0)
      .exit_()
      .label("out")
      .mov64_imm(R0, 0)
      .exit_();
  expect_reject(a, "");  // either uninit reg or range error is acceptable
}

// ---- Pointer arithmetic ------------------------------------------------------------------

TEST_F(VerifierTest, PointerLeakToCtxRejected) {
  Asm a;
  a.mov64_reg(R2, R10)
      .stx(BPF_W, R1, R2, 24)  // store stack ptr into ctx->mark
      .mov64_imm(R0, 0)
      .exit_();
  expect_reject(a, "");
}

TEST_F(VerifierTest, UnboundedPacketOffsetRejected) {
  Asm a;
  a.ldx(BPF_DW, R2, R1, 0)
      .ldx(BPF_DW, R3, R1, 8)
      .ldx(BPF_DW, R4, R1, 32)  // tstamp: unknown scalar, unbounded
      .add64_reg(R2, R4)
      .mov64_imm(R0, 0)
      .exit_();
  expect_reject(a, "unbounded");
}

TEST_F(VerifierTest, PointerMultiplicationRejected) {
  Asm a;
  a.mov64_reg(R2, R10).mul64_imm(R2, 2).mov64_imm(R0, 0).exit_();
  expect_reject(a, "only add/sub");
}

TEST_F(VerifierTest, DereferencingScalarRejected) {
  Asm a;
  a.mov64_imm(R2, 0x1234).ldx(BPF_DW, R0, R2, 0).exit_();
  expect_reject(a, "not a pointer");
}

TEST_F(VerifierTest, DivisionByZeroImmediateRejected) {
  Asm a;
  a.mov64_imm(R0, 1).div64_imm(R0, 0).exit_();
  expect_reject(a, "division by zero");
}

TEST_F(VerifierTest, OversizedShiftRejected) {
  Asm a;
  a.mov64_imm(R0, 1).lsh64_imm(R0, 64).exit_();
  expect_reject(a, "shift amount");
}

// ---- Maps & helpers -----------------------------------------------------------------------

TEST_F(VerifierTest, MapLookupRequiresNullCheck) {
  Asm a;
  a.st(BPF_W, R10, -4, 0)
      .ld_map(R1, map_id_)
      .mov64_reg(R2, R10)
      .add64_imm(R2, -4)
      .call(helper::MAP_LOOKUP_ELEM)
      .ldx(BPF_DW, R0, R0, 0)  // no null check!
      .exit_();
  expect_reject(a, "null-checked");
}

TEST_F(VerifierTest, MapLookupWithNullCheckOk) {
  Asm a;
  a.st(BPF_W, R10, -4, 0)
      .ld_map(R1, map_id_)
      .mov64_reg(R2, R10)
      .add64_imm(R2, -4)
      .call(helper::MAP_LOOKUP_ELEM)
      .jeq_imm(R0, 0, "miss")
      .ldx(BPF_DW, R0, R0, 0)
      .exit_()
      .label("miss")
      .mov64_imm(R0, 0)
      .exit_();
  expect_ok(a);
}

// Only a 64-bit compare is a null check, as in the kernel's
// check_cond_jmp_op (`!is_jmp32`): a JMP32 compare reads the pointer's low
// half, so a map value whose low 32 bits are zero takes its "null" branch.
// Taken for a null check, it would let r10 + r0 - 1 pass as a stack slot
// on that branch, where the native JIT stores 7 at fp + pointer - 1. The
// generic pointer rule refuses the compare; the 64-bit form of the same
// program is accepted.
TEST_F(VerifierTest, Jmp32CompareOfMapValueIsNotANullCheck) {
  auto program = [this](bool is32, std::uint8_t op) {
    Asm a;
    a.st(BPF_W, R10, -4, 0)
        .ld_map(R1, map_id_)
        .mov64_reg(R2, R10)
        .add64_imm(R2, -4)
        .call(helper::MAP_LOOKUP_ELEM);
    if (is32)
      a.jmp32_imm(op, R0, 0, "L");
    else
      a.jmp_imm(op, R0, 0, "L");
    // The "null" side, JEQ's taken branch and JNE's fall-through, adds r0
    // to the frame pointer and stores through the sum.
    auto null_side = [](Asm& b) {
      b.mov64_reg(R1, R10).add64_reg(R1, R0).st(BPF_B, R1, -1, 7);
    };
    if (op == BPF_JNE) null_side(a);
    a.mov64_imm(R0, 0).exit_().label("L");
    if (op == BPF_JEQ) null_side(a);
    a.mov64_imm(R0, 0).exit_();
    return a;
  };
  for (const std::uint8_t op : {BPF_JEQ, BPF_JNE}) {
    SCOPED_TRACE(op == BPF_JEQ ? "jeq" : "jne");
    expect_reject(program(/*is32=*/true, op), "invalid pointer comparison");
    expect_ok(program(/*is32=*/false, op));
  }
}

TEST_F(VerifierTest, MapValueAccessOutOfBoundsRejected) {
  Asm a;
  a.st(BPF_W, R10, -4, 0)
      .ld_map(R1, map_id_)
      .mov64_reg(R2, R10)
      .add64_imm(R2, -4)
      .call(helper::MAP_LOOKUP_ELEM)
      .jeq_imm(R0, 0, "miss")
      .ldx(BPF_DW, R0, R0, 4)  // value_size is 8: bytes 4..11 overflow
      .exit_()
      .label("miss")
      .mov64_imm(R0, 0)
      .exit_();
  expect_reject(a, "map value access out of bounds");
}

TEST_F(VerifierTest, UnknownMapIdRejected) {
  Asm a;
  a.ld_map(R1, 999).mov64_imm(R0, 0).exit_();
  expect_reject(a, "unknown map");
}

TEST_F(VerifierTest, CallUnknownHelperRejected) {
  Asm a;
  a.call(4242).exit_();
  expect_reject(a, "unknown helper");
}

TEST_F(VerifierTest, HelperKeyArgMustBeInitialised) {
  Asm a;
  a.ld_map(R1, map_id_)
      .mov64_reg(R2, R10)
      .add64_imm(R2, -4)     // stack bytes never written
      .call(helper::MAP_LOOKUP_ELEM)
      .mov64_imm(R0, 0)
      .exit_();
  expect_reject(a, "uninitialised stack");
}

TEST_F(VerifierTest, HelperMapArgMustBeMapPointer) {
  Asm a;
  a.st(BPF_W, R10, -4, 0)
      .mov64_imm(R1, 5)  // scalar, not a map
      .mov64_reg(R2, R10)
      .add64_imm(R2, -4)
      .call(helper::MAP_LOOKUP_ELEM)
      .mov64_imm(R0, 0)
      .exit_();
  expect_reject(a, "must be a map pointer");
}

TEST_F(VerifierTest, PerfEventOutputChecksMemArg) {
  Asm a;
  a.mov64_reg(R6, R1)
      .mov64_reg(R1, R6)
      .ld_map(R2, perf_id_)
      .mov64_imm(R3, 0)
      .mov64_reg(R4, R10)
      .add64_imm(R4, -8)  // uninitialised stack bytes
      .mov64_imm(R5, 8)
      .call(helper::PERF_EVENT_OUTPUT)
      .mov64_imm(R0, 0)
      .exit_();
  expect_reject(a, "uninitialised stack");
}

TEST_F(VerifierTest, Seg6HelperRequiresSeg6LocalProgType) {
  Asm a;
  a.mov64_reg(R6, R1)
      .st(BPF_W, R10, -4, 0)
      .mov64_reg(R1, R6)
      .mov32_imm(R2, 3)
      .mov64_reg(R3, R10)
      .add64_imm(R3, -4)
      .mov32_imm(R4, 4)
      .call(helper::LWT_SEG6_ACTION)
      .mov64_imm(R0, 0)
      .exit_();
  expect_ok(a, ProgType::kLwtSeg6Local);
  expect_reject(a, "not allowed for program type", ProgType::kLwtXmit);
}

TEST_F(VerifierTest, PushEncapOnlyForLwtHooks) {
  Asm a;
  a.mov64_reg(R6, R1)
      .st(BPF_DW, R10, -8, 0)
      .mov64_reg(R1, R6)
      .mov32_imm(R2, 1)
      .mov64_reg(R3, R10)
      .add64_imm(R3, -8)
      .mov32_imm(R4, 8)
      .call(helper::LWT_PUSH_ENCAP)
      .mov64_imm(R0, 0)
      .exit_();
  expect_ok(a, ProgType::kLwtXmit);
  expect_reject(a, "not allowed for program type", ProgType::kLwtSeg6Local);
}

TEST_F(VerifierTest, UnnamedProgTypeMayCallNoHelper) {
  // A ProgType value the enum does not list gets no helper: not the seg6
  // helper only End.BPF may call, not one every named type may call.
  const auto unnamed = static_cast<ProgType>(42);
  Asm adjust;
  adjust.mov64_imm(R2, 48)
      .mov64_imm(R3, 8)
      .call(helper::LWT_SEG6_ADJUST_SRH)
      .mov64_imm(R0, 0)
      .exit_();
  expect_ok(adjust, ProgType::kLwtSeg6Local);
  expect_reject(adjust,
                "helper lwt_seg6_adjust_srh not allowed for program type "
                "socket_filter",
                ProgType::kSocketFilter);
  expect_reject(adjust,
                "helper lwt_seg6_adjust_srh not allowed for program type ?",
                unnamed);

  Asm ktime;
  ktime.call(helper::KTIME_GET_NS).exit_();
  expect_ok(ktime, ProgType::kSocketFilter);
  expect_reject(ktime, "helper ktime_get_ns not allowed for program type ?",
                unnamed);
}

// ---- Branch pruning / bounds refinement -----------------------------------------------------

TEST_F(VerifierTest, RangeRefinementAllowsBoundedIndexing) {
  // A scalar proven < 8 may index an 8-byte window on the stack.
  Asm a;
  a.ldx(BPF_W, R2, R1, 16)   // unknown scalar (skb->len)
      .and64_imm(R2, 7)      // now in [0,7]
      .mov64_imm(R3, 0)
      .stx(BPF_DW, R10, R3, -8)
      .mov64_reg(R4, R10)
      .add64_imm(R4, -8)
      .add64_reg(R4, R2)     // stack ptr with bounded variable offset...
      .mov64_imm(R0, 0)
      .exit_();
  // ...but our verifier (like the kernel for a long time) requires constant
  // stack offsets for *access*; merely forming the pointer is fine.
  expect_ok(a);
}

TEST_F(VerifierTest, VariableStackAccessRejected) {
  Asm a;
  a.ldx(BPF_W, R2, R1, 16)
      .and64_imm(R2, 7)
      .mov64_reg(R4, R10)
      .add64_imm(R4, -16)
      .add64_reg(R4, R2)
      .ldx(BPF_B, R0, R4, 0)
      .exit_();
  expect_reject(a, "variable offset into stack");
}

TEST_F(VerifierTest, InfeasibleBranchNotExplored) {
  // After `if (r2 > 10) exit`, the fall-through has r2 <= 10, so a second
  // check `if (r2 > 20)` can never be taken; the verifier must not complain
  // about the (dead) unchecked packet access... it still explores the branch
  // structurally, so keep the dead branch safe. What we check here: bounds
  // refinement makes the final packet read valid.
  Asm a;
  a.ldx(BPF_DW, R2, R1, 0)    // data
      .ldx(BPF_DW, R3, R1, 8)  // data_end
      .ldx(BPF_W, R4, R1, 16)  // len (scalar)
      .jgt_imm(R4, 10, "out")
      // r4 in [0,10]
      .mov64_reg(R5, R2)
      .add64_reg(R5, R4)       // pkt + [0,10]
      .add64_imm(R5, 1)        // pkt + [1,11]
      .jgt_reg(R5, R3, "out")  // check pkt+[1,11] <= end -> proves >=1 byte
      .ldx(BPF_B, R0, R2, 0)   // safe: 1 byte from start
      .exit_()
      .label("out")
      .mov64_imm(R0, 0)
      .exit_();
  expect_ok(a);
}

TEST_F(VerifierTest, StatsReportPruning) {
  Asm a;
  // Diamond: two paths converge with identical state; pruning should kick
  // in. JSET performs no range refinement, so both sides stay identical.
  a.ldx(BPF_W, R2, R1, 16)
      .jset_imm(R2, 4, "b")
      .mov64_imm(R3, 0)
      .ja("join")
      .label("b")
      .mov64_imm(R3, 0)
      .label("join")
      .mov64_imm(R0, 0)
      .exit_();
  const auto r = verify(a);
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_GT(r.stats.states_pruned, 0u);
}

// A chain of JSET diamonds has 2^n paths, but both sides of each diamond
// reach its join in the same state, so pruning keeps the walk linear: the
// load, four states per diamond, and the final mov and exit.
TEST_F(VerifierTest, PrunedDiamondChainGrowsLinearly) {
  for (int n = 1; n <= 14; ++n) {
    Asm a;
    a.ldx(BPF_W, R2, R1, 16);
    for (int i = 0; i < n; ++i) {
      const std::string t = "t" + std::to_string(i);
      const std::string join = "j" + std::to_string(i);
      a.jset_imm(R2, 1 << (i % 8), t)
          .mov64_imm(R3, 0)
          .ja(join)
          .label(t)
          .mov64_imm(R3, 0)
          .label(join);
    }
    a.mov64_imm(R0, 0).exit_();
    const auto r = verify(a);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.stats.states_visited, 4u * n + 3) << n << " diamonds";
    EXPECT_EQ(r.stats.states_pruned, static_cast<std::size_t>(n));
  }
}

// Stack state is kept only as deep as a path wrote it. Where two paths join
// and only one wrote fp-512, the other's stack is shorter, and the join must
// still tell the two apart: nothing is pruned, and the read of fp-512 after
// the join is rejected. The verifier walks the fall-through path to its end
// first. Where the writer arrives second, the path without the write
// reaches the join first and its read is rejected before the writer gets
// there; where the writer arrives first, the join compares the shorter
// stack arriving second with the deeper one it stored.
TEST_F(VerifierTest, JoinKeepsDeepStackWriteApartWhenWriterArrivesSecond) {
  Asm a;
  a.ldx(BPF_W, R2, R1, 16)
      .jset_imm(R2, 1, "write")
      .mov64_reg(R2, R2)
      .ja("join")
      .label("write")
      .st(BPF_DW, R10, -512, 0)
      .mov64_reg(R2, R2)
      .label("join")
      .ldx(BPF_DW, R0, R10, -512)
      .exit_();
  expect_reject(a, "uninitialised stack at off -512");
  EXPECT_EQ(verify(a).stats.states_pruned, 0u);
}

TEST_F(VerifierTest, JoinKeepsDeepStackWriteApartWhenWriterArrivesFirst) {
  Asm a;
  a.ldx(BPF_W, R2, R1, 16)
      .jset_imm(R2, 1, "nowrite")
      .st(BPF_DW, R10, -512, 0)
      .ja("join")
      .label("nowrite")
      .mov64_reg(R2, R2)
      .mov64_reg(R2, R2)
      .label("join")
      .ldx(BPF_DW, R0, R10, -512)
      .exit_();
  expect_reject(a, "uninitialised stack at off -512");
  EXPECT_EQ(verify(a).stats.states_pruned, 0u);
}

// The writer arrives second, and nothing reads fp-512 after the join, so the
// path without the write gets there first and survives: the join must keep
// the deeper stack arriving second apart from the shorter one it stored.
TEST_F(VerifierTest, JoinKeepsUnreadDeepStackWriteApart) {
  Asm a;
  a.ldx(BPF_W, R2, R1, 16)
      .jset_imm(R2, 1, "write")
      .mov64_reg(R2, R2)
      .ja("join")
      .label("write")
      .st(BPF_DW, R10, -512, 0)
      .mov64_reg(R2, R2)
      .label("join")
      .mov64_imm(R0, 0)
      .exit_();
  expect_ok(a);
  EXPECT_EQ(verify(a).stats.states_pruned, 0u);
}

// The filter expressions of bench_filter and DelayMonitorLab, translated to
// eBPF socket filters: oracle cases like every other.
TEST_F(VerifierTest, FilterExpressionsKeepTheirVerdict) {
  for (const char* expr :
       {"udp", "udp and dst port 7001", "udp and dst port 9999",
        "srh and udp and dst port 7001",
        "ip6 and (dst net fc00:2::/64 or dst host fc00:1::1) and not tcp"}) {
    SCOPED_TRACE(expr);
    const cbpf::CompileResult cr = cbpf::compile(expr);
    ASSERT_TRUE(cr.ok) << cr.error;
    const cbpf::TranslateResult tr = cbpf::translate(cr.insns);
    ASSERT_TRUE(tr.ok) << tr.error;
    const auto r = verify(tr.insns, ProgType::kSocketFilter);
    EXPECT_TRUE(r.ok) << r.error;
  }
}

// ---- Golden -------------------------------------------------------------------

// What the verifier says of a fixed corpus, with pruning on and off, folded
// into one FNV-1a digest: each program's verdict, error instruction and
// error text and, for an accepted program, the states visited and pruned
// and the instructions reached. A rejected program's state count is left
// out: it depends on the order in which exploration walks the paths. The
// corpus: programs of the eBPF differential generator and of the opcode
// sweep (ebpf_generator.h), translations of the classic generator's
// programs (cbpf_generator.h), the filter expressions and every
// usecases/programs.h program. A verifier change that moves the digest
// changes what the verifier says of some program: re-pin it only on
// purpose, with a CHANGES.md line saying why.
class VerifierGolden : public ::testing::Test {
 protected:
  // The generated programs' unpruned runs get the differential tests'
  // budget; the named programs get the default.
  static constexpr std::size_t kGeneratedBudget = 20000;

  PruningOracle add(BpfSystem& sys, const std::vector<Insn>& insns,
                    ProgType type,
                    std::size_t unpruned_budget = VerifyOptions{}.max_states) {
    const PruningOracle o =
        check_pruning(&sys.maps(), &sys.helpers(), insns, type,
                      unpruned_budget);
    fold(o.pruned);
    fold(o.unpruned);
    ++programs_;
    return o;
  }

  void fold(const VerifyResult& r) {
    digest_ = fnv1a_u64(digest_, r.ok);
    digest_ = fnv1a_u64(digest_, static_cast<std::uint64_t>(
                                           std::int64_t{r.error_insn}));
    digest_ = fnv1a_u64(digest_, r.error.size());
    digest_ = fnv1a_bytes(
        digest_, {reinterpret_cast<const std::uint8_t*>(r.error.data()),
                  r.error.size()});
    if (!r.ok) return;
    digest_ = fnv1a_u64(digest_, r.stats.states_visited);
    digest_ = fnv1a_u64(digest_, r.stats.states_pruned);
    for (const bool reached : r.reached)
      digest_ = fnv1a_u64(digest_, reached);
  }

  std::uint64_t digest_ = kFnv1aBasis;
  std::size_t programs_ = 0;
};

TEST_F(VerifierGolden, CorpusDigestIsPinned) {
  {  // The eBPF differential generator's first 1,000 programs.
    BpfSystem sys;
    const std::uint32_t map_id =
        sys.maps().create({MapType::kArray, 4, 8, kMapEntries, "m"});
    Rng rng(0x5eed5eed2026ull);
    for (int i = 0; i < 1000; ++i)
      add(sys, generate(rng, map_id), ProgType::kLwtSeg6Local,
          kGeneratedBudget);
  }
  {  // Every opcode byte, live and dead, as Differential sweeps them.
    BpfSystem sys;
    for (int opcode = 0; opcode < 256; ++opcode)
      for (const std::uint8_t dst : {0, 2, 10, 11})
        for (const std::uint8_t src : {0, 1, 2, 11})
          for (const std::int32_t imm : {0, 5, 16})
            for (const bool dead : {false, true})
              add(sys,
                  sweep_program(
                      {static_cast<std::uint8_t>(opcode), dst, src, 0, imm},
                      dead),
                  ProgType::kLwtSeg6Local);
  }
  {  // Translations of the classic generator's programs, wrap band last.
    BpfSystem sys;
    Rng rng(0xcbcbf17e2026ull);
    Rng wrap_rng(0x3a9f00c0ffeeull);
    for (int i = 0; i < 1200; ++i) {
      const bool wrap = i >= 1000;
      const cbpf::TranslateResult tr =
          cbpf::translate(cbpf::generate(wrap ? wrap_rng : rng, wrap));
      ASSERT_TRUE(tr.ok) << tr.error;
      add(sys, tr.insns, ProgType::kSocketFilter, kGeneratedBudget);
    }
  }
  {  // The filter expressions; bench_filter's four with their state counts.
    BpfSystem sys;
    const struct {
      const char* expr;
      std::size_t states, states_unpruned;  // 0: not pinned
    } filters[] = {
        {"udp", 780, 12603},
        {"udp and dst port 7001", 894, 25903},
        {"srh and udp and dst port 7001", 724, 27268},
        {"ip6 and (dst net fc00:2::/64 or dst host fc00:1::1) and not tcp",
         1606, 60343},
        {"udp and dst port 9999", 0, 0},
    };
    for (const auto& f : filters) {
      SCOPED_TRACE(f.expr);
      const cbpf::TranslateResult tr =
          cbpf::translate(cbpf::compile(f.expr).insns);
      ASSERT_TRUE(tr.ok) << tr.error;
      const PruningOracle o = add(sys, tr.insns, ProgType::kSocketFilter);
      EXPECT_TRUE(o.pruned.ok) << o.pruned.error;
      if (f.states == 0) continue;
      EXPECT_EQ(o.pruned.stats.states_visited, f.states);
      EXPECT_EQ(o.unpruned.stats.states_visited, f.states_unpruned);
    }
  }
  {  // Every usecases/programs.h program; Tag++ and Add TLV with counts.
    BpfSystem sys;
    seg6::register_seg6_helpers(sys.helpers());
    MapDef def{MapType::kArray, 4, sizeof(usecases::DmEncapConfig), 1, "cfg"};
    const std::uint32_t cfg_id = sys.maps().create(def);
    def.value_size = sizeof(usecases::WrrConfig);
    const std::uint32_t wrr_id = sys.maps().create(def);
    const std::uint32_t perf_id = create_perf_event_array(sys.maps(), "perf");
    const std::uint32_t cnt_id =
        sys.maps().create({MapType::kPerCpuArray, 4, 8, 1, "cnt"});
    constexpr ProgType kSeg6 = ProgType::kLwtSeg6Local;
    constexpr ProgType kXmit = ProgType::kLwtXmit;
    const struct {
      usecases::BuiltProgram built;
      ProgType type;
      std::size_t states, states_pruned, states_unpruned;  // 0: not pinned
    } programs[] = {
        {usecases::build_end(), kSeg6, 0, 0, 0},
        {usecases::build_end_t(0), kSeg6, 0, 0, 0},
        {usecases::build_tag_increment(), kSeg6, 31, 1, 33},
        {usecases::build_add_tlv(), kSeg6, 43, 1, 45},
        {usecases::build_dm_encap(cfg_id), kXmit, 0, 0, 0},
        {usecases::build_end_dm(perf_id), kSeg6, 0, 0, 0},
        {usecases::build_end_dm_twd(), kSeg6, 0, 0, 0},
        {usecases::build_wrr(wrr_id), kXmit, 0, 0, 0},
        {usecases::build_end_oamp(perf_id), kSeg6, 0, 0, 0},
        {usecases::build_percpu_counter(cnt_id), kSeg6, 0, 0, 0},
    };
    for (const auto& p : programs) {
      SCOPED_TRACE(p.built.name);
      const PruningOracle o = add(sys, p.built.insns, p.type);
      EXPECT_TRUE(o.pruned.ok) << o.pruned.error;
      if (p.states == 0) continue;
      EXPECT_EQ(o.pruned.stats.states_visited, p.states);
      EXPECT_EQ(o.pruned.stats.states_pruned, p.states_pruned);
      EXPECT_EQ(o.unpruned.stats.states_visited, p.states_unpruned);
    }
  }
  EXPECT_EQ(programs_, 1000u + 24576u + 1200u + 5u + 10u);
  EXPECT_EQ(digest_, 0x0a9033d260f73f05ull);
}

}  // namespace
}  // namespace srv6bpf::ebpf
