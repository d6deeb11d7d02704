// Verifier accept/reject corpus. Mirrors the style of the kernel's
// tools/testing/selftests/bpf/verifier tests: each case is a small program
// plus an expectation about acceptance or the rejection reason. Every case
// is also a pruning-oracle case (pruning_oracle.h): it must get the same
// verdict with state pruning on and off.
#include <gtest/gtest.h>

#include <string>

#include "cbpf/expr.h"
#include "cbpf/translate.h"
#include "ebpf/asm.h"
#include "ebpf/helpers.h"
#include "ebpf/map.h"
#include "ebpf/perf_event.h"
#include "ebpf/verifier.h"
#include "pruning_oracle.h"
#include "seg6/helpers.h"

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
// the join is rejected. Both paths take two steps from the branch, so both
// reach the join before either leaves it; the taken path arrives first.
TEST_F(VerifierTest, JoinKeepsDeepStackWriteApartWhenWriterArrivesSecond) {
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

TEST_F(VerifierTest, JoinKeepsDeepStackWriteApartWhenWriterArrivesFirst) {
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

}  // namespace
}  // namespace srv6bpf::ebpf
