#include <gtest/gtest.h>

#include "ebpf/asm.h"
#include "ebpf/insn.h"

namespace srv6bpf::ebpf {
namespace {

TEST(Asm, EncodesMovImm) {
  Asm a;
  a.mov64_imm(R1, 42).exit_();
  const auto prog = a.build();
  ASSERT_EQ(prog.size(), 2u);
  EXPECT_EQ(prog[0].opcode, BPF_ALU64 | BPF_MOV | BPF_K);
  EXPECT_EQ(prog[0].dst, R1);
  EXPECT_EQ(prog[0].imm, 42);
  EXPECT_EQ(prog[1].opcode, BPF_JMP | BPF_EXIT);
}

TEST(Asm, LdImm64TakesTwoSlots) {
  Asm a;
  a.ld_imm64(R2, 0x1122334455667788ull).exit_();
  const auto prog = a.build();
  ASSERT_EQ(prog.size(), 3u);
  EXPECT_TRUE(prog[0].is_ld_imm64());
  EXPECT_EQ(static_cast<std::uint32_t>(prog[0].imm), 0x55667788u);
  EXPECT_EQ(static_cast<std::uint32_t>(prog[1].imm), 0x11223344u);
}

TEST(Asm, LdMapUsesPseudoSrc) {
  Asm a;
  a.ld_map(R1, 7).exit_();
  const auto prog = a.build();
  EXPECT_EQ(prog[0].src, BPF_PSEUDO_MAP_FD);
  EXPECT_EQ(prog[0].imm, 7);
}

TEST(Asm, ForwardLabelResolution) {
  Asm a;
  a.jeq_imm(R1, 0, "skip")
      .mov64_imm(R0, 1)
      .label("skip")
      .mov64_imm(R0, 2)
      .exit_();
  const auto prog = a.build();
  // jeq at 0, target at index 2 -> off = 2 - 0 - 1 = 1.
  EXPECT_EQ(prog[0].off, 1);
}

TEST(Asm, BackwardLabelIsNegativeOffset) {
  Asm a;
  a.label("top").mov64_imm(R0, 0).ja("top");
  const auto prog = a.build();
  EXPECT_EQ(prog[1].off, -2);
}

TEST(Asm, UndefinedLabelThrows) {
  Asm a;
  a.ja("nowhere").exit_();
  EXPECT_THROW(a.build(), std::runtime_error);
}

TEST(Asm, DuplicateLabelThrows) {
  Asm a;
  a.label("x");
  EXPECT_THROW(a.label("x"), std::runtime_error);
}

TEST(Asm, LabelOffsetsSkipLdImm64Slots) {
  Asm a;
  a.jeq_imm(R1, 0, "end").ld_imm64(R2, 99).label("end").exit_();
  const auto prog = a.build();
  // Slots: 0 jump, 1+2 ld_imm64, 3 exit -> off = 3 - 0 - 1 = 2.
  EXPECT_EQ(prog[0].off, 2);
}

// A labelled JMP32 jump resolves like a 64-bit one, forward and backward,
// and keeps its class.
TEST(Asm, Jmp32LabelsResolveForwardAndBackward) {
  Asm a;
  a.label("top")
      .jmp32_imm(BPF_JEQ, R1, 5, "end")
      .mov64_imm(R0, 1)
      .jmp32_reg(BPF_JGT, R1, R2, "top")
      .label("end")
      .exit_();
  const auto prog = a.build();
  // Forward: jump at 0, "end" at 3 -> off = 3 - 0 - 1 = 2.
  EXPECT_EQ(prog[0].opcode, BPF_JMP32 | BPF_JEQ | BPF_K);
  EXPECT_EQ(prog[0].off, 2);
  // Backward: jump at 2, "top" at 0 -> off = 0 - 2 - 1 = -3.
  EXPECT_EQ(prog[2].opcode, BPF_JMP32 | BPF_JGT | BPF_X);
  EXPECT_EQ(prog[2].src, R2);
  EXPECT_EQ(prog[2].off, -3);
  const std::string text = disasm(prog);
  EXPECT_NE(text.find("0: jeq32 r1, 5, +2\n"), std::string::npos) << text;
  EXPECT_NE(text.find("2: jgt32 r1, r2, -3\n"), std::string::npos) << text;
}

TEST(Disasm, ReadableOutput) {
  Asm a;
  a.mov64_imm(R1, 5)
      .add64_reg(R1, R2)
      .ldx(BPF_W, R0, R1, 4)
      .stx(BPF_DW, R10, R0, -8)
      .ld_imm64(R3, 0xfedcba9876543210ull)
      .ld_map(R4, 7)
      .jeq_imm(R3, 42, "out")
      .st(BPF_H, R10, -16, 9)
      .to_be(R3, 16)
      .neg64(R1)
      .call(5)
      .label("out")
      .exit_();
  const std::string text = disasm(a.build());
  EXPECT_NE(text.find("mov64 r1, 5"), std::string::npos);
  EXPECT_NE(text.find("add64 r1, r2"), std::string::npos);
  EXPECT_NE(text.find("ldxu32 r0, [r1+4]"), std::string::npos);
  EXPECT_NE(text.find("call 5"), std::string::npos);
  EXPECT_NE(text.find("exit"), std::string::npos);
  // An ld_imm64 pair is one line with the whole 64-bit immediate, and the
  // listing goes on at the slot after the pair: no line for slot 5 or 7.
  EXPECT_NE(text.find("\n4: ld_imm64 r3, 0xfedcba9876543210\n"
                      "6: ld_map r4, map#7\n"
                      "8: jeq r3, 42, +4\n"
                      "9: stu16 [r10-16], 9\n"
                      "10: be16 r3\n"
                      "11: neg64 r1\n"),
            std::string::npos)
      << text;
}

// A JMP32 conditional names its width, and a backward jump prints its
// offset with one sign.
TEST(Disasm, Jmp32WidthAndBackwardOffsets) {
  EXPECT_EQ(disasm(Insn{BPF_JMP32 | BPF_JEQ | BPF_K, R1, 0, 1, 5}),
            "jeq32 r1, 5, +1");
  EXPECT_EQ(disasm(Insn{BPF_JMP32 | BPF_JGT | BPF_X, R1, R2, -3, 0}),
            "jgt32 r1, r2, -3");
  EXPECT_EQ(disasm(Insn{BPF_JMP | BPF_JEQ | BPF_K, R1, 0, -3, 5}),
            "jeq r1, 5, -3");
  EXPECT_EQ(disasm(Insn{BPF_JMP | BPF_JA, 0, 0, -3, 0}), "ja -3");
  EXPECT_EQ(disasm(Insn{BPF_JMP | BPF_JA, 0, 0, 2, 0}), "ja +2");
}

TEST(Insn, FieldPredicates) {
  Insn call{BPF_JMP | BPF_CALL, 0, 0, 0, 5};
  EXPECT_TRUE(call.is_call());
  EXPECT_FALSE(call.is_jump());
  Insn ja{BPF_JMP | BPF_JA, 0, 0, 3, 0};
  EXPECT_TRUE(ja.is_jump());
  EXPECT_TRUE(ja.is_unconditional_jump());
  EXPECT_EQ(access_size(BPF_W), 4);
  EXPECT_EQ(access_size(BPF_DW), 8);
  EXPECT_EQ(access_size(BPF_H), 2);
  EXPECT_EQ(access_size(BPF_B), 1);
}

}  // namespace
}  // namespace srv6bpf::ebpf
