// Differential fuzzing of the three execution engines.
//
// Generates random-but-verifiable programs from a seeded Rng and asserts
// that the baseline decode-every-step interpreter, the pre-decoded threaded
// interpreter and the native x86-64 JIT agree on everything observable:
// return value, executed-instruction count, helper-call count and map side
// effects. Any divergence is a bug by definition — this is the safety net
// under the decode-once refactor and the machine-code emitter (a miscompiled
// jump target or a wrong immediate extension shows up here long before it
// would surface in a paper-figure bench). On hosts without native support
// the kNative row falls back to the pre-decoded interpreter, so the
// comparison only covers the interpreters. Every generated program, accepted
// or not, is also a pruning-oracle case (pruning_oracle.h).
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "ebpf/asm.h"
#include "ebpf/helpers.h"
#include "ebpf/map.h"
#include "ebpf/vm.h"
#include "pruning_oracle.h"
#include "util/rng.h"

namespace srv6bpf::ebpf {
namespace {

constexpr int kWantedPrograms = 1000;
constexpr int kMaxAttempts = 4000;
constexpr std::uint32_t kMapEntries = 16;
// State budget of the pruning oracle's unpruned runs.
constexpr std::size_t kUnprunedBudget = 20000;

// Registers the generator uses as general-purpose scalars. All are
// initialised by the preamble so any gadget may read any of them.
constexpr int kGpRegs[] = {R0, R1, R2, R3, R4, R5};

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

void gadget_alu64_imm(GenState& g) {
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

void gadget_alu64_reg(GenState& g) {
  static constexpr std::uint8_t kOps[] = {BPF_ADD, BPF_SUB, BPF_MUL, BPF_DIV,
                                          BPF_MOD, BPF_OR,  BPF_AND, BPF_XOR,
                                          BPF_MOV, BPF_LSH, BPF_RSH, BPF_ARSH};
  const std::uint8_t op = kOps[g.rng.uniform(0, std::size(kOps) - 1)];
  g.a.raw({static_cast<std::uint8_t>(BPF_ALU64 | op | BPF_X),
           static_cast<std::uint8_t>(g.gp()),
           static_cast<std::uint8_t>(g.gp()), 0, 0});
}

void gadget_alu32(GenState& g) {
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

void gadget_neg(GenState& g) {
  g.a.raw({static_cast<std::uint8_t>(
               (g.rng.chance(0.5) ? BPF_ALU64 : BPF_ALU) | BPF_NEG | BPF_K),
           static_cast<std::uint8_t>(g.gp()), 0, 0, 0});
}

void gadget_bswap(GenState& g) {
  const int bits = 16 << g.rng.uniform(0, 2);
  if (g.rng.chance(0.5))
    g.a.to_be(g.gp(), bits);
  else
    g.a.to_le(g.gp(), bits);
}

void gadget_ld_imm64(GenState& g) { g.a.ld_imm64(g.gp(), g.rng.next_u64()); }

void gadget_stack_store(GenState& g) {
  const std::int16_t off = -8 * static_cast<std::int16_t>(g.rng.uniform(1, 8));
  g.a.stx(BPF_DW, R10, g.gp(), off);
  g.written_slots.push_back(off);
}

void gadget_stack_load(GenState& g) {
  if (g.written_slots.empty()) return gadget_stack_store(g);
  const std::int16_t off =
      g.written_slots[g.rng.uniform(0, g.written_slots.size() - 1)];
  // Narrower reloads of a written slot exercise all load widths.
  static constexpr std::uint8_t kSizes[] = {BPF_B, BPF_H, BPF_W, BPF_DW};
  g.a.ldx(kSizes[g.rng.uniform(0, 3)], g.gp(), R10, off);
}

void gadget_fwd_jump(GenState& g, const std::string& out_label) {
  static constexpr std::uint8_t kOps[] = {BPF_JEQ,  BPF_JNE,  BPF_JGT,
                                          BPF_JGE,  BPF_JLT,  BPF_JLE,
                                          BPF_JSET, BPF_JSGT, BPF_JSGE,
                                          BPF_JSLT, BPF_JSLE};
  const std::uint8_t op = kOps[g.rng.uniform(0, std::size(kOps) - 1)];
  if (g.rng.chance(0.5))
    g.a.jmp_imm(op, g.gp(), g.imm(), out_label);
  else
    g.a.jmp_reg(op, g.gp(), g.gp(), out_label);
}

void gadget_jmp32(GenState& g) {
  // JMP32 over one filler instruction (Asm labels only emit 64-bit jumps).
  static constexpr std::uint8_t kOps[] = {BPF_JEQ,  BPF_JNE,  BPF_JGT,
                                          BPF_JGE,  BPF_JLT,  BPF_JLE,
                                          BPF_JSET, BPF_JSGT, BPF_JSGE,
                                          BPF_JSLT, BPF_JSLE};
  const std::uint8_t op = kOps[g.rng.uniform(0, std::size(kOps) - 1)];
  const bool reg_src = g.rng.chance(0.5);
  if (reg_src)
    g.a.raw({static_cast<std::uint8_t>(BPF_JMP32 | op | BPF_X),
             static_cast<std::uint8_t>(g.gp()),
             static_cast<std::uint8_t>(g.gp()), 1, 0});
  else
    g.a.raw({static_cast<std::uint8_t>(BPF_JMP32 | op | BPF_K),
             static_cast<std::uint8_t>(g.gp()), 0, 1, g.imm()});
  g.a.mov64_imm(g.gp(), g.imm());  // skipped when the branch is taken
}

// Helper calls clobber the caller-saved argument registers R1-R5 (the
// verifier marks them uninitialised, as the kernel does); gadgets ending in
// a call must re-scalarise them so later gadgets may read any GP register.
void rescalarize_caller_saved(GenState& g) {
  for (const int r : {R1, R2, R3, R4, R5})
    g.a.mov64_imm(r, static_cast<std::int32_t>(g.rng.next_u32()));
}

void gadget_ktime(GenState& g) {
  g.a.call(helper::KTIME_GET_NS);
  rescalarize_caller_saved(g);
}

void gadget_prandom(GenState& g) { g.a.call(helper::GET_PRANDOM_U32); }

// lookup(map, key) -> increment value in place (covers helper dispatch, the
// map-value memory region, null checks and read-modify-write side effects).
void gadget_map_inc(GenState& g) {
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
void gadget_map_update(GenState& g) {
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

std::vector<Insn> generate(Rng& rng, std::uint32_t map_id) {
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

struct EngineObservation {
  ExecResult exec;
  std::vector<std::uint64_t> map_values;
};

// Program listing plus emitted-code size; built lazily, only when an
// assertion fails (gtest evaluates the streamed expression on failure).
std::string dump_program(const std::vector<Insn>& insns) {
  BpfSystem sys;
  const MapDef def{MapType::kArray, 4, 8, kMapEntries, "m"};
  sys.maps().create(def);
  auto load = sys.load("dump", ProgType::kLwtSeg6Local, insns);
  if (!load.ok()) return "(program no longer loads)\n" + disasm(insns);
  return disasm(insns) + "native: " +
         std::to_string(load.prog->native_code_size()) +
         " bytes\n";
}

EngineObservation run_on(EngineKind engine, const std::vector<Insn>& insns) {
  BpfSystem sys;
  const MapDef def{MapType::kArray, 4, 8, kMapEntries, "m"};
  const std::uint32_t map_id = sys.maps().create(def);
  EXPECT_EQ(map_id, 1u);  // generator hardcodes the first registry id

  auto load = sys.load("diff", ProgType::kLwtSeg6Local, insns);
  EngineObservation obs;
  if (!load.ok()) {
    obs.exec.aborted = true;
    obs.exec.error = "verifier: " + load.verify.error;
    return obs;
  }
  sys.set_engine(engine);

  // Each draw steps the PRNG state, so the map values show the order of
  // the helper calls.
  ExecEnv env;
  std::uint64_t prandom_state = 0x12345678;
  env.now_ns = 1000;
  env.prandom_state = &prandom_state;
  obs.exec = sys.run(*load.prog, env, 0);

  Map* map = sys.maps().get(map_id);
  for (std::uint32_t k = 0; k < kMapEntries; ++k) {
    std::uint8_t key[4];
    std::memcpy(key, &k, 4);
    const std::uint8_t* v = map->lookup({key, 4});
    std::uint64_t value = 0;
    if (v != nullptr) std::memcpy(&value, v, 8);
    obs.map_values.push_back(value);
  }
  return obs;
}

TEST(Differential, EnginesAgreeOnRandomPrograms) {
  Rng rng(0x5eed5eed2026ull);
  BpfSystem probe;  // verification probe so engines only see verified input
  const MapDef def{MapType::kArray, 4, 8, kMapEntries, "m"};
  const std::uint32_t map_id = probe.maps().create(def);

  int attempts = 0, verified = 0, compared = 0;
  for (; attempts < kMaxAttempts && verified < kWantedPrograms; ++attempts) {
    const std::vector<Insn> insns = generate(rng, map_id);
    const PruningOracle oracle =
        check_pruning(&probe.maps(), &probe.helpers(), insns,
                      ProgType::kLwtSeg6Local, kUnprunedBudget);
    if (oracle.compared) {
      ++compared;
      ASSERT_TRUE(oracle.agree()) << disasm(insns);
    }
    if (!oracle.pruned.ok) continue;
    ++verified;

    const EngineObservation base = run_on(EngineKind::kInterpBaseline, insns);
    const EngineObservation pre = run_on(EngineKind::kInterp, insns);
    const EngineObservation native = run_on(EngineKind::kNative, insns);

    ASSERT_TRUE(base.exec.ok())
        << base.exec.error << "\n" << dump_program(insns);
    ASSERT_TRUE(pre.exec.ok())
        << pre.exec.error << "\n" << dump_program(insns);
    ASSERT_TRUE(native.exec.ok())
        << native.exec.error << "\n" << dump_program(insns);

    for (const EngineObservation* row : {&pre, &native}) {
      ASSERT_EQ(base.exec.ret, row->exec.ret) << dump_program(insns);
      ASSERT_EQ(base.exec.insns_executed, row->exec.insns_executed)
          << dump_program(insns);
      ASSERT_EQ(base.exec.helper_calls, row->exec.helper_calls)
          << dump_program(insns);
      ASSERT_EQ(base.map_values, row->map_values) << dump_program(insns);
    }
  }
  // The generator is tuned so nearly every program verifies; if this drops
  // below the target the generator regressed, not the engines.
  EXPECT_GE(verified, kWantedPrograms);
  // Most unpruned runs must fit the oracle's budget, or it checks little.
  EXPECT_GE(compared, attempts * 9 / 10);
}

}  // namespace
}  // namespace srv6bpf::ebpf
