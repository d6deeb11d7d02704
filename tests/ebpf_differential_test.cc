// Differential fuzzing of the two execution engines.
//
// Generates random-but-verifiable programs from a seeded Rng and asserts
// that the interpreter and the native x86-64 JIT agree on everything
// observable: return value, executed-instruction count, helper-call count
// and map side effects. Any divergence is a bug by definition — this is the
// safety net under the machine-code emitter (a miscompiled jump target or a
// wrong immediate extension shows up here long before it would surface in a
// paper-figure bench). On hosts without native support the kNative row
// falls back to the interpreter, so the comparison checks nothing there.
// Every generated program, accepted or not, is also a pruning-oracle case
// (pruning_oracle.h). A second case sweeps every opcode byte, reachable and
// dead, through the verifier and both engines.
#include <gtest/gtest.h>

#include <array>
#include <bitset>
#include <cstring>
#include <string>
#include <vector>

#include "ebpf/map.h"
#include "ebpf/skb.h"
#include "ebpf/vm.h"
#include "ebpf_generator.h"
#include "pruning_oracle.h"
#include "util/rng.h"

namespace srv6bpf::ebpf {
namespace {

constexpr int kWantedPrograms = 1000;
constexpr int kMaxAttempts = 4000;
// State budget of the pruning oracle's unpruned runs.
constexpr std::size_t kUnprunedBudget = 20000;

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
  sys.set_jit_enabled(engine == EngineKind::kNative);

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

    const EngineObservation interp = run_on(EngineKind::kInterp, insns);
    const EngineObservation native = run_on(EngineKind::kNative, insns);

    ASSERT_TRUE(interp.exec.ok())
        << interp.exec.error << "\n" << dump_program(insns);
    ASSERT_TRUE(native.exec.ok())
        << native.exec.error << "\n" << dump_program(insns);

    ASSERT_EQ(interp.exec.ret, native.exec.ret) << dump_program(insns);
    ASSERT_EQ(interp.exec.insns_executed, native.exec.insns_executed)
        << dump_program(insns);
    ASSERT_EQ(interp.exec.helper_calls, native.exec.helper_calls)
        << dump_program(insns);
    ASSERT_EQ(interp.map_values, native.map_values) << dump_program(insns);
  }
  // The generator is tuned so nearly every program verifies; if this drops
  // below the target the generator regressed, not the engines.
  EXPECT_GE(verified, kWantedPrograms);
  // Most unpruned runs must fit the oracle's budget, or it checks little.
  EXPECT_GE(compared, attempts * 9 / 10);
}

// Every opcode byte with valid and invalid register fields and small
// immediates, live and dead. The verifier checks each instruction's
// encoding before it explores, so a load never fails after the verifier
// accepted, and what it accepts runs alike on both engines, with no abort.
// A dead instruction is stored and compiled as `ja -1`, the rest as given.
TEST(Differential, EveryOpcodeLiveAndDead) {
  constexpr Insn kTrap{BPF_JMP | BPF_JA, 0, 0, -1, 0};
  BpfSystem sys;
  std::array<std::uint8_t, 64> packet{};
  SkbRun run;
  run.point_data_at(packet);

  std::bitset<256> known;  // opcodes accepted in dead code
  for (int opcode = 0; opcode < 256; ++opcode)
    for (const std::uint8_t dst : {0, 2, 10, 11})
      for (const std::uint8_t src : {0, 1, 2, 11})
        for (const std::int32_t imm : {0, 5, 16})
          for (const bool dead : {false, true}) {
            const std::vector<Insn> insns = sweep_program(
                {static_cast<std::uint8_t>(opcode), dst, src, 0, imm}, dead);
            BpfSystem::LoadResult load;
            ASSERT_NO_THROW(
                load = sys.load("sweep", ProgType::kLwtSeg6Local, insns))
                << disasm(insns);
            if (!load.ok()) continue;
            if (dead) known.set(opcode);
            const std::vector<Insn>& stored = load.prog->program().insns();
            ASSERT_EQ(stored.size(), insns.size());
            for (std::size_t i = 0; i < insns.size(); ++i)
              ASSERT_EQ(stored[i], dead && i >= 2 && i + 1 < insns.size()
                                       ? kTrap
                                       : insns[i])
                  << i << "\n" << disasm(insns);

            sys.set_jit_enabled(false);
            const ExecResult interp =
                sys.run(*load.prog, run.env, run.ctx_addr());
            sys.set_jit_enabled(true);
            const ExecResult native =
                sys.run(*load.prog, run.env, run.ctx_addr());
            ASSERT_TRUE(interp.ok()) << interp.error << "\n" << disasm(insns);
            ASSERT_TRUE(native.ok()) << native.error << "\n" << disasm(insns);
            ASSERT_EQ(interp.ret, native.ret) << disasm(insns);
            ASSERT_EQ(interp.insns_executed, native.insns_executed)
                << disasm(insns);
            ASSERT_EQ(interp.helper_calls, native.helper_calls)
                << disasm(insns);
          }
  // Dead code passes on its encoding alone, so every known opcode shows up
  // there: ALU64 (25: twelve ops with K and X, NEG with K), ALU (27: the
  // same plus two byte swaps), ld_imm64, BPF_MEM loads and stores (12), JMP
  // (22 conditional, JA, CALL, EXIT) and JMP32 (22 conditional).
  EXPECT_EQ(known.count(), 112u);
}

}  // namespace
}  // namespace srv6bpf::ebpf
