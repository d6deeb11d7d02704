// Ablation benchmarks for three design choices:
//
//  A. Verifier state pruning — identical-state deduplication bounds the
//     symbolic exploration of branchy programs.
//  B. WRR weights — what happens to the §4.2 TCP goodput when the scheduler
//     weights do NOT match the link capacities (5:3).
//  C. Map backend — array vs hash lookup cost on the scheduler fast path.
#include <chrono>
#include <cstdio>

#include "bench_common.h"
#include "ebpf/asm.h"
#include "ebpf/map.h"
#include "ebpf/verifier.h"
#include "usecases/hybrid.h"

using namespace srv6bpf;
using namespace srv6bpf::bench;

namespace {

void ablate_verifier_pruning() {
  std::printf("\n-- A. verifier state pruning --\n");
  // A branchy diamond chain: 2^N paths without pruning.
  // JSET performs no range refinement, so both sides of every diamond
  // converge to identical states — the pattern pruning is designed for.
  ebpf::Asm a;
  a.ldx(ebpf::BPF_W, ebpf::R2, ebpf::R1, 16);
  for (int i = 0; i < 14; ++i) {
    const std::string t = "t" + std::to_string(i);
    const std::string join = "j" + std::to_string(i);
    a.jset_imm(ebpf::R2, 1 << (i % 8), t)
        .mov64_imm(ebpf::R3, 0)
        .ja(join)
        .label(t)
        .mov64_imm(ebpf::R3, 0)
        .label(join);
  }
  a.mov64_imm(ebpf::R0, 0).exit_();
  const auto insns = a.build();

  ebpf::MapRegistry maps;
  ebpf::HelperRegistry helpers;
  ebpf::register_generic_helpers(helpers);

  for (const bool pruning : {true, false}) {
    ebpf::VerifyOptions opts;
    opts.enable_pruning = pruning;
    opts.max_states = 2'000'000;
    ebpf::Verifier v(&maps, &helpers, opts);
    const auto t0 = std::chrono::steady_clock::now();
    const auto r = v.verify(insns, ebpf::ProgType::kLwtSeg6Local);
    const auto t1 = std::chrono::steady_clock::now();
    std::printf("  pruning %-3s: ok=%d states=%-8zu pruned=%-8zu  %8.2f ms\n",
                pruning ? "on" : "off", r.ok, r.stats.states_visited,
                r.stats.states_pruned,
                std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
}

void ablate_wrr_weights() {
  std::printf("\n-- B. WRR weights vs link capacities (TCP, TWD "
              "compensation on, 8 s) --\n");
  std::printf("   (with a reordering-fragile NewReno, residual inter-link skew\n"
              "    costs more than aggregation gains: single-link 1:0 wins --\n"
              "    quantifying exactly why the paper needed the TWD daemon)\n");
  struct Case {
    const char* name;
    std::uint64_t w1, w2;
  } cases[] = {
      {"5:3 (matches 50/30 Mbps)", 5, 3},
      {"1:1 (mismatched)", 1, 1},
      {"1:0 (slow... er, xDSL only)", 1, 0},
  };
  for (const auto& c : cases) {
    usecases::HybridLab::Options opts;
    opts.twd_compensation = true;
    opts.weight1 = c.w1;
    opts.weight2 = c.w2;
    usecases::HybridLab lab(opts);
    lab.net().run_for(2 * sim::kSecond);
    const double goodput = lab.run_tcp(1, 8 * sim::kSecond);
    std::printf("  %-28s -> %6.1f Mbps\n", c.name, goodput);
  }
}

void ablate_map_backend() {
  std::printf("\n-- C. map backend lookup cost (1M lookups, 4-byte key) --\n");
  for (const auto type : {ebpf::MapType::kArray, ebpf::MapType::kHash}) {
    ebpf::MapDef def;
    def.type = type;
    def.key_size = 4;
    def.value_size = 56;
    def.max_entries = 16;
    def.name = "wrr_cfg";
    auto map = ebpf::make_map(def);
    const std::uint32_t key = 3;
    const std::uint8_t value[56] = {};
    map->update({reinterpret_cast<const std::uint8_t*>(&key), 4}, value, 0);

    volatile std::uint64_t sink = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < 1'000'000; ++i)
      sink = sink + reinterpret_cast<std::uintptr_t>(map->find(key));
    const auto t1 = std::chrono::steady_clock::now();
    std::printf("  %-6s: %6.1f ns/lookup\n",
                type == ebpf::MapType::kArray ? "array" : "hash",
                std::chrono::duration<double, std::nano>(t1 - t0).count() /
                    1e6);
  }
}

}  // namespace

int main() {
  print_header("Ablations", "design-choice sensitivity, not a paper figure");
  ablate_verifier_pruning();
  ablate_wrr_weights();
  ablate_map_backend();
  return 0;
}
