// Microbenchmarks of the eBPF machinery itself.
//
// Part 1 (custom, runs first): engine-only throughput of the three execution
// engines — baseline decode-every-step interpreter, pre-decoded threaded
// interpreter, native x86-64 JIT — on the paper's §3.2 seg6local programs
// plus a 512-insn ALU chain, with results written to BENCH_vm.json (flags
// and exit status: bench/report.h) so the perf trajectory is
// machine-trackable across PRs. On hosts without native support the native
// column falls back to the pre-decoded interpreter (and its geomean metric
// will read ~1x). "Engine-only" means the ExecEnv/ctx are
// built once and the timed loop contains only the VM run (plus a packet
// reset for the one program that resizes it); this isolates what the
// decode-once refactor actually changed. Each §3.2 row also records what
// verifying the program costs at load with state pruning and without. These
// loads take a few µs and pruning saves them at most two states, so it may
// cost at most 10% more than no pruning (a wall gate).
//
// Part 2: google-benchmark microbenchmarks of dispatch, helper-call, map and
// verifier costs (skipped when --json-only is passed, or when part 1 fails;
// google-benchmark's own flags pass through).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "ebpf/asm.h"
#include "ebpf/helpers.h"
#include "ebpf/map.h"
#include "ebpf/perf_event.h"
#include "ebpf/vm.h"
#include "net/packet.h"
#include "seg6/ctx.h"
#include "usecases/programs.h"

namespace {

using namespace srv6bpf;
using namespace srv6bpf::ebpf;
using bench::Obj;

// Straight-line ALU program of ~n instructions (no loops allowed in eBPF).
std::vector<Insn> alu_chain(int n) {
  Asm a;
  a.mov64_imm(R0, 1);
  for (int i = 0; i < n; ++i) {
    switch (i % 4) {
      case 0: a.add64_imm(R0, 7); break;
      case 1: a.mul64_imm(R0, 3); break;
      case 2: a.xor64_imm(R0, 0x55aa); break;
      case 3: a.rsh64_imm(R0, 1); break;
    }
  }
  a.exit_();
  return a.build();
}

// ---------------------------------------------------------------------------
// Part 1: §3.2 engine comparison -> BENCH_vm.json
// ---------------------------------------------------------------------------

// Engine-only ns/run of a seg6local program: the Netns and the datapath's
// Seg6BurstRunner are prepared once; the timed loop is the VM invocation
// itself. Programs that resize the packet (Add TLV) get a cheap in-place
// packet reset per iteration so the workload stays constant.
double engine_only_ns(const usecases::BuiltProgram& built, EngineKind engine,
                      bool reset_packet, int iters) {
  seg6::Netns ns("bench");
  ns.table(0).add_route(net::Prefix::parse("fc00::/16").value(),
                        {net::Ipv6Addr::must_parse("fe80::1"), 0, 1});
  ns.bpf().set_engine(engine);
  auto load = ns.bpf().load(built.name, ProgType::kLwtSeg6Local, built.insns,
                            built.paper_sloc);
  if (!load.ok()) {
    std::fprintf(stderr, "%s rejected: %s\n", built.name,
                 load.verify.error.c_str());
    std::exit(1);
  }

  net::PacketSpec spec;
  spec.src = net::Ipv6Addr::must_parse("fc00::1");
  spec.segments = {net::Ipv6Addr::must_parse("fc00::e1"),
                   net::Ipv6Addr::must_parse("fc00::d1")};
  spec.payload_size = 64;
  const net::Packet tmpl = net::make_udp_packet(spec);
  net::Packet pkt = tmpl;

  seg6::Seg6BurstRunner runner(ns);
  runner.prepare(pkt, nullptr);
  ExecEnv& env = runner.env();
  const std::uint64_t skb_addr = runner.ctx_addr();
  volatile std::uint64_t sink = 0;

  // Programs that resize the packet need a per-iteration reset to keep the
  // workload constant. That reset is harness cost, identical for every
  // engine, so it is measured separately and subtracted — otherwise it
  // dilutes the engine ratios the JSON exists to track.
  double reset_ns = 0;
  if (reset_packet) {
    const auto r0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) {
      pkt = tmpl;  // copy-assign reuses capacity after the first iteration
      runner.prepare(pkt, nullptr);
    }
    const auto r1 = std::chrono::steady_clock::now();
    reset_ns =
        std::chrono::duration<double, std::nano>(r1 - r0).count() / iters;
  }

  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    if (reset_packet) {
      pkt = tmpl;
      runner.prepare(pkt, nullptr);
    }
    sink = ns.bpf().run(*load.prog, env, skb_addr).ret;
  }
  const auto t1 = std::chrono::steady_clock::now();
  (void)sink;
  const double per_run =
      std::chrono::duration<double, std::nano>(t1 - t0).count() / iters -
      reset_ns;
  return per_run > 0.1 ? per_run : 0.1;  // clamp: subtraction is approximate
}

// Bare engine ns/run for programs needing no packet/netns (the ALU chain).
double bare_engine_ns(const std::vector<Insn>& insns, EngineKind engine,
                      int iters) {
  BpfSystem sys;
  auto load = sys.load("alu", ProgType::kLwtSeg6Local, insns);
  if (!load.ok()) {
    std::fprintf(stderr, "alu chain rejected: %s\n",
                 load.verify.error.c_str());
    std::exit(1);
  }
  sys.set_engine(engine);
  ExecEnv env;
  volatile std::uint64_t sink = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) sink = sys.run(*load.prog, env, 0).ret;
  const auto t1 = std::chrono::steady_clock::now();
  (void)sink;
  return std::chrono::duration<double, std::nano>(t1 - t0).count() / iters;
}

// Records one program's engine-only ns/run on each engine and the pairwise
// speedups.
void record_row(Obj& row, const std::string& name, bool sec32,
                double baseline_ns, double predecoded_ns, double native_ns) {
  row.str("name", name)
      .flag("paper_sec32", sec32)
      .num("baseline_interp_ns", baseline_ns, 1)
      .num("predecoded_interp_ns", predecoded_ns, 1)
      .num("native_ns", native_ns, 1)
      .num("speedup_predecoded_vs_baseline", baseline_ns / predecoded_ns, 2)
      .num("speedup_native_vs_baseline", baseline_ns / native_ns, 2)
      .num("speedup_native_vs_predecoded", predecoded_ns / native_ns, 2);
}

void run_engine_comparison(int iters, int verify_reps, bench::Report& rep) {
  rep.str("bench", "vm_micro")
      .str("measurement", "engine_only_ns_per_run")
      .flag("native_jit_available", Jit::available());

  struct Prog {
    usecases::BuiltProgram built;
    bool reset_packet;
  };
  const Prog progs[] = {
      {usecases::build_end(), false},
      {usecases::build_tag_increment(), false},
      {usecases::build_add_tlv(), true},  // resizes the packet every run
  };
  seg6::Netns verify_ns("verify");  // the seg6 helpers the programs call
  double log_sum_pre = 0, log_sum_native = 0;
  for (const Prog& p : progs) {
    const double baseline_ns = engine_only_ns(
        p.built, EngineKind::kInterpBaseline, p.reset_packet, iters);
    const double predecoded_ns =
        engine_only_ns(p.built, EngineKind::kInterp, p.reset_packet, iters);
    const double native_ns =
        engine_only_ns(p.built, EngineKind::kNative, p.reset_packet, iters);
    Obj& row = rep.row("programs");
    record_row(row, p.built.name, /*sec32=*/true, baseline_ns, predecoded_ns,
               native_ns);
    const bench::VerifyCost vc =
        bench::measure_verify(verify_ns.bpf(), p.built.insns,
                              ProgType::kLwtSeg6Local, verify_reps);
    row.num("verify_us", vc.us, 2).num("verify_us_unpruned", vc.us_unpruned, 2);
    rep.wall_gate(vc.us <= 1.1 * vc.us_unpruned,
                  "%s verifies in %.2f us with pruning, over 1.1x its %.2f "
                  "us without",
                  p.built.name, vc.us, vc.us_unpruned);
    log_sum_pre += std::log(baseline_ns / predecoded_ns);
    log_sum_native += std::log(predecoded_ns / native_ns);
  }
  const auto chain = alu_chain(512);
  const double alu_baseline_ns =
      bare_engine_ns(chain, EngineKind::kInterpBaseline, iters / 4 + 1);
  const double alu_predecoded_ns =
      bare_engine_ns(chain, EngineKind::kInterp, iters / 4 + 1);
  const double alu_native_ns =
      bare_engine_ns(chain, EngineKind::kNative, iters);
  record_row(rep.row("programs"), "alu_chain_512", /*sec32=*/false,
             alu_baseline_ns, alu_predecoded_ns, alu_native_ns);

  const double pre = std::exp(log_sum_pre / std::size(progs));
  const double native = std::exp(log_sum_native / std::size(progs));
  // Emitted-code quality: on the compute-bound chain the engine is the whole
  // cost, so this ratio tracks the JIT itself rather than shared
  // helper/harness time (which caps the §3.2 rows near the paper's JIT
  // factor, the "Add TLV JIT / no-JIT" anchor in paper.h).
  const double alu512 = alu_predecoded_ns / alu_native_ns;
  rep.num("sec32_geomean_speedup_predecoded_vs_baseline", pre, 2)
      .num("sec32_geomean_speedup_native_vs_predecoded", native, 2)
      .num("alu512_speedup_native_vs_predecoded", alu512, 2);
  rep.wall_gate(pre >= 2.0, "§3.2 pre-decoded speedup %.3f below 2.0", pre);
  rep.wall_gate(native >= 1.1, "§3.2 native speedup %.3f below 1.1", native);
  rep.wall_gate(alu512 >= 3.0, "alu512 native speedup %.3f below 3.0", alu512);
}

// ---------------------------------------------------------------------------
// Part 2: google-benchmark micro suite
// ---------------------------------------------------------------------------

void BM_EngineAluChain(benchmark::State& state, EngineKind engine) {
  BpfSystem sys;
  auto load = sys.load("alu", ProgType::kLwtSeg6Local, alu_chain(512));
  if (!load.ok()) {
    state.SkipWithError(load.verify.error.c_str());
    return;
  }
  sys.set_engine(engine);
  ExecEnv env;
  for (auto _ : state) {
    const auto r = sys.run(*load.prog, env, 0);
    benchmark::DoNotOptimize(r.ret);
  }
  state.SetItemsProcessed(state.iterations() * 514);
}
BENCHMARK_CAPTURE(BM_EngineAluChain, native, EngineKind::kNative);
BENCHMARK_CAPTURE(BM_EngineAluChain, interp, EngineKind::kInterp);
BENCHMARK_CAPTURE(BM_EngineAluChain, interp_baseline,
                  EngineKind::kInterpBaseline);

void BM_HelperCallOverhead(benchmark::State& state) {
  BpfSystem sys;
  Asm a;
  for (int i = 0; i < 16; ++i) a.call(helper::KTIME_GET_NS);
  a.exit_();
  auto load = sys.load("calls", ProgType::kLwtSeg6Local, a.build());
  sys.set_engine(EngineKind::kNative);
  ExecEnv env;
  env.now_ns = 1;
  for (auto _ : state) {
    const auto r = sys.run(*load.prog, env, 0);
    benchmark::DoNotOptimize(r.ret);
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_HelperCallOverhead);

void BM_MapLookupFromBpf(benchmark::State& state) {
  BpfSystem sys;
  MapDef def{MapType::kArray, 4, 8, 4, "m"};
  const auto id = sys.maps().create(def);
  Asm a;
  a.st(BPF_W, R10, -4, 0)
      .ld_map(R1, id)
      .mov64_reg(R2, R10)
      .add64_imm(R2, -4)
      .call(helper::MAP_LOOKUP_ELEM)
      .jeq_imm(R0, 0, "miss")
      .ldx(BPF_DW, R0, R0, 0)
      .exit_()
      .label("miss")
      .mov64_imm(R0, 0)
      .exit_();
  auto load = sys.load("lookup", ProgType::kLwtSeg6Local, a.build());
  sys.set_engine(EngineKind::kNative);
  ExecEnv env;
  for (auto _ : state) {
    const auto r = sys.run(*load.prog, env, 0);
    benchmark::DoNotOptimize(r.ret);
  }
}
BENCHMARK(BM_MapLookupFromBpf);

void BM_VerifierLoad(benchmark::State& state) {
  const auto built = usecases::build_end_dm(1);
  for (auto _ : state) {
    BpfSystem sys;
    create_perf_event_array(sys.maps(), "perf");
    auto load = sys.load(built.name, ProgType::kLwtSeg6Local, built.insns);
    benchmark::DoNotOptimize(load.ok());
  }
}
BENCHMARK(BM_VerifierLoad);

void BM_DecodeProgram(benchmark::State& state) {
  BpfSystem sys;  // only the helper registry is needed to decode
  const auto insns = alu_chain(512);
  for (auto _ : state) {
    auto decoded = decode_program(insns, &sys.helpers());
    benchmark::DoNotOptimize(decoded->size());
  }
  state.SetItemsProcessed(state.iterations() * 514);
}
BENCHMARK(BM_DecodeProgram);

void BM_LpmTrieLookup(benchmark::State& state) {
  MapDef def{MapType::kLpmTrie, 20, 4, 1024, "lpm"};
  auto map = make_map(def);
  // 64 random /48 prefixes.
  std::uint64_t x = 42;
  for (int i = 0; i < 64; ++i) {
    std::uint8_t key[20] = {};
    const std::uint32_t plen = 48;
    std::memcpy(key, &plen, 4);
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    std::memcpy(key + 4, &x, 6);
    const std::uint32_t v = static_cast<std::uint32_t>(i);
    map->update(key, {reinterpret_cast<const std::uint8_t*>(&v), 4}, 0);
  }
  std::uint8_t query[20] = {};
  const std::uint32_t plen = 128;
  std::memcpy(query, &plen, 4);
  for (auto _ : state) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    std::memcpy(query + 4, &x, 8);
    benchmark::DoNotOptimize(map->lookup(query));
  }
}
BENCHMARK(BM_LpmTrieLookup);

}  // namespace

int main(int argc, char** argv) {
  // Strips our own flags before handing argv to google-benchmark.
  const bench::Mode mode = bench::parse_mode(argc, argv);
  bench::Report rep("BENCH_vm.json", mode,
                    "VM micro: engine-only ns/run of the three eBPF engines",
                    "§3.2: the kernel JIT's factor on the seg6local "
                    "programs is bench_paper's Add TLV JIT / no-JIT anchor");
  run_engine_comparison(mode.quick ? 5000 : 100000, mode.quick ? 11 : 201,
                        rep);
  const int status = rep.finish();
  if (status != 0 || mode.json_only) return status;

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
