// Microbenchmarks of the eBPF machinery itself: engine-only throughput of
// the two execution engines — the interpreter (bpf_jit_enable = 0) and the
// native x86-64 JIT — on the paper's §3.2 seg6local programs plus a
// 512-insn ALU chain, with results written to BENCH_vm.json (flags and exit
// status: bench/report.h) so the perf trajectory is machine-trackable across
// PRs. On hosts without native support the native column falls back to the
// interpreter (and its speedup metrics will read ~1x). "Engine-only" means
// the ExecEnv/ctx are built once and the timed loop contains only the VM run
// (plus a packet reset for the one program that resizes it); this isolates
// the engines' own cost. Each §3.2 row also records what
// verifying the program costs at load with state pruning and without. These
// loads take a few µs and pruning saves them at most two states, so it may
// cost at most 10% more than no pruning (a wall gate).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "ebpf/asm.h"
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

// Engine-only ns/run of a seg6local program: the Netns and its
// Seg6BurstRunner, the one the datapath runs programs through, are prepared
// once; the timed loop is the VM invocation itself. Programs that resize the
// packet (Add TLV) get a cheap in-place packet reset per iteration so the
// workload stays constant.
double engine_only_ns(const usecases::BuiltProgram& built, bool jit,
                      bool reset_packet, int iters) {
  seg6::Netns ns("bench");
  ns.table(0).add_route(net::Prefix::parse("fc00::/16").value(),
                        {net::Ipv6Addr::must_parse("fe80::1"), 0, 1});
  ns.bpf().set_jit_enabled(jit);
  auto load = ns.bpf().load(built.name, ProgType::kLwtSeg6Local, built.insns);
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

  seg6::Seg6BurstRunner& runner = ns.runner();
  runner.start();
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
double bare_engine_ns(const std::vector<Insn>& insns, bool jit, int iters) {
  BpfSystem sys;
  auto load = sys.load("alu", ProgType::kLwtSeg6Local, insns);
  if (!load.ok()) {
    std::fprintf(stderr, "alu chain rejected: %s\n",
                 load.verify.error.c_str());
    std::exit(1);
  }
  sys.set_jit_enabled(jit);
  ExecEnv env;
  volatile std::uint64_t sink = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) sink = sys.run(*load.prog, env, 0).ret;
  const auto t1 = std::chrono::steady_clock::now();
  (void)sink;
  return std::chrono::duration<double, std::nano>(t1 - t0).count() / iters;
}

// Records one program's engine-only ns/run on each engine and the JIT's
// speedup.
void record_row(Obj& row, const std::string& name, bool sec32,
                double interp_ns, double native_ns) {
  row.str("name", name)
      .flag("paper_sec32", sec32)
      .num("interp_ns", interp_ns, 1)
      .num("native_ns", native_ns, 1)
      .num("speedup_native_vs_interp", interp_ns / native_ns, 2);
}

void run_engine_comparison(int iters, int verify_reps, bench::Report& rep) {
  rep.str("bench", "vm_micro")
      .str("measurement", "engine_only_ns_per_run")
      .flag("native_jit_available", native_jit_available());

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
  double log_sum = 0;
  for (const Prog& p : progs) {
    const double interp_ns =
        engine_only_ns(p.built, /*jit=*/false, p.reset_packet, iters);
    const double native_ns =
        engine_only_ns(p.built, /*jit=*/true, p.reset_packet, iters);
    Obj& row = rep.row("programs");
    record_row(row, p.built.name, /*sec32=*/true, interp_ns, native_ns);
    const bench::VerifyCost vc =
        bench::measure_verify(verify_ns.bpf(), p.built.insns,
                              ProgType::kLwtSeg6Local, verify_reps);
    row.num("verify_us", vc.us, 2).num("verify_us_unpruned", vc.us_unpruned, 2);
    rep.wall_gate(vc.us <= 1.1 * vc.us_unpruned,
                  "%s verifies in %.2f us with pruning, over 1.1x its %.2f "
                  "us without",
                  p.built.name, vc.us, vc.us_unpruned);
    log_sum += std::log(interp_ns / native_ns);
  }
  const auto chain = alu_chain(512);
  const double alu_interp_ns =
      bare_engine_ns(chain, /*jit=*/false, iters / 4 + 1);
  const double alu_native_ns = bare_engine_ns(chain, /*jit=*/true, iters);
  record_row(rep.row("programs"), "alu_chain_512", /*sec32=*/false,
             alu_interp_ns, alu_native_ns);

  const double native = std::exp(log_sum / std::size(progs));
  // Emitted-code quality: on the compute-bound chain the engine is the whole
  // cost, so this ratio tracks the JIT itself rather than shared
  // helper/harness time (which caps the §3.2 rows near the paper's JIT
  // factor, the "Add TLV JIT / no-JIT" anchor in paper.h).
  const double alu512 = alu_interp_ns / alu_native_ns;
  rep.num("sec32_geomean_speedup_native_vs_interp", native, 2)
      .num("alu512_speedup_native_vs_interp", alu512, 2);
  rep.wall_gate(native >= 2.2, "§3.2 native speedup %.3f below 2.2", native);
  rep.wall_gate(alu512 >= 4.2, "alu512 native speedup %.3f below 4.2", alu512);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Mode mode = bench::parse_mode(argc, argv);
  bench::Report rep("BENCH_vm.json", mode,
                    "VM micro: engine-only ns/run of the two eBPF engines",
                    "§3.2: the kernel JIT's factor on the seg6local "
                    "programs is bench_paper's Add TLV JIT / no-JIT anchor");
  run_engine_comparison(mode.quick ? 5000 : 100000, mode.quick ? 11 : 201,
                        rep);
  return rep.finish();
}
