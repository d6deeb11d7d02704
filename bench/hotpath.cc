// Hot-path allocation bench — proof of the zero-allocation steady state.
//
// Two scenarios, each run twice in one process:
//   * fig2       — the paper's §3.2 End.BPF saturation run (S1 offers 3 Mpps
//                  of 64-byte SRv6 traffic through an End.BPF SID on the
//                  CPU-modelled router R);
//   * fig2_fib48 — the same topology with a 2048-route /48 FIB at R and
//                  TrafGen dst_spread cycling every site, so the stride trie
//                  (not the route cache) carries every lookup: the
//                  end-to-end view of bench_lpm_sweep's micro rows.
// in two modes:
//   * pooled     — BufferPool recycling on (the default configuration);
//   * baseline   — the pool disabled, so every Packet buffer is a fresh
//                  new/delete while everything else is unchanged: the
//                  honest pre-pool allocator behaviour, and the denominator
//                  of the gated speedup.
//
// For each run the measured window (after a 30 ms warm-up that fills the RX
// rings, the event queue's reserved storage and the pools) reports simulated
// sink kpps, simulated-packets-per-wall-second, and — through the
// util/alloc_hooks operator-new counter compiled into this binary — the
// exact number of allocator calls in the window and per forwarded packet.
//
// Gates (non-zero exit below them):
//   * pooled steady state performs 0 allocations per forwarded packet —
//     literally zero operator-new calls inside the warmed-up window, counted
//     by the hooks CMake links into this binary. The count is
//     deterministic, so this gate holds in every mode, --quick included;
//   * fig2's pooled sink rate >= 500 simulated kpps and fig2_fib48's >= 550,
//     also in every mode;
//   * pooled >= 1.25x baseline simulated-packets-per-wall-second on fig2,
//     a wall gate (a warning under --quick).
//
// Writes BENCH_hotpath.json (flags and exit status: bench/report.h).
#include <chrono>

#include "bench_common.h"
#include "net/buffer_pool.h"
#include "util/alloc_hooks.h"

using namespace srv6bpf;
using namespace srv6bpf::bench;

namespace {

constexpr double kGateSpeedup = 1.25;  // pooled vs baseline, fig2 wall
constexpr double kOfferedPps = 3e6;

// What the gates and speedups read from one measured run.
struct Run {
  double sim_kpps = 0;
  double sim_pkts_per_wall_s = 0;
  std::uint64_t allocs_window = 0;  // operator-new calls in the window
  double allocs_per_pkt = 0;
};

// One measured run, recorded into `rec`. `fib48` picks the scenario;
// `pooled` toggles the BufferPool freelist.
Run run_one(bool fib48, bool pooled, sim::TimeNs duration, Obj& rec) {
  net::BufferPool::set_enabled(pooled);
  Run out;
  {
    Setup1 lab;
    if (fib48)
      lab.add_fib48(kFib48Routes);
    else
      lab.add_end_bpf(usecases::build_end());

    apps::TrafGen::Config cfg;
    cfg.spec.src = lab.s1_addr;
    if (fib48) {
      cfg.spec.dst = net::Ipv6Addr::must_parse("2001:db8::2");
      cfg.dst_spread = kFib48Routes;
    } else {
      cfg.spec.dst = lab.s2_addr;
      cfg.spec.segments = {lab.sid, lab.s2_addr};
    }
    cfg.spec.payload_size = 64;
    cfg.spec.dst_port = 7001;
    cfg.pps = kOfferedPps;
    cfg.start_at = lab.net.now();
    cfg.duration = duration + 80 * sim::kMilli;
    lab.gen = std::make_unique<apps::TrafGen>(*lab.s1, cfg);
    lab.gen->start();

    // Warm-up: fills the RX rings to their limit (the scenario saturates R),
    // the event queue's reserved heap storage and the buffer/burst pools.
    lab.net.run_for(30 * sim::kMilli);
    lab.sink->reset();
    net::BufferPool::reset_stats();

    const std::uint64_t sent0 = lab.gen->sent();
    const std::uint64_t fwd0 = lab.r->stats().tx_packets;
    const util::AllocCounters a0 = util::alloc_counters();
    const sim::TimeNs sim0 = lab.net.now();
    const auto t0 = std::chrono::steady_clock::now();
    lab.net.run_for(duration);
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const util::AllocCounters a1 = util::alloc_counters();

    const std::uint64_t offered = lab.gen->sent() - sent0;
    const std::uint64_t forwarded = lab.r->stats().tx_packets - fwd0;
    out.sim_pkts_per_wall_s =
        wall_s > 0 ? static_cast<double>(offered) / wall_s : 0;
    out.allocs_window = a1.news - a0.news;
    out.allocs_per_pkt = forwarded > 0
                             ? static_cast<double>(out.allocs_window) /
                                   static_cast<double>(forwarded)
                             : static_cast<double>(out.allocs_window);
    out.sim_kpps = lab.sink->meter().kpps(lab.net.now() - sim0);
    rec.num("sim_kpps", out.sim_kpps, 1)
        .num("offered", offered)
        .num("forwarded", forwarded)
        .num("delivered", lab.sink->packets())
        .num("wall_s", wall_s, 4)
        .num("sim_pkts_per_wall_s", out.sim_pkts_per_wall_s, 0)
        .num("allocs_window", out.allocs_window)
        .num("allocs_per_pkt", out.allocs_per_pkt, 6)
        .num("pool_reuses", net::BufferPool::stats().reuses);
    if (fib48 && pooled)  // dst_spread defeats R's route-cache slot
      rec.num("fib_cache_hits", lab.r->ns().table(0).cache_hits());
  }  // lab teardown returns every outstanding buffer before the next mode
  net::BufferPool::set_enabled(true);
  return out;
}

// What main's gates read from one scenario.
struct Scenario {
  double pooled_sim_kpps = 0;
  double speedup_pool = 0;  // pooled / baseline sim_pkts_per_wall_s
};

// Runs both modes of one scenario into the object `name` and gates its
// pooled window at zero allocations.
Scenario run_scenario(Report& rep, const char* name, bool fib48,
                      sim::TimeNs duration, bool hooks) {
  Obj& s = rep.obj(name);
  const Run pooled = run_one(fib48, /*pooled=*/true, duration,
                             s.obj("pooled"));
  const Run baseline = run_one(fib48, /*pooled=*/false, duration,
                               s.obj("baseline"));
  const double speedup_pool =
      baseline.sim_pkts_per_wall_s > 0
          ? pooled.sim_pkts_per_wall_s / baseline.sim_pkts_per_wall_s
          : 0;
  const bool zero_alloc = hooks && pooled.allocs_window == 0;
  s.num("speedup_pool", speedup_pool, 3)
      .num("zero_alloc", zero_alloc ? 1 : 0);
  // Deterministic gate (exact operator-new count): enforced in every mode.
  rep.gate(zero_alloc,
           "%s pooled window performed %llu allocations (%.6f per forwarded "
           "packet) — want 0",
           name, static_cast<unsigned long long>(pooled.allocs_window),
           pooled.allocs_per_pkt);
  return {pooled.sim_kpps, speedup_pool};
}

}  // namespace

int main(int argc, char** argv) {
  const Mode mode = parse_mode(argc, argv);
  const sim::TimeNs duration = (mode.quick ? 50 : 200) * sim::kMilli;
  const bool hooks = util::alloc_hooks_active();
  Report rep("BENCH_hotpath.json", mode,
             "Hot-path allocation bench: pooled steady state vs per-packet "
             "heap",
             "line-rate datapaths never malloc per packet; after warm-up "
             "neither does the simulator — gate: 0 allocs/pkt and pooled >= "
             "1.25x baseline");
  if (!hooks)
    std::fprintf(stderr, "warning: alloc hooks not linked — allocation "
                         "counts unavailable, zero-alloc gates fail\n");
  rep.str("bench", "hotpath")
      .flag("hooks_active", hooks)
      .num("offered_pps", kOfferedPps, 0)
      .num("duration_ms", static_cast<double>(duration) / 1e6, 0);

  const Scenario fig2 =
      run_scenario(rep, "fig2", /*fib48=*/false, duration, hooks);
  const Scenario fib48 =
      run_scenario(rep, "fig2_fib48", /*fib48=*/true, duration, hooks);

  const net::BufferPool::Stats ps = net::BufferPool::stats();
  rep.obj("pool")
      .num("buf_high_water", ps.high_water)
      .num("buf_pooled", ps.pooled);
  rep.num("gate_speedup", kGateSpeedup, 2);
  rep.gate(fig2.pooled_sim_kpps >= 500,
           "fig2 pooled sink rate %.1f kpps below 500", fig2.pooled_sim_kpps);
  rep.gate(fib48.pooled_sim_kpps >= 550,
           "fig2_fib48 pooled sink rate %.1f kpps below 550",
           fib48.pooled_sim_kpps);
  rep.wall_gate(fig2.speedup_pool >= kGateSpeedup,
                "fig2 pooled/baseline speedup %.3f below %.2f",
                fig2.speedup_pool, kGateSpeedup);
  return rep.finish();
}
