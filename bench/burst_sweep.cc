// Burst sweep — how much simulator wall-clock the vector datapath buys.
//
// Runs the Figure-2 End.BPF scenario (S1 offers 3 Mpps of 64-byte SRv6
// traffic through an End.BPF SID on the CPU-modelled router R) at burst
// sizes 1/4/16/32/64, applied to both the generator's packets-per-tick and
// R's per-service-event drain budget. Simulated results (sink kpps) are
// burst-invariant — the differential test asserts that — so the only thing
// that moves is how fast the simulator itself chews through packets:
// simulated-packets-per-wall-second, plus scheduled events per packet and
// the achieved burst occupancy at R.
//
// Writes BENCH_burst.json (flags and exit status: bench/report.h). Two
// gates: the sink rate must be burst-invariant (max/min sim_kpps across the
// rows <= 1.001), and burst 32 must be >= 1.3x burst 1 in simulated packets
// per wall-second, a wall gate.
#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "bench_common.h"

using namespace srv6bpf;
using namespace srv6bpf::bench;

namespace {

// Records one burst size's row; returns its sink rate in simulated kpps and
// its simulated packets per wall-second.
std::pair<double, double> run_one(std::size_t burst, sim::TimeNs duration,
                                  Obj& row) {
  Setup1 lab;
  lab.rx_burst = burst;
  lab.gen_burst = burst;
  lab.add_end_bpf(usecases::build_end());

  const auto t0 = std::chrono::steady_clock::now();
  const double sim_kpps = lab.measure(/*through_sid=*/true, /*pps=*/3e6,
                                      duration);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const std::uint64_t offered = lab.gen->sent();
  const double pkts_per_wall_s =
      wall_s > 0 ? static_cast<double>(offered) / wall_s : 0;
  const sim::NodeStats rs = lab.r->stats();
  row.num("burst", burst)
      .num("sim_kpps", sim_kpps, 1)
      .num("offered", offered)
      .num("delivered", lab.sink->packets())
      .num("wall_s", wall_s, 4)
      .num("sim_pkts_per_wall_s", pkts_per_wall_s, 0)
      .num("events_per_packet",
           offered > 0 ? static_cast<double>(lab.net.loop().executed()) /
                             static_cast<double>(offered)
                       : 0,
           3)
      .num("burst_occupancy",
           rs.service_events > 0
               ? static_cast<double>(rs.serviced_packets) /
                     static_cast<double>(rs.service_events)
               : 0,
           2);
  return {sim_kpps, pkts_per_wall_s};
}

}  // namespace

int main(int argc, char** argv) {
  const Mode mode = parse_mode(argc, argv);
  const sim::TimeNs duration = (mode.quick ? 50 : 200) * sim::kMilli;
  Report rep("BENCH_burst.json", mode,
             "Burst sweep: simulator throughput of the vector datapath",
             "ROADMAP 'batched sim hot loop'; simulated kpps must be "
             "burst-invariant while wall-clock drops; gate: b32 >= 1.3x b1");
  rep.str("bench", "burst_sweep")
      .str("scenario", "fig2_end_bpf")
      .num("offered_pps", 3000000)
      .num("duration_ms", static_cast<double>(duration) / 1e6, 0);

  double b1 = 0, b32 = 0;
  // The sim_kpps range across the rows.
  double lo = std::numeric_limits<double>::infinity(), hi = 0;
  for (const std::size_t b : {1, 4, 16, 32, 64}) {
    const auto [sim_kpps, rate] = run_one(b, duration, rep.row("rows"));
    if (b == 1) b1 = rate;
    if (b == 32) b32 = rate;
    lo = std::min(lo, sim_kpps);
    hi = std::max(hi, sim_kpps);
  }
  const double speedup = b1 > 0 ? b32 / b1 : 0;
  rep.num("speedup_b32_vs_b1", speedup, 3);
  rep.gate(lo > 0 && hi / lo <= 1.001,
           "sim_kpps max/min across bursts %.4f above 1.001: the datapath is "
           "no longer burst-invariant",
           hi / lo);
  rep.wall_gate(speedup >= 1.3,
                "burst-32 vs burst-1 simulator speedup %.3f below 1.3",
                speedup);
  return rep.finish();
}
