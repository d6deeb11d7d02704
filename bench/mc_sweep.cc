// Multi-core sweep — how much *simulated* forwarding rate RSS contexts buy.
//
// Runs the Figure-2 End.BPF scenario (S1 offers 3 Mpps of 64-byte SRv6
// traffic over 64 flow labels through an End.BPF SID on the CPU-modelled
// router R) with R's CPU model at ncpus 1/2/4. Unlike the burst sweep —
// where simulated rates are invariant and only simulator wall-clock moves —
// ncpus changes the modelled machine: each RSS context is an independent
// service clock, so the saturation throughput (sink kpps in simulated time)
// must scale until the offered load or a link is the bottleneck. The sink
// rate is a deterministic function of the simulation, so the scaling gates
// hold on any host and are enforced even under --quick.
//
// Writes BENCH_mc.json (flags and exit status: bench/report.h). The gates:
// ncpus=2 >= 1.4x ncpus=1 always, and ncpus=4 >= 1.5x whenever its row ran.
// One flag of its own:
//
//   ./bench_mc_sweep --smoke      # ncpus 1/2 only (CI)
#include <algorithm>
#include <chrono>
#include <string_view>

#include "bench_common.h"

using namespace srv6bpf;
using namespace srv6bpf::bench;

namespace {

constexpr double kGate4 = 1.5;  // ISSUE 3 acceptance: ncpus=4 >= 1.5x ncpus=1
constexpr double kGate2 = 1.4;  // ncpus=2 vs 1 (expected ~2x)
constexpr double kOfferedPps = 3e6;   // the paper's 3 Mpps source
constexpr std::uint32_t kFlows = 64;  // flow labels cycled by the generator

// Records one ncpus row; returns its sink rate in simulated kpps.
double run_one(std::size_t ncpus, sim::TimeNs duration, Obj& row) {
  Setup1 lab;
  lab.ncpus = ncpus;
  lab.flows = kFlows;  // pktgen-style multi-flow: spread the RSS hash
  lab.add_end_bpf(usecases::build_end());

  const auto t0 = std::chrono::steady_clock::now();
  const double sim_kpps =
      lab.measure(/*through_sid=*/true, kOfferedPps, duration);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const sim::NodeStats rs = lab.r->stats();
  // Balance: min/max serviced packets across R's contexts (1 = even).
  std::uint64_t lo = ~0ull, hi = 0;
  for (std::size_t k = 0; k < lab.r->context_count(); ++k) {
    const std::uint64_t p = lab.r->cpu_stats(k).serviced_packets;
    lo = std::min(lo, p);
    hi = std::max(hi, p);
  }
  row.num("ncpus", ncpus)
      .num("sim_kpps", sim_kpps, 1)
      .num("offered", lab.gen->sent())
      .num("delivered", lab.sink->packets())
      .num("drops_rx_queue", rs.drops_rx_queue)
      .num("burst_occupancy",
           rs.service_events > 0
               ? static_cast<double>(rs.serviced_packets) /
                     static_cast<double>(rs.service_events)
               : 0,
           2)
      .num("context_balance",
           hi > 0 ? static_cast<double>(lo) / static_cast<double>(hi) : 0, 3)
      .num("wall_s", wall_s, 4);
  return sim_kpps;
}

}  // namespace

int main(int argc, char** argv) {
  const Mode mode = parse_mode(argc, argv);
  const bool smoke = std::find(argv + 1, argv + argc,
                               std::string_view("--smoke")) != argv + argc;
  const sim::TimeNs duration = (mode.quick ? 50 : 200) * sim::kMilli;
  Report rep("BENCH_mc.json", mode,
             "Multi-core sweep: simulated throughput of RSS-sharded contexts",
             "the paper pins IRQs to one core (ncpus=1, its 610kpps-class "
             "cap); ncpus=4 must forward >= 1.5x the single-core rate");
  rep.str("bench", "mc_sweep")
      .str("scenario", "fig2_end_bpf")
      .num("offered_pps", kOfferedPps, 0)
      .num("flows", kFlows)
      .num("duration_ms", static_cast<double>(duration) / 1e6, 0);

  double k1 = 0, k2 = 0, k4 = 0;
  for (const std::size_t n : smoke ? std::vector<std::size_t>{1, 2}
                                   : std::vector<std::size_t>{1, 2, 4}) {
    const double kpps = run_one(n, duration, rep.row("rows"));
    if (n == 1) k1 = kpps;
    if (n == 2) k2 = kpps;
    if (n == 4) k4 = kpps;
  }
  const double s2 = k1 > 0 ? k2 / k1 : 0;
  const double s4 = k1 > 0 ? k4 / k1 : 0;
  rep.num("scaling_2_vs_1", s2, 3);
  // Smoke runs skip the 4-cpu row, so they omit its key and its gate.
  if (!smoke) rep.num("scaling_4_vs_1", s4, 3);
  rep.num("gate", smoke ? kGate2 : kGate4, 2);
  // The metrics are simulated time, not wall-clock: deterministic, so the
  // gates hold in every mode, --quick included.
  rep.gate(s2 >= kGate2, "2-cpu scaling %.3f below %.2f", s2, kGate2);
  rep.gate(smoke || s4 >= kGate4, "4-cpu scaling %.3f below %.2f", s4,
           kGate4);
  return rep.finish();
}
