// Parallel-simulation sweep — wall-clock scale-out of the PDES EventLoop
// sharding, with bit-identical results as the hard gate.
//
// Runs the generated ring topology (sim/pdes_topo.h: 8 segments x 5
// CPU-modelled routers + src + sink = 56 nodes, one PDES domain per
// segment, 50 us long-hauls as lookahead) under saturating per-segment
// UDP load at 1, 2, 4 and 8 worker threads, and measures simulated packets
// delivered per wall-second.
//
// Two results ride in BENCH_pdes.json, each with its gate:
//   - digest_match (simulated, deterministic, a gate in every mode): every
//     thread count must produce exactly the single-thread run's delivery
//     digest — the determinism contract.
//   - speedup_8t (a wall gate, >= 3.0): 8-thread sim-pkts-per-wall-second
//     over 1-thread. It needs 8 idle cores, so read it against host_cpus.
//
// Flags and exit status: bench/report.h.
#include <chrono>
#include <thread>

#include "bench_common.h"

using namespace srv6bpf;
using namespace srv6bpf::bench;

namespace {

constexpr double kSpeedupGate = 3.0;  // speedup_8t wall gate

struct Run {
  Digest digest;
  double pkts_per_wall_s = 0;
};

Run run_one(std::size_t threads, sim::TimeNs window, Obj& row) {
  sim::RingTopoSpec spec;  // defaults: 8 segments x (5 routers + src + sink)
  sim::Network net(0x9de5);
  sim::RingTopo topo = build_ring_topology(net, spec);
  net.set_domain_count(spec.segments);
  net.seal_domains();
  const RingLoad load(topo, window);

  const auto t0 = std::chrono::steady_clock::now();
  net.run_parallel_until(window + 10 * sim::kMilli, threads);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  Run run{load.total(), 0};
  run.pkts_per_wall_s = wall_s > 0 ? run.digest.delivered / wall_s : 0;
  row.num("threads", threads)
      .num("delivered", run.digest.delivered)
      .num("events", net.pdes_net().events_executed())
      .str("digest", hex64(run.digest.fnv))
      .num("wall_s", wall_s, 4)
      .num("pkts_per_wall_s", run.pkts_per_wall_s, 0);
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const Mode mode = parse_mode(argc, argv);
  const sim::TimeNs window = (mode.quick ? 20 : 120) * sim::kMilli;
  Report rep("BENCH_pdes.json", mode,
             "PDES sweep: wall-clock scale-out of the sharded EventLoop",
             "bit-identical delivery digests at every thread count (hard "
             "gate) and >= 3x sim-pkts-per-wall-second at 8 threads (wall "
             "floor)");
  rep.str("bench", "pdes_sweep")
      .str("scenario", RingLoad::scenario())
      .num("window_ms", static_cast<double>(window) / 1e6, 1);

  std::vector<Run> runs;
  for (const std::size_t threads : {1u, 2u, 4u, 8u})
    runs.push_back(run_one(threads, window, rep.row("rows")));

  bool digest_match = true;
  for (const Run& r : runs)
    digest_match = digest_match && r.digest.fnv == runs[0].digest.fnv &&
                   r.digest.delivered == runs[0].digest.delivered;
  const double speedup_8t =
      runs[0].pkts_per_wall_s > 0
          ? runs.back().pkts_per_wall_s / runs[0].pkts_per_wall_s
          : 0;
  rep.num("digest_match", digest_match ? 1 : 0)
      .num("speedup_8t", speedup_8t, 3)
      // Wall speedup only means anything relative to the cores actually
      // available: on a 1-core CI runner the best possible value is ~1.0.
      .num("host_cpus", std::thread::hardware_concurrency())
      .num("gate_speedup", kSpeedupGate, 2);
  // Determinism is the hard gate: any digest divergence across thread
  // counts fails the bench regardless of measurement mode.
  rep.gate(digest_match, "delivery digests differ across thread counts");
  rep.wall_gate(speedup_8t >= kSpeedupGate,
                "8-thread speedup %.3f below %.1f", speedup_8t, kSpeedupGate);
  return rep.finish();
}
