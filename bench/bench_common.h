// Shared scaffolding for the paper-reproduction benchmarks: the saturation
// measurement loop on the setup-1 lab (offer more load than R can forward,
// count what the sink receives — exactly the paper's §3.2 methodology), the
// digested per-segment load of the generated PDES ring, and the verifier's
// cost of loading a program.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "apps/sink.h"
#include "apps/trafgen.h"
#include "ebpf/verifier.h"
#include "ebpf/vm.h"
#include "net/packet.h"
#include "report.h"
#include "sim/network.h"
#include "sim/pdes_topo.h"
#include "usecases/setup1.h"
#include "util/hash.h"

namespace srv6bpf::bench {

// The paper's lab (usecases::Setup1) with a port-7001 sink on S2 and the
// saturation measurement.
struct Setup1 : usecases::Setup1 {
  std::unique_ptr<apps::AppMux> mux;
  std::unique_ptr<apps::UdpSink> sink;
  std::unique_ptr<apps::TrafGen> gen;
  // Vector-pipeline knobs: R's per-service-event drain budget and the
  // generator's packets-per-tick. Simulated rates are burst-invariant (the
  // differential test enforces it); these only trade simulator wall-clock,
  // which bench_burst_sweep measures.
  std::size_t rx_burst = sim::kDefaultRxBurst;
  std::size_t gen_burst = 1;

  Setup1()
      : mux(std::make_unique<apps::AppMux>(*s2)),
        sink(std::make_unique<apps::UdpSink>(*mux, 7001)) {}

  // Offers `pps` of 64-byte-payload UDP (with or without an SRH through the
  // SID on R) for a 30 ms warm-up and then `duration`, reports the sink's
  // receive rate over `duration` in kpps, and stops the generator, so the
  // network can then drain.
  double measure(bool through_sid, double pps, sim::TimeNs duration) {
    r->cpu.rx_burst = rx_burst;
    apps::TrafGen::Config cfg;
    cfg.spec.src = s1_addr;
    cfg.spec.dst = s2_addr;
    if (through_sid) cfg.spec.segments = {sid, s2_addr};
    cfg.spec.payload_size = 64;
    cfg.spec.dst_port = 7001;
    cfg.pps = pps;
    cfg.burst = gen_burst;
    cfg.start_at = net.now();
    cfg.duration = sim::kTimeInfinity - cfg.start_at;  // until stop() below
    gen = std::make_unique<apps::TrafGen>(*s1, cfg);
    gen->start();

    net.run_for(30 * sim::kMilli);  // warm-up
    sink->reset();
    const sim::TimeNs t0 = net.now();
    net.run_for(duration);
    gen->stop();
    return sink->meter().kpps(net.now() - t0);
  }
};

// FNV-1a over little-endian u64s (the mc_test golden-digest pattern).
struct Digest {
  std::uint64_t delivered = 0;
  std::uint64_t fnv = kFnv1aBasis;
  void mix(std::uint64_t v) { fnv = fnv1a_u64(fnv, v); }
};

// Saturating UDP load on every segment of a generated ring
// (sim/pdes_topo.h): a TrafGen at each segment's source, and a port-7001
// sink that digests each delivery's (arrival ns, seq).
struct RingLoad {
  static constexpr double kSegmentPps = 450000;  // ~3/4 of a Xeon core's cap
  // The JSON "scenario" description of this load on the default ring.
  static std::string scenario() {
    return "ring topology, 8 segments x 5 Xeon routers (56 nodes), " +
           std::to_string(static_cast<int>(kSegmentPps / 1e3)) +
           " kpps/segment";
  }

  std::vector<std::unique_ptr<apps::AppMux>> muxes;
  std::vector<std::unique_ptr<apps::TrafGen>> gens;
  std::vector<Digest> digs;  // per segment; the sinks hold references

  RingLoad(const sim::RingTopo& topo, sim::TimeNs window)
      : digs(topo.segments.size()) {
    for (std::size_t s = 0; s < topo.segments.size(); ++s) {
      const auto& seg = topo.segments[s];
      muxes.push_back(std::make_unique<apps::AppMux>(*seg.sink));
      muxes.back()->on_udp(
          7001, [&dig = digs[s]](const net::Packet& pkt, const net::UdpHeader&,
                                 std::span<const std::uint8_t>,
                                 sim::TimeNs now) {
            ++dig.delivered;
            dig.mix(now);
            dig.mix(pkt.seq);
          });
      apps::TrafGen::Config cfg;
      cfg.spec.src = seg.src_addr;
      cfg.spec.dst = seg.dst_addr;
      cfg.spec.payload_size = 64;
      cfg.spec.dst_port = 7001;
      cfg.pps = kSegmentPps;
      cfg.duration = window;
      cfg.flow_label_spread = 16;
      cfg.src_port_spread = 7;
      gens.push_back(std::make_unique<apps::TrafGen>(*seg.src, cfg));
      gens.back()->start();
    }
  }

  // The per-segment digests folded in segment order: a pure function of
  // the simulation, so every thread count must reproduce it exactly.
  Digest total() const {
    Digest t;
    for (const Digest& d : digs) {
      t.delivered += d.delivered;
      t.mix(d.fnv);
      t.mix(d.delivered);
    }
    return t;
  }
};

// What verifying a program costs with state pruning (as BpfSystem::load
// verifies) and without: the states each run visits, and the median wall µs
// of one run. The two are timed in alternating batches, each batch at least
// ~256 unpruned states long so that reading the clock costs little.
struct VerifyCost {
  std::size_t states = 0;
  std::size_t states_unpruned = 0;
  double us = 0;
  double us_unpruned = 0;
};

inline VerifyCost measure_verify(ebpf::BpfSystem& sys,
                                 const std::vector<ebpf::Insn>& insns,
                                 ebpf::ProgType type, int reps) {
  const ebpf::Verifier verifiers[] = {
      {&sys.maps(), &sys.helpers()},
      {&sys.maps(), &sys.helpers(), {.enable_pruning = false}}};
  VerifyCost c;
  c.states = verifiers[0].verify(insns, type).stats.states_visited;
  c.states_unpruned = verifiers[1].verify(insns, type).stats.states_visited;
  const std::size_t batch = 1 + 256 / c.states_unpruned;
  std::vector<double> us[2];
  volatile bool sink = false;
  for (int r = 0; r < reps; ++r) {
    for (int v = 0; v < 2; ++v) {
      const auto t0 = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < batch; ++i)
        sink = verifiers[v].verify(insns, type).ok;
      const auto t1 = std::chrono::steady_clock::now();
      us[v].push_back(
          std::chrono::duration<double, std::micro>(t1 - t0).count() / batch);
    }
  }
  (void)sink;
  for (std::vector<double>& u : us)
    std::nth_element(u.begin(), u.begin() + u.size() / 2, u.end());
  c.us = us[0][us[0].size() / 2];
  c.us_unpruned = us[1][us[1].size() / 2];
  return c;
}

// "0x%016llx", the digests' JSON spelling.
inline std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace srv6bpf::bench
