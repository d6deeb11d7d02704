// Classic-BPF filter tier benchmark.
//
// Part 1 (micro): per-expression filter cost. Each tcpdump expression is
// compiled to classic BPF, then measured two ways over a mixed match/miss
// packet corpus: interpreted directly by the reference cBPF interpreter (what
// a pre-3.15 kernel did per packet) and translated to eBPF and run on both
// engines, the interpreter and the native JIT (what this simulator — and the
// modern kernel — actually executes). The native-vs-reference speedup is
// the payoff of the translate-once design the cbpf/ tier reproduces. Each
// row also records what verifying the translated program costs at load,
// with state pruning and without: pruning may visit no more states (a gate)
// and take no longer (a wall gate).
//
// Part 2 (scenario): the fig3-style monitoring sink driven entirely by a
// compiled filter expression on the setup-1 topology, reporting the sink's
// simulated receive rate. Simulated rates are deterministic, so
// scenario.sim_kpps >= 550 is a gate in every mode, and so is
// violations_total == 0: the lab ends with its network's drained
// conservation audit. The geomean native-vs-reference speedup >= 1.2 is a
// wall gate.
//
// Writes BENCH_filter.json (flags and exit status: bench/report.h).
#include <chrono>
#include <cmath>
#include <string>
#include <vector>

#include "bench_common.h"
#include "apps/socket_filter.h"
#include "cbpf/expr.h"
#include "cbpf/interp.h"
#include "cbpf/translate.h"
#include "ebpf/skb.h"
#include "ebpf/vm.h"

using namespace srv6bpf;
using namespace srv6bpf::bench;

namespace {

struct Corpus {
  std::vector<std::vector<std::uint8_t>> pkts;
};

// Half matching, half non-matching traffic for the port-7001 expressions:
// plain UDP to 7001, SRH-encapsulated UDP to 7001, UDP to 9999, and a TCP-
// protocol packet — the shapes the monitoring sink actually demultiplexes.
Corpus make_corpus() {
  Corpus c;
  const auto add = [&c](std::uint16_t dport, bool srh) {
    net::PacketSpec spec;
    spec.src = net::Ipv6Addr::must_parse("fc00:1::1");
    spec.dst = net::Ipv6Addr::must_parse("fc00:2::2");
    spec.dst_port = dport;
    spec.payload_size = 64;
    if (srh) {
      spec.segments = {net::Ipv6Addr::must_parse("fc00:f::1"),
                       net::Ipv6Addr::must_parse("fc00:2::2")};
    }
    net::Packet pkt = net::make_udp_packet(spec);
    c.pkts.emplace_back(pkt.bytes().begin(), pkt.bytes().end());
  };
  add(7001, false);
  add(7001, true);
  add(9999, false);
  add(9999, true);
  return c;
}

double ns_per_op(std::uint64_t total_ns, std::uint64_t ops) {
  return ops ? static_cast<double>(total_ns) / static_cast<double>(ops) : 0;
}

// Reference interpreter ns/op over the corpus.
double reference_ns(const std::vector<cbpf::SockFilter>& prog,
                    const Corpus& corpus, int iters) {
  volatile std::uint32_t sink = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i)
    for (const auto& p : corpus.pkts)
      sink = cbpf::run(prog, p.data(), p.size());
  const auto t1 = std::chrono::steady_clock::now();
  (void)sink;
  return ns_per_op(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count(),
      static_cast<std::uint64_t>(iters) * corpus.pkts.size());
}

// Translated-eBPF ns/op over the corpus, with the JIT on or off.
double translated_ns(const ebpf::LoadedProgram& prog, ebpf::BpfSystem& sys,
                     bool jit, const Corpus& corpus, int iters) {
  sys.set_jit_enabled(jit);
  ebpf::SkbRun run;
  volatile std::uint64_t sink = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    for (const auto& p : corpus.pkts) {
      run.point_data_at(p);
      sink = sys.run(prog, run.env, run.ctx_addr()).ret;
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  (void)sink;
  return ns_per_op(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count(),
      static_cast<std::uint64_t>(iters) * corpus.pkts.size());
}

// Records and gates one expression's row; returns its native-vs-reference
// speedup.
double measure_expr(const std::string& expr, const Corpus& corpus, int iters,
                    int verify_reps, Report& rep) {
  const cbpf::CompileResult cr = cbpf::compile(expr);
  if (!cr.ok) {
    std::fprintf(stderr, "compile(\"%s\"): %s\n", expr.c_str(),
                 cr.error.c_str());
    std::exit(1);
  }
  const cbpf::TranslateResult tr = cbpf::translate(cr.insns);
  if (!tr.ok) {
    std::fprintf(stderr, "translate(\"%s\"): %s\n", expr.c_str(),
                 tr.error.c_str());
    std::exit(1);
  }

  ebpf::BpfSystem sys;
  auto load = sys.load("filter", ebpf::ProgType::kSocketFilter, tr.insns);
  if (!load.ok()) {
    std::fprintf(stderr, "verifier rejected \"%s\": %s\n", expr.c_str(),
                 load.verify.error.c_str());
    std::exit(1);
  }

  const double ref_ns = reference_ns(cr.insns, corpus, iters);
  const double interp_ns =
      translated_ns(*load.prog, sys, /*jit=*/false, corpus, iters);
  const double native_ns =
      translated_ns(*load.prog, sys, /*jit=*/true, corpus, iters);
  const double speedup = ref_ns / native_ns;
  const VerifyCost vc = measure_verify(sys, tr.insns,
                                       ebpf::ProgType::kSocketFilter,
                                       verify_reps);
  rep.row("filters")
      .str("expr", expr)
      .num("cbpf_insns", cr.insns.size())
      .num("ebpf_insns", tr.insns.size())
      .num("reference_interp_ns", ref_ns, 1)
      .num("interp_ns", interp_ns, 1)
      .num("native_ns", native_ns, 1)
      .num("speedup_native_vs_reference", speedup, 2)
      .num("verify_states", vc.states)
      .num("verify_states_unpruned", vc.states_unpruned)
      .num("verify_us", vc.us, 1)
      .num("verify_us_unpruned", vc.us_unpruned, 1);
  rep.gate(vc.states <= vc.states_unpruned,
           "\"%s\" verifies in %zu states with pruning, %zu without",
           expr.c_str(), vc.states, vc.states_unpruned);
  rep.wall_gate(vc.us <= vc.us_unpruned,
                "\"%s\" verifies in %.1f us with pruning, %.1f us without",
                expr.c_str(), vc.us, vc.us_unpruned);
  return speedup;
}

// Fig3-style scenario: the setup-1 sink meters only what its compiled
// filter expression passes. Every offered packet targets the sink's port, so
// the filter runs on, and accepts, every delivery; a filter that rejected
// any of them would show as a drop in the sink rate. Returns the sink rate in
// simulated kpps. The lab ends with its drained audit.
double run_scenario(const std::string& expr, sim::TimeNs window, Obj& sc,
                    std::vector<std::string>& violations) {
  Setup1 lab;
  std::string err;
  auto f = apps::SocketFilter::from_expr(lab.s2->ns(), "sink", expr, &err);
  if (f == nullptr) {
    std::fprintf(stderr, "scenario filter \"%s\": %s\n", expr.c_str(),
                 err.c_str());
    std::exit(1);
  }
  // Gate the port-7001 sink's socket, so every metered packet first runs
  // the translated filter on S2's engine.
  lab.mux->attach_udp_filter(7001, f);
  const double sim_kpps = lab.measure(/*through_sid=*/false, 3e6, window);
  sc.str("expr", expr)
      .num("offered_kpps", 3000.0, 1)
      .num("sim_kpps", sim_kpps, 1)
      .num("filter_accepted", f->accepted());
  sc.num("violations", drain_and_audit(lab.net, "scenario", violations));
  return sim_kpps;
}

}  // namespace

int main(int argc, char** argv) {
  const Mode mode = parse_mode(argc, argv);
  const int iters = mode.quick ? 20000 : 400000;
  const int verify_reps = mode.quick ? 5 : 21;
  const sim::TimeNs window = mode.quick ? 60 * sim::kMilli : 200 * sim::kMilli;
  Report rep("BENCH_filter.json", mode,
             "Classic-BPF filter tier: expression -> cBPF -> eBPF",
             "SO_ATTACH_FILTER translate-once vs per-packet classic "
             "interpretation");
  rep.str("bench", "filter")
      .str("measurement", "filter_ns_per_packet")
      .flag("native_jit_available", ebpf::native_jit_available());

  const Corpus corpus = make_corpus();
  const char* exprs[] = {
      "udp",
      "udp and dst port 7001",
      "srh and udp and dst port 7001",
      "ip6 and (dst net fc00:2::/64 or dst host fc00:1::1) and not tcp",
  };
  double log_sum = 0;
  for (const char* e : exprs)
    log_sum += std::log(measure_expr(e, corpus, iters, verify_reps, rep));
  const double geomean = std::exp(log_sum / std::size(exprs));
  rep.num("geomean_speedup_native_vs_reference", geomean, 2);

  std::vector<std::string> violations;
  const double sim_kpps = run_scenario("udp and dst port 7001", window,
                                       rep.obj("scenario"), violations);
  gate_violations(rep, violations);
  rep.gate(sim_kpps >= 550.0, "filtered sink rate %.1f kpps below 550",
           sim_kpps);
  rep.wall_gate(geomean >= 1.2,
                "geomean native/reference filter speedup %.3f below 1.2",
                geomean);
  return rep.finish();
}
