// Latency-SLO soak: HDR-histogram tail tracking under failure, churn and
// netem impairments.
//
// Three scenario families over a five-node ring (S1 - R1 - R2 - S2 with an
// R1 - R3 - R2 backup triangle, R1 CPU-modelled):
//
//   frr  — steady UDP load, primary R1-R2 link cut mid-run; R1's route to
//          the sink carries a precomputed TI-LFA backup (seg6::FrrBackup:
//          encap [R3 End SID, R2 End.DT6 SID], out the R1-R3 adjacency).
//          Expect an essentially zero blackhole (the repair is one
//          forwarding decision), frr_reroutes > 0, no link-down drops, and
//          a post-failover tail inflated by the longer repair path. The
//          pre-failover steady window doubles as the zero-allocation gate:
//          with bench/alloc_hooks_impl.cc linked in, the histogram/tracer
//          delivery path must perform 0 operator-new calls.
//
//   igp  — same cut without FRR: packets blackhole (drops_link_down) until
//          a scheduled route add models IGP reconvergence installing the
//          repaired path 200 ms later. The ReconvergenceClock measures the
//          dark window (~the convergence delay, deterministically).
//
//   netem — loss/jitter sweep on the primary link's egress qdisc (no
//          failure): random loss, OU-correlated jitter, and both, against a
//          clean baseline row. Loss counts and every percentile are
//          functions of the seeded RNG and simulated time only.
//
// Per-flow-class tails come from sim::LatencyTracer: four flow-label spread
// classes (matching TrafGen's flow_label_spread) plus, in the netem rows, a
// classic-BPF expression class compiled by the PR 7 tcpdump frontend.
//
// Writes BENCH_slo.json (flags and exit status: bench/report.h) and gates
// floors *and* ceilings (latency and blackhole metrics regress upward). All
// gated metrics are simulated-time deterministic and mode-invariant
// (identical semantics under --quick).

#include <array>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>

#include "apps/sink.h"
#include "apps/socket_filter.h"
#include "apps/trafgen.h"
#include "bench_common.h"
#include "net/packet.h"
#include "seg6/seg6local.h"
#include "sim/latency_tracer.h"
#include "sim/network.h"
#include "util/alloc_hooks.h"
#include "util/hdr_histogram.h"

namespace {

using namespace srv6bpf;
using bench::Obj;

// ---- topology ---------------------------------------------------------------

struct Lab {
  sim::Network net{0x510a50ac};
  sim::Node* s1;
  sim::Node* r1;
  sim::Node* r2;
  sim::Node* r3;
  sim::Node* s2;
  sim::Link* l_s1r1;
  sim::Link* l_r1r2;  // primary, the one that fails
  sim::Link* l_r1r3;  // backup triangle
  sim::Link* l_r3r2;
  sim::Link* l_r2s2;
  int r1_to_r2 = -1;
  int r1_to_r3 = -1;
  int r3_to_r2 = -1;

  net::Ipv6Addr s1_addr = net::Ipv6Addr::must_parse("fc00:1::1");
  net::Ipv6Addr s2_addr = net::Ipv6Addr::must_parse("fc00:2::2");
  // Repair segment list, travel order: R3 End SID then R2 End.DT6 SID.
  net::Ipv6Addr sid_r3_end = net::Ipv6Addr::must_parse("fc00:3::e3");
  net::Ipv6Addr sid_r2_dt6 = net::Ipv6Addr::must_parse("fc00:d::6");

  std::unique_ptr<apps::AppMux> mux;
  std::unique_ptr<apps::UdpSink> sink;
  std::unique_ptr<apps::TrafGen> gen;

  explicit Lab(bool with_frr) {
    s1 = &net.add_node("S1");
    r1 = &net.add_node("R1");
    r2 = &net.add_node("R2");
    r3 = &net.add_node("R3");
    s2 = &net.add_node("S2");

    const std::uint64_t kTenGig = 10ull * 1000 * 1000 * 1000;
    auto a = [](const char* s) { return net::Ipv6Addr::must_parse(s); };
    auto ls = net.connect(*s1, s1_addr, *r1, a("fc00:1::2"), kTenGig,
                          10 * sim::kMicro);
    auto lp = net.connect(*r1, a("fc00:a::1"), *r2, a("fc00:a::2"), kTenGig,
                          10 * sim::kMicro);
    auto lb = net.connect(*r1, a("fc00:b::1"), *r3, a("fc00:b::2"), kTenGig,
                          10 * sim::kMicro);
    auto lc = net.connect(*r3, a("fc00:c::1"), *r2, a("fc00:c::2"), kTenGig,
                          10 * sim::kMicro);
    auto ld = net.connect(*r2, a("fc00:2::1"), *s2, s2_addr, kTenGig,
                          10 * sim::kMicro);
    l_s1r1 = ls.link;
    l_r1r2 = lp.link;
    l_r1r3 = lb.link;
    l_r3r2 = lc.link;
    l_r2s2 = ld.link;
    r1_to_r2 = lp.a_ifindex;
    r1_to_r3 = lb.a_ifindex;
    r3_to_r2 = lc.a_ifindex;

    auto pfx = [](const char* s) { return net::Prefix::parse(s).value(); };
    s1->ns().table(0).add_route(pfx("::/0"),
                                {a("fc00:1::2"), ls.a_ifindex, 1});
    // R1's route to the sink site: primary out the R1-R2 link, optionally
    // carrying the precomputed TI-LFA backup via R3.
    seg6::Route to_sink;
    to_sink.prefix = pfx("fc00:2::/64");
    to_sink.nexthops = {{net::Ipv6Addr{}, r1_to_r2, 1}};
    if (with_frr)
      to_sink.frr = std::make_shared<seg6::FrrBackup>(seg6::FrrBackup{
          {sid_r3_end, sid_r2_dt6}, {net::Ipv6Addr{}, r1_to_r3, 1}});
    r1->ns().table(0).add_route(std::move(to_sink));
    // R3 carries the repair path onward (and the decap SID's covering /64).
    r3->ns().table(0).add_route(pfx("fc00:d::/64"),
                                {net::Ipv6Addr{}, lc.a_ifindex, 1});
    r3->ns().seg6local().add(sid_r3_end, {seg6::Seg6Action::kEnd, {}, 0, {},
                                          {}});
    // R2: decap SID + the sink's subnet.
    r2->ns().seg6local().add(sid_r2_dt6, {seg6::Seg6Action::kEndDT6, {}, 0,
                                          {}, {}});
    r2->ns().table(0).add_route(pfx("fc00:2::/64"),
                                {net::Ipv6Addr{}, ld.a_ifindex, 1});

    // Only the point of local repair is CPU-modelled: it is where FRR and
    // the drop accounting live, and host-speed neighbors keep the 10M-packet
    // soak affordable.
    r1->cpu.enabled = true;
    r1->cpu.profile = sim::kXeonProfile;
    r1->cpu.rx_burst = 32;

    mux = std::make_unique<apps::AppMux>(*s2);
    sink = std::make_unique<apps::UdpSink>(*mux, 7001);
  }

  // The IGP-reconvergence repair route: plain IPv6 via R3 (R3 and R2 already
  // know the way), replacing the dead primary (BPF_ANY re-add semantics).
  seg6::Route reconverged_route() {
    seg6::Route r;
    r.prefix = net::Prefix::parse("fc00:2::/64").value();
    r.nexthops = {{net::Ipv6Addr{}, r1_to_r3, 1}};
    return r;
  }

  void start_traffic(double pps, sim::TimeNs start, sim::TimeNs duration) {
    apps::TrafGen::Config cfg;
    cfg.spec.src = s1_addr;
    cfg.spec.dst = s2_addr;
    cfg.spec.payload_size = 64;
    cfg.spec.dst_port = 7001;
    cfg.pps = pps;
    cfg.burst = 8;
    cfg.flow_label_spread = 4;
    cfg.src_port_spread = 4;
    cfg.start_at = start;
    cfg.duration = duration;
    gen = std::make_unique<apps::TrafGen>(*s1, cfg);
    gen->start();
  }
};

// R3's route for the repair path is on fc00:d::/64 (the decap SID's
// covering prefix); the clean path never touches R3. The IGP repair route
// instead sends plain fc00:2::/64 traffic through R3, so R3 needs that
// subnet too — added lazily by the igp scenario.

// ---- results ----------------------------------------------------------------

void record_quantiles(Obj& o, const util::HdrHistogram& h) {
  o.num("count", h.count())
      .num("p50", h.p50())
      .num("p99", h.p99())
      .num("p999", h.p999())
      .num("max", h.max());
}

// A window's overall tail plus the flow-label classes fl0..fl3.
void record_window(Obj& w, const util::HdrHistogram& overall,
                   const std::array<util::HdrHistogram, 4>& cls) {
  record_quantiles(w.obj("overall"), overall);
  for (std::size_t i = 0; i < 4; ++i)
    record_quantiles(w.obj("classes").obj("fl" + std::to_string(i)), cls[i]);
}

// a / b, or 0 when b is 0.
double ratio(std::uint64_t a, std::uint64_t b) {
  return b == 0 ? 0 : static_cast<double>(a) / static_cast<double>(b);
}

// What the gates and the offered total read from one failover run.
struct Failover {
  std::uint64_t offered = 0;
  double delivery_ratio = 0;
  std::uint64_t frr_reroutes = 0;
  std::uint64_t blackhole_ns = 0;
  bool recovered = false;
  double tail_inflation_p99 = 0;  // post-failure p99 / pre-failure p99
  double pre_p99 = 0;             // ns, overall
  double post_p99 = 0;
  std::uint64_t window_allocs = 0;
  bool zero_alloc = false;  // hooks linked in and window_allocs == 0
  std::uint64_t sink_min_gap_ns = 0;  // closest two deliveries at the sink
};

// Records one failover scenario into `out`.
Failover run_failover(bool frr, double pps, sim::TimeNs t_fail,
                      sim::TimeNs reconverge_delay, sim::TimeNs t_end,
                      Obj& out) {
  Lab lab(frr);
  sim::LatencyTracer tracer;
  tracer.classify_by_flow_label(4);
  sim::ReconvergenceClock clock;
  lab.sink->set_tracer(&tracer);
  lab.sink->set_reconvergence_clock(&clock);

  const sim::TimeNs t_start = 1 * sim::kMilli;
  lab.start_traffic(pps, t_start, t_end - t_start);

  clock.arm(t_fail);
  lab.net.schedule_link_down(*lab.l_r1r2, t_fail);
  if (!frr) {
    // IGP reconvergence: the repaired route lands reconverge_delay later.
    // R3 needs the sink subnet for the plain (non-SRv6) repair path.
    lab.r3->ns().table(0).add_route(
        net::Prefix::parse("fc00:2::/64").value(),
        {net::Ipv6Addr{}, lab.r3_to_r2, 1});
    lab.net.schedule_route_add(*lab.r1, 0, lab.reconverged_route(),
                               t_fail + reconverge_delay);
  }

  // Pre/post windowing: snapshot + reset exactly at the failure instant.
  util::HdrHistogram pre_overall;
  std::array<util::HdrHistogram, 4> pre_cls;
  lab.net.loop().schedule_at(t_fail, [&tracer, &pre_overall, &pre_cls] {
    pre_overall = tracer.overall();
    for (std::size_t i = 0; i < 4; ++i) pre_cls[i] = tracer.class_hist(i);
    tracer.reset_samples();
  });

  // Zero-allocation gate over a mid-steady-state window before the failure.
  const bool hooks = util::alloc_hooks_active();
  std::uint64_t allocs_w0 = 0, allocs_w1 = 0;
  lab.net.loop().schedule_at(t_start + (t_fail - t_start) / 4, [&allocs_w0] {
    allocs_w0 = util::alloc_counters().news;
  });
  lab.net.loop().schedule_at(t_start + 3 * (t_fail - t_start) / 4,
                             [&allocs_w1] {
                               allocs_w1 = util::alloc_counters().news;
                             });

  lab.net.run_until(t_end + 50 * sim::kMilli);

  const sim::NodeStats rs = lab.r1->stats();
  const std::uint64_t first = rs.first_drop_at(sim::DropReason::kLinkDown);
  std::array<util::HdrHistogram, 4> post_cls;
  for (std::size_t i = 0; i < 4; ++i) post_cls[i] = tracer.class_hist(i);
  const sim::RateMeter::Report gaps =
      lab.sink->meter().report(t_end - t_start);
  Failover f;
  f.offered = lab.gen->sent();
  const std::uint64_t delivered = lab.sink->packets();
  f.delivery_ratio = ratio(delivered, f.offered);
  f.frr_reroutes = rs.frr_reroutes;
  f.blackhole_ns = clock.blackhole_ns();
  f.recovered = clock.recovered();
  f.pre_p99 = pre_overall.p99();
  f.post_p99 = tracer.overall().p99();
  f.tail_inflation_p99 = ratio(tracer.overall().p99(), pre_overall.p99());
  f.window_allocs = allocs_w1 - allocs_w0;
  f.zero_alloc = hooks && f.window_allocs == 0;
  f.sink_min_gap_ns = gaps.min_gap_ns;
  out.num("offered", f.offered)
      .num("delivered", delivered)
      .num("delivery_ratio", f.delivery_ratio, 6)
      .num("frr_reroutes", f.frr_reroutes)
      .num("drops_link_down", rs.drops_link_down)
      .num("first_link_down_drop_ns",
           first == sim::NodeStats::kNeverDropped ? 0 : first)
      .num("blackhole_ns", f.blackhole_ns)
      .num("recovered", f.recovered ? 1 : 0)
      .num("tail_inflation_p99", f.tail_inflation_p99, 4)
      .num("alloc_hooks", hooks ? 1 : 0)
      .num("window_allocs", f.window_allocs)
      .num("zero_alloc", f.zero_alloc ? 1 : 0)
      .num("sink_min_gap_ns", f.sink_min_gap_ns)
      .num("sink_mean_gap_ns", gaps.mean_gap_ns, 1);
  record_window(out.obj("pre"), pre_overall, pre_cls);
  record_window(out.obj("post"), tracer.overall(), post_cls);
  return f;
}

// What the gates and the offered total read from one netem row.
struct Netem {
  std::uint64_t offered = 0;
  double loss_ratio = 0;
  double p99 = 0;  // ns, overall
};

// Records one netem row into `row`.
Netem run_netem(double loss, sim::TimeNs jitter, sim::TimeNs tau, double pps,
                sim::TimeNs dur, Obj& row) {
  Lab lab(/*with_frr=*/true);

  sim::NetemConfig cfg;
  cfg.delay_ns = 100 * sim::kMicro;
  cfg.jitter_ns = jitter;
  cfg.jitter_tau_ns = tau;
  cfg.loss_prob = loss;
  lab.l_r1r2->qdisc(0).set_config(cfg);  // side 0 = R1's egress

  sim::LatencyTracer tracer;
  // Explicit class ahead of the flow-label spread: a tcpdump expression
  // compiled through the classic-BPF frontend claims the quarter of the
  // traffic TrafGen sends from source port 7000.
  std::string err;
  auto filt = apps::SocketFilter::from_expr(lab.s2->ns(), "slo-class",
                                            "udp and src port 7000", &err);
  if (filt == nullptr) {
    std::fprintf(stderr, "slo-class filter: %s\n", err.c_str());
    std::exit(1);
  }
  tracer.add_class("expr", [filt](const net::Packet& p) {
    return filt->run(p) != 0;
  });
  tracer.classify_by_flow_label(4);
  lab.sink->set_tracer(&tracer);

  const sim::TimeNs t_start = 1 * sim::kMilli;
  lab.start_traffic(pps, t_start, dur);
  lab.net.run_until(t_start + dur + 100 * sim::kMilli);

  Netem n;
  n.offered = lab.gen->sent();
  const std::uint64_t losses = lab.l_r1r2->qdisc(0).losses();
  n.loss_ratio = ratio(losses, n.offered);
  n.p99 = tracer.overall().p99();
  row.num("loss_prob", loss, 4)
      .num("jitter_ns", jitter)
      .num("jitter_tau_ns", tau)
      .num("offered", n.offered)
      .num("delivered", lab.sink->packets())
      .num("losses", losses)
      .num("loss_ratio", n.loss_ratio, 6);
  record_quantiles(row.obj("overall"), tracer.overall());
  record_quantiles(row.obj("expr_class"), tracer.class_hist(0));
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Mode mode = bench::parse_mode(argc, argv);
  const bool quick = mode.quick;
  bench::Report rep(
      "BENCH_slo.json", mode,
      "Latency-SLO soak: HDR tails, fast-reroute vs IGP reconvergence, "
      "netem sweep",
      "end-to-end observability for the §3 failure modes: what the SRv6 "
      "datapath's repair latency costs in tail terms");

  // Scenario clocks. frr carries the 10M-packet soak on full runs; igp only
  // needs to straddle the reconvergence delay. Gated metrics (blackhole,
  // ratios, zero-alloc) are mode-invariant by construction.
  const double soak_pps = quick ? 100e3 : 500e3;
  const sim::TimeNs frr_fail = quick ? 500 * sim::kMilli : 4 * sim::kSecond;
  const sim::TimeNs frr_end =
      quick ? 1200 * sim::kMilli : 20 * sim::kSecond;
  const sim::TimeNs igp_fail = quick ? 300 * sim::kMilli : 1 * sim::kSecond;
  const sim::TimeNs igp_end = quick ? 800 * sim::kMilli : 3 * sim::kSecond;
  const sim::TimeNs reconverge = 200 * sim::kMilli;
  const double netem_pps = quick ? 50e3 : 200e3;
  const sim::TimeNs netem_dur = quick ? 300 * sim::kMilli : 1 * sim::kSecond;

  // Recorded apart and attached below: total_offered precedes them in the
  // JSON but sums every scenario.
  Obj scenarios, netem;
  const Failover frr = run_failover(true, soak_pps, frr_fail, 0, frr_end,
                                    scenarios.obj("frr"));
  const Failover igp = run_failover(false, soak_pps, igp_fail, reconverge,
                                    igp_end, scenarios.obj("igp"));
  const Netem baseline =
      run_netem(0.0, 0, 0, netem_pps, netem_dur, netem.obj("baseline"));
  const Netem loss =
      run_netem(0.01, 0, 0, netem_pps, netem_dur, netem.obj("loss"));
  const Netem jitter = run_netem(0.0, 20 * sim::kMicro, 200 * sim::kMicro,
                                 netem_pps, netem_dur, netem.obj("jitter"));
  const Netem loss_jitter =
      run_netem(0.01, 20 * sim::kMicro, 200 * sim::kMicro, netem_pps,
                netem_dur, netem.obj("loss_jitter"));
  const std::uint64_t total_offered = frr.offered + igp.offered +
                                      baseline.offered + loss.offered +
                                      jitter.offered + loss_jitter.offered;

  rep.str("bench", "slo_soak")
      .num("quick", quick ? 1 : 0)
      .num("soak_pps", soak_pps, 0)
      .num("reconverge_delay_ns", reconverge)
      .num("total_offered", total_offered);
  rep.obj("scenarios") = scenarios;
  rep.obj("netem") = netem;

  // Deterministic gates, enforced in every mode. The FRR repair must fire
  // and hold the blackhole under a millisecond; without FRR the blackhole
  // must straddle the modelled convergence delay; the delivery path must
  // be allocation-free; no two deliveries may be closer than the wire
  // allows.
  using ull = unsigned long long;
  rep.gate(frr.frr_reroutes > 0 && frr.recovered &&
               frr.blackhole_ns <= sim::kMilli,
           "frr repair ineffective (reroutes=%llu recovered=%d "
           "blackhole=%llu ns)",
           static_cast<ull>(frr.frr_reroutes), frr.recovered ? 1 : 0,
           static_cast<ull>(frr.blackhole_ns));
  rep.gate(igp.recovered && igp.blackhole_ns >= reconverge &&
               igp.blackhole_ns <= reconverge + 10 * sim::kMilli,
           "igp blackhole %llu ns not ~reconverge delay (recovered=%d)",
           static_cast<ull>(igp.blackhole_ns), igp.recovered ? 1 : 0);
  rep.gate(frr.zero_alloc,
           "%llu allocations in the steady-state SLO window — want 0",
           static_cast<ull>(frr.window_allocs));
  // Two deliveries on the R2-S2 link are at least one serialisation time
  // of its 150-byte frame (64 B of payload, UDP, IPv6 and the wire
  // overhead) apart at 10 Gbps: 120 ns.
  constexpr std::uint64_t kWireGapNs = 120;
  rep.gate(frr.sink_min_gap_ns >= kWireGapNs &&
               igp.sink_min_gap_ns >= kWireGapNs,
           "sink_min_gap_ns frr %llu igp %llu below one serialisation time "
           "(%llu ns)",
           static_cast<ull>(frr.sink_min_gap_ns),
           static_cast<ull>(igp.sink_min_gap_ns),
           static_cast<ull>(kWireGapNs));
  // Floors and ceilings: FRR loses almost nothing while its longer repair
  // path inflates the tail a bounded amount, IGP still delivers most
  // traffic, the qdisc loses about what it is told to and the tails move
  // with the configured jitter.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const struct {
    const char* name;
    double value, lo, hi;
  } bounds[] = {
      {"frr delivery_ratio", frr.delivery_ratio, 0.999, kInf},
      {"frr tail_inflation_p99", frr.tail_inflation_p99, 1.05, kInf},
      {"frr pre p99 ns", frr.pre_p99, -kInf, 50000},
      {"frr post p99 ns", frr.post_p99, -kInf, 65000},
      {"igp delivery_ratio", igp.delivery_ratio, 0.6, kInf},
      {"netem loss loss_ratio", loss.loss_ratio, 0.005, 0.02},
      {"netem baseline p99 ns", baseline.p99, -kInf, 150000},
      {"netem jitter p99 ns", jitter.p99, 160000, 250000},
  };
  for (const auto& b : bounds)
    rep.gate(b.value >= b.lo && b.value <= b.hi, "%s %g outside [%g, %g]",
             b.name, b.value, b.lo, b.hi);
  return rep.finish();
}
