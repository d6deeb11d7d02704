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
// Emits BENCH_slo.json; bench/check_history.py enforces floors *and*
// ceilings (latency/blackhole metrics regress upward) from
// bench/history/baseline.json. All gated metrics are simulated-time
// deterministic and mode-invariant (identical semantics under --quick).
//
// Usage: bench_slo_soak [--quick] [--json-only]

#include <array>
#include <cstdio>
#include <cstring>
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

// ---- result shapes ----------------------------------------------------------

struct Quantiles {
  std::uint64_t count = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p99 = 0;
  std::uint64_t p999 = 0;
  std::uint64_t max = 0;
};

Quantiles quantiles_of(const util::HdrHistogram& h) {
  return {h.count(), h.p50(), h.p99(), h.p999(), h.max()};
}

struct Window {
  Quantiles overall;
  std::array<Quantiles, 4> cls;  // flow-label classes fl0..fl3
};

struct FailoverResult {
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  double delivery_ratio = 0;
  std::uint64_t frr_reroutes = 0;
  std::uint64_t drops_link_down = 0;
  std::uint64_t first_link_down_drop_ns = 0;  // 0 when none
  std::uint64_t blackhole_ns = 0;
  int recovered = 0;
  Window pre;
  Window post;
  double tail_inflation_p99 = 0;
  int hooks = 0;
  std::uint64_t window_allocs = 0;
  int zero_alloc = 0;
  std::uint64_t min_gap_ns = 0;  // sink inter-arrival (microburst flag)
  double mean_gap_ns = 0;
};

FailoverResult run_failover(bool frr, double pps, sim::TimeNs t_fail,
                            sim::TimeNs reconverge_delay, sim::TimeNs t_end) {
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

  FailoverResult r;
  r.offered = lab.gen->sent();
  r.delivered = lab.sink->packets();
  r.delivery_ratio = r.offered == 0 ? 0
                                    : static_cast<double>(r.delivered) /
                                          static_cast<double>(r.offered);
  const sim::NodeStats rs = lab.r1->stats();
  r.frr_reroutes = rs.frr_reroutes;
  r.drops_link_down = rs.drops_link_down;
  const std::uint64_t first =
      rs.first_drop_at(sim::DropReason::kLinkDown);
  r.first_link_down_drop_ns = first == sim::NodeStats::kNeverDropped ? 0
                                                                     : first;
  r.blackhole_ns = clock.blackhole_ns();
  r.recovered = clock.recovered() ? 1 : 0;
  r.pre.overall = quantiles_of(pre_overall);
  r.post.overall = quantiles_of(tracer.overall());
  for (std::size_t i = 0; i < 4; ++i) {
    r.pre.cls[i] = quantiles_of(pre_cls[i]);
    r.post.cls[i] = quantiles_of(tracer.class_hist(i));
  }
  r.tail_inflation_p99 =
      r.pre.overall.p99 == 0
          ? 0
          : static_cast<double>(r.post.overall.p99) /
                static_cast<double>(r.pre.overall.p99);
  r.hooks = hooks ? 1 : 0;
  r.window_allocs = allocs_w1 - allocs_w0;
  r.zero_alloc = hooks && r.window_allocs == 0 ? 1 : 0;
  const sim::RateMeter::Report rep =
      lab.sink->meter().report(t_end - t_start);
  r.min_gap_ns = rep.min_gap_ns;
  r.mean_gap_ns = rep.mean_gap_ns;
  return r;
}

struct NetemRow {
  const char* key;
  double loss_prob;
  sim::TimeNs jitter_ns;
  sim::TimeNs jitter_tau_ns;
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  std::uint64_t losses = 0;
  double loss_ratio = 0;
  Quantiles overall{};
  Quantiles expr_cls{};  // the cBPF-expression class ("udp src port 7000")
};

NetemRow run_netem(const char* key, double loss, sim::TimeNs jitter,
                   sim::TimeNs tau, double pps, sim::TimeNs dur) {
  NetemRow row{key, loss, jitter, tau};
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

  row.offered = lab.gen->sent();
  row.delivered = lab.sink->packets();
  row.losses = lab.l_r1r2->qdisc(0).losses();
  row.loss_ratio = row.offered == 0 ? 0
                                    : static_cast<double>(row.losses) /
                                          static_cast<double>(row.offered);
  row.overall = quantiles_of(tracer.overall());
  row.expr_cls = quantiles_of(tracer.class_hist(0));
  return row;
}

// ---- output -----------------------------------------------------------------

void emit_quantiles(std::FILE* f, const char* indent, const char* key,
                    const Quantiles& q, const char* tail) {
  std::fprintf(f,
               "%s\"%s\": {\"count\": %llu, \"p50\": %llu, \"p99\": %llu, "
               "\"p999\": %llu, \"max\": %llu}%s\n",
               indent, key, static_cast<unsigned long long>(q.count),
               static_cast<unsigned long long>(q.p50),
               static_cast<unsigned long long>(q.p99),
               static_cast<unsigned long long>(q.p999),
               static_cast<unsigned long long>(q.max), tail);
}

void emit_window(std::FILE* f, const char* key, const Window& w,
                 const char* tail) {
  std::fprintf(f, "      \"%s\": {\n", key);
  emit_quantiles(f, "        ", "overall", w.overall, ",");
  std::fprintf(f, "        \"classes\": {\n");
  for (std::size_t i = 0; i < 4; ++i) {
    char name[8];
    std::snprintf(name, sizeof name, "fl%zu", i);
    emit_quantiles(f, "          ", name, w.cls[i], i + 1 < 4 ? "," : "");
  }
  std::fprintf(f, "        }\n      }%s\n", tail);
}

void emit_failover(std::FILE* f, const char* key, const FailoverResult& r,
                   const char* tail) {
  std::fprintf(f, "    \"%s\": {\n", key);
  std::fprintf(f, "      \"offered\": %llu,\n",
               static_cast<unsigned long long>(r.offered));
  std::fprintf(f, "      \"delivered\": %llu,\n",
               static_cast<unsigned long long>(r.delivered));
  std::fprintf(f, "      \"delivery_ratio\": %.6f,\n", r.delivery_ratio);
  std::fprintf(f, "      \"frr_reroutes\": %llu,\n",
               static_cast<unsigned long long>(r.frr_reroutes));
  std::fprintf(f, "      \"drops_link_down\": %llu,\n",
               static_cast<unsigned long long>(r.drops_link_down));
  std::fprintf(f, "      \"first_link_down_drop_ns\": %llu,\n",
               static_cast<unsigned long long>(r.first_link_down_drop_ns));
  std::fprintf(f, "      \"blackhole_ns\": %llu,\n",
               static_cast<unsigned long long>(r.blackhole_ns));
  std::fprintf(f, "      \"recovered\": %d,\n", r.recovered);
  std::fprintf(f, "      \"tail_inflation_p99\": %.4f,\n",
               r.tail_inflation_p99);
  std::fprintf(f, "      \"alloc_hooks\": %d,\n", r.hooks);
  std::fprintf(f, "      \"window_allocs\": %llu,\n",
               static_cast<unsigned long long>(r.window_allocs));
  std::fprintf(f, "      \"zero_alloc\": %d,\n", r.zero_alloc);
  std::fprintf(f, "      \"sink_min_gap_ns\": %llu,\n",
               static_cast<unsigned long long>(r.min_gap_ns));
  std::fprintf(f, "      \"sink_mean_gap_ns\": %.1f,\n", r.mean_gap_ns);
  emit_window(f, "pre", r.pre, ",");
  emit_window(f, "post", r.post, "");
  std::fprintf(f, "    }%s\n", tail);
}

void emit_netem(std::FILE* f, const NetemRow& row, const char* tail) {
  std::fprintf(f, "    \"%s\": {\n", row.key);
  std::fprintf(f, "      \"loss_prob\": %.4f,\n", row.loss_prob);
  std::fprintf(f, "      \"jitter_ns\": %llu,\n",
               static_cast<unsigned long long>(row.jitter_ns));
  std::fprintf(f, "      \"jitter_tau_ns\": %llu,\n",
               static_cast<unsigned long long>(row.jitter_tau_ns));
  std::fprintf(f, "      \"offered\": %llu,\n",
               static_cast<unsigned long long>(row.offered));
  std::fprintf(f, "      \"delivered\": %llu,\n",
               static_cast<unsigned long long>(row.delivered));
  std::fprintf(f, "      \"losses\": %llu,\n",
               static_cast<unsigned long long>(row.losses));
  std::fprintf(f, "      \"loss_ratio\": %.6f,\n", row.loss_ratio);
  emit_quantiles(f, "      ", "overall", row.overall, ",");
  emit_quantiles(f, "      ", "expr_class", row.expr_cls, "");
  std::fprintf(f, "    }%s\n", tail);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false, json_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--json-only") == 0) json_only = true;
  }

  if (!json_only)
    bench::print_header(
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

  const FailoverResult frr =
      run_failover(true, soak_pps, frr_fail, 0, frr_end);
  if (!json_only)
    std::printf("frr:  offered %llu delivered %llu reroutes %llu "
                "blackhole %.1f us  p99 %.1f -> %.1f us (x%.2f)  "
                "zero-alloc %s\n",
                static_cast<unsigned long long>(frr.offered),
                static_cast<unsigned long long>(frr.delivered),
                static_cast<unsigned long long>(frr.frr_reroutes),
                frr.blackhole_ns / 1e3, frr.pre.overall.p99 / 1e3,
                frr.post.overall.p99 / 1e3, frr.tail_inflation_p99,
                frr.hooks ? (frr.zero_alloc ? "yes" : "NO") : "unmeasured");

  const FailoverResult igp =
      run_failover(false, soak_pps, igp_fail, reconverge, igp_end);
  if (!json_only)
    std::printf("igp:  offered %llu delivered %llu link-down drops %llu "
                "blackhole %.1f ms (reconverge %.0f ms)\n",
                static_cast<unsigned long long>(igp.offered),
                static_cast<unsigned long long>(igp.delivered),
                static_cast<unsigned long long>(igp.drops_link_down),
                igp.blackhole_ns / 1e6,
                static_cast<double>(reconverge) / 1e6);

  NetemRow rows[] = {
      run_netem("baseline", 0.0, 0, 0, netem_pps, netem_dur),
      run_netem("loss", 0.01, 0, 0, netem_pps, netem_dur),
      run_netem("jitter", 0.0, 20 * sim::kMicro, 200 * sim::kMicro,
                netem_pps, netem_dur),
      run_netem("loss_jitter", 0.01, 20 * sim::kMicro, 200 * sim::kMicro,
                netem_pps, netem_dur),
  };
  if (!json_only)
    for (const NetemRow& row : rows)
      std::printf("netem %-12s loss %.4f  delivered %llu/%llu  "
                  "p50 %.1f us  p99 %.1f us\n",
                  row.key, row.loss_ratio,
                  static_cast<unsigned long long>(row.delivered),
                  static_cast<unsigned long long>(row.offered),
                  row.overall.p50 / 1e3, row.overall.p99 / 1e3);

  std::FILE* f = std::fopen("BENCH_slo.json", "w");
  if (f == nullptr) {
    std::perror("BENCH_slo.json");
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"slo_soak\",\n");
  std::fprintf(f, "  \"quick\": %d,\n", quick ? 1 : 0);
  std::fprintf(f, "  \"soak_pps\": %.0f,\n", soak_pps);
  std::fprintf(f, "  \"reconverge_delay_ns\": %llu,\n",
               static_cast<unsigned long long>(reconverge));
  std::fprintf(f, "  \"total_offered\": %llu,\n",
               static_cast<unsigned long long>(
                   frr.offered + igp.offered + rows[0].offered +
                   rows[1].offered + rows[2].offered + rows[3].offered));
  std::fprintf(f, "  \"scenarios\": {\n");
  emit_failover(f, "frr", frr, ",");
  emit_failover(f, "igp", igp, "");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"netem\": {\n");
  for (std::size_t i = 0; i < 4; ++i)
    emit_netem(f, rows[i], i + 1 < 4 ? "," : "");
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);

  // Deterministic self-gates, enforced in every mode: the FRR repair must
  // actually fire and hold the blackhole under a millisecond, the IGP
  // blackhole must straddle the modelled convergence delay, and (with the
  // counting hooks linked in) the delivery path must be allocation-free.
  bool ok = true;
  if (frr.frr_reroutes == 0 || frr.recovered == 0 ||
      frr.blackhole_ns > sim::kMilli) {
    std::fprintf(stderr, "GATE: frr repair ineffective (reroutes=%llu "
                 "blackhole=%llu ns)\n",
                 static_cast<unsigned long long>(frr.frr_reroutes),
                 static_cast<unsigned long long>(frr.blackhole_ns));
    ok = false;
  }
  if (igp.blackhole_ns < reconverge ||
      igp.blackhole_ns > reconverge + 10 * sim::kMilli) {
    std::fprintf(stderr, "GATE: igp blackhole %llu ns not ~reconverge "
                 "delay\n",
                 static_cast<unsigned long long>(igp.blackhole_ns));
    ok = false;
  }
  if (frr.hooks && frr.zero_alloc == 0) {
    std::fprintf(stderr, "GATE: %llu allocations in the steady-state SLO "
                 "window — want 0\n",
                 static_cast<unsigned long long>(frr.window_allocs));
    ok = false;
  }
  std::printf("wrote BENCH_slo.json (frr blackhole %.1f us, igp %.1f ms, "
              "zero-alloc %s)\n",
              frr.blackhole_ns / 1e3, igp.blackhole_ns / 1e6,
              !frr.hooks ? "unmeasured" : (frr.zero_alloc ? "yes" : "NO"));
  return ok ? 0 : 1;
}
