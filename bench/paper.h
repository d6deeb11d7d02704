// The paper's numbers, each written once in the anchor table below, and the
// experiments that measure them: Figs. 2 (§3.2, seg6local functions) and 3
// (§4.1, delay monitoring) on setup 1, whose router R has one Xeon core;
// Fig. 4 (UDP goodput through the Turris Omnia CPE) and the §4.2 TCP
// goodputs on the hybrid-access labs. bench_paper runs them at 200 ms
// windows, prints each figure's data and the table, and fails when an anchor
// leaves its band; tests/paper_test.cc checks the same table at 20 ms.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "bench_common.h"
#include "ebpf/perf_event.h"
#include "net/srh.h"
#include "seg6/seg6local.h"
#include "usecases/delay_monitor.h"
#include "usecases/hybrid.h"

namespace srv6bpf::bench {

// ---- The figures' data ------------------------------------------------------

struct Fig2Row {
  const char* name;
  double kpps;
  std::size_t sloc;  // the eBPF program's SLOC; 0 for a kernel function
  const char* note;
};
// Fig. 2's rows, in the figure's order.
enum Fig2Fn {
  kRaw, kEndStatic, kEndBpf, kEndTStatic, kEndTBpf, kTag, kAddTlv, kAddTlvNoJit
};

struct Fig3Row { const char* name; double kpps; };
// Fig. 3's rows, in the figure's order.
enum Fig3Exp { kEncap10000, kEndDm10000, kEncap100, kEndDm100 };

inline constexpr std::size_t kFig4Payloads[] = {200,  400,  600, 800,
                                                1000, 1200, 1400};
struct Fig4Point {  // Mbps per mode at one payload size
  double plain, decap, wrr;
};

struct TcpRow {
  const char* name;
  double mbps;
  std::uint64_t rtx, timeouts, ooo;
};

struct PaperData {
  std::vector<Fig2Row> fig2;    // indexed by Fig2Fn
  std::vector<Fig3Row> fig3;    // indexed by Fig3Exp
  std::vector<Fig4Point> fig4;  // one point per kFig4Payloads entry
  std::vector<TcpRow> tcp;      // [0]: WRR without compensation
};

// ---- The anchor table -------------------------------------------------------

// One number the paper reports, the band this reproduction holds it to, and
// how it is read off the figures' data. `paper` is NaN where the paper shows
// a shape (an order, a floor) rather than a number.
struct Anchor {
  const char* section;
  const char* name;
  double paper;
  double lo, hi;  // the anchor holds when lo <= measured < hi
  double (*measure)(const PaperData&);

  bool holds(double measured) const { return lo <= measured && measured < hi; }
};

inline constexpr double kShape = std::numeric_limits<double>::quiet_NaN();
inline constexpr double kInf = std::numeric_limits<double>::infinity();

template <Fig2Fn A, Fig2Fn B>
double fig2_ratio(const PaperData& d) {
  return d.fig2[A].kpps / d.fig2[B].kpps;
}
// A Fig. 3 rate as a share of raw forwarding.
template <Fig3Exp E>
double fig3_share(const PaperData& d) {
  return d.fig3[E].kpps / d.fig2[kRaw].kpps;
}
// The largest ratio of two Fig. 4 modes over the payloads.
template <double Fig4Point::*Num, double Fig4Point::*Den>
double fig4_largest(const PaperData& d) {
  double largest = 0;
  for (const Fig4Point& p : d.fig4) largest = std::max(largest, p.*Num / p.*Den);
  return largest;
}

// §4.2's two goodputs with TWD compensation join this table once they
// reproduce (ROADMAP item 1).
inline constexpr Anchor kAnchors[] = {
    {"Fig. 2", "raw IPv6 forwarding, kpps", 610, 579.5, 640.5,
     [](const PaperData& d) { return d.fig2[kRaw].kpps; }},
    {"Fig. 2", "End BPF / End static", 0.97, 0.95, 0.99,
     fig2_ratio<kEndBpf, kEndStatic>},
    {"Fig. 2", "End.T BPF / End.T static", 0.95, 0.93, 0.97,
     fig2_ratio<kEndTBpf, kEndTStatic>},
    {"Fig. 2", "Tag++ / End BPF", 0.97, 0.95, 0.99, fig2_ratio<kTag, kEndBpf>},
    {"Fig. 2", "Add TLV / End BPF", 0.95, 0.93, 0.97,
     fig2_ratio<kAddTlv, kEndBpf>},
    {"Fig. 2", "Add TLV JIT / no-JIT", 1.8, 1.7, 1.9,
     fig2_ratio<kAddTlv, kAddTlvNoJit>},
    {"Fig. 3", "Encap 1:10000 / raw", 0.95, 0.93, 0.97,
     fig3_share<kEncap10000>},
    {"Fig. 3", "End.DM 1:10000 / raw", 1.00, 0.98, 1.02,
     fig3_share<kEndDm10000>},
    {"Fig. 3", "Encap 1:100 / raw", kShape, 0.94, kInf, fig3_share<kEncap100>},
    {"Fig. 3", "End.DM 1:100 / raw", kShape, 0.94, kInf,
     fig3_share<kEndDm100>},
    // Plain > kernel decap > eBPF WRR at every payload.
    {"Fig. 4", "kernel decap / plain, largest", kShape, 0, 1,
     fig4_largest<&Fig4Point::decap, &Fig4Point::plain>},
    {"Fig. 4", "eBPF WRR / kernel decap, largest", kShape, 0, 1,
     fig4_largest<&Fig4Point::wrr, &Fig4Point::decap>},
    {"Fig. 4", "eBPF WRR / plain at 1400 B", kShape, 0.90, kInf,
     [](const PaperData& d) { return d.fig4.back().wrr / d.fig4.back().plain; }},
    // One TCP connection collapses; the band is twice the paper's value.
    {"§4.2", "WRR without compensation, Mbps", 3.8, 0, 7.6,
     [](const PaperData& d) { return d.tcp[0].mbps; }},
};

// ---- The experiments --------------------------------------------------------

inline constexpr double kOfferedPps = 3e6;  // S1's stream on setup 1

// Each Fig. 2 function runs on R's SID in a lab of its own.
inline std::vector<Fig2Row> run_fig2(sim::TimeNs window) {
  const auto kernel = [&](const char* name, seg6::Seg6Action action) {
    Setup1 lab;
    seg6::Seg6LocalEntry e;
    e.action = action;
    lab.r->ns().seg6local().add(lab.sid, e);
    return Fig2Row{name, lab.measure(true, kOfferedPps, window), 0, ""};
  };
  const auto bpf = [&](const char* name, const usecases::BuiltProgram& built,
                       bool jit, const char* note) {
    Setup1 lab;
    lab.r->ns().bpf().set_jit_enabled(jit);
    lab.add_end_bpf(built);
    return Fig2Row{name, lab.measure(true, kOfferedPps, window),
                   built.paper_sloc, note};
  };
  const double raw = Setup1().measure(false, kOfferedPps, window);
  const auto add_tlv = usecases::build_add_tlv();
  return {
      {"raw IPv6 forwarding", raw, 0, ""},
      kernel("End (static)", seg6::Seg6Action::kEnd),
      bpf("End (BPF)", usecases::build_end(), true, ""),
      kernel("End.T (static)", seg6::Seg6Action::kEndT),
      bpf("End.T (BPF)", usecases::build_end_t(0), true, ""),
      bpf("Tag++ (BPF)", usecases::build_tag_increment(), true,
          "no static counterpart"),
      bpf("Add TLV (BPF)", add_tlv, true, "no static counterpart"),
      bpf("Add TLV (BPF, no JIT)", add_tlv, false, "interpreter"),
  };
}

// Fig. 3 Encap: R's route toward S2 runs the DM transit program, which
// encapsulates one packet in `ratio`. S2 decapsulates the probes (End.DT6),
// so their inner packets still reach the sink.
inline double measure_dm_encap(std::uint64_t ratio, sim::TimeNs window) {
  Setup1 lab;
  const auto decap_sid = net::Ipv6Addr::must_parse("fc00:a::d6");
  auto& fib = lab.r->ns().table(0);
  fib.add_route({net::Prefix::parse("fc00:2::/64").value(),
                 {{net::Ipv6Addr{}, lab.r_downstream_if, 1}},
                 usecases::make_dm_encap_lwt(
                     *lab.r, ratio, decap_sid, lab.s2_addr, lab.s1_addr,
                     usecases::DelayMonitorLab::kControllerPort)});
  fib.add_route(net::Prefix::parse("fc00:a::/64").value(),
                {net::Ipv6Addr{}, lab.r_downstream_if, 1});
  seg6::Seg6LocalEntry dt6;
  dt6.action = seg6::Seg6Action::kEndDT6;
  lab.s2->ns().seg6local().add(decap_sid, dt6);
  return lab.measure(/*through_sid=*/false, kOfferedPps, window);
}

// Fig. 3 End.DM: S1 sends one pre-encapsulated OWD probe (outer IPv6 + SRH
// {[R's SID, S2], DM TLV, controller TLV} around the plain stream's packet)
// in `ratio` packets, and R runs End.DM on its SID for the probes.
inline double measure_end_dm(std::uint64_t ratio, sim::TimeNs window) {
  Setup1 lab;
  const auto perf_id = ebpf::create_perf_event_array(lab.r->ns().bpf().maps(),
                                                     "dm", 1 << 20);
  lab.add_end_bpf(usecases::build_end_dm(perf_id));

  net::PacketSpec inner;  // the plain stream's packet
  inner.src = lab.s1_addr;
  inner.dst = lab.s2_addr;
  net::Packet probe = net::make_udp_packet(inner);
  std::vector<std::uint8_t> tlvs = net::build_dm_tlv(/*tx=*/123456789);
  const auto ctrl = net::build_controller_tlv(
      net::kTlvController, lab.s1_addr,
      usecases::DelayMonitorLab::kControllerPort);
  tlvs.insert(tlvs.end(), ctrl.begin(), ctrl.end());
  const net::Ipv6Addr segs[] = {lab.sid, lab.s2_addr};
  seg6::seg6_encap_srh(probe, net::build_srh(net::kProtoIpv6, segs, tlvs),
                       lab.s1_addr);

  // The probe stream, sent straight onto S1's link from t = 0.
  const double probe_pps = kOfferedPps / static_cast<double>(ratio);
  const auto interval = static_cast<sim::TimeNs>(1e9 / probe_pps);
  std::function<void()> send_probe = [&] {
    lab.s1->send(net::Packet(probe));
    lab.net.loop().schedule(interval, [&send_probe] { send_probe(); });
  };
  lab.net.loop().schedule_at(0, [&send_probe] { send_probe(); });
  return lab.measure(/*through_sid=*/false, kOfferedPps - probe_pps, window);
}

inline TcpRow run_tcp(const char* name, bool compensation, int flows) {
  usecases::HybridLab lab({.twd_compensation = compensation});
  if (compensation) lab.net().run_for(2 * sim::kSecond);  // daemon converges
  const double mbps = lab.run_tcp(flows, 12 * sim::kSecond);
  return {name, mbps, lab.total_retransmits(), lab.total_timeouts(),
          lab.receiver_ooo_segments()};
}

// Runs Figs. 2-4 with `window` of simulated time per measurement, and the
// §4.2 TCP runs at their 12 s.
inline PaperData run_paper(sim::TimeNs window) {
  PaperData d;
  d.fig2 = run_fig2(window);
  d.fig3 = {
      {"Encap  1:10000", measure_dm_encap(10000, window)},
      {"End.DM 1:10000", measure_end_dm(10000, window)},
      {"Encap  1:100", measure_dm_encap(100, window)},
      {"End.DM 1:100", measure_end_dm(100, window)},
  };
  using Mode = usecases::Fig4Lab::Mode;
  for (const std::size_t payload : kFig4Payloads) {
    const auto mbps = [&](Mode mode) {
      return usecases::Fig4Lab({.mode = mode}).run_udp(payload, window);
    };
    d.fig4.push_back({mbps(Mode::kPlainForward), mbps(Mode::kKernelDecap),
                      mbps(Mode::kEbpfWrr)});
  }
  d.tcp = {
      run_tcp("WRR, no compensation, 1 conn", false, 1),
      run_tcp("WRR + TWD compensation, 1 conn", true, 1),
      run_tcp("WRR + TWD compensation, 4 conns", true, 4),
  };
  return d;
}

}  // namespace srv6bpf::bench
