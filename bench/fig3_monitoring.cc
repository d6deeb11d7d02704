// Figure 3 — "Impact of both BPF programs on the forwarding performances,
// for two probing ratios."
//
// Two experiments on the setup-1 lab, R's core being the bottleneck:
//   * Encap: R runs the DM transit eBPF program (BPF LWT) for *every* packet
//     towards S2, encapsulating 1:N of them with the DM probe SRH.
//   * End.DM: S1 offers a mix of plain packets and pre-encapsulated probes
//     (1:N); R runs End.DM (End.BPF) for the probes only.
// Rates are normalized to raw IPv6 forwarding (the paper's 610 kpps).
//
// Paper anchors: Encap ≈ 95% of raw forwarding; End.DM ≈ 100% at 1:10000 and
// ≥ ~98% at 1:100.
#include <cstring>

#include "bench_common.h"
#include "ebpf/perf_event.h"
#include "net/srh.h"
#include "seg6/seg6local.h"

using namespace srv6bpf;
using namespace srv6bpf::bench;

namespace {

// Builds a pre-encapsulated OWD probe: outer IPv6 + SRH{[dm_sid, final],
// DM TLV, controller TLV} + inner UDP packet (the trafgen template).
net::Packet make_owd_probe(const Setup1& lab, const net::Ipv6Addr& dm_sid) {
  net::PacketSpec inner;
  inner.src = lab.s1_addr;
  inner.dst = lab.s2_addr;
  inner.dst_port = 7001;
  inner.payload_size = 64;
  net::Packet pkt = net::make_udp_packet(inner);

  std::vector<std::uint8_t> tlvs = net::build_dm_tlv(/*tx=*/123456789);
  auto ctrl = net::build_controller_tlv(net::kTlvController, lab.s1_addr, 9999);
  tlvs.insert(tlvs.end(), ctrl.begin(), ctrl.end());
  const net::Ipv6Addr segs[] = {dm_sid, lab.s2_addr};
  seg6::seg6_encap_srh(pkt, net::build_srh(net::kProtoIpv6, segs, tlvs),
                       lab.s1_addr);
  return pkt;
}

// R encapsulates 1:N of the plain stream (transit behaviour under test).
double measure_encap(std::uint64_t ratio) {
  Setup1 lab;
  const auto decap_sid = net::Ipv6Addr::must_parse("fc00:a::d6");

  auto& bpf = lab.r->ns().bpf();
  ebpf::MapDef def;
  def.type = ebpf::MapType::kArray;
  def.key_size = 4;
  def.value_size = sizeof(usecases::DmEncapConfig);
  def.max_entries = 1;
  def.name = "cfg";
  const auto cfg_id = bpf.maps().create(def);
  usecases::DmEncapConfig cfg;
  cfg.ratio = ratio;
  std::memcpy(cfg.dm_sid, decap_sid.bytes().data(), 16);
  std::memcpy(cfg.final_seg, lab.s2_addr.bytes().data(), 16);
  std::memcpy(cfg.ctrl_addr, lab.s1_addr.bytes().data(), 16);
  cfg.ctrl_port = 9999;
  bpf.maps().get(cfg_id)->put(std::uint32_t{0}, cfg);

  auto built = usecases::build_dm_encap(cfg_id);
  auto load = bpf.load(built.name, ebpf::ProgType::kLwtXmit, built.insns,
                       built.paper_sloc);
  if (!load.ok()) {
    std::fprintf(stderr, "%s rejected: %s\n", built.name,
                 load.verify.error.c_str());
    std::exit(1);
  }
  auto lwt = std::make_shared<seg6::LwtState>();
  lwt->kind = seg6::LwtState::Kind::kBpf;
  lwt->prog_xmit = load.prog;
  // Replace R's downstream route with the LWT-BPF one.
  lab.r->ns().table(0).clear();
  lab.r->ns().table(0).add_route({net::Prefix::parse("fc00:2::/64").value(),
                                  {{net::Ipv6Addr{}, lab.r_downstream_if, 1}},
                                  lwt});
  lab.r->ns().table(0).add_route(net::Prefix::parse("fc00:1::/64").value(),
                                 {net::Ipv6Addr{}, lab.r_upstream_if, 1});
  lab.r->ns().table(0).add_route(net::Prefix::parse("fc00:a::/64").value(),
                                 {net::Ipv6Addr{}, lab.r_downstream_if, 1});

  // Probes decapsulate at S2 (End.DT6), so the inner packets still count.
  seg6::Seg6LocalEntry dt6;
  dt6.action = seg6::Seg6Action::kEndDT6;
  lab.s2->ns().seg6local().add(decap_sid, dt6);

  return lab.measure(/*through_sid=*/false, 3e6, 200 * sim::kMilli);
}

// S1 offers (1 - 1/N) plain + 1/N probes; R runs End.DM for the probes.
double measure_end_dm(std::uint64_t ratio) {
  Setup1 lab;
  const auto dm_sid = net::Ipv6Addr::must_parse("fc00:f::dd");
  auto& bpf = lab.r->ns().bpf();
  const auto perf_id = ebpf::create_perf_event_array(bpf.maps(), "dm", 1 << 20);
  auto built = usecases::build_end_dm(perf_id);
  auto load = bpf.load(built.name, ebpf::ProgType::kLwtSeg6Local, built.insns,
                       built.paper_sloc);
  if (!load.ok()) {
    std::fprintf(stderr, "%s rejected: %s\n", built.name,
                 load.verify.error.c_str());
    std::exit(1);
  }
  seg6::Seg6LocalEntry e;
  e.action = seg6::Seg6Action::kEndBPF;
  e.prog = load.prog;
  lab.r->ns().seg6local().add(dm_sid, e);

  // Probe stream (1/N of 3 Mpps) injected directly at S1's link.
  net::Packet probe_template = make_owd_probe(lab, dm_sid);
  const double probe_pps = 3e6 / static_cast<double>(ratio);
  struct ProbeGen {
    sim::Node* s1;
    net::Packet tmpl;
    sim::TimeNs interval;
    sim::TimeNs next = 0;
    sim::TimeNs stop;
    void tick() {
      if (s1->loop().now() >= stop) return;
      net::Packet p = tmpl;
      s1->send(std::move(p));
      next += interval;
      s1->loop().schedule_at(next, [this] { tick(); });
    }
  };
  ProbeGen probe_gen{lab.s1, std::move(probe_template),
                     static_cast<sim::TimeNs>(1e9 / probe_pps), 0,
                     300 * sim::kMilli};
  lab.net.loop().schedule_at(0, [&probe_gen] { probe_gen.tick(); });

  return lab.measure(/*through_sid=*/false, 3e6 - probe_pps,
                     200 * sim::kMilli);
}

}  // namespace

int main() {
  print_header("Figure 3: passive delay monitoring overhead on R",
               "Encap ~95% of raw forwarding; End.DM ~100% @1:10000, both "
               ">=94% @1:100");

  Setup1 baseline_lab;
  const double baseline =
      baseline_lab.measure(false, 3e6, 200 * sim::kMilli);

  struct Row {
    const char* name;
    double kpps;
  } rows[] = {
      {"Encap  1:10000", measure_encap(10000)},
      {"End.DM 1:10000", measure_end_dm(10000)},
      {"Encap  1:100", measure_encap(100)},
      {"End.DM 1:100", measure_end_dm(100)},
  };

  std::printf("\nraw IPv6 forwarding baseline: %.1f kpps\n\n", baseline);
  std::printf("%-16s %10s %12s\n", "experiment", "kpps", "% of raw");
  for (const auto& row : rows)
    std::printf("%-16s %10.1f %11.1f%%\n", row.name, row.kpps,
                100.0 * row.kpps / baseline);
  return 0;
}
