#include "usecases/delay_monitor.h"

#include <cstring>
#include <stdexcept>
#include <string>

#include "ebpf/perf_event.h"
#include "util/byteorder.h"

namespace srv6bpf::usecases {

namespace {
const net::Ipv6Addr kS1Addr = net::Ipv6Addr::must_parse("fc00:1::1");
const net::Ipv6Addr kRIf0 = net::Ipv6Addr::must_parse("fc00:1::2");
const net::Ipv6Addr kRIf1 = net::Ipv6Addr::must_parse("fc00:2::1");
const net::Ipv6Addr kS2Addr = net::Ipv6Addr::must_parse("fc00:2::2");
const net::Ipv6Addr kDmSid = net::Ipv6Addr::must_parse("fc00:a::dd");
constexpr const char* kSinkFilter = "udp and dst port 7001";
constexpr const char* kControllerFilter = "udp and dst port 9999";
}  // namespace

std::shared_ptr<seg6::LwtState> make_dm_encap_lwt(
    sim::Node& node, std::uint64_t ratio, const net::Ipv6Addr& dm_sid,
    const net::Ipv6Addr& final_seg, const net::Ipv6Addr& ctrl_addr,
    std::uint16_t ctrl_port) {
  auto& bpf = node.ns().bpf();
  const std::uint32_t cfg_id = bpf.maps().create(  // MapDef: 1-entry array
      {.value_size = sizeof(DmEncapConfig), .name = "dm_encap_cfg"});

  DmEncapConfig cfg;
  cfg.ratio = ratio;
  std::memcpy(cfg.dm_sid, dm_sid.bytes().data(), 16);
  std::memcpy(cfg.final_seg, final_seg.bytes().data(), 16);
  std::memcpy(cfg.ctrl_addr, ctrl_addr.bytes().data(), 16);
  cfg.ctrl_port = ctrl_port;
  bpf.maps().get(cfg_id)->put(std::uint32_t{0}, cfg);

  auto lwt = std::make_shared<seg6::LwtState>();
  lwt->kind = seg6::LwtState::Kind::kBpf;
  lwt->prog_xmit =
      load_or_throw(bpf, build_dm_encap(cfg_id), ebpf::ProgType::kLwtXmit);
  return lwt;
}

DelayMonitorLab::DelayMonitorLab(const Options& opts) : net_(opts.seed) {
  s1_ = &net_.add_node("S1");
  r_ = &net_.add_node("R");
  s2_ = &net_.add_node("S2");

  const std::uint64_t kTenGig = 10ull * 1000 * 1000 * 1000;
  auto l1 = net_.connect(*s1_, kS1Addr, *r_, kRIf0, kTenGig, opts.link_delay);
  auto l2 = net_.connect(*r_, kRIf1, *s2_, kS2Addr, kTenGig, opts.link_delay);

  // ---- routing ----
  // S1: everything via R, with the DM transit program attached to the
  // monitored destination prefix.
  auto& s1_fib = s1_->ns().table(0);
  auto& r_fib = r_->ns().table(0);
  auto& s2_fib = s2_->ns().table(0);

  // S1 -> monitored prefix: LWT BPF xmit program (the paper's transit hook).
  s1_fib.add_route({net::Prefix::parse("fc00:2::/64").value(),
                    {{kRIf0, l1.a_ifindex, 1}},
                    make_dm_encap_lwt(*s1_, opts.probe_ratio, kDmSid, kS2Addr,
                                      kS1Addr, kControllerPort)});
  // Probe outer destinations (the DM SID) also go via R.
  s1_fib.add_route(net::Prefix::parse("fc00:a::/64").value(),
                   {kRIf0, l1.a_ifindex, 1});

  // R: plain forwarding between the two prefixes + the End.DM SID.
  r_fib.add_route(net::Prefix::parse("fc00:1::/64").value(),
                  {net::Ipv6Addr{}, l1.b_ifindex, 1});
  r_fib.add_route(net::Prefix::parse("fc00:2::/64").value(),
                  {net::Ipv6Addr{}, l2.a_ifindex, 1});

  auto& r_bpf = r_->ns().bpf();
  const std::uint32_t perf_id =
      ebpf::create_perf_event_array(r_bpf.maps(), "dm_events", 65536);
  bind_end_bpf(r_->ns(), kDmSid,
               load_or_throw(r_bpf, build_end_dm(perf_id),
                             ebpf::ProgType::kLwtSeg6Local));

  // S2: default route back through R; local sink.
  s2_fib.add_route(net::Prefix::parse("::/0").value(),
                   {kRIf1, l2.b_ifindex, 1});

  // ---- apps ----
  // Both receive paths are gated by compiled filter expressions, the
  // userspace half of the paper's deployment: the sink and the controller
  // each attach a classic-BPF filter to their socket (SO_ATTACH_FILTER),
  // which we compile from tcpdump syntax and translate to eBPF.
  std::string ferr;
  mux_s2_ = std::make_unique<apps::AppMux>(*s2_);
  sink_filter_ = apps::SocketFilter::from_expr(s2_->ns(), "sink_filter",
                                               kSinkFilter, &ferr);
  if (sink_filter_ == nullptr)
    throw std::runtime_error(std::string("sink filter: ") + ferr);
  sink_ = std::make_unique<apps::UdpSink>(*mux_s2_, 7001);
  mux_s2_->attach_udp_filter(7001, sink_filter_);

  mux_s1_ = std::make_unique<apps::AppMux>(*s1_);
  ctrl_filter_ = apps::SocketFilter::from_expr(s1_->ns(), "ctrl_filter",
                                               kControllerFilter, &ferr);
  if (ctrl_filter_ == nullptr)
    throw std::runtime_error(std::string("controller filter: ") + ferr);
  mux_s1_->attach_udp_filter(kControllerPort, ctrl_filter_);
  mux_s1_->on_udp(kControllerPort,
                  [this](const net::Packet&, const net::UdpHeader&,
                         std::span<const std::uint8_t> payload, sim::TimeNs) {
                    if (payload.size() < 16) return;
                    OwdSample s;
                    s.tx_ns = load_unaligned<std::uint64_t>(payload.data());
                    s.rx_ns = load_unaligned<std::uint64_t>(payload.data() + 8);
                    samples_.push_back(s);
                  });

  // The user-space daemon on R: poll the perf ring, relay to the controller
  // (the paper's 100-SLOC bcc/Python daemon).
  auto* perf_map =
      dynamic_cast<ebpf::PerfEventArrayMap*>(r_bpf.maps().get(perf_id));
  poller_ = std::make_unique<apps::PerfPoller>(
      *r_, perf_map->buffer(), sim::kMilli,
      [this](const ebpf::PerfRecord& rec, sim::TimeNs) {
        if (rec.data.size() < sizeof(DmEvent)) return;
        ++probes_;
        DmEvent ev;
        std::memcpy(&ev, rec.data.data(), sizeof ev);
        net::Ipv6Addr ctrl;
        std::memcpy(ctrl.bytes().data(), ev.ctrl_addr, 16);
        std::uint8_t payload[16];
        store_unaligned<std::uint64_t>(payload, ev.tx_ns);
        store_unaligned<std::uint64_t>(payload + 8, ev.rx_ns);
        apps::send_udp(*r_, kRIf0, ctrl, 40000, ev.ctrl_port, payload);
      });
  poller_->start();
}

void DelayMonitorLab::offer_traffic(double pps, sim::TimeNs duration,
                                    std::size_t payload) {
  apps::TrafGen::Config cfg;
  cfg.spec.src = kS1Addr;
  cfg.spec.dst = kS2Addr;
  cfg.spec.src_port = 7000;
  cfg.spec.dst_port = 7001;
  cfg.spec.payload_size = payload;
  cfg.pps = pps;
  cfg.start_at = net_.now();
  cfg.duration = duration;
  gen_ = std::make_unique<apps::TrafGen>(*s1_, cfg);
  gen_->start();
}

std::uint64_t DelayMonitorLab::sink_packets() const {
  return sink_->packets();
}

}  // namespace srv6bpf::usecases
