#include "usecases/hybrid.h"

#include <algorithm>
#include <cstring>

#include "net/checksum.h"
#include "net/srh.h"
#include "net/transport.h"
#include "seg6/seg6local.h"
#include "util/byteorder.h"

namespace srv6bpf::usecases {

namespace {

const net::Ipv6Addr kS1 = net::Ipv6Addr::must_parse("fd00:1::1");
const net::Ipv6Addr kAIf0 = net::Ipv6Addr::must_parse("fd00:1::2");
const net::Ipv6Addr kAL1 = net::Ipv6Addr::must_parse("fd00:a1::1");
const net::Ipv6Addr kML1 = net::Ipv6Addr::must_parse("fd00:a1::2");
const net::Ipv6Addr kAL2 = net::Ipv6Addr::must_parse("fd00:a2::1");
const net::Ipv6Addr kML2 = net::Ipv6Addr::must_parse("fd00:a2::2");
const net::Ipv6Addr kMIf2 = net::Ipv6Addr::must_parse("fd00:2::1");
const net::Ipv6Addr kS2 = net::Ipv6Addr::must_parse("fd00:2::2");

// SIDs. d1/d2 = End.DT6 decap SIDs reachable via link1/link2; 7d01/7d02 =
// the CPE's two End.DM-TWD SIDs (one pinned to each link by /128 routes).
const net::Ipv6Addr kMD1 = net::Ipv6Addr::must_parse("fd00:ae::d1");
const net::Ipv6Addr kMD2 = net::Ipv6Addr::must_parse("fd00:ae::d2");
const net::Ipv6Addr kMTwd1 = net::Ipv6Addr::must_parse("fd00:ae::7d01");
const net::Ipv6Addr kMTwd2 = net::Ipv6Addr::must_parse("fd00:ae::7d02");
const net::Ipv6Addr kAD1 = net::Ipv6Addr::must_parse("fd00:aa::d1");
const net::Ipv6Addr kAD2 = net::Ipv6Addr::must_parse("fd00:aa::d2");

constexpr std::uint16_t kTwdPortL1 = 41001;
constexpr std::uint16_t kTwdPortL2 = 41002;

// The paper's xDSL and LTE stand-ins: 50 Mbps at 30±5 ms RTT and 30 Mbps
// at 5±2 ms RTT.
constexpr std::uint64_t kLink1Bps = 50 * 1000 * 1000;
constexpr std::uint64_t kLink2Bps = 30 * 1000 * 1000;
constexpr sim::TimeNs kLink1Rtt = 30 * sim::kMilli;
constexpr sim::TimeNs kLink1JitterRtt = 5 * sim::kMilli;
constexpr sim::TimeNs kLink2Rtt = 5 * sim::kMilli;
constexpr sim::TimeNs kLink2JitterRtt = 2 * sim::kMilli;
constexpr sim::TimeNs kTwdInterval = 50 * sim::kMilli;

void add_dt6_sid(sim::Node& node, const net::Ipv6Addr& sid) {
  seg6::Seg6LocalEntry e;
  e.action = seg6::Seg6Action::kEndDT6;
  e.table = 0;
  node.ns().seg6local().add(sid, e);
}

}  // namespace

std::shared_ptr<seg6::LwtState> make_wrr_lwt(sim::Node& node,
                                             const net::Ipv6Addr& sid1,
                                             const net::Ipv6Addr& sid2) {
  auto& bpf = node.ns().bpf();
  const std::uint32_t cfg_id = bpf.maps().create(  // MapDef: 1-entry array
      {.value_size = sizeof(WrrConfig), .name = node.name() + "_wrr_cfg"});

  WrrConfig cfg;
  std::memcpy(cfg.sid1, sid1.bytes().data(), 16);
  std::memcpy(cfg.sid2, sid2.bytes().data(), 16);
  bpf.maps().get(cfg_id)->put(std::uint32_t{0}, cfg);

  auto lwt = std::make_shared<seg6::LwtState>();
  lwt->kind = seg6::LwtState::Kind::kBpf;
  lwt->prog_xmit =
      load_or_throw(bpf, build_wrr(cfg_id), ebpf::ProgType::kLwtXmit);
  return lwt;
}

// ---------------------------------------------------------------------------
// HybridLab (TCP over two asymmetric links)
// ---------------------------------------------------------------------------

HybridLab::HybridLab(const Options& opts) : net_(/*seed=*/7) {
  s1_ = &net_.add_node("S1");
  a_ = &net_.add_node("A");   // aggregation box
  m_ = &net_.add_node("M");   // Turris Omnia CPE
  s2_ = &net_.add_node("S2");

  const std::uint64_t kGig = 1000ull * 1000 * 1000;
  auto l0 = net_.connect(*s1_, kS1, *a_, kAIf0, kGig, 100 * sim::kMicro);
  auto l1 = net_.connect(*a_, kAL1, *m_, kML1, kLink1Bps, 0);
  auto l2 = net_.connect(*a_, kAL2, *m_, kML2, kLink2Bps, 0);
  auto l3 = net_.connect(*m_, kMIf2, *s2_, kS2, kGig, 100 * sim::kMicro);
  link1_ = l1.link;
  link2_ = l2.link;
  a_link1_side_ = 0;  // A attached at side 0 of both WAN links
  a_link2_side_ = 0;
  // Access links buffer less than a datacenter NIC; 256 KiB keeps
  // worst-case queueing below ~70 ms at these rates.
  link1_->set_wire_queue_limit(256 * 1024);
  link2_->set_wire_queue_limit(256 * 1024);

  // netem on both directions of each WAN link: half the RTT per direction.
  // Jitter is time-correlated (access-link latency wanders slowly rather
  // than per packet), which is also what makes the paper's periodic TWD
  // compensation able to track it.
  for (int side = 0; side < 2; ++side) {
    sim::NetemConfig n1;
    n1.delay_ns = kLink1Rtt / 2;
    n1.jitter_ns = kLink1JitterRtt / 2;
    n1.jitter_tau_ns = 10 * sim::kSecond;
    link1_->qdisc(side).set_config(n1);
    sim::NetemConfig n2;
    n2.delay_ns = kLink2Rtt / 2;
    n2.jitter_ns = kLink2JitterRtt / 2;
    n2.jitter_tau_ns = 10 * sim::kSecond;
    link2_->qdisc(side).set_config(n2);
  }

  // ---- routing ----
  auto& s1f = s1_->ns().table(0);
  auto& af = a_->ns().table(0);
  auto& mf = m_->ns().table(0);
  auto& s2f = s2_->ns().table(0);
  auto p = [](const char* s) { return net::Prefix::parse(s).value(); };

  s1f.add_route(p("::/0"), {kAIf0, l0.a_ifindex, 1});
  s2f.add_route(p("::/0"), {kMIf2, l3.b_ifindex, 1});

  // A: client prefix through the WRR scheduler; SIDs pinned per link.
  af.add_route({p("fd00:2::/64"), {}, make_wrr_lwt(*a_, kMD1, kMD2)});
  af.add_route(p("fd00:ae::d1/128"), {kML1, l1.a_ifindex, 1});
  af.add_route(p("fd00:ae::7d01/128"), {kML1, l1.a_ifindex, 1});
  af.add_route(p("fd00:ae::d2/128"), {kML2, l2.a_ifindex, 1});
  af.add_route(p("fd00:ae::7d02/128"), {kML2, l2.a_ifindex, 1});
  af.add_route(p("fd00:1::/64"), {net::Ipv6Addr{}, l0.b_ifindex, 1});
  af.add_route(p("fd00:a1::/64"), {net::Ipv6Addr{}, l1.a_ifindex, 1});
  af.add_route(p("fd00:a2::/64"), {net::Ipv6Addr{}, l2.a_ifindex, 1});
  add_dt6_sid(*a_, kAD1);
  add_dt6_sid(*a_, kAD2);

  // M (CPE): upstream through its own WRR; local LAN on if2.
  mf.add_route({p("fd00:1::/64"), {}, make_wrr_lwt(*m_, kAD1, kAD2)});
  mf.add_route(p("fd00:aa::d1/128"), {kAL1, l1.b_ifindex, 1});
  mf.add_route(p("fd00:aa::d2/128"), {kAL2, l2.b_ifindex, 1});
  mf.add_route(p("fd00:2::/64"), {net::Ipv6Addr{}, l3.a_ifindex, 1});
  mf.add_route(p("fd00:a1::/64"), {net::Ipv6Addr{}, l1.b_ifindex, 1});
  mf.add_route(p("fd00:a2::/64"), {net::Ipv6Addr{}, l2.b_ifindex, 1});
  add_dt6_sid(*m_, kMD1);
  add_dt6_sid(*m_, kMD2);

  // The CPE runs without the JIT (ARM32 JIT bug, §4.2).
  m_->ns().bpf().set_jit_enabled(false);

  // End.DM-TWD SIDs on the CPE: one program behind both.
  const ebpf::ProgHandle twd = load_or_throw(
      m_->ns().bpf(), build_end_dm_twd(), ebpf::ProgType::kLwtSeg6Local);
  bind_end_bpf(m_->ns(), kMTwd1, twd);
  bind_end_bpf(m_->ns(), kMTwd2, twd);

  mux_s1_ = std::make_unique<apps::AppMux>(*s1_);
  mux_s2_ = std::make_unique<apps::AppMux>(*s2_);
  mux_a_ = std::make_unique<apps::AppMux>(*a_);

  if (opts.twd_compensation) start_twd_daemon();
}

void HybridLab::send_twd_probe(int link_index) {
  // Probe: IPv6 + SRH{segments [M::7d0X, A], DM TLV(tx=now), PadN} + UDP.
  const net::Ipv6Addr& sid = link_index == 0 ? kMTwd1 : kMTwd2;
  const std::uint16_t port = link_index == 0 ? kTwdPortL1 : kTwdPortL2;

  std::vector<net::Ipv6Addr> segs = {sid, kAL1};  // bounce back to A
  std::vector<std::uint8_t> tlvs =
      net::build_dm_tlv(net_.now(), net::kDmFlagTwoWay);
  const auto pad = net::build_padn(4);
  tlvs.insert(tlvs.end(), pad.begin(), pad.end());
  const auto srh = net::build_srh(net::kProtoUdp, segs, tlvs);

  const std::size_t udp_len = net::kUdpHeaderSize + 8;
  net::Packet pkt;
  std::uint8_t* buf =
      pkt.push_front(net::kIpv6HeaderSize + srh.size() + udp_len);
  net::Ipv6Header ip;
  ip.src = kAL1;
  ip.dst = sid;
  ip.next_header = net::kProtoRouting;
  ip.hop_limit = 64;
  ip.payload_length = static_cast<std::uint16_t>(srh.size() + udp_len);
  ip.write(buf);
  std::memcpy(buf + net::kIpv6HeaderSize, srh.data(), srh.size());
  net::UdpHeader uh;
  uh.src_port = 41000;
  uh.dst_port = port;
  uh.length = static_cast<std::uint16_t>(udp_len);
  uh.write(buf + net::kIpv6HeaderSize + srh.size());
  store_unaligned<std::uint64_t>(
      buf + net::kIpv6HeaderSize + srh.size() + net::kUdpHeaderSize,
      ++twd_seq_);
  a_->send(std::move(pkt));
}

void HybridLab::start_twd_daemon() {
  twd_on_ = true;

  base_delay_[0] = link1_->qdisc(a_link1_side_).config().delay_ns;
  base_delay_[1] = link2_->qdisc(a_link2_side_).config().delay_ns;

  // Returned probes still carry the full SRH; pull the timestamps out of the
  // DM TLV (tx written by us, rx filled in by the CPE's End.DM-TWD).
  auto handle = [this](int link_index) {
    return [this, link_index](const net::Packet& pkt, const net::UdpHeader&,
                              std::span<const std::uint8_t>, sim::TimeNs) {
      if (pkt.size() < static_cast<std::size_t>(kTwdHeaderBytes)) return;
      const std::uint8_t* d = pkt.data();
      if (d[kTwdDmTlvOff] != net::kTlvDelayMeasurement) return;
      const std::uint64_t tx = load_be64(d + kTwdDmTxOff);
      const std::uint64_t rx = load_be64(d + kTwdDmRxOff);
      ++twd_rx_;
      // Probes share the links with TCP data, so raw samples include queue
      // waits; a windowed minimum rejects those spikes and tracks the
      // propagation delay + applied compensation.
      auto& win = owd_window_[link_index];
      win.push_back(static_cast<double>(rx - tx));
      if (win.size() > 12) win.pop_front();
      owd_valid_[link_index] = win.size() >= 4;

      if (owd_valid_[0] && owd_valid_[1]) {
        // "the daemon computes the difference of delays between the two
        // links ... and applies a tc netem queuing discipline to delay the
        // packets on the fastest path" (§4.2). The measured difference
        // already includes the currently applied compensation, so adjust
        // incrementally with a damped gain and a deadband.
        const double min0 =
            *std::min_element(owd_window_[0].begin(), owd_window_[0].end());
        const double min1 =
            *std::min_element(owd_window_[1].begin(), owd_window_[1].end());
        delay_diff_ = static_cast<std::int64_t>(min0 - min1);
        const std::int64_t kDeadband =
            static_cast<std::int64_t>(sim::kMilli) / 4;
        if (delay_diff_ > kDeadband || delay_diff_ < -kDeadband) {
          const int fast = delay_diff_ > 0 ? 1 : 0;
          const int slow = 1 - fast;
          const std::int64_t abs_diff =
              delay_diff_ > 0 ? delay_diff_ : -delay_diff_;
          // Aggressive on gross error, gentle near convergence.
          const std::int64_t magnitude =
              abs_diff > 4 * static_cast<std::int64_t>(sim::kMilli)
                  ? abs_diff * 3 / 4
                  : abs_diff / 3;
          std::int64_t c = static_cast<std::int64_t>(comp_[fast]) + magnitude;
          // Prefer reducing the other side's compensation over stacking.
          if (comp_[slow] > 0) {
            const std::int64_t take =
                std::min<std::int64_t>(c, static_cast<std::int64_t>(comp_[slow]));
            comp_[slow] -= static_cast<sim::TimeNs>(take);
            c -= take;
          }
          comp_[fast] = static_cast<sim::TimeNs>(
              std::min<std::int64_t>(std::max<std::int64_t>(c, 0),
                                     60 * static_cast<std::int64_t>(sim::kMilli)));
          apply_compensation();
          // Old samples predate the new compensation; start fresh.
          owd_window_[0].clear();
          owd_window_[1].clear();
          owd_valid_[0] = owd_valid_[1] = false;
        }
      }
    };
  };
  mux_a_->on_udp(kTwdPortL1, handle(0));
  mux_a_->on_udp(kTwdPortL2, handle(1));

  // Periodic probing on both links.
  net_.loop().schedule(10 * sim::kMilli, [this] { start_probe_cycle(); });
}

void HybridLab::apply_compensation() {
  sim::Link* links[2] = {link1_, link2_};
  const int a_sides[2] = {a_link1_side_, a_link2_side_};
  for (int i = 0; i < 2; ++i) {
    links[i]->qdisc(a_sides[i]).set_delay(base_delay_[i] + comp_[i]);
    links[i]->qdisc(1 - a_sides[i]).set_delay(base_delay_[i] + comp_[i]);
  }
}

void HybridLab::stop_twd_daemon() { twd_on_ = false; }

void HybridLab::start_probe_cycle() {
  if (!twd_on_) return;
  send_twd_probe(0);
  send_twd_probe(1);
  net_.loop().schedule(kTwdInterval, [this] { start_probe_cycle(); });
}

double HybridLab::run_tcp(int flows, sim::TimeNs duration) {
  senders_.clear();
  receivers_.clear();
  const sim::TimeNs t0 = net_.now();
  for (int i = 0; i < flows; ++i) {
    apps::TcpReceiver::Config rc;
    rc.addr = kS2;
    rc.port = static_cast<std::uint16_t>(5001 + i);
    receivers_.push_back(
        std::make_unique<apps::TcpReceiver>(*s2_, *mux_s2_, rc));

    apps::TcpSender::Config sc;
    sc.src = kS1;
    sc.dst = kS2;
    sc.src_port = static_cast<std::uint16_t>(40001 + i);
    sc.dst_port = rc.port;
    sc.start_at = t0 + 50 * sim::kMilli;
    sc.duration = duration;
    senders_.push_back(
        std::make_unique<apps::TcpSender>(*s1_, *mux_s1_, sc));
    senders_.back()->start();
  }
  net_.run_for(duration + sim::kSecond);

  std::uint64_t bytes = 0;
  for (const auto& r : receivers_) bytes += r->delivered_bytes();
  return static_cast<double>(bytes) * 8e3 / static_cast<double>(duration);
}

std::uint64_t HybridLab::total_retransmits() const {
  std::uint64_t n = 0;
  for (const auto& s : senders_) n += s->retransmits();
  return n;
}

std::uint64_t HybridLab::total_timeouts() const {
  std::uint64_t n = 0;
  for (const auto& s : senders_) n += s->timeouts();
  return n;
}

std::uint64_t HybridLab::receiver_ooo_segments() const {
  std::uint64_t n = 0;
  for (const auto& r : receivers_) n += r->ooo_segments();
  return n;
}

// ---------------------------------------------------------------------------
// Fig4Lab (UDP forwarding performance of the Turris CPE)
// ---------------------------------------------------------------------------

Fig4Lab::Fig4Lab(const Options& opts)
    : net_(/*seed=*/11), mode_(opts.mode) {
  s1_ = &net_.add_node("S1");
  m_ = &net_.add_node("M");
  s2_ = &net_.add_node("S2");

  const net::Ipv6Addr s1a = net::Ipv6Addr::must_parse("fd01:1::1");
  const net::Ipv6Addr m0 = net::Ipv6Addr::must_parse("fd01:1::2");
  const net::Ipv6Addr m1 = net::Ipv6Addr::must_parse("fd01:2::1");
  const net::Ipv6Addr s2a = net::Ipv6Addr::must_parse("fd01:2::2");
  const net::Ipv6Addr mDecap = net::Ipv6Addr::must_parse("fd01:ae::d6");
  const net::Ipv6Addr s2Decap1 = net::Ipv6Addr::must_parse("fd01:5e::d1");
  const net::Ipv6Addr s2Decap2 = net::Ipv6Addr::must_parse("fd01:5e::d2");

  const std::uint64_t kGig = 1000ull * 1000 * 1000;
  auto l0 = net_.connect(*s1_, s1a, *m_, m0, kGig, 100 * sim::kMicro);
  auto l1 = net_.connect(*m_, m1, *s2_, s2a, kGig, 100 * sim::kMicro);

  auto p = [](const char* s) { return net::Prefix::parse(s).value(); };
  auto& s1f = s1_->ns().table(0);
  auto& mfib = m_->ns().table(0);
  auto& s2f = s2_->ns().table(0);

  s2f.add_route(p("::/0"), {m1, l1.b_ifindex, 1});
  mfib.add_route(p("fd01:1::/64"), {net::Ipv6Addr{}, l0.b_ifindex, 1});
  mfib.add_route(p("fd01:2::/64"), {net::Ipv6Addr{}, l1.a_ifindex, 1});
  mfib.add_route(p("fd01:5e::/64"), {net::Ipv6Addr{}, l1.a_ifindex, 1});

  // The device under test: a Turris Omnia with its CPU modelled and, per the
  // paper's ARM32 JIT bug, the interpreter forced on.
  m_->cpu.enabled = true;
  m_->cpu.profile = sim::kTurrisProfile;
  m_->ns().bpf().set_jit_enabled(false);

  switch (mode_) {
    case Mode::kPlainForward:
      s1f.add_route(p("::/0"), {m0, l0.a_ifindex, 1});
      break;
    case Mode::kKernelDecap: {
      // S1 encapsulates (cost not under test); M's kernel decapsulates.
      auto lwt = std::make_shared<seg6::LwtState>();
      lwt->kind = seg6::LwtState::Kind::kSeg6Encap;
      lwt->segments = {mDecap};
      s1f.add_route({p("fd01:2::/64"), {{m0, l0.a_ifindex, 1}}, lwt});
      s1f.add_route(p("::/0"), {m0, l0.a_ifindex, 1});
      add_dt6_sid(*m_, mDecap);
      break;
    }
    case Mode::kEbpfWrr: {
      s1f.add_route(p("::/0"), {m0, l0.a_ifindex, 1});
      // M encapsulates with the WRR program (interpreter-executed) towards
      // two decap SIDs on the far box.
      mfib.add_route(
          {p("fd01:2::/64"), {}, make_wrr_lwt(*m_, s2Decap1, s2Decap2)});
      add_dt6_sid(*s2_, s2Decap1);
      add_dt6_sid(*s2_, s2Decap2);
      break;
    }
  }

  mux_s2_ = std::make_unique<apps::AppMux>(*s2_);
  sink_ = std::make_unique<apps::UdpSink>(*mux_s2_, 5201);
}

double Fig4Lab::run_udp(std::size_t payload_size, sim::TimeNs duration) {
  apps::TrafGen::Config cfg;
  cfg.spec.src = net::Ipv6Addr::must_parse("fd01:1::1");
  cfg.spec.dst = net::Ipv6Addr::must_parse("fd01:2::2");
  cfg.spec.src_port = cfg.spec.dst_port = 5201;
  cfg.spec.payload_size = payload_size;
  // iperf3 -b 1G: offer line rate on the wire for this payload size.
  const double wire = static_cast<double>(payload_size) + 48 +
                      static_cast<double>(sim::kWireOverheadBytes);
  const double rate_bps = 1e9 * static_cast<double>(payload_size) / wire;
  cfg.pps = rate_bps / (static_cast<double>(payload_size) * 8);
  cfg.start_at = net_.now();
  cfg.duration = sim::kTimeInfinity - cfg.start_at;  // until stop() below
  flow_ = std::make_unique<apps::TrafGen>(*s1_, cfg);
  flow_->start();

  // Warm up, then measure.
  net_.run_for(200 * sim::kMilli);
  sink_->reset();
  const sim::TimeNs t0 = net_.now();
  net_.run_for(duration);
  flow_->stop();
  return sink_->meter().mbps(net_.now() - t0);
}

}  // namespace srv6bpf::usecases
