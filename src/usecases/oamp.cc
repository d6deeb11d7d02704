#include "usecases/oamp.h"

#include <cstring>

#include "ebpf/perf_event.h"
#include "net/srh.h"
#include "net/transport.h"
#include "seg6/seg6local.h"
#include "util/byteorder.h"

namespace srv6bpf::usecases {

namespace {
constexpr std::uint16_t kEchoReplyPort = 33500;
// Traceroute probes: destination port kTraceBasePort + TTL (which the echo
// responder and the ICMP quote hand back), kTraceFlows source ports per TTL
// (Paris-style, to expose ECMP spreading), kPerTtlTimeout per round.
constexpr std::uint16_t kTraceBasePort = 33434;
constexpr int kTraceFlows = 6;
constexpr sim::TimeNs kPerTtlTimeout = 50 * sim::kMilli;

net::Ipv6Addr addr(const char* s) { return net::Ipv6Addr::must_parse(s); }
net::Prefix pfx(const char* s) { return net::Prefix::parse(s).value(); }
}  // namespace

net::Ipv6Addr oamp_sid_for(const net::Ipv6Addr& hop_addr) {
  net::Ipv6Addr sid = hop_addr;
  sid.set_group(7, 0xfafa);
  return sid;
}

OampLab::OampLab(std::uint64_t seed) : net_(seed) {
  s_ = &net_.add_node("S");
  r1_ = &net_.add_node("R1");
  r2a_ = &net_.add_node("R2a");
  r2b_ = &net_.add_node("R2b");
  r3_ = &net_.add_node("R3");
  d_ = &net_.add_node("D");

  s_addr_ = addr("fb00:5::1");
  d_addr_ = addr("fb00:d::2");

  const std::uint64_t kGig = 1000ull * 1000 * 1000;
  const sim::TimeNs kDelay = 500 * sim::kMicro;
  auto ls = net_.connect(*s_, s_addr_, *r1_, addr("fb00:5::2"), kGig, kDelay);
  auto l12a = net_.connect(*r1_, addr("fb00:12a::1"), *r2a_,
                           addr("fb00:12a::2"), kGig, kDelay);
  auto l12b = net_.connect(*r1_, addr("fb00:12b::1"), *r2b_,
                           addr("fb00:12b::2"), kGig, kDelay);
  auto l23a = net_.connect(*r2a_, addr("fb00:23a::1"), *r3_,
                           addr("fb00:23a::2"), kGig, kDelay);
  auto l23b = net_.connect(*r2b_, addr("fb00:23b::1"), *r3_,
                           addr("fb00:23b::2"), kGig, kDelay);
  auto ld = net_.connect(*r3_, addr("fb00:d::1"), *d_, d_addr_, kGig, kDelay);

  // ---- routing (ECMP diamond towards fb00:d::/64) ----
  s_->ns().table(0).add_route(pfx("::/0"), {addr("fb00:5::2"), ls.a_ifindex, 1});

  auto& r1f = r1_->ns().table(0);
  r1f.add_route({pfx("fb00:d::/64"),
                 {{addr("fb00:12a::2"), l12a.a_ifindex, 1},
                  {addr("fb00:12b::2"), l12b.a_ifindex, 1}},
                 nullptr});
  r1f.add_route({pfx("fb00:23a::/64"),
                 {{addr("fb00:12a::2"), l12a.a_ifindex, 1}}, nullptr});
  r1f.add_route({pfx("fb00:23b::/64"),
                 {{addr("fb00:12b::2"), l12b.a_ifindex, 1}}, nullptr});
  r1f.add_route(pfx("fb00:5::/64"), {net::Ipv6Addr{}, ls.b_ifindex, 1});
  r1f.add_route(pfx("fb00:12a::/64"), {net::Ipv6Addr{}, l12a.a_ifindex, 1});
  r1f.add_route(pfx("fb00:12b::/64"), {net::Ipv6Addr{}, l12b.a_ifindex, 1});

  auto& r2af = r2a_->ns().table(0);
  r2af.add_route(pfx("fb00:d::/64"), {addr("fb00:23a::2"), l23a.a_ifindex, 1});
  r2af.add_route(pfx("fb00:23a::/64"), {net::Ipv6Addr{}, l23a.a_ifindex, 1});
  r2af.add_route(pfx("::/0"), {addr("fb00:12a::1"), l12a.b_ifindex, 1});

  auto& r2bf = r2b_->ns().table(0);
  r2bf.add_route(pfx("fb00:d::/64"), {addr("fb00:23b::2"), l23b.a_ifindex, 1});
  r2bf.add_route(pfx("fb00:23b::/64"), {net::Ipv6Addr{}, l23b.a_ifindex, 1});
  r2bf.add_route(pfx("::/0"), {addr("fb00:12b::1"), l12b.b_ifindex, 1});

  auto& r3f = r3_->ns().table(0);
  r3f.add_route(pfx("fb00:d::/64"), {net::Ipv6Addr{}, ld.a_ifindex, 1});
  r3f.add_route({pfx("::/0"),
                 {{addr("fb00:23a::1"), l23a.b_ifindex, 1},
                  {addr("fb00:23b::1"), l23b.b_ifindex, 1}},
                 nullptr});

  d_->ns().table(0).add_route(pfx("::/0"), {addr("fb00:d::1"), ld.b_ifindex, 1});

  // ---- End.OAMP on every router (iface0 address = what ICMP reveals) ----
  enable_oamp(*r1_, addr("fb00:5::2"));
  enable_oamp(*r2a_, addr("fb00:12a::2"));
  enable_oamp(*r2b_, addr("fb00:12b::2"));
  enable_oamp(*r3_, addr("fb00:23a::2"));

  // ---- destination echo responder: answers traceroute probes so the prober
  // knows the target was reached (stands in for ICMP port-unreachable) ----
  d_mux_ = std::make_unique<apps::AppMux>(*d_);
  for (std::uint16_t ttl = 1; ttl <= 32; ++ttl) {
    const std::uint16_t port = static_cast<std::uint16_t>(kTraceBasePort + ttl);
    d_mux_->on_udp(port, [this, port](const net::Packet& pkt,
                                      const net::UdpHeader&,
                                      std::span<const std::uint8_t>,
                                      sim::TimeNs) {
      const auto loc = net::locate_transport(pkt);
      if (!loc) return;
      net::Ipv6View ip(const_cast<std::uint8_t*>(pkt.data()) + loc->inner_ip);
      std::uint8_t payload[2];
      store_be16(payload, port);
      apps::send_udp(*d_, d_addr_, ip.src(), port, kEchoReplyPort, payload);
    });
  }
}

void OampLab::enable_oamp(sim::Node& node, const net::Ipv6Addr& iface_addr) {
  auto& bpf = node.ns().bpf();
  const std::uint32_t perf_id =
      ebpf::create_perf_event_array(bpf.maps(), node.name() + "_oamp", 1024);
  bind_end_bpf(node.ns(), oamp_sid_for(iface_addr),
               load_or_throw(bpf, build_end_oamp(perf_id),
                             ebpf::ProgType::kLwtSeg6Local));

  // Responder daemon: answer the prober with this router's identity and the
  // ECMP nexthop set from the perf event.
  auto* perf_map =
      dynamic_cast<ebpf::PerfEventArrayMap*>(bpf.maps().get(perf_id));
  auto* node_ptr = &node;
  pollers_.push_back(std::make_unique<apps::PerfPoller>(
      node, perf_map->buffer(), sim::kMilli,
      [node_ptr, iface_addr](const ebpf::PerfRecord& rec, sim::TimeNs) {
        if (rec.data.size() < sizeof(OampEvent)) return;
        OampEvent ev;
        std::memcpy(&ev, rec.data.data(), sizeof ev);
        net::Ipv6Addr reply_to;
        std::memcpy(reply_to.bytes().data(), ev.reply_addr, 16);
        const std::uint32_t n = std::min<std::uint32_t>(ev.nexthop_count, 8);
        std::vector<std::uint8_t> payload(16 + 4 + 16 * n);
        std::memcpy(payload.data(), iface_addr.bytes().data(), 16);
        store_be32(payload.data() + 16, n);
        for (std::uint32_t i = 0; i < n; ++i)
          std::memcpy(payload.data() + 20 + 16 * i, ev.nexthops[i], 16);
        apps::send_udp(*node_ptr, iface_addr, reply_to, 33600, ev.reply_port,
                       payload);
      }));
  pollers_.back()->start();
}

void OampLab::disable_oamp(const net::Ipv6Addr& iface_addr) {
  // Removing a SID: re-register with a null program is enough to break it for
  // the fallback test; we instead register End (which drops OAMP probes'
  // semantics). Simplest honest approach: overwrite with a plain End entry.
  const net::Ipv6Addr sid = oamp_sid_for(iface_addr);
  for (sim::Node* n : {r1_, r2a_, r2b_, r3_}) {
    if (n->ns().seg6local().lookup(sid) != nullptr) {
      seg6::Seg6LocalEntry e;
      e.action = seg6::Seg6Action::kEnd;
      n->ns().seg6local().add(sid, e);
    }
  }
}

// ---------------------------------------------------------------------------
// Traceroute
// ---------------------------------------------------------------------------

Traceroute::Traceroute(sim::Node& node, apps::AppMux& mux, Options opts)
    : node_(node), opts_(opts) {
  // Echo replies from the destination: "target reached".
  mux.on_udp(kEchoReplyPort,
             [this](const net::Packet&, const net::UdpHeader&,
                    std::span<const std::uint8_t> payload, sim::TimeNs) {
               if (payload.size() < 2) return;
               const int ttl = load_be16(payload.data()) - kTraceBasePort;
               reached_target_ = true;
               auto& hop = hops_[ttl];
               hop.ttl = ttl;
               hop.addr = opts_.target;
             });

  // End.OAMP responder answers.
  mux.on_udp(kOampReplyPort,
             [this](const net::Packet&, const net::UdpHeader&,
                    std::span<const std::uint8_t> payload, sim::TimeNs) {
               if (payload.size() < 20) return;
               net::Ipv6Addr router;
               std::memcpy(router.bytes().data(), payload.data(), 16);
               const std::uint32_t n = load_be32(payload.data() + 16);
               auto it = addr_to_ttl_.find(router);
               if (it == addr_to_ttl_.end()) return;
               auto& hop = hops_[it->second];
               hop.oamp_answered = true;
               hop.nexthops.clear();
               for (std::uint32_t i = 0;
                    i < n && payload.size() >= 20 + 16 * (i + 1); ++i) {
                 net::Ipv6Addr nh;
                 std::memcpy(nh.bytes().data(), payload.data() + 20 + 16 * i,
                             16);
                 hop.nexthops.push_back(nh);
               }
             });

  // ICMPv6 time exceeded: the classic mechanism (and the fallback).
  mux.on_raw([this](const net::Packet& pkt, sim::TimeNs) {
    if (pkt.size() < net::kIpv6HeaderSize + 8) return;
    const std::uint8_t* d = pkt.data();
    if (d[6] != net::kProtoIcmp6 || d[40] != 3) return;  // time exceeded only
    // Quoted packet starts at 48: IPv6 header + UDP header.
    const std::size_t q = 48;
    if (pkt.size() < q + net::kIpv6HeaderSize + net::kUdpHeaderSize) return;
    net::Ipv6Addr quoted_dst;
    std::memcpy(quoted_dst.bytes().data(), d + q + 24, 16);
    if (quoted_dst != opts_.target) return;
    const std::uint16_t dport = load_be16(d + q + net::kIpv6HeaderSize + 2);
    const int ttl = dport - kTraceBasePort;
    if (ttl < 1 || ttl > opts_.max_ttl) return;
    net::Ipv6Addr hop_addr;
    std::memcpy(hop_addr.bytes().data(), d + 8, 16);  // ICMP source
    auto& hop = hops_[ttl];
    hop.ttl = ttl;
    hop.addr = hop_addr;
    addr_to_ttl_[hop_addr] = ttl;
  });
}

void Traceroute::send_ttl_probes(int ttl) {
  for (int flow = 0; flow < kTraceFlows; ++flow) {
    net::PacketSpec spec;
    spec.src = opts_.prober_addr;
    spec.dst = opts_.target;
    spec.hop_limit = static_cast<std::uint8_t>(ttl);
    spec.src_port = static_cast<std::uint16_t>(kTraceBasePort + 100 + flow);
    spec.dst_port = static_cast<std::uint16_t>(kTraceBasePort + ttl);
    spec.payload_size = 12;
    node_.send(net::make_udp_packet(spec));
  }
}

void Traceroute::send_oamp_probe(const net::Ipv6Addr& hop_addr) {
  // SRH probe: segments (travel order) [hop's OAMP SID, target]; reply-to
  // TLV tells the responder daemon where to send the answer.
  std::vector<net::Ipv6Addr> segs = {oamp_sid_for(hop_addr), opts_.target};
  std::vector<std::uint8_t> tlvs = net::build_controller_tlv(
      net::kTlvOamReplyTo, opts_.prober_addr, kOampReplyPort);
  const auto pad = net::build_padn(4);
  tlvs.insert(tlvs.end(), pad.begin(), pad.end());

  net::PacketSpec spec;
  spec.src = opts_.prober_addr;
  spec.dst = opts_.target;
  spec.segments = segs;
  spec.srh_tlvs = tlvs;
  spec.src_port = 33433;
  spec.dst_port = 33433;
  spec.payload_size = 8;
  node_.send(net::make_udp_packet(spec));
}

std::vector<TracerouteHop> Traceroute::run(sim::Network& net) {
  for (int ttl = 1; ttl <= opts_.max_ttl && !reached_target_; ++ttl) {
    send_ttl_probes(ttl);
    net.run_for(kPerTtlTimeout);
  }
  // Query End.OAMP on every discovered hop ("leverages if possible this
  // function at each hop, and otherwise falls back to the legacy ICMP
  // mechanism").
  for (const auto& [addr_key, ttl] : addr_to_ttl_) send_oamp_probe(addr_key);
  net.run_for(4 * kPerTtlTimeout);

  std::vector<TracerouteHop> out;
  for (auto& [ttl, hop] : hops_) out.push_back(hop);
  return out;
}

}  // namespace srv6bpf::usecases
