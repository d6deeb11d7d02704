#include "sim/pdes_topo.h"

#include <cstdio>
#include <stdexcept>
#include <string>

namespace srv6bpf::sim {

namespace {

constexpr std::uint64_t kBandwidthBps = 10ull * 1000 * 1000 * 1000;
constexpr TimeNs kIntraProp = 5 * kMicro;  // short-haul hops in a segment
constexpr TimeNs kCrossProp = 50 * kMicro;  // segment-to-segment long-haul =
                                            // the ring's lookahead

net::Ipv6Addr hop_addr(std::size_t seg, std::size_t hop, unsigned host) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "fd00:%zx:%zx::%x", seg + 1, hop + 1, host);
  return net::Ipv6Addr::must_parse(buf);
}

net::Prefix hop_prefix(std::size_t seg, std::size_t hop) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "fd00:%zx:%zx::/64", seg + 1, hop + 1);
  return net::Prefix::parse(buf).value();
}

}  // namespace

RingTopo build_ring_topology(Network& net, const RingTopoSpec& spec) {
  if (spec.segments < 2)
    throw std::invalid_argument("build_ring_topology: need >= 2 segments");
  if (spec.routers_per_segment < 1)
    throw std::invalid_argument("build_ring_topology: need >= 1 router");
  const std::size_t p = spec.segments;
  const std::size_t r = spec.routers_per_segment;

  RingTopo topo;
  topo.segments.resize(p);

  // Pass 1: nodes, placed into one domain per segment. The sink that
  // segment s sends *to* belongs to segment s+1 (it is that domain's
  // ingress), so all sinks must exist before the links are wired.
  std::vector<Node*> sinks(p);
  for (std::size_t s = 0; s < p; ++s) {
    RingTopo::Segment& seg = topo.segments[s];
    seg.src = &net.add_node("src" + std::to_string(s));
    net.assign_domain(*seg.src, static_cast<std::uint32_t>(s));
    for (std::size_t j = 0; j < r; ++j) {
      Node& router =
          net.add_node("r" + std::to_string(s) + "_" + std::to_string(j));
      router.cpu.enabled = true;
      router.cpu.profile = kXeonProfile;
      net.assign_domain(router, static_cast<std::uint32_t>(s));
      seg.routers.push_back(&router);
    }
    sinks[s] = &net.add_node("sink" + std::to_string(s));
    net.assign_domain(*sinks[s], static_cast<std::uint32_t>(s));
    topo.node_count += r + 2;
  }

  // Pass 2: links and routes. Link j of segment s uses subnet
  // fd00:<s+1>:<j+1>::/64; j = 0 is src->first router, j in [1, r) the
  // chain, j = r the long-haul into the next segment's sink. Every node on
  // the chain routes the destination /64 at its downstream interface; the
  // sink owns the destination address, so the final hop delivers locally.
  for (std::size_t s = 0; s < p; ++s) {
    RingTopo::Segment& seg = topo.segments[s];
    seg.sink = sinks[(s + 1) % p];
    seg.src_addr = hop_addr(s, 0, 1);
    seg.dst_addr = hop_addr(s, r, 2);
    const net::Prefix dst_pfx = hop_prefix(s, r);

    Node* upstream = seg.src;
    for (std::size_t j = 0; j <= r; ++j) {
      Node* downstream = j < r ? seg.routers[j] : seg.sink;
      const TimeNs prop = j < r ? kIntraProp : kCrossProp;
      auto att = net.connect(*upstream, hop_addr(s, j, 1), *downstream,
                             hop_addr(s, j, 2), kBandwidthBps, prop);
      upstream->ns().table(0).add_route(dst_pfx,
                                        {net::Ipv6Addr{}, att.a_ifindex, 1});
      if (j == r) seg.cross_link = att.link;
      upstream = downstream;
    }
  }
  return topo;
}

}  // namespace srv6bpf::sim
