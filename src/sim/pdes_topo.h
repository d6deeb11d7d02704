// Generated multi-domain topology for parallel-simulation tests and the
// bench_pdes_sweep gate: a ring of `segments` independent forwarding chains,
// one PDES domain per segment.
//
//   segment s:  src_s -> r_s_0 -> ... -> r_s_{R-1} ==cross==> sink_{s+1}
//
// Every link is 10 Gbps. Every hop inside a segment is a 5 us short-haul;
// the single link that hands the chain's traffic to the *next* segment's
// sink is a 50 us long-haul, which becomes the ring's PDES lookahead. The
// routers run the Xeon service model on one CPU context. With the default
// shape (8 segments x 5 routers + src + sink = 56 nodes) almost all work —
// the CPU-modelled router chain — is intra-domain, and the only
// synchronization edges are the ring's long-hauls: the realistic "many
// mostly-independent sites" shape the >= 3x speedup gate runs on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/packet.h"
#include "sim/network.h"

namespace srv6bpf::sim {

struct RingTopoSpec {
  std::size_t segments = 8;            // one PDES domain per segment
  std::size_t routers_per_segment = 5; // CPU-modelled hops in each chain
};

struct RingTopo {
  struct Segment {
    Node* src = nullptr;            // traffic source (host, no CPU model)
    std::vector<Node*> routers;     // the chain, in forwarding order
    Node* sink = nullptr;           // where this segment's traffic lands
                                    // (owned by the *next* segment's domain)
    net::Ipv6Addr src_addr;         // src's address on its first link
    net::Ipv6Addr dst_addr;         // sink's address = the traffic target
    Link* cross_link = nullptr;     // the long-haul into the next segment
  };
  std::vector<Segment> segments;
  std::size_t node_count = 0;
};

// Builds the ring into `net`, installs the per-segment /64 routes, and
// assigns every segment's nodes to domain `s` via Network::assign_domain.
// Call before seal_domains(); with no seal the same topology runs serially.
RingTopo build_ring_topology(Network& net, const RingTopoSpec& spec);

}  // namespace srv6bpf::sim
