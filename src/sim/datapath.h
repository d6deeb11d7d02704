// Datapath: the explicit staged forwarding pipeline a Node runs over packet
// bursts.
//
// Stages, in order:
//   classify   — validate each packet (IPv6 header present, version 6);
//   lookup rounds, at most 4 per packet (the bound defeats a routing loop
//                inside one node), each run-grouping the packets still in
//                flight by (IPv6 destination, table) and resolving each group
//                once, in this order:
//     seg6local — SID-table hit: grouped behaviour execution
//                 (seg6local_process_burst), for End.BPF one ExecEnv setup
//                 per group; the result comes back next round;
//     local     — local address: delivered;
//     lwt + fib — route lookup through the servicing context's one-entry
//                 FibCacheSlot, backed by the multibit-stride LPM trie on
//                 miss (util/lpm_trie.h), route-attached tunnels via
//                 lwt_process_burst (BPF program setup paid once per route
//                 group), then the nexthop per packet: a flow hash picks
//                 one only on a multipath route (Fib::select_nexthop);
//   tx-prep    — hop-limit handling and per-packet verdict/oif metadata;
//                the Node then groups forwards per egress interface and
//                hands them to Link::transmit_burst.
//
// Per-packet results do not depend on how packets are grouped into bursts
// (the burst differential tests hold deliveries, traces and NodeStats equal
// at burst sizes 1, 8 and 32); bursts only amortise lookups, program setup
// and event-loop traffic.
//
// The pipeline is deliberately stateless between calls: processing can
// re-enter it (ICMP generation, local handlers that send), so all per-burst
// scratch lives on the caller's stack. Scratch is sized for
// kMaxBurstPackets but written only for the burst's n packets: nearly every
// call carries one packet (a host's single sends), and filling all 64 slots
// would make that call pay for 64. The per-packet scratch types therefore
// carry no member initialisers; the asserts below keep it that way.
#pragma once

#include <cstddef>
#include <type_traits>

#include "net/burst.h"
#include "seg6/ctx.h"

namespace srv6bpf::sim {

static_assert(std::is_trivially_default_constructible_v<seg6::ProcessTrace>);
static_assert(std::is_trivially_default_constructible_v<seg6::PipelineResult>);

class Node;

class Datapath {
 public:
  explicit Datapath(Node& node) : node_(node) {}

  // Runs the stages over `burst`, writing per-packet verdict/oif/timestamps
  // into the burst metadata and per-packet cost traces into `traces`, which
  // must have room for burst.size() entries. `local_out` marks locally
  // originated packets, whose hop limit is not decremented.
  void process_burst(net::PacketBurst& burst, bool local_out,
                     seg6::ProcessTrace* traces);

 private:
  Node& node_;
};

}  // namespace srv6bpf::sim
