// §4.3 — Querying ECMP nexthops: End.OAMP and the multipath-aware
// traceroute.
//
// Each router exposes an End.OAMP SID (an End.BPF program). When a probe
// reaches it, the program calls the custom bpf_fib_ecmp_nexthops helper for
// the probe's target address and reports the nexthop set via a perf event; a
// responder daemon answers the prober over UDP. The modified traceroute
// first discovers hop addresses with classic hop-limit probing (ICMPv6 time
// exceeded), then queries each discovered hop's OAMP SID, falling back to
// the legacy ICMP data when a hop does not support OAMP.
//
// Lab topology (ECMP diamond):
//
//          ┌── R2a ──┐
//   S ─ R1 ┤         ├ R3 ── D
//          └── R2b ──┘
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "apps/daemons.h"
#include "apps/sink.h"
#include "sim/network.h"
#include "usecases/programs.h"

namespace srv6bpf::usecases {

// Derives a router's OAMP SID from any of its interface addresses by
// convention: the last 16-bit group is replaced with 0xfafa. Routers register
// the SID for each interface address they own.
net::Ipv6Addr oamp_sid_for(const net::Ipv6Addr& hop_addr);

struct TracerouteHop {
  int ttl = 0;
  net::Ipv6Addr addr;                     // from ICMPv6 time exceeded
  bool oamp_answered = false;             // did End.OAMP reply?
  std::vector<net::Ipv6Addr> nexthops;    // ECMP nexthops towards the target
};

class OampLab {
 public:
  explicit OampLab(std::uint64_t seed = 21);

  sim::Network& net() noexcept { return net_; }
  sim::Node& prober() noexcept { return *s_; }
  const net::Ipv6Addr& prober_addr() const noexcept { return s_addr_; }
  const net::Ipv6Addr& target() const noexcept { return d_addr_; }

  // Install End.OAMP + responder daemon on a router (done for all routers by
  // the constructor; exposed for tests).
  void enable_oamp(sim::Node& node, const net::Ipv6Addr& iface_addr);

  // Disables OAMP on one router (for exercising the ICMP fallback).
  void disable_oamp(const net::Ipv6Addr& iface_addr);

 private:
  sim::Network net_;
  sim::Node* s_;
  sim::Node* r1_;
  sim::Node* r2a_;
  sim::Node* r2b_;
  sim::Node* r3_;
  sim::Node* d_;
  net::Ipv6Addr s_addr_;
  net::Ipv6Addr d_addr_;
  std::vector<std::unique_ptr<apps::PerfPoller>> pollers_;
  std::unique_ptr<apps::AppMux> d_mux_;  // the destination's echo responder
};

// The modified traceroute application, run on the prober node.
class Traceroute {
 public:
  struct Options {
    net::Ipv6Addr target;
    net::Ipv6Addr prober_addr;
    int max_ttl = 8;
  };

  Traceroute(sim::Node& node, apps::AppMux& mux, Options opts);

  // Runs the full trace (drives the lab's event loop).
  std::vector<TracerouteHop> run(sim::Network& net);

  static constexpr std::uint16_t kOampReplyPort = 33600;

 private:
  void send_ttl_probes(int ttl);
  void send_oamp_probe(const net::Ipv6Addr& hop_addr);

  sim::Node& node_;
  Options opts_;
  std::map<int, TracerouteHop> hops_;             // ttl -> hop
  std::map<net::Ipv6Addr, int> addr_to_ttl_;
  bool reached_target_ = false;
};

}  // namespace srv6bpf::usecases
