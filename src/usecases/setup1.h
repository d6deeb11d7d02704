// §3.2 — the paper's setup 1, the lab behind every Figure 2 number.
//
//     S1 ---- R ---- S2        (10 Gbps links, 10 µs propagation)
//
// S1 and S2 are traffic servers; R routes between their /64s with all its
// interrupts on one modelled Xeon core, which caps its forwarding rate, and
// owns the End.BPF SID `sid`. Callers tune R's CPU model (`r->cpu.*`) and
// its JIT themselves before they offer traffic.
#pragma once

#include <cstddef>
#include <cstdint>

#include "ebpf/vm.h"
#include "sim/network.h"
#include "usecases/programs.h"

namespace srv6bpf::usecases {

struct Setup1 {
  explicit Setup1(std::uint64_t seed = 0xbead);
  // The nodes run on `net`'s event loop: a lab stays where it was built.
  Setup1(const Setup1&) = delete;
  Setup1& operator=(const Setup1&) = delete;

  // Loads `built` on R (on the engine R's BpfSystem selects) and binds it
  // to `sid` as End.BPF. Throws std::runtime_error on a verifier rejection.
  void add_end_bpf(const BuiltProgram& built);
  // Binds an already-loaded program to `sid` as End.BPF.
  void add_end_bpf(const ebpf::ProgHandle& prog);

  // The /48 site FIB: R routes 2001:db8:<i>::/48 toward S2, and S2 owns
  // 2001:db8:<i>::2 in every site, for i < sites.
  void add_fib48(std::size_t sites);

  sim::Network net;
  sim::Node* s1;
  sim::Node* r;
  sim::Node* s2;
  net::Ipv6Addr s1_addr = net::Ipv6Addr::must_parse("fc00:1::1");
  net::Ipv6Addr r_if0 = net::Ipv6Addr::must_parse("fc00:1::2");
  net::Ipv6Addr r_if1 = net::Ipv6Addr::must_parse("fc00:2::1");
  net::Ipv6Addr s2_addr = net::Ipv6Addr::must_parse("fc00:2::2");
  net::Ipv6Addr sid = net::Ipv6Addr::must_parse("fc00:f::1");
  int r_upstream_if = 0;    // R's interface toward S1
  int r_downstream_if = 0;  // R's interface toward S2
};

}  // namespace srv6bpf::usecases
