#include "usecases/setup1.h"

#include <cstdio>

namespace srv6bpf::usecases {

Setup1::Setup1(std::uint64_t seed) : net(seed) {
  s1 = &net.add_node("S1");
  r = &net.add_node("R");
  s2 = &net.add_node("S2");
  const std::uint64_t kTenGig = 10ull * 1000 * 1000 * 1000;
  auto l1 = net.connect(*s1, s1_addr, *r, r_if0, kTenGig, 10 * sim::kMicro);
  auto l2 = net.connect(*r, r_if1, *s2, s2_addr, kTenGig, 10 * sim::kMicro);
  r_upstream_if = l1.b_ifindex;
  r_downstream_if = l2.a_ifindex;

  s1->ns().table(0).add_route(net::Prefix::parse("::/0").value(),
                              {r_if0, l1.a_ifindex, 1});
  r->ns().table(0).add_route(net::Prefix::parse("fc00:2::/64").value(),
                             {net::Ipv6Addr{}, r_downstream_if, 1});
  r->ns().table(0).add_route(net::Prefix::parse("fc00:1::/64").value(),
                             {net::Ipv6Addr{}, r_upstream_if, 1});
  s2->ns().table(0).add_route(net::Prefix::parse("::/0").value(),
                              {r_if1, l2.b_ifindex, 1});

  r->cpu.enabled = true;
  r->cpu.profile = sim::kXeonProfile;
}

void Setup1::add_end_bpf(const BuiltProgram& built) {
  add_end_bpf(
      load_or_throw(r->ns().bpf(), built, ebpf::ProgType::kLwtSeg6Local));
}

void Setup1::add_end_bpf(const ebpf::ProgHandle& prog) {
  bind_end_bpf(r->ns(), sid, prog);
}

void Setup1::add_fib48(std::size_t sites) {
  char buf[64];
  for (std::size_t i = 0; i < sites; ++i) {
    std::snprintf(buf, sizeof buf, "2001:db8:%zx::/48", i);
    r->ns().table(0).add_route(net::Prefix::parse(buf).value(),
                               {net::Ipv6Addr{}, r_downstream_if, 1});
    std::snprintf(buf, sizeof buf, "2001:db8:%zx::2", i);
    s2->ns().add_local_addr(net::Ipv6Addr::must_parse(buf));
  }
}

}  // namespace srv6bpf::usecases
