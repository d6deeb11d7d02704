// §4.3 — Multipath-aware traceroute using End.OAMP.
//
// Discovers the hops of an ECMP diamond with classic hop-limit probing, then
// queries each hop's End.OAMP SID for its ECMP nexthop set. The run ends
// with the network's drained audit: it exits 1 if a packet went
// unaccounted.
//
//   $ ./ecmp_traceroute
#include <cstdio>
#include <string>

#include "usecases/oamp.h"

using namespace srv6bpf;

int main() {
  usecases::OampLab lab;
  apps::AppMux mux(lab.prober());

  usecases::Traceroute::Options opts;
  opts.target = lab.target();
  opts.prober_addr = lab.prober_addr();
  opts.max_ttl = 6;
  usecases::Traceroute tr(lab.prober(), mux, opts);

  std::printf("traceroute to %s (max %d hops, OAMP-enhanced)\n\n",
              opts.target.to_string().c_str(), opts.max_ttl);
  const auto hops = tr.run(lab.net());

  for (const auto& hop : hops) {
    std::printf("%2d  %-18s", hop.ttl, hop.addr.to_string().c_str());
    if (hop.oamp_answered) {
      std::printf("  [End.OAMP] %zu ECMP nexthop(s):", hop.nexthops.size());
      for (const auto& nh : hop.nexthops)
        std::printf(" %s", nh.to_string().c_str());
    } else if (hop.addr == opts.target) {
      std::printf("  (destination)");
    } else {
      std::printf("  (ICMP fallback only)");
    }
    std::printf("\n");
  }

  // Every probe and reply was delivered or dropped with a reason.
  lab.net().audit(/*final_drain=*/true);
  for (const std::string& v : lab.net().violations())
    std::fprintf(stderr, "ledger: %s\n", v.c_str());
  return lab.net().violations().empty() ? 0 : 1;
}
