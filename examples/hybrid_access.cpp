// §4.2 — Hybrid access network: SRv6/eBPF link aggregation with and without
// the TWD delay compensation. Each lab ends with its network's drained
// audit: the run exits 1 if a packet went unaccounted.
//
//   $ ./hybrid_access
#include <cstdio>
#include <string>

#include "usecases/hybrid.h"

using namespace srv6bpf;

namespace {

// Stops the lab's TWD probing, lets the network drain and audits it: true
// when every packet sent was delivered or dropped with a reason.
bool drained(usecases::HybridLab& lab) {
  lab.stop_twd_daemon();
  lab.net().run_for(sim::kSecond);
  lab.net().audit(/*final_drain=*/true);
  for (const std::string& v : lab.net().violations())
    std::fprintf(stderr, "ledger: %s\n", v.c_str());
  return lab.net().violations().empty();
}

}  // namespace

int main() {
  bool ok = true;
  std::printf("hybrid access: 50 Mbps / 30 ms RTT + 30 Mbps / 5 ms RTT, "
              "per-packet WRR 5:3\n\n");

  {
    usecases::HybridLab::Options opts;
    opts.twd_compensation = false;
    usecases::HybridLab lab(opts);
    const double goodput = lab.run_tcp(1, 10 * sim::kSecond);
    std::printf("without compensation: 1 TCP flow  -> %6.1f Mbps  "
                "(%llu rtx, %llu ooo segments at the receiver)\n",
                goodput,
                static_cast<unsigned long long>(lab.total_retransmits()),
                static_cast<unsigned long long>(lab.receiver_ooo_segments()));
    ok &= drained(lab);
  }
  {
    usecases::HybridLab::Options opts;
    opts.twd_compensation = true;
    usecases::HybridLab lab(opts);
    // Let the TWD daemon converge before starting traffic.
    lab.net().run_for(2 * sim::kSecond);
    const double goodput = lab.run_tcp(1, 10 * sim::kSecond);
    std::printf("with TWD compensation: 1 TCP flow  -> %6.1f Mbps  "
                "(measured delay diff %.2f ms)\n",
                goodput, static_cast<double>(lab.measured_delay_diff()) / 1e6);
    ok &= drained(lab);
  }
  {
    usecases::HybridLab::Options opts;
    opts.twd_compensation = true;
    usecases::HybridLab lab(opts);
    lab.net().run_for(2 * sim::kSecond);
    const double goodput = lab.run_tcp(4, 10 * sim::kSecond);
    std::printf("with TWD compensation: 4 TCP flows -> %6.1f Mbps aggregated\n",
                goodput);
    ok &= drained(lab);
  }
  return ok ? 0 : 1;
}
