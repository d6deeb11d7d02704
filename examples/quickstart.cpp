// Quickstart: build a 3-node network (S1 - R - S2), attach an End.BPF
// program to a local SID on R, and watch a burst of packets traverse it.
//
// The program is the paper's Tag++: it fetches the SRH tag and increments it
// through bpf_lwt_seg6_store_bytes — the eBPF code never writes the packet
// directly (§3's safety principle). The packets travel as one
// net::PacketBurst through the vector datapath: one send, one SID-table
// lookup and one BPF program setup for the whole burst. The run ends with
// the network's drained audit: it exits 1 if a packet went unaccounted.
//
//   $ ./quickstart
#include <cstdio>
#include <string>

#include "apps/sink.h"
#include "net/burst.h"
#include "net/packet.h"
#include "seg6/seg6local.h"
#include "sim/network.h"
#include "usecases/programs.h"

using namespace srv6bpf;

int main() {
  sim::Network net;
  auto& s1 = net.add_node("S1");
  auto& r = net.add_node("R");
  auto& s2 = net.add_node("S2");

  const auto a1 = net::Ipv6Addr::must_parse("fc00:1::1");
  const auto r0 = net::Ipv6Addr::must_parse("fc00:1::2");
  const auto r1 = net::Ipv6Addr::must_parse("fc00:2::1");
  const auto a2 = net::Ipv6Addr::must_parse("fc00:2::2");
  const auto sid = net::Ipv6Addr::must_parse("fc00:bbbb::1");

  // 10 Gbps links with 1 ms propagation delay.
  auto l1 = net.connect(s1, a1, r, r0, 10'000'000'000ull, sim::kMilli);
  auto l2 = net.connect(r, r1, s2, a2, 10'000'000'000ull, sim::kMilli);

  s1.ns().table(0).add_route(net::Prefix::parse("::/0").value(),
                             {r0, l1.a_ifindex, 1});
  r.ns().table(0).add_route(net::Prefix::parse("fc00:2::/64").value(),
                            {net::Ipv6Addr{}, l2.a_ifindex, 1});
  s2.ns().table(0).add_route(net::Prefix::parse("::/0").value(),
                             {r1, l2.b_ifindex, 1});

  // Load the paper's Tag++ program: the verifier runs at load time.
  auto built = usecases::build_tag_increment();
  auto load = r.ns().bpf().load(built.name, ebpf::ProgType::kLwtSeg6Local,
                                built.insns);
  if (!load.ok()) {
    std::printf("verifier rejected the program: %s\n",
                load.verify.error.c_str());
    return 1;
  }
  std::printf("loaded '%s': %zu insns, verifier visited %zu states\n",
              built.name, load.prog->program().size(),
              load.verify.stats.states_visited);

  // Bind it to a local SID on R: the paper's End.BPF seg6local action.
  seg6::Seg6LocalEntry entry;
  entry.action = seg6::Seg6Action::kEndBPF;
  entry.prog = load.prog;
  r.ns().seg6local().add(sid, entry);

  // Sink on S2 that prints what arrives.
  apps::AppMux mux(s2);
  mux.on_udp(7001, [&](const net::Packet& pkt, const net::UdpHeader&,
                       std::span<const std::uint8_t> payload,
                       sim::TimeNs now) {
    net::Packet copy = pkt;
    auto srh = copy.srh();
    std::printf("t=%.3f ms  S2 received %zu payload bytes, SRH tag = %u\n",
                static_cast<double>(now) / 1e6, payload.size(),
                srh ? srh->tag() : 0);
  });

  // Send a burst of SRv6 packets through the SID: segments [R's SID, S2].
  net::PacketBurst burst;
  for (std::uint16_t tag = 41; tag <= 43; ++tag) {
    net::PacketSpec spec;
    spec.src = a1;
    spec.segments = {sid, a2};
    spec.srh_tag = tag;
    spec.payload_size = 64;
    burst.push(net::make_udp_packet(spec));
  }
  std::printf("sending a %zu-packet burst with SRH segments [%s, %s], "
              "tags 41..43\n",
              burst.size(), sid.to_string().c_str(), a2.to_string().c_str());
  s1.send_burst(std::move(burst));

  net.run_for(10 * sim::kMilli);

  // Every packet of the burst takes the same path through Tag++, so the
  // last packet's share is R's pipeline sums divided by its packet count.
  const sim::NodeStats rs = r.stats();
  const sim::PipelineTotals& pipe = rs.pipeline;
  std::printf("R forwarded %llu packet(s) (%llu eBPF runs in total); "
              "last packet: %d eBPF run(s), %llu insns on the JIT engine\n",
              static_cast<unsigned long long>(rs.tx_packets),
              static_cast<unsigned long long>(pipe.bpf_runs),
              static_cast<int>(pipe.bpf_runs / pipe.packets),
              static_cast<unsigned long long>(pipe.bpf_insns_jit /
                                              pipe.packets));

  // Every packet S1 sent was delivered or dropped with a reason.
  net.audit(/*final_drain=*/true);
  for (const std::string& v : net.violations())
    std::fprintf(stderr, "ledger: %s\n", v.c_str());
  return net.violations().empty() ? 0 : 1;
}
