// End-to-end integration tests: full topologies, programs loaded through the
// verifier, packets crossing multiple nodes.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/sink.h"
#include "apps/trafgen.h"
#include "net/packet.h"
#include "seg6/seg6local.h"
#include "sim/network.h"
#include "usecases/delay_monitor.h"
#include "usecases/oamp.h"
#include "usecases/programs.h"

namespace srv6bpf {
namespace {

using namespace usecases;

// Ends a scenario with the network's drained audit: every packet a node
// originated was delivered or dropped with a reason.
void expect_drained(sim::Network& net) {
  net.audit(/*final_drain=*/true);
  EXPECT_EQ(net.violations(), std::vector<std::string>{});
}

// ---- Plain forwarding across a 3-node line -----------------------------------

TEST(Integration, PlainIpv6Forwarding) {
  sim::Network net;
  auto& s1 = net.add_node("S1");
  auto& r = net.add_node("R");
  auto& s2 = net.add_node("S2");

  const auto a1 = net::Ipv6Addr::must_parse("fc00:1::1");
  const auto ar0 = net::Ipv6Addr::must_parse("fc00:1::2");
  const auto ar1 = net::Ipv6Addr::must_parse("fc00:2::1");
  const auto a2 = net::Ipv6Addr::must_parse("fc00:2::2");

  auto l1 = net.connect(s1, a1, r, ar0, 10'000'000'000ull, sim::kMilli);
  auto l2 = net.connect(r, ar1, s2, a2, 10'000'000'000ull, sim::kMilli);

  s1.ns().table(0).add_route(net::Prefix::parse("::/0").value(),
                             {ar0, l1.a_ifindex, 1});
  r.ns().table(0).add_route(net::Prefix::parse("fc00:2::/64").value(),
                            {net::Ipv6Addr{}, l2.a_ifindex, 1});
  s2.ns().table(0).add_route(net::Prefix::parse("::/0").value(),
                             {ar1, l2.b_ifindex, 1});

  apps::AppMux mux(s2);
  apps::UdpSink sink(mux, 7001);

  net::PacketSpec spec;
  spec.src = a1;
  spec.dst = a2;
  spec.payload_size = 64;
  s1.send(net::make_udp_packet(spec));
  net.run_for(10 * sim::kMilli);

  EXPECT_EQ(sink.packets(), 1u);
  EXPECT_EQ(r.stats().rx_packets, 1u);
  EXPECT_EQ(r.stats().tx_packets, 1u);
  expect_drained(net);
}

// ---- SRv6 End behaviour across the line ----------------------------------------

TEST(Integration, StaticEndBehaviourAdvancesSegments) {
  sim::Network net;
  auto& s1 = net.add_node("S1");
  auto& r = net.add_node("R");
  auto& s2 = net.add_node("S2");

  const auto a1 = net::Ipv6Addr::must_parse("fc00:1::1");
  const auto ar0 = net::Ipv6Addr::must_parse("fc00:1::2");
  const auto ar1 = net::Ipv6Addr::must_parse("fc00:2::1");
  const auto a2 = net::Ipv6Addr::must_parse("fc00:2::2");
  const auto sid = net::Ipv6Addr::must_parse("fc00:ff::e");

  auto l1 = net.connect(s1, a1, r, ar0, 10'000'000'000ull, sim::kMilli);
  auto l2 = net.connect(r, ar1, s2, a2, 10'000'000'000ull, sim::kMilli);

  s1.ns().table(0).add_route(net::Prefix::parse("::/0").value(),
                             {ar0, l1.a_ifindex, 1});
  r.ns().table(0).add_route(net::Prefix::parse("fc00:2::/64").value(),
                            {net::Ipv6Addr{}, l2.a_ifindex, 1});
  s2.ns().table(0).add_route(net::Prefix::parse("::/0").value(),
                             {ar1, l2.b_ifindex, 1});

  seg6::Seg6LocalEntry end_entry;
  end_entry.action = seg6::Seg6Action::kEnd;
  r.ns().seg6local().add(sid, end_entry);

  apps::AppMux mux(s2);
  apps::UdpSink sink(mux, 7001);

  net::PacketSpec spec;
  spec.src = a1;
  spec.segments = {sid, a2};  // via the End SID on R
  spec.payload_size = 64;
  s1.send(net::make_udp_packet(spec));
  net.run_for(10 * sim::kMilli);

  EXPECT_EQ(sink.packets(), 1u) << "SRv6 packet should reach the sink";
  expect_drained(net);
}

// ---- End.BPF with the paper's programs --------------------------------------------

TEST(Integration, EndBpfTagIncrementVerifiesAndRuns) {
  sim::Network net;
  auto& s1 = net.add_node("S1");
  auto& r = net.add_node("R");
  auto& s2 = net.add_node("S2");

  const auto a1 = net::Ipv6Addr::must_parse("fc00:1::1");
  const auto ar0 = net::Ipv6Addr::must_parse("fc00:1::2");
  const auto ar1 = net::Ipv6Addr::must_parse("fc00:2::1");
  const auto a2 = net::Ipv6Addr::must_parse("fc00:2::2");
  const auto sid = net::Ipv6Addr::must_parse("fc00:ff::b");

  auto l1 = net.connect(s1, a1, r, ar0, 10'000'000'000ull, sim::kMilli);
  auto l2 = net.connect(r, ar1, s2, a2, 10'000'000'000ull, sim::kMilli);
  s1.ns().table(0).add_route(net::Prefix::parse("::/0").value(),
                             {ar0, l1.a_ifindex, 1});
  r.ns().table(0).add_route(net::Prefix::parse("fc00:2::/64").value(),
                            {net::Ipv6Addr{}, l2.a_ifindex, 1});
  s2.ns().table(0).add_route(net::Prefix::parse("::/0").value(),
                             {ar1, l2.b_ifindex, 1});

  auto built = build_tag_increment();
  auto load = r.ns().bpf().load(built.name, ebpf::ProgType::kLwtSeg6Local,
                                built.insns);
  ASSERT_TRUE(load.ok()) << load.verify.error;

  seg6::Seg6LocalEntry e;
  e.action = seg6::Seg6Action::kEndBPF;
  e.prog = load.prog;
  r.ns().seg6local().add(sid, e);

  // Capture the tag at the sink.
  std::uint16_t seen_tag = 0xdead;
  apps::AppMux mux(s2);
  mux.on_udp(7001, [&](const net::Packet& pkt, const net::UdpHeader&,
                       std::span<const std::uint8_t>, sim::TimeNs) {
    net::Packet copy = pkt;
    auto srh = copy.srh();
    ASSERT_TRUE(srh.has_value());
    seen_tag = srh->tag();
  });

  net::PacketSpec spec;
  spec.src = a1;
  spec.segments = {sid, a2};
  spec.srh_tag = 41;
  spec.payload_size = 64;
  s1.send(net::make_udp_packet(spec));
  net.run_for(10 * sim::kMilli);

  EXPECT_EQ(seen_tag, 42) << "Tag++ must increment the SRH tag";
  expect_drained(net);
}

// ---- §4.1 delay monitoring end-to-end ------------------------------------------------

TEST(Integration, DelayMonitoringProducesSamples) {
  DelayMonitorLab::Options opts;
  opts.probe_ratio = 10;
  opts.link_delay = 3 * sim::kMilli;
  DelayMonitorLab lab(opts);

  lab.offer_traffic(/*pps=*/2000, /*duration=*/500 * sim::kMilli);
  lab.run_for(800 * sim::kMilli);

  // ~1000 packets, 1:10 probing -> ~100 samples.
  EXPECT_GT(lab.samples().size(), 50u);
  EXPECT_GT(lab.sink_packets(), 900u) << "probes must be decapped + delivered";

  // The measured OWD must match the configured one-way link delay (3 ms)
  // plus negligible serialization time.
  for (const auto& s : lab.samples()) {
    EXPECT_GE(s.owd_ns(), 3 * sim::kMilli);
    EXPECT_LT(s.owd_ns(), 4 * sim::kMilli);
  }
  expect_drained(lab.net());
}

// ---- §4.3 traceroute discovers the ECMP diamond ----------------------------------------

TEST(Integration, TracerouteDiscoversEcmpNexthops) {
  OampLab lab;
  apps::AppMux mux(lab.prober());

  Traceroute::Options opts;
  opts.target = lab.target();
  opts.prober_addr = lab.prober_addr();
  opts.max_ttl = 6;
  Traceroute tr(lab.prober(), mux, opts);

  const auto hops = tr.run(lab.net());
  ASSERT_GE(hops.size(), 3u) << "R1, R2x, R3 and the target expected";

  // Hop 1 is R1; its OAMP answer must reveal BOTH ECMP nexthops.
  const auto* hop1 = &hops[0];
  EXPECT_EQ(hop1->ttl, 1);
  EXPECT_TRUE(hop1->oamp_answered);
  EXPECT_EQ(hop1->nexthops.size(), 2u)
      << "R1 has two ECMP nexthops towards the target";
  expect_drained(lab.net());
}

}  // namespace
}  // namespace srv6bpf
