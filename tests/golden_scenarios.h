// The two golden scenarios behind the determinism anchors, each written
// once, with their golden digests. The digests were captured at burst 1 from
// the single-core tree (commit 0592f2d); mc_test holds them at bursts 1 to
// 64, burst_test compares whole digests across burst sizes, and pdes_test
// holds them serially and partitioned at 1 to 8 threads.
//
//  * fig2: the paper's setup 1 (usecases::Setup1) with the Tag++ End.BPF
//    program on R. A 100-packet clump, one packet per 100 ns, outpaces the
//    Xeon core, queues in R's RX ring and drains in bursts.
//  * hybrid-WRR: the §4.2 datapath with the CPE's CPU as the bottleneck,
//    S1 - M(Turris, interpreter, WRR eBPF encap 5:3) - S2, where two
//    End.DT6 SIDs decapsulate. 96 packets, one per 500 ns.
//
// The digests are functions of simulated time only, so they hold on any
// host and compiler. Both windows (20 ms and 50 ms) end long after the last
// delivery, so every digest and counter is final, and each runner then ends
// with the network's drained audit (sim::Network::audit): every packet the
// source node originated is delivered or dropped with a reason. A
// violation fails the calling test.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "apps/sink.h"
#include "net/packet.h"
#include "seg6/seg6local.h"
#include "sim/network.h"
#include "usecases/hybrid.h"
#include "usecases/programs.h"
#include "usecases/setup1.h"
#include "util/hash.h"

namespace srv6bpf::golden {

// FNV-1a over little-endian u64s, with delivery and payload-byte counts.
struct Digest {
  std::uint64_t delivered = 0;
  std::uint64_t bytes = 0;
  std::uint64_t fnv = kFnv1aBasis;
  void mix(std::uint64_t v) { fnv = fnv1a_u64(fnv, v); }
  friend bool operator==(const Digest&, const Digest&) = default;
};

// The FNV-1a of every sink delivery's (arrival ns, seq) in each scenario.
inline constexpr std::uint64_t kFig2Fnv = 0x1588f2507da9c6ebull;
inline constexpr std::uint64_t kHybridFnv = 0xc45d7846b35cecd9ull;

// Folds every UDP delivery to `port` through `mux` into `dig`: the count,
// the payload bytes, the arrival time and the packet's seq.
inline void digest_udp(apps::AppMux& mux, std::uint16_t port, Digest& dig) {
  mux.on_udp(port, [&dig](const net::Packet& pkt, const net::UdpHeader&,
                          std::span<const std::uint8_t> payload,
                          sim::TimeNs now) {
    ++dig.delivered;
    dig.bytes += payload.size();
    dig.mix(now);
    dig.mix(pkt.seq);
  });
}

// The `threads` convention of every runner: kSerial never seals a
// partition (the single-loop simulator); >= 1 partitions, seals and runs
// on that many workers.
inline constexpr int kSerial = -1;

// Puts a source, a router and a sink into three domains and seals them,
// unless `threads` is kSerial.
inline void partition3(sim::Network& net, sim::Node& src, sim::Node& router,
                       sim::Node& sink, int threads) {
  if (threads == kSerial) return;
  net.set_domain_count(3);
  net.assign_domain(src, 0);
  net.assign_domain(router, 1);
  net.assign_domain(sink, 2);
  net.seal_domains();
}

inline void run_window(sim::Network& net, sim::TimeNs window, int threads) {
  if (threads == kSerial)
    net.run_for(window);
  else
    net.run_parallel_for(window, static_cast<std::size_t>(threads));
}

struct RunConfig {
  std::size_t burst = 32;  // the router's rx_burst
  std::size_t ncpus = 1;   // the router's RSS contexts
  int threads = kSerial;
};

struct Outcome {
  Digest dig;             // every delivery at the sink
  sim::NodeStats router;  // the CPU-modelled device under test
  sim::NodeStats sink;
};

// Schedules `spec` as packet `seq` to leave `src` at `at`. The send goes
// through src's own loop, which is the master loop when serial, so the
// schedule sites are the same in both modes.
inline void send_at(sim::Node& src, sim::TimeNs at, const net::PacketSpec& spec,
                    std::uint32_t seq) {
  net::Packet pkt = net::make_udp_packet(spec);
  pkt.seq = seq;
  src.loop().schedule_at(at, [&src, p = std::move(pkt)]() mutable {
    src.send(std::move(p));
  });
}

inline Outcome run_fig2(const RunConfig& rc) {
  usecases::Setup1 lab;
  lab.r->cpu.rx_burst = rc.burst;
  lab.r->cpu.ncpus = rc.ncpus;
  lab.add_end_bpf(usecases::build_tag_increment());
  partition3(lab.net, *lab.s1, *lab.r, *lab.s2, rc.threads);

  Outcome out;
  apps::AppMux mux(*lab.s2);
  digest_udp(mux, 7001, out.dig);
  constexpr std::uint32_t kSends = 100;
  for (std::uint32_t i = 0; i < kSends; ++i) {
    net::PacketSpec spec;
    spec.src = lab.s1_addr;
    spec.dst = lab.s2_addr;
    spec.segments = {lab.sid, lab.s2_addr};
    spec.srh_tag = static_cast<std::uint16_t>(i);
    spec.src_port = static_cast<std::uint16_t>(9000 + (i % 7));
    spec.dst_port = 7001;
    spec.payload_size = 64;
    send_at(*lab.s1, i * 100, spec, i);
  }
  run_window(lab.net, 20 * sim::kMilli, rc.threads);
  lab.net.audit(/*final_drain=*/true);
  EXPECT_EQ(lab.net.violations(), std::vector<std::string>{}) << "fig2";
  out.router = lab.r->stats();
  out.sink = lab.s2->stats();
  return out;
}

inline Outcome run_hybrid(const RunConfig& rc) {
  auto addr = [](const char* s) { return net::Ipv6Addr::must_parse(s); };
  auto prefix = [](const char* s) { return net::Prefix::parse(s).value(); };
  sim::Network net(0x7777);
  auto& s1 = net.add_node("S1");
  auto& m = net.add_node("M");
  auto& s2 = net.add_node("S2");
  const auto a1 = addr("fd01:1::1"), m0 = addr("fd01:1::2");
  const auto m1 = addr("fd01:2::1"), a2 = addr("fd01:2::2");
  const auto d1 = addr("fd01:5e::d1"), d2 = addr("fd01:5e::d2");
  const std::uint64_t kGig = 1000ull * 1000 * 1000;
  auto l0 = net.connect(s1, a1, m, m0, kGig, 100 * sim::kMicro);
  auto l1 = net.connect(m, m1, s2, a2, kGig, 100 * sim::kMicro);

  s1.ns().table(0).add_route(prefix("::/0"), {m0, l0.a_ifindex, 1});
  m.ns().table(0).add_route(prefix("fd01:1::/64"),
                            {net::Ipv6Addr{}, l0.b_ifindex, 1});
  m.ns().table(0).add_route(prefix("fd01:5e::/64"),
                            {net::Ipv6Addr{}, l1.a_ifindex, 1});
  s2.ns().table(0).add_route(prefix("::/0"), {m1, l1.b_ifindex, 1});

  m.cpu.enabled = true;
  m.cpu.profile = sim::kTurrisProfile;
  m.cpu.rx_burst = rc.burst;
  m.cpu.ncpus = rc.ncpus;
  m.ns().bpf().set_jit_enabled(false);  // ARM32 JIT bug (§4.2)

  // The WRR LWT program on M for S2's prefix, as in Fig4Lab's kEbpfWrr.
  m.ns().table(0).add_route(
      {prefix("fd01:2::/64"), {}, usecases::make_wrr_lwt(m, d1, d2)});
  for (const auto& sid : {d1, d2}) {
    seg6::Seg6LocalEntry e;
    e.action = seg6::Seg6Action::kEndDT6;
    e.table = 0;
    s2.ns().seg6local().add(sid, e);
  }
  partition3(net, s1, m, s2, rc.threads);

  Outcome out;
  apps::AppMux mux(s2);
  digest_udp(mux, 5201, out.dig);
  constexpr std::uint32_t kSends = 96;
  for (std::uint32_t i = 0; i < kSends; ++i) {
    net::PacketSpec spec;
    spec.src = a1;
    spec.dst = a2;
    spec.src_port = static_cast<std::uint16_t>(30000 + (i % 5));
    spec.dst_port = 5201;
    spec.payload_size = 400;
    send_at(s1, i * 500, spec, i);
  }
  run_window(net, 50 * sim::kMilli, rc.threads);
  net.audit(/*final_drain=*/true);
  EXPECT_EQ(net.violations(), std::vector<std::string>{}) << "hybrid-WRR";
  out.router = m.stats();
  out.sink = s2.stats();
  return out;
}

}  // namespace srv6bpf::golden
