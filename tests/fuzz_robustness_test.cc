// Seeded fuzz of the parsing layer and the live datapath: malformed input
// must drop with an attributed reason — never crash, never corrupt the
// conservation ledger.
//
// Two surfaces, deliberately the same mutation engine (seeded truncation +
// bit flips, so every failure reproduces from the printed seed):
//
//   1. The pure parsers — net::locate_transport's header-chain walk,
//      Packet::srh()'s bounds gate and SrhView::valid()'s structural
//      checks — called directly on mutated IPv6/SRH/UDP frames. The only
//      acceptable outcomes are "parsed" or "rejected"; any out-of-bounds
//      access is the CI ASan+UBSan job's kill condition (this whole test
//      binary runs under SRV6BPF_SANITIZE=address like every other test).
//
//   2. The live datapath — the same mutated frames injected as wire
//      arrivals into an SRv6 endpoint router (seg6local End SID + FIB), a
//      sink behind it, with a sim::InvariantAuditor holding the books. Every
//      injected packet must come out as a delivery, an attributed drop or an
//      ICMP exchange; in_flight must balance to exactly zero afterwards.
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <vector>

#include "apps/sink.h"
#include "apps/trafgen.h"
#include "net/packet.h"
#include "net/srh.h"
#include "seg6/seg6local.h"
#include "sim/fault_injector.h"
#include "sim/invariant_auditor.h"
#include "sim/network.h"
#include "util/hash.h"
#include "util/rng.h"

namespace srv6bpf {
namespace {

net::Ipv6Addr A(const char* s) { return net::Ipv6Addr::must_parse(s); }
net::Prefix P(const char* s) { return net::Prefix::parse(s).value(); }

// One of a few representative frame shapes, pre-mutation: plain UDP, SRH
// with segments left, SRH at its final segment, SRH with a DM TLV.
net::Packet make_seed_packet(Rng& rng, const net::Ipv6Addr& dst,
                             const net::Ipv6Addr& sid) {
  net::PacketSpec spec;
  spec.src = A("fc00:9::1");
  spec.dst = dst;
  spec.dst_port = 7001;
  spec.payload_size = static_cast<std::size_t>(rng.uniform(0, 96));
  switch (rng.uniform(0, 3)) {
    case 0:
      break;  // plain UDP
    case 1:
      spec.segments = {sid, dst};  // SRH, one hop left at the router
      break;
    case 2:
      spec.segments = {dst};  // SRH already at its final segment
      break;
    default:
      spec.segments = {sid, dst};
      // DM TLV (20 bytes) + PadN to the 8-byte multiple the SRH requires.
      spec.srh_tlvs.assign(net::kDmTlvSize + 4, 0);
      spec.srh_tlvs[0] = net::kTlvDelayMeasurement;
      spec.srh_tlvs[1] = net::kDmTlvSize - 2;
      spec.srh_tlvs[net::kDmTlvSize] = net::kTlvPadN;
      spec.srh_tlvs[net::kDmTlvSize + 1] = 2;
      break;
  }
  return net::make_udp_packet(spec);
}

// Seeded damage: random truncation (including down to zero and mid-header
// cuts) and up to 8 random bit flips anywhere in what remains.
net::Packet mutate(net::Packet&& pkt, Rng& rng) {
  std::size_t len = pkt.size();
  if (rng.chance(0.5) && len > 0)
    len = static_cast<std::size_t>(rng.uniform(0, len));  // truncate
  net::Packet out(std::span<const std::uint8_t>(pkt.data(), len));
  if (len > 0) {
    const std::uint64_t flips = rng.uniform(0, 8);
    for (std::uint64_t i = 0; i < flips; ++i) {
      const std::uint64_t bit = rng.uniform(0, len * 8 - 1);
      out.data()[bit >> 3] ^= static_cast<std::uint8_t>(1u << (bit & 7));
    }
  }
  return out;
}

TEST(FuzzParsers, TruncationAndBitFlipsNeverCrash) {
  const std::uint64_t seed = 0xf022edc4a5;
  Rng rng(seed);
  const net::Ipv6Addr dst = A("fc00:2::2");
  const net::Ipv6Addr sid = A("fc00:f::1");
  std::uint64_t parsed = 0, rejected = 0;
  for (int i = 0; i < 20000; ++i) {
    net::Packet pkt = mutate(make_seed_packet(rng, dst, sid), rng);

    // Header-chain walk: bounded by pkt.size() whatever the bytes claim.
    if (auto t = net::locate_transport(pkt)) {
      ++parsed;
      ASSERT_LE(t->offset, pkt.size()) << "seed " << seed << " iter " << i;
      ASSERT_LE(t->inner_ip, pkt.size()) << "seed " << seed << " iter " << i;
    } else {
      ++rejected;
    }

    // SRH view: srh() itself gates on bounds; a view it returns must be
    // structurally self-consistent or flagged invalid.
    if (auto srh = pkt.srh()) {
      if (srh->valid()) {
        ASSERT_LE(srh->total_len(),
                  pkt.size() - net::kIpv6HeaderSize)
            << "seed " << seed << " iter " << i;
        ASSERT_LE(srh->segments_left(), srh->last_entry());
      }
    }
  }
  // The mutation mix actually exercises both sides of every gate.
  EXPECT_GT(parsed, 1000u);
  EXPECT_GT(rejected, 1000u);
}

TEST(FuzzDatapath, MalformedArrivalsDropAccountedNeverCrash) {
  const std::uint64_t seed = 0xda7a9a7;
  sim::Network net(seed);
  auto& r = net.add_node("R");
  auto& s2 = net.add_node("S2");
  const std::uint64_t bw = 10ull * 1000 * 1000 * 1000;
  auto l1 = net.connect(r, A("fc00:2::1"), s2, A("fc00:2::2"), bw,
                        sim::kMicro);
  const net::Ipv6Addr sid = A("fc00:f::1");
  r.ns().add_local_addr(sid);
  seg6::Seg6LocalEntry end;
  end.action = seg6::Seg6Action::kEnd;
  r.ns().seg6local().add(sid, end);
  r.ns().table(0).add_route(P("fc00:2::/64"),
                            {net::Ipv6Addr{}, l1.a_ifindex, 1});

  apps::AppMux mux(s2);
  std::uint64_t delivered = 0;
  mux.on_udp(7001, [&delivered](const net::Packet&, const net::UdpHeader&,
                                std::span<const std::uint8_t>, sim::TimeNs) {
    ++delivered;
  });

  constexpr std::uint64_t kPackets = 5000;
  std::uint64_t injected = 0;
  Rng fuzz(seed);
  // Spread the arrivals across sim time (one per event) so ICMP responses
  // and deliveries interleave with the fuzz stream like real traffic.
  for (std::uint64_t i = 0; i < kPackets; ++i) {
    net.loop().schedule_at(100 + i * 200, [&r, &fuzz, &injected] {
      net::Packet pkt =
          mutate(make_seed_packet(fuzz, A("fc00:2::2"), A("fc00:f::1")), fuzz);
      if (pkt.size() == 0) return;  // nothing on the wire
      ++injected;
      net::PacketBurst b;
      b.push(std::move(pkt), r.loop().now());
      r.receive_burst_from_link(std::move(b), 0);
    });
  }

  sim::InvariantAuditor auditor;
  auditor.add_source([&injected] { return injected; });
  auditor.add_node(r);
  auditor.add_node(s2);
  auditor.add_link(*l1.link);

  net.run_until(kPackets * 200 + 10 * sim::kMilli);
  auditor.audit(net.now(), /*final_drain=*/true);
  for (const std::string& v : auditor.violations()) ADD_FAILURE() << v;

  const sim::NodeStats rs = r.stats();
  // The stream actually hit the failure paths AND the happy path.
  EXPECT_GT(rs.drops_malformed + rs.drops_verdict, 100u);
  EXPECT_GT(rs.drops_no_route + rs.drops_ttl, 0u);
  EXPECT_GT(delivered, 100u);
  // Nothing vanished: every injected packet is in somebody's books.
  const auto ledger = auditor.ledger();
  EXPECT_EQ(ledger.in_flight, 0);
}

// Wire-level corruption through the FaultInjector (the chaos soak's
// configuration) feeding the same datapath: corrupted deliveries and drops
// must balance, and repeating the (seed, schedule) must reproduce the exact
// outcome — corruption is part of the deterministic contract.
TEST(FuzzDatapath, LinkCorruptionIsAccountedAndReproducible) {
  auto run = [](std::uint64_t seed) {
    sim::Network net(0xbeef);
    auto& s1 = net.add_node("S1");
    auto& r = net.add_node("R");
    auto& s2 = net.add_node("S2");
    const std::uint64_t bw = 10ull * 1000 * 1000 * 1000;
    auto l0 = net.connect(s1, A("fc00:1::1"), r, A("fc00:1::2"), bw,
                          sim::kMicro);
    auto l1 = net.connect(r, A("fc00:2::1"), s2, A("fc00:2::2"), bw,
                          sim::kMicro);
    s1.ns().table(0).add_route(P("::/0"), {A("fc00:1::2"), l0.a_ifindex, 1});
    r.ns().table(0).add_route(P("fc00:2::/64"),
                              {net::Ipv6Addr{}, l1.a_ifindex, 1});
    r.ns().table(0).add_route(P("fc00:1::/64"),
                              {net::Ipv6Addr{}, l0.b_ifindex, 1});

    sim::FaultInjector inj(net, seed);
    inj.corrupt(*l0.link, 0, 0.05, 0, 4 * sim::kMilli);
    inj.install();

    apps::AppMux mux(s2);
    std::uint64_t delivered = 0, fnv = kFnv1aBasis;
    mux.on_udp(7001, [&](const net::Packet& pkt, const net::UdpHeader&,
                         std::span<const std::uint8_t>, sim::TimeNs now) {
      ++delivered;
      fnv = fnv1a_u64(fnv1a_u64(fnv, now), pkt.seq);
    });

    apps::TrafGen::Config cfg;
    cfg.spec.src = A("fc00:1::1");
    cfg.spec.dst = A("fc00:2::2");
    cfg.spec.payload_size = 64;
    cfg.spec.dst_port = 7001;
    cfg.pps = 200000;
    cfg.duration = 3 * sim::kMilli;
    apps::TrafGen gen(s1, cfg);
    gen.start();

    sim::InvariantAuditor auditor;
    auditor.add_source([&gen] { return gen.attempted(); });
    for (sim::Node* n : {&s1, &r, &s2}) auditor.add_node(*n);
    for (auto* l : {l0.link, l1.link}) auditor.add_link(*l);
    net.run_until(6 * sim::kMilli);
    auditor.audit(net.now(), /*final_drain=*/true);
    for (const std::string& v : auditor.violations()) ADD_FAILURE() << v;

    struct Out {
      std::uint64_t delivered, fnv, corrupted, dropped;
    };
    return Out{delivered, fnv, l0.link->stats(0).corrupted,
               r.stats().total_drops() + s2.stats().total_drops()};
  };

  const auto a = run(0x5eed);
  EXPECT_GT(a.corrupted, 10u);  // the fault actually fired
  EXPECT_GT(a.dropped, 0u);     // corrupted headers died downstream, counted
  EXPECT_GT(a.delivered, 400u);
  const auto b = run(0x5eed);
  EXPECT_EQ(a.delivered, b.delivered);  // (seed, schedule) reproduces
  EXPECT_EQ(a.fnv, b.fnv);
  EXPECT_EQ(a.corrupted, b.corrupted);
  const auto c = run(0x0dd);
  EXPECT_NE(a.fnv, c.fnv);  // a different seed is a different universe
}

}  // namespace
}  // namespace srv6bpf
