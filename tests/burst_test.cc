// The vector datapath: PacketBurst mechanics, the hot-path satellite
// structures (SID hash table, FIB route cache, bounds-checked interface
// lookup) and — the heart of this file — burst-vs-sequential differential
// tests: the fig2 (End.BPF on a Xeon router) and hybrid-WRR (WRR eBPF
// encap on the Turris CPE) scenarios of tests/golden_scenarios.h must
// deliver identical digests (every delivery's arrival time and seq) and
// final NodeStats (cumulative pipeline traces included) at burst sizes
// {1, 8, 32}.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>

#include "golden_scenarios.h"
#include "net/burst.h"
#include "net/packet.h"
#include "seg6/seg6local.h"
#include "sim/network.h"

namespace srv6bpf {
namespace {

net::Ipv6Addr A(const char* s) { return net::Ipv6Addr::must_parse(s); }
net::Prefix P(const char* s) { return net::Prefix::parse(s).value(); }

// ---- PacketBurst ------------------------------------------------------------

TEST(PacketBurst, PushSizeClear) {
  net::PacketBurst b;
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.capacity(), net::kMaxBurstPackets);
  for (std::size_t i = 0; i < b.capacity(); ++i) {
    net::PacketSpec spec;
    spec.src = A("fc00::1");
    spec.dst = A("fc00::2");
    EXPECT_TRUE(b.push(net::make_udp_packet(spec), /*at_ns=*/i));
  }
  EXPECT_TRUE(b.full());
  net::PacketSpec spec;
  spec.src = A("fc00::1");
  spec.dst = A("fc00::2");
  net::Packet extra = net::make_udp_packet(spec);
  EXPECT_FALSE(b.push(std::move(extra)));
  EXPECT_EQ(b.size(), b.capacity());
  EXPECT_EQ(b.meta(5).at_ns, 5u);
  EXPECT_EQ(b.meta(5).verdict, net::BurstVerdict::kPending);
  b.clear();
  EXPECT_TRUE(b.empty());
}

TEST(PacketBurst, DefaultPacketIsEmptyAndGrowable) {
  net::Packet p;
  EXPECT_EQ(p.size(), 0u);
  std::uint8_t* base = p.push_front(40);
  std::memset(base, 0, 40);
  EXPECT_EQ(p.size(), 40u);
}

// ---- satellite structures ---------------------------------------------------

TEST(Ipv6AddrHash, DistinguishesAndAgrees) {
  net::Ipv6AddrHash h;
  EXPECT_EQ(h(A("fc00::1")), h(A("fc00::1")));
  EXPECT_NE(h(A("fc00::1")), h(A("fc00::2")));
  EXPECT_NE(h(A("fc00::1")), h(A("1::fc00")));
}

TEST(Seg6LocalTable, HashTableLookup) {
  seg6::Seg6LocalTable t;
  EXPECT_EQ(t.lookup(A("fc00::1")), nullptr);
  for (int i = 1; i <= 64; ++i) {
    seg6::Seg6LocalEntry e;
    e.action = seg6::Seg6Action::kEnd;
    e.table = i;
    t.add(A(("fc00:ab::" + std::to_string(i)).c_str()), e);
  }
  EXPECT_EQ(t.size(), 64u);
  // to_string(23) names the hex group "23"; the entry stores decimal 23.
  const seg6::Seg6LocalEntry* e = t.lookup(A("fc00:ab::23"));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->table, 23);
  EXPECT_EQ(t.lookup(A("fc00:ab::ffff")), nullptr);
}

TEST(Fib, OneEntryRouteCacheHitsAndInvalidates) {
  seg6::Fib fib;
  fib.add_route(P("fc00::/16"), {A("fe80::1"), 1, 1});
  const seg6::Route* r1 = fib.lookup(A("fc00:1::5"));
  ASSERT_NE(r1, nullptr);
  EXPECT_EQ(fib.cache_hits(), 0u);
  EXPECT_EQ(fib.lookup(A("fc00:1::5")), r1);
  EXPECT_EQ(fib.cache_hits(), 1u);

  // A mutation must invalidate: the more specific route wins afterwards.
  fib.add_route(P("fc00:1::/32"), {A("fe80::2"), 2, 1});
  const seg6::Route* r2 = fib.lookup(A("fc00:1::5"));
  ASSERT_NE(r2, nullptr);
  EXPECT_EQ(r2->nexthops[0].oif, 2);
  EXPECT_EQ(fib.cache_hits(), 1u);

  // Negative results are cached too, and survive only until a mutation.
  EXPECT_EQ(fib.lookup(A("dead::1")), nullptr);
  EXPECT_EQ(fib.lookup(A("dead::1")), nullptr);
  EXPECT_EQ(fib.cache_hits(), 2u);
  fib.clear();
  EXPECT_EQ(fib.lookup(A("fc00:1::5")), nullptr);
}

TEST(Node, InterfaceAddrBoundsChecked) {
  sim::Network net;
  auto& a = net.add_node("a");
  auto& b = net.add_node("b");
  auto l = net.connect(a, A("fc00:1::1"), b, A("fc00:1::2"), 1'000'000'000ull,
                       sim::kMilli);
  EXPECT_EQ(a.interface_addr(l.a_ifindex), A("fc00:1::1"));
  EXPECT_THROW(a.interface_addr(-1), std::out_of_range);
  EXPECT_THROW(a.interface_addr(7), std::out_of_range);
}

// ---- burst-vs-sequential differential ---------------------------------------

// A router's whole NodeStats minus the two counters that legitimately change
// with burst size: the service events that drained its RX rings, and the
// packets they drained.
sim::NodeStats burst_invariant(sim::NodeStats s) {
  s.service_events = 0;
  s.serviced_packets = 0;
  return s;
}

TEST(BurstDifferential, Fig2EndBpfIdenticalAcrossBurstSizes) {
  const golden::Outcome b1 = golden::run_fig2({.burst = 1});
  EXPECT_EQ(b1.dig.delivered, 100u);
  EXPECT_EQ(b1.router.total_drops(), 0u);
  EXPECT_EQ(b1.router.pipeline.bpf_runs, 100u);
  for (const std::size_t burst : {8, 32}) {
    SCOPED_TRACE("burst " + std::to_string(burst) + " vs 1");
    const golden::Outcome b = golden::run_fig2({.burst = burst});
    EXPECT_TRUE(b.dig == b1.dig) << std::hex << b.dig.fnv;
    EXPECT_EQ(burst_invariant(b.router), burst_invariant(b1.router));
    EXPECT_EQ(b.sink, b1.sink);
    if (burst == 32) {
      // Bursts must actually have formed (the clump outpaces the Xeon
      // service rate), otherwise this test proves nothing.
      EXPECT_EQ(b.router.serviced_packets, 100u);
      EXPECT_LT(b.router.service_events, 100u / 2);
    }
  }
}

TEST(BurstDifferential, HybridWrrIdenticalAcrossBurstSizes) {
  const golden::Outcome b1 = golden::run_hybrid({.burst = 1});
  EXPECT_EQ(b1.dig.delivered, 96u);
  EXPECT_EQ(b1.router.pipeline.bpf_runs, 96u);
  EXPECT_GT(b1.router.pipeline.bpf_insns_interp, 0u);
  EXPECT_EQ(b1.router.pipeline.bpf_insns_jit, 0u);
  EXPECT_GT(b1.router.pipeline.encaps, 0u);
  for (const std::size_t burst : {8, 32}) {
    SCOPED_TRACE("burst " + std::to_string(burst) + " vs 1");
    const golden::Outcome b = golden::run_hybrid({.burst = burst});
    EXPECT_TRUE(b.dig == b1.dig) << std::hex << b.dig.fnv;
    EXPECT_EQ(burst_invariant(b.router), burst_invariant(b1.router));
    EXPECT_EQ(b.sink, b1.sink);
    if (burst == 32) {
      EXPECT_LT(b.router.service_events, 96u / 2);
    }
  }
}

// The WRR schedule itself (map counter state) must be order-preserving:
// grouping may never reorder program executions. Distribution across the
// two decap SIDs is 5:3 over every 8-packet cycle regardless of burst size.
TEST(BurstDifferential, WrrScheduleOrderPreserved) {
  const golden::Outcome a = golden::run_hybrid({.burst = 1});
  const golden::Outcome b = golden::run_hybrid({.burst = 64});
  EXPECT_EQ(a.router.pipeline.helper_calls, b.router.pipeline.helper_calls);
  EXPECT_EQ(a.router.pipeline.bpf_insns_interp,
            b.router.pipeline.bpf_insns_interp);
}

}  // namespace
}  // namespace srv6bpf
