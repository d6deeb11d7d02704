#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "apps/trafgen.h"
#include "expect_drained.h"
#include "net/buffer_pool.h"
#include "net/packet.h"
#include "seg6/fib.h"
#include "seg6/seg6local.h"
#include "sim/costmodel.h"
#include "sim/event_loop.h"
#include "sim/netem.h"
#include "sim/network.h"
#include "sim/node.h"

namespace srv6bpf::sim {
namespace {

net::Ipv6Addr A(const char* s) { return net::Ipv6Addr::must_parse(s); }
net::Prefix P(const char* s) { return net::Prefix::parse(s).value(); }

// ---- event loop -----------------------------------------------------------------

TEST(EventLoop, OrdersByTimeThenFifo) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(200, [&] { order.push_back(2); });
  loop.schedule_at(100, [&] { order.push_back(1); });
  loop.schedule_at(200, [&] { order.push_back(3); });  // same time: FIFO
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 200u);
}

TEST(EventLoop, RunUntilAdvancesClockEvenWhenIdle) {
  EventLoop loop;
  loop.run_until(5000);
  EXPECT_EQ(loop.now(), 5000u);
}

TEST(EventLoop, EventsCanScheduleEvents) {
  EventLoop loop;
  int fired = 0;
  loop.schedule(10, [&] {
    loop.schedule(10, [&] { ++fired; });
  });
  loop.run_until(100);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.executed(), 2u);
}

TEST(EventLoop, PastSchedulingClampsToNow) {
  EventLoop loop;
  loop.schedule_at(100, [&] {});
  loop.run();
  bool ran = false;
  loop.schedule_at(50, [&] { ran = true; });  // in the past
  loop.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(loop.now(), 100u);
}

// A running closure stays in its slot of the closure store. Here it schedules
// far more events than one store chunk holds, each capturing different data,
// then reads its own captures: had its storage moved or been handed to a
// child, the read would see the child's data (or, under ASan, freed memory).
TEST(EventLoop, RunningClosureKeepsItsCapturesWhileTheStoreGrows) {
  EventLoop loop;
  // Three references and seven words fill InlineFn's whole capture budget.
  constexpr std::size_t kWords = 7;
  std::array<std::uint64_t, kWords> pattern;
  for (std::size_t i = 0; i < pattern.size(); ++i)
    pattern[i] = 0x0101010101010101ull * (i + 1);
  std::array<std::uint64_t, kWords> seen{};
  std::uint64_t children = 0;
  loop.schedule(1, [&loop, &children, &seen, pattern] {
    for (std::uint64_t i = 0; i < 3000; ++i) {
      std::array<std::uint64_t, kWords> other;
      other.fill(~i);
      loop.schedule(1, [&children, other] { children += other[0] != 0; });
    }
    seen = pattern;
  });
  loop.run();
  EXPECT_EQ(children, 3000u);
  EXPECT_EQ(seen, pattern);
}

TEST(EventLoop, DestroyingTheLoopDestroysPendingClosuresOnceWithoutRunning) {
  // Counts destructions of the capture that was scheduled, not of the
  // moved-from shells it leaves behind.
  struct Counted {
    int* destroyed;
    explicit Counted(int* d) : destroyed(d) {}
    Counted(Counted&& o) noexcept
        : destroyed(std::exchange(o.destroyed, nullptr)) {}
    ~Counted() {
      if (destroyed != nullptr) ++*destroyed;
    }
  };
  int destroyed = 0;
  int ran = 0;
  {
    EventLoop loop;
    for (TimeNs t = 0; t < 200; ++t)
      loop.schedule_at(t, [c = Counted(&destroyed), &ran] { ++ran; });
    loop.run_until(49);
    EXPECT_EQ(ran, 50);
    EXPECT_EQ(destroyed, 50);
  }
  EXPECT_EQ(ran, 50);
  EXPECT_EQ(destroyed, 200);
}

TEST(EventLoop, AThrowingEventIsDestroyedAndTheLoopCarriesOn) {
  EventLoop loop;
  auto owned = std::make_shared<int>(0);
  loop.schedule_at(1, [owned] { throw std::runtime_error("event failed"); });
  EXPECT_THROW(loop.run(), std::runtime_error);
  EXPECT_EQ(owned.use_count(), 1);  // the closure's copy is gone
  int ran = 0;
  loop.schedule_at(2, [&ran] { ++ran; });  // reuses the freed slot
  loop.run();
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(loop.pending(), 0u);
}

// ---- netem ----------------------------------------------------------------------

TEST(Netem, FixedDelay) {
  NetemQdisc q({.delay_ns = 1000, .jitter_ns = 0});
  Rng rng(1);
  const auto d = q.enqueue(0, rng);
  EXPECT_FALSE(d.dropped);
  EXPECT_EQ(d.deliver_at, 1000u);
}

TEST(Netem, JitterVariesButKeepsOrder) {
  NetemQdisc q({.delay_ns = 10 * kMilli, .jitter_ns = 3 * kMilli});
  Rng rng(7);
  TimeNs prev = 0;
  bool varied = false;
  TimeNs first = 0;
  for (int i = 0; i < 50; ++i) {
    const auto d = q.enqueue(static_cast<TimeNs>(i) * kMilli, rng);
    ASSERT_FALSE(d.dropped);
    EXPECT_GE(d.deliver_at, prev) << "keep_order must prevent reordering";
    if (i == 0) first = d.deliver_at;
    if (d.deliver_at - static_cast<TimeNs>(i) * kMilli != first) varied = true;
    prev = d.deliver_at;
  }
  EXPECT_TRUE(varied);
}

// ---- cost model ------------------------------------------------------------------

TEST(CostModel, BaselineMatches610Kpps) {
  seg6::ProcessTrace t{};
  const auto cost = packet_cost_ns(kXeonProfile, t);
  // 610 kpps -> 1639.3 ns.
  EXPECT_NEAR(1e9 / static_cast<double>(cost), 610e3, 2e3);
}

TEST(CostModel, ComponentsAreAdditive) {
  seg6::ProcessTrace t{};
  t.seg6local_ops = 1;
  t.bpf_runs = 1;
  t.bpf_insns_jit = 100;
  t.helper_calls = 2;
  const auto cost = packet_cost_ns(kXeonProfile, t);
  const auto expect = kXeonProfile.forward_ns + kXeonProfile.seg6_op_ns +
                      kXeonProfile.bpf_entry_ns +
                      static_cast<std::uint64_t>(100 * kXeonProfile.jit_insn_ns) +
                      2 * kXeonProfile.helper_call_ns;
  EXPECT_NEAR(static_cast<double>(cost), static_cast<double>(expect), 2.0);
}

TEST(CostModel, InterpreterCostsMoreThanJit) {
  seg6::ProcessTrace jit{}, interp{};
  jit.bpf_insns_jit = 200;
  interp.bpf_insns_interp = 200;
  EXPECT_GT(packet_cost_ns(kXeonProfile, interp),
            packet_cost_ns(kXeonProfile, jit));
}

// ---- links + node pipeline ----------------------------------------------------------

struct Line {
  Network net;
  Node* a;
  Node* r;
  Node* b;
  Line() {
    a = &net.add_node("a");
    r = &net.add_node("r");
    b = &net.add_node("b");
    auto l1 = net.connect(*a, A("fc00:1::1"), *r, A("fc00:1::2"),
                          1'000'000'000ull, kMilli);
    auto l2 = net.connect(*r, A("fc00:2::1"), *b, A("fc00:2::2"),
                          1'000'000'000ull, kMilli);
    a->ns().table(0).add_route(P("::/0"), {A("fc00:1::2"), l1.a_ifindex, 1});
    r->ns().table(0).add_route(P("fc00:2::/64"),
                               {net::Ipv6Addr{}, l2.a_ifindex, 1});
    r->ns().table(0).add_route(P("fc00:1::/64"),
                               {net::Ipv6Addr{}, l1.b_ifindex, 1});
    b->ns().table(0).add_route(P("::/0"), {A("fc00:2::1"), l2.b_ifindex, 1});
  }
  net::Packet udp(std::uint8_t hop_limit = 64) {
    net::PacketSpec spec;
    spec.src = A("fc00:1::1");
    spec.dst = A("fc00:2::2");
    spec.hop_limit = hop_limit;
    return net::make_udp_packet(spec);
  }
};

// Tearing down a network mid-flight destroys the pending delivery events;
// the packets still on the wire give their buffers back with the link.
TEST(Node, DestroyingTheNetworkReturnsPendingLinkDeliveriesToThePools) {
  const std::uint64_t buffers0 = net::BufferPool::stats().outstanding;
  {
    Line line;
    for (int i = 0; i < 8; ++i) line.a->send(line.udp());
    line.net.run_for(100 * kMicro);  // on the 1 ms wire, not yet delivered
    ASSERT_GT(line.net.loop().pending(), 0u);
    EXPECT_EQ(net::BufferPool::stats().outstanding, buffers0 + 8);
    // Mid-flight on purpose: the audit checks only in_flight >= 0.
    line.net.audit();
    EXPECT_EQ(line.net.violations(), std::vector<std::string>{});
    EXPECT_EQ(line.net.ledger().in_flight, 8);
  }
  // Every buffer back.
  EXPECT_EQ(net::BufferPool::stats().outstanding, buffers0);
}

// The same under a sealed partition: packets on a wire inside a domain and
// packets still in a crossing's mailbox, never drained, both give their
// buffers back when the network goes.
TEST(Node, DestroyingASealedNetworkReturnsWireAndMailboxPacketsToThePools) {
  const std::uint64_t buffers0 = net::BufferPool::stats().outstanding;
  {
    Line line;
    line.net.set_domain_count(2);
    line.net.assign_domain(*line.a, 0);
    line.net.assign_domain(*line.r, 0);
    line.net.assign_domain(*line.b, 1);
    line.net.seal_domains();
    for (int i = 0; i < 8; ++i) {
      line.a->send(line.udp());  // onto the a-r wire, inside domain 0
      line.r->send(line.udp());  // into the r-b crossing's mailbox
    }
    // Eight bursts on the a-r wire, one event: its head's.
    EXPECT_EQ(line.net.pdes_net().domain_loop(0).pending(), 1u);
    EXPECT_EQ(line.net.pdes_net().domain_loop(1).pending(), 0u);
    EXPECT_EQ(net::BufferPool::stats().outstanding, buffers0 + 16);
    // Mid-flight on purpose: the audit checks only in_flight >= 0.
    line.net.audit();
    EXPECT_EQ(line.net.violations(), std::vector<std::string>{});
    EXPECT_EQ(line.net.ledger().in_flight, 16);
  }
  EXPECT_EQ(net::BufferPool::stats().outstanding, buffers0);
}

// A link side keeps the bursts it has on the wire in its own FIFOs, and
// only the head burst's delivery in the event loop. Each delivery still runs
// where one event per burst would: every packet keeps its own wire arrival,
// and an event at a queued burst's delivery time runs before the burst when
// it was scheduled before the transmit, after it when scheduled after.
TEST(Link, AWireHoldsItsBurstsBehindOneEventPerBusySide) {
  Network net;
  Node& x = net.add_node("x");
  Node& y = net.add_node("y");
  constexpr std::uint64_t kBps = 1'000'000'000ull;
  Link& link = *net.connect(x, A("fc00:1::1"), y, A("fc00:1::2"), kBps,
                            kMilli).link;

  // What reached a node: a packet's seq (>= 0, reverse packets from 1000)
  // or a probe (-1 born before the transmits, -2 after), with its arrival
  // stamp and the clock it ran at.
  struct Step {
    int what;
    TimeNs rx;
    TimeNs now;
  };
  std::vector<Step> steps;
  std::size_t max_pending = 0;
  auto record = [&](net::Packet&& p, TimeNs) {
    steps.push_back({static_cast<int>(p.seq), p.rx_tstamp_ns, net.now()});
    max_pending = std::max(max_pending, net.loop().pending());
  };
  x.set_local_handler(record);
  y.set_local_handler(record);

  net::PacketSpec spec;
  spec.src = A("fc00:1::1");
  spec.dst = A("fc00:1::2");
  const net::Packet to_y = net::make_udp_packet(spec);
  std::swap(spec.src, spec.dst);
  const net::Packet to_x = net::make_udp_packet(spec);
  ASSERT_EQ(to_x.size(), to_y.size());
  const auto ser = static_cast<TimeNs>(
      static_cast<double>(to_y.size() + kWireOverheadBytes) * 8e9 /
      static_cast<double>(kBps));
  // Every packet enters an idle wire at t = 0, so packet j of a side
  // arrives after j + 1 serialisations and the propagation delay.
  auto arrival = [&](int j) { return static_cast<TimeNs>(j + 1) * ser + kMilli; };
  auto send = [&](int side, const net::Packet& proto, int bursts, int per,
                  int seq0) {
    for (int k = 0; k < bursts; ++k) {
      net::PacketBurst b;
      for (int i = 0; i < per; ++i) {
        net::Packet p = proto;
        p.seq = static_cast<std::uint32_t>(seq0 + k * per + i);
        b.push(std::move(p));
      }
      link.transmit_burst(std::move(b), side);
    }
  };

  constexpr int kBursts = 6;
  constexpr int kPer = 3;
  constexpr int kQueued = 3;  // a burst behind the wire's head
  const TimeNs t_queued = arrival(kQueued * kPer + kPer - 1);
  net.loop().schedule_at(t_queued, [&] { steps.push_back({-1, 0, net.now()}); });
  send(0, to_y, kBursts, kPer, 0);
  send(1, to_x, 2, 2, 1000);
  EXPECT_EQ(net.loop().pending(), 3u);  // two heads and the probe
  net.loop().schedule_at(t_queued, [&] { steps.push_back({-2, 0, net.now()}); });
  net.run_for(10 * kMilli);
  EXPECT_EQ(net.loop().pending(), 0u);
  EXPECT_LE(max_pending, 4u);  // never more than two heads and two probes

  std::vector<int> forward;
  int reverse = 0;
  for (const Step& s : steps) {
    if (s.what >= 1000) {
      const int j = s.what - 1000;
      EXPECT_EQ(s.rx, arrival(j));
      EXPECT_EQ(s.now, arrival(j / 2 * 2 + 1));
      ++reverse;
      continue;
    }
    forward.push_back(s.what);
    if (s.what < 0) {
      EXPECT_EQ(s.now, t_queued);
      continue;
    }
    EXPECT_EQ(s.rx, arrival(s.what)) << "packet " << s.what;
    EXPECT_EQ(s.now, arrival(s.what / kPer * kPer + kPer - 1))
        << "packet " << s.what;
  }
  EXPECT_EQ(reverse, 4);
  std::vector<int> want;
  for (int j = 0; j < kBursts * kPer; ++j) {
    if (j == kQueued * kPer) want.push_back(-1);
    want.push_back(j);
    if (j == kQueued * kPer + kPer - 1) want.push_back(-2);
  }
  EXPECT_EQ(forward, want);
  // No node originated the packets put straight on the wire, so the ledger
  // offered none and consumed every one of them, both ways.
  const auto ledger = net.ledger();
  EXPECT_EQ(ledger.offered, 0u);
  EXPECT_EQ(ledger.consumed,
            static_cast<std::uint64_t>(kBursts * kPer + 2 * 2));
}

TEST(Node, ForwardsAndDecrementsHopLimit) {
  Line line;
  std::uint8_t seen_hl = 0;
  line.b->set_local_handler([&](net::Packet&& p, TimeNs) {
    seen_hl = p.ipv6().hop_limit();
  });
  line.a->send(line.udp(64));
  line.net.run_for(10 * kMilli);
  EXPECT_EQ(seen_hl, 63);
  EXPECT_EQ(line.r->stats().tx_packets, 1u);
  expect_drained(line.net);
}

TEST(Node, PropagationDelayIsApplied) {
  Line line;
  TimeNs arrival = 0;
  line.b->set_local_handler([&](net::Packet&&, TimeNs now) { arrival = now; });
  line.a->send(line.udp());
  line.net.run_for(10 * kMilli);
  // Two 1 ms hops plus tiny serialization.
  EXPECT_GE(arrival, 2 * kMilli);
  EXPECT_LT(arrival, 2 * kMilli + 100 * kMicro);
  expect_drained(line.net);
}

TEST(Node, HopLimitExpiryDropsAndSendsIcmp) {
  Line line;
  bool got_icmp = false;
  line.a->set_local_handler([&](net::Packet&& p, TimeNs) {
    if (p.size() >= 48 && p.data()[6] == net::kProtoIcmp6 && p.data()[40] == 3)
      got_icmp = true;
  });
  line.a->send(line.udp(/*hop_limit=*/1));
  line.net.run_for(10 * kMilli);
  EXPECT_EQ(line.r->stats().drops_ttl, 1u);
  EXPECT_EQ(line.r->stats().icmp_time_exceeded_sent, 1u);
  EXPECT_TRUE(got_icmp) << "ICMPv6 time exceeded must reach the source";
  expect_drained(line.net);
}

TEST(Node, NoRouteDrops) {
  Line line;
  net::PacketSpec spec;
  spec.src = A("fc00:1::1");
  spec.dst = A("dead::1");
  net::Packet p = net::make_udp_packet(spec);
  line.a->send(std::move(p));  // A has default; R drops (no route for dead::)
  line.net.run_for(10 * kMilli);
  // R has no ::/0 so it drops.
  EXPECT_EQ(line.r->stats().drops_no_route, 1u);
  expect_drained(line.net);
}

// A route whose tunnel encapsulates toward its own prefix loops inside one
// node. Every packet gets 4 lookup rounds, a SID's round included, whether
// it came from a link or was sent locally; what still loops then is dropped
// as no-route.
TEST(Node, LookupRoundBudgetBoundsALoopInsideOneNode) {
  auto run = [](auto send) {
    Line line;
    seg6::Netns& ns = line.r->ns();
    auto lwt = std::make_shared<seg6::LwtState>();
    lwt->kind = seg6::LwtState::Kind::kSeg6Encap;
    lwt->segments = {A("fc00:5::1")};
    const int oif = ns.table(0).lookup(A("fc00:2::2"))->nexthops[0].oif;
    ns.table(0).add_route(
        seg6::Route{P("fc00:5::/64"), {{net::Ipv6Addr{}, oif, 1}}, lwt});
    seg6::Seg6LocalEntry end;
    end.action = seg6::Seg6Action::kEnd;
    ns.seg6local().add(A("fc00:2::e"), end);
    send(line);
    line.net.run_for(10 * kMilli);
    expect_drained(line.net);
    return line.r->stats();
  };
  auto packet = [](const char* src, std::vector<net::Ipv6Addr> segments) {
    net::PacketSpec spec;
    spec.src = A(src);
    spec.dst = A("fc00:5::9");
    spec.segments = std::move(segments);
    return net::make_udp_packet(spec);
  };

  const NodeStats from_link = run(
      [&](Line& l) { l.a->send(packet("fc00:1::1", {})); });
  EXPECT_EQ(from_link.pipeline.encaps, 4u);
  EXPECT_EQ(from_link.drops_no_route, 1u);

  const NodeStats sid_first = run([&](Line& l) {
    l.a->send(packet("fc00:1::1", {A("fc00:2::e"), A("fc00:5::9")}));
  });
  EXPECT_EQ(sid_first.pipeline.seg6local_ops, 1u);
  EXPECT_EQ(sid_first.pipeline.encaps, 3u);
  EXPECT_EQ(sid_first.drops_no_route, 1u);

  const NodeStats local = run(
      [&](Line& l) { l.r->send(packet("fc00:2::1", {})); });
  EXPECT_EQ(local.pipeline.encaps, 4u);
  EXPECT_EQ(local.drops_no_route, 1u);
  // None of the three leaves R.
  EXPECT_EQ(local.tx_packets + from_link.tx_packets + sid_first.tx_packets, 0u);
}

TEST(Node, CpuModelCapsForwardingRate) {
  Line line;
  line.r->cpu.enabled = true;
  line.r->cpu.profile = kXeonProfile;  // ~610 kpps

  std::uint64_t received = 0;
  line.b->set_local_handler([&](net::Packet&&, TimeNs) { ++received; });

  // Offer 100k packets in 50 ms = 2 Mpps >> capacity.
  for (int i = 0; i < 100000; ++i) {
    const TimeNs t = static_cast<TimeNs>(i) * 500;  // 2 Mpps
    auto pkt = line.udp();
    line.net.loop().schedule_at(t, [&line, p = std::move(pkt)]() mutable {
      line.a->send(std::move(p));
    });
  }
  line.net.run_for(60 * kMilli);
  // 50 ms of offered load at ~610 kpps service rate ≈ 30.5k packets, plus
  // the drained backlog and the post-offer service tail.
  EXPECT_GT(line.r->stats().drops_rx_queue, 0u) << "overload must tail-drop";
  EXPECT_NEAR(static_cast<double>(received), 32'000.0, 3'000.0);
  expect_drained(line.net);
}

// A rate with no tick interval is a config error, as in Fib::add_route and
// make_map: converting 1e9 / pps would be undefined behaviour.
TEST(TrafGen, RejectsARateWithNoTickInterval) {
  Line line;
  apps::TrafGen::Config cfg;
  cfg.spec.src = A("fc00:1::1");
  cfg.spec.dst = A("fc00:2::2");
  for (const double pps : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), 1e-30}) {
    cfg.pps = pps;
    EXPECT_THROW({ apps::TrafGen gen(*line.a, cfg); }, std::invalid_argument)
        << "pps " << pps;
  }
  cfg.pps = 1e12;  // shorter than 1 ns: ticks every nanosecond
  EXPECT_NO_THROW({ apps::TrafGen gen(*line.a, cfg); });
}

// The generator copies one prebuilt frame and patches each packet's rotated
// fields in place. Packet k must still be byte for byte the fresh build of
// its rotated spec: flow label + k % 3, destination site + k % 5 and source
// port + k % 7, with the checksum make_udp_packet computes. 105 packets
// cover every combination. With an SRH the IPv6 destination is the first
// segment, which dst_spread rotates in the header only, so that run keeps
// one destination.
TEST(TrafGen, StampedPacketsEqualFreshBuildsOfTheirRotatedSpecs) {
  for (const bool srh : {false, true}) {
    SCOPED_TRACE(srh ? "with an SRH" : "without an SRH");
    Network net;
    Node& node = net.add_node("gen");
    apps::TrafGen::Config cfg;
    cfg.spec.src = A("fc00:1::1");
    cfg.spec.dst = A("fc00:2::2");
    if (srh) cfg.spec.segments = {A("fc00:f::1"), A("fc00:2::2")};
    cfg.spec.flow_label = 0x12345;
    cfg.pps = 1e6;
    cfg.duration = 105 * kMicro;
    cfg.flow_label_spread = 3;
    cfg.dst_spread = srh ? 1 : 5;
    cfg.src_port_spread = 7;

    std::vector<net::Packet> want;
    for (std::uint32_t k = 0; k < 105; ++k) {
      net::PacketSpec spec = cfg.spec;
      spec.flow_label += k % cfg.flow_label_spread;
      spec.dst.set_group(2, static_cast<std::uint16_t>(
                                spec.dst.group(2) + k % cfg.dst_spread));
      spec.src_port =
          static_cast<std::uint16_t>(spec.src_port + k % cfg.src_port_spread);
      want.push_back(net::make_udp_packet(spec));
      node.ns().add_local_addr(want.back().ipv6().dst());
    }
    std::vector<net::Packet> got;
    node.set_local_handler(
        [&got](net::Packet&& p, TimeNs) { got.push_back(std::move(p)); });
    apps::TrafGen gen(node, cfg);
    gen.start();
    net.run_for(kMilli);

    ASSERT_EQ(got.size(), want.size());
    for (std::size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got[k].seq, k);
      EXPECT_TRUE(std::ranges::equal(got[k].bytes(), want[k].bytes()))
          << "packet " << k;
    }
    expect_drained(net);
  }
}

TEST(Node, EcmpSplitsFlowsAcrossNexthops) {
  Network net;
  auto& a = net.add_node("a");
  auto& r1 = net.add_node("r1");
  auto& r2 = net.add_node("r2");
  auto l1 = net.connect(a, A("fc00:1::1"), r1, A("fc00:1::2"),
                        1'000'000'000ull, kMilli);
  auto l2 = net.connect(a, A("fc00:3::1"), r2, A("fc00:3::2"),
                        1'000'000'000ull, kMilli);
  seg6::Route route;
  route.prefix = P("fc00:2::/64");
  route.nexthops = {{A("fc00:1::2"), l1.a_ifindex, 1},
                    {A("fc00:3::2"), l2.a_ifindex, 1}};
  a.ns().table(0).add_route(route);

  for (int flow = 0; flow < 64; ++flow) {
    net::PacketSpec spec;
    spec.src = A("fc00:1::1");
    spec.dst = A("fc00:2::2");
    spec.src_port = static_cast<std::uint16_t>(10000 + flow);
    a.send(net::make_udp_packet(spec));
  }
  net.run_for(10 * kMilli);
  EXPECT_GT(r1.stats().rx_packets, 10u);
  EXPECT_GT(r2.stats().rx_packets, 10u);
  EXPECT_EQ(r1.stats().rx_packets + r2.stats().rx_packets, 64u);
  expect_drained(net);
}

}  // namespace
}  // namespace srv6bpf::sim
