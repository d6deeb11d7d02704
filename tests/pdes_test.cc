// The parallel PDES simulator (sim/pdes_domain.h): determinism is the
// contract under test. For a fixed partition, an N-thread run must be
// bit-identical to the 1-thread run — same delivery digests, same stats,
// same tie-break order — at every thread count, every repetition, and the
// partitioned runs must in turn match the *serial* (never-sealed) simulator
// and the historical mc_test goldens on the scenarios that pin them.
//
// Also here: the EventLoop (time, key, stamp) comparator regression the
// tentpole fix demands (the serial loop and the PDES comparator must
// provably agree), SPSC mailbox unit tests, horizon progress on idle
// domains and mailbox overflow inside one lookahead window (no deadlock on
// one or two workers), same-timestamp cross-domain tie-breaks, and the
// stats-shard merge (NodeStats, first-drop min-fold, HdrHistogram) under
// partitioning.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <queue>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "apps/sink.h"
#include "apps/trafgen.h"
#include "expect_drained.h"
#include "golden_scenarios.h"
#include "net/packet.h"
#include "seg6/seg6local.h"
#include "sim/network.h"
#include "sim/pdes_mailbox.h"
#include "sim/pdes_topo.h"
#include "usecases/setup1.h"
#include "util/hdr_histogram.h"

namespace srv6bpf {
namespace {

net::Ipv6Addr A(const char* s) { return net::Ipv6Addr::must_parse(s); }
net::Prefix P(const char* s) { return net::Prefix::parse(s).value(); }

// The sink digest and the `threads` convention (kSerial = never seal) of
// every runner below.
using golden::Digest;
using golden::kSerial;

// ---- EventLoop comparator regressions ---------------------------------------

// The serial tie-break contract: ascending key at equal time, FIFO within a
// key — pinned against a reference stable sort over the insertion sequence,
// which is exactly what the pre-stamp (time, key, insertion-seq) comparator
// computed. The stamp comparator must reproduce it bit-for-bit.
TEST(EventLoopOrder, SerialLoopAgreesWithStableSortByTimeKey) {
  sim::EventLoop loop;
  Rng rng(0x0d0e);
  struct Item {
    sim::TimeNs t;
    std::uint32_t key;
    std::size_t idx;
  };
  std::vector<Item> scheduled;
  std::vector<std::size_t> executed;
  for (std::size_t i = 0; i < 300; ++i) {
    // Dense collision space: ~30 distinct times x 3 keys.
    const sim::TimeNs t = rng.uniform(0, 29) * 10;
    const auto key = static_cast<std::uint32_t>(rng.uniform(0, 2));
    scheduled.push_back({t, key, i});
    loop.schedule_at_key(t, key, [i, &executed] { executed.push_back(i); });
  }
  loop.run();

  std::vector<Item> expect = scheduled;
  std::stable_sort(expect.begin(), expect.end(),
                   [](const Item& a, const Item& b) {
                     return a.t != b.t ? a.t < b.t : a.key < b.key;
                   });
  ASSERT_EQ(executed.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i)
    EXPECT_EQ(executed[i], expect[i].idx) << "position " << i;

  // Interleaved: every event below kParents schedules a child from inside
  // its own run (delta 0 included), with 2500 pending throughout, so closure
  // slots are freed and reused while the heap is deep. In a serial loop the
  // birth stamp orders like the schedule sequence number, so the reference
  // is a priority queue on (t, key, seq) fed by the same child rule.
  constexpr std::size_t kInitial = 2500, kParents = 8000;
  // (delay, key) of the child event `id` schedules.
  static constexpr auto child = [](std::size_t id) {
    const std::uint64_t h = (id + 1) * 0x9e3779b97f4a7c15ull;
    return std::pair<sim::TimeNs, std::uint32_t>{
        (h >> 20) % 30 * 10, static_cast<std::uint32_t>((h >> 40) % 3)};
  };
  struct Interleaved {
    sim::EventLoop loop;
    std::vector<std::size_t> executed;
    std::size_t next_id = 0;
    std::size_t max_pending = 0;
    void add(sim::TimeNs t, std::uint32_t key) {
      const std::size_t id = next_id++;
      loop.schedule_at_key(t, key, [this, id] {
        executed.push_back(id);
        max_pending = std::max(max_pending, loop.pending());
        if (id < kParents) {
          const auto [dt, k] = child(id);
          add(loop.now() + dt, k);
        }
      });
    }
  } run;
  using Ref = std::tuple<sim::TimeNs, std::uint32_t, std::size_t>;  // t,key,id
  std::priority_queue<Ref, std::vector<Ref>, std::greater<>> ref;
  for (std::size_t i = 0; i < kInitial; ++i) {
    const sim::TimeNs t = rng.uniform(0, 999) * 10;
    const auto key = static_cast<std::uint32_t>(rng.uniform(0, 2));
    run.add(t, key);
    ref.emplace(t, key, i);
  }
  run.loop.run();
  std::vector<std::size_t> ref_order;
  for (std::size_t next_id = kInitial; !ref.empty();) {
    const auto [t, key, id] = ref.top();
    ref.pop();
    ref_order.push_back(id);
    if (id < kParents) {
      const auto [dt, k] = child(id);
      ref.emplace(t + dt, k, next_id++);
    }
  }
  EXPECT_GE(run.max_pending, 2048u);
  ASSERT_EQ(run.executed.size(), kInitial + kParents);
  EXPECT_EQ(run.executed, ref_order);
}

// Same-(t, key) events from *different* loops merge by provenance stamp:
// birth time first, then domain id, then sequence — independent of the
// order the injections happened to arrive in.
TEST(EventLoopOrder, InjectedStampsOrderByProvenanceNotArrival) {
  sim::EventLoop receiver;
  receiver.set_domain(0);
  sim::EventLoop sender1, sender2;
  sender1.set_domain(1);
  sender2.set_domain(2);

  std::vector<int> order;
  // Local event born at t=0 (earliest birth time).
  receiver.schedule_at(100, [&order] { order.push_back(0); });
  // Both senders stamp at their clock = 50; domain breaks the tie.
  sender1.advance_to(50);
  sender2.advance_to(50);
  auto st1 = sender1.make_stamp();
  auto st2 = sender2.make_stamp();
  // Inject in *reverse* provenance order: arrival order must not matter.
  receiver.inject(100, 0, st2, [&order] { order.push_back(2); });
  receiver.inject(100, 0, st1, [&order] { order.push_back(1); });
  receiver.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventLoopOrder, RunEventsBeforeIsStrictAndCountsExecutions) {
  sim::EventLoop loop;
  int ran = 0;
  loop.schedule_at(10, [&ran] { ++ran; });
  loop.schedule_at(20, [&ran] { ++ran; });
  loop.schedule_at(30, [&ran] { ++ran; });
  EXPECT_EQ(loop.run_events_before(20), 1u);  // strictly below the bound
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(loop.next_time(), 20u);
  EXPECT_EQ(loop.run_events_before(31), 2u);
  EXPECT_EQ(loop.next_time(), sim::kTimeInfinity);
  EXPECT_EQ(loop.now(), 30u);
}

// ---- SPSC mailbox -----------------------------------------------------------

TEST(PdesMailbox, FifoOrderAndPayloadDelivery) {
  sim::PdesMailbox box;
  sim::Network net;
  sim::Link& link = *net.connect(net.add_node("x"), A("fc00:1::1"),
                                 net.add_node("y"), A("fc00:1::2"),
                                 1'000'000'000ull, sim::kMilli).link;
  for (std::uint32_t i = 0; i < 16; ++i) {
    net::Packet pkt{std::span<const std::uint8_t>({0x60, 0, 0, 0})};
    pkt.seq = i;
    pkt.rx_tstamp_ns = 100 + i;
    // Bursts of four: the last packet of each carries the burst.
    const std::uint32_t n = i % 4 == 3 ? 4 : 0;
    box.push(sim::PdesMail{&link, i % 2, n, sim::EventLoop::Stamp{i, 1, i},
                           std::move(pkt)});
  }
  sim::PdesMail out;
  for (std::uint32_t i = 0; i < 16; ++i) {
    ASSERT_TRUE(box.try_pop(out));
    EXPECT_EQ(out.link, &link);
    EXPECT_EQ(out.side, i % 2);
    EXPECT_EQ(out.n, i % 4 == 3 ? 4u : 0u);
    EXPECT_EQ(out.stamp.seq, i);
    EXPECT_EQ(out.pkt.seq, i);
    EXPECT_EQ(out.pkt.rx_tstamp_ns, 100u + i);
    ASSERT_EQ(out.pkt.size(), 4u);
    EXPECT_EQ(out.pkt.data()[0], 0x60);
  }
  EXPECT_FALSE(box.try_pop(out));
  EXPECT_TRUE(box.empty());
}

TEST(PdesMailbox, TryPushReportsFullUntilConsumerDrains) {
  sim::PdesMailbox box;
  for (std::size_t i = 0; i < sim::PdesMailbox::kCapacity; ++i)
    ASSERT_TRUE(box.try_push(sim::PdesMail{}));
  EXPECT_FALSE(box.try_push(sim::PdesMail{}));
  sim::PdesMail out;
  ASSERT_TRUE(box.try_pop(out));
  EXPECT_TRUE(box.try_push(sim::PdesMail{}));
}

TEST(PdesMailbox, TwoThreadPumpPreservesOrder) {
  sim::PdesMailbox box;
  constexpr std::uint64_t kN = 200000;
  std::thread producer([&box] {
    for (std::uint64_t i = 0; i < kN; ++i) {
      net::Packet pkt;  // no buffer: the pool is per thread
      pkt.seq = static_cast<std::uint32_t>(i);
      pkt.rx_tstamp_ns = i;
      box.push(sim::PdesMail{nullptr, 0, static_cast<std::uint32_t>(i & 63),
                             sim::EventLoop::Stamp{i, 1, i}, std::move(pkt)});
    }
  });
  std::uint64_t expect = 0;
  sim::PdesMail m;
  while (expect < kN) {
    if (!box.try_pop(m)) {
      std::this_thread::yield();
      continue;
    }
    ASSERT_EQ(m.pkt.rx_tstamp_ns, expect);
    ASSERT_EQ(m.pkt.seq, static_cast<std::uint32_t>(expect));
    ASSERT_EQ(m.n, expect & 63);
    ASSERT_EQ(m.stamp.seq, expect);
    ++expect;
  }
  producer.join();
  EXPECT_TRUE(box.empty());
}

// ---- fig2 and hybrid-WRR: the mc_test goldens, partitioned -----------------

// With threads >= 1 tests/golden_scenarios.h puts the three nodes in three
// domains, so both hops become synchronization edges.

TEST(PdesDeterminism, Fig2PartitionedMatchesSerialAndGolden) {
  // The mc_test goldens (captured from the single-core tree) hold for the
  // serial loop with the stamp comparator, and every partitioned run
  // reproduces them bit-for-bit.
  const golden::Outcome serial = golden::run_fig2({.threads = kSerial});
  EXPECT_EQ(serial.dig.delivered, 100u);
  EXPECT_EQ(serial.dig.bytes, 6400u);
  EXPECT_EQ(serial.dig.fnv, golden::kFig2Fnv);
  for (const int threads : {1, 2, 4, 8}) {
    const golden::Outcome part = golden::run_fig2({.threads = threads});
    EXPECT_TRUE(part.dig == serial.dig) << "threads=" << threads;
    EXPECT_EQ(part.router, serial.router);
  }
}

// The headline stress: >= 20 repetitions at every thread count, each run
// bit-identical to the single-thread partitioned baseline (and hence, via
// the test above, to the serial run and the historical goldens).
TEST(PdesDeterminism, Fig2DigestsIdenticalAcrossThreadsAndRepetitions) {
  const golden::Outcome base = golden::run_fig2({.threads = 1});
  for (const int threads : {1, 2, 4, 8}) {
    for (int rep = 0; rep < 20; ++rep) {
      const golden::Outcome run = golden::run_fig2({.threads = threads});
      ASSERT_TRUE(run.dig == base.dig)
          << "threads=" << threads << " rep=" << rep << " fnv=" << std::hex
          << run.dig.fnv;
      EXPECT_EQ(run.router, base.router);
    }
  }
}

TEST(PdesDeterminism, Fig2MultiCoreRouterPartitioned) {
  // RSS-sharded router (ncpus=4) under partitioning: context-keyed service
  // events and per-context stats shards all live in one domain; the merge
  // must still be thread-count-invariant.
  const golden::Outcome serial =
      golden::run_fig2({.ncpus = 4, .threads = kSerial});
  for (const int threads : {1, 2, 4}) {
    const golden::Outcome run =
        golden::run_fig2({.ncpus = 4, .threads = threads});
    EXPECT_TRUE(run.dig == serial.dig) << "threads=" << threads;
    EXPECT_EQ(run.router, serial.router);
  }
}

TEST(PdesDeterminism, HybridWrrPartitionedMatchesSerialAndGolden) {
  const Digest serial = golden::run_hybrid({.threads = kSerial}).dig;
  EXPECT_EQ(serial.delivered, 96u);
  EXPECT_EQ(serial.bytes, 38400u);
  EXPECT_EQ(serial.fnv, golden::kHybridFnv);  // mc_test golden
  for (const int threads : {1, 2, 4, 8}) {
    const Digest run = golden::run_hybrid({.threads = threads}).dig;
    EXPECT_TRUE(run == serial) << "threads=" << threads;
  }
}

// ---- fig2_fib48: FIB-heavy multi-destination traffic ------------------------

Digest run_fig2_fib48(int threads) {
  constexpr std::size_t kFibRoutes = 2048;
  usecases::Setup1 lab(0xf1b48);
  // The lpm_sweep end-to-end shape: 2048 /48 sites routed at R, matching
  // local addresses at S2.
  lab.add_fib48(kFibRoutes);
  golden::partition3(lab.net, *lab.s1, *lab.r, *lab.s2, threads);

  apps::AppMux mux(*lab.s2);
  Digest dig;
  golden::digest_udp(mux, 7001, dig);

  apps::TrafGen::Config cfg;
  cfg.spec.src = lab.s1_addr;
  cfg.spec.dst = A("2001:db8::2");
  cfg.spec.payload_size = 64;
  cfg.spec.dst_port = 7001;
  cfg.pps = 400000;
  cfg.duration = 4 * sim::kMilli;
  cfg.dst_spread = kFibRoutes;
  cfg.flow_label_spread = 8;
  cfg.src_port_spread = 13;
  apps::TrafGen gen(*lab.s1, cfg);
  gen.start();

  golden::run_window(lab.net, 10 * sim::kMilli, threads);
  expect_drained(lab.net);
  return dig;
}

TEST(PdesDeterminism, Fig2Fib48PartitionedMatchesSerial) {
  const Digest serial = run_fig2_fib48(kSerial);
  EXPECT_GT(serial.delivered, 1000u);  // the generator actually ran
  for (const int threads : {1, 2, 4}) {
    const Digest run = run_fig2_fib48(threads);
    EXPECT_TRUE(run == serial)
        << "threads=" << threads << " delivered=" << run.delivered;
  }
}

// ---- the PR 8 failover scenario under partitioning --------------------------

// tests/slo_test.cc's FrrLab shape: primary + FRR backup link from R to S2,
// a mid-run link cut and a later restore while trafgen streams. Under a
// sealed partition the cut is scheduled per carrier replica (one event in
// each end's domain at the same instant) — the digest must not notice.
golden::Outcome run_failover(int threads) {
  sim::Network net(0xfee1);
  auto& s1 = net.add_node("S1");
  auto& r = net.add_node("R");
  auto& s2 = net.add_node("S2");
  const std::uint64_t bw = 10ull * 1000 * 1000 * 1000;
  auto l0 = net.connect(s1, A("fc00:1::1"), r, A("fc00:1::2"), bw, sim::kMicro);
  auto l1 = net.connect(r, A("fc00:2::1"), s2, A("fc00:2::2"), bw, sim::kMicro);
  auto l2 = net.connect(r, A("fc00:3::1"), s2, A("fc00:3::2"), bw, sim::kMicro);
  s1.ns().table(0).add_route(P("::/0"), {A("fc00:1::2"), l0.a_ifindex, 1});
  seg6::Route route;
  route.prefix = P("fc00:2::/64");
  route.nexthops = {{net::Ipv6Addr{}, l1.a_ifindex, 1}};
  route.frr = std::make_shared<seg6::FrrBackup>(
      seg6::FrrBackup{{}, {net::Ipv6Addr{}, l2.a_ifindex, 1}});
  r.ns().table(0).add_route(std::move(route));
  golden::partition3(net, s1, r, s2, threads);

  apps::AppMux mux(s2);
  golden::Outcome res;
  golden::digest_udp(mux, 7001, res.dig);

  apps::TrafGen::Config cfg;
  cfg.spec.src = A("fc00:1::1");
  cfg.spec.dst = A("fc00:2::2");
  cfg.spec.payload_size = 64;
  cfg.spec.dst_port = 7001;
  cfg.pps = 250000;
  cfg.duration = 4 * sim::kMilli;
  cfg.flow_label_spread = 4;
  apps::TrafGen gen(s1, cfg);
  gen.start();

  net.schedule_link_down(*l1.link, 1 * sim::kMilli);
  net.schedule_link_up(*l1.link, 3 * sim::kMilli);

  golden::run_window(net, 6 * sim::kMilli, threads);
  expect_drained(net);
  res.router = r.stats();
  return res;
}

TEST(PdesDeterminism, FailoverPartitionedMatchesSerial) {
  const golden::Outcome serial = run_failover(kSerial);
  EXPECT_GT(serial.dig.delivered, 500u);
  EXPECT_GT(serial.router.frr_reroutes, 0u);  // the cut actually rerouted
  for (const int threads : {1, 2, 4}) {
    const golden::Outcome run = run_failover(threads);
    EXPECT_TRUE(run.dig == serial.dig) << "threads=" << threads;
    EXPECT_EQ(run.router, serial.router);
  }
}

// ---- horizon progress: idle domains must not deadlock -----------------------

TEST(PdesProgress, IdleDomainsAdvanceThroughHorizonsOnly) {
  // Two domains, one link, zero traffic for most of the window, then a
  // single late packet. The only way the receiver's clock can cross the
  // window is lookahead creep (H + la fixpoint) — if horizon broadcasting
  // stalled, run_parallel_until would hang and the packet would miss.
  sim::Network net(0x1d1e);
  auto& a = net.add_node("A");
  auto& b = net.add_node("B");
  auto l = net.connect(a, A("fc00:1::1"), b, A("fc00:1::2"),
                       1000ull * 1000 * 1000, 100 * sim::kMicro);
  a.ns().table(0).add_route(P("::/0"), {A("fc00:1::2"), l.a_ifindex, 1});
  net.set_domain_count(2);
  net.assign_domain(a, 0);
  net.assign_domain(b, 1);
  net.seal_domains();

  apps::AppMux mux(b);
  std::vector<sim::TimeNs> arrivals;
  mux.on_udp(7001, [&arrivals](const net::Packet&, const net::UdpHeader&,
                               std::span<const std::uint8_t>,
                               sim::TimeNs now) { arrivals.push_back(now); });

  a.loop().schedule_at(900 * sim::kMilli, [&a] {
    net::PacketSpec spec;
    spec.src = A("fc00:1::1");
    spec.dst = A("fc00:1::2");
    spec.dst_port = 7001;
    a.send(net::make_udp_packet(spec));
  });

  net.run_parallel_until(sim::kSecond, 2);
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_GT(arrivals[0], 900 * sim::kMilli);
  EXPECT_EQ(net.now(), sim::kSecond);
  // A second, completely idle window: horizons restart and creep again.
  net.run_parallel_for(100 * sim::kMilli, 2);
  EXPECT_EQ(net.now(), sim::kSecond + 100 * sim::kMilli);
  expect_drained(net);
}

// ---- mailbox overflow inside one lookahead window ---------------------------

// A 1 Mpps single-packet generator for 5 ms over a 10 ms link: all 5000
// deliveries are sent inside the first lookahead window, so the A->B ring
// (1024 slots) overflows before B may run. On one worker nothing else can
// drain it, and a push that only spins never returns.
struct OverflowResult {
  Digest dig;
  std::uint64_t spins = 0;
};

OverflowResult run_mailbox_overflow(std::size_t threads) {
  sim::Network net(0x0f10);
  auto& a = net.add_node("A");
  auto& b = net.add_node("B");
  const std::uint64_t kTenGig = 10ull * 1000 * 1000 * 1000;
  auto l = net.connect(a, A("fc00:1::1"), b, A("fc00:1::2"), kTenGig,
                       10 * sim::kMilli);
  a.ns().table(0).add_route(P("::/0"), {A("fc00:1::2"), l.a_ifindex, 1});
  net.set_domain_count(2);
  net.assign_domain(a, 0);
  net.assign_domain(b, 1);
  net.seal_domains();

  apps::AppMux mux(b);
  OverflowResult res;
  golden::digest_udp(mux, 7001, res.dig);
  apps::TrafGen::Config cfg;
  cfg.spec.src = A("fc00:1::1");
  cfg.spec.dst = A("fc00:1::2");
  cfg.spec.payload_size = 64;
  cfg.spec.dst_port = 7001;
  cfg.pps = 1e6;
  cfg.duration = 5 * sim::kMilli;
  apps::TrafGen gen(a, cfg);
  gen.start();

  net.run_parallel_for(30 * sim::kMilli, threads);
  expect_drained(net);
  res.spins = net.pdes_net().mailbox_overflow_spins();
  return res;
}

TEST(PdesProgress, MailboxOverflowInOneWindowDrainsOnOneAndTwoWorkers) {
  const OverflowResult one = run_mailbox_overflow(1);
  EXPECT_EQ(one.dig.delivered, 5000u);
  EXPECT_GT(one.spins, 0u);  // the ring really did fill
  const OverflowResult two = run_mailbox_overflow(2);
  EXPECT_TRUE(two.dig == one.dig);
}

// ---- same-timestamp cross-domain tie-break ----------------------------------

// Two sources in different domains fire at the same instant over identical
// links into one router: their packets arrive at the router at the *same*
// nanosecond with the same event key. The sender stamps must break the tie
// — lower domain id first — on every run at every thread count.
TEST(PdesDeterminism, SameTimestampCrossDomainArrivalsOrderBySenderDomain) {
  std::vector<std::uint32_t> base_order;
  for (const int threads : {1, 2, 3}) {
    for (int rep = 0; rep < 5; ++rep) {
      sim::Network net(0x7ead);
      auto& sa = net.add_node("SA");
      auto& sb = net.add_node("SB");
      auto& r = net.add_node("R");
      auto& d = net.add_node("D");
      const std::uint64_t bw = 10ull * 1000 * 1000 * 1000;
      auto la = net.connect(sa, A("fc00:a::1"), r, A("fc00:a::2"), bw,
                            10 * sim::kMicro);
      auto lb = net.connect(sb, A("fc00:b::1"), r, A("fc00:b::2"), bw,
                            10 * sim::kMicro);
      auto ld = net.connect(r, A("fc00:d::1"), d, A("fc00:d::2"), bw,
                            10 * sim::kMicro);
      sa.ns().table(0).add_route(P("::/0"), {A("fc00:a::2"), la.a_ifindex, 1});
      sb.ns().table(0).add_route(P("::/0"), {A("fc00:b::2"), lb.a_ifindex, 1});
      r.ns().table(0).add_route(P("fc00:d::/64"),
                                {net::Ipv6Addr{}, ld.a_ifindex, 1});
      net.set_domain_count(3);
      net.assign_domain(sa, 1);
      net.assign_domain(sb, 2);
      net.assign_domain(r, 0);
      net.assign_domain(d, 0);
      net.seal_domains();

      apps::AppMux mux(d);
      std::vector<std::uint32_t> order;
      mux.on_udp(7001, [&order](const net::Packet& pkt, const net::UdpHeader&,
                                std::span<const std::uint8_t>,
                                sim::TimeNs) { order.push_back(pkt.seq); });

      for (auto* src : {&sa, &sb}) {
        net::PacketSpec spec;
        spec.src = src == &sa ? A("fc00:a::1") : A("fc00:b::1");
        spec.dst = A("fc00:d::2");
        spec.dst_port = 7001;
        spec.payload_size = 64;
        auto pkt = net::make_udp_packet(spec);
        pkt.seq = src == &sa ? 1 : 2;
        src->loop().schedule_at(1000, [src, p = std::move(pkt)]() mutable {
          src->send(std::move(p));
        });
      }
      net.run_parallel_for(sim::kMilli, static_cast<std::size_t>(threads));
      expect_drained(net);

      ASSERT_EQ(order.size(), 2u);
      // Identical paths and send times: both arrive at R at the same ns;
      // the lower sender domain (SA = 1) must win the tie every time.
      EXPECT_EQ(order[0], 1u) << "threads=" << threads << " rep=" << rep;
      EXPECT_EQ(order[1], 2u);
      if (base_order.empty()) base_order = order;
      EXPECT_EQ(order, base_order);
    }
  }
}

// ---- stats-shard merge under partitioning -----------------------------------

// Overdriven fig2 (offered >> the Xeon single-core cap): RX-queue drops at
// the router plus a no-route flow. The partitioned run's merged counters,
// *and* each drop reason's first-occurrence timestamp min-fold, must equal
// the serial run's exactly.
golden::Outcome run_overload(int threads) {
  usecases::Setup1 lab(0x0dd5);
  lab.r->cpu.ncpus = 2;  // two contexts: the merge actually folds shards
  golden::partition3(lab.net, *lab.s1, *lab.r, *lab.s2, threads);

  apps::AppMux mux(*lab.s2);
  golden::Outcome res;
  golden::digest_udp(mux, 7001, res.dig);

  // Main flood: 3 Mpps against a ~600 kpps core pair -> rx-queue drops.
  apps::TrafGen::Config cfg;
  cfg.spec.src = lab.s1_addr;
  cfg.spec.dst = lab.s2_addr;
  cfg.spec.payload_size = 64;
  cfg.spec.dst_port = 7001;
  cfg.pps = 3000000;
  cfg.duration = 2 * sim::kMilli;
  cfg.flow_label_spread = 16;
  apps::TrafGen gen(*lab.s1, cfg);
  gen.start();
  // Side flow to an unrouted prefix -> drops_no_route with a first-drop
  // timestamp from mid-run.
  apps::TrafGen::Config miss;
  miss.spec.src = lab.s1_addr;
  miss.spec.dst = A("fc00:99::1");
  miss.spec.payload_size = 64;
  miss.spec.dst_port = 7002;
  miss.pps = 50000;
  miss.start_at = 500 * sim::kMicro;
  miss.duration = sim::kMilli;
  apps::TrafGen gen_miss(*lab.s1, miss);
  gen_miss.start();

  golden::run_window(lab.net, 5 * sim::kMilli, threads);
  expect_drained(lab.net);
  res.router = lab.r->stats();
  return res;
}

TEST(PdesStats, ShardMergeAndFirstDropMinFoldMatchSerial) {
  const golden::Outcome serial = run_overload(kSerial);
  ASSERT_GT(serial.router.drops_rx_queue, 0u);
  ASSERT_GT(serial.router.drops_no_route, 0u);
  ASSERT_NE(serial.router.first_drop_at(sim::DropReason::kRxQueue),
            sim::NodeStats::kNeverDropped);
  ASSERT_NE(serial.router.first_drop_at(sim::DropReason::kNoRoute),
            sim::NodeStats::kNeverDropped);
  for (const int threads : {1, 3}) {
    const golden::Outcome run = run_overload(threads);
    EXPECT_TRUE(run.dig == serial.dig) << "threads=" << threads;
    EXPECT_EQ(run.router, serial.router);
  }
}

// ---- generated ring topology + HdrHistogram merge ---------------------------

struct RingResult {
  Digest dig;
  util::HdrHistogram merged;  // per-sink delivery-time shards, folded
};

RingResult run_ring(int threads, const sim::RingTopoSpec& spec,
                    double pps, sim::TimeNs window) {
  sim::Network net(0x816);
  sim::RingTopo topo = build_ring_topology(net, spec);
  if (threads != kSerial) {
    net.set_domain_count(spec.segments);
    net.seal_domains();
  }

  RingResult res;
  std::vector<std::unique_ptr<apps::AppMux>> muxes;
  std::vector<std::unique_ptr<apps::TrafGen>> gens;
  // One histogram shard per sink: each is filled by its own domain's
  // worker thread; the fold below is the cross-domain merge under test.
  std::vector<util::HdrHistogram> shards(spec.segments);
  std::vector<Digest> digs(spec.segments);
  for (std::size_t s = 0; s < spec.segments; ++s) {
    auto& seg = topo.segments[s];
    muxes.push_back(std::make_unique<apps::AppMux>(*seg.sink));
    muxes.back()->on_udp(
        7001, [&dig = digs[s], &shard = shards[s]](
                  const net::Packet& pkt, const net::UdpHeader&,
                  std::span<const std::uint8_t> payload, sim::TimeNs now) {
          ++dig.delivered;
          dig.bytes += payload.size();
          dig.mix(now);
          dig.mix(pkt.seq);
          shard.record(now);
        });
    apps::TrafGen::Config cfg;
    cfg.spec.src = seg.src_addr;
    cfg.spec.dst = seg.dst_addr;
    cfg.spec.payload_size = 64;
    cfg.spec.dst_port = 7001;
    cfg.pps = pps;
    cfg.duration = window / 2;
    cfg.flow_label_spread = 4;
    gens.push_back(std::make_unique<apps::TrafGen>(*seg.src, cfg));
    gens.back()->start();
  }

  golden::run_window(net, window, threads);
  expect_drained(net);

  // Deterministic cross-domain fold: segment order (the merge itself is
  // order-invariant; tests/slo_test.cc pins that algebra).
  for (std::size_t s = 0; s < spec.segments; ++s) {
    res.merged += shards[s];
    res.dig.delivered += digs[s].delivered;
    res.dig.bytes += digs[s].bytes;
    res.dig.mix(digs[s].fnv);
  }
  return res;
}

TEST(PdesDeterminism, RingTopologyDigestsIdenticalAcrossThreads) {
  sim::RingTopoSpec spec;
  spec.segments = 4;
  spec.routers_per_segment = 2;
  const sim::TimeNs window = 4 * sim::kMilli;
  const RingResult serial = run_ring(kSerial, spec, 50000, window);
  EXPECT_GT(serial.dig.delivered, 100u);
  for (const int threads : {1, 2, 4}) {
    const RingResult run = run_ring(threads, spec, 50000, window);
    EXPECT_TRUE(run.dig == serial.dig) << "threads=" << threads;
  }
}

TEST(PdesStats, HdrHistogramMergeAcrossDomainsMatchesSerial) {
  sim::RingTopoSpec spec;
  spec.segments = 4;
  spec.routers_per_segment = 2;
  const sim::TimeNs window = 4 * sim::kMilli;
  const RingResult serial = run_ring(kSerial, spec, 50000, window);
  const RingResult part = run_ring(4, spec, 50000, window);
  EXPECT_EQ(part.merged.count(), serial.merged.count());
  EXPECT_EQ(part.merged.min(), serial.merged.min());
  EXPECT_EQ(part.merged.max(), serial.merged.max());
  EXPECT_DOUBLE_EQ(part.merged.mean(), serial.merged.mean());
  for (const double q : {0.5, 0.9, 0.99, 1.0})
    EXPECT_EQ(part.merged.quantile(q), serial.merged.quantile(q))
        << "q=" << q;
}

// ---- seal-time guard rails --------------------------------------------------

TEST(PdesSeal, RejectsZeroLookaheadCrossDomainLink) {
  sim::Network net;
  auto& a = net.add_node("A");
  auto& b = net.add_node("B");
  net.connect(a, A("fc00:1::1"), b, A("fc00:1::2"), 1000ull * 1000 * 1000,
              /*prop_delay_ns=*/0);
  net.set_domain_count(2);
  net.assign_domain(a, 0);
  net.assign_domain(b, 1);
  EXPECT_THROW(net.seal_domains(), std::invalid_argument);
}

TEST(PdesSeal, RejectsNonQuiescentMasterLoop) {
  sim::Network net;
  auto& a = net.add_node("A");
  net.assign_domain(a, 0);
  net.loop().schedule_at(100, [] {});
  EXPECT_THROW(net.seal_domains(), std::logic_error);
}

TEST(PdesSeal, HashPartitionIsStableAndInRange) {
  // The default static partition: pure function of the node name.
  const auto d1 = sim::PdesNet::hash_name("router-17", 8);
  const auto d2 = sim::PdesNet::hash_name("router-17", 8);
  EXPECT_EQ(d1, d2);
  EXPECT_LT(d1, 8u);
  sim::Network net;
  auto& a = net.add_node("A");
  auto& b = net.add_node("B");
  net.connect(a, A("fc00:1::1"), b, A("fc00:1::2"), 1000ull * 1000 * 1000,
              sim::kMicro);
  net.set_domain_count(4);
  net.seal_domains();  // no explicit assignments: everything hash-placed
  EXPECT_EQ(net.domain_of(a), sim::PdesNet::hash_name("A", 4));
  EXPECT_EQ(net.domain_of(b), sim::PdesNet::hash_name("B", 4));
}

}  // namespace
}  // namespace srv6bpf
