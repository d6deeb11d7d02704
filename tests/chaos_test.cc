// Fault injection (sim/fault_injector.h) and graceful degradation: the PR 10
// robustness contract.
//
// What is pinned here:
//   - the re-installer's backoff arithmetic (exponential growth, max_backoff
//     clamp, jitter bounds, retry cap, determinism for a seed) against
//     FaultInjector::backoff_schedule, the exact code the injector compiles
//     crash timelines with;
//   - eBPF map teardown: reset_contents() wipes contents the way
//     Node::crash() relies on;
//   - the crash lifecycle end to end: rings flush as drops_node_down, soft
//     state (FIB, SIDs, map contents) dies, the node blackholes until
//     restart, carrier returns only when the re-installer wins, and the
//     whole sequence is digest-deterministic across serial, 1-thread and
//     4-thread PDES runs and across repetitions;
//   - the degradation ladder: while a crashed node's FIB is cold its
//     neighbor steers traffic onto the route's seg6::FrrBackup (delivery
//     continues through the outage), and the InvariantAuditor's conservation
//     ledger balances to zero in-flight after the drain — crashes included;
//   - RxRing overflow: a full ring refuses the arrival and charges
//     drops_rx_queue;
//   - the BufferPool admission cap and the per-reason first-drop timestamps
//     that make exhaustion debuggable.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <set>
#include <vector>

#include "apps/sink.h"
#include "apps/trafgen.h"
#include "ebpf/map.h"
#include "ebpf/map_impl.h"
#include "golden_scenarios.h"
#include "net/buffer_pool.h"
#include "net/packet.h"
#include "seg6/seg6local.h"
#include "sim/fault_injector.h"
#include "sim/invariant_auditor.h"
#include "sim/network.h"
#include "util/rng.h"

namespace srv6bpf {
namespace {

net::Ipv6Addr A(const char* s) { return net::Ipv6Addr::must_parse(s); }
net::Prefix P(const char* s) { return net::Prefix::parse(s).value(); }

// ---- backoff / retry-cap arithmetic -----------------------------------------

TEST(BackoffSchedule, FirstAttemptIsAtRestart) {
  sim::ReinstallPolicy policy;
  Rng rng(1);
  const auto t = sim::FaultInjector::backoff_schedule(policy, 777, 3, rng);
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0], 777u);
}

TEST(BackoffSchedule, GapsGrowExponentiallyWithinJitterBounds) {
  sim::ReinstallPolicy policy;
  policy.base_backoff = 100 * sim::kMilli;
  policy.multiplier = 2.0;
  policy.max_backoff = 10 * sim::kSecond;  // never clamps in this range
  policy.jitter_frac = 0.1;
  Rng rng(0xbac0ff);
  const auto t = sim::FaultInjector::backoff_schedule(policy, 0, 5, rng);
  ASSERT_EQ(t.size(), 5u);
  double nominal = static_cast<double>(policy.base_backoff);
  for (std::size_t i = 1; i < t.size(); ++i) {
    const auto gap = static_cast<double>(t[i] - t[i - 1]);
    EXPECT_GE(gap, nominal * 0.9) << "gap " << i;
    EXPECT_LE(gap, nominal * 1.1) << "gap " << i;
    nominal *= policy.multiplier;
  }
}

TEST(BackoffSchedule, MaxBackoffClampsTheGap) {
  sim::ReinstallPolicy policy;
  policy.base_backoff = 100 * sim::kMilli;
  policy.multiplier = 10.0;
  policy.max_backoff = 300 * sim::kMilli;
  policy.jitter_frac = 0.0;  // exact arithmetic
  Rng rng(7);
  const auto t = sim::FaultInjector::backoff_schedule(policy, 0, 4, rng);
  ASSERT_EQ(t.size(), 4u);
  EXPECT_EQ(t[1] - t[0], 100 * sim::kMilli);  // base
  EXPECT_EQ(t[2] - t[1], 300 * sim::kMilli);  // 1000ms clamped to 300
  EXPECT_EQ(t[3] - t[2], 300 * sim::kMilli);  // stays at the clamp
}

TEST(BackoffSchedule, DeterministicForASeed) {
  sim::ReinstallPolicy policy;
  Rng a(0x5eed), b(0x5eed), c(0x07e4);
  const auto ta = sim::FaultInjector::backoff_schedule(policy, 10, 6, a);
  const auto tb = sim::FaultInjector::backoff_schedule(policy, 10, 6, b);
  const auto tc = sim::FaultInjector::backoff_schedule(policy, 10, 6, c);
  EXPECT_EQ(ta, tb);
  EXPECT_NE(ta, tc);  // jitter actually depends on the stream
}

// ---- eBPF map teardown ------------------------------------------------------

TEST(MapFaults, ResetContentsWipesValuesNotDefinition) {
  auto arr =
      ebpf::make_map(ebpf::MapDef{ebpf::MapType::kArray, 4, 8, 4, "arr"});
  ASSERT_EQ(arr->put(std::uint32_t{2}, std::uint64_t{0xdead}), ebpf::kOk);
  arr->reset_contents();
  std::uint64_t got = 1;
  std::memcpy(&got, arr->find(std::uint32_t{2}), 8);  // still addressable
  EXPECT_EQ(got, 0u);                                 // but zeroed

  auto hash = ebpf::make_map(
      ebpf::MapDef{ebpf::MapType::kHash, 4, 8, 16, "h"});
  ASSERT_EQ(hash->put(std::uint32_t{5}, std::uint64_t{9}), ebpf::kOk);
  EXPECT_EQ(hash->size(), 1u);
  hash->reset_contents();
  EXPECT_EQ(hash->size(), 0u);
  EXPECT_EQ(hash->find(std::uint32_t{5}), nullptr);
}

// ---- crash / restart lifecycle ----------------------------------------------

using golden::kSerial;

struct CrashRunResult {
  golden::Digest dig;
  sim::NodeStats router;
  std::uint64_t attempted = 0;
  std::uint64_t delivered_during_outage = 0;
  std::uint64_t delivered_after_install = 0;
  std::size_t violations = 0;
  sim::OutageReport outage;
};

// S1 -> R -> S2 with a mid-run crash of R: the canonical crash-at-T /
// restart-at-T' scenario. The re-installer's first attempt fails; the second
// (jittered) attempt restores the FIB and raises carrier.
CrashRunResult run_crash_scenario(int threads) {
  sim::Network net(0xc4a54);
  auto& s1 = net.add_node("S1");
  auto& r = net.add_node("R");
  auto& s2 = net.add_node("S2");
  const std::uint64_t bw = 10ull * 1000 * 1000 * 1000;
  // 50 us propagation: at 250 kpps roughly a dozen packets ride the wire at
  // any instant, so the crash always catches in-flight traffic (the
  // drops_node_down the ledger must account for).
  auto l0 = net.connect(s1, A("fc00:1::1"), r, A("fc00:1::2"), bw,
                        50 * sim::kMicro);
  auto l1 = net.connect(r, A("fc00:2::1"), s2, A("fc00:2::2"), bw,
                        50 * sim::kMicro);
  s1.ns().table(0).add_route(P("::/0"), {A("fc00:1::2"), l0.a_ifindex, 1});
  r.ns().table(0).add_route(P("fc00:2::/64"),
                            {net::Ipv6Addr{}, l1.a_ifindex, 1});
  r.ns().table(0).add_route(P("fc00:1::/64"),
                            {net::Ipv6Addr{}, l0.b_ifindex, 1});

  golden::partition3(net, s1, r, s2, threads);

  sim::FaultInjector inj(net, 0xfa57);
  sim::CrashSpec spec;
  spec.crash_at = 1 * sim::kMilli;
  spec.restart_at = 1400 * sim::kMicro;
  spec.install_failures = 1;
  spec.policy.base_backoff = 200 * sim::kMicro;
  spec.policy.jitter_frac = 0.25;
  inj.crash(r, spec);
  inj.install();

  CrashRunResult res;
  res.outage = inj.outages().at(0);

  apps::AppMux mux(s2);
  const sim::TimeNs installed_at = res.outage.installed_at;
  // The outage window for the blackhole claim starts once the R->S2 pipe
  // has drained (packets R forwarded just before the crash are still on the
  // 50 us wire and legitimately deliver).
  const sim::TimeNs dark_from = spec.crash_at + 60 * sim::kMicro;
  mux.on_udp(7001, [&res, dark_from, installed_at](
                       const net::Packet& pkt, const net::UdpHeader&,
                       std::span<const std::uint8_t>, sim::TimeNs now) {
    ++res.dig.delivered;
    res.dig.mix(now);
    res.dig.mix(pkt.seq);
    if (now > dark_from && now < installed_at) ++res.delivered_during_outage;
    if (now >= installed_at) ++res.delivered_after_install;
  });

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

  sim::InvariantAuditor auditor;
  auditor.add_source([&gen] { return gen.attempted(); });
  auditor.add_node(s1);
  auditor.add_node(r);
  auditor.add_node(s2);
  auditor.add_link(*l0.link);
  auditor.add_link(*l1.link);

  golden::run_window(net, 2 * sim::kMilli, threads);
  auditor.audit(net.now());
  golden::run_window(net, 4 * sim::kMilli, threads);
  auditor.audit(net.now(), /*final_drain=*/true);

  res.router = r.stats();
  res.attempted = gen.attempted();
  res.violations = auditor.violations().size();
  for (const std::string& v : auditor.violations()) ADD_FAILURE() << v;
  return res;
}

TEST(CrashRestart, LifecycleAndLedger) {
  const CrashRunResult res = run_crash_scenario(kSerial);
  // The outage timeline was fully decided at install().
  EXPECT_FALSE(res.outage.gave_up);
  ASSERT_EQ(res.outage.attempt_times.size(), 2u);  // 1 failure + winner
  EXPECT_EQ(res.outage.attempt_times[0], 1400 * sim::kMicro);
  EXPECT_EQ(res.outage.installed_at, res.outage.attempt_times[1]);
  // Traffic flowed before the crash and resumed after the re-install...
  EXPECT_GT(res.dig.delivered, 200u);
  EXPECT_GT(res.delivered_after_install, 50u);
  // ...and was black-holed (accounted, not lost) during the outage: carrier
  // stays down until the config lands, so nothing reaches the cold FIB.
  EXPECT_EQ(res.delivered_during_outage, 0u);
  EXPECT_GT(res.router.drops_node_down, 0u);  // ring flush + in-flight wire
  EXPECT_EQ(res.violations, 0u);
  // Not everything offered during the outage can arrive.
  EXPECT_LT(res.dig.delivered, res.attempted);
}

TEST(CrashRestart, DigestDeterministicAcrossThreadsAndRepeats) {
  const CrashRunResult serial = run_crash_scenario(kSerial);
  EXPECT_GT(serial.dig.delivered, 200u);
  for (const int threads : {1, 4}) {
    const CrashRunResult run = run_crash_scenario(threads);
    EXPECT_TRUE(run.dig == serial.dig)
        << "threads=" << threads << " delivered=" << run.dig.delivered;
    EXPECT_EQ(run.router.drops_node_down, serial.router.drops_node_down);
  }
  // Repeat-identical: the whole (seed, schedule) pair replays.
  const CrashRunResult again = run_crash_scenario(4);
  EXPECT_TRUE(again.dig == serial.dig);
}

TEST(CrashRestart, RetryCapGivesUp) {
  sim::Network net(0x91fe);
  auto& a = net.add_node("A");
  auto& b = net.add_node("B");
  net.connect(a, A("fc00:1::1"), b, A("fc00:1::2"),
              1000ull * 1000 * 1000, sim::kMicro);

  sim::FaultInjector inj(net, 0x600d);
  sim::CrashSpec spec;
  spec.crash_at = sim::kMilli;
  spec.restart_at = 2 * sim::kMilli;
  spec.install_failures = 3;  // >= max_attempts: the installer never wins
  spec.policy.max_attempts = 3;
  spec.policy.base_backoff = 100 * sim::kMicro;
  inj.crash(b, spec);
  inj.install();

  const sim::OutageReport& rep = inj.outages().at(0);
  EXPECT_TRUE(rep.gave_up);
  EXPECT_EQ(rep.attempt_times.size(), 3u);  // capped
  EXPECT_EQ(rep.installed_at, sim::kTimeInfinity);

  net.run_until(10 * sim::kMilli);
  // The node powered back on but stays isolated: empty FIB, carrier down.
  EXPECT_FALSE(b.is_down());
  EXPECT_TRUE(b.ns().table(0).routes().empty());
}

TEST(CrashRestart, WithdrawnRouteStaysWithdrawnAfterRestart) {
  // The re-installer restores the config the node had at install(): a
  // prefix withdrawn (or replaced) before then must not come back.
  sim::Network net(0x3d1e);
  auto& a = net.add_node("A");
  auto& b = net.add_node("B");
  auto l = net.connect(a, A("fc00:1::1"), b, A("fc00:1::2"),
                       1000ull * 1000 * 1000, sim::kMicro);
  seg6::Fib& fib = b.ns().table(0);
  fib.add_route(P("fc00:7::/64"), {A("fc00:1::1"), l.b_ifindex, 1});
  fib.add_route(P("fc00:8::/64"), {A("fc00:1::1"), l.b_ifindex, 1});
  fib.add_route(P("fc00:9::/64"), {A("fc00:1::1"), l.b_ifindex, 1});
  fib.add_route(P("fc00:9::/64"), {A("fc00:1::1"), l.b_ifindex, 2});
  ASSERT_TRUE(fib.remove_route(P("fc00:7::/64")));

  sim::FaultInjector inj(net, 0x7e57);
  sim::CrashSpec spec;
  spec.crash_at = sim::kMilli;
  spec.restart_at = 2 * sim::kMilli;
  inj.crash(b, spec);
  inj.install();
  ASSERT_FALSE(inj.outages().at(0).gave_up);

  net.run_until(10 * sim::kMilli);
  ASSERT_FALSE(b.is_down());
  const seg6::Fib& restored = b.ns().table(0);
  EXPECT_EQ(restored.lookup(A("fc00:7::5")), nullptr);
  EXPECT_NE(restored.lookup(A("fc00:8::5")), nullptr);
  ASSERT_NE(restored.lookup(A("fc00:9::5")), nullptr);
  EXPECT_EQ(restored.lookup(A("fc00:9::5"))->nexthops.at(0).weight, 2);
  EXPECT_EQ(restored.route_count(), 2u);
}

// ---- the degradation ladder: FRR while the FIB is cold ----------------------

TEST(CrashRestart, NeighborDegradesToFrrBackupDuringOutage) {
  //        l1        l2
  //  S1 -- R1 ====== R2 -- S2     primary: R1 -> R2 -> S2
  //         \___________/         backup:  R1 -> S2 (direct, FRR)
  //              l3
  sim::Network net(0xf44);
  auto& s1 = net.add_node("S1");
  auto& r1 = net.add_node("R1");
  auto& r2 = net.add_node("R2");
  auto& s2 = net.add_node("S2");
  const std::uint64_t bw = 10ull * 1000 * 1000 * 1000;
  auto l0 = net.connect(s1, A("fc00:1::1"), r1, A("fc00:1::2"), bw,
                        sim::kMicro);
  // Long-haul primary: in-flight packets at the crash instant become R2's
  // accounted drops_node_down.
  auto l1 = net.connect(r1, A("fc00:12::1"), r2, A("fc00:12::2"), bw,
                        50 * sim::kMicro);
  auto l2 = net.connect(r2, A("fc00:2::1"), s2, A("fc00:2::2"), bw,
                        sim::kMicro);
  auto l3 = net.connect(r1, A("fc00:3::1"), s2, A("fc00:3::2"), bw,
                        sim::kMicro);
  s1.ns().table(0).add_route(P("::/0"), {A("fc00:1::2"), l0.a_ifindex, 1});
  seg6::Route primary;
  primary.prefix = P("fc00:2::/64");
  primary.nexthops = {{net::Ipv6Addr{}, l1.a_ifindex, 1}};
  primary.frr = std::make_shared<seg6::FrrBackup>(
      seg6::FrrBackup{{}, {net::Ipv6Addr{}, l3.a_ifindex, 1}});
  r1.ns().table(0).add_route(std::move(primary));
  r2.ns().table(0).add_route(P("fc00:2::/64"),
                             {net::Ipv6Addr{}, l2.a_ifindex, 1});

  sim::FaultInjector inj(net, 0x1adde4);
  sim::CrashSpec spec;
  spec.crash_at = 1 * sim::kMilli;
  spec.restart_at = 2 * sim::kMilli;
  spec.install_failures = 0;  // first attempt wins, at restart_at
  inj.crash(r2, spec);
  inj.install();
  ASSERT_EQ(inj.outages().at(0).installed_at, 2 * sim::kMilli);

  apps::AppMux mux(s2);
  std::uint64_t delivered = 0, during_outage = 0;
  mux.on_udp(7001, [&](const net::Packet&, const net::UdpHeader&,
                       std::span<const std::uint8_t>, sim::TimeNs now) {
    ++delivered;
    if (now > sim::kMilli && now < 2 * sim::kMilli) ++during_outage;
  });

  apps::TrafGen::Config cfg;
  cfg.spec.src = A("fc00:1::1");
  cfg.spec.dst = A("fc00:2::2");
  cfg.spec.payload_size = 64;
  cfg.spec.dst_port = 7001;
  cfg.pps = 200000;
  cfg.duration = 4 * sim::kMilli;
  apps::TrafGen gen(s1, cfg);
  gen.start();

  sim::InvariantAuditor auditor;
  auditor.add_source([&gen] { return gen.attempted(); });
  for (sim::Node* n : {&s1, &r1, &r2, &s2}) auditor.add_node(*n);
  for (auto* l : {l0.link, l1.link, l2.link, l3.link}) auditor.add_link(*l);

  net.run_until(6 * sim::kMilli);
  auditor.audit(net.now(), /*final_drain=*/true);
  for (const std::string& v : auditor.violations()) ADD_FAILURE() << v;

  // The ladder held: R1 steered onto the backup for the whole outage, so
  // delivery continued while R2's FIB was cold...
  EXPECT_GT(r1.stats().frr_reroutes, 0u);
  EXPECT_GT(during_outage, 100u);
  // ...R2 took the accounted in-flight losses of the crash instant...
  EXPECT_GT(r2.stats().drops_node_down, 0u);
  // ...and after the re-install the primary path carries traffic again.
  EXPECT_GT(delivered, during_outage);
  EXPECT_EQ(r1.stats().drops_link_down, 0u);  // FRR caught every decision
}

// ---- RxRing overflow --------------------------------------------------------

// 32 back-to-back arrivals at a CPU-modelled router whose RX ring holds 8:
// the first 8 queue, the other 24 are refused and counted.
TEST(RxOverflow, DropNewestRefusesTheArrival) {
  sim::Network net(0x0f1);
  auto& r = net.add_node("R");
  auto& s2 = net.add_node("S2");
  const std::uint64_t bw = 10ull * 1000 * 1000 * 1000;
  auto l1 = net.connect(r, A("fc00:2::1"), s2, A("fc00:2::2"), bw,
                        sim::kMicro);
  r.ns().table(0).add_route(P("fc00:2::/64"),
                            {net::Ipv6Addr{}, l1.a_ifindex, 1});
  r.cpu.enabled = true;
  r.cpu.profile = sim::kXeonProfile;
  r.cpu.rx_queue_limit = 8;

  apps::AppMux mux(s2);
  std::vector<std::uint32_t> seqs;
  mux.on_udp(7001, [&seqs](const net::Packet& pkt, const net::UdpHeader&,
                           std::span<const std::uint8_t>, sim::TimeNs) {
    seqs.push_back(pkt.seq);
  });

  // All packets arrive at the same instant, before the service event can
  // drain anything.
  net.loop().schedule_at(100, [&r] {
    for (std::uint32_t i = 0; i < 32; ++i) {
      net::PacketSpec spec;
      spec.src = A("fc00:9::1");
      spec.dst = A("fc00:2::2");
      spec.dst_port = 7001;
      spec.payload_size = 32;
      net::Packet pkt = net::make_udp_packet(spec);
      pkt.seq = i;
      net::PacketBurst b;  // one packet per arrival
      b.push(std::move(pkt), r.loop().now());
      r.receive_burst_from_link(std::move(b), 0);
    }
  });
  net.run_until(10 * sim::kMilli);

  ASSERT_EQ(seqs.size(), 8u);
  for (std::uint32_t i = 0; i < 8; ++i) EXPECT_EQ(seqs[i], i);  // head kept
  EXPECT_EQ(r.stats().drops_rx_queue, 24u);
  EXPECT_NE(r.stats().first_drop_at(sim::DropReason::kRxQueue),
            sim::NodeStats::kNeverDropped);
}

// ---- BufferPool admission cap & drop attribution ----------------------------

TEST(BufferCap, TryAdmitCountsRefusals) {
  const auto base = net::BufferPool::stats();
  net::BufferPool::set_max_buffers(base.outstanding + 2);
  auto* b1 = net::BufferPool::acquire(64);
  auto* b2 = net::BufferPool::acquire(64);
  EXPECT_FALSE(net::BufferPool::try_admit());
  EXPECT_EQ(net::BufferPool::stats().admission_fail, base.admission_fail + 1);
  net::BufferPool::release(b1);
  EXPECT_TRUE(net::BufferPool::try_admit());  // back under the cap
  net::BufferPool::release(b2);
  net::BufferPool::set_max_buffers(0);  // restore the unbounded default
}

TEST(BufferCap, UncappedAlwaysAdmits) {
  net::BufferPool::set_max_buffers(0);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(net::BufferPool::try_admit());
}

TEST(DropAttribution, NicDropRecordsReasonAndFirstTimestamp) {
  sim::EventLoop loop;
  Rng rng(1);
  sim::Node n(loop, rng, "N");
  n.note_nic_drop(sim::DropReason::kNoBuffer, 500);
  n.note_nic_drop(sim::DropReason::kNoBuffer, 300);  // earlier: becomes first
  n.note_nic_drop(sim::DropReason::kNoBuffer, 900);
  const sim::NodeStats s = n.stats();
  EXPECT_EQ(s.drops_no_buffer, 3u);
  EXPECT_EQ(s.first_drop_at(sim::DropReason::kNoBuffer), 300u);
  EXPECT_EQ(s.first_drop_at(sim::DropReason::kNoRoute),
            sim::NodeStats::kNeverDropped);
}

// ---- InvariantAuditor violation machinery -----------------------------------

TEST(InvariantAuditor, BalancedLedgerIsClean) {
  sim::InvariantAuditor auditor;
  std::uint64_t attempted = 10;
  auditor.add_source([&attempted] { return attempted; });
  auditor.audit(100);                       // 10 in flight: fine mid-run
  EXPECT_TRUE(auditor.violations().empty());
  EXPECT_EQ(auditor.ledger().in_flight, 10);
}

TEST(InvariantAuditor, OverConsumptionIsAConservationViolation) {
  sim::EventLoop loop;
  Rng rng(1);
  sim::Node n(loop, rng, "N");
  n.note_nic_drop(sim::DropReason::kNoBuffer, 1);  // consumed with no source
  sim::InvariantAuditor auditor;
  auditor.add_node(n);
  auditor.audit(100);
  ASSERT_EQ(auditor.violations().size(), 1u);
  EXPECT_NE(auditor.violations()[0].find("conservation"), std::string::npos);
}

TEST(InvariantAuditor, UndrainedFinalAuditViolates) {
  sim::InvariantAuditor auditor;
  auditor.add_source([] { return std::uint64_t{5}; });
  auditor.audit(100, /*final_drain=*/true);
  ASSERT_EQ(auditor.violations().size(), 1u);
  EXPECT_NE(auditor.violations()[0].find("drain"), std::string::npos);
}

TEST(InvariantAuditor, StuckClockViolates) {
  sim::InvariantAuditor auditor;
  auditor.audit(100);
  auditor.audit(100);  // no progress between audits
  ASSERT_EQ(auditor.violations().size(), 1u);
  EXPECT_NE(auditor.violations()[0].find("clock"), std::string::npos);
}

}  // namespace
}  // namespace srv6bpf
