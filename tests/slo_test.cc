// Tests for the latency-SLO observability layer: HdrHistogram bucketing and
// merge algebra, LatencyTracer classification, drop-reason timestamps,
// RateMeter inter-arrival reporting, netem loss/jitter determinism, and the
// failure/churn machinery (link down/up, route withdraw, SRv6 fast-reroute,
// reconvergence clock).
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "apps/sink.h"
#include "apps/trafgen.h"
#include "golden_scenarios.h"
#include "net/packet.h"
#include "seg6/fib.h"
#include "sim/latency_tracer.h"
#include "sim/netem.h"
#include "sim/network.h"
#include "sim/node.h"
#include "sim/stats.h"
#include "util/hdr_histogram.h"
#include "util/rng.h"

namespace srv6bpf {
namespace {

net::Ipv6Addr A(const char* s) { return net::Ipv6Addr::must_parse(s); }
net::Prefix P(const char* s) { return net::Prefix::parse(s).value(); }

// ---- HdrHistogram ----------------------------------------------------------

TEST(HdrHistogram, ExactBelowSubBucketRange) {
  util::HdrHistogram h;
  // Values below 2^kSubBits land in their own slot: quantiles are exact.
  for (std::uint64_t v = 0; v < util::HdrHistogram::kSubCount; ++v)
    h.record(v);
  EXPECT_EQ(h.count(), util::HdrHistogram::kSubCount);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), util::HdrHistogram::kSubCount - 1);
  EXPECT_EQ(h.quantile(0.5), util::HdrHistogram::kSubCount / 2 - 1);
  EXPECT_EQ(h.quantile(1.0), util::HdrHistogram::kSubCount - 1);
}

TEST(HdrHistogram, KnownDistributionQuantiles) {
  util::HdrHistogram h;
  // 99 observations of 10, one of 50: p50 = 10, p99 = 10, p100 = 50.
  h.record_n(10, 99);
  h.record(50);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.p50(), 10u);
  EXPECT_EQ(h.p99(), 10u);
  EXPECT_EQ(h.quantile(1.0), 50u);
  EXPECT_DOUBLE_EQ(h.mean(), (99 * 10 + 50) / 100.0);
}

TEST(HdrHistogram, RelativeErrorBounded) {
  // Every value's bucket upper bound is within 1/2^(kSubBits-1) of it.
  Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t v = rng.next_u64() >> (i % 40);
    const std::size_t slot = util::HdrHistogram::slot_index(v);
    const std::uint64_t ub = util::HdrHistogram::slot_upper_bound(slot);
    ASSERT_GE(ub, v);
    // Bucket width relative to value: <= 2^-(kSubBits-1).
    ASSERT_LE(static_cast<double>(ub - v),
              static_cast<double>(v) /
                      (util::HdrHistogram::kSubCount / 2) +
                  1.0)
        << "v=" << v;
  }
}

TEST(HdrHistogram, SlotRoundTripsAtBoundaries) {
  for (unsigned shift = 0; shift < 63; ++shift) {
    const std::uint64_t v = 1ull << shift;
    for (std::uint64_t d : {std::uint64_t{0}, std::uint64_t{1}}) {
      const std::uint64_t x = v + d;
      const std::size_t slot = util::HdrHistogram::slot_index(x);
      EXPECT_GE(util::HdrHistogram::slot_upper_bound(slot), x);
      if (slot > 0) {
        EXPECT_LT(util::HdrHistogram::slot_upper_bound(slot - 1), x);
      }
    }
  }
  EXPECT_LT(util::HdrHistogram::slot_index(~0ull),
            util::HdrHistogram::kSlots);
}

TEST(HdrHistogram, MergeIsAssociativeAndCommutative) {
  Rng rng(42);
  util::HdrHistogram a, b, c;
  for (int i = 0; i < 5000; ++i) a.record(rng.next_u64() % 1000000);
  for (int i = 0; i < 3000; ++i) b.record(rng.next_u64() % 50);
  for (int i = 0; i < 100; ++i)
    c.record((rng.next_u64() % 100) * 1000000000ull);

  // (a+b)+c vs a+(b+c) vs c+b+a: identical quantiles everywhere.
  util::HdrHistogram ab_c = a;
  ab_c += b;
  ab_c += c;
  util::HdrHistogram bc = b;
  bc += c;
  util::HdrHistogram a_bc = a;
  a_bc += bc;
  util::HdrHistogram cba = c;
  cba += b;
  cba += a;

  for (double q : {0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(ab_c.quantile(q), a_bc.quantile(q)) << q;
    EXPECT_EQ(ab_c.quantile(q), cba.quantile(q)) << q;
  }
  EXPECT_EQ(ab_c.count(), a.count() + b.count() + c.count());
  EXPECT_EQ(ab_c.min(), cba.min());
  EXPECT_EQ(ab_c.max(), cba.max());
  EXPECT_DOUBLE_EQ(ab_c.mean(), cba.mean());
}

TEST(HdrHistogram, MergeMatchesSingleStreamRecording) {
  // Sharded recording + merge == recording everything into one histogram.
  Rng rng(99);
  util::HdrHistogram whole;
  std::array<util::HdrHistogram, 4> shards;
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t v = rng.next_u64() % 10000000;
    whole.record(v);
    shards[static_cast<std::size_t>(i) % 4].record(v);
  }
  util::HdrHistogram merged;
  for (const auto& s : shards) merged += s;
  for (double q : {0.25, 0.5, 0.75, 0.99, 0.999})
    EXPECT_EQ(whole.quantile(q), merged.quantile(q));
  EXPECT_EQ(whole.max(), merged.max());
}

TEST(HdrHistogram, EmptyAndReset) {
  util::HdrHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.99), 0u);
  EXPECT_EQ(h.min(), 0u);
  h.record(123);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

// ---- RateMeter inter-arrival gaps -------------------------------------------

TEST(RateMeter, ReportsInterArrivalGaps) {
  sim::RateMeter m;
  // Arrivals at 0, 1000, 1100, 4100: gaps 1000, 100, 3000.
  m.record(64, 0);
  m.record(64, 1000);
  m.record(64, 1100);
  m.record(64, 4100);
  const auto r = m.report(10000);
  EXPECT_EQ(r.packets, 4u);
  EXPECT_EQ(r.min_gap_ns, 100u);
  EXPECT_EQ(r.max_gap_ns, 3000u);
  EXPECT_NEAR(r.mean_gap_ns, (1000.0 + 100.0 + 3000.0) / 3, 1e-9);
  EXPECT_NEAR(r.kpps, 400.0, 1e-9);
}

TEST(RateMeter, NoGapsUntilTwoTimestampedArrivals) {
  sim::RateMeter m;
  m.record(64);        // untimestamped: no gap tracking
  m.record(64, 5000);  // first timestamped
  auto r = m.report(1000);
  EXPECT_EQ(r.min_gap_ns, 0u);
  EXPECT_EQ(r.max_gap_ns, 0u);
  EXPECT_EQ(r.mean_gap_ns, 0.0);
  m.reset();
  EXPECT_EQ(m.packets(), 0u);
  const auto r2 = m.report(1000);
  EXPECT_EQ(r2.max_gap_ns, 0u);
}

// ---- NodeStats drop reasons -------------------------------------------------

TEST(NodeStats, NoteDropCountsAndFirstTimestamps) {
  sim::NodeStats s;
  EXPECT_EQ(s.first_drop_at(sim::DropReason::kLinkDown),
            sim::NodeStats::kNeverDropped);
  s.note_drop(sim::DropReason::kLinkDown, 500);
  s.note_drop(sim::DropReason::kLinkDown, 300);
  s.note_drop(sim::DropReason::kLinkDown, 900);
  s.note_drop(sim::DropReason::kNoRoute, 50);
  EXPECT_EQ(s.drops_link_down, 3u);
  EXPECT_EQ(s.drops_no_route, 1u);
  EXPECT_EQ(s.first_drop_at(sim::DropReason::kLinkDown), 300u);
  EXPECT_EQ(s.first_drop_at(sim::DropReason::kNoRoute), 50u);
  EXPECT_EQ(s.total_drops(), 4u);

  // Every reason has its own counter and first-drop slot: reason i is
  // noted i + 1 times, first at t = 1000 + i, on a fresh NodeStats.
  sim::NodeStats all;
  const std::uint64_t sim::NodeStats::*const counters[] = {
      &sim::NodeStats::drops_rx_queue,  &sim::NodeStats::drops_no_route,
      &sim::NodeStats::drops_ttl,       &sim::NodeStats::drops_verdict,
      &sim::NodeStats::drops_malformed, &sim::NodeStats::drops_link_down,
      &sim::NodeStats::drops_no_buffer, &sim::NodeStats::drops_node_down,
  };
  ASSERT_EQ(std::size(counters), sim::kDropReasonCount);
  std::uint64_t expect_total = 0;
  for (std::size_t i = 0; i < sim::kDropReasonCount; ++i) {
    const auto reason = static_cast<sim::DropReason>(i);
    EXPECT_EQ(all.first_drop_at(reason), sim::NodeStats::kNeverDropped)
        << "reason " << i;
    for (std::size_t k = 0; k <= i; ++k) all.note_drop(reason, 1000 + i + k);
    expect_total += i + 1;
  }
  for (std::size_t i = 0; i < sim::kDropReasonCount; ++i) {
    EXPECT_EQ(all.*counters[i], i + 1) << "reason " << i;
    EXPECT_EQ(all.first_drop_at(static_cast<sim::DropReason>(i)), 1000 + i)
        << "reason " << i;
  }
  EXPECT_EQ(all.total_drops(), expect_total);
  sim::NodeStats twice = all;
  twice += all;
  EXPECT_EQ(twice.total_drops(), 2 * expect_total);
  EXPECT_EQ(twice.first_drop_ns, all.first_drop_ns);
}

TEST(NodeStats, ShardMergeFoldsFirstDropAsMin) {
  sim::NodeStats a, b;
  a.note_drop(sim::DropReason::kTtl, 700);
  b.note_drop(sim::DropReason::kTtl, 200);
  b.note_drop(sim::DropReason::kRxQueue, 900);
  // A distinct value in every pipeline counter of every shard: the merge
  // must sum each field into itself, none lost and none crossed.
  a.pipeline = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  b.pipeline = {100, 200, 300, 400, 500, 600, 700, 800, 900};
  const sim::PipelineTotals sum = {101, 202, 303, 404, 505,
                                   606, 707, 808, 909};
  sim::NodeStats ab = a;
  ab += b;
  sim::NodeStats ba = b;
  ba += a;
  EXPECT_EQ(ab.first_drop_at(sim::DropReason::kTtl), 200u);
  EXPECT_EQ(ba.first_drop_at(sim::DropReason::kTtl), 200u);
  EXPECT_EQ(ab.first_drop_at(sim::DropReason::kRxQueue), 900u);
  EXPECT_EQ(ab.drops_ttl, 2u);
  EXPECT_EQ(ab.pipeline, sum);
  EXPECT_EQ(ba.pipeline, sum);
  // Reasons that never fired stay at the identity through merges.
  EXPECT_EQ(ab.first_drop_at(sim::DropReason::kMalformed),
            sim::NodeStats::kNeverDropped);
}

// ---- LatencyTracer ----------------------------------------------------------

net::Packet make_labeled_packet(std::uint32_t flow_label) {
  net::PacketSpec spec;
  spec.src = A("fc00:1::1");
  spec.dst = A("fc00:2::2");
  spec.flow_label = flow_label;
  return net::make_udp_packet(spec);
}

TEST(LatencyTracer, ClassifiesByFlowLabelAndComputesDelay) {
  sim::LatencyTracer t;
  t.classify_by_flow_label(4);
  ASSERT_EQ(t.class_count(), 4u);
  for (std::uint32_t label = 0; label < 8; ++label) {
    net::Packet p = make_labeled_packet(label);
    p.tx_tstamp_ns = 1000;
    t.record(p, 1000 + 100 * (label + 1));
  }
  EXPECT_EQ(t.overall().count(), 8u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(t.class_hist(i).count(), 2u) << i;
    // Labels i and i+4 land in class i with delays 100(i+1), 100(i+5).
    EXPECT_EQ(t.class_hist(i).min(), 100 * (i + 1));
    EXPECT_EQ(t.class_hist(i).max(), 100 * (i + 5));
  }
  EXPECT_EQ(t.unmatched(), 0u);
  EXPECT_EQ(t.untimed(), 0u);
}

TEST(LatencyTracer, ExplicitMatcherWinsOverFlowLabel) {
  sim::LatencyTracer t;
  const std::size_t vip = t.add_class(
      "vip", [](const net::Packet& p) { return p.mark == 7; });
  t.classify_by_flow_label(2);
  ASSERT_EQ(t.class_count(), 3u);
  EXPECT_EQ(t.class_name(vip), "vip");

  net::Packet marked = make_labeled_packet(0);
  marked.mark = 7;
  marked.tx_tstamp_ns = 10;
  t.record(marked, 30);
  net::Packet plain = make_labeled_packet(1);
  plain.tx_tstamp_ns = 10;
  t.record(plain, 50);

  EXPECT_EQ(t.class_hist(vip).count(), 1u);
  EXPECT_EQ(t.class_hist(vip).max(), 20u);
  // label 1 % 2 -> spread class 1 (index vip classes are ahead of spreads).
  EXPECT_EQ(t.class_hist(2).count(), 1u);
  EXPECT_EQ(t.class_hist(2).max(), 40u);
}

TEST(LatencyTracer, UntimedAndResetSamples) {
  sim::LatencyTracer t;
  t.classify_by_flow_label(2);
  net::Packet p = make_labeled_packet(0);  // tx_tstamp_ns == 0
  t.record(p, 500);
  EXPECT_EQ(t.untimed(), 1u);
  EXPECT_EQ(t.overall().count(), 0u);
  p.tx_tstamp_ns = 100;
  t.record(p, 400);
  EXPECT_EQ(t.overall().count(), 1u);
  t.reset_samples();
  EXPECT_EQ(t.overall().count(), 0u);
  EXPECT_EQ(t.untimed(), 0u);
  EXPECT_EQ(t.class_count(), 2u);  // class declarations survive the reset
}

// ---- ReconvergenceClock -----------------------------------------------------

TEST(ReconvergenceClock, MeasuresDarkWindowNotFirstDelivery) {
  sim::ReconvergenceClock c;
  c.arm(1000);
  // Steady deliveries before the failure, in-flight drain just after it,
  // then a 5000 ns dark window until the repaired path delivers.
  for (sim::TimeNs t : {100u, 200u, 900u, 1010u, 1020u}) c.note_delivery(t);
  EXPECT_TRUE(c.recovered());
  c.note_delivery(6020);
  c.note_delivery(6030);
  EXPECT_EQ(c.blackhole_ns(), 5000u);
  EXPECT_EQ(c.recovery_at(), 6020u);
}

TEST(ReconvergenceClock, GapClampedToFailureInstant) {
  sim::ReconvergenceClock c;
  c.arm(1000);
  c.note_delivery(500);   // long before the failure
  c.note_delivery(3000);  // first delivery ever after it
  // The dark window starts at the failure, not at the last pre-failure
  // delivery: 3000 - 1000, not 3000 - 500.
  EXPECT_EQ(c.blackhole_ns(), 2000u);
}

// ---- netem determinism ------------------------------------------------------

std::vector<sim::TimeNs> netem_delivery_times(std::uint64_t seed, double loss,
                                              sim::TimeNs jitter,
                                              sim::TimeNs tau, int n) {
  Rng rng(seed);
  sim::NetemConfig cfg;
  cfg.delay_ns = 50 * sim::kMicro;
  cfg.jitter_ns = jitter;
  cfg.jitter_tau_ns = tau;
  cfg.loss_prob = loss;
  cfg.keep_order = false;  // expose the raw jitter sequence
  sim::NetemQdisc q(cfg);
  std::vector<sim::TimeNs> out;
  for (int i = 0; i < n; ++i) {
    const auto d = q.enqueue(static_cast<sim::TimeNs>(i) * 1000, rng);
    out.push_back(d.dropped ? 0 : d.deliver_at);
  }
  return out;
}

TEST(Netem, CorrelatedJitterIsSeedDeterministic) {
  const auto a = netem_delivery_times(123, 0.0, 10000, 100000, 500);
  const auto b = netem_delivery_times(123, 0.0, 10000, 100000, 500);
  EXPECT_EQ(a, b);  // same seed -> bit-identical delay sequence
  const auto c = netem_delivery_times(124, 0.0, 10000, 100000, 500);
  EXPECT_NE(a, c);  // different seed -> different sequence
}

TEST(Netem, LossStageIsSeedDeterministicAndCounted) {
  const auto a = netem_delivery_times(55, 0.2, 10000, 0, 1000);
  const auto b = netem_delivery_times(55, 0.2, 10000, 0, 1000);
  EXPECT_EQ(a, b);
  int losses = 0;
  for (sim::TimeNs t : a) losses += t == 0 ? 1 : 0;
  EXPECT_GT(losses, 100);  // ~200 expected
  EXPECT_LT(losses, 300);
}

TEST(Netem, ZeroLossKeepsHistoricalJitterSequence) {
  // loss_prob = 0 must not consume RNG draws: the jitter sequence is
  // bit-identical to a qdisc that predates the loss knob.
  const auto with_knob = netem_delivery_times(77, 0.0, 5000, 0, 200);
  Rng rng(77);
  sim::NetemConfig cfg;
  cfg.delay_ns = 50 * sim::kMicro;
  cfg.jitter_ns = 5000;
  cfg.keep_order = false;
  sim::NetemQdisc q(cfg);
  for (int i = 0; i < 200; ++i) {
    const auto d = q.enqueue(static_cast<sim::TimeNs>(i) * 1000, rng);
    EXPECT_EQ(with_knob[static_cast<std::size_t>(i)], d.deliver_at) << i;
  }
}

// ---- failure / churn machinery ---------------------------------------------

// S1 - R - S2 line with a parallel R - S2 backup link; R's route to S2
// optionally carries an FRR backup pinned to the second adjacency. Each test
// ends with a final-drain audit over the three nodes and the three links.
struct FrrLab {
  sim::Network net{0xfee1};
  sim::Node* s1;
  sim::Node* r;
  sim::Node* s2;
  sim::Link* access;  // S1 - R
  sim::Link* primary;
  sim::Link* backup;
  std::uint64_t sends = 0;  // send_one calls
  int r_primary_if = -1;
  int r_backup_if = -1;
  std::unique_ptr<apps::AppMux> mux;
  std::unique_ptr<apps::UdpSink> sink;

  explicit FrrLab(bool with_frr) {
    s1 = &net.add_node("S1");
    r = &net.add_node("R");
    s2 = &net.add_node("S2");
    const std::uint64_t bw = 10ull * 1000 * 1000 * 1000;
    auto l0 = net.connect(*s1, A("fc00:1::1"), *r, A("fc00:1::2"), bw,
                          sim::kMicro);
    auto l1 = net.connect(*r, A("fc00:2::1"), *s2, A("fc00:2::2"), bw,
                          sim::kMicro);
    auto l2 = net.connect(*r, A("fc00:3::1"), *s2, A("fc00:3::2"), bw,
                          sim::kMicro);
    access = l0.link;
    primary = l1.link;
    backup = l2.link;
    r_primary_if = l1.a_ifindex;
    r_backup_if = l2.a_ifindex;
    s1->ns().table(0).add_route(P("::/0"), {A("fc00:1::2"), l0.a_ifindex, 1});
    seg6::Route route;
    route.prefix = P("fc00:2::/64");
    route.nexthops = {{net::Ipv6Addr{}, r_primary_if, 1}};
    if (with_frr)
      route.frr = std::make_shared<seg6::FrrBackup>(
          seg6::FrrBackup{{}, {net::Ipv6Addr{}, r_backup_if, 1}});
    r->ns().table(0).add_route(std::move(route));
    mux = std::make_unique<apps::AppMux>(*s2);
    sink = std::make_unique<apps::UdpSink>(*mux, 7001);
  }

  void send_one() {
    net::PacketSpec spec;
    spec.src = A("fc00:1::1");
    spec.dst = A("fc00:2::2");
    spec.dst_port = 7001;
    s1->send(net::make_udp_packet(spec));
    ++sends;
  }
};

TEST(Failover, LinkDownDropsAreCountedWithTimestamp) {
  FrrLab lab(/*with_frr=*/false);
  lab.send_one();
  lab.net.run_for(sim::kMilli);
  EXPECT_EQ(lab.sink->packets(), 1u);

  lab.net.schedule_link_down(*lab.primary, 2 * sim::kMilli);
  lab.net.run_for(2 * sim::kMilli);
  lab.send_one();
  lab.net.run_for(sim::kMilli);
  EXPECT_EQ(lab.sink->packets(), 1u);  // blackholed
  const sim::NodeStats rs = lab.r->stats();
  EXPECT_EQ(rs.drops_link_down, 1u);
  EXPECT_EQ(rs.frr_reroutes, 0u);
  EXPECT_NE(rs.first_drop_at(sim::DropReason::kLinkDown),
            sim::NodeStats::kNeverDropped);
  EXPECT_GE(rs.first_drop_at(sim::DropReason::kLinkDown),
            2 * sim::kMilli);

  // Link restoration heals the path without route churn.
  lab.net.schedule_link_up(*lab.primary, 4 * sim::kMilli);
  lab.net.run_for(2 * sim::kMilli);  // safely past the link-up instant
  lab.send_one();
  lab.net.run_for(sim::kMilli);
  EXPECT_EQ(lab.sink->packets(), 2u);
  golden::audit_drained("link down", lab.net.now(), lab.sends,
                        {lab.s1, lab.r, lab.s2},
                        {lab.access, lab.primary, lab.backup});
}

TEST(Failover, FrrBackupReroutesInsteadOfDropping) {
  FrrLab lab(/*with_frr=*/true);
  lab.net.schedule_link_down(*lab.primary, sim::kMilli);
  lab.net.run_for(sim::kMilli);
  lab.send_one();
  lab.net.run_for(sim::kMilli);
  // Delivered over the backup adjacency, zero drops.
  EXPECT_EQ(lab.sink->packets(), 1u);
  const sim::NodeStats rs = lab.r->stats();
  EXPECT_EQ(rs.drops_link_down, 0u);
  EXPECT_EQ(rs.frr_reroutes, 1u);
  EXPECT_EQ(lab.backup->stats(0).tx_packets, 1u);
  golden::audit_drained("frr", lab.net.now(), lab.sends,
                        {lab.s1, lab.r, lab.s2},
                        {lab.access, lab.primary, lab.backup});
}

TEST(Failover, RouteWithdrawAndScheduledReAdd) {
  FrrLab lab(/*with_frr=*/false);
  // Withdraw at 1 ms, re-add (IGP reconvergence) at 3 ms via the backup if.
  lab.net.schedule_route_withdraw(*lab.r, 0, P("fc00:2::/64"), sim::kMilli);
  seg6::Route repaired;
  repaired.prefix = P("fc00:2::/64");
  repaired.nexthops = {{net::Ipv6Addr{}, lab.r_backup_if, 1}};
  lab.net.schedule_route_add(*lab.r, 0, repaired, 3 * sim::kMilli);

  lab.net.run_for(2 * sim::kMilli);  // now at 2 ms: withdrawn
  lab.send_one();
  lab.net.run_for(sim::kMilli / 2);
  EXPECT_EQ(lab.sink->packets(), 0u);
  EXPECT_GE(lab.r->stats().drops_no_route, 1u);

  lab.net.run_for(sim::kMilli);  // past 3 ms: repaired
  lab.send_one();
  lab.net.run_for(sim::kMilli);
  EXPECT_EQ(lab.sink->packets(), 1u);
  EXPECT_EQ(lab.backup->stats(0).tx_packets, 1u);
  golden::audit_drained("withdraw", lab.net.now(), lab.sends,
                        {lab.s1, lab.r, lab.s2},
                        {lab.access, lab.primary, lab.backup});
}

TEST(Fib, RemoveRouteInvalidatesCacheAndReturnsFalseWhenAbsent) {
  seg6::Fib fib;
  fib.add_route(P("fc00:2::/64"), {A("fc00:2::1"), 1, 1});
  EXPECT_NE(fib.lookup(A("fc00:2::5")), nullptr);
  EXPECT_TRUE(fib.remove_route(P("fc00:2::/64")));
  EXPECT_EQ(fib.lookup(A("fc00:2::5")), nullptr);  // cached slot invalidated
  EXPECT_FALSE(fib.remove_route(P("fc00:2::/64")));
  EXPECT_FALSE(fib.remove_route(P("fc00:9::/64")));
  EXPECT_EQ(fib.route_count(), 0u);

  // Churn: re-adds replace in place and withdraws swap-remove, so the table
  // holds exactly the live routes and the survivors keep resolving to their
  // own nexthops after the last route is moved into a freed slot.
  fib.add_route(P("fc00:1::/64"), {A("fe80::1"), 1, 1});
  fib.add_route(P("fc00:2::/64"), {A("fe80::2"), 2, 1});
  fib.add_route(P("fc00:3::/64"), {A("fe80::3"), 3, 1});
  fib.add_route(P("fc00:2::/64"), {A("fe80::22"), 2, 1});  // re-add
  EXPECT_EQ(fib.route_count(), 3u);
  EXPECT_EQ(fib.lookup(A("fc00:2::5"))->nexthops.at(0).via, A("fe80::22"));
  EXPECT_TRUE(fib.remove_route(P("fc00:1::/64")));  // fc00:3:: moves to slot 0
  EXPECT_EQ(fib.route_count(), 2u);
  EXPECT_EQ(fib.lookup(A("fc00:1::5")), nullptr);
  EXPECT_EQ(fib.lookup(A("fc00:3::5"))->nexthops.at(0).via, A("fe80::3"));
  EXPECT_EQ(fib.lookup(A("fc00:2::5"))->nexthops.at(0).via, A("fe80::22"));
  for (int round = 0; round < 100; ++round) {
    fib.add_route(P("fc00:1::/64"), {A("fe80::1"), 1, 1});
    fib.add_route(P("fc00:1::/64"), {A("fe80::11"), 1, 1});
    EXPECT_TRUE(fib.remove_route(P("fc00:3::/64")));
    fib.add_route(P("fc00:3::/64"), {A("fe80::3"), 3, 1});
  }
  EXPECT_EQ(fib.route_count(), 3u);
  EXPECT_EQ(fib.routes().size(), 3u);
  EXPECT_EQ(fib.lookup(A("fc00:1::5"))->nexthops.at(0).via, A("fe80::11"));
  EXPECT_EQ(fib.lookup(A("fc00:2::5"))->nexthops.at(0).via, A("fe80::22"));
  EXPECT_EQ(fib.lookup(A("fc00:3::5"))->nexthops.at(0).via, A("fe80::3"));
  EXPECT_TRUE(fib.remove_route(P("fc00:3::/64")));  // the last slot: no move
  EXPECT_TRUE(fib.remove_route(P("fc00:1::/64")));
  EXPECT_EQ(fib.route_count(), 1u);
  EXPECT_EQ(fib.routes().at(0).prefix, P("fc00:2::/64"));
  EXPECT_EQ(fib.lookup(A("fc00:2::5"))->nexthops.at(0).via, A("fe80::22"));
}

// End-to-end: delivered latency recorded by a sink-attached tracer is
// burst-invariant and per-class counts follow the generator's label spread.
TEST(SloEndToEnd, TracerCountsMatchGeneratorSpread) {
  FrrLab lab(/*with_frr=*/false);
  sim::LatencyTracer tracer;
  tracer.classify_by_flow_label(3);
  lab.sink->set_tracer(&tracer);

  apps::TrafGen::Config cfg;
  cfg.spec.src = A("fc00:1::1");
  cfg.spec.dst = A("fc00:2::2");
  cfg.spec.dst_port = 7001;
  cfg.pps = 30000;
  cfg.flow_label_spread = 3;
  cfg.start_at = sim::kMilli;
  cfg.duration = 10 * sim::kMilli;
  apps::TrafGen gen(*lab.s1, cfg);
  gen.start();
  lab.net.run_for(20 * sim::kMilli);

  ASSERT_EQ(lab.sink->packets(), gen.sent());
  EXPECT_EQ(tracer.overall().count(), gen.sent());
  EXPECT_EQ(tracer.untimed(), 0u);
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(static_cast<double>(tracer.class_hist(i).count()),
                static_cast<double>(gen.sent()) / 3, 1.0);
    sum += tracer.class_hist(i).count();
  }
  EXPECT_EQ(sum, gen.sent());
  EXPECT_GT(tracer.overall().min(), 0u);  // real path delay, not zero
  golden::audit_drained("generator", lab.net.now(),
                        lab.sends + gen.attempted(), {lab.s1, lab.r, lab.s2},
                        {lab.access, lab.primary, lab.backup});
}

}  // namespace
}  // namespace srv6bpf
