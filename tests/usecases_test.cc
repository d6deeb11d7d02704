#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "ebpf/verifier.h"
#include "pruning_oracle.h"
#include "seg6/helpers.h"
#include "sim/network.h"
#include "usecases/delay_monitor.h"
#include "usecases/hybrid.h"
#include "usecases/oamp.h"
#include "usecases/programs.h"

namespace srv6bpf::usecases {
namespace {

// Ends a scenario with the network's drained audit: every packet a node
// originated was delivered or dropped with a reason.
void expect_drained(sim::Network& net) {
  net.audit(/*final_drain=*/true);
  EXPECT_EQ(net.violations(), std::vector<std::string>{});
}

// ---- all paper programs must pass the verifier --------------------------------

class ProgramCorpus : public ::testing::Test {
 protected:
  ProgramCorpus() {
    seg6::register_seg6_helpers(ns_.bpf().helpers());
    ebpf::MapDef def;
    def.type = ebpf::MapType::kArray;
    def.key_size = 4;
    def.value_size = sizeof(DmEncapConfig);
    def.max_entries = 1;
    def.name = "cfg";
    cfg_id_ = ns_.bpf().maps().create(def);
    def.value_size = sizeof(WrrConfig);
    wrr_id_ = ns_.bpf().maps().create(def);
    perf_id_ = ebpf::create_perf_event_array(ns_.bpf().maps(), "perf");
    cnt_id_ = ns_.bpf().maps().create(
        {ebpf::MapType::kPerCpuArray, 4, 8, 1, "cnt"});
  }

  // Loads the program, and checks that it gets the same verdict with state
  // pruning on and off (pruning_oracle.h).
  void expect_loads(const BuiltProgram& built, ebpf::ProgType type) {
    auto res = ns_.bpf().load(built.name, type, built.insns);
    EXPECT_TRUE(res.ok()) << built.name << ": " << res.verify.error;
    if (res.ok()) {
      EXPECT_GT(res.prog->program().size(), 0u);
    }
    const ebpf::PruningOracle o = ebpf::check_pruning(
        &ns_.bpf().maps(), &ns_.bpf().helpers(), built.insns, type);
    EXPECT_TRUE(o.compared) << built.name;
    EXPECT_TRUE(o.agree()) << built.name;
  }

  seg6::Netns ns_{"corpus"};
  std::uint32_t cfg_id_ = 0;
  std::uint32_t wrr_id_ = 0;
  std::uint32_t perf_id_ = 0;
  std::uint32_t cnt_id_ = 0;
};

TEST_F(ProgramCorpus, AllPaperProgramsVerify) {
  expect_loads(build_end(), ebpf::ProgType::kLwtSeg6Local);
  expect_loads(build_end_t(0), ebpf::ProgType::kLwtSeg6Local);
  expect_loads(build_tag_increment(), ebpf::ProgType::kLwtSeg6Local);
  expect_loads(build_add_tlv(), ebpf::ProgType::kLwtSeg6Local);
  expect_loads(build_dm_encap(cfg_id_), ebpf::ProgType::kLwtXmit);
  expect_loads(build_end_dm(perf_id_), ebpf::ProgType::kLwtSeg6Local);
  expect_loads(build_end_dm_twd(), ebpf::ProgType::kLwtSeg6Local);
  expect_loads(build_wrr(wrr_id_), ebpf::ProgType::kLwtXmit);
  expect_loads(build_end_oamp(perf_id_), ebpf::ProgType::kLwtSeg6Local);
  expect_loads(build_percpu_counter(cnt_id_), ebpf::ProgType::kLwtSeg6Local);
}

TEST_F(ProgramCorpus, Seg6ProgramsRejectedOnLwtHooks) {
  // Tag++ calls lwt_seg6_store_bytes, which is seg6local-only.
  auto built = build_tag_increment();
  auto res = ns_.bpf().load(built.name, ebpf::ProgType::kLwtXmit, built.insns);
  EXPECT_FALSE(res.ok());
}

TEST_F(ProgramCorpus, SlocHintsMatchPaper) {
  EXPECT_EQ(build_end().paper_sloc, 1u);
  EXPECT_EQ(build_end_t(0).paper_sloc, 4u);
  EXPECT_EQ(build_tag_increment().paper_sloc, 50u);
  EXPECT_EQ(build_add_tlv().paper_sloc, 60u);
  EXPECT_EQ(build_dm_encap(cfg_id_).paper_sloc, 130u);
  EXPECT_EQ(build_wrr(wrr_id_).paper_sloc, 120u);
  EXPECT_EQ(build_end_oamp(perf_id_).paper_sloc, 60u);
}

// ---- §4.1 delay monitoring ------------------------------------------------------

TEST(DelayMonitor, ProbeRatioIsRespected) {
  DelayMonitorLab::Options opts;
  opts.probe_ratio = 100;
  DelayMonitorLab lab(opts);
  lab.offer_traffic(10000, 500 * sim::kMilli);
  lab.run_for(900 * sim::kMilli);
  const double ratio = static_cast<double>(lab.probes_emitted()) /
                       static_cast<double>(lab.sink_packets());
  EXPECT_NEAR(ratio, 0.01, 0.002);
  expect_drained(lab.net());
}

TEST(DelayMonitor, OwdTracksLinkDelay) {
  DelayMonitorLab::Options opts;
  opts.probe_ratio = 10;
  opts.link_delay = 7 * sim::kMilli;
  DelayMonitorLab lab(opts);
  lab.offer_traffic(5000, 300 * sim::kMilli);
  lab.run_for(600 * sim::kMilli);
  ASSERT_GT(lab.samples().size(), 10u);
  double sum = 0;
  for (const auto& s : lab.samples()) sum += static_cast<double>(s.owd_ns());
  const double mean = sum / static_cast<double>(lab.samples().size());
  EXPECT_NEAR(mean, 7e6, 0.5e6);
  expect_drained(lab.net());
}

TEST(DelayMonitor, InnerPacketsSurviveProbeEncapsulation) {
  DelayMonitorLab::Options opts;
  opts.probe_ratio = 2;  // every second packet probed
  DelayMonitorLab lab(opts);
  lab.offer_traffic(1000, 200 * sim::kMilli);
  lab.run_for(500 * sim::kMilli);
  // Every offered packet (probe or not) must reach the sink.
  EXPECT_NEAR(static_cast<double>(lab.sink_packets()), 200.0, 5.0);
  expect_drained(lab.net());
}

// ---- §4.2 WRR + TWD ---------------------------------------------------------------

// Sets both directions of `link` to a fixed one-way delay (no jitter) when
// `one_way` is given, else only drops the jitter, before traffic starts.
void set_netem(sim::Link& link, std::optional<sim::TimeNs> one_way) {
  for (int side = 0; side < 2; ++side) {
    sim::NetemConfig cfg = link.qdisc(side).config();
    if (one_way) cfg.delay_ns = *one_way;
    cfg.jitter_ns = 0;
    link.qdisc(side).set_config(cfg);
  }
}

TEST(Hybrid, WrrSplitsPacketsByConfiguredWeights) {
  HybridLab::Options opts;
  opts.twd_compensation = false;
  HybridLab lab(opts);
  // Equal RTTs (10 ms) so reordering doesn't interfere with this check.
  set_netem(*lab.link1(), 5 * sim::kMilli);
  set_netem(*lab.link2(), 5 * sim::kMilli);
  lab.run_tcp(1, 2 * sim::kSecond);
  expect_drained(lab.net());
  // Inspect the links' TX counters: 5:3 split of downstream data.
  // (Counted on the A-side egress of each WAN link.)
  // Note: ACK-only segments flow upstream; we check the downstream direction.
  // Retransmissions also count, which is fine for a ratio check.
  const double l1 =
      static_cast<double>(lab.link1()->stats(0).tx_packets);
  const double l2 =
      static_cast<double>(lab.link2()->stats(0).tx_packets);
  ASSERT_GT(l1 + l2, 100.0);
  EXPECT_NEAR(l1 / (l1 + l2), 5.0 / 8.0, 0.05);
}

TEST(Hybrid, TwdDaemonMeasuresDelayDifference) {
  HybridLab::Options opts;
  opts.twd_compensation = true;
  HybridLab lab(opts);
  // No jitter; the daemon already read the links' base delays, which stay.
  set_netem(*lab.link1(), std::nullopt);
  set_netem(*lab.link2(), std::nullopt);
  lab.net().run_for(3 * sim::kSecond);
  EXPECT_GT(lab.twd_probes_returned(), 2u);
  // One-way difference is (30-5)/2 = 12.5 ms; after the first compensation
  // round the measured diff should be near zero, so check probes returned
  // and that compensation moved the fast link's delay.
  const auto l2_delay = lab.link2()->qdisc(0).config().delay_ns;
  EXPECT_GT(l2_delay, 10 * sim::kMilli)
      << "fast link must have been slowed to match the slow one";
  lab.stop_twd_daemon();
  lab.net().run_for(sim::kSecond);
  expect_drained(lab.net());
}

// Figure 4's lab end to end, each mode at one payload size for a short
// window. The goodputs are exact: the generator, the LWT path and the maps
// must not move them. Plain forwarding > kernel decap > eBPF WRR on the
// interpreter, as in the paper.
TEST(Fig4, GoodputPerModeIsPinned) {
  const struct {
    Fig4Lab::Mode mode;
    double mbps;
  } cases[] = {
      {Fig4Lab::Mode::kPlainForward, 874.56},
      {Fig4Lab::Mode::kKernelDecap, 799.92},
      {Fig4Lab::Mode::kEbpfWrr, 376.32},
  };
  for (const auto& c : cases) {
    Fig4Lab lab({.mode = c.mode});
    EXPECT_DOUBLE_EQ(lab.run_udp(600, 20 * sim::kMilli), c.mbps)
        << "mode " << static_cast<int>(c.mode);
    lab.net().run_for(sim::kSecond);
    expect_drained(lab.net());
  }
}

TEST(Fig4, ZeroPayloadHasNoRateAndIsRejected) {
  Fig4Lab lab({});
  EXPECT_THROW(lab.run_udp(0, sim::kMilli), std::invalid_argument);
}

// ---- §4.3 OAMP -----------------------------------------------------------------------

TEST(Oamp, SidDerivation) {
  const auto addr = net::Ipv6Addr::must_parse("fb00:12a::2");
  EXPECT_EQ(oamp_sid_for(addr),
            net::Ipv6Addr::must_parse("fb00:12a::fafa"));
}

TEST(Oamp, FallbackToIcmpWhenOampDisabled) {
  OampLab lab;
  // Break OAMP on R2a/R2b's hop.
  lab.disable_oamp(net::Ipv6Addr::must_parse("fb00:12a::2"));
  lab.disable_oamp(net::Ipv6Addr::must_parse("fb00:12b::2"));

  apps::AppMux mux(lab.prober());
  Traceroute::Options opts;
  opts.target = lab.target();
  opts.prober_addr = lab.prober_addr();
  opts.max_ttl = 6;
  Traceroute tr(lab.prober(), mux, opts);
  const auto hops = tr.run(lab.net());

  bool found_hop2_without_oamp = false;
  for (const auto& h : hops) {
    if (h.ttl == 2) {
      EXPECT_FALSE(h.oamp_answered);
      EXPECT_FALSE(h.addr.is_unspecified())
          << "ICMP fallback must still identify the hop";
      found_hop2_without_oamp = true;
    }
    if (h.ttl == 1) {
      EXPECT_TRUE(h.oamp_answered);
    }
  }
  EXPECT_TRUE(found_hop2_without_oamp);
  expect_drained(lab.net());
}

}  // namespace
}  // namespace srv6bpf::usecases
