// The multi-core Node subsystem: RSS-sharded CPU contexts, per-CPU eBPF map
// semantics through the live datapath, the deterministic perf-event merge,
// and — the anchor of this file — the ncpus=1 differential: with one context
// the system must be bit-identical to the historical single-core path. The
// goldens below (delivery counts, payload bytes, an FNV-1a hash over every
// sink delivery's (arrival time, packet seq), service-event counts and
// cumulative pipeline traces) were captured at burst 1 from the
// pre-multi-core tree (commit 0592f2d) running the fig2 and hybrid-WRR
// scenarios of tests/golden_scenarios.h, and every burst size must
// reproduce the digest.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "apps/sink.h"
#include "apps/trafgen.h"
#include "ebpf/asm.h"
#include "ebpf/map.h"
#include "ebpf/perf_event.h"
#include "expect_drained.h"
#include "golden_scenarios.h"
#include "net/packet.h"
#include "sim/network.h"
#include "usecases/programs.h"
#include "usecases/setup1.h"

namespace srv6bpf {
namespace {

// ---- ncpus=1 differential vs the pre-multi-core tree ------------------------

TEST(Ncpus1Differential, Fig2BitIdenticalToPreMultiCoreTree) {
  // Goldens from the single-core tree (see file header).
  for (const std::size_t burst : {1, 4, 16, 32, 64}) {
    SCOPED_TRACE("burst " + std::to_string(burst));
    const golden::Outcome o = golden::run_fig2({.burst = burst, .ncpus = 1});
    EXPECT_EQ(o.dig.delivered, 100u);
    EXPECT_EQ(o.dig.bytes, 6400u);
    EXPECT_EQ(o.dig.fnv, golden::kFig2Fnv);
    EXPECT_EQ(o.router.tx_packets, 100u);
    EXPECT_EQ(o.router.pipeline.bpf_runs, 100u);
    EXPECT_EQ(o.router.pipeline.bpf_insns_jit, 2500u);
    EXPECT_EQ(o.router.pipeline.helper_calls, 100u);
    if (burst == 1) {
      EXPECT_EQ(o.router.service_events, 100u);
    } else if (burst == 32) {
      EXPECT_EQ(o.router.service_events, 5u);
    }
  }
}

// The default Cpu config must *be* the single-core path — nobody should have
// to opt in to the paper's semantics.
TEST(Ncpus1Differential, DefaultNcpusIsOne) {
  sim::Network net;
  auto& n = net.add_node("n");
  EXPECT_EQ(n.cpu.ncpus, 1u);
}

TEST(Ncpus1Differential, HybridWrrBitIdenticalToPreMultiCoreTree) {
  for (const std::size_t burst : {1, 4, 16, 32, 64}) {
    SCOPED_TRACE("burst " + std::to_string(burst));
    const golden::Outcome o = golden::run_hybrid({.burst = burst, .ncpus = 1});
    EXPECT_EQ(o.dig.delivered, 96u);
    EXPECT_EQ(o.dig.bytes, 38400u);
    EXPECT_EQ(o.dig.fnv, golden::kHybridFnv);
    EXPECT_EQ(o.router.pipeline.bpf_runs, 96u);
    EXPECT_EQ(o.router.pipeline.bpf_insns_interp, 3972u);
    EXPECT_EQ(o.router.pipeline.helper_calls, 192u);
    EXPECT_EQ(o.router.pipeline.encaps, 96u);
    if (burst == 32) {
      EXPECT_EQ(o.router.service_events, 6u);
    }
  }
}

// ---- RSS steering -----------------------------------------------------------

// Multi-flow traffic through a 4-context router: every flow must stay on one
// context (so packets of one flow can never pass each other), the sink must
// see strictly increasing per-flow sequence numbers, and the load must have
// actually spread over more than one context — otherwise the test proves
// nothing about cross-context behaviour.
TEST(RssSteering, SameFlowNeverReordersAcrossContexts) {
  usecases::Setup1 lab(0x515);
  sim::Node& r = *lab.r;
  r.cpu.ncpus = 4;

  apps::AppMux mux(*lab.s2);
  // flow label -> packet seqs in arrival order at the sink.
  std::map<std::uint32_t, std::vector<std::uint32_t>> arrivals;
  mux.on_udp(7001, [&arrivals](const net::Packet& pkt, const net::UdpHeader&,
                               std::span<const std::uint8_t>, sim::TimeNs) {
    ASSERT_GE(pkt.size(), net::kIpv6HeaderSize);
    const std::uint8_t* p = pkt.data();
    const std::uint32_t fl = (static_cast<std::uint32_t>(p[1] & 0x0f) << 16) |
                             (static_cast<std::uint32_t>(p[2]) << 8) | p[3];
    arrivals[fl].push_back(pkt.seq);
  });

  apps::TrafGen::Config cfg;
  cfg.spec.src = lab.s1_addr;
  cfg.spec.dst = lab.s2_addr;
  cfg.spec.dst_port = 7001;
  cfg.spec.payload_size = 64;
  cfg.pps = 2e6;  // well past one Xeon core: queues build, contexts diverge
  cfg.flow_label_spread = 16;
  cfg.start_at = 0;
  cfg.duration = 2 * sim::kMilli;
  apps::TrafGen gen(*lab.s1, cfg);
  gen.start();
  lab.net.run_for(sim::kSecond);

  ASSERT_EQ(r.context_count(), 4u);
  std::size_t active_contexts = 0;
  std::uint64_t serviced = 0;
  for (std::size_t k = 0; k < 4; ++k) {
    serviced += r.cpu_stats(k).serviced_packets;
    if (r.cpu_stats(k).serviced_packets > 0) ++active_contexts;
  }
  EXPECT_GE(active_contexts, 2u) << "RSS must have spread the flows";
  EXPECT_EQ(serviced, r.stats().serviced_packets);

  ASSERT_GT(arrivals.size(), 1u);
  std::uint64_t total = 0;
  for (const auto& [fl, seqs] : arrivals) {
    SCOPED_TRACE("flow label " + std::to_string(fl));
    for (std::size_t i = 1; i < seqs.size(); ++i)
      EXPECT_LT(seqs[i - 1], seqs[i]) << "same-flow reordering at index " << i;
    total += seqs.size();
  }
  EXPECT_GT(total, 100u);

  // The contexts were sized at R's first packet: a later ncpus change has
  // no effect, and the next packet still goes through R's four contexts.
  const std::uint64_t rx_before = r.stats().rx_packets;
  r.cpu.ncpus = 1;
  lab.s1->send(net::make_udp_packet(cfg.spec));
  lab.net.run_for(sim::kMilli);
  EXPECT_EQ(r.context_count(), 4u);
  EXPECT_EQ(r.stats().rx_packets, rx_before + 1);
  expect_drained(lab.net);
}

// Saturating fig2 at 1, 2 and 4 contexts, with plain forwarding and with
// the End.BPF program on the SID: the multi-core node must actually forward
// more — this is the subsystem's raison d'être, asserted in simulated time
// where it is deterministic.
TEST(RssSteering, FourContextsForwardMoreThanOne) {
  auto run = [](bool end_bpf, std::size_t ncpus) {
    usecases::Setup1 lab(0xabc);
    lab.r->cpu.ncpus = ncpus;
    if (end_bpf) lab.add_end_bpf(usecases::build_end());
    apps::AppMux mux(*lab.s2);
    apps::UdpSink sink(mux, 7001);
    apps::TrafGen::Config cfg;
    cfg.spec.src = lab.s1_addr;
    cfg.spec.dst = lab.s2_addr;
    if (end_bpf) cfg.spec.segments = {lab.sid, lab.s2_addr};
    cfg.spec.dst_port = 7001;
    cfg.spec.payload_size = 64;
    cfg.pps = 3e6;
    cfg.burst = 8;
    cfg.flow_label_spread = 64;
    cfg.duration = 20 * sim::kMilli;
    apps::TrafGen gen(*lab.s1, cfg);
    gen.start();
    lab.net.run_for(sim::kSecond);
    expect_drained(lab.net);
    return static_cast<double>(sink.packets());
  };
  for (const bool end_bpf : {false, true}) {
    SCOPED_TRACE(end_bpf ? "End.BPF" : "plain");
    const double one = run(end_bpf, 1);
    const double two = run(end_bpf, 2);
    const double four = run(end_bpf, 4);
    EXPECT_GT(four, one * 3) << "4 contexts must scale >3x on saturated fig2";
    EXPECT_GE(two, one * 1.4);
    EXPECT_GE(four, one * 1.5);
  }
}

// ---- per-CPU maps through the live datapath ---------------------------------

// End.BPF per-CPU counter on a 4-context router: each context's map slot
// must count exactly that context's program runs (no cross-context bleed),
// and the user-space summed read must equal the total.
TEST(PerCpuMaps, PerContextValuesAndSummedReads) {
  usecases::Setup1 lab(0x9c9);
  sim::Node& r = *lab.r;
  r.cpu.ncpus = 4;

  auto& bpf = r.ns().bpf();
  ebpf::MapDef def;
  def.type = ebpf::MapType::kPerCpuArray;
  def.key_size = 4;
  def.value_size = 8;
  def.max_entries = 1;
  def.name = "pkt_cnt";
  const std::uint32_t cnt_id = bpf.maps().create(def);
  auto built = usecases::build_percpu_counter(cnt_id);
  auto load = bpf.load(built.name, ebpf::ProgType::kLwtSeg6Local, built.insns);
  ASSERT_TRUE(load.ok()) << load.verify.error;
  lab.add_end_bpf(load.prog);

  apps::AppMux mux(*lab.s2);
  apps::UdpSink sink(mux, 7001);
  apps::TrafGen::Config cfg;
  cfg.spec.src = lab.s1_addr;
  cfg.spec.dst = lab.s2_addr;
  cfg.spec.segments = {lab.sid, lab.s2_addr};
  cfg.spec.dst_port = 7001;
  cfg.spec.payload_size = 64;
  cfg.pps = 400e3;  // under the 4-context capacity: nothing drops
  cfg.flow_label_spread = 32;
  cfg.duration = 5 * sim::kMilli;
  apps::TrafGen gen(*lab.s1, cfg);
  gen.start();
  lab.net.run_for(sim::kSecond);

  ebpf::Map* cnt = bpf.maps().get(cnt_id);
  ASSERT_NE(cnt, nullptr);
  EXPECT_TRUE(cnt->per_cpu());

  const std::uint32_t key0 = 0;
  std::uint64_t summed = 0;
  std::size_t nonzero_cpus = 0;
  for (std::uint32_t c = 0; c < ebpf::kMaxCpus; ++c) {
    const std::uint8_t* v = cnt->find_cpu(key0, c);
    ASSERT_NE(v, nullptr);
    std::uint64_t x;
    std::memcpy(&x, v, 8);
    summed += x;
    if (x > 0) ++nonzero_cpus;
    // Slot c counts exactly context c's program executions.
    const std::uint64_t runs =
        c < r.context_count() ? r.cpu_stats(c).pipeline.bpf_runs : 0;
    EXPECT_EQ(x, runs) << "cpu " << c;
  }
  EXPECT_GE(nonzero_cpus, 2u) << "traffic must have spread across contexts";
  EXPECT_EQ(summed, r.stats().pipeline.bpf_runs);
  EXPECT_EQ(summed, cnt->sum_u64(key0));
  EXPECT_GT(summed, 100u);
  expect_drained(lab.net);
}

// ---- perf-event rings under multi-core --------------------------------------

// The documented merge order of the per-CPU rings: a drain pass returns
// context id first, then each ring's own (push) order, regardless of how
// contexts interleaved their pushes.
TEST(PerfEvents, MergeOrderIsContextIdThenRingOrder) {
  ebpf::PerfEventBuffer buf(16);
  // Interleaved across cpus; per-cpu times are monotonic in the simulator
  // (the single-threaded event loop guarantees it) but cross-cpu interleave
  // is arbitrary.
  EXPECT_TRUE(buf.push(30, {}, 2));
  EXPECT_TRUE(buf.push(10, {}, 1));
  EXPECT_TRUE(buf.push(35, {}, 2));
  EXPECT_TRUE(buf.push(40, {}, 0));
  ASSERT_EQ(buf.pending(), 4u);

  std::vector<std::pair<std::uint32_t, std::uint64_t>> order;
  while (auto rec = buf.poll()) order.emplace_back(rec->cpu, rec->time_ns);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], (std::pair<std::uint32_t, std::uint64_t>{0, 40}));
  EXPECT_EQ(order[1], (std::pair<std::uint32_t, std::uint64_t>{1, 10}));
  EXPECT_EQ(order[2], (std::pair<std::uint32_t, std::uint64_t>{2, 30}));
  EXPECT_EQ(order[3], (std::pair<std::uint32_t, std::uint64_t>{2, 35}));
}

// Ring capacity is per CPU, and drops are counted where they happen.
TEST(PerfEvents, PerCpuRingCapacity) {
  ebpf::PerfEventBuffer buf(2);
  EXPECT_TRUE(buf.push(1, {}, 0));
  EXPECT_TRUE(buf.push(2, {}, 0));
  EXPECT_FALSE(buf.push(3, {}, 0));  // cpu 0 ring full
  EXPECT_TRUE(buf.push(4, {}, 1));   // cpu 1 ring unaffected
  EXPECT_EQ(buf.dropped(), 1u);
  EXPECT_EQ(buf.produced(), 3u);
}

// Records produced from inside the datapath must carry the servicing
// context's id: run a perf-emitting End.BPF program on a 4-context router
// and check every record's cpu against the contexts that actually ran.
TEST(PerfEvents, DatapathRecordsCarryServicingContext) {
  usecases::Setup1 lab(0xfe1);
  sim::Node& r = *lab.r;
  r.cpu.ncpus = 4;

  auto& bpf = r.ns().bpf();
  const std::uint32_t perf_id =
      ebpf::create_perf_event_array(bpf.maps(), "ev", 65536);
  // get_smp_processor_id -> 4-byte record through perf_event_output.
  ebpf::Asm a;
  using namespace ebpf;
  a.mov64_reg(R6, R1)
      .call(helper::GET_SMP_PROCESSOR_ID)
      .stx(BPF_W, R10, R0, -4)
      .mov64_reg(R1, R6)
      .ld_map(R2, perf_id)
      .mov64_imm(R3, 0)
      .mov64_reg(R4, R10)
      .add64_imm(R4, -4)
      .mov64_imm(R5, 4)
      .call(helper::PERF_EVENT_OUTPUT)
      .mov32_imm(R0, static_cast<std::int32_t>(BPF_OK))
      .exit_();
  auto load = bpf.load("cpu_tag", ebpf::ProgType::kLwtSeg6Local, a.build());
  ASSERT_TRUE(load.ok()) << load.verify.error;
  lab.add_end_bpf(load.prog);

  apps::AppMux mux(*lab.s2);
  apps::UdpSink sink(mux, 7001);
  apps::TrafGen::Config cfg;
  cfg.spec.src = lab.s1_addr;
  cfg.spec.dst = lab.s2_addr;
  cfg.spec.segments = {lab.sid, lab.s2_addr};
  cfg.spec.dst_port = 7001;
  cfg.spec.payload_size = 64;
  cfg.pps = 400e3;
  cfg.flow_label_spread = 32;
  cfg.duration = 5 * sim::kMilli;
  apps::TrafGen gen(*lab.s1, cfg);
  gen.start();
  lab.net.run_for(sim::kSecond);

  auto* pmap = dynamic_cast<ebpf::PerfEventArrayMap*>(bpf.maps().get(perf_id));
  ASSERT_NE(pmap, nullptr);
  ASSERT_GT(pmap->buffer().pending(), 100u);

  std::vector<std::uint64_t> per_cpu_records(4, 0);
  std::uint32_t last_cpu = 0;
  while (auto rec = pmap->buffer().poll()) {
    ASSERT_LT(rec->cpu, 4u);
    EXPECT_GE(rec->cpu, last_cpu) << "drain must be grouped by context id";
    last_cpu = rec->cpu;
    // The record body is the program's own get_smp_processor_id value: it
    // must match the ring the record landed in.
    ASSERT_EQ(rec->data.size(), 4u);
    std::uint32_t body;
    std::memcpy(&body, rec->data.data(), 4);
    EXPECT_EQ(body, rec->cpu);
    ++per_cpu_records[rec->cpu];
  }
  std::size_t active = 0;
  for (std::size_t k = 0; k < 4; ++k) {
    // One record per program run on that context, no cross-context bleed.
    EXPECT_EQ(per_cpu_records[k], r.cpu_stats(k).pipeline.bpf_runs);
    if (per_cpu_records[k] > 0) ++active;
  }
  EXPECT_GE(active, 2u);
  expect_drained(lab.net);
}

}  // namespace
}  // namespace srv6bpf
