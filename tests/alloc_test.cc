// The zero-allocation steady state: BufferPool recycling, InlineFn event
// closures, RxRing backlogs and template-stamped generation.
//
// This binary compiles bench/alloc_hooks_impl.cc, so the global operator
// new/delete are the counting replacements — the allocation-regression test
// measures the real thing, not a model. The recycling-correctness tests pin
// the other half of the contract: pooling is wall-clock-only, so pooled,
// recycled-buffer and pool-disabled runs produce bit-identical delivery
// digests, the same FNV-golden pattern tests/mc_test.cc uses for the
// multi-core differential.
#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <utility>

#include "apps/sink.h"
#include "apps/trafgen.h"
#include "golden_scenarios.h"
#include "net/buffer_pool.h"
#include "net/packet.h"
#include "sim/inline_fn.h"
#include "sim/network.h"
#include "sim/ring.h"
#include "usecases/programs.h"
#include "usecases/setup1.h"
#include "util/alloc_hooks.h"
#include "util/hash.h"

namespace srv6bpf {
namespace {

// Restores pool enablement (and drains the freelists) around tests that
// toggle it, so test order can't leak state.
struct PoolGuard {
  ~PoolGuard() {
    net::BufferPool::set_enabled(true);
    net::BufferPool::trim();
  }
};

// ---- BufferPool -------------------------------------------------------------

TEST(BufferPool, RecyclesFixedSizeBuffers) {
  PoolGuard guard;
  net::BufferPool::trim();
  net::BufferPool::reset_stats();

  net::BufferPool::Buf* a = net::BufferPool::acquire(100);
  EXPECT_EQ(a->cap, net::kPoolBufCap);  // one size class
  net::BufferPool::release(a);
  EXPECT_EQ(net::BufferPool::stats().pooled, 1u);

  // Warm acquire must hand back the parked buffer, not the heap.
  net::BufferPool::Buf* b = net::BufferPool::acquire(net::kPoolBufCap);
  EXPECT_EQ(b, a);
  const auto s = net::BufferPool::stats();
  EXPECT_EQ(s.reuses, 1u);
  EXPECT_EQ(s.allocs, 1u);
  net::BufferPool::release(b);
}

TEST(BufferPool, OversizeBuffersAreExactAndNeverPooled) {
  PoolGuard guard;
  net::BufferPool::trim();
  net::BufferPool::reset_stats();

  net::BufferPool::Buf* big = net::BufferPool::acquire(net::kPoolBufCap + 1);
  EXPECT_EQ(big->cap, net::kPoolBufCap + 1);
  net::BufferPool::release(big);
  EXPECT_EQ(net::BufferPool::stats().pooled, 0u);  // freed, not parked
}

TEST(BufferPool, DisabledDegradesToPlainHeap) {
  PoolGuard guard;
  net::BufferPool::trim();
  net::BufferPool::set_enabled(false);
  net::BufferPool::reset_stats();

  net::BufferPool::Buf* a = net::BufferPool::acquire(64);
  net::BufferPool::release(a);
  net::BufferPool::Buf* b = net::BufferPool::acquire(64);
  net::BufferPool::release(b);
  const auto s = net::BufferPool::stats();
  EXPECT_EQ(s.allocs, 2u);  // no reuse while disabled
  EXPECT_EQ(s.reuses, 0u);
  EXPECT_EQ(s.pooled, 0u);
}

TEST(BufferPool, PacketDestructionReturnsTheBuffer) {
  PoolGuard guard;
  net::BufferPool::trim();
  const std::uint8_t payload[] = {1, 2, 3, 4};
  const std::uint8_t* raw;
  {
    net::Packet p{std::span<const std::uint8_t>(payload)};
    raw = p.data() - p.headroom();
  }
  // The next packet must be carved from the same recycled buffer.
  net::Packet q{std::span<const std::uint8_t>(payload)};
  EXPECT_EQ(q.data() - q.headroom(), raw);
  EXPECT_EQ(q.size(), 4u);
  EXPECT_EQ(q.data()[2], 3);
}

// ---- InlineFn ---------------------------------------------------------------

TEST(InlineFn, InvokesAndMoves) {
  int hits = 0;
  sim::InlineFn f([&hits] { ++hits; });
  ASSERT_TRUE(static_cast<bool>(f));
  f();
  EXPECT_EQ(hits, 1);

  sim::InlineFn g(std::move(f));
  EXPECT_FALSE(static_cast<bool>(f));  // NOLINT: post-move state is defined
  g();
  EXPECT_EQ(hits, 2);

  sim::InlineFn h;
  EXPECT_FALSE(static_cast<bool>(h));
  h = std::move(g);
  h();
  EXPECT_EQ(hits, 3);
}

TEST(InlineFn, DestroysCapturesExactlyOnce) {
  struct Probe {
    int* dtors;
    explicit Probe(int* d) : dtors(d) {}
    Probe(Probe&& o) noexcept : dtors(o.dtors) { o.dtors = nullptr; }
    ~Probe() {
      if (dtors != nullptr) ++*dtors;
    }
  };
  int dtors = 0;
  {
    sim::InlineFn f([p = Probe(&dtors)] { (void)p; });
    sim::InlineFn g(std::move(f));  // relocation must not double-count
    EXPECT_EQ(dtors, 0);
  }
  EXPECT_EQ(dtors, 1);
}

TEST(InlineFn, CarriesMoveOnlyCaptures) {
  // A pooled Packet by value — the deferred-local-delivery closure shape
  // that sized the capture budget; std::function could never hold it
  // without copying or the heap.
  net::Packet pkt{std::span<const std::uint8_t>({0xaa, 0xbb})};
  std::size_t seen = 0;
  sim::EventLoop loop;
  loop.schedule_at(5, [p = std::move(pkt), &seen]() mutable {
    seen = p.size();
  });
  loop.run();
  EXPECT_EQ(seen, 2u);
}

// ---- RxRing -----------------------------------------------------------------

TEST(RxRing, FifoAcrossWraparoundAndLimit) {
  sim::RxRing ring;
  const std::size_t limit = 8;
  std::deque<std::uint32_t> model;  // seqs the ring must pop, in order
  std::uint32_t next_seq = 0;
  auto push_one = [&] {
    net::Packet p{std::span<const std::uint8_t>({0x60, 0, 0, 0})};
    p.seq = next_seq++;
    const bool accepted = ring.push(std::move(p), limit);
    if (accepted) model.push_back(next_seq - 1);
    return accepted;
  };
  // Interleaved fill/drain wraps the head around the slot array repeatedly
  // and exercises the at-limit tail drop every round.
  for (int round = 0; round < 12; ++round) {
    while (ring.size() < limit) ASSERT_TRUE(push_one());
    EXPECT_FALSE(push_one()) << "ring must tail-drop at the limit";
    for (int k = 0; k < 5; ++k) {
      ASSERT_FALSE(ring.empty());
      EXPECT_EQ(ring.pop().seq, model.front());
      model.pop_front();
    }
  }
  while (!ring.empty()) {
    EXPECT_EQ(ring.pop().seq, model.front());
    model.pop_front();
  }
  EXPECT_TRUE(model.empty());

  // Without a limit (a link's wire FIFO) a full ring doubles, also while
  // its entries wrap around the slot array, and keeps their order.
  for (int round = 1; round <= 6; ++round) {
    for (int k = 0; k < 7 * round; ++k) {
      net::Packet p;
      p.seq = next_seq;
      ring.push(std::move(p));
      model.push_back(next_seq++);
    }
    for (int k = 0; k < 5 * round; ++k) {
      EXPECT_EQ(ring.pop().seq, model.front());
      model.pop_front();
    }
  }
  EXPECT_EQ(ring.size(), model.size());
  while (!ring.empty()) {
    EXPECT_EQ(ring.pop().seq, model.front());
    model.pop_front();
  }
  EXPECT_TRUE(model.empty());
  EXPECT_EQ(ring.overflows(), 12u);  // the bounded rounds' tail drops only
}

// ---- recycling correctness + the zero-allocation window ---------------------

// The paper's fig2 lab with Tag++ End.BPF on R and a sink that digests
// every delivery: arrival time, generator seq and every packet byte all go
// in, so a single recycled buffer leaking stale state or a timing shift
// flips the digest.
struct DigestedFig2 : usecases::Setup1 {
  apps::AppMux mux{*s2};
  golden::Digest dig;

  DigestedFig2() {
    add_end_bpf(usecases::build_tag_increment());
    mux.on_udp(7001, [this](const net::Packet& pkt, const net::UdpHeader&,
                            std::span<const std::uint8_t>, sim::TimeNs now) {
      ++dig.delivered;
      dig.mix(now);
      dig.mix(pkt.seq);
      dig.fnv = fnv1a_bytes(dig.fnv, pkt.bytes());
    });
  }

  apps::TrafGen::Config gen_config() const {
    apps::TrafGen::Config cfg;
    cfg.spec.src = s1_addr;
    cfg.spec.dst = s2_addr;
    cfg.spec.segments = {sid, s2_addr};
    cfg.spec.dst_port = 7001;
    cfg.spec.payload_size = 64;
    cfg.pps = 800e3;  // past one Xeon core: queues build and drops happen
    cfg.src_port_spread = 7;
    cfg.flow_label_spread = 4;
    cfg.duration = 10 * sim::kMilli;
    return cfg;
  }
};

struct PoolRun {
  golden::Digest dig;
  sim::NodeStats router;
};

PoolRun run_digested_fig2(bool pooled) {
  net::BufferPool::set_enabled(pooled);
  DigestedFig2 lab;
  apps::TrafGen gen(*lab.s1, lab.gen_config());
  gen.start();
  lab.net.run_for(sim::kSecond);
  return {lab.dig, lab.r->stats()};
}

TEST(Recycling, PooledRecycledAndDisabledRunsAreBitIdentical) {
  PoolGuard guard;
  net::BufferPool::trim();

  const PoolRun pooled = run_digested_fig2(/*pooled=*/true);
  ASSERT_GT(pooled.dig.delivered, 1000u);
  EXPECT_GT(pooled.router.drops_rx_queue, 0u) << "scenario must saturate R";

  // Second pooled run: every buffer comes off the freelist populated with
  // the previous run's bytes — recycling must not leak any of them.
  EXPECT_GT(net::BufferPool::stats().pooled, 0u);
  const PoolRun recycled = run_digested_fig2(/*pooled=*/true);
  EXPECT_EQ(recycled.dig.fnv, pooled.dig.fnv);
  EXPECT_EQ(recycled.dig.delivered, pooled.dig.delivered);

  // Pool disabled: acquire/release degrade to new/delete; the simulation
  // must not notice.
  const PoolRun heap = run_digested_fig2(/*pooled=*/false);
  EXPECT_EQ(heap.dig.fnv, pooled.dig.fnv);
  EXPECT_EQ(heap.dig.delivered, pooled.dig.delivered);
  EXPECT_EQ(heap.router.service_events, pooled.router.service_events);
  EXPECT_EQ(heap.router.tx_packets, pooled.router.tx_packets);
  EXPECT_TRUE(heap.router.pipeline == pooled.router.pipeline);
}

TEST(ZeroAlloc, WarmedFig2WindowPerformsNoAllocations) {
  ASSERT_TRUE(util::alloc_hooks_active())
      << "alloc_test must be built with bench/alloc_hooks_impl.cc";
  PoolGuard guard;
  net::BufferPool::set_enabled(true);

  DigestedFig2 lab;
  apps::TrafGen::Config cfg = lab.gen_config();
  cfg.pps = 3e6;  // the paper's offered load: saturation + rx-queue drops
  cfg.duration = 60 * sim::kMilli;
  apps::TrafGen gen(*lab.s1, cfg);
  gen.start();

  // Warm-up fills the RX rings to their limit, the event queue's reserved
  // storage and the pools.
  lab.net.run_for(20 * sim::kMilli);
  const std::uint64_t delivered0 = lab.dig.delivered;
  const util::AllocCounters before = util::alloc_counters();
  lab.net.run_for(30 * sim::kMilli);
  const util::AllocCounters after = util::alloc_counters();
  const std::uint64_t window_pkts = lab.dig.delivered - delivered0;

  EXPECT_GT(window_pkts, 10000u) << "window must have moved real traffic";
  EXPECT_EQ(after.news - before.news, 0u)
      << "steady-state forwarding allocated on the heap ("
      << (after.news - before.news) << " operator-new calls over "
      << window_pkts << " delivered packets)";
}

}  // namespace
}  // namespace srv6bpf
