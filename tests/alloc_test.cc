// The zero-allocation steady state: BufferPool recycling, InlineFn event
// closures, RxRing backlogs and template-stamped generation.
//
// This binary compiles bench/alloc_hooks_impl.cc, so the global operator
// new/delete are the counting replacements — the allocation-regression test
// measures the real thing, not a model. It runs the paper's fig2 lab with
// Tag++, with the plain End program (3 Mpps of 64-byte SRv6 through the
// SID) and with a 2048-route /48 FIB, and holds each warmed-up window to
// zero operator-new calls and a floor on the sink's simulated rate. The
// recycling-correctness test pins the other half of the contract: pooling
// is wall-clock-only, so a cold-pool run and a run on buffers recycled with
// its bytes produce bit-identical delivery digests, the same FNV-golden
// pattern tests/mc_test.cc uses for the multi-core differential.
#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <string>
#include <utility>
#include <vector>

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

#if defined(__SANITIZE_ADDRESS__)
#define ALLOC_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ALLOC_TEST_ASAN 1
#endif
#endif
#ifdef ALLOC_TEST_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace srv6bpf {
namespace {

// Drains the freelist after a test, so test order can't leak state.
struct PoolGuard {
  ~PoolGuard() { net::BufferPool::trim(); }
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

#ifdef ALLOC_TEST_ASAN
// Under AddressSanitizer a buffer parked on the freelist is poisoned: a
// read through a destroyed packet fails loudly instead of returning the
// stale byte, and the next acquire hands the buffer back readable.
TEST(BufferPool, ParkedBufferIsPoisonedUnderAsan) {
  PoolGuard guard;
  net::BufferPool::trim();
  const std::uint8_t payload[] = {1, 2, 3, 4};
  const std::uint8_t* stale;
  {
    net::Packet p{std::span<const std::uint8_t>(payload)};
    stale = p.data();
    EXPECT_FALSE(__asan_address_is_poisoned(stale));
  }
  EXPECT_TRUE(__asan_address_is_poisoned(stale));
  EXPECT_DEATH(
      {
        const volatile std::uint8_t* read = stale;
        (void)*read;
      },
      "use-after-poison");

  net::Packet q{std::span<const std::uint8_t>(payload)};
  ASSERT_EQ(q.data(), stale);  // the same buffer, off the freelist
  EXPECT_FALSE(__asan_address_is_poisoned(q.data()));
  EXPECT_EQ(q.data()[2], 3);
}
#endif

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
  std::uint64_t refused = 0;
  auto push_one = [&] {
    net::Packet p{std::span<const std::uint8_t>({0x60, 0, 0, 0})};
    p.seq = next_seq++;
    const bool accepted = ring.push(std::move(p), limit);
    if (accepted)
      model.push_back(next_seq - 1);
    else
      ++refused;
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
  EXPECT_EQ(refused, 12u);  // the bounded rounds' tail drops only
}

// ---- recycling correctness + the zero-allocation window ---------------------

// What R runs in the fig2 lab.
enum class Fig2Load {
  kTagIncrement,  // Tag++ End.BPF on the SID
  kEnd,           // the plain End program on the SID
  kFib48,         // no SID traffic: a 2048-route /48 FIB
};

// The paper's fig2 lab with a sink that digests every delivery: arrival
// time, generator seq and every packet byte all go in, so a single recycled
// buffer leaking stale state or a timing shift flips the digest.
struct DigestedFig2 : usecases::Setup1 {
  static constexpr std::size_t kFib48Sites = 2048;

  const Fig2Load load;
  apps::AppMux mux{*s2};
  golden::Digest dig;

  explicit DigestedFig2(Fig2Load l = Fig2Load::kTagIncrement) : load(l) {
    switch (load) {
      case Fig2Load::kTagIncrement:
        add_end_bpf(usecases::build_tag_increment());
        break;
      case Fig2Load::kEnd:
        add_end_bpf(usecases::build_end());
        break;
      case Fig2Load::kFib48:
        add_fib48(kFib48Sites);
        break;
    }
    mux.on_udp(7001, [this](const net::Packet& pkt, const net::UdpHeader&,
                            std::span<const std::uint8_t>, sim::TimeNs now) {
      ++dig.delivered;
      dig.mix(now);
      dig.mix(pkt.seq);
      dig.fnv = fnv1a_bytes(dig.fnv, pkt.bytes());
    });
  }

  // 64-byte UDP from S1 to port 7001 for 10 ms: through the SID to S2, or,
  // on the /48 FIB, to 2001:db8::2 with the site rotated per packet, so
  // that R's route cache never hits and the trie carries every lookup. The
  // Tag++ lab also spreads its flows over 7 source ports and 4 flow labels.
  apps::TrafGen::Config gen_config() const {
    apps::TrafGen::Config cfg;
    cfg.spec.src = s1_addr;
    if (load == Fig2Load::kFib48) {
      cfg.spec.dst = net::Ipv6Addr::must_parse("2001:db8::2");
      cfg.dst_spread = kFib48Sites;
    } else {
      cfg.spec.dst = s2_addr;
      cfg.spec.segments = {sid, s2_addr};
    }
    cfg.spec.dst_port = 7001;
    cfg.spec.payload_size = 64;
    cfg.pps = 800e3;  // past one Xeon core: queues build and drops happen
    if (load == Fig2Load::kTagIncrement) {
      cfg.src_port_spread = 7;
      cfg.flow_label_spread = 4;
    }
    cfg.duration = 10 * sim::kMilli;
    return cfg;
  }
};

struct PoolRun {
  golden::Digest dig;
  sim::NodeStats router;
};

PoolRun run_digested_fig2() {
  DigestedFig2 lab;
  apps::TrafGen gen(*lab.s1, lab.gen_config());
  gen.start();
  lab.net.run_for(sim::kSecond);
  lab.net.audit(/*final_drain=*/true);
  EXPECT_EQ(lab.net.violations(), std::vector<std::string>{});
  return {lab.dig, lab.r->stats()};
}

TEST(Recycling, ColdAndRecycledPoolRunsAreBitIdentical) {
  PoolGuard guard;
  net::BufferPool::trim();

  // First run on a cold pool: every buffer is fresh from the heap.
  const PoolRun cold = run_digested_fig2();
  ASSERT_GT(cold.dig.delivered, 1000u);
  EXPECT_GT(cold.router.drops_rx_queue, 0u) << "scenario must saturate R";

  // Second run: every buffer comes off the freelist populated with the
  // previous run's bytes — recycling must not leak any of them.
  EXPECT_GT(net::BufferPool::stats().pooled, 0u);
  const PoolRun recycled = run_digested_fig2();
  EXPECT_EQ(recycled.dig.fnv, cold.dig.fnv);
  EXPECT_EQ(recycled.dig.delivered, cold.dig.delivered);
  EXPECT_EQ(recycled.router, cold.router);
}

// One zero-allocation window: the lab's load at 3 Mpps offered (the
// paper's §3.2 saturation: R's RX ring overflows), a warm-up that fills the
// RX rings to their limit, the event queue's reserved storage and the
// pool, then a window that must make no operator-new call while the sink
// receives at least `min_sink_kpps` simulated kpps.
struct ZeroAllocCase {
  const char* name;
  Fig2Load load;
  sim::TimeNs warmup;
  sim::TimeNs window;
  double min_sink_kpps;
};

void PrintTo(const ZeroAllocCase& c, std::ostream* os) { *os << c.name; }

class ZeroAlloc : public ::testing::TestWithParam<ZeroAllocCase> {};

TEST_P(ZeroAlloc, WarmedWindowPerformsNoAllocations) {
  ASSERT_TRUE(util::alloc_hooks_active())
      << "alloc_test must be built with bench/alloc_hooks_impl.cc";
  PoolGuard guard;
  const ZeroAllocCase& c = GetParam();

  DigestedFig2 lab(c.load);
  apps::TrafGen::Config cfg = lab.gen_config();
  cfg.pps = 3e6;
  cfg.duration = c.warmup + c.window + 10 * sim::kMilli;
  apps::TrafGen gen(*lab.s1, cfg);
  gen.start();

  lab.net.run_for(c.warmup);
  const std::uint64_t delivered0 = lab.dig.delivered;
  const util::AllocCounters before = util::alloc_counters();
  lab.net.run_for(c.window);
  const util::AllocCounters after = util::alloc_counters();
  const std::uint64_t window_pkts = lab.dig.delivered - delivered0;
  const double sink_kpps =
      static_cast<double>(window_pkts) * 1e6 / static_cast<double>(c.window);

  EXPECT_GE(sink_kpps, c.min_sink_kpps)
      << window_pkts << " deliveries in the window";
  EXPECT_EQ(after.news - before.news, 0u)
      << "steady-state forwarding allocated on the heap ("
      << (after.news - before.news) << " operator-new calls over "
      << window_pkts << " delivered packets)";
  if (c.load == Fig2Load::kFib48) {
    EXPECT_EQ(lab.r->ns().table(0).cache_hits(), 0u)
        << "the stride trie must carry every lookup";
  }

  // After the counted window the source stops and the lab drains.
  gen.stop();
  lab.net.run_for(10 * sim::kMilli);
  lab.net.audit(/*final_drain=*/true);
  EXPECT_EQ(lab.net.violations(), std::vector<std::string>{});
}

// Tag++'s floor makes the window move real traffic (over 10,000
// deliveries in 30 ms). fig2 and fig2_fib48 hold the End program's rate
// and the /48 FIB's over a 200 ms window.
INSTANTIATE_TEST_SUITE_P(
    Fig2, ZeroAlloc,
    ::testing::Values(
        ZeroAllocCase{"tag_increment", Fig2Load::kTagIncrement,
                      20 * sim::kMilli, 30 * sim::kMilli, 334},
        ZeroAllocCase{"fig2", Fig2Load::kEnd, 30 * sim::kMilli,
                      200 * sim::kMilli, 500},
        ZeroAllocCase{"fig2_fib48", Fig2Load::kFib48, 30 * sim::kMilli,
                      200 * sim::kMilli, 550}),
    [](const ::testing::TestParamInfo<ZeroAllocCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace srv6bpf
