// Chaos soak — fault injection under load, with determinism, conservation
// and goodput as the gates.
//
// Runs the generated ring topology (sim/pdes_topo.h: 8 segments x 5 Xeon
// routers + src + sink = 56 nodes) under saturating per-segment UDP load
// while a seeded sim::FaultInjector schedule fires: per-packet bit
// corruption on the ingress and cross links, cross-link flaps, and mid-chain
// router crashes with the control-plane re-installer (backoff + jitter)
// bringing the config back. Each (fault_rate, threads) cell reruns the SAME
// (seed, schedule) pair, so the gates are:
//
//   - digest_match (hard): for every fault rate, the PDES runs at 1 and 8
//     worker threads produce the identical delivery digest — chaos is
//     reproducible, bit for bit.
//   - violations == 0 (hard): the sim::InvariantAuditor's conservation
//     ledger balances at every audit point and drains to exactly zero
//     in-flight packets — no packet is created or lost outside the
//     accounted drop reasons, crashes and corruption included.
//   - goodput floor (hard): at the 1% fault rate the delivered fraction
//     stays above kGoodputFloor — faults degrade the service, they must
//     not collapse it.
//
// A final serial scenario caps the BufferPool (sim::FaultInjector::
// cap_buffer_pool) under an over-driven link and gates that exhaustion
// degrades gracefully: admission failures surface as accounted
// drops_no_buffer at the source, the run never aborts, and the ledger still
// drains to zero.
//
// Flags and exit status: bench/report.h.
#include <algorithm>
#include <chrono>

#include "bench_common.h"
#include "net/buffer_pool.h"
#include "sim/fault_injector.h"
#include "sim/invariant_auditor.h"
#include "sim/pdes_topo.h"

using namespace srv6bpf;
using namespace srv6bpf::bench;

namespace {

constexpr double kGoodputFloor = 0.5;  // at the 1% fault rate
constexpr std::uint64_t kTopoSeed = 0xc4a05;
constexpr std::uint64_t kFaultSeed = 0xfa017;

// The numbers the gates read from one (fault_rate, threads) cell.
struct Cell {
  double fault_rate = 0;
  std::size_t threads = 0;
  Digest digest;
  std::size_t violations = 0;
  double goodput = 0;
};

// Every distinct link in the topology, discovered through the nodes'
// interfaces (RingTopo records only the cross links).
std::vector<sim::Link*> collect_links(const sim::RingTopo& topo) {
  std::vector<sim::Link*> links;
  auto add_node_links = [&links](sim::Node* n) {
    for (std::size_t i = 0; i < n->interface_count(); ++i) {
      sim::Link* l = n->interface_link(static_cast<int>(i));
      if (l != nullptr &&
          std::find(links.begin(), links.end(), l) == links.end())
        links.push_back(l);
    }
  };
  for (const auto& seg : topo.segments) {
    add_node_links(seg.src);
    for (sim::Node* r : seg.routers) add_node_links(r);
    add_node_links(seg.sink);
  }
  return links;
}

// The declarative fault schedule for one run, scaled to the window. Pure
// function of (rate, window): every cell with the same rate compiles the
// identical schedule, which is what the cross-thread digest gate bites on.
void build_schedule(sim::FaultInjector& inj, const sim::RingTopo& topo,
                    double rate, sim::TimeNs window) {
  if (rate <= 0.0) return;
  for (std::size_t s = 0; s < topo.segments.size(); ++s) {
    const auto& seg = topo.segments[s];
    // Bit corruption: the segment's first hop (malformed headers hit the
    // router datapath) and its cross link (damage lands at the sink).
    inj.corrupt(*seg.src->interface_link(0), 0, rate, 0, window);
    inj.corrupt(*seg.cross_link, 0, rate, 0, window);
    // Cross-link flap on every even segment: a 5%-of-window carrier cut.
    if (s % 2 == 0)
      inj.flap(*seg.cross_link, window * 3 / 10, window * 35 / 100);
  }
  // Two mid-chain router crashes (only at the full 1% chaos level): power
  // fail at 40% of the window, power on at 50%, first install attempt
  // fails, the jittered retry wins.
  if (rate >= 0.01) {
    sim::ReinstallPolicy policy;
    policy.base_backoff = window / 20;
    policy.max_backoff = window / 4;
    policy.jitter_frac = 0.2;
    policy.max_attempts = 6;
    for (const std::size_t s : {1u, 5u}) {
      const auto& routers = topo.segments[s].routers;
      sim::CrashSpec spec;
      spec.crash_at = window * 2 / 5;
      spec.restart_at = window / 2;
      spec.install_failures = 1;
      spec.policy = policy;
      inj.crash(*routers[routers.size() / 2], spec);
    }
  }
}

Cell run_one(double rate, std::size_t threads, sim::TimeNs window,
             Obj& row) {
  sim::RingTopoSpec spec;  // 8 segments x (5 routers + src + sink)
  sim::Network net(kTopoSeed);
  sim::RingTopo topo = build_ring_topology(net, spec);
  net.set_domain_count(spec.segments);
  net.seal_domains();

  sim::FaultInjector inj(net, kFaultSeed);
  build_schedule(inj, topo, rate, window);
  inj.install();
  const RingLoad load(topo, window);

  sim::InvariantAuditor auditor;
  for (const auto& g : load.gens)
    auditor.add_source([&gen = *g] { return gen.attempted(); });
  for (const auto& seg : topo.segments) {
    auditor.add_node(*seg.src);
    for (sim::Node* r : seg.routers) auditor.add_node(*r);
    auditor.add_node(*seg.sink);
  }
  const std::vector<sim::Link*> links = collect_links(topo);
  for (sim::Link* l : links) auditor.add_link(*l);

  // Audit at quiescent points between run windows (no worker threads are
  // mutating stats after run_parallel_until returns), then after a drain
  // tail long enough for the re-installer's last event and every in-flight
  // packet to land.
  const auto t0 = std::chrono::steady_clock::now();
  for (int chunk = 1; chunk <= 4; ++chunk) {
    net.run_parallel_until(window * chunk / 4, threads);
    auditor.audit(net.now());
  }
  net.run_parallel_until(window + window / 2 + 10 * sim::kMilli, threads);
  auditor.audit(net.now(), /*final_drain=*/true);
  const auto t1 = std::chrono::steady_clock::now();

  Cell cell{rate, threads, load.total(), auditor.violations().size(), 0};
  std::uint64_t attempted = 0;
  std::uint64_t dropped = 0;    // node + link-side drops, all reasons
  std::uint64_t corrupted = 0;  // bit-flips injected on the wire
  for (const auto& g : load.gens) attempted += g->attempted();
  for (const auto& seg : topo.segments) {
    dropped += seg.src->stats().total_drops();
    for (sim::Node* r : seg.routers) dropped += r->stats().total_drops();
    dropped += seg.sink->stats().total_drops();
  }
  for (sim::Link* l : links)
    for (int side = 0; side < 2; ++side) {
      dropped += l->stats(side).drops + l->stats(side).drops_link_down;
      corrupted += l->stats(side).corrupted;
    }
  cell.goodput = attempted > 0 ? static_cast<double>(cell.digest.delivered) /
                                     static_cast<double>(attempted)
                               : 0;
  for (const std::string& v : auditor.violations())
    std::fprintf(stderr, "VIOLATION (rate %.4f, %zu threads): %s\n", rate,
                 threads, v.c_str());
  row.num("fault_rate", rate, 4)
      .num("threads", threads)
      .num("attempted", attempted)
      .num("delivered", cell.digest.delivered)
      .num("dropped", dropped)
      .num("corrupted", corrupted)
      .str("digest", hex64(cell.digest.fnv))
      .num("violations", cell.violations)
      .num("mailbox_spins", net.pdes_net().mailbox_overflow_spins())
      .num("goodput", cell.goodput, 4)
      .num("wall_s", std::chrono::duration<double>(t1 - t0).count(), 4);
  return cell;
}

struct Exhaustion {
  bool ok = false;  // degraded into accounted drops, still delivering
  std::size_t violations = 0;
};

// Serial (master-thread) exhaustion: a 10 Mbps bottleneck holds thousands
// of buffers on the wire while the generator offers 50 kpps; a 64-buffer
// cap must turn the overload into accounted source-side drops — never an
// abort, never an alloc storm — and the ledger must still drain to zero.
// Records the "exhaustion" object into `ex`.
Exhaustion run_exhaustion(sim::TimeNs window, Obj& ex) {
  sim::Network net(0xeba7);
  sim::Node& src = net.add_node("xsrc");
  sim::Node& dst = net.add_node("xdst");
  const auto src_addr = net::Ipv6Addr::must_parse("fd77:1::1");
  const auto dst_addr = net::Ipv6Addr::must_parse("fd77:1::2");
  auto att = net.connect(src, src_addr, dst, dst_addr,
                         10ull * 1000 * 1000, 10 * sim::kMicro);
  src.ns().table(0).add_route(net::Prefix::parse("fd77:1::/64").value(),
                              {net::Ipv6Addr{}, att.a_ifindex, 1});

  apps::AppMux mux(dst);
  std::uint64_t delivered = 0;
  mux.on_udp(7001, [&delivered](const net::Packet&, const net::UdpHeader&,
                                std::span<const std::uint8_t>, sim::TimeNs) {
    ++delivered;
  });

  const net::BufferPool::Stats before = net::BufferPool::stats();
  sim::FaultInjector inj(net, kFaultSeed);
  inj.cap_buffer_pool(64);
  inj.install();

  apps::TrafGen::Config cfg;
  cfg.spec.src = src_addr;
  cfg.spec.dst = dst_addr;
  cfg.spec.payload_size = 64;
  cfg.spec.dst_port = 7001;
  cfg.pps = 50000;
  cfg.duration = window;
  apps::TrafGen gen(src, cfg);
  gen.start();

  sim::InvariantAuditor auditor;
  auditor.add_source([&gen] { return gen.attempted(); });
  auditor.add_node(src);
  auditor.add_node(dst);
  auditor.add_link(*att.link);

  net.run_until(window / 2);
  auditor.audit(net.now());
  // Drain tail: the 10 Mbps wire needs seconds to clear a deep backlog.
  net.run_until(window + 5 * sim::kSecond);
  auditor.audit(net.now(), /*final_drain=*/true);

  const std::uint64_t drops_no_buffer = gen.drops_no_buffer();
  // Admission failures the pool itself counted (its own view of the drops).
  const std::uint64_t admission_fail =
      net::BufferPool::stats().admission_fail - before.admission_fail;
  for (const std::string& v : auditor.violations())
    std::fprintf(stderr, "VIOLATION (exhaustion): %s\n", v.c_str());
  ex.num("attempted", gen.attempted())
      .num("delivered", delivered)
      .num("drops_no_buffer", drops_no_buffer)
      .num("admission_fail", admission_fail)
      .num("violations", auditor.violations().size());

  // Restore the unbounded default so nothing downstream inherits the cap.
  net::BufferPool::set_max_buffers(0);
  return {drops_no_buffer > 0 && admission_fail >= drops_no_buffer &&
              delivered > 0,
          auditor.violations().size()};
}

}  // namespace

int main(int argc, char** argv) {
  const Mode mode = parse_mode(argc, argv);
  const sim::TimeNs window = (mode.quick ? 20 : 250) * sim::kMilli;
  Report rep("BENCH_chaos.json", mode, "Chaos soak: fault injection under load",
             "determinism, conservation and goodput survive corruption, "
             "flaps, crashes and exhaustion");
  rep.str("bench", "chaos_soak")
      .str("scenario", RingLoad::scenario() +
                           "; corruption + flaps + crashes swept over fault "
                           "rate")
      .num("window_ms", static_cast<double>(window) / 1e6, 1);

  // Exhaustion runs FIRST: its gate reads the master thread's per-thread
  // BufferPool accounting, which is only exact while this thread's acquires
  // and releases pair up. The 8-thread digest runs below migrate buffers
  // across threads (acquired on PDES workers, released by Network teardown
  // here), skewing the counter for good. Its object is recorded after the
  // rows, where the JSON has always had it.
  Obj exhaustion_obj;
  const Exhaustion exhaustion = run_exhaustion(
      mode.quick ? 20 * sim::kMilli : 100 * sim::kMilli, exhaustion_obj);

  std::vector<Cell> cells;
  for (const double rate : {0.0, 0.001, 0.01})
    for (const std::size_t threads : {1u, 8u})
      cells.push_back(run_one(rate, threads, window, rep.row("rows")));
  rep.obj("exhaustion") = exhaustion_obj;

  // Digest gate: within each fault rate, every thread count must reproduce
  // the same delivery digest (same (seed, schedule) -> same simulation).
  bool digest_match = true;
  for (const Cell& c : cells)
    for (const Cell& o : cells)
      if (c.fault_rate == o.fault_rate)
        digest_match = digest_match && c.digest.fnv == o.digest.fnv &&
                       c.digest.delivered == o.digest.delivered;

  std::size_t violations_total = exhaustion.violations;
  double goodput_at_1pct = 0;
  for (const Cell& c : cells) {
    violations_total += c.violations;
    if (c.fault_rate >= 0.01 && c.threads == 1) goodput_at_1pct = c.goodput;
  }

  rep.num("digest_match", digest_match ? 1 : 0)
      .num("violations_total", violations_total)
      .num("goodput_at_1pct", goodput_at_1pct, 4)
      .num("gate_goodput", kGoodputFloor, 2);
  rep.gate(digest_match, "delivery digests differ across thread counts");
  rep.gate(violations_total == 0, "%zu invariant violations",
           violations_total);
  rep.gate(goodput_at_1pct >= kGoodputFloor,
           "goodput at the 1%% fault rate %.4f below %.2f", goodput_at_1pct,
           kGoodputFloor);
  rep.gate(exhaustion.ok, "pool exhaustion not accounted as drops_no_buffer");
  return rep.finish();
}
