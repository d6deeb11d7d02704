#include "layers.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>

#include "apps/socket_filter.h"
#include "net/burst.h"
#include "seg6/ctx.h"
#include "seg6/lwt.h"
#include "seg6/seg6local.h"
#include "sim/event_loop.h"

using namespace srv6bpf;

namespace srv6bench {

namespace {

constexpr std::size_t kSamples = 200;
constexpr std::size_t kBurst = 32;
constexpr std::size_t kBurstsPerSample = 4;
constexpr std::size_t kPktsPerSample = kBurst * kBurstsPerSample;
// Simulated time that delivers everything a replay sample put on a wire
// (the longest link in any workload is 2 ms).
constexpr TimeNs kDrainStep = 5 * sim::kMilli;

// Written once per replay so the timed results cannot be optimised away.
volatile std::uint64_t g_sink = 0;

// Times `body` (which makes `calls` calls) once per sample after `prep`
// readies its inputs untimed. The first tenth of the samples warm caches
// and pools and are discarded.
template <typename Prep, typename Body>
Timing time_calls(SpanRecorder& spans, std::string name, std::string call,
                  bool micros, std::size_t samples, std::size_t calls,
                  Prep&& prep, Body&& body) {
  Timing t{name, micros ? "us" : "ns", std::move(call), {}, 0};
  SpanRecorder::Scope span(&spans, std::move(name));
  const std::size_t warm = samples / 10 + 1;
  for (std::size_t i = 0; i < warm + samples; ++i) {
    prep();
    const std::uint64_t t0 = wall_ns();
    body();
    const std::uint64_t t1 = wall_ns();
    if (i < warm) continue;
    t.per_call.push_back(static_cast<double>(t1 - t0) /
                         static_cast<double>(calls) / (micros ? 1e3 : 1.0));
    t.calls += calls;
  }
  return t;
}

int node_index(const Workload& w, const sim::Node* n) {
  const auto& nodes = w.nodes();
  return static_cast<int>(std::find(nodes.begin(), nodes.end(), n) -
                          nodes.begin());
}

// A pool of packets in one of the forms a layer sees them, copied out per
// sample (copies are made untimed, in prep).
struct PacketSet {
  std::vector<net::Packet> pkts;
  std::size_t next = 0;
  net::Packet copy() {
    const net::Packet& p = pkts[next];
    next = (next + 1) % pkts.size();
    return p;
  }
  void fill(net::PacketBurst& b, TimeNs at) {
    b.clear();
    for (std::size_t k = 0; k < kBurst; ++k) b.push(copy(), at);
  }
};

// The workload's arrivals at the bottleneck (as generated) and the same
// packets as the sink receives them (SRv6 traffic past its last segment).
PacketSet arrivals(const Workload& w) {
  return {w.generator_packets(
              std::max<std::size_t>(w.lookup_sequence().size(), kBurst)),
          0};
}
PacketSet advanced(const Workload& w) {
  PacketSet s = arrivals(w);
  for (net::Packet& p : s.pkts)
    while (p.srh() && p.srh()->segments_left() > 0) seg6::srh_advance(p);
  return s;
}

std::unique_ptr<Workload> fresh(const WorkloadInfo& info, std::uint64_t seed,
                                bool bottleneck_cpu) {
  BuildOptions o;
  o.seed = seed;
  o.traffic = sim::kSecond;
  o.start_traffic = false;
  auto w = make_workload(info.name, o);
  if (!bottleneck_cpu) w->bottleneck().cpu.enabled = false;
  return w;
}

// Bursts of packets handed to a layer call: storage plus the pointer and
// trace arrays the seg6 burst entry points take.
struct BurstArgs {
  std::array<net::Packet, kPktsPerSample> pkts;
  std::array<net::Packet*, kPktsPerSample> ptrs{};
  std::array<seg6::ProcessTrace, kPktsPerSample> traces{};
  std::array<seg6::ProcessTrace*, kPktsPerSample> tptrs{};
  std::array<seg6::PipelineResult, kPktsPerSample> results{};
  void load(PacketSet& set) {
    for (std::size_t i = 0; i < kPktsPerSample; ++i) {
      pkts[i] = set.copy();
      ptrs[i] = &pkts[i];
      traces[i].reset();
      tptrs[i] = &traces[i];
    }
  }
  std::span<net::Packet* const> burst(std::size_t b) const {
    return {ptrs.data() + b * kBurst, kBurst};
  }
};

}  // namespace

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double Timing::p50() const { return quantile(per_call, 0.5); }
double Timing::p99() const { return quantile(per_call, 0.99); }

double LayerReport::p50(const std::string& name) const {
  for (const Timing& t : timings)
    if (t.name == name) return t.p50();
  return 0;
}

LayerCounts count_layers(Workload& w) {
  LayerCounts c;
  c.offered = w.offered();
  c.delivered = w.delivered();
  c.events = w.events_executed();
  auto& net = w.net();
  if (net.parallel()) {
    auto& pdes = net.pdes_net();
    for (std::uint32_t d = 0; d < pdes.domain_count(); ++d)
      c.domain_events.push_back(pdes.domain_loop(d).executed());
    c.mailbox_spins = pdes.mailbox_overflow_spins();
  } else {
    c.domain_events.push_back(c.events);
  }
  auto in = [](const std::vector<sim::Node*>& set, const sim::Node* n) {
    return std::find(set.begin(), set.end(), n) != set.end();
  };
  for (sim::Node* n : w.nodes()) {
    const sim::NodeStats s = n->stats();
    c.pipeline += s.pipeline;
    c.node_bpf_runs.push_back(s.pipeline.bpf_runs);
    c.rx_drops += s.drops_rx_queue;
    if (in(w.transit(), n)) c.transit_pkts += s.pipeline.packets;
    if (in(w.sources(), n)) c.source_pkts += s.pipeline.packets;
    for (const auto& [id, fib] : n->ns().tables())
      c.cache_hits += fib.cache_hits();
  }
  c.bottleneck = w.bottleneck().stats();
  c.source = w.source().stats();
  c.routes = w.bottleneck().ns().table(0).route_count();
  for (const sim::Link* l : w.links())
    for (int side = 0; side < 2; ++side) {
      c.link_tx += l->stats(side).tx_packets;
      c.link_drops += l->stats(side).drops;
    }
  for (const FilterSite& f : w.filters()) {
    c.filter_runs += f.filter->accepted() + f.filter->dropped();
    c.filter_accepted += f.filter->accepted();
  }
  c.route_updates = w.route_updates();
  return c;
}

LayerReport replay_layers(const WorkloadInfo& info, std::uint64_t seed,
                          double loop_depth, SpanRecorder& spans) {
  LayerReport r;
  auto w = fresh(info, seed, /*bottleneck_cpu=*/true);
  PacketSet arrive = arrivals(*w);
  PacketSet deliver = advanced(*w);
  BurstArgs args;
  std::uint64_t sink = 0;  // keeps timed results observable
  auto noop = [] {};

  {
    SpanRecorder::Scope layer(&spans, "replay.net");
    const net::Packet tmpl = arrive.pkts.front();
    r.timings.push_back(time_calls(
        spans, "net.packet.stamp_ns", "net::Packet copy + destroy", false,
        kSamples, 256, noop, [&] {
          for (int i = 0; i < 256; ++i) {
            const net::Packet p = tmpl;
            sink += p.size();
          }
        }));
  }

  {
    SpanRecorder::Scope layer(&spans, "replay.seg6");
    seg6::Fib& fib = w->bottleneck().ns().table(0);
    const std::vector<Workload::Lookup> seq = w->lookup_sequence();
    std::array<seg6::FibCacheSlot, ebpf::kMaxCpus> slots{};
    std::size_t k = 0;
    r.timings.push_back(time_calls(
        spans, "seg6.fib.lookup_ns",
        "seg6::Fib::lookup over the bottleneck's destination sequence, one "
        "cache slot per RSS context",
        false, kSamples, 256, noop, [&] {
          for (int i = 0; i < 256; ++i) {
            const Workload::Lookup& l = seq[k];
            k = (k + 1) % seq.size();
            sink += reinterpret_cast<std::uintptr_t>(
                fib.lookup(l.dst, slots[l.ctx]));
          }
        }));
    const seg6::Route* route = fib.lookup(seq.front().dst);
    const net::Prefix pfx = route->prefix;
    const seg6::Nexthop nh = route->nexthops.front();
    r.timings.push_back(time_calls(
        spans, "seg6.fib.update_us",
        "seg6::Fib::remove_route + add_route of a bottleneck route", true, 50,
        8, noop, [&] {
          for (int i = 0; i < 8; ++i) {
            fib.remove_route(pfx);
            fib.add_route(pfx, nh);
          }
        }));
  }

  // End.DM (dm_filter) sees only probes, which the generator never emits:
  // replayed are the programs whose input form the workload's packets have.
  const bool srv6_traffic = arrive.pkts.front().srh().has_value();
  for (const ProgSite& site : w->programs()) {
    if (site.seg6local != nullptr && !srv6_traffic) continue;
    const int node = node_index(*w, site.node);
    // End.BPF sees arrivals (and runs after their SRH advance); the LWT
    // xmit program sees routed packets.
    PacketSet& in = site.seg6local != nullptr ? arrive : deliver;
    auto prep = [&] { args.load(in); };
    {
      SpanRecorder::Scope group(&spans, "replay.ebpf");
      auto prep_advanced = [&] {
        args.load(in);
        if (site.seg6local != nullptr)
          for (net::Packet* p : args.ptrs) seg6::srh_advance(*p);
      };
      auto per_packet = [&](std::size_t, const ebpf::ExecResult& e,
                            const seg6::Seg6BurstRunner::Verdict&) {
        sink += e.ret;
      };
      r.timings.push_back(time_calls(
          spans, "ebpf.run_ns",
          "seg6::run_prog_over_burst (" + site.prog->name() + ")", false,
          kSamples, kPktsPerSample, prep_advanced, [&] {
            for (std::size_t b = 0; b < kBurstsPerSample; ++b)
              seg6::run_prog_over_burst(site.node->ns(), *site.prog,
                                        args.burst(b),
                                        args.tptrs.data() + b * kBurst,
                                        per_packet);
          }));
      r.ebpf_node = node;
      std::vector<ebpf::Insn> insns;
      r.timings.push_back(time_calls(
          spans, "ebpf.load_us", "ebpf::BpfSystem::load (verify + JIT)", true,
          30, 1, [&] { insns = site.prog->program().insns(); },
          [&] {
            sink += site.node->ns()
                        .bpf()
                        .load(site.prog->name(), site.prog->type(),
                              std::move(insns))
                        .ok();
          }));
    }
    SpanRecorder::Scope group(&spans, "replay.seg6");
    if (site.seg6local != nullptr) {
      r.seg6local_node = node;
      r.timings.push_back(time_calls(
          spans, "seg6.seg6local.burst_ns",
          "seg6::seg6local_process_burst (inclusive of the program)", false,
          kSamples, kPktsPerSample, prep, [&] {
            for (std::size_t b = 0; b < kBurstsPerSample; ++b)
              seg6::seg6local_process_burst(
                  site.node->ns(), args.burst(b), *site.seg6local,
                  args.tptrs.data() + b * kBurst,
                  args.results.data() + b * kBurst);
          }));
    } else {
      r.lwt_node = node;
      r.timings.push_back(time_calls(
          spans, "seg6.lwt.burst_ns",
          "seg6::lwt_process_burst, xmit hook (inclusive of the program)",
          false, kSamples, kPktsPerSample, prep, [&] {
            for (std::size_t b = 0; b < kBurstsPerSample; ++b)
              seg6::lwt_process_burst(site.node->ns(), args.burst(b),
                                      *site.lwt, seg6::LwtHook::kXmit,
                                      args.tptrs.data() + b * kBurst,
                                      args.results.data() + b * kBurst);
          }));
    }
  }

  if (!w->filters().empty()) {
    SpanRecorder::Scope layer(&spans, "replay.cbpf");
    const FilterSite& f = w->filters().front();  // the sink's filter
    std::shared_ptr<apps::SocketFilter> made;
    r.timings.push_back(time_calls(
        spans, "cbpf.attach_us",
        "apps::SocketFilter::from_expr(\"" + f.filter->expr() + "\")", true,
        30, 1, [&] { made.reset(); },
        [&] {
          made = apps::SocketFilter::from_expr(f.node->ns(), "replay",
                                               f.filter->expr());
        }));
    r.timings.push_back(time_calls(
        spans, "cbpf.filter_ns", "apps::SocketFilter::run on delivered packets",
        false, kSamples, 256, noop, [&] {
          for (int i = 0; i < 256; ++i)
            sink += f.filter->run(deliver.pkts[i % deliver.pkts.size()]);
        }));
  }

  {
    SpanRecorder::Scope layer(&spans, "replay.sim");
    // The event queue at the workload's depth: schedule one no-op event at
    // a pseudo-random future time and run the earliest, so depth holds.
    sim::EventLoop loop;
    std::vector<TimeNs> delta(4096);
    std::uint64_t x = seed;
    for (TimeNs& d : delta) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      d = 1 + (x >> 33) % sim::kMilli;
    }
    const auto depth = static_cast<std::size_t>(std::max(1.0, loop_depth));
    for (std::size_t i = 0; i < depth; ++i) loop.schedule(delta[i % 4096], [] {});
    std::size_t di = 0;
    r.timings.push_back(time_calls(
        spans, "sim.event.ns",
        "sim::EventLoop::schedule + step at the window's queue depth", false,
        kSamples, 256, noop, [&] {
          for (int i = 0; i < 256; ++i) {
            loop.schedule(delta[di], [] {});
            di = (di + 1) % delta.size();
            loop.step();
          }
        }));

    sim::Node& src = w->source();
    sim::Link& link = *src.interface_link(0);
    const int side = link.side_node(0) == &src ? 0 : 1;
    std::array<net::PacketBurst, kBurstsPerSample> bursts;
    r.timings.push_back(time_calls(
        spans, "sim.link.tx_ns_per_pkt",
        "sim::Link::transmit_burst on the source's egress link", false,
        kSamples, kPktsPerSample,
        [&] {
          w->run_until(w->now() + kDrainStep);
          for (auto& b : bursts) arrive.fill(b, w->now());
        },
        [&] {
          for (auto& b : bursts) link.transmit_burst(std::move(b), side);
        }));

    auto nocpu = fresh(info, seed, /*bottleneck_cpu=*/false);
    sim::Node& bn = nocpu->bottleneck();
    const int ingress = nocpu->bottleneck_ingress();
    r.timings.push_back(time_calls(
        spans, "sim.node.forward_ns_per_pkt",
        "sim::Node::receive_burst_from_link at the bottleneck, CPU model "
        "off (RX, datapath, dispatch)",
        false, kSamples, kPktsPerSample,
        [&] {
          nocpu->run_until(nocpu->now() + kDrainStep);
          for (auto& b : bursts) arrive.fill(b, nocpu->now());
        },
        [&] {
          for (auto& b : bursts) bn.receive_burst_from_link(std::move(b), ingress);
        }));

    sim::Node& src_node = nocpu->source();
    r.source_node = node_index(*nocpu, &src_node);
    r.timings.push_back(time_calls(
        spans, "sim.node.send_ns_per_pkt",
        "sim::Node::send_burst at the source (local-out datapath, LWT, "
        "dispatch)",
        false, kSamples, kPktsPerSample,
        [&] {
          nocpu->run_until(nocpu->now() + kDrainStep);
          for (auto& b : bursts) arrive.fill(b, nocpu->now());
        },
        [&] {
          for (auto& b : bursts) src_node.send_burst(std::move(b));
        }));

    sim::Node& sink_node = nocpu->sink_node();
    r.timings.push_back(time_calls(
        spans, "apps.sink_ns_per_pkt",
        "sim::Node::receive_burst_from_link at the sink (local delivery, "
        "socket filter, app handler)",
        false, kSamples, kPktsPerSample,
        [&] {
          for (auto& b : bursts) deliver.fill(b, nocpu->now());
        },
        [&] {
          for (auto& b : bursts) sink_node.receive_burst_from_link(std::move(b), 0);
        }));

    if (w->bottleneck().cpu.enabled) {
      // Fill the bottleneck's RX rings (nothing services them: this
      // instance's loop never runs again), then time arrivals that can
      // only be dropped.
      sim::Node& full = w->bottleneck();
      const int in = w->bottleneck_ingress();
      bool filled = false;
      for (std::size_t guard = 0; guard < 4096 && !filled; ++guard) {
        const std::uint64_t before = full.stats().drops_rx_queue;
        arrive.fill(bursts[0], w->now());
        full.receive_burst_from_link(std::move(bursts[0]), in);
        filled = full.stats().drops_rx_queue - before == kBurst;
      }
      const std::uint64_t drops0 = full.stats().drops_rx_queue;
      Timing t = time_calls(
          spans, "sim.node.rx_drop_ns",
          "sim::Node::receive_burst_from_link into a full RX ring", false,
          kSamples, kPktsPerSample,
          [&] {
            for (auto& b : bursts) arrive.fill(b, w->now());
          },
          [&] {
            for (auto& b : bursts) full.receive_burst_from_link(std::move(b), in);
          });
      // Every timed arrival must have been a drop, or the timing is not
      // the drop path's.
      const std::uint64_t want =
          (kSamples + kSamples / 10 + 1) * kPktsPerSample;
      const std::uint64_t dropped = full.stats().drops_rx_queue - drops0;
      if (filled && dropped == want)
        r.timings.push_back(std::move(t));
      else
        r.problems.push_back(
            "sim.node.rx_drop_ns not measured: " + std::to_string(dropped) +
            " of " + std::to_string(want) + " timed arrivals dropped" +
            (filled ? "" : ", RX rings never filled"));
    }
  }
  g_sink = sink;
  return r;
}

std::vector<Metric> derive_metrics(const WindowSummary& ws,
                                   const LayerReport& layers) {
  const LayerCounts& a = ws.after;
  const LayerCounts& b = ws.before;
  auto ratio = [](double n, double d) { return d > 0 ? n / d : 0.0; };
  const double offered = static_cast<double>(a.offered - b.offered);
  const double delivered = static_cast<double>(a.delivered - b.delivered);
  auto per_pkt = [&](std::uint64_t after, std::uint64_t before) {
    return ratio(static_cast<double>(after - before), offered);
  };
  const sim::PipelineTotals& pa = a.pipeline;
  const sim::PipelineTotals& pb = b.pipeline;
  const double runs = static_cast<double>(pa.bpf_runs - pb.bpf_runs);
  const double insns = static_cast<double>(
      pa.bpf_insns_jit + pa.bpf_insns_interp - pb.bpf_insns_jit -
      pb.bpf_insns_interp);
  const double filter_runs =
      static_cast<double>(a.filter_runs - b.filter_runs);
  const sim::NodeStats& ba = a.bottleneck;
  const sim::NodeStats& bb = b.bottleneck;

  std::vector<double> dom;
  for (std::size_t d = 0; d < a.domain_events.size(); ++d)
    dom.push_back(static_cast<double>(a.domain_events[d] - b.domain_events[d]));
  double dom_sum = 0, dom_max = 0;
  for (const double e : dom) {
    dom_sum += e;
    dom_max = std::max(dom_max, e);
  }

  std::vector<Metric> m = {
      {"slice_wall_ms_p90", ws.slice_p90_ms, "ms"},
      {"sim_pps_wall", ws.pps_wall, "pkt/s"},
      {"host.ref_ms", ws.host_ref_ms, "ms"},
      {"apps.offered", offered, "pkt"},
      {"apps.delivered", delivered, "pkt"},
      {"net.pool.allocs_per_pkt", ratio(static_cast<double>(ws.allocs), offered),
       "1/pkt"},
      {"net.pool.high_water", static_cast<double>(ws.pool_high_water),
       "count"},
      {"ebpf.runs_per_pkt", ratio(runs, offered), "1/pkt"},
      {"ebpf.insns_per_run", ratio(insns, runs), "insn"},
      {"ebpf.helpers_per_run",
       ratio(static_cast<double>(pa.helper_calls - pb.helper_calls), runs),
       "call"},
      {"cbpf.filter_runs_per_pkt", ratio(filter_runs, offered), "1/pkt"},
      {"cbpf.accept_frac",
       ratio(static_cast<double>(a.filter_accepted - b.filter_accepted),
             filter_runs),
       "fraction"},
      {"seg6.seg6local.ops_per_pkt", per_pkt(pa.seg6local_ops, pb.seg6local_ops),
       "1/pkt"},
      {"seg6.fib.lookups_per_pkt", per_pkt(pa.fib_lookups, pb.fib_lookups),
       "1/pkt"},
      {"seg6.fib.cache_hits_per_pkt", per_pkt(a.cache_hits, b.cache_hits),
       "1/pkt"},
      {"seg6.fib.routes", static_cast<double>(a.routes), "count"},
      {"seg6.fib.updates_per_pkt", per_pkt(a.route_updates, b.route_updates),
       "1/pkt"},
      {"sim.event.per_pkt", per_pkt(a.events, b.events), "1/pkt"},
      {"sim.event.queue_depth", ws.queue_depth, "count"},
      {"sim.node.rx_drop_frac",
       ratio(static_cast<double>(ba.drops_rx_queue - bb.drops_rx_queue),
             static_cast<double>(ba.rx_packets - bb.rx_packets)),
       "fraction"},
      {"sim.node.burst_occupancy",
       ratio(static_cast<double>(ba.serviced_packets - bb.serviced_packets),
             static_cast<double>(ba.service_events - bb.service_events)),
       "pkt"},
      {"sim.link.drops", static_cast<double>(a.link_drops - b.link_drops),
       "count"},
      {"sim.pdes.domain_imbalance",
       ratio(dom_max, dom_sum / static_cast<double>(dom.size())), "ratio"},
      {"sim.pdes.mailbox_spins",
       static_cast<double>(a.mailbox_spins - b.mailbox_spins), "count"},
      {"sim.pdes.speedup", ws.pdes_speedup, "x"},
      {"sim.pdes.efficiency",
       ws.pdes_speedup / static_cast<double>(ws.pdes_threads), "fraction"},
  };
  for (const Timing& t : layers.timings) m.push_back({t.name, t.p50(), t.unit});

  // Busy ns per offered packet: each layer's timed call x how often the
  // window made that call per offered packet. Program runs are counted on
  // the node that runs the timed program.
  auto node_runs = [&](int node) {
    return node < 0 ? 0.0
                    : static_cast<double>(a.node_bpf_runs[node] -
                                          b.node_bpf_runs[node]);
  };
  const double run_ns = layers.p50("ebpf.run_ns");
  const double lookup = layers.p50("seg6.fib.lookup_ns");
  const double tx = layers.p50("sim.link.tx_ns_per_pkt");
  const double filter_ns = layers.p50("cbpf.filter_ns");
  const double s6l_self =
      std::max(0.0, layers.p50("seg6.seg6local.burst_ns") - run_ns);
  const double lwt_self =
      std::max(0.0, layers.p50("seg6.lwt.burst_ns") - run_ns);
  auto delta = [](std::uint64_t after, std::uint64_t before) {
    return static_cast<double>(after - before);
  };

  // A node's own datapath time per packet: an inclusive replay at that node
  // less the FIB lookups, program runs and transmit it makes per packet.
  // The bottleneck's figure stands for every router, the first source's for
  // every source.
  auto self_ns = [&](double inclusive, const sim::NodeStats& na,
                     const sim::NodeStats& nb, double program_ns) {
    const double pkts = delta(na.pipeline.packets, nb.pipeline.packets);
    const double children =
        lookup * ratio(delta(na.pipeline.fib_lookups, nb.pipeline.fib_lookups),
                       pkts) +
        program_ns *
            ratio(delta(na.pipeline.bpf_runs, nb.pipeline.bpf_runs), pkts) +
        tx;
    return std::max(0.0, inclusive - children);
  };
  const bool bn_runs_prog = layers.seg6local_node >= 0;
  const double router_self =
      self_ns(layers.p50("sim.node.forward_ns_per_pkt"), ba, bb,
              bn_runs_prog ? s6l_self + run_ns : 0.0);
  const double source_self =
      self_ns(layers.p50("sim.node.send_ns_per_pkt"), a.source, b.source,
              layers.lwt_node == layers.source_node ? lwt_self + run_ns : 0.0);

  const double busy_net = layers.p50("net.packet.stamp_ns");
  const double busy_ebpf = ratio(
      run_ns * (node_runs(layers.ebpf_node)), offered);
  const double busy_cbpf = ratio(filter_ns * filter_runs, offered);
  const double busy_seg6 = ratio(
      lookup * delta(pa.fib_lookups, pb.fib_lookups) +
          s6l_self * node_runs(layers.seg6local_node) +
          lwt_self * node_runs(layers.lwt_node) +
          layers.p50("seg6.fib.update_us") * 1e3 *
              delta(a.route_updates, b.route_updates),
      offered);
  const double busy_sim = ratio(
      layers.p50("sim.event.ns") * delta(a.events, b.events) +
          tx * delta(a.link_tx, b.link_tx) +
          layers.p50("sim.node.rx_drop_ns") * delta(a.rx_drops, b.rx_drops) +
          router_self * delta(a.transit_pkts, b.transit_pkts) +
          source_self * delta(a.source_pkts, b.source_pkts),
      offered);
  const double busy_apps = ratio(
      std::max(0.0, layers.p50("apps.sink_ns_per_pkt") -
                        filter_ns * ratio(filter_runs, delivered)) *
          delivered,
      offered);
  const double busy = busy_net + busy_ebpf + busy_cbpf + busy_seg6 +
                      busy_sim + busy_apps;
  const double wall = ws.wall_ns_per_pkt;
  m.insert(m.end(), {
                        {"trace.busy_ns_per_pkt.net", busy_net, "ns"},
                        {"trace.busy_ns_per_pkt.ebpf", busy_ebpf, "ns"},
                        {"trace.busy_ns_per_pkt.cbpf", busy_cbpf, "ns"},
                        {"trace.busy_ns_per_pkt.seg6", busy_seg6, "ns"},
                        {"trace.busy_ns_per_pkt.sim", busy_sim, "ns"},
                        {"trace.busy_ns_per_pkt.apps", busy_apps, "ns"},
                        {"trace.wall_ns_per_pkt", wall, "ns"},
                        {"trace.coverage", ratio(busy, wall), "fraction"},
                        {"trace.overhead", ws.trace_overhead, "fraction"},
                    });
  return m;
}

bool write_layers_json(const std::string& path, const WorkloadInfo& info,
                       std::uint64_t seed, const std::vector<Metric>& metrics,
                       const LayerReport& layers) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"workload\": \"%s\",\n  \"seed\": %llu,\n",
               info.name, static_cast<unsigned long long>(seed));
  std::fprintf(f, "  \"metrics\": {\n");
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::fprintf(f, "    \"%s\": {\"value\": %.17g, \"unit\": \"%s\"}%s\n",
                 metrics[i].name.c_str(), metrics[i].value,
                 metrics[i].unit.c_str(), i + 1 < metrics.size() ? "," : "");
  std::fprintf(f, "  },\n  \"timings\": [\n");
  for (std::size_t i = 0; i < layers.timings.size(); ++i) {
    const Timing& t = layers.timings[i];
    std::string call;
    for (const char c : t.call) call += c == '"' ? '\'' : c;
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"call\": \"%s\", \"unit\": \"%s\", "
                 "\"p50\": %.17g, \"p99\": %.17g, \"samples\": %zu, "
                 "\"calls\": %zu}%s\n",
                 t.name.c_str(), call.c_str(), t.unit.c_str(), t.p50(),
                 t.p99(), t.per_call.size(), t.calls,
                 i + 1 < layers.timings.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  return std::fclose(f) == 0;
}

}  // namespace srv6bench
