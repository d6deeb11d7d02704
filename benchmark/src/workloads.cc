#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "net/ip6.h"
#include "sim/pdes_topo.h"
#include "usecases/delay_monitor.h"
#include "usecases/programs.h"

using namespace srv6bpf;

namespace srv6bench {

namespace {

constexpr std::uint64_t kTenGig = 10ull * 1000 * 1000 * 1000;
constexpr std::uint16_t kSinkPort = 7001;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Everything the seed decides. Each field draws from its own stream so that
// adding a field never shifts the others.
struct Seeds {
  std::uint64_t net;
  std::uint16_t src_port;
  std::uint32_t flow_label;
  std::uint16_t site_base;
  std::uint16_t srh_tag;
  std::uint64_t churn;

  explicit Seeds(std::uint64_t seed)
      : net(splitmix64(seed ^ 0x6e6574)),
        src_port(static_cast<std::uint16_t>(
            1024 + splitmix64(seed ^ 0x706f7274) % 50000)),
        flow_label(static_cast<std::uint32_t>(splitmix64(seed ^ 0x666c6f77) &
                                              0xfffffu)),
        site_base(static_cast<std::uint16_t>(splitmix64(seed ^ 0x73697465))),
        srh_tag(static_cast<std::uint16_t>(splitmix64(seed ^ 0x746167))),
        churn(splitmix64(seed ^ 0x636875726e)) {}
};

net::Ipv6Addr addr(const char* text) { return net::Ipv6Addr::must_parse(text); }
net::Prefix prefix(const char* text) { return net::Prefix::parse(text).value(); }

std::string fmt(const char* f, double a, double b = 0, double c = 0) {
  char buf[160];
  std::snprintf(buf, sizeof buf, f, a, b, c);
  return buf;
}

// name, offered pps, simulated window ms per --seconds, partitioned.
// Windows are sized for ~10 s of wall time per 10 --seconds on a 4-vCPU
// Xeon host.
const std::vector<WorkloadInfo> kInfos = {
    {"endbpf_tag", 3e6, 750, false},
    {"fib_churn", 2e6, 450, false},
    {"dm_filter", 3e5, 2800, false},
    {"ring_pdes", 8 * 450e3, 90, true},
};

// ---- endbpf_tag --------------------------------------------------------------

// The paper's setup 1 (S1 - R - S2, 10 Gbps, R's single Xeon core modelled)
// with the Tag++ End.BPF program bound to a SID on R.
class EndbpfTag final : public Workload {
 public:
  EndbpfTag(const WorkloadInfo& info, const BuildOptions& opts)
      : Workload(info, opts) {
    const Seeds seeds(opts.seed);
    own_net_ = std::make_unique<sim::Network>(seeds.net);
    net_ = own_net_.get();
    sim::Node& s1 = net_->add_node("S1");
    sim::Node& r = net_->add_node("R");
    sim::Node& s2 = net_->add_node("S2");
    const auto s1_addr = addr("fc00:1::1");
    const auto r_if0 = addr("fc00:1::2");
    const auto r_if1 = addr("fc00:2::1");
    const auto s2_addr = addr("fc00:2::2");
    const auto sid = addr("fc00:f::1");
    auto l1 = net_->connect(s1, s1_addr, r, r_if0, kTenGig, 10 * sim::kMicro);
    auto l2 = net_->connect(r, r_if1, s2, s2_addr, kTenGig, 10 * sim::kMicro);
    s1.ns().table(0).add_route(prefix("::/0"), {r_if0, l1.a_ifindex, 1});
    r.ns().table(0).add_route(prefix("fc00:2::/64"),
                              {net::Ipv6Addr{}, l2.a_ifindex, 1});
    r.ns().table(0).add_route(prefix("fc00:1::/64"),
                              {net::Ipv6Addr{}, l1.b_ifindex, 1});
    s2.ns().table(0).add_route(prefix("::/0"), {r_if1, l2.b_ifindex, 1});
    r.cpu.enabled = true;
    r.cpu.profile = sim::kXeonProfile;

    const usecases::BuiltProgram built = usecases::build_tag_increment();
    ebpf::BpfSystem::LoadResult load;
    {
      SpanRecorder::Scope span(opts.spans, "ebpf.load");
      load = r.ns().bpf().load(built.name, ebpf::ProgType::kLwtSeg6Local,
                               built.insns, built.paper_sloc);
    }
    if (!load.ok())
      throw std::runtime_error("Tag++ rejected: " + load.verify.error);
    seg6::Seg6LocalEntry entry;
    entry.action = seg6::Seg6Action::kEndBPF;
    entry.prog = load.prog;
    r.ns().seg6local().add(sid, entry);
    progs_.push_back({&r, load.prog, r.ns().seg6local().lookup(sid), nullptr});

    add_sink(s2);
    want_tag_ = static_cast<std::uint16_t>(seeds.srh_tag + 1);

    net::PacketSpec spec;
    spec.src = s1_addr;
    spec.dst = s2_addr;
    spec.segments = {sid, s2_addr};
    spec.srh_tag = seeds.srh_tag;
    spec.src_port = seeds.src_port;
    spec.dst_port = kSinkPort;
    spec.flow_label = seeds.flow_label;
    spec.payload_size = 64;
    add_source(s1, spec, info.offered_pps, 1, 1, 1);
    finish({&s1, &r, &s2}, r, s1);
    start_sources();
  }

  void check(std::vector<Check>& out, const WindowCounts& w) const override {
    out.push_back({"srh_tag", tag_errors_ == 0,
                   fmt("%.0f delivered packets carried a tag other than "
                       "seed tag + 1",
                       static_cast<double>(tag_errors_))});
    // Saturation rate of Tag++ on the modelled Xeon core: a property of the
    // cost model, independent of seed and window length.
    const double kpps = static_cast<double>(w.delivered) * 1e6 /
                        static_cast<double>(w.window);
    out.push_back({"rate_pin", std::abs(kpps - kPinKpps) < 0.5,
                   fmt("sink %.2f sim kpps, pinned %.1f", kpps, kPinKpps)});
  }

 protected:
  void on_delivery(const net::Packet& pkt) override {
    // SRH tag: IPv6 next header (byte 6) is routing, tag at SRH offset 6.
    const std::uint8_t* p = pkt.data();
    const std::uint16_t tag = static_cast<std::uint16_t>(
        (p[net::kIpv6HeaderSize + 6] << 8) | p[net::kIpv6HeaderSize + 7]);
    if (p[6] != net::kProtoRouting || tag != want_tag_) ++tag_errors_;
  }

 private:
  static constexpr double kPinKpps = 499.3;
  std::uint16_t want_tag_ = 0;
  std::uint64_t tag_errors_ = 0;
};

// ---- fib_churn ---------------------------------------------------------------

// Plain IPv6 forwarding through a 2048-route /48 FIB on a 4-context R while a
// benchmark event withdraws and re-adds one /48 every 100 us. A covering /32
// keeps the withdrawn site reachable, so no packet is lost to churn.
class FibChurn final : public Workload {
 public:
  static constexpr std::size_t kSites = 2048;
  static constexpr std::uint32_t kFlows = 64;
  static constexpr TimeNs kChurnEvery = 100 * sim::kMicro;
  static constexpr TimeNs kReaddAfter = 50 * sim::kMicro;

  FibChurn(const WorkloadInfo& info, const BuildOptions& opts)
      : Workload(info, opts) {
    const Seeds seeds(opts.seed);
    own_net_ = std::make_unique<sim::Network>(seeds.net);
    net_ = own_net_.get();
    sim::Node& s1 = net_->add_node("S1");
    sim::Node& r = net_->add_node("R");
    sim::Node& s2 = net_->add_node("S2");
    const auto s1_addr = addr("fc00:1::1");
    const auto r_if0 = addr("fc00:1::2");
    const auto r_if1 = addr("fc00:2::1");
    const auto s2_addr = addr("fc00:2::2");
    auto l1 = net_->connect(s1, s1_addr, r, r_if0, kTenGig, 10 * sim::kMicro);
    auto l2 = net_->connect(r, r_if1, s2, s2_addr, kTenGig, 10 * sim::kMicro);
    s1.ns().table(0).add_route(prefix("::/0"), {r_if0, l1.a_ifindex, 1});
    s2.ns().table(0).add_route(prefix("::/0"), {r_if1, l2.b_ifindex, 1});
    seg6::Fib& fib = r.ns().table(0);
    fib.add_route(prefix("fc00:1::/64"), {net::Ipv6Addr{}, l1.b_ifindex, 1});
    nh_ = {net::Ipv6Addr{}, l2.a_ifindex, 1};
    fib.add_route(prefix("2001:db8::/32"), nh_);
    for (std::size_t i = 0; i < kSites; ++i) {
      net::Ipv6Addr a = addr("2001:db8::");
      a.set_group(2, static_cast<std::uint16_t>(seeds.site_base + i));
      sites_.push_back({a, 48});
      fib.add_route(sites_.back(), nh_);
      a.set_group(7, 2);
      s2.ns().add_local_addr(a);
    }
    r.cpu.enabled = true;
    r.cpu.profile = sim::kXeonProfile;
    r.cpu.ncpus = 4;

    // Seed-derived withdraw order: a Fisher-Yates shuffle of the sites.
    order_.resize(kSites);
    std::iota(order_.begin(), order_.end(), 0);
    std::uint64_t x = seeds.churn;
    for (std::size_t i = kSites - 1; i > 0; --i) {
      x = splitmix64(x);
      std::swap(order_[i], order_[x % (i + 1)]);
    }

    add_sink(s2);
    net::PacketSpec spec;
    spec.src = s1_addr;
    spec.dst = sites_[0].addr;
    spec.dst.set_group(7, 2);
    spec.src_port = seeds.src_port;
    spec.dst_port = kSinkPort;
    spec.flow_label = seeds.flow_label;
    spec.payload_size = 64;
    add_source(s1, spec, info.offered_pps, kFlows, kSites, 1);
    finish({&s1, &r, &s2}, r, s1);
    if (opts.start_traffic) {
      churn_stop_ = net_->now() + opts.traffic;
      r.loop().schedule(kChurnEvery, [this] { churn(); });
    }
    start_sources();
  }

  std::uint64_t route_updates() const override { return updates_; }

  void check(std::vector<Check>& out, const WindowCounts&) const override {
    const sim::NodeStats rs = bottleneck_->stats();
    out.push_back({"no_loss", delivered() == offered() && rs.total_drops() == 0,
                   fmt("offered %.0f delivered %.0f, R drops %.0f",
                       static_cast<double>(offered()),
                       static_cast<double>(delivered()),
                       static_cast<double>(rs.total_drops()))});
    // Every withdrawn /48 came back: each site resolves to its own route.
    std::size_t restored = 0;
    for (const net::Prefix& p : sites_) {
      const seg6::Route* route = bottleneck_->ns().table(0).lookup(p.addr);
      if (route != nullptr && route->prefix == p) ++restored;
    }
    out.push_back({"routes_restored", restored == kSites,
                   fmt("%.0f of %.0f /48 routes installed after churn",
                       static_cast<double>(restored),
                       static_cast<double>(kSites))});
  }

 private:
  void churn() {
    sim::Node& r = *bottleneck_;
    if (r.loop().now() >= churn_stop_) return;
    const net::Prefix p = sites_[order_[next_++ % kSites]];
    r.ns().table(0).remove_route(p);
    ++updates_;
    r.loop().schedule(kReaddAfter, [this, p] {
      bottleneck_->ns().table(0).add_route(p, nh_);
      ++updates_;
    });
    r.loop().schedule(kChurnEvery, [this] { churn(); });
  }

  seg6::Nexthop nh_;
  std::vector<net::Prefix> sites_;
  std::vector<std::size_t> order_;
  std::size_t next_ = 0;
  std::uint64_t updates_ = 0;
  TimeNs churn_stop_ = 0;
};

// ---- dm_filter ---------------------------------------------------------------

// usecases::DelayMonitorLab with default options: S1's LWT xmit program
// encapsulates 1 in 100 packets as an OWD probe, End.DM on R reports through
// a perf ring to a daemon, and both receive sockets are gated by compiled
// tcpdump expressions. The benchmark offers the traffic itself so that the
// seed decides its ports and flow label.
class DmFilter final : public Workload {
 public:
  DmFilter(const WorkloadInfo& info, const BuildOptions& opts)
      : Workload(info, opts) {
    const Seeds seeds(opts.seed);
    usecases::DelayMonitorLab::Options o;
    o.seed = seeds.net;
    link_delay_ = o.link_delay;
    probe_ratio_ = o.probe_ratio;
    {
      // One library call loads both programs and compiles both filters, so
      // the lab's build has no separate ebpf.load or cbpf.attach spans.
      SpanRecorder::Scope span(opts.spans, "usecases.delay_monitor_lab");
      lab_ = std::make_unique<usecases::DelayMonitorLab>(o);
    }
    net_ = &lab_->net();
    sim::Node& s1 = lab_->s1();
    sim::Node& r = lab_->r();
    sim::Node& s2 = lab_->s2();

    for (const seg6::Route& route : s1.ns().table(0).routes())
      if (route.lwt && route.lwt->prog_xmit)
        progs_.push_back({&s1, route.lwt->prog_xmit, nullptr, route.lwt.get()});
    for (const auto& [sid, entry] : r.ns().seg6local().entries())
      if (entry.action == seg6::Seg6Action::kEndBPF)
        progs_.push_back({&r, entry.prog, &entry, nullptr});
    sink_node_ = &s2;
    sink_nodes_.push_back(&s2);
    filters_.push_back({&s2, lab_->sink_filter()});
    filters_.push_back({&s1, lab_->controller_filter()});
    // The daemon's controller datagrams are packets too: R originates one
    // per probe it drains from the perf ring.
    auditor_.add_source([lab = lab_.get()] { return lab->probes_emitted(); });

    net::PacketSpec spec;
    spec.src = s1.interface_addr(0);
    spec.dst = s2.interface_addr(0);
    spec.src_port = seeds.src_port;
    spec.dst_port = kSinkPort;
    spec.flow_label = seeds.flow_label;
    spec.payload_size = 64;
    add_source(s1, spec, info.offered_pps, 1, 1, 1);
    finish({&s1, &r, &s2}, r, s1);
    start_sources();
  }

  std::uint64_t delivered() const override { return lab_->sink_packets(); }

  std::uint64_t digest() const override {
    Digest d;
    d.mix(Workload::digest());
    for (const usecases::OwdSample& s : lab_->samples()) {
      d.mix(s.tx_ns);
      d.mix(s.rx_ns);
    }
    for (const FilterSite& f : filters_) {
      d.mix(f.filter->accepted());
      d.mix(f.filter->dropped());
    }
    return d.fnv;
  }

  void check(std::vector<Check>& out, const WindowCounts&) const override {
    // The 4.1 result: every one-way delay sample equals the S1-R link delay
    // (plus under a microsecond of serialization).
    std::size_t off = 0;
    TimeNs lo = ~TimeNs{0}, hi = 0;
    for (const usecases::OwdSample& s : lab_->samples()) {
      lo = std::min(lo, s.owd_ns());
      hi = std::max(hi, s.owd_ns());
      if (s.owd_ns() < link_delay_ || s.owd_ns() > link_delay_ + sim::kMicro)
        ++off;
    }
    out.push_back({"owd_equals_link_delay",
                   off == 0 && !lab_->samples().empty(),
                   fmt("%.0f samples outside [2 ms, 2 ms + 1 us]; min %.0f "
                       "max %.0f ns",
                       static_cast<double>(off), static_cast<double>(lo),
                       static_cast<double>(hi))});
    const double expected =
        static_cast<double>(offered()) / static_cast<double>(probe_ratio_);
    const double probes = static_cast<double>(lab_->probes_emitted());
    out.push_back(
        {"probes", lab_->samples().size() == lab_->probes_emitted() &&
                       std::abs(probes - expected) <= 1.0,
         fmt("%.0f probes emitted, %.0f samples collected, %.1f expected",
             probes, static_cast<double>(lab_->samples().size()), expected)});
    out.push_back({"no_loss", delivered() == offered(),
                   fmt("offered %.0f, sink %.0f",
                       static_cast<double>(offered()),
                       static_cast<double>(delivered()))});
  }

 private:
  std::unique_ptr<usecases::DelayMonitorLab> lab_;
  TimeNs link_delay_ = 0;
  std::uint64_t probe_ratio_ = 0;
};

// ---- ring_pdes ---------------------------------------------------------------

// sim::build_ring_topology's default 56-node ring (8 segments x 5 Xeon
// routers), one PDES domain per segment, each offering an equal share.
class RingPdes final : public Workload {
 public:
  RingPdes(const WorkloadInfo& info, const BuildOptions& opts)
      : Workload(info, opts) {
    const Seeds seeds(opts.seed);
    own_net_ = std::make_unique<sim::Network>(seeds.net);
    net_ = own_net_.get();
    sim::RingTopoSpec ring;
    const sim::RingTopo topo = sim::build_ring_topology(*net_, ring);
    net_->set_domain_count(ring.segments);
    net_->seal_domains();

    std::vector<sim::Node*> nodes;
    for (const auto& seg : topo.segments) {
      nodes.push_back(seg.src);
      nodes.insert(nodes.end(), seg.routers.begin(), seg.routers.end());
      nodes.push_back(seg.sink);
    }
    for (const auto& seg : topo.segments) {
      add_sink(*seg.sink);
      net::PacketSpec spec;
      spec.src = seg.src_addr;
      spec.dst = seg.dst_addr;
      spec.src_port = seeds.src_port;
      spec.dst_port = kSinkPort;
      spec.flow_label = seeds.flow_label;
      spec.payload_size = 64;
      add_source(*seg.src, spec,
                 info.offered_pps / static_cast<double>(ring.segments), 16, 1,
                 7);
    }
    finish(std::move(nodes), *topo.segments[0].routers[0],
           *topo.segments[0].src);
    start_sources();
  }

  void check(std::vector<Check>& out, const WindowCounts&) const override {
    std::uint64_t drops = 0;
    for (const sim::Node* n : nodes_) drops += n->stats().total_drops();
    out.push_back({"no_loss", delivered() == offered() && drops == 0,
                   fmt("offered %.0f delivered %.0f drops %.0f",
                       static_cast<double>(offered()),
                       static_cast<double>(delivered()),
                       static_cast<double>(drops))});
  }
};

}  // namespace

const WorkloadInfo* find_workload(const std::string& name) {
  for (const WorkloadInfo& w : kInfos)
    if (name == w.name) return &w;
  return nullptr;
}

Workload::Workload(const WorkloadInfo& info, const BuildOptions& opts)
    : info_(info), opts_(opts) {}

void Workload::run_until(TimeNs t) {
  if (info_.parallel)
    net_->run_parallel_until(t, opts_.threads);
  else
    net_->run_until(t);
}

std::uint64_t Workload::offered() const {
  std::uint64_t n = 0;
  for (const auto& g : gens_) n += g->sent();
  return n;
}

std::uint64_t Workload::delivered() const {
  std::uint64_t n = 0;
  for (const auto& s : sinks_) n += s->count;
  return n;
}

std::uint64_t Workload::events_executed() const {
  return info_.parallel ? net_->pdes_net().events_executed()
                        : net_->loop().executed();
}

std::size_t Workload::events_pending() const {
  if (!info_.parallel) return net_->loop().pending();
  std::size_t n = 0;
  auto& pdes = net_->pdes_net();
  for (std::uint32_t d = 0; d < pdes.domain_count(); ++d)
    n += pdes.domain_loop(d).pending();
  return n;
}

std::uint64_t Workload::digest() const {
  Digest d;
  for (const auto& s : sinks_) {
    d.mix(s->fnv);
    d.mix(s->count);
  }
  for (const sim::Node* n : nodes_) {
    const sim::NodeStats s = n->stats();
    for (const std::uint64_t v :
         {s.rx_packets, s.tx_packets, s.local_delivered, s.total_drops(),
          s.service_events, s.serviced_packets, s.pipeline.packets,
          s.pipeline.seg6local_ops, s.pipeline.fib_lookups,
          s.pipeline.bpf_runs, s.pipeline.bpf_insns_jit,
          s.pipeline.bpf_insns_interp, s.pipeline.helper_calls,
          s.pipeline.encaps, s.pipeline.decaps})
      d.mix(v);
  }
  for (const sim::Link* l : links_)
    for (int side = 0; side < 2; ++side) {
      d.mix(l->stats(side).tx_packets);
      d.mix(l->stats(side).tx_bytes);
      d.mix(l->stats(side).drops);
    }
  return d.fnv;
}

std::vector<net::Packet> Workload::generator_packets(std::size_t n) const {
  const apps::TrafGen::Config& cfg = gen_cfgs_.front();
  std::vector<net::Packet> out;
  out.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    net::PacketSpec spec = cfg.spec;
    spec.flow_label = (spec.flow_label + k % cfg.flow_label_spread) & 0xfffffu;
    spec.dst.set_group(
        2, static_cast<std::uint16_t>(spec.dst.group(2) + k % cfg.dst_spread));
    spec.src_port =
        static_cast<std::uint16_t>(spec.src_port + k % cfg.src_port_spread);
    out.push_back(net::make_udp_packet(spec));
    out.back().seq = static_cast<std::uint32_t>(k);
  }
  return out;
}

std::vector<Workload::Lookup> Workload::lookup_sequence() const {
  const apps::TrafGen::Config& cfg = gen_cfgs_.front();
  const std::size_t period = std::min<std::size_t>(
      std::lcm<std::size_t>(cfg.flow_label_spread, cfg.dst_spread), 4096);
  const std::size_t ncpus = std::max<std::size_t>(bottleneck_->cpu.ncpus, 1);
  std::vector<Lookup> seq;
  for (net::Packet& pkt : generator_packets(period)) {
    // The bottleneck routes on the final destination (after End.BPF for
    // SRv6 traffic) but steers on the header as it arrives.
    const auto srh = pkt.srh();
    net::Ipv6Addr dst = pkt.ipv6().dst();
    if (srh) dst = srh->segment(0);
    seq.push_back({dst, static_cast<std::uint32_t>(sim::Node::rss_hash(pkt) %
                                                   ncpus)});
  }
  return seq;
}

apps::TrafGen& Workload::add_source(sim::Node& node,
                                    const net::PacketSpec& spec, double pps,
                                    std::uint32_t flow_spread,
                                    std::uint32_t dst_spread,
                                    std::uint16_t port_spread) {
  apps::TrafGen::Config cfg;
  cfg.spec = spec;
  cfg.pps = pps;
  cfg.start_at = net_->now();
  cfg.duration = opts_.traffic;
  cfg.flow_label_spread = flow_spread;
  cfg.dst_spread = dst_spread;
  cfg.src_port_spread = port_spread;
  gen_cfgs_.push_back(cfg);
  gens_.push_back(std::make_unique<apps::TrafGen>(node, cfg));
  auditor_.add_source([g = gens_.back().get()] { return g->attempted(); });
  if (source_ == nullptr) source_ = &node;
  sources_.push_back(&node);
  return *gens_.back();
}

Digest& Workload::add_sink(sim::Node& node) {
  if (sink_node_ == nullptr) sink_node_ = &node;
  sink_nodes_.push_back(&node);
  sinks_.push_back(std::make_unique<Digest>());
  muxes_.push_back(std::make_unique<apps::AppMux>(node));
  muxes_.back()->on_udp(
      kSinkPort, [this, d = sinks_.back().get()](
                     const net::Packet& pkt, const net::UdpHeader& udp,
                     std::span<const std::uint8_t>, sim::TimeNs now) {
        ++d->count;
        d->mix(now);
        d->mix(pkt.seq);
        d->mix(static_cast<std::uint64_t>(udp.src_port) << 16 | udp.dst_port);
        on_delivery(pkt);
      });
  return *sinks_.back();
}

void Workload::finish(std::vector<sim::Node*> nodes, sim::Node& bottleneck,
                      sim::Node& upstream) {
  nodes_ = std::move(nodes);
  bottleneck_ = &bottleneck;
  for (sim::Node* n : nodes_) {
    auditor_.add_node(*n);
    if (std::find(sources_.begin(), sources_.end(), n) == sources_.end() &&
        std::find(sink_nodes_.begin(), sink_nodes_.end(), n) ==
            sink_nodes_.end())
      transit_.push_back(n);
    for (std::size_t i = 0; i < n->interface_count(); ++i) {
      sim::Link* l = n->interface_link(static_cast<int>(i));
      if (l != nullptr && std::find(links_.begin(), links_.end(), l) ==
                              links_.end()) {
        links_.push_back(l);
        auditor_.add_link(*l);
      }
    }
  }
  for (std::size_t i = 0; i < bottleneck.interface_count(); ++i) {
    const sim::Link* l = bottleneck.interface_link(static_cast<int>(i));
    if (l->side_node(0) == &upstream || l->side_node(1) == &upstream)
      bottleneck_ingress_ = static_cast<int>(i);
  }
}

void Workload::start_sources() {
  if (!opts_.start_traffic) return;
  for (const auto& g : gens_) g->start();
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const BuildOptions& opts) {
  const WorkloadInfo* info = find_workload(name);
  if (info == nullptr) throw std::invalid_argument("unknown workload " + name);
  if (name == "endbpf_tag") return std::make_unique<EndbpfTag>(*info, opts);
  if (name == "fib_churn") return std::make_unique<FibChurn>(*info, opts);
  if (name == "dm_filter") return std::make_unique<DmFilter>(*info, opts);
  return std::make_unique<RingPdes>(*info, opts);
}

}  // namespace srv6bench
