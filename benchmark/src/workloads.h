// The benchmark's four workloads, built through the library's public API.
//
// A Workload owns one complete simulated scenario (topology, routes, loaded
// programs, filters, traffic sources and sinks) and exposes what the run
// protocol in main.cc needs: a way to advance simulated time, the counters
// the metrics and checks read, and handles on the layer objects the traced
// run replays (layers.cc). Every input that varies is derived from the
// benchmark seed here; the library only ever sees the generated values.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/sink.h"
#include "apps/socket_filter.h"
#include "apps/trafgen.h"
#include "ebpf/vm.h"
#include "net/packet.h"
#include "seg6/fib.h"
#include "seg6/seg6local.h"
#include "sim/invariant_auditor.h"
#include "sim/network.h"
#include "spans.h"

namespace srv6bench {

using srv6bpf::sim::TimeNs;

// FNV-1a over little-endian u64s (the digest pattern of the repo's
// determinism tests).
struct Digest {
  std::uint64_t count = 0;
  std::uint64_t fnv = 1469598103934665603ull;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      fnv ^= (v >> (i * 8)) & 0xff;
      fnv *= 1099511628211ull;
    }
  }
};

// One correctness check of a run: its name, outcome and a one-line detail.
struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

// Fixed parameters of a workload, independent of the seed.
struct WorkloadInfo {
  const char* name;
  double offered_pps;       // all sources together
  unsigned window_ms_per_s; // simulated ms of window per --seconds
  bool parallel;            // PDES-partitioned: runs via run_parallel_until
};

const WorkloadInfo* find_workload(const std::string& name);

inline constexpr TimeNs kWarmup = 30 * srv6bpf::sim::kMilli;
// Simulated tail after the sources stop: empties rings and 2 ms links.
inline constexpr TimeNs kDrain = 20 * srv6bpf::sim::kMilli;

struct BuildOptions {
  std::uint64_t seed = 1;
  // Generator run time after the first tick: warm-up plus window. Sources
  // stop on their own at its end.
  TimeNs traffic = 0;
  // PDES worker threads (parallel workloads only).
  std::size_t threads = 1;
  // false: build everything but leave the sources unstarted (replays).
  bool start_traffic = true;
  // Receives the build's ebpf.load (or usecases.delay_monitor_lab) spans
  // when set (traced run).
  SpanRecorder* spans = nullptr;
};

// What the measured window did, for checks that judge rates.
struct WindowCounts {
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  TimeNs window = 0;
};

// An eBPF program of the workload and where it is attached.
struct ProgSite {
  srv6bpf::sim::Node* node = nullptr;
  srv6bpf::ebpf::ProgHandle prog;
  const srv6bpf::seg6::Seg6LocalEntry* seg6local = nullptr;  // End.BPF
  const srv6bpf::seg6::LwtState* lwt = nullptr;              // LWT xmit
};

// A socket filter of the workload and the netns it runs in.
struct FilterSite {
  srv6bpf::sim::Node* node = nullptr;
  std::shared_ptr<srv6bpf::apps::SocketFilter> filter;
};

class Workload {
 public:
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  void run_until(TimeNs t);
  TimeNs now() const noexcept { return net_->now(); }

  // Generator packets sent so far (the offered load).
  std::uint64_t offered() const;
  // Packets the workload's sinks received.
  virtual std::uint64_t delivered() const;
  std::uint64_t events_executed() const;
  std::size_t events_pending() const;
  // Digest of every delivery plus every node and link counter: equal
  // digests mean equal simulations.
  virtual std::uint64_t digest() const;
  srv6bpf::sim::InvariantAuditor& auditor() noexcept { return auditor_; }
  // Workload-specific output checks, run after the drain.
  virtual void check(std::vector<Check>& out, const WindowCounts& w) const = 0;

  // ---- handles for the traced run's replays ----
  srv6bpf::sim::Network& net() noexcept { return *net_; }
  const std::vector<srv6bpf::sim::Node*>& nodes() const noexcept {
    return nodes_;
  }
  const std::vector<srv6bpf::sim::Link*>& links() const noexcept {
    return links_;
  }
  // The node whose forwarding the workload stresses, and the interface its
  // traffic arrives on.
  srv6bpf::sim::Node& bottleneck() noexcept { return *bottleneck_; }
  int bottleneck_ingress() const noexcept { return bottleneck_ingress_; }
  // The first source's node and the first sink's node.
  srv6bpf::sim::Node& source() noexcept { return *source_; }
  srv6bpf::sim::Node& sink_node() noexcept { return *sink_node_; }
  const std::vector<srv6bpf::sim::Node*>& sources() const noexcept {
    return sources_;
  }
  // Nodes that are neither a source nor a sink (routers).
  const std::vector<srv6bpf::sim::Node*>& transit() const noexcept {
    return transit_;
  }
  // The first `n` packets the first source emits, stamped as TrafGen stamps
  // them (flow label, destination site and source port rotate per packet).
  std::vector<srv6bpf::net::Packet> generator_packets(std::size_t n) const;
  // Destinations the bottleneck looks up, in arrival order, with the RSS
  // context each lands on (one period of the first source's rotation).
  struct Lookup {
    srv6bpf::net::Ipv6Addr dst;
    std::uint32_t ctx;
  };
  std::vector<Lookup> lookup_sequence() const;
  const std::vector<ProgSite>& programs() const noexcept { return progs_; }
  const std::vector<FilterSite>& filters() const noexcept { return filters_; }
  // FIB updates the workload performs during its window (0 without churn).
  virtual std::uint64_t route_updates() const { return 0; }

 protected:
  Workload(const WorkloadInfo& info, const BuildOptions& opts);

  // Adds a constant-rate source on `node` sending `spec`, registered with the
  // auditor.
  srv6bpf::apps::TrafGen& add_source(srv6bpf::sim::Node& node,
                                     const srv6bpf::net::PacketSpec& spec,
                                     double pps, std::uint32_t flow_spread,
                                     std::uint32_t dst_spread,
                                     std::uint16_t port_spread);
  // Counts and digests every UDP datagram to port 7001 on `node`.
  Digest& add_sink(srv6bpf::sim::Node& node);
  // Registers nodes and every link they touch with the auditor; sets the
  // bottleneck, the interface its traffic arrives on and the transit set.
  void finish(std::vector<srv6bpf::sim::Node*> nodes,
              srv6bpf::sim::Node& bottleneck, srv6bpf::sim::Node& upstream);
  void start_sources();
  // Per-datagram hook for workloads that check delivered bytes.
  virtual void on_delivery(const srv6bpf::net::Packet&) {}

  const WorkloadInfo& info_;
  BuildOptions opts_;
  std::unique_ptr<srv6bpf::sim::Network> own_net_;
  srv6bpf::sim::Network* net_ = nullptr;
  std::vector<srv6bpf::sim::Node*> nodes_;
  std::vector<srv6bpf::sim::Link*> links_;
  srv6bpf::sim::Node* bottleneck_ = nullptr;
  int bottleneck_ingress_ = 0;
  srv6bpf::sim::Node* source_ = nullptr;
  srv6bpf::sim::Node* sink_node_ = nullptr;
  std::vector<srv6bpf::sim::Node*> sources_;
  std::vector<srv6bpf::sim::Node*> sink_nodes_;
  std::vector<srv6bpf::sim::Node*> transit_;
  std::vector<std::unique_ptr<srv6bpf::apps::AppMux>> muxes_;
  std::vector<srv6bpf::apps::TrafGen::Config> gen_cfgs_;
  std::vector<std::unique_ptr<srv6bpf::apps::TrafGen>> gens_;
  // Heap-held so sink handlers can keep a stable pointer.
  std::vector<std::unique_ptr<Digest>> sinks_;
  std::vector<ProgSite> progs_;
  std::vector<FilterSite> filters_;
  srv6bpf::sim::InvariantAuditor auditor_;
};

// Builds workload `name`; throws std::invalid_argument for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const BuildOptions& opts);

}  // namespace srv6bench
