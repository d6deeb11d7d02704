// Per-layer measurement for the traced run.
//
// Two kinds of numbers:
//   * counts — exact, read from the library's public stats at the window's
//     start and end (count_layers), normalised per offered packet;
//   * timings — each layer's public calls timed with steady_clock on a
//     separate, never-run instance of the workload fed with the workload's
//     own packets (replay_layers). Calls are timed in batches, so a sample
//     is the mean ns of one call within a batch; a timing reports the
//     median and p99 of its samples.
// derive_metrics() combines both into the per-layer metrics, including the
// busy time each layer accounts for per offered packet and how much of the
// measured wall time those busy times cover.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/stats.h"
#include "spans.h"
#include "workloads.h"

namespace srv6bench {

// Exact q-quantile of `v` (the ceil(q * n)-th smallest); 0 when empty.
double quantile(std::vector<double> v, double q);

// Cumulative counters of a workload at one quiescent instant.
struct LayerCounts {
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  std::uint64_t events = 0;
  std::vector<std::uint64_t> domain_events;  // per PDES domain
  std::uint64_t mailbox_spins = 0;
  srv6bpf::sim::PipelineTotals pipeline;      // summed over every node
  std::vector<std::uint64_t> node_bpf_runs;   // per Workload::nodes() index
  std::uint64_t transit_pkts = 0;             // datapath packets on routers
  std::uint64_t source_pkts = 0;              // local-out packets on sources
  std::uint64_t rx_drops = 0;                 // RX-ring overflow, all nodes
  srv6bpf::sim::NodeStats bottleneck;
  srv6bpf::sim::NodeStats source;             // the first source
  std::uint64_t link_tx = 0;
  std::uint64_t link_drops = 0;
  std::uint64_t cache_hits = 0;               // every FIB table of every node
  std::uint64_t filter_runs = 0;
  std::uint64_t filter_accepted = 0;
  std::uint64_t route_updates = 0;
  std::uint64_t routes = 0;                   // bottleneck's main table
};
LayerCounts count_layers(Workload& w);

struct Timing {
  std::string name;  // metric name
  std::string unit;  // "ns" or "us"
  std::string call;  // the public call that was timed
  std::vector<double> per_call;  // one value per sample
  std::size_t calls = 0;         // calls timed in total
  double p50() const;
  double p99() const;
};

struct LayerReport {
  std::vector<Timing> timings;
  // Workload::nodes() index of the node running each timed program.
  int ebpf_node = -1;
  int seg6local_node = -1;
  int lwt_node = -1;
  int source_node = -1;
  // Replays that apply to the workload but produced no timing; the run
  // reports them as a failed check.
  std::vector<std::string> problems;
  double p50(const std::string& name) const;  // 0 when not measured
};

// Times every applicable layer call of workload `info` on fresh instances.
// `loop_depth` is the median pending-event count of one event loop in the
// measured window.
LayerReport replay_layers(const WorkloadInfo& info, std::uint64_t seed,
                          double loop_depth, SpanRecorder& spans);

// What the traced pass measured, beside the layer counts.
struct WindowSummary {
  LayerCounts before, after;
  std::uint64_t allocs = 0;
  std::uint64_t pool_high_water = 0;
  double queue_depth = 0;       // median pending events at slice boundaries
  double slice_p90_ms = 0;      // untraced pass: 90th-percentile slice wall
  double pps_wall = 0;          // untraced pass: offered / median slice wall
  double host_ref_ms = 0;       // untraced pass: median reference unit
  double wall_ns_per_pkt = 0;   // traced pass: median slice wall / offered
  double trace_overhead = 0;    // 1 - traced / untraced sim_pps_norm
  double pdes_speedup = 0;      // prefix slices at 1 thread / at pdes_threads
  std::size_t pdes_threads = 1;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};
std::vector<Metric> derive_metrics(const WindowSummary& ws,
                                   const LayerReport& layers);

bool write_layers_json(const std::string& path, const WorkloadInfo& info,
                       std::uint64_t seed, const std::vector<Metric>& metrics,
                       const LayerReport& layers);

}  // namespace srv6bench
