// Counters and measurement helpers shared by nodes, apps and benchmarks.
#pragma once

#include <array>
#include <cstdint>
#include <iterator>
#include <string>

#include "sim/event_loop.h"

namespace srv6bpf::seg6 {
struct ProcessTrace;
}  // namespace srv6bpf::seg6

namespace srv6bpf::sim {

// Why a packet was dropped on a node — one enumerator per NodeStats drop
// counter. Used to attribute drops to a cause *and* a time: NodeStats keeps
// the timestamp of each reason's first occurrence, which is what lets a
// failover scenario tell "the blackhole opened here" apart from steady-state
// queue pressure.
enum class DropReason : std::size_t {
  kRxQueue = 0,   // CPU backlog overflow (the 610kpps cap)
  kNoRoute,
  kTtl,
  kVerdict,       // seg6local / BPF_DROP / invalid SRH
  kMalformed,
  kLinkDown,      // egress interface's link administratively/physically down
  kNoBuffer,      // BufferPool hard cap: no buffer for a new packet
  kNodeDown,      // node crashed: arrival/emission while the stack is gone
  kCount,
};
inline constexpr std::size_t kDropReasonCount =
    static_cast<std::size_t>(DropReason::kCount);

// Cumulative per-node sums of the per-packet ProcessTrace counters: what the
// datapath did over the node's lifetime, engine-attributed. The burst
// differential test asserts these are identical across burst sizes.
struct PipelineTotals {
  std::uint64_t packets = 0;  // packets that ran the pipeline
  std::uint64_t seg6local_ops = 0;
  std::uint64_t fib_lookups = 0;
  std::uint64_t bpf_runs = 0;
  std::uint64_t bpf_insns_jit = 0;
  std::uint64_t bpf_insns_interp = 0;
  std::uint64_t helper_calls = 0;
  std::uint64_t encaps = 0;
  std::uint64_t decaps = 0;

  friend bool operator==(const PipelineTotals&,
                         const PipelineTotals&) = default;

  // Every counter: the one list the shard merge walks.
  static constexpr std::uint64_t PipelineTotals::*kCounters[] = {
      &PipelineTotals::packets,          &PipelineTotals::seg6local_ops,
      &PipelineTotals::fib_lookups,      &PipelineTotals::bpf_runs,
      &PipelineTotals::bpf_insns_jit,    &PipelineTotals::bpf_insns_interp,
      &PipelineTotals::helper_calls,     &PipelineTotals::encaps,
      &PipelineTotals::decaps,
  };

  PipelineTotals& operator+=(const PipelineTotals& o) {
    for (const auto counter : kCounters) this->*counter += o.*counter;
    return *this;
  }
};
// A counter added to PipelineTotals but not to kCounters would silently
// drop out of the shard merge.
static_assert(std::size(PipelineTotals::kCounters) * sizeof(std::uint64_t) ==
                  sizeof(PipelineTotals),
              "every PipelineTotals counter is listed in kCounters");

struct NodeStats {
  // Packets born here: each one an application passed to Node::send or
  // send_burst, even on a down node, or was refused a buffer for
  // (Node::refuse_send). With icmp_time_exceeded_sent, which counts the
  // stack's own ICMP errors, the offered side of sim::Network's ledger.
  std::uint64_t originated = 0;
  std::uint64_t rx_packets = 0;
  std::uint64_t tx_packets = 0;
  std::uint64_t local_delivered = 0;
  std::uint64_t drops_rx_queue = 0;   // CPU backlog overflow (the 610kpps cap)
  std::uint64_t drops_no_route = 0;
  std::uint64_t drops_ttl = 0;
  std::uint64_t drops_verdict = 0;    // seg6local / BPF_DROP / invalid SRH
  std::uint64_t drops_malformed = 0;
  std::uint64_t drops_link_down = 0;  // egress link was down at transmit
  // Graceful-degradation drops: the BufferPool hard cap refused storage for
  // a new packet (net::BufferPool::set_max_buffers) — the accounted
  // alternative to an alloc storm under exhaustion.
  std::uint64_t drops_no_buffer = 0;
  // Packets that reached (or originated on) a node while it was crashed
  // (Node::crash — the stack, rings and tables were torn down).
  std::uint64_t drops_node_down = 0;
  std::uint64_t icmp_time_exceeded_sent = 0;
  // SRv6 fast-reroute activations: packets steered onto a route's
  // precomputed backup (seg6::FrrBackup) because the primary nexthop's link
  // was down.
  std::uint64_t frr_reroutes = 0;
  // Burst-pipeline observability. service_events counts CPU service
  // activations (one per drained burst), serviced_packets the packets those
  // events drained — their ratio is the achieved burst occupancy.
  std::uint64_t service_events = 0;
  std::uint64_t serviced_packets = 0;

  // Simulated time of each drop reason's *first* occurrence on this shard
  // (kNeverDropped when the reason never fired). Drops are stamped with the
  // packet's own logical time — wire arrival on the receive path, CPU
  // completion on the transmit path — not the (burst-coalesced) event clock,
  // so the values are burst-invariant like every other counter here.
  static constexpr std::uint64_t kNeverDropped = ~0ull;
  std::array<std::uint64_t, kDropReasonCount> first_drop_ns = [] {
    std::array<std::uint64_t, kDropReasonCount> never{};
    never.fill(kNeverDropped);
    return never;
  }();

  PipelineTotals pipeline;

  // Every scalar counter: the one list the shard merge walks.
  static constexpr std::uint64_t NodeStats::*kCounters[] = {
      &NodeStats::originated,      &NodeStats::rx_packets,
      &NodeStats::tx_packets,      &NodeStats::local_delivered,
      &NodeStats::drops_rx_queue,  &NodeStats::drops_no_route,
      &NodeStats::drops_ttl,       &NodeStats::drops_verdict,
      &NodeStats::drops_malformed, &NodeStats::drops_link_down,
      &NodeStats::drops_no_buffer, &NodeStats::drops_node_down,
      &NodeStats::icmp_time_exceeded_sent,
      &NodeStats::frr_reroutes,    &NodeStats::service_events,
      &NodeStats::serviced_packets,
  };
  // The drop counters, indexed by DropReason: the list note_drop() and
  // total_drops() walk.
  static constexpr std::uint64_t NodeStats::*kDropCounters[] = {
      &NodeStats::drops_rx_queue,  &NodeStats::drops_no_route,
      &NodeStats::drops_ttl,       &NodeStats::drops_verdict,
      &NodeStats::drops_malformed, &NodeStats::drops_link_down,
      &NodeStats::drops_no_buffer, &NodeStats::drops_node_down,
  };
  static_assert(std::size(kDropCounters) == kDropReasonCount,
                "one drop counter per DropReason");

  // Bumps the counter for `reason` and records the first-occurrence time.
  void note_drop(DropReason reason, std::uint64_t at_ns) {
    const auto i = static_cast<std::size_t>(reason);
    if (i >= kDropReasonCount) return;
    ++(this->*kDropCounters[i]);
    if (at_ns < first_drop_ns[i]) first_drop_ns[i] = at_ns;
  }
  std::uint64_t first_drop_at(DropReason reason) const noexcept {
    return first_drop_ns[static_cast<std::size_t>(reason)];
  }

  friend bool operator==(const NodeStats&, const NodeStats&) = default;

  // Folds one packet's ProcessTrace into `pipeline` (defined in stats.cc to
  // keep the seg6 headers out of this one).
  void account(const seg6::ProcessTrace& t);

  // Shard merge: Node::stats() sums its per-CPU-context shards with this.
  NodeStats& operator+=(const NodeStats& o) {
    for (const auto counter : kCounters) this->*counter += o.*counter;
    pipeline += o.pipeline;
    // First-occurrence folds as a min, which keeps += associative and
    // commutative across shards (kNeverDropped is the identity).
    for (std::size_t i = 0; i < kDropReasonCount; ++i)
      if (o.first_drop_ns[i] < first_drop_ns[i])
        first_drop_ns[i] = o.first_drop_ns[i];
    return *this;
  }

  std::uint64_t total_drops() const noexcept {
    std::uint64_t total = 0;
    for (const auto counter : kDropCounters) total += this->*counter;
    return total;
  }
};
// A scalar counter added to NodeStats but not to kCounters would silently
// drop out of the shard merge.
static_assert(std::size(NodeStats::kCounters) * sizeof(std::uint64_t) +
                      sizeof(NodeStats::first_drop_ns) +
                      sizeof(PipelineTotals) ==
                  sizeof(NodeStats),
              "every NodeStats counter is listed in kCounters");

// Accumulates packet/byte counts over a measurement window; used by sinks to
// report kpps / goodput exactly the way the paper's figures do.
//
// The timestamped record() overload additionally tracks inter-arrival gaps
// (min/mean/max), so report() can expose burstiness: a min gap far below the
// mean flags microbursts that a window-averaged kpps number hides entirely.
class RateMeter {
 public:
  void record(std::size_t payload_bytes) {
    ++packets_;
    bytes_ += payload_bytes;
  }
  // Timestamped variant: also folds the gap since the previous timestamped
  // arrival into the min/mean/max inter-arrival tracking. `now` must be
  // monotone across calls (a sink's delivery times are, each packet's wire
  // arrival, while its packets come over one link); an earlier one counts
  // as a zero gap.
  void record(std::size_t payload_bytes, TimeNs now) {
    record(payload_bytes);
    if (have_last_arrival_) {
      const TimeNs gap = now >= last_arrival_ ? now - last_arrival_ : 0;
      if (gap < min_gap_) min_gap_ = gap;
      if (gap > max_gap_) max_gap_ = gap;
      gap_sum_ += gap;
      ++gap_count_;
    }
    have_last_arrival_ = true;
    last_arrival_ = now;
  }
  void reset() { *this = RateMeter{}; }

  // Window summary: the averaged rates plus the inter-arrival gap spread
  // observed since the last reset (gaps all zero when fewer than two
  // timestamped arrivals were recorded).
  struct Report {
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
    double pps = 0;
    double kpps = 0;
    double mbps = 0;
    TimeNs min_gap_ns = 0;
    double mean_gap_ns = 0;
    TimeNs max_gap_ns = 0;
  };
  Report report(TimeNs window) const noexcept {
    Report r;
    r.packets = packets_;
    r.bytes = bytes_;
    r.pps = pps(window);
    r.kpps = kpps(window);
    r.mbps = mbps(window);
    if (gap_count_ > 0) {
      r.min_gap_ns = min_gap_;
      r.max_gap_ns = max_gap_;
      r.mean_gap_ns = static_cast<double>(gap_sum_) /
                      static_cast<double>(gap_count_);
    }
    return r;
  }

  std::uint64_t packets() const noexcept { return packets_; }
  std::uint64_t bytes() const noexcept { return bytes_; }

  double pps(TimeNs window) const noexcept {
    return window == 0 ? 0.0
                       : static_cast<double>(packets_) * 1e9 /
                             static_cast<double>(window);
  }
  double kpps(TimeNs window) const noexcept { return pps(window) / 1e3; }
  double mbps(TimeNs window) const noexcept {
    return window == 0 ? 0.0
                       : static_cast<double>(bytes_) * 8e3 /
                             static_cast<double>(window);
  }

 private:
  std::uint64_t packets_ = 0;
  std::uint64_t bytes_ = 0;
  bool have_last_arrival_ = false;
  TimeNs last_arrival_ = 0;
  TimeNs min_gap_ = ~TimeNs{0};
  TimeNs max_gap_ = 0;
  std::uint64_t gap_sum_ = 0;
  std::uint64_t gap_count_ = 0;
};

}  // namespace srv6bpf::sim
