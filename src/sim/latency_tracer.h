// LatencyTracer: per-flow-class end-to-end latency tracking against SLOs.
//
// Delivered packets carry their first-transmit time (Packet::tx_tstamp_ns,
// stamped by the sending node's dispatch); the tracer turns delivery events
// into end-to-end delay samples, classifies each packet into a flow class
// and records the sample into that class's util::HdrHistogram — fixed
// memory, zero steady-state allocation, exact-rank quantiles. Classes are
// declared at setup time, either as explicit match predicates (anything
// callable, e.g. a PR 7 cbpf::SocketFilter wrapped in a lambda) or via the
// cheap built-in flow-label spread mode that buckets on flow_label % N (the
// same spread trafgen stamps, so generator class == tracer class with no
// per-packet predicate calls).
//
// ReconvergenceClock measures failure blackholes: armed with the scheduled
// failure instant, it watches delivery timestamps and reports how long the
// flow stayed dark past the failure (first_after - failure_at) — the
// reconvergence time an IGP or an FRR backup buys down.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/packet.h"
#include "sim/event_loop.h"
#include "util/hdr_histogram.h"

namespace srv6bpf::sim {

class LatencyTracer {
 public:
  using Matcher = std::function<bool(const net::Packet&)>;

  LatencyTracer() = default;
  LatencyTracer(const LatencyTracer&) = delete;
  LatencyTracer& operator=(const LatencyTracer&) = delete;

  // Declares an explicit class; packets are tested against explicit classes
  // in declaration order, first match wins. Returns the class index.
  // Setup-time only: allocates the class's histogram.
  std::size_t add_class(std::string name, Matcher matcher);

  // Built-in spread mode: packets not claimed by an explicit class fall into
  // one of `n` classes keyed on outer flow_label % n (class names
  // "<prefix>0".."<prefix>n-1"). Matches trafgen's flow_label_spread.
  void classify_by_flow_label(std::size_t n, const std::string& prefix = "fl");

  // Records one delivery. Computes delay = delivered_at - tx_tstamp_ns;
  // packets never transmitted through a Node dispatch (tx_tstamp_ns == 0)
  // count as untimed, packets no class claims count as unmatched. Never
  // allocates.
  void record(const net::Packet& pkt, TimeNs delivered_at);

  // ---- results ----
  std::size_t class_count() const noexcept { return classes_.size(); }
  const std::string& class_name(std::size_t i) const {
    return classes_.at(i).name;
  }
  const util::HdrHistogram& class_hist(std::size_t i) const {
    return classes_.at(i).hist;
  }
  // Every timed delivery regardless of class (unmatched included).
  const util::HdrHistogram& overall() const noexcept { return overall_; }
  std::uint64_t unmatched() const noexcept { return unmatched_; }
  std::uint64_t untimed() const noexcept { return untimed_; }

  // Clears all samples but keeps the class declarations — windows a run
  // into phases (pre-failover vs post-failover tail comparison).
  void reset_samples();

 private:
  struct Class {
    std::string name;
    Matcher matcher;  // null for flow-label spread classes
    util::HdrHistogram hist;
  };

  std::vector<Class> classes_;
  std::size_t explicit_classes_ = 0;  // classes_[0..explicit) have matchers
  std::size_t label_mod_ = 0;         // 0 = flow-label mode off
  util::HdrHistogram overall_;
  std::uint64_t unmatched_ = 0;
  std::uint64_t untimed_ = 0;
};

// Blackhole / reconvergence stopwatch for failure scenarios.
//
// The naive "first delivery after the failure instant" is not a blackhole
// measurement at all: packets already past the point of local repair when
// the link died keep arriving for one path delay, so that first delivery
// lands microseconds after the failure even when the flow then goes dark
// for an IGP convergence. What the clock reports instead is the *largest
// inter-delivery gap* whose end lies at/after the failure instant (gap
// start clamped to the failure) — the true dark window between the last
// in-flight survivor and the first packet over the repaired path. Under
// steady offered load, that is the reconvergence time up to one packet
// spacing.
class ReconvergenceClock {
 public:
  // Arms the clock at the scheduled failure instant; resets any prior
  // measurement.
  void arm(TimeNs failure_at) {
    failure_at_ = failure_at;
    armed_ = true;
    recovered_ = false;
    have_last_ = false;
    last_ = 0;
    max_gap_ = 0;
    gap_end_ = 0;
  }

  // Feeds a delivery timestamp (call from the sink's delivery handler).
  // Timestamps must be monotone (a sink's delivery times are while its
  // packets come over one link).
  void note_delivery(TimeNs t) {
    if (armed_ && t >= failure_at_) {
      recovered_ = true;
      const TimeNs start =
          have_last_ && last_ > failure_at_ ? last_ : failure_at_;
      const TimeNs gap = t > start ? t - start : 0;
      if (gap > max_gap_) {
        max_gap_ = gap;
        gap_end_ = t;
      }
    }
    have_last_ = true;
    last_ = t;
  }

  bool armed() const noexcept { return armed_; }
  // True once any delivery landed at/after the failure instant.
  bool recovered() const noexcept { return recovered_; }
  // The measured dark window (see above). 0 until recovered().
  TimeNs blackhole_ns() const noexcept { return max_gap_; }
  // Delivery timestamp ending the dark window (its "recovery" instant).
  TimeNs recovery_at() const noexcept { return gap_end_; }

 private:
  TimeNs failure_at_ = 0;
  TimeNs last_ = 0;
  TimeNs max_gap_ = 0;
  TimeNs gap_end_ = 0;
  bool armed_ = false;
  bool have_last_ = false;
  bool recovered_ = false;
};

}  // namespace srv6bpf::sim
