#include "sim/latency_tracer.h"

#include <utility>

namespace srv6bpf::sim {

std::size_t LatencyTracer::add_class(std::string name, Matcher matcher) {
  // Explicit classes keep declaration order ahead of any flow-label spread
  // classes already appended.
  const std::size_t idx = explicit_classes_;
  classes_.insert(classes_.begin() + static_cast<std::ptrdiff_t>(idx),
                  Class{std::move(name), std::move(matcher), {}});
  ++explicit_classes_;
  return idx;
}

void LatencyTracer::classify_by_flow_label(std::size_t n,
                                           const std::string& prefix) {
  // Replace any previous spread classes.
  classes_.resize(explicit_classes_);
  label_mod_ = n;
  for (std::size_t i = 0; i < n; ++i)
    classes_.push_back(Class{prefix + std::to_string(i), nullptr, {}});
}

void LatencyTracer::record(const net::Packet& pkt, TimeNs delivered_at) {
  if (pkt.tx_tstamp_ns == 0 || delivered_at < pkt.tx_tstamp_ns) {
    ++untimed_;
    return;
  }
  const std::uint64_t delay = delivered_at - pkt.tx_tstamp_ns;
  overall_.record(delay);

  for (std::size_t i = 0; i < explicit_classes_; ++i) {
    if (classes_[i].matcher(pkt)) {
      classes_[i].hist.record(delay);
      return;
    }
  }
  if (label_mod_ > 0 && pkt.size() >= net::kIpv6HeaderSize) {
    // const_cast: Ipv6View wants a mutable pointer but only reads here.
    const std::uint32_t label =
        net::Ipv6View(const_cast<std::uint8_t*>(pkt.data())).flow_label();
    classes_[explicit_classes_ + label % label_mod_].hist.record(delay);
    return;
  }
  ++unmatched_;
}

void LatencyTracer::reset_samples() {
  for (Class& c : classes_) c.hist.reset();
  overall_.reset();
  unmatched_ = 0;
  untimed_ = 0;
}

}  // namespace srv6bpf::sim
