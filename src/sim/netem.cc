#include "sim/netem.h"

#include <algorithm>
#include <cmath>

namespace srv6bpf::sim {

NetemQdisc::Decision NetemQdisc::enqueue(TimeNs now, Rng& rng) {
  // Random loss first (netem's loss stage sits before queueing): the packet
  // never occupies wire time. Guarded so loss-free configs consume no extra
  // RNG draws and keep their historical jitter sequences.
  if (cfg_.loss_prob > 0 && rng.chance(cfg_.loss_prob)) {
    ++losses_;
    return {.dropped = true, .deliver_at = 0};
  }

  TimeNs extra = cfg_.delay_ns;
  if (cfg_.jitter_ns > 0) {
    double jittered;
    if (cfg_.jitter_tau_ns > 0) {
      // Time-correlated jitter: an Ornstein-Uhlenbeck walk whose stationary
      // stddev is jitter_ns and whose correlation time is jitter_tau_ns.
      const double dt =
          static_cast<double>(now >= ou_last_t_ ? now - ou_last_t_ : 0);
      const double decay = std::exp(-dt / static_cast<double>(cfg_.jitter_tau_ns));
      const double sd = static_cast<double>(cfg_.jitter_ns);
      ou_state_ = ou_state_ * decay +
                  rng.normal(0.0, sd * std::sqrt(1.0 - decay * decay));
      ou_last_t_ = now;
      jittered = static_cast<double>(cfg_.delay_ns) + ou_state_;
    } else {
      jittered = rng.normal(static_cast<double>(cfg_.delay_ns),
                            static_cast<double>(cfg_.jitter_ns));
    }
    extra = jittered <= 0 ? 0 : static_cast<TimeNs>(jittered);
  }
  TimeNs deliver = now + extra;
  if (cfg_.keep_order) {
    deliver = std::max(deliver, last_delivery_);
    last_delivery_ = deliver;
  }
  return {.dropped = false, .deliver_at = deliver};
}

}  // namespace srv6bpf::sim
