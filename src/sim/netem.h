// netem-style egress queueing discipline: configurable delay, normal jitter
// and random loss. Serialization and the drop-tail queue belong to the wire
// behind it (sim/link.h). The hybrid-access experiment (§4.2) uses this
// exactly as the paper uses `tc netem`: to delay the two WAN links
// (30±5 ms and 5±2 ms RTT) and to apply the TWD daemon's delay
// compensation at runtime.
#pragma once

#include <cstdint>

#include "sim/event_loop.h"
#include "util/rng.h"

namespace srv6bpf::sim {

struct NetemConfig {
  TimeNs delay_ns = 0;         // fixed extra delay
  TimeNs jitter_ns = 0;        // stddev of normal jitter around delay_ns
  // Jitter correlation time (netem's delay correlation, expressed as an
  // Ornstein-Uhlenbeck time constant). 0 = independent per packet; larger
  // values make latency wander slowly, as access links do in practice.
  TimeNs jitter_tau_ns = 0;
  bool keep_order = true;      // enforce FIFO delivery despite jitter
  // Independent per-packet loss probability (netem's `loss random P%`).
  // 0 keeps the qdisc's RNG consumption unchanged, so loss-free
  // configurations draw the exact same jitter sequences as before the knob
  // existed.
  double loss_prob = 0.0;
};

class NetemQdisc {
 public:
  NetemQdisc() = default;
  explicit NetemQdisc(NetemConfig cfg) : cfg_(cfg) {}

  const NetemConfig& config() const noexcept { return cfg_; }
  void set_config(const NetemConfig& cfg) noexcept { cfg_ = cfg; }
  // Runtime adjustment used by the TWD compensation daemon ("tc qdisc change
  // dev .. netem delay X").
  void set_delay(TimeNs delay_ns) noexcept { cfg_.delay_ns = delay_ns; }

  struct Decision {
    bool dropped = false;
    TimeNs deliver_at = 0;
  };
  // Computes when a packet enqueued at `now` leaves the qdisc for the wire,
  // or reports a random-loss drop.
  Decision enqueue(TimeNs now, Rng& rng);

  // Packets dropped by the random-loss stage.
  std::uint64_t losses() const noexcept { return losses_; }

 private:
  NetemConfig cfg_;
  TimeNs last_delivery_ = 0;    // for keep_order
  std::uint64_t losses_ = 0;
  // Ornstein-Uhlenbeck jitter state (deviation from delay_ns, in ns).
  double ou_state_ = 0.0;
  TimeNs ou_last_t_ = 0;
};

}  // namespace srv6bpf::sim
