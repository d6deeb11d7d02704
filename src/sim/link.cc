#include "sim/link.h"

#include <algorithm>

#include "net/buffer_pool.h"
#include "sim/node.h"
#include "sim/pdes_mailbox.h"

namespace srv6bpf::sim {

Link::Link(EventLoop& loop, Rng& rng, std::uint64_t bandwidth_bps,
           TimeNs prop_delay_ns)
    : bandwidth_bps_(bandwidth_bps), prop_delay_(prop_delay_ns) {
  for (Side& s : sides_) {
    s.loop = &loop;
    s.rng = &rng;
  }
}

void Link::attach(int side, Node* node, int ifindex) {
  sides_[side].node = node;
  sides_[side].ifindex = ifindex;
}

void Link::bind_side(int side, EventLoop& loop, Rng* rng,
                     PdesMailbox* crossing) {
  sides_[side].loop = &loop;
  sides_[side].rng = rng;
  sides_[side].crossing = crossing;
}

void Link::transmit_burst(net::PacketBurst&& burst, int from_side) {
  Side& tx = sides_[from_side];
  Side& rx = sides_[1 - from_side];
  if (rx.node == nullptr || burst.empty()) return;  // unattached: blackhole
  if (!side_up_[from_side]) {
    // Link down: the egress blackholes. The forwarding node normally never
    // gets here (Node::dispatch_burst checks the carrier and charges its own
    // drops_link_down / fast-reroutes first); this guard covers direct
    // transmit_burst() callers and packets committed between check and
    // send.
    tx.stats.drops_link_down += burst.size();
    return;
  }

  EventLoop& loop = *tx.loop;
  const TimeNs now = loop.now();
  net::PacketBurst out;  // survivors, stamped with their wire arrival times
  for (std::size_t i = 0; i < burst.size(); ++i) {
    net::Packet& pkt = burst.pkt(i);
    // The packet's logical enqueue time: its CPU-completion timestamp when
    // dispatched from a burst (>= now), or now for single-packet sends.
    const TimeNs t = std::max(burst.meta(i).at_ns, now);
    const std::size_t wire_bytes = pkt.size() + kWireOverheadBytes;

    // Stage 1: the egress qdisc (netem loss/delay/jitter).
    const NetemQdisc::Decision qd = tx.qdisc.enqueue(t, *tx.rng);
    if (qd.dropped) {
      ++tx.stats.drops;
      continue;
    }

    // Stage 2: the wire itself (serialization at link rate + propagation).
    const TimeNs ready = std::max(qd.deliver_at, tx.wire_free_at);
    const TimeNs backlog_ns = tx.wire_free_at > t ? tx.wire_free_at - t : 0;
    const double backlog_bytes = static_cast<double>(backlog_ns) *
                                 static_cast<double>(bandwidth_bps_) / 8e9;
    if (backlog_bytes > static_cast<double>(wire_queue_limit_bytes_)) {
      ++tx.stats.drops;
      continue;
    }
    const TimeNs ser =
        static_cast<TimeNs>(static_cast<double>(wire_bytes) * 8e9 /
                            static_cast<double>(bandwidth_bps_));
    tx.wire_free_at = ready + ser;
    const TimeNs arrival = tx.wire_free_at + prop_delay_;

    ++tx.stats.tx_packets;
    tx.stats.tx_bytes += wire_bytes;

    // Fault model: one random bit flips in flight with corrupt_prob while
    // the corruption window covers the packet's enqueue instant. Drawn once
    // per surviving packet from the side's dedicated stream.
    if (tx.corrupt_prob > 0.0 && t >= tx.corrupt_from && t < tx.corrupt_to &&
        pkt.size() > 0 && tx.corrupt_rng.chance(tx.corrupt_prob)) {
      const std::uint64_t bit = tx.corrupt_rng.uniform(
          0, static_cast<std::uint64_t>(pkt.size()) * 8 - 1);
      pkt.data()[bit >> 3] ^=
          static_cast<std::uint8_t>(1u << (bit & 7));
      ++tx.stats.corrupted;
    }
    out.push(std::move(pkt), arrival);
  }
  if (out.empty()) return;

  // Back-to-back serialization makes arrivals monotone, so one event at the
  // last arrival moves the whole burst; per-packet arrival times ride in the
  // metadata (interrupt coalescing, in effect). The burst is parked in a
  // pooled node so the event closure carries only a pointer — a by-value
  // PacketBurst capture would blow InlineFn's inline budget — and the Handle
  // recycles the node (and its packet buffers) even if the event loop is
  // torn down before delivery.
  const TimeNs last_arrival = out.meta(out.size() - 1).at_ns;
  Node* dst_node = rx.node;
  const int dst_if = rx.ifindex;
  net::BurstPool::Handle h(net::BurstPool::acquire());
  *h = std::move(out);
  InlineFn deliver([dst_node, dst_if, h = std::move(h)]() mutable {
    dst_node->receive_burst_from_link(std::move(*h), dst_if);
  });
  if (tx.crossing == nullptr) {
    loop.schedule_at(last_arrival, std::move(deliver));
  } else {
    // Cross-domain delivery: the peer's domain drains this ring and injects
    // the event with *this* side's provenance stamp, so the receiver's
    // same-timestamp tie-break is independent of drain timing.
    tx.crossing->push(
        PdesMail{last_arrival, 0, loop.make_stamp(), std::move(deliver)});
  }
}

}  // namespace srv6bpf::sim
