#include "sim/link.h"

#include <algorithm>
#include <array>

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
  // Survivors stay in `burst`, stamped with their arrivals; these are their
  // slots, in wire order.
  std::array<std::uint8_t, net::kMaxBurstPackets> kept{};
  std::uint32_t n = 0;
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
    // The wire stamps each packet with its arrival at the peer.
    pkt.rx_tstamp_ns = arrival;
    kept[n++] = static_cast<std::uint8_t>(i);
  }
  if (n == 0) return;

  // Back-to-back serialization makes arrivals monotone, so one delivery at
  // the last arrival moves the whole burst (interrupt coalescing, in
  // effect). Its stamp is the one a schedule_at here would take.
  const EventLoop::Stamp stamp = loop.make_stamp();
  for (std::uint32_t k = 0; k < n; ++k) {
    net::Packet& pkt = burst.pkt(kept[k]);
    const std::uint32_t last = k + 1 == n ? n : 0;
    if (tx.crossing == nullptr)
      land(from_side, std::move(pkt), last, stamp);
    else
      tx.crossing->push(PdesMail{this, static_cast<std::uint32_t>(from_side),
                                 last, stamp, std::move(pkt)});
  }
}

void Link::land(int side, net::Packet&& pkt, std::uint32_t n,
                EventLoop::Stamp stamp) {
  Side& s = sides_[side];
  const TimeNs t = pkt.rx_tstamp_ns;
  s.wire.push(std::move(pkt));
  if (n == 0) return;
  s.marks.push(WireMark{t, stamp, n});
  if (s.marks.size() == 1) schedule_head(side);
}

void Link::schedule_head(int side) {
  const WireMark& m = sides_[side].marks.front();
  sides_[1 - side].loop->inject(m.t, 0, m.stamp,
                                [this, side] { deliver(side); });
}

void Link::deliver(int side) {
  Side& s = sides_[side];
  const Side& rx = sides_[1 - side];
  const WireMark m = s.marks.pop();
  net::PacketBurst burst;
  for (std::uint32_t i = 0; i < m.n; ++i) {
    net::Packet pkt = s.wire.pop();
    const TimeNs arrival = pkt.rx_tstamp_ns;
    burst.push(std::move(pkt), arrival);
  }
  // The next burst's event goes in before the node runs, so a transmit the
  // delivery triggers finds this side's FIFOs consistent.
  if (!s.marks.empty()) schedule_head(side);
  rx.node->receive_burst_from_link(std::move(burst), rx.ifindex);
}

}  // namespace srv6bpf::sim
