// Point-to-point link: two attachment points, a wire bandwidth, a propagation
// delay, and a netem qdisc on each egress (sim/netem.h).
//
// Each side carries its own execution bindings — an EventLoop, an RNG stream
// for its netem qdisc, and (under parallel PDES runs, sim/pdes_domain.h) an
// optional outbound mailbox. In the serial simulator both sides point at the
// Network's single loop and shared RNG, so nothing changes; PdesNet::seal
// rebinds each side into its node's domain. Egress state (qdisc,
// wire_free_at, stats, carrier replica) is strictly per-side, so the two
// domains sharing a link never touch the same mutable state.
//
// What a side has on the wire lives in two FIFOs of that side: its packets,
// each stamped with its own arrival (rx_tstamp_ns), and one mark per
// transmitted burst (packet count, last arrival, the transmit's EventLoop
// stamp). Only the head mark has an event in the receiver's loop; that
// event pops its packets, injects the next mark's event, and hands the
// burst to the peer node. A side's marks rise strictly in the loop's
// (t, key, birth) order (wire_free_at is monotone and stamps are unique),
// so the loop runs every delivery exactly when it would with one event per
// burst, while its heap holds one delivery per busy side. Both FIFOs belong
// to the receiving domain: a crossing to another PDES domain carries the
// packets through the mailbox, and the receiver's drain lands them here.
#pragma once

#include <cstdint>

#include "net/burst.h"
#include "net/packet.h"
#include "sim/event_loop.h"
#include "sim/netem.h"
#include "sim/ring.h"
#include "util/rng.h"

namespace srv6bpf::sim {

class Node;
class PdesMailbox;

// Ethernet framing overhead added to every packet on the wire: 14 header +
// 4 FCS + 8 preamble + 12 IPG.
inline constexpr std::size_t kWireOverheadBytes = 38;

class Link {
 public:
  Link(EventLoop& loop, Rng& rng, std::uint64_t bandwidth_bps,
       TimeNs prop_delay_ns);

  // Wires one side to a node interface. Side is 0 or 1.
  void attach(int side, Node* node, int ifindex);

  NetemQdisc& qdisc(int side) { return sides_[side].qdisc; }

  // Enqueues the burst at `from_side`'s egress and serializes it
  // back-to-back on the wire. Each packet enters the qdisc/wire at its own
  // logical timestamp (burst metadata at_ns, clamped to now) — so
  // per-packet wire math is identical to sending the packets one by one —
  // and the surviving packets reach the peer as one burst at the last
  // packet's arrival, each carrying its own arrival time in the metadata.
  // When the peer lives in another PDES domain, the packets cross through
  // the side's mailbox, the last one carrying this side's loop provenance.
  void transmit_burst(net::PacketBurst&& burst, int from_side);

  std::uint64_t bandwidth_bps() const noexcept { return bandwidth_bps_; }
  TimeNs prop_delay() const noexcept { return prop_delay_; }

  // ---- failure/churn machinery ----
  // Administrative/physical link state. While down, transmits from either
  // side are dropped at the egress (counted in SideStats::drops_link_down);
  // packets already on the wire still arrive — propagation is not recalled,
  // exactly like a fiber cut behind a long haul. Nodes read their side's
  // side_up() (Node::iface_link_down) for fast-reroute (seg6::FrrBackup)
  // before handing a burst to the link.
  // Network::schedule_link_down/up flip this from the event loop.
  //
  // The carrier is replicated per side: each end's domain flips (and reads)
  // only its own replica, so a link cut lands in both domains at the same
  // virtual instant without either thread touching the other's state. The
  // serial simulator flips both replicas in one event; set_up keeps doing
  // exactly that.
  void set_up(bool up) noexcept { side_up_[0] = side_up_[1] = up; }
  bool side_up(int side) const noexcept { return side_up_[side]; }
  void set_side_up(int side, bool up) noexcept { side_up_[side] = up; }

  // Bit-corruption fault model (sim/fault_injector.h): while the wall-clock
  // window [from_ns, to_ns) is active, each packet surviving `side`'s egress
  // qdisc/wire stage is independently corrupted with probability `prob` —
  // one uniformly random bit flips (electrical noise on a marginal optic).
  // Draws come from a dedicated per-side stream seeded here, so arming
  // corruption never perturbs the netem stream and existing scenarios
  // replay bit-identically. Corrupted packets still ship — the receiving
  // stack finds the damage (malformed header drop, misrouted prefix, ...)
  // and every outcome stays inside the conservation ledger.
  void set_side_corruption(int side, double prob, TimeNs from_ns, TimeNs to_ns,
                           std::uint64_t seed) {
    Side& s = sides_[side];
    s.corrupt_prob = prob;
    s.corrupt_from = from_ns;
    s.corrupt_to = to_ns;
    s.corrupt_rng = Rng(seed);
  }

  // ---- PDES surface (sim/pdes_domain.h) ----
  Node* side_node(int side) const noexcept { return sides_[side].node; }
  EventLoop& side_loop(int side) noexcept { return *sides_[side].loop; }
  // Rebinds one side's execution context at PdesNet::seal time: the domain
  // loop it schedules on, the RNG stream its qdisc draws from, and the
  // outbound mailbox (null = the peer shares the domain, deliver locally).
  void bind_side(int side, EventLoop& loop, Rng* rng, PdesMailbox* crossing);
  // Puts one packet that left `side`'s egress on that side's wire, with its
  // arrival in pkt.rx_tstamp_ns. Runs in the receiving domain: from
  // transmit_burst when the peer shares the domain, from the mailbox drain
  // when it does not. `n` > 0 closes a burst: the packet is the last of `n`
  // and `stamp` is the transmit's provenance.
  void land(int side, net::Packet&& pkt, std::uint32_t n,
            EventLoop::Stamp stamp);

  // Egress buffer size (drop-tail). Defaults to 512 KiB; WAN-access links
  // typically configure much less.
  void set_wire_queue_limit(std::uint32_t bytes) noexcept {
    wire_queue_limit_bytes_ = bytes;
  }

  struct SideStats {
    std::uint64_t tx_packets = 0;
    std::uint64_t tx_bytes = 0;
    std::uint64_t drops = 0;  // egress queue overflow (wire or netem loss)
    std::uint64_t drops_link_down = 0;  // transmit attempted while down
    std::uint64_t corrupted = 0;  // bit-flips injected (packet still shipped)
  };
  const SideStats& stats(int side) const { return sides_[side].stats; }

 private:
  // One transmitted burst on the wire.
  struct WireMark {
    TimeNs t = 0;            // its last arrival: the delivery time
    EventLoop::Stamp stamp;  // taken at transmit (the delivery's birth)
    std::uint32_t n = 0;     // its packets, the next n of the side's wire
  };
  struct Side {
    Node* node = nullptr;
    int ifindex = -1;
    NetemQdisc qdisc;
    TimeNs wire_free_at = 0;
    SideStats stats;
    EventLoop* loop = nullptr;       // this side's scheduling domain
    Rng* rng = nullptr;              // this side's netem stream
    PdesMailbox* crossing = nullptr; // outbound ring when the peer is remote
    // Corruption fault model (set_side_corruption). The stream is owned per
    // side: the side's domain is the only thread drawing from it.
    double corrupt_prob = 0.0;
    TimeNs corrupt_from = 0;
    TimeNs corrupt_to = 0;
    Rng corrupt_rng{0};
    // On the wire from this side, touched only by the receiving domain
    // (see the header comment).
    Ring<net::Packet> wire;
    Ring<WireMark> marks;
  };

  // Injects the head mark's delivery into the receiver's loop.
  void schedule_head(int side);
  // The head mark's event: hands its burst to the peer node.
  void deliver(int side);

  std::uint64_t bandwidth_bps_;
  TimeNs prop_delay_;
  std::uint32_t wire_queue_limit_bytes_ = 512 * 1024;
  bool side_up_[2] = {true, true};
  Side sides_[2];
};

}  // namespace srv6bpf::sim
