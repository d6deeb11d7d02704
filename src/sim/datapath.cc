#include "sim/datapath.h"

#include <array>

#include "seg6/lwt.h"
#include "seg6/seg6local.h"
#include "sim/node.h"

namespace srv6bpf::sim {

namespace {

// Scratch the stages share for one burst. Lives on the caller's stack so the
// pipeline stays re-entrant (ICMP generation sends from inside a burst), and
// is written only for the burst's packets.
struct BurstState {
  std::array<seg6::PipelineResult, net::kMaxBurstPackets> r;
  std::array<bool, net::kMaxBurstPackets> active;
};

}  // namespace

void Datapath::process_burst(net::PacketBurst& b, bool local_out,
                             seg6::ProcessTrace* traces) {
  const std::size_t n = b.size();
  Node& node = node_;
  seg6::Netns& ns = node.ns();
  // Everything this run charges lands on the invoking CPU context: its
  // NodeStats shard (Node::cur() is set by the service event / local-out
  // entry points before we get here) and, inside the route lookups, the
  // netns's per-context FIB cache slot selected by Netns::current_cpu.
  NodeStats& stats = node.cur().stats;

  // Drop charging goes through note_drop so per-reason first-occurrence
  // timestamps are captured. The time used is the packet's own logical time —
  // wire arrival for received packets, the entry clock for locally
  // originated ones — never the (coalescing-dependent) service event clock,
  // keeping the timestamps burst-invariant.
  const TimeNs entry_now = node.loop().now();
  auto drop_time = [entry_now](const net::Packet& p) {
    return p.rx_tstamp_ns != 0 ? static_cast<TimeNs>(p.rx_tstamp_ns)
                               : entry_now;
  };

  BurstState st;
  // Group scratch: packet/trace views over one run of packets that share a
  // lookup key (destination or route). A group is the contiguous run
  // [start, j) of the burst, so its results land straight in st.r[start..].
  std::array<net::Packet*, net::kMaxBurstPackets> gp;
  std::array<seg6::ProcessTrace*, net::kMaxBurstPackets> gt;

  // Finalizers: the packet leaves the rounds. Drop sites charge their own
  // reason before calling finish_drop.
  auto finish_drop = [&](std::size_t i) {
    b.meta(i).verdict = net::BurstVerdict::kDrop;
    st.active[i] = false;
  };
  auto finish_local = [&](std::size_t i) {
    b.meta(i).verdict = net::BurstVerdict::kLocal;
    st.active[i] = false;
  };

  // ---- Stage 1: classify ---------------------------------------------------
  for (std::size_t i = 0; i < n; ++i) {
    traces[i].reset();
    st.r[i] = seg6::PipelineResult::cont(0);
    st.active[i] = true;
    net::Packet& p = b.pkt(i);
    if (p.size() < net::kIpv6HeaderSize || p.ipv6().version() != 6) {
      stats.note_drop(DropReason::kMalformed, drop_time(p));
      finish_drop(i);
    }
  }

  // ---- Stages 2+3: lookup rounds (seg6local / local / lwt + fib) -----------
  // Each round settles the packets whose disposition is final, then looks
  // up the rest run-grouped by (destination, table): SID table first, then
  // local addresses, then the FIB. SID behaviours, encapsulations and
  // rewritten destinations come back for another round; the bound defeats
  // routing loops inside one node.
  for (int round = 0; round < 4; ++round) {
    std::size_t still_continue = 0;

    // Settle.
    for (std::size_t i = 0; i < n; ++i) {
      if (!st.active[i]) continue;
      net::Packet& p = b.pkt(i);
      switch (st.r[i].disposition) {
        case seg6::Disposition::kDrop:
          stats.note_drop(DropReason::kVerdict, drop_time(p));
          finish_drop(i);
          break;
        case seg6::Disposition::kLocal:
          finish_local(i);
          break;
        case seg6::Disposition::kUseRoute:
          // Only produced inside the kContinue handling; treated there.
          stats.note_drop(DropReason::kNoRoute, drop_time(p));
          finish_drop(i);
          break;
        case seg6::Disposition::kForward: {
          if (!p.dst().valid) {
            stats.note_drop(DropReason::kNoRoute, drop_time(p));
            finish_drop(i);
            break;
          }
          b.meta(i).oif = p.dst().oif;
          if (!local_out) {
            const std::uint8_t hl = p.ipv6().hop_limit();
            if (hl <= 1) {
              stats.note_drop(DropReason::kTtl, drop_time(p));
              node.send_icmp_time_exceeded(p);
              finish_drop(i);
              break;
            }
            p.ipv6().set_hop_limit(static_cast<std::uint8_t>(hl - 1));
          }
          b.meta(i).verdict = net::BurstVerdict::kForward;
          st.active[i] = false;
          break;
        }
        case seg6::Disposition::kContinue:
          ++still_continue;
          break;
      }
    }
    if (still_continue == 0) break;

    // Continue handling, run-grouped by (destination, table).
    std::size_t i = 0;
    while (i < n) {
      if (!st.active[i]) {
        ++i;
        continue;
      }
      const net::Ipv6Addr dst = b.pkt(i).ipv6().dst();
      const int table = st.r[i].table;
      const std::size_t start = i;
      std::size_t m = 0;
      std::size_t j = i;
      for (; j < n && st.active[j] && st.r[j].table == table &&
             b.pkt(j).ipv6().dst() == dst;
           ++j) {
        gp[m] = &b.pkt(j);
        gt[m] = &traces[j];
        ++m;
      }
      i = j;
      seg6::PipelineResult* gr = &st.r[start];

      if (const seg6::Seg6LocalEntry* sid = ns.seg6local().lookup(dst)) {
        seg6::seg6local_process_burst(ns, {gp.data(), m}, *sid, gt.data(),
                                      gr);
        continue;  // next round settles
      }
      if (ns.is_local(dst)) {
        for (std::size_t k = 0; k < m; ++k) finish_local(start + k);
        continue;
      }

      const seg6::Fib* fib = ns.find_table(table);
      const seg6::Route* route =
          fib ? fib->lookup(dst, ns.fib_cache_slot()) : nullptr;
      for (std::size_t k = 0; k < m; ++k) ++gt[k]->fib_lookups;
      if (route == nullptr) {
        for (std::size_t k = 0; k < m; ++k) {
          stats.note_drop(DropReason::kNoRoute, drop_time(*gp[k]));
          finish_drop(start + k);
        }
        continue;
      }

      // Resolves the route's own nexthop into the packet's dst metadata
      // (ECMP per-packet on a multipath route: the flow hash keeps flows on
      // one path; a one-nexthop route skips the hash). When the
      // selected nexthop's egress link is down and the route carries a
      // precomputed TI-LFA backup, the point-of-local-repair path activates
      // right here: encapsulate with the repair segment list and steer out
      // the backup adjacency (or re-run the lookup on the new outer
      // destination when the backup has no pinned interface).
      auto take_nexthop = [&](std::size_t k) {
        if (route->nexthops.empty()) {
          stats.note_drop(DropReason::kNoRoute, drop_time(*gp[k]));
          finish_drop(start + k);
          return;
        }
        net::Packet& p = *gp[k];
        const seg6::Nexthop& nh = seg6::Fib::select_nexthop(*route, p);
        if (node.iface_link_down(nh.oif) && route->frr != nullptr) {
          const seg6::FrrBackup& frr = *route->frr;
          if (!frr.segments.empty()) {
            if (!seg6::seg6_do_encap(p, frr.segments, ns.encap_src(p))) {
              stats.note_drop(DropReason::kLinkDown, drop_time(p));
              finish_drop(start + k);
              return;
            }
            ++gt[k]->encaps;
          }
          ++stats.frr_reroutes;
          if (frr.nh.oif >= 0 && !node.iface_link_down(frr.nh.oif)) {
            seg6::set_nexthop(p, frr.nh, p.ipv6().dst());
            gr[k] = seg6::PipelineResult::forward();
          } else {
            // No pinned backup adjacency: the rewritten outer destination
            // (the first repair segment) goes back for another lookup round.
            gr[k] = seg6::PipelineResult::cont(0);
          }
          return;
        }
        seg6::set_nexthop(p, nh, dst);
        gr[k] = seg6::PipelineResult::forward();
      };

      if (route->lwt && route->lwt->kind != seg6::LwtState::Kind::kNone) {
        seg6::lwt_process_burst(ns, {gp.data(), m}, *route->lwt,
                                seg6::LwtHook::kXmit, gt.data(), gr);
        for (std::size_t k = 0; k < m; ++k)
          if (gr[k].disposition == seg6::Disposition::kUseRoute)
            take_nexthop(k);
        continue;
      }
      for (std::size_t k = 0; k < m; ++k) take_nexthop(k);
    }
  }

  // Lookup rounds exhausted: whatever is still in flight loops.
  for (std::size_t i = 0; i < n; ++i) {
    if (!st.active[i]) continue;
    stats.note_drop(DropReason::kNoRoute, drop_time(b.pkt(i)));
    finish_drop(i);
  }

  for (std::size_t i = 0; i < n; ++i) stats.account(traces[i]);
}

}  // namespace srv6bpf::sim
