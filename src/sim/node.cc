#include "sim/node.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>

#include "ebpf/map.h"
#include "net/checksum.h"
#include "seg6/lwt.h"
#include "seg6/seg6local.h"
#include "util/byteorder.h"
#include "util/hash.h"

namespace srv6bpf::sim {

Node::Node(EventLoop& loop, Rng& rng, std::string name)
    : loop_(&loop), rng_(rng), name_(std::move(name)), ns_(name_),
      datapath_(*this) {
  ns_.clock = [this] { return loop_->now(); };
}

int Node::add_interface(Link& link, int side, const net::Ipv6Addr& addr) {
  const int ifindex = static_cast<int>(ifaces_.size());
  ifaces_.push_back(Iface{&link, side, addr, {}});
  ifaces_.back().rx_rings.resize(std::max<std::size_t>(ctxs_.size(), 1));
  link.attach(side, this, ifindex);
  ns_.add_local_addr(addr);
  return ifindex;
}

const net::Ipv6Addr& Node::interface_addr(int ifindex) const {
  if (ifindex < 0 || static_cast<std::size_t>(ifindex) >= ifaces_.size())
    throw std::out_of_range("interface_addr: no ifindex " +
                            std::to_string(ifindex) + " on " + name_);
  return ifaces_[static_cast<std::size_t>(ifindex)].addr;
}

void Node::size_contexts() {
  const std::size_t n = std::clamp<std::size_t>(cpu.ncpus, 1, ebpf::kMaxCpus);
  ctxs_.resize(n);
  for (std::size_t k = 0; k < n; ++k)
    ctxs_[k].id = static_cast<std::uint32_t>(k);
  for (Iface& iface : ifaces_) iface.rx_rings.resize(n);
}

NodeStats Node::stats() const {
  NodeStats total = nic_stats_;
  for (const CpuContext& ctx : ctxs_) total += ctx.stats;
  return total;
}

void Node::crash() {
  down_ = true;
  const TimeNs now = loop_->now();
  // Queued packets die with the node — flushed and counted, so every loss
  // stays attributed (the InvariantAuditor's ledger must balance).
  for (Iface& iface : ifaces_)
    for (RxRing& ring : iface.rx_rings)
      ring.flush([this](net::Packet&& p) {
        nic_stats_.note_drop(DropReason::kNodeDown, p.rx_tstamp_ns);
      });
  // Execution contexts reset: a crashed core's backlog and busy clock are
  // gone. A service event already in flight for a context is harmless — it
  // finds its rings empty and exits (and while down nothing can enqueue).
  for (CpuContext& ctx : ctxs_) {
    ctx.busy_until = now;
    ctx.servicing = false;
    ctx.rr_iface = 0;
  }
  // Soft state dies with the power: routes, SID bindings, eBPF map
  // contents. Map definitions and loaded programs survive (they are "on
  // disk"); clear() bumps each Fib's generation so every per-context cache
  // slot self-invalidates.
  for (auto& entry : ns_.tables()) entry.second.clear();
  ns_.seg6local().clear();
  ebpf::MapRegistry& maps = ns_.bpf().maps();
  for (std::uint32_t id = 1; id <= maps.count(); ++id)
    if (ebpf::Map* m = maps.get(id)) m->reset_contents();
}

void Node::restart() { down_ = false; }

const NodeStats& Node::cpu_stats(std::size_t k) const {
  if (k >= ctxs_.size())
    throw std::out_of_range("cpu_stats: no context " + std::to_string(k) +
                            " on " + name_);
  return ctxs_[k].stats;
}

std::uint32_t Node::rss_hash(const net::Packet& pkt) {
  // Jenkins one-at-a-time over the outer src, dst and flow label — the
  // tuple a NIC's RSS indirection hashes before any header the datapath may
  // rewrite. Per-flow stable by construction.
  if (pkt.size() < net::kIpv6HeaderSize) return 0;
  const std::uint8_t* p = pkt.data();
  OneAtATime h;
  h.mix(p + 8, 32);  // src (16) + dst (16)
  const std::uint8_t fl[3] = {static_cast<std::uint8_t>(p[1] & 0x0f), p[2],
                              p[3]};
  h.mix(fl, 3);
  return h.finish();
}

std::size_t Node::steer(const net::Packet& pkt) const {
  const std::size_t n = ctxs_.size();
  return n <= 1 ? 0 : rss_hash(pkt) % n;
}

void Node::enqueue_rx(net::Packet&& pkt, int ifindex) {
  CpuContext& ctx = contexts()[steer(pkt)];
  RxRing& ring =
      ifaces_[static_cast<std::size_t>(ifindex)].rx_rings[ctx.id];
  // Drop timestamps use the packet's own wire arrival (not the coalesced
  // event clock) so first-drop times stay burst-invariant — captured before
  // the push consumes the packet.
  const TimeNs arrival = pkt.rx_tstamp_ns;
  if (!ring.push(std::move(pkt), cpu.rx_queue_limit)) {
    nic_stats_.note_drop(DropReason::kRxQueue, arrival);
    return;
  }
  maybe_schedule_service(ctx);
}

void Node::receive_burst_from_link(net::PacketBurst&& burst, int ifindex) {
  if (down_) {
    // Crashed: the NIC still "sees" the bits but there is no stack to hand
    // them to. Counted per packet so the conservation ledger balances.
    for (std::size_t i = 0; i < burst.size(); ++i) {
      ++nic_stats_.rx_packets;
      nic_stats_.note_drop(DropReason::kNodeDown, burst.meta(i).at_ns);
    }
    return;
  }
  for (std::size_t i = 0; i < burst.size(); ++i) {
    ++nic_stats_.rx_packets;
    net::Packet& p = burst.pkt(i);
    // Each packet keeps its own wire arrival time, not the (coalesced)
    // delivery event's clock.
    p.rx_tstamp_ns = burst.meta(i).at_ns;
    p.ingress_ifindex = static_cast<std::uint32_t>(ifindex);
    p.dst() = net::DstEntry{};
  }
  if (!cpu.enabled) {
    process_and_dispatch(burst, /*local_out=*/false);
    return;
  }
  for (std::size_t i = 0; i < burst.size(); ++i)
    enqueue_rx(std::move(burst.pkt(i)), ifindex);
}

bool Node::rings_empty(const CpuContext& ctx) const {
  for (const Iface& iface : ifaces_)
    if (ctx.id < iface.rx_rings.size() && !iface.rx_rings[ctx.id].empty())
      return false;
  return true;
}

void Node::maybe_schedule_service(CpuContext& ctx) {
  if (ctx.servicing || rings_empty(ctx)) return;
  ctx.servicing = true;
  const TimeNs start = std::max(loop_->now(), ctx.busy_until);
  loop_->schedule_at_key(start, ctx.id,
                        [this, k = ctx.id] { service_burst(ctxs_[k]); });
}

void Node::service_burst(CpuContext& ctx) {
  net::PacketBurst b;
  const std::size_t budget =
      std::min(cpu.rx_burst > 0 ? cpu.rx_burst : 1, b.capacity());
  // Round-robin across this context's interface rings (NAPI's budget
  // rotation in miniature) so one busy NIC cannot starve the others.
  const std::size_t nif = ifaces_.size();
  for (std::size_t pass = 0; pass < nif && b.size() < budget; ++pass) {
    RxRing& ring = ifaces_[(ctx.rr_iface + pass) % nif].rx_rings[ctx.id];
    while (!ring.empty() && b.size() < budget) b.push(ring.pop());
  }
  if (nif > 0) ctx.rr_iface = (ctx.rr_iface + 1) % nif;
  if (b.empty()) {
    ctx.servicing = false;
    return;
  }
  ++ctx.stats.service_events;
  ctx.stats.serviced_packets += b.size();

  // Run the datapath on this context: shard accounting via cur_ctx_, CPU
  // identity to BPF via Netns::current_cpu.
  CpuContext* prev_ctx = cur_ctx_;
  const std::uint32_t prev_cpu = ns_.current_cpu;
  cur_ctx_ = &ctx;
  ns_.current_cpu = ctx.id;

  std::array<seg6::ProcessTrace, net::kMaxBurstPackets> traces;
  datapath_.process_burst(b, /*local_out=*/false, traces.data());

  // Per-packet completion times are exactly the sequential model's: packet i
  // finishes when this core has served every packet before it plus itself.
  TimeNs t = std::max(loop_->now(), ctx.busy_until);
  for (std::size_t i = 0; i < b.size(); ++i) {
    t += packet_cost_ns(cpu.profile, traces[i]);
    b.meta(i).at_ns = t;
  }
  ctx.busy_until = t;
  dispatch_burst(b);

  cur_ctx_ = prev_ctx;
  ns_.current_cpu = prev_cpu;

  if (!rings_empty(ctx))
    loop_->schedule_at_key(ctx.busy_until, ctx.id,
                          [this, k = ctx.id] { service_burst(ctxs_[k]); });
  else
    ctx.servicing = false;
}

void Node::send(net::Packet&& pkt) {
  if (down_) {
    nic_stats_.note_drop(DropReason::kNodeDown, loop_->now());
    return;
  }
  pkt.dst() = net::DstEntry{};
  net::PacketBurst b;
  b.push(std::move(pkt));
  process_and_dispatch(b, /*local_out=*/true);
}

void Node::send_burst(net::PacketBurst&& burst) {
  if (down_) {
    for (std::size_t i = 0; i < burst.size(); ++i)
      nic_stats_.note_drop(DropReason::kNodeDown, loop_->now());
    return;
  }
  for (std::size_t i = 0; i < burst.size(); ++i)
    burst.pkt(i).dst() = net::DstEntry{};
  process_and_dispatch(burst, /*local_out=*/true);
}

void Node::process_and_dispatch(net::PacketBurst& b, bool local_out) {
  if (b.empty()) return;
  // Non-service-event work (local sends, non-CPU-modelled forwarding) runs
  // on whatever context is current — context 0 when none is (re-entrant
  // ICMP/handler sends stay on the servicing core).
  CpuContext* prev_ctx = cur_ctx_;
  if (cur_ctx_ == nullptr) cur_ctx_ = &contexts()[0];

  std::array<seg6::ProcessTrace, net::kMaxBurstPackets> traces;
  datapath_.process_burst(b, local_out, traces.data());
  // A local send happens now. A received burst keeps each packet's own
  // arrival, which the link delivered in its metadata, so a local handler
  // sees every packet at the instant it came off the wire.
  if (local_out) {
    const TimeNs now = loop_->now();
    for (std::size_t i = 0; i < b.size(); ++i) b.meta(i).at_ns = now;
  }
  dispatch_burst(b);

  cur_ctx_ = prev_ctx;
}

void Node::dispatch_burst(net::PacketBurst& b) {
  NodeStats& stats = cur().stats;
  const std::size_t n = b.size();
  // Locals and invalid egress first, in packet order.
  for (std::size_t i = 0; i < n; ++i) {
    net::BurstSlotMeta& meta = b.meta(i);
    switch (meta.verdict) {
      case net::BurstVerdict::kLocal:
        ++stats.local_delivered;
        if (local_handler_) {
          // On a CPU-modelled node the packet completes at at_ns, later
          // than this service event: defer the handler so its side effects
          // (replies, timers) run at the same sim time as the sequential
          // model's dispatch-at-busy_until event.
          if (meta.at_ns > loop_->now()) {
            loop_->schedule_at(meta.at_ns,
                              [this, p = std::move(b.pkt(i))]() mutable {
                                local_handler_(std::move(p), loop_->now());
                              });
          } else {
            local_handler_(std::move(b.pkt(i)), meta.at_ns);
          }
        }
        break;
      case net::BurstVerdict::kForward:
        if (meta.oif < 0 || meta.oif >= static_cast<int>(ifaces_.size())) {
          stats.note_drop(DropReason::kNoRoute, meta.at_ns);
          meta.verdict = net::BurstVerdict::kDrop;
        } else if (iface_link_down(meta.oif)) {
          // Carrier is off and no FRR backup rescued the packet in the
          // datapath: charge the blackhole here, before the link would
          // silently eat it.
          stats.note_drop(DropReason::kLinkDown, meta.at_ns);
          meta.verdict = net::BurstVerdict::kDrop;
        }
        break;
      case net::BurstVerdict::kDrop:
      case net::BurstVerdict::kPending:
        break;  // specific drop counter already bumped in the datapath
    }
  }
  // Forwards, grouped per egress interface; packet order is preserved within
  // each link, and each group goes out as one burst transmit.
  std::array<bool, net::kMaxBurstPackets> consumed{};
  for (std::size_t i = 0; i < n; ++i) {
    if (consumed[i] || b.meta(i).verdict != net::BurstVerdict::kForward)
      continue;
    const int oif = b.meta(i).oif;
    net::PacketBurst tx;
    for (std::size_t j = i; j < n; ++j) {
      if (consumed[j] || b.meta(j).verdict != net::BurstVerdict::kForward ||
          b.meta(j).oif != oif)
        continue;
      consumed[j] = true;
      ++stats.tx_packets;
      if (b.pkt(j).tx_tstamp_ns == 0) b.pkt(j).tx_tstamp_ns = b.meta(j).at_ns;
      tx.push(std::move(b.pkt(j)), b.meta(j).at_ns);
    }
    Iface& iface = ifaces_[static_cast<std::size_t>(oif)];
    iface.link->transmit_burst(std::move(tx), iface.side);
  }
  b.clear();
}

void Node::send_icmp_time_exceeded(const net::Packet& orig) {
  if (ifaces_.empty()) return;
  if (orig.size() < net::kIpv6HeaderSize) return;
  net::Ipv6Header oh =
      *net::Ipv6Header::parse({orig.data(), orig.size()});
  if (oh.next_header == net::kProtoIcmp6) return;  // never ICMP about ICMP
  ++cur().stats.icmp_time_exceeded_sent;

  // ICMPv6 Time Exceeded: type 3, code 0, 4 unused bytes, then as much of
  // the invoking packet as fits.
  const std::size_t quoted = std::min<std::size_t>(orig.size(), 128);
  std::vector<std::uint8_t> icmp(8 + quoted, 0);
  icmp[0] = 3;  // time exceeded
  icmp[1] = 0;  // hop limit exceeded in transit
  std::memcpy(icmp.data() + 8, orig.data(), quoted);

  net::Ipv6Header ih;
  ih.src = ifaces_[0].addr;
  ih.dst = oh.src;
  ih.next_header = net::kProtoIcmp6;
  ih.hop_limit = 64;
  ih.payload_length = static_cast<std::uint16_t>(icmp.size());

  const std::uint16_t csum =
      net::transport_checksum(ih.src, ih.dst, net::kProtoIcmp6, icmp);
  store_be16(icmp.data() + 2, csum);

  net::Packet reply;
  std::uint8_t* base = reply.push_front(net::kIpv6HeaderSize + icmp.size());
  ih.write(base);
  std::memcpy(base + net::kIpv6HeaderSize, icmp.data(), icmp.size());
  send(std::move(reply));
}

}  // namespace srv6bpf::sim
