// Node: a simulated machine (server, router or CPE) running the seg6/eBPF
// network stack.
//
// Owns a seg6::Netns (FIB tables, seg6local SIDs, BPF subsystem), a set of
// interfaces attached to links, and an optional CPU service model that turns
// per-packet processing cost (sim/costmodel.h) into a forwarding-rate cap
// with a bounded RX backlog — exactly how the paper's single-core routers
// saturate at 610 kpps while the source offers 3 Mpps.
//
// Forwarding is burst-oriented and (optionally) multi-core. The CPU model is
// `Cpu::ncpus` independent execution contexts (`CpuContext`), each with its
// own busy_until clock, its own NodeStats shard and its own FIB route-cache
// slot — the paper pins all IRQs to one core (ncpus = 1, the default, which
// reproduces its figures bit-for-bit); raising ncpus models how Linux scales
// the same datapath with RSS. An RSS steering stage hashes each arriving
// packet's IPv6 flow tuple (src, dst, flow label) to a context, so every
// flow is serviced by exactly one context and per-flow ordering is
// structural; each context then drains *its* per-interface RX rings
// round-robin (NAPI polling per core) up to Cpu::rx_burst packets per
// service event and runs them through the staged Datapath (sim/datapath.h).
// While a context runs, Netns::current_cpu carries its id into the eBPF
// ExecEnv, giving programs bpf_get_smp_processor_id and per-CPU map slots.
//
// The per-packet *charged* CPU cost, each context's completion times and
// local delivery times follow the sequential model exactly. A link moves a
// burst in one delivery event at its last wire arrival (interrupt
// coalescing), but every packet keeps its own arrival in the burst
// metadata, and a local handler sees it at that instant. What burst size
// may shift is at the edges: a node without a CPU model forwards a whole
// received burst at the delivery event's clock, and a BPF program reading
// bpf_ktime_get_ns sees the service event's clock for the whole burst
// rather than per-packet staggered clocks. Delivery digests, traces and
// final stats are burst-invariant (tests/burst_test.cc, tests/mc_test.cc)
// and ncpus=1 runs are bit-identical to the historical single-core path.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/burst.h"
#include "net/packet.h"
#include "seg6/ctx.h"
#include "sim/costmodel.h"
#include "sim/datapath.h"
#include "sim/event_loop.h"
#include "sim/link.h"
#include "sim/ring.h"
#include "sim/stats.h"
#include "util/rng.h"

namespace srv6bpf::sim {

class Node {
 public:
  Node(EventLoop& loop, Rng& rng, std::string name);

  const std::string& name() const noexcept { return name_; }
  seg6::Netns& ns() noexcept { return ns_; }
  EventLoop& loop() noexcept { return *loop_; }

  // Repoints this node's scheduling (and its clock) at a PDES domain loop
  // (PdesNet::seal). Everything the node or its apps schedule afterwards —
  // CPU service events, deferred local deliveries, trafgen ticks — lands in
  // the domain. Only valid while the node is quiescent: before traffic
  // starts and with nothing in flight.
  void bind_loop(EventLoop& loop) noexcept { loop_ = &loop; }

  // ---- interfaces ----
  // Registers an interface attached to `link` at `side` with address `addr`
  // (added as a local address). Returns the ifindex.
  int add_interface(Link& link, int side, const net::Ipv6Addr& addr);
  std::size_t interface_count() const noexcept { return ifaces_.size(); }
  // Throws std::out_of_range on a bad ifindex.
  const net::Ipv6Addr& interface_addr(int ifindex) const;
  // The link attached at `ifindex`, or nullptr for a bad index. The fault
  // injector walks a crashing node's adjacencies with this to cut carrier on
  // every attached link (one event per side replica, in that side's domain).
  Link* interface_link(int ifindex) const noexcept {
    if (ifindex < 0 || static_cast<std::size_t>(ifindex) >= ifaces_.size())
      return nullptr;
    return ifaces_[static_cast<std::size_t>(ifindex)].link;
  }
  // True when `oif` names a valid interface whose attached link is down —
  // the condition that triggers a route's fast-reroute backup in the
  // datapath and the drops_link_down counter at dispatch. Reads this side's
  // carrier replica only, so under PDES partitioning the check never
  // touches the peer domain's state (and sees the cut at exactly the
  // instant this domain's link-down event fires).
  bool iface_link_down(int oif) const noexcept {
    if (oif < 0 || static_cast<std::size_t>(oif) >= ifaces_.size())
      return false;
    const Iface& ifc = ifaces_[static_cast<std::size_t>(oif)];
    return ifc.link != nullptr && !ifc.link->side_up(ifc.side);
  }

  // ---- CPU service model ----
  struct Cpu {
    bool enabled = false;  // hosts: off; routers under test: on
    CpuProfile profile = kXeonProfile;
    std::size_t rx_queue_limit = 512;  // per (interface, context) RX ring
    // Packets drained per service event (the NAPI poll budget); capped at
    // net::kMaxBurstPackets. Trades simulator efficiency against delivery
    // coalescing granularity; charged costs and counts are burst-invariant.
    std::size_t rx_burst = kDefaultRxBurst;
    // RSS execution contexts (cores servicing this node's datapath).
    // Clamped to [1, ebpf::kMaxCpus]; 1 = the paper's single pinned core.
    // Set before traffic starts: contexts and their RX rings are sized on
    // first use, and a later change has no effect.
    std::size_t ncpus = 1;
  };
  Cpu cpu;

  // One RSS execution context: a core's scheduling state and stats shard.
  // (Its FIB route-cache slot lives in the Netns, selected by
  // Netns::current_cpu, so the seg6 helper paths reach it too.)
  struct CpuContext {
    std::uint32_t id = 0;
    TimeNs busy_until = 0;
    bool servicing = false;
    std::size_t rr_iface = 0;  // round-robin ring drain cursor
    NodeStats stats;
  };

  // ---- traffic entry points ----
  // Burst arrival (Link::transmit_burst): each packet carries its own wire
  // arrival time in the burst metadata.
  void receive_burst_from_link(net::PacketBurst&& burst, int ifindex);
  // Local output path (applications sending); bypasses the CPU model and the
  // hop-limit decrement, like a locally originated skb.
  void send(net::Packet&& pkt);
  // Vector local output: the whole burst enters the datapath at once.
  void send_burst(net::PacketBurst&& burst);

  // Delivery callback for locally addressed packets.
  using LocalHandler = std::function<void(net::Packet&&, TimeNs now)>;
  void set_local_handler(LocalHandler handler) {
    local_handler_ = std::move(handler);
  }

  // ---- crash / restart (fault injection; sim/fault_injector.h) ----
  // Models a power-fail crash at the current instant: every RX ring flushes
  // (each queued packet counted as drops_node_down), per-CPU contexts reset
  // (busy clocks, service flags, drain cursors), and the soft state dies —
  // FIB tables, seg6local SID bindings and eBPF map *contents* are wiped
  // (program text, map definitions and interface config survive, like
  // binaries on disk). Until restart() the node blackholes: arrivals and
  // local sends drop with drops_node_down. Link carrier is not touched
  // here — under PDES each side's replica must flip in its own domain, so
  // that is the FaultInjector's job.
  void crash();
  // Power back on: the node forwards again, but with a cold (empty) FIB
  // until the control-plane re-installer repopulates it — meanwhile traffic
  // drops with no_route here and neighbors degrade to their seg6::FrrBackup
  // paths.
  void restart();
  bool is_down() const noexcept { return down_; }

  // NIC/IRQ-side drop charge from outside the datapath (traffic generators
  // refused admission by the BufferPool cap, fault machinery): lands in the
  // pre-steering stats shard so Node::stats() and the conservation ledger
  // see it.
  void note_nic_drop(DropReason reason, TimeNs at_ns) {
    nic_stats_.note_drop(reason, at_ns);
  }

  // ---- stats ----
  // Aggregated view: NIC/IRQ-side counters plus the sum of every context's
  // shard. The per-context breakdown is cpu_stats(k).
  NodeStats stats() const;
  std::size_t context_count() const noexcept { return ctxs_.size(); }
  // Shard of context `k`; throws std::out_of_range past context_count().
  const NodeStats& cpu_stats(std::size_t k) const;

  // RSS steering hash over the outer IPv6 flow tuple (src, dst, flow
  // label) — exposed so tests and benches can predict context placement.
  static std::uint32_t rss_hash(const net::Packet& pkt);

 private:
  friend class Datapath;

  struct Iface {
    Link* link = nullptr;
    int side = 0;
    net::Ipv6Addr addr;
    // CPU-model ingress backlog: one RX ring per CPU context (the NIC's RSS
    // queues), sized with the context vector. RxRing slot storage is
    // allocated once at rx_queue_limit and recycled in place — steady-state
    // enqueue/drain never touches the allocator.
    std::vector<RxRing> rx_rings;
  };

  // The context vector, sized on the node's first datapath use.
  std::vector<CpuContext>& contexts() {
    if (ctxs_.empty()) size_contexts();
    return ctxs_;
  }
  // Sizes ctxs_, then every interface's ring vector, to the clamped
  // cpu.ncpus.
  void size_contexts();
  std::size_t steer(const net::Packet& pkt) const;  // RSS: packet -> context
  void enqueue_rx(net::Packet&& pkt, int ifindex);
  void maybe_schedule_service(CpuContext& ctx);
  void service_burst(CpuContext& ctx);
  bool rings_empty(const CpuContext& ctx) const;
  // Non-CPU path: datapath + dispatch at the current time.
  void process_and_dispatch(net::PacketBurst& burst, bool local_out);
  // Delivers verdicts: locals to the handler, forwards grouped per egress
  // interface into Link::transmit_burst at their per-packet timestamps.
  void dispatch_burst(net::PacketBurst& burst);
  void send_icmp_time_exceeded(const net::Packet& orig);

  // Execution-context accounting target. While a context services a burst
  // (or the non-CPU path runs on context 0) cur_ctx_ points at it; datapath
  // and dispatch charge cur().stats and use cur().fib_cache. Re-entrant
  // work (ICMP generation, local handlers that send) stays on the current
  // context, as it would on a real core.
  CpuContext& cur() noexcept { return *cur_ctx_; }

  EventLoop* loop_;  // rebindable: PdesNet::seal moves the node into a domain
  Rng& rng_;
  std::string name_;
  seg6::Netns ns_;
  std::vector<Iface> ifaces_;
  LocalHandler local_handler_;
  Datapath datapath_;

  std::vector<CpuContext> ctxs_;
  CpuContext* cur_ctx_ = nullptr;
  bool down_ = false;  // crashed (crash()) and not yet restart()ed
  // NIC/IRQ-side counters charged before RSS steering picks a context
  // (rx_packets, ring-overflow drops).
  NodeStats nic_stats_;
};

}  // namespace srv6bpf::sim
