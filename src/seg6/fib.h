// IPv6 forwarding information base with ECMP, per routing table.
//
// Longest-prefix-match is backed by the shared multibit-stride trie engine
// (util/lpm_trie.h) — the same engine behind BPF_MAP_TYPE_LPM_TRIE — storing
// route indices as values: a /48 lookup is 6 byte-indexed node hops instead
// of 48 bit tests (bench/lpm_sweep.cc tracks the ratio). Nexthop selection
// for multipath routes uses a 5-tuple flow hash, like the kernel's
// flowlabel/5-tuple ECMP (§4.3's End.OAMP queries these nexthops); a
// one-nexthop route has no choice to make and never hashes the packet.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ebpf/program.h"
#include "ebpf/vm.h"
#include "net/ip6.h"
#include "net/packet.h"
#include "util/lpm_trie.h"

namespace srv6bpf::seg6 {

struct Nexthop {
  net::Ipv6Addr via;  // gateway; unspecified (::) means on-link
  int oif = -1;       // egress interface index
  int weight = 1;

  friend bool operator==(const Nexthop&, const Nexthop&) = default;
};

// Lightweight tunnel state attached to a route (seg6 encap / BPF), applied
// at the route's xmit hook (seg6/lwt.h).
struct LwtState {
  enum class Kind { kNone, kSeg6Encap, kBpf };
  Kind kind = Kind::kNone;

  // kSeg6Encap: segment list in travel order.
  std::vector<net::Ipv6Addr> segments;

  // kBpf: the xmit hook's program (null: the route forwards untouched).
  ebpf::ProgHandle prog_xmit;
};

// Precomputed SRv6 fast-reroute backup attached to a route (TI-LFA shape):
// when the primary nexthop's egress link is down at forwarding time, the
// point of local repair encapsulates the packet with `segments` (travel
// order — typically a repair End/End.X SID on a neighbor that avoids the
// failed link, then an End.DT6 SID past it that decaps toward the original
// destination) and forwards it out the precomputed backup adjacency `nh`.
// Because everything is computed at route-install time, activation is pure
// datapath — no control-plane round trip, which is the whole point: the
// blackhole lasts one forwarding decision instead of an IGP convergence
// (bench/slo_soak.cc measures both).
struct FrrBackup {
  std::vector<net::Ipv6Addr> segments;  // repair segment list, travel order
  Nexthop nh;  // backup End.X adjacency; oif < 0 = re-run the FIB lookup on
               // the new outer destination instead of forwarding directly
};

struct Route {
  net::Prefix prefix;
  std::vector<Nexthop> nexthops;       // >1 entries = ECMP
  std::shared_ptr<LwtState> lwt;       // optional tunnel state
  std::shared_ptr<FrrBackup> frr{};    // optional fast-reroute backup
};

class Fib;

// One-entry route-cache slot, owned by the *caller* (one per CPU context in
// the multi-core Node) rather than by the table: a shared per-table cache
// would be mutable state every context writes on every lookup — exactly the
// cross-core cache-line contention per-CPU data exists to avoid. A slot is
// valid only for the table and mutation generation it recorded, so table
// churn (which may also reallocate the route storage) can never leave a
// dangling Route* behind.
//
// The slot is a layer *above* the stride trie, not a substitute for it: it
// short-circuits the repeated-destination case (a burst run-grouped on one
// dst pays one trie walk), while the trie keeps multi-destination traffic —
// which defeats any one-entry cache — at O(key bytes) per miss.
struct FibCacheSlot {
  const Fib* fib = nullptr;
  std::uint64_t gen = 0;
  net::Ipv6Addr dst{};
  const Route* route = nullptr;  // negative results cached as nullptr
};

class Fib {
 public:
  void add_route(Route route);
  // Convenience: single-nexthop route.
  void add_route(const net::Prefix& prefix, const Nexthop& nh) {
    add_route(Route{prefix, {nh}, nullptr, nullptr});
  }
  // Withdraws the route for exactly `prefix` (route churn / IGP withdraw).
  // Returns false when no route with that exact prefix exists. Like every
  // mutation this bumps the generation, invalidating all cache slots.
  bool remove_route(const net::Prefix& prefix);
  void clear();

  // Longest-prefix match; nullptr when no route covers `dst`. Consults
  // `slot` first (a burst of packets to one destination walks the trie
  // once); a slot is revalidated against this table's mutation generation.
  // On a slot miss the cost is the stride trie's: at most 16 byte-indexed
  // node hops, typically ceil(prefixlen/8) + 1. The returned Route* is valid
  // until the next table mutation (add_route/remove_route/clear).
  const Route* lookup(const net::Ipv6Addr& dst, FibCacheSlot& slot) const;
  // Legacy entry point backed by a table-internal slot (single-context
  // callers: tests, apps, control-plane code).
  const Route* lookup(const net::Ipv6Addr& dst) const {
    return lookup(dst, own_slot_);
  }

  // Observability for benches/tests: how often lookup() was answered by a
  // one-entry cache slot, summed over every slot (per-context and internal)
  // that queried this table.
  std::uint64_t cache_hits() const noexcept { return cache_hits_; }

  // ECMP selection for `pkt`: a one-nexthop route returns its nexthop
  // without reading the packet; a multipath route maps the packet's
  // flow_hash through the overload below. This is the forwarding path's
  // entry point. Requires a non-empty nexthop list.
  static const Nexthop& select_nexthop(const Route& route,
                                       const net::Packet& pkt);
  // The weighted hash-threshold mapping: picks the nexthop for
  // `flow_hash`, deterministic per flow and proportional to weight.
  // Requires a non-empty nexthop list.
  static const Nexthop& select_nexthop(const Route& route,
                                       std::uint32_t flow_hash);

  // The live routes, one per installed prefix, in no particular order.
  std::size_t route_count() const noexcept { return routes_.size(); }
  const std::vector<Route>& routes() const noexcept { return routes_; }

 private:
  std::vector<Route> routes_;
  // 16 address bytes + prefixlen -> u32 route index, stride-8 LPM engine.
  util::LpmTrie<std::uint32_t> trie_{16};
  // Mutation generation: bumped by every mutation, implicitly invalidating
  // every FibCacheSlot that recorded an older value (and with them any
  // Route* into a since-reallocated or since-reshuffled routes_).
  std::uint64_t gen_ = 1;
  // Slot behind the legacy lookup(dst); mutable as lookup() is logically
  // const.
  mutable FibCacheSlot own_slot_;
  mutable std::uint64_t cache_hits_ = 0;
};

// 5-tuple flow hash over the *innermost* IPv6+transport headers of a packet
// (so ECMP keeps flows on one path even when encapsulated upstream), as
// net::walk_header_chain reports them; it reads no byte past the packet.
// 0 for a packet that does not start with a whole IPv6 header.
std::uint32_t flow_hash(const net::Packet& pkt);

// Resolves `nh` into the packet's dst metadata: the next hop is the gateway,
// or `dst` itself when the nexthop is on-link.
inline void set_nexthop(net::Packet& pkt, const Nexthop& nh,
                        const net::Ipv6Addr& dst) {
  pkt.dst().nexthop = nh.via.is_unspecified() ? dst : nh.via;
  pkt.dst().oif = nh.oif;
  pkt.dst().valid = true;
}

}  // namespace srv6bpf::seg6
