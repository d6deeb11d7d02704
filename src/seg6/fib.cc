#include "seg6/fib.h"

#include <climits>
#include <cstring>
#include <stdexcept>

#include "net/srh.h"
#include "net/transport.h"
#include "util/byteorder.h"
#include "util/hash.h"

namespace srv6bpf::seg6 {

void Fib::add_route(Route route) {
  if (route.nexthops.empty() && !route.lwt)
    throw std::invalid_argument("route needs nexthops or tunnel state");
  // select_nexthop sums the weights in an int.
  int total = 0;
  for (const Nexthop& nh : route.nexthops) {
    if (nh.weight <= 0) throw std::invalid_argument("nexthop weight must be > 0");
    if (nh.weight > INT_MAX - total)
      throw std::invalid_argument("nexthop weights sum past INT_MAX");
    total += nh.weight;
  }

  bool created = false;
  std::uint32_t* slot = trie_.find_or_insert(
      route.prefix.addr.bytes().data(),
      static_cast<std::uint32_t>(route.prefix.len), created);
  // Re-adding an existing prefix replaces its route in place (BPF_ANY
  // semantics), so routes_ holds exactly the live routes.
  if (created) {
    *slot = static_cast<std::uint32_t>(routes_.size());
    routes_.push_back(std::move(route));
  } else {
    routes_[*slot] = std::move(route);
  }
  ++gen_;
}

bool Fib::remove_route(const net::Prefix& prefix) {
  const std::uint32_t* slot = trie_.find_exact(
      prefix.addr.bytes().data(), static_cast<std::uint32_t>(prefix.len));
  if (slot == nullptr) return false;
  const std::uint32_t index = *slot;
  trie_.erase(prefix.addr.bytes().data(),
              static_cast<std::uint32_t>(prefix.len));
  // Swap-remove keeps routes_ dense; the route moved into the hole gets its
  // trie entry repointed. The generation bump invalidates every cache slot
  // that may hold a pointer at the withdrawn or the moved route.
  if (index + 1 != routes_.size()) {
    routes_[index] = std::move(routes_.back());
    const net::Prefix& moved = routes_[index].prefix;
    *trie_.find_exact(moved.addr.bytes().data(),
                      static_cast<std::uint32_t>(moved.len)) = index;
  }
  routes_.pop_back();
  ++gen_;
  return true;
}

void Fib::clear() {
  routes_.clear();
  trie_.clear();
  ++gen_;
}

const Route* Fib::lookup(const net::Ipv6Addr& dst, FibCacheSlot& slot) const {
  if (slot.fib == this && slot.gen == gen_ && slot.dst == dst) {
    ++cache_hits_;
    return slot.route;
  }
  const std::uint32_t* v = trie_.lookup(dst.bytes().data());
  const Route* route = v != nullptr ? &routes_[*v] : nullptr;
  slot.fib = this;
  slot.gen = gen_;
  slot.dst = dst;
  slot.route = route;
  return route;
}

const Nexthop& Fib::select_nexthop(const Route& route,
                                   const net::Packet& pkt) {
  // The hash only picks among nexthops: with one there is nothing to pick.
  if (route.nexthops.size() == 1) return route.nexthops.front();
  return select_nexthop(route, flow_hash(pkt));
}

const Nexthop& Fib::select_nexthop(const Route& route,
                                   std::uint32_t flow_hash) {
  if (route.nexthops.empty())
    throw std::logic_error("select_nexthop on route without nexthops");
  int total = 0;
  for (const Nexthop& nh : route.nexthops) total += nh.weight;
  // Weighted hash-threshold: deterministic per flow, proportional to weight.
  int slot = static_cast<int>(flow_hash % static_cast<std::uint32_t>(total));
  for (const Nexthop& nh : route.nexthops) {
    slot -= nh.weight;
    if (slot < 0) return nh;
  }
  return route.nexthops.back();
}

std::uint32_t flow_hash(const net::Packet& pkt) {
  // Walk to the innermost IPv6 header (through SRH and IPv6-in-IPv6), then
  // hash {src, dst, proto, ports}. Jenkins one-at-a-time.
  const std::uint8_t* p = pkt.data();
  std::size_t len = pkt.size();
  std::uint8_t proto = 0;
  const std::uint8_t* transport = nullptr;
  if (len < net::kIpv6HeaderSize) return 0;

  int guard = 8;
  while (guard-- > 0 && len >= net::kIpv6HeaderSize && (p[0] >> 4) == 6) {
    proto = p[6];
    const std::uint8_t* next = p + net::kIpv6HeaderSize;
    std::size_t next_len = len - net::kIpv6HeaderSize;
    if (proto == net::kProtoRouting && next_len >= net::kSrhFixedSize) {
      const std::size_t srh_len = (static_cast<std::size_t>(next[1]) + 1) * 8;
      if (srh_len > next_len) break;
      proto = next[0];
      next += srh_len;
      next_len -= srh_len;
    }
    if (proto == net::kProtoIpv6) {
      p = next;
      len = next_len;
      continue;
    }
    transport = next;
    len = next_len;
    break;
  }

  OneAtATime h;
  // src+dst of the innermost IPv6 header currently at `p`.
  h.mix(p + 8, 32);
  h.mix(&proto, 1);
  if (transport != nullptr &&
      (proto == net::kProtoUdp || proto == net::kProtoTcp))
    h.mix(transport, 4);  // both ports
  return h.finish();
}

}  // namespace srv6bpf::seg6
