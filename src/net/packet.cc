#include "net/packet.h"

#include <algorithm>
#include <cstring>

#include "net/checksum.h"
#include "net/transport.h"
#include "util/byteorder.h"

namespace srv6bpf::net {

Packet::Packet(std::span<const std::uint8_t> contents, std::size_t headroom) {
  store_.buf = BufferPool::acquire(headroom + contents.size());
  store_.head = static_cast<std::uint32_t>(headroom);
  store_.len = static_cast<std::uint32_t>(contents.size());
  if (!contents.empty())
    std::memcpy(data(), contents.data(), contents.size());
}

Packet::Storage::Storage(const Storage& other)
    : head(other.head), len(other.len) {
  if (other.buf != nullptr) {
    buf = BufferPool::acquire(other.head + other.len);
    std::memcpy(buf->data() + head, other.buf->data() + other.head, len);
  }
}

Packet::Storage& Packet::Storage::operator=(const Storage& other) {
  if (this == &other) return *this;
  if (other.buf == nullptr) {
    BufferPool::release(buf);
    buf = nullptr;
  } else {
    // Reuse the held buffer when it fits: assigning over a warm packet
    // (burst snapshots in tests, user code) skips the release/acquire
    // round-trip.
    if (buf == nullptr || buf->cap < other.head + other.len) {
      BufferPool::release(buf);
      buf = BufferPool::acquire(other.head + other.len);
    }
    std::memcpy(buf->data() + other.head, other.buf->data() + other.head,
                other.len);
  }
  head = other.head;
  len = other.len;
  return *this;
}

void Packet::grow_headroom(std::size_t need) {
  // Leave kDefaultHeadroom beyond the immediate need so a chain of encaps
  // doesn't regrow per layer (the old vector-insert path did the same).
  Storage& s = store_;
  const std::size_t new_head = need + kDefaultHeadroom;
  if (s.buf != nullptr && new_head + s.len <= s.buf->cap) {
    std::memmove(s.buf->data() + new_head, s.buf->data() + s.head, s.len);
  } else {
    BufferPool::Buf* grown = BufferPool::acquire(new_head + s.len);
    if (s.buf != nullptr)
      std::memcpy(grown->data() + new_head, s.buf->data() + s.head, s.len);
    BufferPool::release(s.buf);
    s.buf = grown;
  }
  s.head = static_cast<std::uint32_t>(new_head);
}

std::uint8_t* Packet::push_front(std::size_t n) {
  if (n > store_.head || store_.buf == nullptr) grow_headroom(n);
  store_.head -= static_cast<std::uint32_t>(n);
  store_.len += static_cast<std::uint32_t>(n);
  return data();
}

void Packet::pull_front(std::size_t n) {
  if (n > store_.len) n = store_.len;
  store_.head += static_cast<std::uint32_t>(n);
  store_.len -= static_cast<std::uint32_t>(n);
}

bool Packet::expand_at(std::size_t at, std::ptrdiff_t delta) {
  Storage& s = store_;
  if (at > s.len) return false;
  if (delta == 0) return true;
  if (delta > 0) {
    const std::size_t grow = static_cast<std::size_t>(delta);
    if (s.buf == nullptr || s.head + s.len + grow > s.buf->cap) {
      BufferPool::Buf* grown =
          BufferPool::acquire(kDefaultHeadroom + s.len + grow);
      if (s.buf != nullptr)
        std::memcpy(grown->data() + kDefaultHeadroom, s.buf->data() + s.head,
                    s.len);
      BufferPool::release(s.buf);
      s.buf = grown;
      s.head = kDefaultHeadroom;
    }
    std::uint8_t* p = s.buf->data() + s.head;
    std::memmove(p + at + grow, p + at, s.len - at);
    std::memset(p + at, 0, grow);
    s.len += static_cast<std::uint32_t>(grow);
  } else {
    const std::size_t remove = static_cast<std::size_t>(-delta);
    if (at + remove > s.len) return false;
    std::uint8_t* p = s.buf->data() + s.head;
    std::memmove(p + at, p + at + remove, s.len - at - remove);
    s.len -= static_cast<std::uint32_t>(remove);
  }
  return true;
}

std::optional<SrhView> Packet::srh() noexcept {
  if (size() < kIpv6HeaderSize) return std::nullopt;
  if (ipv6().next_header() != kProtoRouting) return std::nullopt;
  SrhView view(data() + kIpv6HeaderSize, size() - kIpv6HeaderSize);
  if (!view.valid()) return std::nullopt;
  return view;
}

std::optional<HeaderChain> walk_header_chain(const Packet& pkt) {
  const std::uint8_t* base = pkt.data();
  const std::size_t size = pkt.size();
  auto whole_ipv6_at = [&](std::size_t off) {
    return size >= off + kIpv6HeaderSize && (base[off] >> 4) == 6;
  };
  if (!whole_ipv6_at(0)) return std::nullopt;
  HeaderChain c;
  for (int depth = 1;; ++depth) {
    c.proto = base[c.inner_ip + 6];
    c.offset = c.inner_ip + kIpv6HeaderSize;
    if (c.proto == kProtoRouting) {
      if (size < c.offset + kSrhFixedSize) return c;
      const std::size_t srh_len =
          (static_cast<std::size_t>(base[c.offset + 1]) + 1) * 8;
      if (size < c.offset + srh_len) return c;
      c.proto = base[c.offset];
      c.offset += srh_len;
    }
    if (c.proto != kProtoIpv6) {
      c.whole = true;
      return c;
    }
    if (depth == 8 || !whole_ipv6_at(c.offset)) return c;
    c.inner_ip = c.offset;  // IPv6-in-IPv6: descend
  }
}

std::optional<TransportLoc> locate_transport(const Packet& pkt) {
  const auto c = walk_header_chain(pkt);
  if (!c || !c->whole) return std::nullopt;
  if (c->proto == kProtoUdp || c->proto == kProtoTcp ||
      c->proto == kProtoIcmp6)
    return TransportLoc{c->proto, c->offset, c->inner_ip};
  return std::nullopt;
}

Packet make_udp_packet(const PacketSpec& spec,
                       std::optional<std::span<const std::uint8_t>> payload) {
  std::vector<std::uint8_t> srh;
  const bool with_srh = !spec.segments.empty();
  if (with_srh)
    srh = build_srh(kProtoUdp, spec.segments, spec.srh_tlvs, spec.srh_tag);

  const std::size_t udp_len =
      kUdpHeaderSize + (payload ? payload->size() : spec.payload_size);
  const std::size_t total = kIpv6HeaderSize + srh.size() + udp_len;

  Packet pkt(std::span<const std::uint8_t>{}, kDefaultHeadroom);
  std::uint8_t* p = pkt.push_front(total);

  Ipv6Header ip;
  ip.src = spec.src;
  // With an SRH the packet is first routed to the first segment in travel
  // order; the final destination sits in segment slot 0.
  ip.dst = with_srh ? spec.segments.front() : spec.dst;
  ip.flow_label = spec.flow_label & 0xfffffu;
  ip.hop_limit = spec.hop_limit;
  ip.next_header = with_srh ? kProtoRouting : kProtoUdp;
  ip.payload_length = static_cast<std::uint16_t>(srh.size() + udp_len);
  ip.write(p);

  if (with_srh) std::memcpy(p + kIpv6HeaderSize, srh.data(), srh.size());

  std::uint8_t* udp = p + kIpv6HeaderSize + srh.size();
  UdpHeader uh;
  uh.src_port = spec.src_port;
  uh.dst_port = spec.dst_port;
  uh.length = static_cast<std::uint16_t>(udp_len);
  uh.checksum = 0;
  uh.write(udp);
  if (payload)
    std::ranges::copy(*payload, udp + kUdpHeaderSize);
  else
    std::memset(udp + kUdpHeaderSize, 0xab, spec.payload_size);

  // The UDP checksum covers the *final* destination in the pseudo-header;
  // with SRv6 that is the last segment of the path (RFC 8200 §8.1 rule for
  // routing headers).
  const Ipv6Addr final_dst = with_srh ? spec.segments.back() : spec.dst;
  store_be16(udp + 6, transport_checksum(spec.src, final_dst, kProtoUdp,
                                         {udp, udp_len}));
  return pkt;
}

}  // namespace srv6bpf::net
