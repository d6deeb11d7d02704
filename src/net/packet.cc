#include "net/packet.h"

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

std::optional<TransportLoc> locate_transport(const Packet& pkt) {
  const std::uint8_t* base = pkt.data();
  std::size_t off = 0;
  std::size_t inner_ip = 0;
  int guard = 8;
  while (guard-- > 0) {
    if (pkt.size() < off + kIpv6HeaderSize) return std::nullopt;
    if ((base[off] >> 4) != 6) return std::nullopt;
    inner_ip = off;
    std::uint8_t proto = base[off + 6];
    off += kIpv6HeaderSize;
    if (proto == kProtoRouting) {
      if (pkt.size() < off + kSrhFixedSize) return std::nullopt;
      const std::size_t srh_len = (static_cast<std::size_t>(base[off + 1]) + 1) * 8;
      if (pkt.size() < off + srh_len) return std::nullopt;
      proto = base[off];
      off += srh_len;
    }
    if (proto == kProtoIpv6) continue;  // IPv6-in-IPv6: descend
    if (proto == kProtoUdp || proto == kProtoTcp || proto == kProtoIcmp6)
      return TransportLoc{proto, off, inner_ip};
    return std::nullopt;
  }
  return std::nullopt;
}

Packet make_udp_packet(const PacketSpec& spec) {
  std::vector<std::uint8_t> srh;
  const bool with_srh = !spec.segments.empty();
  if (with_srh)
    srh = build_srh(kProtoUdp, spec.segments, spec.srh_tlvs, spec.srh_tag,
                    spec.srh_flags);

  const std::size_t udp_len = kUdpHeaderSize + spec.payload_size;
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
  std::memset(udp + kUdpHeaderSize, spec.payload_fill, spec.payload_size);

  if (spec.fill_checksum) {
    // The UDP checksum covers the *final* destination in the pseudo-header;
    // with SRv6 that is the last segment of the path (RFC 8200 §8.1 rule for
    // routing headers).
    const Ipv6Addr final_dst = with_srh ? spec.segments.back() : spec.dst;
    const std::uint16_t c = transport_checksum(
        spec.src, final_dst, kProtoUdp, {udp, udp_len});
    store_be16(udp + 6, c);
  }
  return pkt;
}

}  // namespace srv6bpf::net
