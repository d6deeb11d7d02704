// Packet: the skb-like buffer flowing through the simulator.
//
// A contiguous byte buffer with reserved headroom (so SRH/IPv6 encapsulation
// is a cheap push_front) plus the metadata the seg6local/LWT machinery needs:
// the resolved next-hop ("dst cache"), timestamps, ingress interface and the
// skb->mark scratch field exposed to eBPF programs.
//
// Storage comes from net::BufferPool (skb/mbuf-style recycling): creating a
// packet pops a headroom-reserved buffer off the freelist and destroying it
// pushes the buffer back, so the steady-state forwarding path never touches
// the heap. Headroom regrowth on push_front is a single non-zeroing
// memmove (in place when tailroom allows, into a fresh buffer otherwise) —
// never the O(n) value-initialising shift a vector insert would pay.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "net/buffer_pool.h"
#include "net/ip6.h"
#include "net/srh.h"

namespace srv6bpf::net {

inline constexpr std::size_t kDefaultHeadroom = 128;

// The "dst cache" entry: where the packet goes next.
struct DstEntry {
  Ipv6Addr nexthop;  // link-layer next hop (or the dst itself if onlink)
  int oif = -1;      // egress interface index
  bool valid = false;
};

class Packet {
 public:
  // A default packet is empty and owns no buffer (push_front acquires one on
  // demand), so arrays of packets — PacketBurst slots, RxRing slots — cost
  // nothing to construct.
  Packet() = default;
  explicit Packet(std::span<const std::uint8_t> contents,
                  std::size_t headroom = kDefaultHeadroom);

  // Copy, move and destruction are the implicit, inline ones: Storage
  // holds the buffer's rules and the metadata copies as plain values.

  std::uint8_t* data() noexcept {
    return store_.buf == nullptr ? nullptr : store_.buf->data() + store_.head;
  }
  const std::uint8_t* data() const noexcept {
    return store_.buf == nullptr ? nullptr : store_.buf->data() + store_.head;
  }
  std::size_t size() const noexcept { return store_.len; }
  std::span<std::uint8_t> bytes() noexcept { return {data(), size()}; }
  std::span<const std::uint8_t> bytes() const noexcept {
    return {data(), size()};
  }
  std::size_t headroom() const noexcept { return store_.head; }

  // Prepends `n` bytes (uninitialised), regrowing headroom if needed.
  std::uint8_t* push_front(std::size_t n);
  // Removes `n` bytes from the front (decapsulation). n <= size().
  void pull_front(std::size_t n);
  // Grows/shrinks at offset `at` by `delta` bytes (SRH TLV adjustment):
  // positive delta inserts zeroed bytes at `at`, negative removes.
  // Returns false if the operation is out of bounds.
  bool expand_at(std::size_t at, std::ptrdiff_t delta);

  // ---- metadata ----
  DstEntry& dst() noexcept { return dst_; }
  const DstEntry& dst() const noexcept { return dst_; }
  std::uint32_t mark = 0;
  std::uint32_t ingress_ifindex = 0;
  std::uint64_t rx_tstamp_ns = 0;   // set by the receiving node
  std::uint64_t tx_tstamp_ns = 0;   // set when first transmitted
  std::uint32_t seq = 0;            // generator sequence number

  // ---- convenience views (outermost headers) ----
  Ipv6View ipv6() noexcept { return Ipv6View(data()); }
  // Returns an SRH view if next_header == ROUTING and bounds allow.
  std::optional<SrhView> srh() noexcept;

 private:
  // The pooled buffer a packet owns and where its bytes sit in it: `head`
  // bytes of headroom, then `len` bytes. A copy gets a buffer of its own
  // (an assignment reuses the one it holds when that fits); a move hands
  // the buffer over and leaves the source empty; destruction returns it
  // to the pool, which for an empty (e.g. moved-from) packet is a null
  // test.
  struct Storage {
    BufferPool::Buf* buf = nullptr;
    std::uint32_t head = 0;
    std::uint32_t len = 0;

    Storage() = default;
    Storage(const Storage& other);
    Storage& operator=(const Storage& other);
    Storage(Storage&& other) noexcept
        : buf(std::exchange(other.buf, nullptr)),
          head(std::exchange(other.head, 0)),
          len(std::exchange(other.len, 0)) {}
    Storage& operator=(Storage&& other) noexcept {
      if (this == &other) return *this;
      if (buf != nullptr) BufferPool::release(buf);
      buf = std::exchange(other.buf, nullptr);
      head = std::exchange(other.head, 0);
      len = std::exchange(other.len, 0);
      return *this;
    }
    ~Storage() {
      if (buf != nullptr) BufferPool::release(buf);
    }
  };

  // Moves the payload so that headroom >= need, reallocating only when the
  // current buffer cannot hold need + len (then releasing the old buffer
  // back to the pool). Never zero-initialises.
  void grow_headroom(std::size_t need);

  Storage store_;
  DstEntry dst_;
};

// Builds IPv6(+optional SRH)+UDP+payload packets used across tests, examples
// and benchmarks.
struct PacketSpec {
  Ipv6Addr src;
  Ipv6Addr dst;                   // the IPv6 dst; unused with an SRH
  std::uint8_t hop_limit = 64;
  std::uint32_t flow_label = 0;   // 20 bits; part of the RSS steering tuple
  std::vector<Ipv6Addr> segments; // if non-empty, adds an SRH (travel order);
                                  // the IPv6 dst is then segments.front()
                                  // and the final dst segments.back()
  std::vector<std::uint8_t> srh_tlvs;
  std::uint16_t srh_tag = 0;
  std::uint8_t srh_flags = 0;
  std::uint16_t src_port = 7000;
  std::uint16_t dst_port = 7001;
  std::size_t payload_size = 64;
  std::uint8_t payload_fill = 0xab;
  bool fill_checksum = true;
};

Packet make_udp_packet(const PacketSpec& spec);

// Walks the header chain (IPv6 -> [SRH] -> [IPv6-in-IPv6 ...]) to the
// transport header. Returns nullopt when the chain is malformed or ends in a
// protocol other than UDP/TCP/ICMPv6.
struct TransportLoc {
  std::uint8_t proto = 0;       // kProtoUdp / kProtoTcp / kProtoIcmp6
  std::size_t offset = 0;       // byte offset of the transport header
  std::size_t inner_ip = 0;     // byte offset of the innermost IPv6 header
};
std::optional<TransportLoc> locate_transport(const Packet& pkt);

}  // namespace srv6bpf::net
