// The IPv6 Segment Routing Header (SRH), RFC 8754 / draft-ietf-6man-
// segment-routing-header, plus the TLVs used by the paper's use cases.
//
// Layout:
//   0  next_header
//   1  hdr_ext_len        (8-byte units, not counting the first 8 bytes)
//   2  routing_type = 4
//   3  segments_left
//   4  last_entry         (index of the last segment slot)
//   5  flags
//   6  tag (16 bits)
//   8  segments[last_entry+1] x 16 bytes  (segment[0] is the FINAL segment)
//   .. optional TLVs, padded to an 8-byte multiple
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/ip6.h"

namespace srv6bpf::net {

inline constexpr std::uint8_t kSrhRoutingType = 4;
inline constexpr std::size_t kSrhFixedSize = 8;
inline constexpr std::size_t kSegmentSize = 16;

// TLV types. Pad1/PadN are standard; the others are the experimental TLVs the
// paper's use cases define (timestamps, controller coordinates).
inline constexpr std::uint8_t kTlvPad1 = 0;
inline constexpr std::uint8_t kTlvPadN = 4;
inline constexpr std::uint8_t kTlvOpaque = 30;             // AddTLV benchmark
inline constexpr std::uint8_t kTlvDelayMeasurement = 124;  // §4.1 DM TLV
inline constexpr std::uint8_t kTlvController = 125;        // §4.1 collector
inline constexpr std::uint8_t kTlvOamReplyTo = 126;        // §4.3 prober addr

// Delay-Measurement TLV: type, len=18, flags, reserved, u64 TX timestamp,
// u64 RX timestamp (ns, big-endian). 20 bytes total. The RX field is unused
// by one-way probes; two-way probes (§4.2) have the remote endpoint fill it
// in-place via bpf_lwt_seg6_store_bytes before bouncing the probe back.
inline constexpr std::size_t kDmTlvSize = 20;
inline constexpr std::size_t kDmTlvTxOff = 4;   // within the TLV
inline constexpr std::size_t kDmTlvRxOff = 12;  // within the TLV

// Controller / reply-to TLV: type, len=18, IPv6 address, u16 UDP port.
// 20 bytes total.
inline constexpr std::size_t kControllerTlvSize = 20;
inline constexpr std::size_t kControllerTlvAddrOff = 2;
inline constexpr std::size_t kControllerTlvPortOff = 18;

// Flags: the paper's End.DM distinguishes one-way probes (decapsulate at the
// endpoint) from two-way probes (bounce back to the querier, §4.2).
inline constexpr std::uint8_t kDmFlagTwoWay = 0x01;

// Mutable zero-copy view over a serialized SRH.
class SrhView {
 public:
  // `p` points at the SRH first byte; `avail` is the number of valid bytes
  // from p to the end of the packet.
  SrhView(std::uint8_t* p, std::size_t avail) : p_(p), avail_(avail) {}

  // Structural validation: routing type, length within avail, segment slots
  // within length, segments_left <= last_entry.
  bool valid() const noexcept;

  std::uint8_t next_header() const noexcept { return p_[0]; }
  void set_next_header(std::uint8_t v) noexcept { p_[0] = v; }
  std::uint8_t hdr_ext_len() const noexcept { return p_[1]; }
  std::size_t total_len() const noexcept {
    return (static_cast<std::size_t>(p_[1]) + 1) * 8;
  }
  std::uint8_t routing_type() const noexcept { return p_[2]; }
  std::uint8_t segments_left() const noexcept { return p_[3]; }
  void set_segments_left(std::uint8_t v) noexcept { p_[3] = v; }
  std::uint8_t last_entry() const noexcept { return p_[4]; }
  std::uint8_t flags() const noexcept { return p_[5]; }
  void set_flags(std::uint8_t v) noexcept { p_[5] = v; }
  std::uint16_t tag() const noexcept;
  void set_tag(std::uint16_t v) noexcept;

  std::size_t num_segments() const noexcept { return last_entry() + 1u; }
  Ipv6Addr segment(std::size_t i) const noexcept;
  void set_segment(std::size_t i, const Ipv6Addr& a) noexcept;
  // The segment the packet is currently routed to.
  Ipv6Addr current_segment() const noexcept { return segment(segments_left()); }

  // TLV area (after the last segment slot, within total_len).
  std::size_t tlv_offset() const noexcept {
    return kSrhFixedSize + num_segments() * kSegmentSize;
  }
  std::size_t tlv_len() const noexcept {
    const std::size_t off = tlv_offset();
    return off <= total_len() ? total_len() - off : 0;
  }
  std::span<std::uint8_t> tlv_area() noexcept {
    return {p_ + tlv_offset(), tlv_len()};
  }
  std::span<const std::uint8_t> tlv_area() const noexcept {
    return {p_ + tlv_offset(), tlv_len()};
  }
  // Scans the TLV chain; false on malformed TLVs (truncation).
  bool tlvs_well_formed() const noexcept;
  // Byte offset (from SRH start) of the first TLV with this type, or -1.
  int find_tlv(std::uint8_t type) const noexcept;

  std::uint8_t* raw() noexcept { return p_; }
  const std::uint8_t* raw() const noexcept { return p_; }

 private:
  std::uint8_t* p_;
  std::size_t avail_;
};

// Builds a serialized SRH. `segments` is given in travel order (first visited
// first); this builder stores them reversed per the RFC and sets
// segments_left = n-1, i.e. the state of a freshly encapsulated packet, with
// no flags set. `tlvs` is appended verbatim and must pad the header to a
// multiple of 8.
std::vector<std::uint8_t> build_srh(std::uint8_t next_header,
                                    std::span<const Ipv6Addr> segments,
                                    std::span<const std::uint8_t> tlvs = {},
                                    std::uint16_t tag = 0);

// TLV construction helpers.
std::vector<std::uint8_t> build_dm_tlv(std::uint64_t tx_tstamp_ns,
                                       std::uint8_t flags = 0);
std::vector<std::uint8_t> build_controller_tlv(std::uint8_t type,
                                               const Ipv6Addr& addr,
                                               std::uint16_t port);
std::vector<std::uint8_t> build_padn(std::size_t n);

}  // namespace srv6bpf::net
