#include "net/srh.h"

#include <cstring>
#include <stdexcept>

#include "util/byteorder.h"

namespace srv6bpf::net {

bool SrhView::valid() const noexcept {
  if (avail_ < kSrhFixedSize) return false;
  if (routing_type() != kSrhRoutingType) return false;
  const std::size_t total = total_len();
  if (total > avail_) return false;
  if (kSrhFixedSize + num_segments() * kSegmentSize > total) return false;
  if (segments_left() > last_entry()) return false;
  return true;
}

std::uint16_t SrhView::tag() const noexcept { return load_be16(p_ + 6); }
void SrhView::set_tag(std::uint16_t v) noexcept { store_be16(p_ + 6, v); }

Ipv6Addr SrhView::segment(std::size_t i) const noexcept {
  Ipv6Addr a;
  std::memcpy(a.bytes().data(), p_ + kSrhFixedSize + i * kSegmentSize, 16);
  return a;
}

void SrhView::set_segment(std::size_t i, const Ipv6Addr& a) noexcept {
  std::memcpy(p_ + kSrhFixedSize + i * kSegmentSize, a.bytes().data(), 16);
}

bool SrhView::tlvs_well_formed() const noexcept {
  const auto area = tlv_area();
  std::size_t i = 0;
  while (i < area.size()) {
    const std::uint8_t type = area[i];
    if (type == kTlvPad1) {
      ++i;
      continue;
    }
    if (i + 2 > area.size()) return false;
    const std::uint8_t len = area[i + 1];
    if (i + 2 + len > area.size()) return false;
    i += 2 + len;
  }
  return true;
}

int SrhView::find_tlv(std::uint8_t type) const noexcept {
  const auto area = tlv_area();
  std::size_t i = 0;
  while (i < area.size()) {
    const std::uint8_t t = area[i];
    if (t == type) return static_cast<int>(tlv_offset() + i);
    if (t == kTlvPad1) {
      ++i;
      continue;
    }
    if (i + 2 > area.size()) return -1;
    i += 2u + area[i + 1];
  }
  return -1;
}

std::vector<std::uint8_t> build_srh(std::uint8_t next_header,
                                    std::span<const Ipv6Addr> segments,
                                    std::span<const std::uint8_t> tlvs,
                                    std::uint16_t tag) {
  if (segments.empty()) throw std::invalid_argument("SRH needs >= 1 segment");
  if (segments.size() > 255)
    throw std::invalid_argument("too many segments");
  const std::size_t total =
      kSrhFixedSize + segments.size() * kSegmentSize + tlvs.size();
  if (total % 8 != 0)
    throw std::invalid_argument("SRH length must be a multiple of 8 (pad TLVs)");
  if (total / 8 - 1 > 255) throw std::invalid_argument("SRH too large");

  std::vector<std::uint8_t> out(total, 0);
  out[0] = next_header;
  out[1] = static_cast<std::uint8_t>(total / 8 - 1);
  out[2] = kSrhRoutingType;
  out[3] = static_cast<std::uint8_t>(segments.size() - 1);  // segments_left
  out[4] = static_cast<std::uint8_t>(segments.size() - 1);  // last_entry
  store_be16(out.data() + 6, tag);
  // Travel order -> reverse storage: segment[0] is the final destination.
  for (std::size_t i = 0; i < segments.size(); ++i) {
    std::memcpy(out.data() + kSrhFixedSize +
                    (segments.size() - 1 - i) * kSegmentSize,
                segments[i].bytes().data(), 16);
  }
  if (!tlvs.empty())
    std::memcpy(out.data() + kSrhFixedSize + segments.size() * kSegmentSize,
                tlvs.data(), tlvs.size());
  return out;
}

std::vector<std::uint8_t> build_dm_tlv(std::uint64_t tx_tstamp_ns,
                                       std::uint8_t flags) {
  std::vector<std::uint8_t> tlv(kDmTlvSize, 0);
  tlv[0] = kTlvDelayMeasurement;
  tlv[1] = kDmTlvSize - 2;
  tlv[2] = flags;
  store_be64(tlv.data() + kDmTlvTxOff, tx_tstamp_ns);
  return tlv;
}

std::vector<std::uint8_t> build_controller_tlv(std::uint8_t type,
                                               const Ipv6Addr& addr,
                                               std::uint16_t port) {
  std::vector<std::uint8_t> tlv(kControllerTlvSize, 0);
  tlv[0] = type;
  tlv[1] = kControllerTlvSize - 2;
  std::memcpy(tlv.data() + kControllerTlvAddrOff, addr.bytes().data(), 16);
  store_be16(tlv.data() + kControllerTlvPortOff, port);
  return tlv;
}

std::vector<std::uint8_t> build_padn(std::size_t n) {
  if (n == 1) return {kTlvPad1};
  if (n < 2) return {};
  std::vector<std::uint8_t> tlv(n, 0);
  tlv[0] = kTlvPadN;
  tlv[1] = static_cast<std::uint8_t>(n - 2);
  return tlv;
}

}  // namespace srv6bpf::net
