// IPv6 addressing and the fixed IPv6 header (RFC 8200).
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "util/byteorder.h"

namespace srv6bpf::net {

// Next-header / protocol numbers used in this repository.
inline constexpr std::uint8_t kProtoTcp = 6;
inline constexpr std::uint8_t kProtoUdp = 17;
inline constexpr std::uint8_t kProtoIpv6 = 41;     // IPv6-in-IPv6 encap
inline constexpr std::uint8_t kProtoRouting = 43;  // routing ext header (SRH)
inline constexpr std::uint8_t kProtoIcmp6 = 58;
inline constexpr std::uint8_t kProtoNone = 59;

inline constexpr std::size_t kIpv6HeaderSize = 40;

// A 128-bit IPv6 address, stored in network byte order.
class Ipv6Addr {
 public:
  constexpr Ipv6Addr() = default;
  explicit constexpr Ipv6Addr(std::array<std::uint8_t, 16> bytes)
      : bytes_(bytes) {}

  // Parses standard textual form, including "::" compression and
  // trailing-dotted-quad ("::ffff:1.2.3.4"). Returns nullopt on bad input.
  static std::optional<Ipv6Addr> parse(std::string_view text);
  // Like parse() but throws std::invalid_argument; convenient for literals.
  static Ipv6Addr must_parse(std::string_view text);

  // Canonical textual form (RFC 5952: lowercase, longest zero run compressed).
  std::string to_string() const;

  const std::array<std::uint8_t, 16>& bytes() const noexcept { return bytes_; }
  std::array<std::uint8_t, 16>& bytes() noexcept { return bytes_; }
  std::span<const std::uint8_t, 16> span() const noexcept { return bytes_; }

  bool is_unspecified() const noexcept {
    for (std::uint8_t b : bytes_)
      if (b != 0) return false;
    return true;
  }
  // True if the first `prefix_len` bits match `prefix`.
  bool in_prefix(const Ipv6Addr& prefix, int prefix_len) const noexcept;

  // 16-bit group accessors (host byte order), for building addresses.
  std::uint16_t group(int i) const noexcept;
  void set_group(int i, std::uint16_t v) noexcept;

  friend constexpr auto operator<=>(const Ipv6Addr&, const Ipv6Addr&) = default;

 private:
  std::array<std::uint8_t, 16> bytes_{};
};

// Hash functor for Ipv6Addr, suitable for the unordered containers on the
// forwarding hot path (seg6local SID table, caches). Mixes the two 64-bit
// halves with a splitmix64-style finalizer.
struct Ipv6AddrHash {
  std::size_t operator()(const Ipv6Addr& a) const noexcept {
    std::uint64_t lo, hi;
    __builtin_memcpy(&lo, a.bytes().data(), 8);
    __builtin_memcpy(&hi, a.bytes().data() + 8, 8);
    std::uint64_t z = lo ^ (hi * 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return static_cast<std::size_t>(z ^ (z >> 31));
  }
};

// A routing prefix: address + length.
struct Prefix {
  Ipv6Addr addr;
  int len = 0;  // 0..128

  bool contains(const Ipv6Addr& a) const noexcept {
    return a.in_prefix(addr, len);
  }
  std::string to_string() const {
    return addr.to_string() + "/" + std::to_string(len);
  }
  // Parses "fc00:1::/48"; a bare address means /128.
  static std::optional<Prefix> parse(std::string_view text);
  friend bool operator==(const Prefix&, const Prefix&) = default;
};

// Decoded fixed header.
struct Ipv6Header {
  std::uint8_t traffic_class = 0;
  std::uint32_t flow_label = 0;  // 20 bits
  std::uint16_t payload_length = 0;
  std::uint8_t next_header = kProtoNone;
  std::uint8_t hop_limit = 64;
  Ipv6Addr src;
  Ipv6Addr dst;

  // Serialises into exactly kIpv6HeaderSize bytes at `out`.
  void write(std::uint8_t* out) const;
  // Returns nullopt if `in` is shorter than a fixed header or version != 6.
  static std::optional<Ipv6Header> parse(std::span<const std::uint8_t> in);
};

// Zero-copy accessors over a serialized IPv6 header. The caller guarantees
// at least kIpv6HeaderSize bytes.
class Ipv6View {
 public:
  explicit Ipv6View(std::uint8_t* p) : p_(p) {}

  std::uint8_t version() const { return p_[0] >> 4; }
  std::uint8_t traffic_class() const {
    return static_cast<std::uint8_t>((p_[0] << 4) | (p_[1] >> 4));
  }
  std::uint32_t flow_label() const {  // 20 bits
    return (static_cast<std::uint32_t>(p_[1] & 0x0f) << 16) |
           (static_cast<std::uint32_t>(p_[2]) << 8) | p_[3];
  }
  std::uint16_t payload_length() const { return load_be16(p_ + 4); }
  void set_payload_length(std::uint16_t v) { store_be16(p_ + 4, v); }
  std::uint8_t next_header() const { return p_[6]; }
  void set_next_header(std::uint8_t v) { p_[6] = v; }
  std::uint8_t hop_limit() const { return p_[7]; }
  void set_hop_limit(std::uint8_t v) { p_[7] = v; }
  Ipv6Addr src() const {
    Ipv6Addr a;
    std::memcpy(a.bytes().data(), p_ + 8, 16);
    return a;
  }
  void set_src(const Ipv6Addr& a) {
    std::memcpy(p_ + 8, a.bytes().data(), 16);
  }
  Ipv6Addr dst() const {
    Ipv6Addr a;
    std::memcpy(a.bytes().data(), p_ + 24, 16);
    return a;
  }
  void set_dst(const Ipv6Addr& a) {
    std::memcpy(p_ + 24, a.bytes().data(), 16);
  }

  std::uint8_t* raw() noexcept { return p_; }

 private:
  std::uint8_t* p_;
};

}  // namespace srv6bpf::net
