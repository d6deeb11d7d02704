#include "net/ip6.h"

#include <charconv>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "util/byteorder.h"

namespace srv6bpf::net {

// ---- Ipv6Addr ------------------------------------------------------------

std::uint16_t Ipv6Addr::group(int i) const noexcept {
  return load_be16(bytes_.data() + 2 * i);
}

void Ipv6Addr::set_group(int i, std::uint16_t v) noexcept {
  store_be16(bytes_.data() + 2 * i, v);
}

bool Ipv6Addr::in_prefix(const Ipv6Addr& prefix, int prefix_len) const noexcept {
  if (prefix_len <= 0) return true;
  if (prefix_len > 128) return false;
  const int full = prefix_len / 8;
  if (std::memcmp(bytes_.data(), prefix.bytes_.data(), full) != 0) return false;
  const int rem = prefix_len % 8;
  if (rem == 0) return true;
  const std::uint8_t mask = static_cast<std::uint8_t>(0xff00 >> rem);
  return (bytes_[full] & mask) == (prefix.bytes_[full] & mask);
}

namespace {

bool parse_hex_group(std::string_view s, std::uint16_t& out) {
  if (s.empty() || s.size() > 4) return false;
  std::uint32_t v = 0;
  for (char c : s) {
    int d;
    if (c >= '0' && c <= '9') d = c - '0';
    else if (c >= 'a' && c <= 'f') d = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') d = c - 'A' + 10;
    else return false;
    v = v * 16 + static_cast<std::uint32_t>(d);
  }
  out = static_cast<std::uint16_t>(v);
  return true;
}

bool parse_dotted_quad(std::string_view s, std::uint8_t out[4]) {
  int part = 0;
  std::uint32_t v = 0;
  bool have_digit = false;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == '.') {
      if (!have_digit || v > 255 || part >= 4) return false;
      out[part++] = static_cast<std::uint8_t>(v);
      v = 0;
      have_digit = false;
    } else if (s[i] >= '0' && s[i] <= '9') {
      v = v * 10 + static_cast<std::uint32_t>(s[i] - '0');
      if (v > 255) return false;
      have_digit = true;
    } else {
      return false;
    }
  }
  return part == 4;
}

}  // namespace

std::optional<Ipv6Addr> Ipv6Addr::parse(std::string_view text) {
  // Split on ':' handling the "::" marker.
  std::vector<std::string_view> head, tail;
  bool seen_gap = false;

  std::size_t i = 0;
  // Leading "::".
  if (text.size() >= 2 && text[0] == ':' && text[1] == ':') {
    seen_gap = true;
    i = 2;
  } else if (!text.empty() && text[0] == ':') {
    return std::nullopt;
  }

  std::size_t start = i;
  auto* current = seen_gap ? &tail : &head;
  while (i <= text.size()) {
    if (i == text.size() || text[i] == ':') {
      if (i > start) current->push_back(text.substr(start, i - start));
      if (i < text.size() && text[i] == ':') {
        if (i + 1 < text.size() && text[i + 1] == ':') {
          if (seen_gap) return std::nullopt;  // second "::"
          seen_gap = true;
          current = &tail;
          ++i;
        } else if (i + 1 == text.size()) {
          return std::nullopt;  // trailing single ':'
        } else if (i == start && i != 0) {
          return std::nullopt;  // ":::" or empty group
        }
      }
      start = i + 1;
    }
    ++i;
  }

  // A trailing dotted quad counts as two groups.
  std::array<std::uint8_t, 16> bytes{};
  std::vector<std::uint16_t> head_groups, tail_groups;
  auto convert = [](const std::vector<std::string_view>& parts,
                    std::vector<std::uint16_t>& out) -> bool {
    for (std::size_t k = 0; k < parts.size(); ++k) {
      if (parts[k].find('.') != std::string_view::npos) {
        if (k + 1 != parts.size()) return false;  // quad only at the end
        std::uint8_t quad[4];
        if (!parse_dotted_quad(parts[k], quad)) return false;
        out.push_back(static_cast<std::uint16_t>(quad[0] << 8 | quad[1]));
        out.push_back(static_cast<std::uint16_t>(quad[2] << 8 | quad[3]));
        continue;
      }
      std::uint16_t g;
      if (!parse_hex_group(parts[k], g)) return false;
      out.push_back(g);
    }
    return true;
  };
  if (!convert(head, head_groups) || !convert(tail, tail_groups))
    return std::nullopt;

  const std::size_t total = head_groups.size() + tail_groups.size();
  if (seen_gap) {
    if (total >= 8) return std::nullopt;
  } else {
    if (total != 8) return std::nullopt;
  }

  Ipv6Addr addr;
  for (std::size_t k = 0; k < head_groups.size(); ++k)
    addr.set_group(static_cast<int>(k), head_groups[k]);
  for (std::size_t k = 0; k < tail_groups.size(); ++k)
    addr.set_group(static_cast<int>(8 - tail_groups.size() + k),
                   tail_groups[k]);
  (void)bytes;
  return addr;
}

Ipv6Addr Ipv6Addr::must_parse(std::string_view text) {
  auto a = parse(text);
  if (!a)
    throw std::invalid_argument("bad IPv6 address: " + std::string(text));
  return *a;
}

std::string Ipv6Addr::to_string() const {
  // Longest run of zero groups (length >= 2) gets "::".
  int best_start = -1, best_len = 0;
  for (int i = 0; i < 8;) {
    if (group(i) == 0) {
      int j = i;
      while (j < 8 && group(j) == 0) ++j;
      if (j - i > best_len) {
        best_len = j - i;
        best_start = i;
      }
      i = j;
    } else {
      ++i;
    }
  }
  if (best_len < 2) best_start = -1;

  std::string out;
  char buf[8];
  for (int i = 0; i < 8; ++i) {
    if (i == best_start) {
      out += i == 0 ? "::" : ":";
      i += best_len - 1;
      if (i == 7) out += "";  // "::" already closes
      continue;
    }
    auto [p, ec] = std::to_chars(buf, buf + sizeof buf, group(i), 16);
    out.append(buf, p);
    if (i != 7) out += ":";
  }
  if (out.empty()) out = "::";
  return out;
}

std::optional<Prefix> Prefix::parse(std::string_view text) {
  const auto slash = text.find('/');
  Prefix p;
  if (slash == std::string_view::npos) {
    auto a = Ipv6Addr::parse(text);
    if (!a) return std::nullopt;
    return Prefix{*a, 128};
  }
  auto a = Ipv6Addr::parse(text.substr(0, slash));
  if (!a) return std::nullopt;
  int len = 0;
  const auto rest = text.substr(slash + 1);
  auto [ptr, ec] = std::from_chars(rest.data(), rest.data() + rest.size(), len);
  if (ec != std::errc{} || ptr != rest.data() + rest.size() || len < 0 ||
      len > 128)
    return std::nullopt;
  return Prefix{*a, len};
}

// ---- Ipv6Header ------------------------------------------------------------

void Ipv6Header::write(std::uint8_t* out) const {
  const std::uint32_t vtcfl = (6u << 28) |
                              (static_cast<std::uint32_t>(traffic_class) << 20) |
                              (flow_label & 0xfffffu);
  store_be32(out, vtcfl);
  store_be16(out + 4, payload_length);
  out[6] = next_header;
  out[7] = hop_limit;
  std::memcpy(out + 8, src.bytes().data(), 16);
  std::memcpy(out + 24, dst.bytes().data(), 16);
}

std::optional<Ipv6Header> Ipv6Header::parse(std::span<const std::uint8_t> in) {
  if (in.size() < kIpv6HeaderSize) return std::nullopt;
  const std::uint32_t vtcfl = load_be32(in.data());
  if ((vtcfl >> 28) != 6) return std::nullopt;
  Ipv6Header h;
  h.traffic_class = static_cast<std::uint8_t>((vtcfl >> 20) & 0xff);
  h.flow_label = vtcfl & 0xfffffu;
  h.payload_length = load_be16(in.data() + 4);
  h.next_header = in[6];
  h.hop_limit = in[7];
  std::memcpy(h.src.bytes().data(), in.data() + 8, 16);
  std::memcpy(h.dst.bytes().data(), in.data() + 24, 16);
  return h;
}

}  // namespace srv6bpf::net
