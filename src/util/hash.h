// The simulator's three integer hashes, each written once.
//
// Their outputs are part of the deterministic contract: RSS context
// placement and ECMP nexthop choice (one-at-a-time), the Rng seed expansion
// and the per-link RNG seeds (splitmix64), and the PDES name-hash
// placement of unassigned nodes (FNV-1a) all feed the golden digests, so
// none may change by a bit. FNV-1a also folds the digests themselves.
// bpf_get_prandom_u32's splitmix64 sequence feeds no golden, because no
// use-case program draws from it; seg6_test's SkbCtx case pins it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace srv6bpf {

// splitmix64 (Steele, Lea & Flood, "Fast splittable pseudorandom number
// generators", OOPSLA 2014) without its final xor-shift: advances `state`
// by the golden gamma and returns the twice-mixed state.
inline std::uint64_t splitmix64_unfinalized(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  return (z ^ (z >> 27)) * 0x94d049bb133111ebull;
}

// One splitmix64 step: advances `state` and returns the next output.
inline std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  const std::uint64_t z = splitmix64_unfinalized(state);
  return z ^ (z >> 31);
}

// Bob Jenkins' one-at-a-time hash, fed field by field: mix() each byte
// range in order, then finish().
class OneAtATime {
 public:
  void mix(const std::uint8_t* d, std::size_t n) noexcept {
    for (std::size_t i = 0; i < n; ++i) {
      h_ += d[i];
      h_ += h_ << 10;
      h_ ^= h_ >> 6;
    }
  }
  std::uint32_t finish() const noexcept {
    std::uint32_t h = h_;
    h += h << 3;
    h ^= h >> 11;
    h += h << 15;
    return h;
  }

 private:
  std::uint32_t h_ = 0;
};

// 64-bit FNV-1a (Fowler, Noll & Vo), folded into a running value that
// starts at kFnv1aBasis.
inline constexpr std::uint64_t kFnv1aBasis = 1469598103934665603ull;

inline std::uint64_t fnv1a_bytes(std::uint64_t h,
                                 std::span<const std::uint8_t> bytes) noexcept {
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

// Folds the eight bytes of `v`, least significant first.
inline std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace srv6bpf
