// The simulator's two integer hashes, each written once.
//
// Their outputs are part of the deterministic contract: RSS context
// placement and ECMP nexthop choice (one-at-a-time), bpf_get_prandom_u32,
// the Rng seed expansion and the per-link RNG seeds (splitmix64) all feed
// the golden digests, so neither may change by a bit.
#pragma once

#include <cstddef>
#include <cstdint>

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

}  // namespace srv6bpf
