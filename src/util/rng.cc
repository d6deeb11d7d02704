#include "util/rng.h"

#include <cmath>

#include "util/hash.h"

namespace srv6bpf {
namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  // splitmix64 expands the seed into the xoshiro state.
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
}

std::uint64_t Rng::next_u64() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::next_double() noexcept {
  // 53 high bits -> double in [0,1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::uniform(std::uint64_t lo, std::uint64_t hi) noexcept {
  const std::uint64_t span = hi - lo + 1;
  if (span == 0) return next_u64();  // full range
  return lo + next_u64() % span;
}

double Rng::normal(double mean, double stddev) noexcept {
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    return mean + stddev * cached_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = next_double();
  } while (u1 <= 1e-12);
  const double u2 = next_double();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  have_cached_normal_ = true;
  return mean + stddev * r * std::cos(theta);
}

}  // namespace srv6bpf
