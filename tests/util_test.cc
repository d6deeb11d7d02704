#include <gtest/gtest.h>

#include <cmath>

#include "util/byteorder.h"
#include "util/rng.h"

namespace srv6bpf {
namespace {

TEST(ByteOrder, Swaps) {
  EXPECT_EQ(bswap16(0x1234), 0x3412);
  EXPECT_EQ(bswap32(0x12345678u), 0x78563412u);
  EXPECT_EQ(bswap64(0x0102030405060708ull), 0x0807060504030201ull);
}

TEST(ByteOrder, BigEndianLoadStoreRoundTrip) {
  std::uint8_t buf[8];
  store_be16(buf, 0xbeef);
  EXPECT_EQ(buf[0], 0xbe);
  EXPECT_EQ(buf[1], 0xef);
  EXPECT_EQ(load_be16(buf), 0xbeef);

  store_be32(buf, 0xdeadbeef);
  EXPECT_EQ(buf[0], 0xde);
  EXPECT_EQ(load_be32(buf), 0xdeadbeefu);

  store_be64(buf, 0x1122334455667788ull);
  EXPECT_EQ(buf[0], 0x11);
  EXPECT_EQ(buf[7], 0x88);
  EXPECT_EQ(load_be64(buf), 0x1122334455667788ull);
}

TEST(ByteOrder, UnalignedAccess) {
  std::uint8_t buf[16] = {};
  // Deliberately misaligned offset.
  store_unaligned<std::uint64_t>(buf + 3, 0x0123456789abcdefull);
  EXPECT_EQ(load_unaligned<std::uint64_t>(buf + 3), 0x0123456789abcdefull);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, UniformWithinBounds) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, NormalHasRoughlyRightMoments) {
  Rng r(11);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal(30.0, 5.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 30.0, 0.2);
  EXPECT_NEAR(std::sqrt(var), 5.0, 0.2);
}

}  // namespace
}  // namespace srv6bpf
