#include <gtest/gtest.h>

#include <cstring>
#include <span>

#include "ebpf/map.h"
#include "ebpf/map_impl.h"
#include "ebpf/perf_event.h"

namespace srv6bpf::ebpf {
namespace {

MapDef array_def(std::uint32_t entries, std::uint32_t value_size = 8) {
  return {MapType::kArray, 4, value_size, entries, "arr"};
}

TEST(ArrayMap, LookupAlwaysSucceedsInRange) {
  auto map = make_map(array_def(4));
  const std::uint32_t key = 2;
  auto* v = map->find(key);
  ASSERT_NE(v, nullptr);
  // Preallocated and zeroed.
  std::uint64_t val;
  std::memcpy(&val, v, 8);
  EXPECT_EQ(val, 0u);
}

TEST(ArrayMap, OutOfRangeIndexFails) {
  auto map = make_map(array_def(4));
  const std::uint32_t key = 4;
  EXPECT_EQ(map->find(key), nullptr);
}

TEST(ArrayMap, UpdateThenLookup) {
  auto map = make_map(array_def(4));
  const std::uint32_t key = 1;
  const std::uint64_t value = 0xabcdef;
  EXPECT_EQ(map->put(key, value), kOk);
  std::uint64_t got;
  std::memcpy(&got, map->find(key), 8);
  EXPECT_EQ(got, value);
}

TEST(ArrayMap, DeleteIsInvalid) {
  auto map = make_map(array_def(4));
  const std::uint32_t key = 1;
  EXPECT_EQ(map->erase({reinterpret_cast<const std::uint8_t*>(&key), 4}),
            kErrInval);
}

TEST(ArrayMap, NoExistFlagCannotSucceed) {
  auto map = make_map(array_def(4));
  const std::uint32_t key = 0;
  const std::uint64_t value = 1;
  EXPECT_EQ(map->put(key, value, BPF_NOEXIST), kErrExist);
}

TEST(ArrayMap, StablePointerAcrossUpdates) {
  auto map = make_map(array_def(4));
  const std::uint32_t key = 3;
  auto* before = map->find(key);
  const std::uint64_t value = 7;
  map->put(key, value);
  EXPECT_EQ(map->find(key), before);
}

TEST(HashMap, InsertLookupDelete) {
  auto map = make_map({MapType::kHash, 8, 8, 16, "h"});
  const std::uint64_t key = 0x1234, value = 0x5678;
  EXPECT_EQ(map->find(key), nullptr);
  EXPECT_EQ(map->put(key, value), kOk);
  ASSERT_NE(map->find(key), nullptr);
  EXPECT_EQ(map->erase({reinterpret_cast<const std::uint8_t*>(&key), 8}), kOk);
  EXPECT_EQ(map->find(key), nullptr);
  EXPECT_EQ(map->erase({reinterpret_cast<const std::uint8_t*>(&key), 8}),
            kErrNoEnt);
}

TEST(HashMap, UpdateFlagsSemantics) {
  auto map = make_map({MapType::kHash, 8, 8, 16, "h"});
  const std::uint64_t key = 1, v1 = 10, v2 = 20;
  EXPECT_EQ(map->put(key, v1, BPF_EXIST), kErrNoEnt);   // must exist
  EXPECT_EQ(map->put(key, v1, BPF_NOEXIST), kOk);       // create
  EXPECT_EQ(map->put(key, v2, BPF_NOEXIST), kErrExist); // already there
  EXPECT_EQ(map->put(key, v2, BPF_EXIST), kOk);         // update
  std::uint64_t got;
  std::memcpy(&got, map->find(key), 8);
  EXPECT_EQ(got, v2);
}

TEST(HashMap, CapacityEnforced) {
  auto map = make_map({MapType::kHash, 8, 8, 2, "h"});
  const std::uint64_t v = 0;
  for (std::uint64_t k = 0; k < 2; ++k) EXPECT_EQ(map->put(k, v), kOk);
  const std::uint64_t k3 = 99;
  EXPECT_EQ(map->put(k3, v), kErrNoSpace);
  // Updating an existing key still works at capacity.
  const std::uint64_t k0 = 0;
  EXPECT_EQ(map->put(k0, v), kOk);
}

TEST(HashMap, ValuePointersSurviveRehash) {
  auto map = make_map({MapType::kHash, 8, 8, 4096, "h"});
  const std::uint64_t k0 = 0, v = 42;
  map->put(k0, v);
  auto* p = map->find(k0);
  for (std::uint64_t k = 1; k < 1000; ++k) map->put(k, v);
  EXPECT_EQ(map->find(k0), p);
}

// ---- LPM trie ------------------------------------------------------------------

struct LpmKey {
  std::uint32_t prefixlen;
  std::uint8_t data[4];
};

TEST(LpmTrie, LongestPrefixWins) {
  auto map = make_map({MapType::kLpmTrie, 4 + 4, 4, 16, "lpm"});
  const LpmKey k8{8, {10, 0, 0, 0}};
  const LpmKey k16{16, {10, 1, 0, 0}};
  const std::uint32_t v8 = 8, v16 = 16;
  EXPECT_EQ(map->put(k8, v8), kOk);
  EXPECT_EQ(map->put(k16, v16), kOk);

  const LpmKey q1{32, {10, 1, 2, 3}};   // matches /16 (longer)
  const LpmKey q2{32, {10, 9, 2, 3}};   // only /8
  std::uint32_t got;
  std::memcpy(&got, map->find(q1), 4);
  EXPECT_EQ(got, 16u);
  std::memcpy(&got, map->find(q2), 4);
  EXPECT_EQ(got, 8u);
}

TEST(LpmTrie, NoMatchReturnsNull) {
  auto map = make_map({MapType::kLpmTrie, 4 + 4, 4, 16, "lpm"});
  const LpmKey k8{8, {10, 0, 0, 0}};
  const std::uint32_t v = 1;
  map->put(k8, v);
  const LpmKey q{32, {11, 0, 0, 1}};
  EXPECT_EQ(map->find(q), nullptr);
}

TEST(LpmTrie, DefaultRouteZeroLenMatchesEverything) {
  auto map = make_map({MapType::kLpmTrie, 4 + 4, 4, 16, "lpm"});
  const LpmKey k0{0, {0, 0, 0, 0}};
  const std::uint32_t v = 77;
  EXPECT_EQ(map->put(k0, v), kOk);
  const LpmKey q{32, {1, 2, 3, 4}};
  std::uint32_t got;
  std::memcpy(&got, map->find(q), 4);
  EXPECT_EQ(got, 77u);
}

TEST(LpmTrie, DeleteRestoresShorterMatch) {
  auto map = make_map({MapType::kLpmTrie, 4 + 4, 4, 16, "lpm"});
  const LpmKey k8{8, {10, 0, 0, 0}};
  const LpmKey k16{16, {10, 1, 0, 0}};
  const std::uint32_t v8 = 8, v16 = 16;
  map->put(k8, v8);
  map->put(k16, v16);
  EXPECT_EQ(map->erase({reinterpret_cast<const std::uint8_t*>(&k16), 8}), kOk);
  const LpmKey q{32, {10, 1, 2, 3}};
  std::uint32_t got;
  std::memcpy(&got, map->find(q), 4);
  EXPECT_EQ(got, 8u);
}

TEST(LpmTrie, PrefixLenBeyondKeyRejected) {
  auto map = make_map({MapType::kLpmTrie, 4 + 4, 4, 16, "lpm"});
  const LpmKey bad{33, {1, 2, 3, 4}};
  const std::uint32_t v = 0;
  EXPECT_EQ(map->put(bad, v), kErrInval);
}

// ---- Registry & perf event array ---------------------------------------------------

TEST(MapRegistry, IdsStartAtOneAndResolve) {
  MapRegistry reg;
  EXPECT_EQ(reg.get(0), nullptr);
  const auto id = reg.create(array_def(1));
  EXPECT_EQ(id, 1u);
  EXPECT_NE(reg.get(id), nullptr);
  EXPECT_EQ(reg.get(id + 1), nullptr);
}

TEST(PerfEventBuffer, PushPollFifo) {
  PerfEventBuffer buf(4);
  const std::uint8_t a[] = {1}, b[] = {2};
  EXPECT_TRUE(buf.push(100, a));
  EXPECT_TRUE(buf.push(200, b));
  auto r1 = buf.poll();
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(r1->time_ns, 100u);
  EXPECT_EQ(r1->data[0], 1);
  auto r2 = buf.poll();
  EXPECT_EQ(r2->data[0], 2);
  EXPECT_FALSE(buf.poll().has_value());
}

TEST(PerfEventBuffer, DropsWhenFull) {
  PerfEventBuffer buf(2);
  const std::uint8_t x[] = {0};
  EXPECT_TRUE(buf.push(0, x));
  EXPECT_TRUE(buf.push(0, x));
  EXPECT_FALSE(buf.push(0, x));
  EXPECT_EQ(buf.dropped(), 1u);
  EXPECT_EQ(buf.produced(), 2u);
}

TEST(PerfEventArray, BpfSideOperationsRejected) {
  MapRegistry reg;
  const auto id = create_perf_event_array(reg, "events");
  Map* map = reg.get(id);
  const std::uint32_t key = 0;
  EXPECT_EQ(map->find(key), nullptr);
  const std::uint32_t v = 0;
  EXPECT_EQ(map->put(key, v), kErrInval);
}

TEST(MakeMap, RejectsBadDefs) {
  EXPECT_THROW(make_map({MapType::kArray, 8, 8, 4, "bad"}),
               std::invalid_argument);  // array key must be 4
  EXPECT_THROW(make_map({MapType::kArray, 4, 0, 4, "bad"}),
               std::invalid_argument);
  EXPECT_THROW(make_map({MapType::kLpmTrie, 4, 4, 4, "bad"}),
               std::invalid_argument);  // no room for prefix data
  EXPECT_THROW(make_map({MapType::kPerCpuArray, 8, 8, 4, "bad"}),
               std::invalid_argument);  // percpu array key must be 4 too
}

// ---- per-CPU maps -----------------------------------------------------------

TEST(PerCpuArrayMap, SlotsAreIndependentPerCpu) {
  auto map = make_map({MapType::kPerCpuArray, 4, 8, 4, "pc"});
  EXPECT_TRUE(map->per_cpu());
  const std::uint32_t key = 1;
  // BPF-side update on cpu 3 must not leak into any other cpu's slot.
  const std::uint64_t v3 = 33;
  EXPECT_EQ(map->update_cpu({reinterpret_cast<const std::uint8_t*>(&key), 4},
                            {reinterpret_cast<const std::uint8_t*>(&v3), 8},
                            BPF_ANY, 3),
            kOk);
  for (std::uint32_t c = 0; c < kMaxCpus; ++c) {
    std::uint64_t got;
    const std::uint8_t* v = map->find_cpu(key, c);
    ASSERT_NE(v, nullptr);
    std::memcpy(&got, v, 8);
    EXPECT_EQ(got, c == 3 ? 33u : 0u) << "cpu " << c;
  }
  // Slots are distinct storage.
  EXPECT_NE(map->find_cpu(key, 0), map->find_cpu(key, 1));
  // Plain lookup (user-space convenience) reads cpu 0.
  EXPECT_EQ(map->find(key), map->find_cpu(key, 0));
}

TEST(PerCpuArrayMap, UserSpaceUpdateBroadcastsAndSumReads) {
  auto map = make_map({MapType::kPerCpuArray, 4, 8, 2, "pc"});
  const std::uint32_t key = 0;
  const std::uint64_t seed = 5;
  EXPECT_EQ(map->put(key, seed), kOk);  // syscall-style: every cpu's slot
  EXPECT_EQ(map->sum_u64(key), 5u * kMaxCpus);
  const std::uint64_t v1 = 100;
  map->update_cpu({reinterpret_cast<const std::uint8_t*>(&key), 4},
                  {reinterpret_cast<const std::uint8_t*>(&v1), 8}, BPF_ANY, 1);
  EXPECT_EQ(map->sum_u64(key), 5u * (kMaxCpus - 1) + 100u);
}

TEST(PerCpuArrayMap, BoundsAndFlags) {
  auto map = make_map({MapType::kPerCpuArray, 4, 8, 2, "pc"});
  const std::uint32_t bad_key = 2;
  EXPECT_EQ(map->find_cpu(bad_key, 0), nullptr);
  const std::uint32_t key = 0;
  EXPECT_EQ(map->find_cpu(key, kMaxCpus), nullptr);  // cpu out of range
  const std::uint64_t v = 1;
  EXPECT_EQ(map->put(key, v, BPF_NOEXIST), kErrExist);
  EXPECT_EQ(map->erase({reinterpret_cast<const std::uint8_t*>(&key), 4}),
            kErrInval);
}

TEST(PerCpuHashMap, CreateZeroFillsOtherCpus) {
  auto map = make_map({MapType::kPerCpuHash, 8, 8, 16, "pch"});
  EXPECT_TRUE(map->per_cpu());
  const std::uint64_t key = 0xfeed;
  EXPECT_EQ(map->find_cpu(key, 0), nullptr);  // absent
  // First touch from cpu 2 creates the entry: slot 2 has the value, every
  // other slot starts at zero.
  const std::uint64_t v = 7;
  EXPECT_EQ(map->update_cpu({reinterpret_cast<const std::uint8_t*>(&key), 8},
                            {reinterpret_cast<const std::uint8_t*>(&v), 8},
                            BPF_ANY, 2),
            kOk);
  EXPECT_EQ(map->size(), 1u);
  for (std::uint32_t c = 0; c < kMaxCpus; ++c) {
    std::uint64_t got;
    const std::uint8_t* p = map->find_cpu(key, c);
    ASSERT_NE(p, nullptr);
    std::memcpy(&got, p, 8);
    EXPECT_EQ(got, c == 2 ? 7u : 0u);
  }
  EXPECT_EQ(map->sum_u64(key), 7u);
}

TEST(PerCpuHashMap, FlagsAndErase) {
  auto map = make_map({MapType::kPerCpuHash, 8, 8, 2, "pch"});
  const std::uint64_t k1 = 1, k2 = 2, k3 = 3, v = 9;
  EXPECT_EQ(map->put(k1, v, BPF_EXIST), kErrNoEnt);
  EXPECT_EQ(map->put(k1, v), kOk);
  EXPECT_EQ(map->put(k1, v, BPF_NOEXIST), kErrExist);
  EXPECT_EQ(map->put(k2, v), kOk);
  EXPECT_EQ(map->put(k3, v), kErrNoSpace);
  EXPECT_EQ(map->erase({reinterpret_cast<const std::uint8_t*>(&k1), 8}), kOk);
  EXPECT_EQ(map->erase({reinterpret_cast<const std::uint8_t*>(&k1), 8}),
            kErrNoEnt);
  // User-space put broadcast: sum reads kMaxCpus copies.
  EXPECT_EQ(map->sum_u64(k2), 9u * kMaxCpus);
}

TEST(PerCpuHashMap, CpuPastRangeIsRejectedWithoutCreating) {
  auto map = make_map({MapType::kPerCpuHash, 8, 8, 16, "pch"});
  const std::uint64_t key = 1, v = 9;
  const std::span<const std::uint8_t> k{
      reinterpret_cast<const std::uint8_t*>(&key), 8};
  const std::span<const std::uint8_t> val{
      reinterpret_cast<const std::uint8_t*>(&v), 8};
  for (const std::uint32_t cpu : {kMaxCpus, ~0u}) {
    EXPECT_EQ(map->update_cpu(k, val, BPF_ANY, cpu), kErrInval) << cpu;
    EXPECT_EQ(map->size(), 0u) << cpu;
  }
  EXPECT_EQ(map->update_cpu(k, val, BPF_ANY, 0), kOk);
  EXPECT_EQ(map->lookup_cpu(k, ~0u), nullptr);
}

// ---- shared maps through the per-CPU entry points ---------------------------

// Every map helper passes the invoking context's ExecEnv::cpu_id, so on a
// multi-core node a shared (non-per-CPU) map is reached with cpu != 0. It
// must ignore the cpu — even one past kMaxCpus — and serve the one value.
class SharedMapCpuTest : public ::testing::TestWithParam<MapType> {};

INSTANTIATE_TEST_SUITE_P(SharedTypes, SharedMapCpuTest,
                         ::testing::Values(MapType::kArray, MapType::kHash,
                                           MapType::kLpmTrie),
                         [](const auto& info) {
                           switch (info.param) {
                             case MapType::kArray: return "Array";
                             case MapType::kHash: return "Hash";
                             default: return "LpmTrie";
                           }
                         });

TEST_P(SharedMapCpuTest, CpuArgumentIsIgnored) {
  const MapType type = GetParam();
  auto map = make_map({type, type == MapType::kArray ? 4u : 8u, 8, 4, "s"});
  EXPECT_FALSE(map->per_cpu());
  // Array index 1; for hash and LPM trie, the /32 prefix 10.0.0.1 (a
  // host-endian u32 prefixlen, then the data bytes).
  const std::uint8_t index_key[4] = {1, 0, 0, 0};
  const std::uint8_t prefix_key[8] = {32, 0, 0, 0, 10, 0, 0, 1};
  const std::span<const std::uint8_t> key =
      type == MapType::kArray ? std::span<const std::uint8_t>(index_key)
                              : std::span<const std::uint8_t>(prefix_key);
  const std::uint64_t v1 = 11, v2 = 22, v3 = 33;
  auto bytes = [](const std::uint64_t& v) {
    return std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(&v), 8);
  };

  if (type == MapType::kHash) {
    // A program on cpu 5 creates the missing key.
    EXPECT_EQ(map->lookup(key), nullptr);
    EXPECT_EQ(map->update_cpu(key, bytes(v1), BPF_ANY, 5), kOk);
    EXPECT_EQ(map->size(), 1u);
  } else {
    EXPECT_EQ(map->update(key, bytes(v1), BPF_ANY), kOk);
  }
  std::uint8_t* value = map->lookup(key);
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(map->lookup_cpu(key, 7), value);
  EXPECT_EQ(map->lookup_cpu(key, kMaxCpus + 3), value);

  // A write from cpu 5 changes the value every cpu reads.
  EXPECT_EQ(map->update_cpu(key, bytes(v2), BPF_ANY, 5), kOk);
  EXPECT_EQ(map->lookup(key), value);
  std::uint64_t got;
  std::memcpy(&got, value, 8);
  EXPECT_EQ(got, v2);
  EXPECT_EQ(map->update_cpu(key, bytes(v3), BPF_EXIST, kMaxCpus + 3), kOk);
  std::memcpy(&got, map->lookup_cpu(key, 2), 8);
  EXPECT_EQ(got, v3);
  EXPECT_EQ(map->sum_u64(key), v3);  // one value, counted once
}

TEST(PerfEventBuffer, RecordsCarryCpuField) {
  PerfEventBuffer buf(4);
  const std::uint8_t a[] = {1};
  EXPECT_TRUE(buf.push(100, a, 3));
  auto r = buf.poll();
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->cpu, 3u);
  EXPECT_EQ(r->time_ns, 100u);
}

}  // namespace
}  // namespace srv6bpf::ebpf
