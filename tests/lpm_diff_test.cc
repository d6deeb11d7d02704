// Differential test of the multibit-stride LPM engine (util::LpmTrie)
// against the classic one-bit-per-node walk it replaced
// (util::BitwiseLpmTrie, preserved as the oracle): randomized
// insert/erase/lookup sequences over IPv6-width keys must produce identical
// longest-prefix results at every step — including the /0 default route,
// overlapping /48 + /64 prefixes and erase-then-relookup — plus the same
// checks through the BPF_MAP_TYPE_LPM_TRIE map interface.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "apps/sink.h"
#include "apps/trafgen.h"
#include "ebpf/map.h"
#include "expect_drained.h"
#include "net/checksum.h"
#include "net/packet.h"
#include "net/transport.h"
#include "sim/network.h"
#include "usecases/setup1.h"
#include "util/lpm_trie.h"
#include "util/rng.h"

namespace srv6bpf {
namespace {

using util::BitwiseLpmTrie;
using util::LpmTrie;

struct Key {
  std::uint8_t bytes[16] = {};
};

// Draws prefixes from a deliberately collision-heavy universe: few distinct
// leading bytes and a /48-shaped pool of plens, so inserts overlap, erases
// hit and lookups land near prefix boundaries.
Key random_key(Rng& rng) {
  Key k;
  for (int i = 0; i < 16; ++i)
    k.bytes[i] = static_cast<std::uint8_t>(rng.uniform(0, 3));
  return k;
}

std::uint32_t random_plen(Rng& rng) {
  static constexpr std::uint32_t kPool[] = {0,  1,  8,  16, 31, 32, 33,
                                            47, 48, 49, 64, 96, 127, 128};
  return kPool[rng.uniform(0, std::size(kPool) - 1)];
}

// Zeroes the bits beyond plen: the canonical identity of a prefix. The tries
// are always fed the *unmasked* key (both engines must ignore the excess
// bits); the test's own bookkeeping uses the canonical form.
Key canon(const Key& k, std::uint32_t plen) {
  Key c;
  for (std::uint32_t b = 0; b < 16; ++b) {
    const std::uint32_t bit0 = b * 8;
    if (bit0 + 8 <= plen)
      c.bytes[b] = k.bytes[b];
    else if (bit0 < plen)
      c.bytes[b] = static_cast<std::uint8_t>(
          k.bytes[b] & (0xff << (8 - (plen - bit0))));
  }
  return c;
}

TEST(LpmDifferential, RandomizedInsertEraseLookup) {
  Rng rng(0x10f2);
  LpmTrie<std::uint32_t> stride(16);
  BitwiseLpmTrie<std::uint32_t> bitwise(16);
  std::vector<std::pair<Key, std::uint32_t>> live;  // for targeted erases

  for (int step = 0; step < 20000; ++step) {
    const int op = static_cast<int>(rng.uniform(0, 9));
    if (op < 4) {  // insert
      const Key k = random_key(rng);
      const std::uint32_t plen = random_plen(rng);
      const std::uint32_t val = rng.next_u32();
      bool created_s = false, created_b = false;
      *stride.find_or_insert(k.bytes, plen, created_s) = val;
      *bitwise.find_or_insert(k.bytes, plen, created_b) = val;
      ASSERT_EQ(created_s, created_b) << "step " << step;
      if (created_s) live.emplace_back(canon(k, plen), plen);
    } else if (op < 6 && !live.empty()) {  // erase a known-live prefix
      const std::size_t i = rng.uniform(0, live.size() - 1);
      const auto [k, plen] = live[i];
      live[i] = live.back();
      live.pop_back();
      ASSERT_TRUE(stride.erase(k.bytes, plen)) << "step " << step;
      ASSERT_TRUE(bitwise.erase(k.bytes, plen));
    } else if (op == 6) {  // erase a random (usually absent) prefix
      const Key k = random_key(rng);
      const std::uint32_t plen = random_plen(rng);
      const bool es = stride.erase(k.bytes, plen);
      const bool eb = bitwise.erase(k.bytes, plen);
      ASSERT_EQ(es, eb) << "step " << step;
      if (es) {
        const Key ck = canon(k, plen);
        for (std::size_t i = 0; i < live.size(); ++i) {
          if (std::memcmp(live[i].first.bytes, ck.bytes, 16) == 0 &&
              live[i].second == plen) {
            live[i] = live.back();
            live.pop_back();
            break;
          }
        }
      }
    } else {  // lookup
      const Key q = random_key(rng);
      const std::uint32_t* vs = stride.lookup(q.bytes);
      const std::uint32_t* vb = bitwise.lookup(q.bytes);
      ASSERT_EQ(vs != nullptr, vb != nullptr) << "step " << step;
      if (vs != nullptr) {
        ASSERT_EQ(*vs, *vb) << "step " << step;
      }
    }
    ASSERT_EQ(stride.size(), bitwise.size()) << "step " << step;
  }
}

// The /0 default route must lose to everything more specific and win when
// nothing else covers — and erasing it must restore "no match".
TEST(LpmDifferential, DefaultRouteAndEraseRelookup) {
  LpmTrie<int> trie(16);
  Key any;
  any.bytes[0] = 0x20;

  EXPECT_EQ(trie.lookup(any.bytes), nullptr);
  bool created = false;
  *trie.find_or_insert(Key{}.bytes, 0, created) = 1;  // ::/0
  ASSERT_TRUE(created);
  ASSERT_NE(trie.lookup(any.bytes), nullptr);
  EXPECT_EQ(*trie.lookup(any.bytes), 1);

  Key p48;
  p48.bytes[0] = 0x20;
  p48.bytes[5] = 0x99;
  *trie.find_or_insert(p48.bytes, 48, created) = 2;
  Key q = p48;
  q.bytes[15] = 0xff;  // inside the /48
  EXPECT_EQ(*trie.lookup(q.bytes), 2);
  q.bytes[5] = 0x00;  // outside the /48, back to the default
  EXPECT_EQ(*trie.lookup(q.bytes), 1);

  ASSERT_TRUE(trie.erase(p48.bytes, 48));
  q.bytes[5] = 0x99;
  EXPECT_EQ(*trie.lookup(q.bytes), 1) << "erase must fall back to /0";
  ASSERT_TRUE(trie.erase(Key{}.bytes, 0));
  EXPECT_EQ(trie.lookup(q.bytes), nullptr) << "no routes, no match";
}

// Overlapping /48 + /64 under the same /48: the /64 wins inside itself, the
// /48 everywhere else in its range; erasing the /64 uncovers the /48.
TEST(LpmDifferential, Overlapping48And64) {
  LpmTrie<int> trie(16);
  bool created = false;
  Key p48;
  p48.bytes[0] = 0xfc;
  p48.bytes[5] = 0x01;
  *trie.find_or_insert(p48.bytes, 48, created) = 48;
  Key p64 = p48;
  p64.bytes[6] = 0xab;
  p64.bytes[7] = 0xcd;
  *trie.find_or_insert(p64.bytes, 64, created) = 64;

  Key q = p64;
  q.bytes[15] = 0x01;
  EXPECT_EQ(*trie.lookup(q.bytes), 64);
  q.bytes[7] = 0x00;  // same /48, different /64
  EXPECT_EQ(*trie.lookup(q.bytes), 48);

  ASSERT_TRUE(trie.erase(p64.bytes, 64));
  q.bytes[7] = 0xcd;
  EXPECT_EQ(*trie.lookup(q.bytes), 48) << "erase-then-relookup: /48 uncovered";
}

// Same differential through the BPF map interface: the kernel-style key
// (u32 prefixlen + data) and the stable-value-pointer contract.
TEST(LpmDifferential, MapInterfaceMatchesOracle) {
  using namespace ebpf;
  auto map = make_map({MapType::kLpmTrie, 4 + 16, 4, 1 << 16, "lpm"});
  BitwiseLpmTrie<std::uint32_t> oracle(16);
  Rng rng(0xbeef);

  struct MapKey {
    std::uint32_t plen;
    std::uint8_t data[16];
  };
  for (int step = 0; step < 4000; ++step) {
    const Key k = random_key(rng);
    const std::uint32_t plen = random_plen(rng);
    MapKey mk{plen, {}};
    std::memcpy(mk.data, k.bytes, 16);
    const int op = static_cast<int>(rng.uniform(0, 4));
    if (op < 2) {
      const std::uint32_t val = rng.next_u32();
      ASSERT_EQ(map->put(mk, val), kOk);
      bool created = false;
      *oracle.find_or_insert(k.bytes, plen, created) = val;
    } else if (op == 2) {
      const int rc = map->erase(
          {reinterpret_cast<const std::uint8_t*>(&mk), sizeof mk});
      const bool erased = oracle.erase(k.bytes, plen);
      ASSERT_EQ(rc == kOk, erased) << "step " << step;
    } else {
      mk.plen = 128;  // lookups match the full key regardless of plen
      const std::uint8_t* v = map->find(mk);
      const std::uint32_t* ov = oracle.lookup(k.bytes);
      ASSERT_EQ(v != nullptr, ov != nullptr) << "step " << step;
      if (v != nullptr) {
        std::uint32_t mv;
        std::memcpy(&mv, v, 4);
        ASSERT_EQ(mv, *ov) << "step " << step;
      }
    }
    ASSERT_EQ(map->size(), oracle.size());
  }
}

// Value pointers must stay stable across unrelated inserts (the map hands
// them to BPF programs, which hold them across helper calls).
TEST(LpmDifferential, StableValuePointers) {
  using namespace ebpf;
  auto map = make_map({MapType::kLpmTrie, 4 + 16, 8, 256, "lpm"});
  struct MapKey {
    std::uint32_t plen;
    std::uint8_t data[16];
  };
  MapKey base{48, {}};
  base.data[0] = 0xfc;
  ASSERT_EQ(map->put(base, std::uint64_t{7}), kOk);
  MapKey probe = base;
  probe.plen = 128;
  const std::uint8_t* before = map->find(probe);
  ASSERT_NE(before, nullptr);

  Rng rng(0x5a5a);
  for (int i = 0; i < 200; ++i) {
    MapKey mk{64, {}};
    mk.data[0] = 0xfc;
    mk.data[1] = 0x01;  // sibling /48: never covers `probe`
    mk.data[7] = static_cast<std::uint8_t>(i);
    mk.data[6] = static_cast<std::uint8_t>(rng.uniform(0, 255));
    ASSERT_EQ(map->put(mk, static_cast<std::uint64_t>(i)), kOk);
  }
  EXPECT_EQ(map->find(probe), before)
      << "inserts must not move existing values";
  std::uint64_t v;
  std::memcpy(&v, before, 8);
  EXPECT_EQ(v, 7u);
}

// Erase must prune emptied nodes: stride nodes are ~3.3 KB, so insert/erase
// churn (host routes cycling through a map) must not accrete memory.
TEST(LpmDifferential, ErasePrunesEmptyNodes) {
  LpmTrie<int> trie(16);
  ASSERT_EQ(trie.node_count(), 1u);  // just the root
  Rng rng(0x77);
  bool created = false;
  for (int round = 0; round < 50; ++round) {
    Key keys[8];
    for (auto& k : keys) {
      for (int j = 0; j < 16; ++j)
        k.bytes[j] = static_cast<std::uint8_t>(rng.uniform(0, 255));
      *trie.find_or_insert(k.bytes, 128, created) = round;
    }
    EXPECT_GT(trie.node_count(), 1u);
    for (const auto& k : keys) ASSERT_TRUE(trie.erase(k.bytes, 128));
    EXPECT_EQ(trie.node_count(), 1u)
        << "round " << round << ": erased /128s must prune their chains";
  }
  // Pruning must not disturb entries on a shared path: /48 + /64 share
  // 6 bytes of descent; erasing the /64 keeps the /48's terminal node.
  Key p48;
  p48.bytes[0] = 0xfc;
  *trie.find_or_insert(p48.bytes, 48, created) = 1;
  Key p64 = p48;
  p64.bytes[7] = 9;
  *trie.find_or_insert(p64.bytes, 64, created) = 2;
  ASSERT_TRUE(trie.erase(p64.bytes, 64));
  ASSERT_NE(trie.lookup(p64.bytes), nullptr);
  EXPECT_EQ(*trie.lookup(p64.bytes), 1);
}

// End-to-end: TrafGen::Config::dst_spread cycles destinations over a
// /48-heavy FIB, so the one-entry FibCacheSlot never answers and every
// packet exercises the stride trie through the live datapath — and the
// incremental UDP checksum fixup must keep every rotated packet valid.
TEST(LpmEndToEnd, DstSpreadDrivesTrieWithValidChecksums) {
  constexpr std::size_t kSites = 32;
  usecases::Setup1 lab(0x4d);
  sim::Node& r = *lab.r;
  r.cpu.enabled = false;  // R forwards at line rate: only its FIB is tested
  lab.add_fib48(kSites);

  apps::AppMux mux(*lab.s2);
  std::set<net::Ipv6Addr> dsts_seen;
  std::uint64_t delivered = 0, checksums_ok = 0;
  mux.on_udp(7001, [&](const net::Packet& pkt, const net::UdpHeader&,
                       std::span<const std::uint8_t>, sim::TimeNs) {
    ++delivered;
    std::array<std::uint8_t, 16> sb, db;
    std::memcpy(sb.data(), pkt.data() + 8, 16);
    std::memcpy(db.data(), pkt.data() + 24, 16);
    const net::Ipv6Addr src(sb), dst(db);
    dsts_seen.insert(dst);
    const auto loc = net::locate_transport(pkt);
    ASSERT_TRUE(loc.has_value());
    if (net::transport_checksum_ok(
            src, dst, net::kProtoUdp,
            {pkt.data() + loc->offset, pkt.size() - loc->offset}))
      ++checksums_ok;
  });

  apps::TrafGen::Config cfg;
  cfg.spec.src = lab.s1_addr;
  cfg.spec.dst = net::Ipv6Addr::must_parse("2001:db8::2");
  cfg.spec.dst_port = 7001;
  cfg.spec.payload_size = 64;
  cfg.pps = 1e5;
  cfg.dst_spread = kSites;
  cfg.src_port_spread = 5;  // both rewrites must compose checksum-correctly
  cfg.duration = 2 * sim::kMilli;
  apps::TrafGen gen(*lab.s1, cfg);
  gen.start();
  lab.net.run_for(sim::kSecond);

  EXPECT_EQ(delivered, gen.sent());
  EXPECT_EQ(checksums_ok, delivered) << "rotated dsts must keep valid UDP "
                                        "checksums (incremental fixup)";
  EXPECT_EQ(dsts_seen.size(), kSites);
  // Every packet switched destination, so the one-entry cache never hits:
  // the stride trie answered every route lookup.
  EXPECT_EQ(r.ns().table(0).cache_hits(), 0u);
  EXPECT_GT(delivered, kSites * 4);
  expect_drained(lab.net);
}

}  // namespace
}  // namespace srv6bpf
