// LPM sweep — what the multibit-stride trie buys over the bit-by-bit walk.
//
// Lookup ns/op of the stride engine (util::LpmTrie) vs the classic
// one-bit-per-node walk it replaced (util::BitwiseLpmTrie, kept as the
// oracle) over three prefix-set shapes — the /48-heavy FIB the paper's SRv6
// deployments route on, a mixed /32+/48+/64 table and a /128 host-route
// table. The engines are also cross-checked per key (identical match ids),
// so this doubles as a coarse differential. The end-to-end view, fig2 with
// a /48-heavy FIB at R and dst_spread traffic, is the fig2_fib48 case of
// tests/alloc_test.cc.
//
// The gate: stride >= 2x bitwise on the /48-heavy workload. The speedup is
// wall-clock based but host-factor-free (same machine, same keys, back to
// back), so, unlike the other benches' wall ratios, it is a hard gate in
// every mode, --quick included.
//
// Writes BENCH_lpm.json (flags and exit status: bench/report.h).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "report.h"
#include "util/lpm_trie.h"
#include "util/rng.h"

using namespace srv6bpf;
using namespace srv6bpf::bench;

namespace {

constexpr double kGate = 2.0;  // stride >= 2x bitwise on fib48

struct Key16 {
  std::uint8_t b[16] = {};
};

struct Workload {
  std::string name;
  std::vector<std::pair<Key16, std::uint32_t>> prefixes;  // (key, plen)
  std::vector<Key16> queries;
};

// /48-heavy: the shape of a real SRv6 site FIB (plus the default route).
Workload make_fib48(Rng& rng) {
  Workload w;
  w.name = "fib48";
  w.prefixes.push_back({Key16{}, 0});  // ::/0
  for (int i = 0; i < 4096; ++i) {
    Key16 k;
    k.b[0] = 0x20;
    k.b[1] = 0x01;
    for (int j = 2; j < 6; ++j)
      k.b[j] = static_cast<std::uint8_t>(rng.uniform(0, 255));
    w.prefixes.push_back({k, 48});
  }
  for (int q = 0; q < 8192; ++q) {
    Key16 k;
    if (rng.chance(0.75)) {  // inside a random installed /48
      k = w.prefixes[rng.uniform(1, w.prefixes.size() - 1)].first;
      for (int j = 6; j < 16; ++j)
        k.b[j] = static_cast<std::uint8_t>(rng.uniform(0, 255));
    } else {  // elsewhere: the default route answers
      for (int j = 0; j < 16; ++j)
        k.b[j] = static_cast<std::uint8_t>(rng.uniform(0, 255));
    }
    w.queries.push_back(k);
  }
  return w;
}

// Nested /32 + /48 + /64 under shared /32s: longest-prefix tie-breaking on
// every lookup.
Workload make_fib_mixed(Rng& rng) {
  Workload w;
  w.name = "fib_mixed";
  w.prefixes.push_back({Key16{}, 0});
  std::vector<Key16> sites;
  for (int i = 0; i < 512; ++i) {
    Key16 k;
    k.b[0] = 0xfc;
    k.b[1] = static_cast<std::uint8_t>(rng.uniform(0, 255));
    k.b[2] = static_cast<std::uint8_t>(rng.uniform(0, 255));
    k.b[3] = static_cast<std::uint8_t>(rng.uniform(0, 255));
    sites.push_back(k);
    w.prefixes.push_back({k, 32});
  }
  for (int i = 0; i < 2048; ++i) {
    Key16 k = sites[rng.uniform(0, sites.size() - 1)];
    k.b[4] = static_cast<std::uint8_t>(rng.uniform(0, 255));
    k.b[5] = static_cast<std::uint8_t>(rng.uniform(0, 255));
    w.prefixes.push_back({k, 48});
    if (rng.chance(0.5)) {
      k.b[6] = static_cast<std::uint8_t>(rng.uniform(0, 255));
      k.b[7] = static_cast<std::uint8_t>(rng.uniform(0, 255));
      w.prefixes.push_back({k, 64});
    }
  }
  for (int q = 0; q < 8192; ++q) {
    Key16 k = w.prefixes[rng.uniform(1, w.prefixes.size() - 1)].first;
    for (int j = 8; j < 16; ++j)
      k.b[j] = static_cast<std::uint8_t>(rng.uniform(0, 255));
    w.queries.push_back(k);
  }
  return w;
}

// /128 host routes: maximum trie depth, ~50% misses.
Workload make_host128(Rng& rng) {
  Workload w;
  w.name = "host128";
  for (int i = 0; i < 4096; ++i) {
    Key16 k;
    k.b[0] = 0xfd;
    for (int j = 1; j < 16; ++j)
      k.b[j] = static_cast<std::uint8_t>(rng.uniform(0, 15));
    w.prefixes.push_back({k, 128});
  }
  for (int q = 0; q < 8192; ++q) {
    if (rng.chance(0.5)) {
      w.queries.push_back(
          w.prefixes[rng.uniform(0, w.prefixes.size() - 1)].first);
    } else {
      Key16 k;
      k.b[0] = 0xfd;
      for (int j = 1; j < 16; ++j)
        k.b[j] = static_cast<std::uint8_t>(rng.uniform(0, 15));
      w.queries.push_back(k);
    }
  }
  return w;
}

// Repeats passes over `queries` until `min_wall_s` elapsed; returns ns per
// lookup and accumulates the matched values into *sink (defeats dead-code
// elimination and gives the cross-engine checksum).
template <typename Trie>
double measure_ns_op(Trie& trie, const std::vector<Key16>& queries,
                     double min_wall_s, std::uint64_t* sink) {
  std::uint64_t lookups = 0;
  std::uint64_t sum = 0;
  const auto t0 = std::chrono::steady_clock::now();
  double elapsed = 0;
  do {
    for (const Key16& q : queries) {
      const std::uint32_t* v = trie.lookup(q.b);
      sum += v ? *v : 0x5eed;
    }
    lookups += queries.size();
    elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count();
  } while (elapsed < min_wall_s);
  *sink = sum;
  return elapsed * 1e9 / static_cast<double>(lookups);
}

// Records one workload's row; returns its stride-vs-bitwise speedup.
double run_micro(const Workload& w, double min_wall_s, Obj& row) {
  util::LpmTrie<std::uint32_t> stride(16);
  util::BitwiseLpmTrie<std::uint32_t> bitwise(16);
  std::uint32_t next = 1;
  for (const auto& [k, plen] : w.prefixes) {
    bool created = false;
    std::uint32_t* s = stride.find_or_insert(k.b, plen, created);
    if (created) *s = next++;
    bool cb = false;
    *bitwise.find_or_insert(k.b, plen, cb) = *s;
  }

  // Cross-engine check: one pass over the queries must match exactly
  // (count of passes differs between the timed runs, so compare here).
  std::uint64_t check_s = 0, check_b = 0;
  for (const Key16& q : w.queries) {
    const std::uint32_t* vs = stride.lookup(q.b);
    const std::uint32_t* vb = bitwise.lookup(q.b);
    check_s += vs ? *vs : 0x5eed;
    check_b += vb ? *vb : 0x5eed;
  }
  if (check_s != check_b) {
    std::fprintf(stderr, "FATAL: %s: engines disagree (stride %llu vs "
                 "bitwise %llu)\n", w.name.c_str(),
                 static_cast<unsigned long long>(check_s),
                 static_cast<unsigned long long>(check_b));
    std::exit(2);
  }

  // Two timed rounds each, interleaved — averages out frequency-ramp bias.
  std::uint64_t sink = 0;
  double bitwise_ns = measure_ns_op(bitwise, w.queries, min_wall_s / 2, &sink);
  double stride_ns = measure_ns_op(stride, w.queries, min_wall_s / 2, &sink);
  bitwise_ns = (bitwise_ns +
                measure_ns_op(bitwise, w.queries, min_wall_s / 2, &sink)) / 2;
  stride_ns = (stride_ns +
               measure_ns_op(stride, w.queries, min_wall_s / 2, &sink)) / 2;
  const double speedup = stride_ns > 0 ? bitwise_ns / stride_ns : 0;
  row.str("name", w.name)
      .num("prefixes", stride.size())
      .num("bitwise_ns_op", bitwise_ns, 1)
      .num("stride_ns_op", stride_ns, 1)
      .num("speedup", speedup, 2);
  return speedup;
}

}  // namespace

int main(int argc, char** argv) {
  const Mode mode = parse_mode(argc, argv);
  const double micro_window_s = mode.quick ? 0.05 : 0.4;  // per engine per pass
  Report rep("BENCH_lpm.json", mode,
             "LPM sweep: multibit-stride trie vs the bit-by-bit walk",
             "every forwarded packet and lwt_seg6_action reroute walks the "
             "FIB; a /48 lookup must cost byte hops, not 48 bit tests");
  rep.str("bench", "lpm_sweep");

  Rng rng(0x48);
  const std::vector<Workload> workloads = {make_fib48(rng),
                                           make_fib_mixed(rng),
                                           make_host128(rng)};
  double speedup_fib48 = 0;
  for (const Workload& w : workloads) {
    const double speedup = run_micro(w, micro_window_s, rep.row("workloads"));
    if (w.name == "fib48") speedup_fib48 = speedup;
  }

  rep.num("speedup_fib48", speedup_fib48, 2).num("gate", kGate, 2);
  // Same-host back-to-back ratio: host-independent enough to enforce in
  // every mode (the stride engine wins by an integer factor, not noise).
  rep.gate(speedup_fib48 >= kGate, "fib48 stride speedup %.2f below %.2f",
           speedup_fib48, kGate);
  return rep.finish();
}
