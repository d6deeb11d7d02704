// FaultInjector: a seeded, declarative fault schedule compiled into event-
// loop events.
//
// The injector exists to make chaos *reproducible*: every stochastic choice
// (backoff jitter, corruption draws) comes from streams seeded at
// construction, and everything time-shaped — when a link cuts, when a
// crashed node's control plane wins its install race — is computed at
// install() time, before the simulation runs. The compiled schedule is
// therefore a pure function of (seed, schedule): the same pair replays
// bit-identically at any PDES thread count, because each event lands in its
// owning domain through the same Network/EventLoop machinery as ordinary
// traffic (per-side carrier replicas flip in their own domains; node-local
// events run on the node's domain loop).
//
// Fault vocabulary:
//   flap(link, down_at, up_at)      — carrier cut + repair at absolute times
//   corrupt(link, side, p, from, to)— per-packet bit-flip probability window
//   crash(node, spec)               — power-fail crash, restart, and a
//                                     control-plane re-installer with
//                                     exponential backoff + jitter + retry cap
//   cap_buffer_pool(n)              — BufferPool admission cap (this thread)
//
// Crash lifecycle (the degradation ladder tests/chaos_test.cc walks):
//   crash_at:    Node::crash() — rings flush as drops_node_down, contexts
//                reset, FIB/SID/map contents wiped; every attached link's
//                carrier cuts, so neighbors fast-reroute via seg6::FrrBackup
//                or charge drops_link_down.
//   restart_at:  Node::restart() — the box forwards again but the FIB is
//                cold; carrier stays down (graceful-restart shape: ports
//                come up when the routing daemon is ready), so neighbors
//                keep degrading to backup paths instead of blackholing
//                into an empty RIB.
//   attempts:    the re-installer tries at restart_at, then after
//                exponentially growing backoffs (deterministically
//                jittered); the first `install_failures` attempts fail.
//   installed:   the winning attempt restores the config snapshot taken at
//                install() (routes across every table + seg6local SIDs) and
//                raises carrier on every attached link. If the retry cap is
//                hit first the node stays up but isolated (gave_up).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/event_loop.h"
#include "util/rng.h"

namespace srv6bpf::sim {

class Link;
class Network;
class Node;

// Control-plane re-installer retry shape: attempt i+1 happens
// min(base_backoff * multiplier^i, max_backoff) * (1 +/- jitter_frac * u)
// after attempt i fails, for at most max_attempts attempts total.
struct ReinstallPolicy {
  TimeNs base_backoff = 50 * kMilli;
  double multiplier = 2.0;
  TimeNs max_backoff = 2 * kSecond;
  double jitter_frac = 0.1;  // uniform in [-jitter_frac, +jitter_frac]
  std::size_t max_attempts = 8;
};

struct CrashSpec {
  TimeNs crash_at = 0;
  TimeNs restart_at = 0;
  // The first k install attempts fail (a flapping southbound session); the
  // (k+1)-th succeeds if the retry cap allows it.
  std::size_t install_failures = 0;
  ReinstallPolicy policy{};
};

// Precomputed account of one crash: every attempt instant, and when (if
// ever) the config landed. Available right after install() — the whole
// timeline is decided before the simulation runs.
struct OutageReport {
  Node* node = nullptr;
  TimeNs crash_at = 0;
  TimeNs restart_at = 0;
  std::vector<TimeNs> attempt_times;       // first entry == restart_at
  TimeNs installed_at = kTimeInfinity;     // kTimeInfinity when gave_up
  bool gave_up = false;
};

class FaultInjector {
 public:
  FaultInjector(Network& net, std::uint64_t seed);

  // ---- schedule builders (declarative; nothing happens until install) ----
  void flap(Link& link, TimeNs down_at, TimeNs up_at);
  void corrupt(Link& link, int side, double prob, TimeNs from_ns, TimeNs to_ns);
  void crash(Node& node, CrashSpec spec);
  void cap_buffer_pool(std::uint64_t max_buffers);

  // Compiles the schedule into events. Call once, after the topology's
  // routes/SIDs are configured and (for parallel runs) after the partition
  // is sealed — crash snapshots are taken here, and events must land in
  // their domain loops.
  void install();

  const std::vector<OutageReport>& outages() const noexcept {
    return outages_;
  }

  // The attempt timeline a policy yields for a given restart instant and
  // attempt count, consuming jitter draws from `rng` (one per backoff gap).
  // Exposed so the backoff/jitter/cap unit tests pin the arithmetic the
  // injector uses.
  static std::vector<TimeNs> backoff_schedule(const ReinstallPolicy& policy,
                                              TimeNs restart_at,
                                              std::size_t attempts, Rng& rng);

 private:
  struct FlapSpec {
    Link* link;
    TimeNs down_at;
    TimeNs up_at;
  };
  struct CorruptSpec {
    Link* link;
    int side;
    double prob;
    TimeNs from_ns;
    TimeNs to_ns;
  };
  struct CrashEntry {
    Node* node;
    CrashSpec spec;
  };
  void compile_crash(const CrashEntry& entry);

  Network& net_;
  Rng rng_;  // jitter + corruption-seed derivation; consumed in install order
  bool installed_ = false;
  std::uint64_t pool_cap_ = 0;
  std::vector<FlapSpec> flaps_;
  std::vector<CorruptSpec> corruptions_;
  std::vector<CrashEntry> crashes_;
  std::vector<OutageReport> outages_;
};

}  // namespace srv6bpf::sim
