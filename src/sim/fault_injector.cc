#include "sim/fault_injector.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

#include "net/buffer_pool.h"
#include "seg6/ctx.h"
#include "seg6/seg6local.h"
#include "sim/link.h"
#include "sim/network.h"
#include "sim/node.h"

namespace srv6bpf::sim {

namespace {

// Everything the re-installer puts back after a crash: route config across
// every table plus the seg6local SID bindings. Held behind a shared_ptr so
// the reinstall closure stays within InlineFn's inline capture budget.
struct ConfigSnapshot {
  std::vector<std::pair<int, std::vector<seg6::Route>>> tables;
  std::vector<std::pair<net::Ipv6Addr, seg6::Seg6LocalEntry>> sids;
};

std::shared_ptr<ConfigSnapshot> snapshot_config(Node& node) {
  auto snap = std::make_shared<ConfigSnapshot>();
  for (const auto& [id, fib] : node.ns().tables())
    snap->tables.emplace_back(id, fib.routes());
  for (const auto& [sid, entry] : node.ns().seg6local().entries())
    snap->sids.emplace_back(sid, entry);
  // The SID table iterates in hash order; sort so the restored insertion
  // sequence is a pure function of the config, not of container internals.
  std::sort(snap->sids.begin(), snap->sids.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return snap;
}

void restore_config(Node& node, const ConfigSnapshot& snap) {
  for (const auto& [id, routes] : snap.tables) {
    seg6::Fib& fib = node.ns().table(id);
    for (const seg6::Route& r : routes) fib.add_route(r);
  }
  for (const auto& [sid, entry] : snap.sids)
    node.ns().seg6local().add(sid, entry);
}

// Distinct links attached to `node` (a node pair may share several).
std::vector<Link*> adjacent_links(Node& node) {
  std::vector<Link*> out;
  for (std::size_t i = 0; i < node.interface_count(); ++i) {
    Link* l = node.interface_link(static_cast<int>(i));
    if (l != nullptr && std::find(out.begin(), out.end(), l) == out.end())
      out.push_back(l);
  }
  return out;
}

}  // namespace

FaultInjector::FaultInjector(Network& net, std::uint64_t seed)
    : net_(net), rng_(seed) {}

void FaultInjector::flap(Link& link, TimeNs down_at, TimeNs up_at) {
  flaps_.push_back(FlapSpec{&link, down_at, up_at});
}

void FaultInjector::corrupt(Link& link, int side, double prob, TimeNs from_ns,
                            TimeNs to_ns) {
  corruptions_.push_back(CorruptSpec{&link, side, prob, from_ns, to_ns});
}

void FaultInjector::crash(Node& node, CrashSpec spec) {
  if (spec.restart_at < spec.crash_at)
    throw std::invalid_argument(
        "FaultInjector::crash: restart_at precedes crash_at");
  crashes_.push_back(CrashEntry{&node, spec});
}

void FaultInjector::cap_buffer_pool(std::uint64_t max_buffers) {
  pool_cap_ = max_buffers;
}

std::vector<TimeNs> FaultInjector::backoff_schedule(
    const ReinstallPolicy& policy, TimeNs restart_at, std::size_t attempts,
    Rng& rng) {
  std::vector<TimeNs> out;
  out.reserve(attempts);
  TimeNs t = restart_at;
  double nominal = static_cast<double>(policy.base_backoff);
  for (std::size_t i = 0; i < attempts; ++i) {
    out.push_back(t);
    if (i + 1 == attempts) break;
    // Deterministic jitter: one uniform draw per gap, scaling the nominal
    // backoff by (1 +/- jitter_frac).
    const double scale =
        1.0 + policy.jitter_frac * (2.0 * rng.next_double() - 1.0);
    t += static_cast<TimeNs>(nominal * scale);
    nominal = std::min(nominal * policy.multiplier,
                       static_cast<double>(policy.max_backoff));
  }
  return out;
}

void FaultInjector::compile_crash(const CrashEntry& entry) {
  Node* node = entry.node;
  const CrashSpec& spec = entry.spec;
  const std::vector<Link*> links = adjacent_links(*node);

  // Crash instant: the node's own teardown runs in its domain; carrier cuts
  // are per-side events in each side's domain (Network's link machinery).
  node->loop().schedule_at(spec.crash_at, [node] { node->crash(); });
  for (Link* l : links) net_.schedule_link_down(*l, spec.crash_at);

  node->loop().schedule_at(spec.restart_at, [node] { node->restart(); });

  // Re-installer timeline, fully decided here: the first install_failures
  // attempts fail, so the winning attempt's index — and with it the install
  // instant and the carrier-up instant — is known before the run starts.
  OutageReport report;
  report.node = node;
  report.crash_at = spec.crash_at;
  report.restart_at = spec.restart_at;
  report.gave_up = spec.install_failures >= spec.policy.max_attempts;
  const std::size_t attempts =
      report.gave_up ? spec.policy.max_attempts : spec.install_failures + 1;
  report.attempt_times =
      backoff_schedule(spec.policy, spec.restart_at, attempts, rng_);

  if (!report.gave_up) {
    report.installed_at = report.attempt_times.back();
    auto snap = snapshot_config(*node);
    node->loop().schedule_at(report.installed_at, [node, snap] {
      restore_config(*node, *snap);
    });
    for (Link* l : links) net_.schedule_link_up(*l, report.installed_at);
  }
  outages_.push_back(std::move(report));
}

void FaultInjector::install() {
  if (installed_)
    throw std::logic_error("FaultInjector::install: already installed");
  installed_ = true;

  if (pool_cap_ != 0) net::BufferPool::set_max_buffers(pool_cap_);

  // Corruption streams are seeded from the injector stream in declaration
  // order — part of the (seed, schedule) identity.
  for (const CorruptSpec& c : corruptions_)
    c.link->set_side_corruption(c.side, c.prob, c.from_ns, c.to_ns,
                                rng_.next_u64());

  for (const FlapSpec& f : flaps_) {
    net_.schedule_link_down(*f.link, f.down_at);
    net_.schedule_link_up(*f.link, f.up_at);
  }

  for (const CrashEntry& e : crashes_) compile_crash(e);
}

}  // namespace srv6bpf::sim
