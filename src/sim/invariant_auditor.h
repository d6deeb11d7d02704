// InvariantAuditor: conservation and liveness checks over a running
// simulation.
//
// The correctness story of every scenario is not "the numbers look
// plausible" but "no packet is ever created or destroyed outside the
// ledger": every packet a source offered and every ICMP a router originated
// must end up delivered, dropped with an attributed reason, or
// demonstrably still in flight — under crashes, link cuts, corruption and
// exhaustion alike. The auditor folds its registered sources' counters into
// that ledger at quiescent points (between run windows, when no worker
// threads are mutating stats) and records a violation string for anything
// that does not balance:
//
//   offered  = sum(source attempted) + sum(node icmp_time_exceeded_sent)
//   consumed = sum(node local_delivered + node total_drops)
//            + sum(link-side drops + drops_link_down)
//   in_flight = offered - consumed   (>= 0 always; == 0 after a drain)
//
// It also asserts clock progress: between two audits of a live workload the
// virtual clock must advance (a stuck clock under PDES means a horizon
// deadlock, which must fail loudly rather than report zeros).
//
// Scenarios do not build one: each sim::Network holds an auditor over all
// its nodes and links whose one source is the nodes' count of the packets
// they originated (NodeStats::originated), and they call Network::ledger()
// and Network::audit(). The registration API below is for an auditor whose
// sources are counted by hand — the repository benchmark (benchmark/)
// registers its generators' TrafGen::attempted — so the formula holds no
// origination term of its own, which would count those packets twice.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/event_loop.h"

namespace srv6bpf::sim {

class Link;
class Node;

class InvariantAuditor {
 public:
  // Registers a traffic source's attempted-emission counter (for
  // apps::TrafGen, `[&gen] { return gen.attempted(); }` — a callback keeps
  // this layer free of app headers). Counted on the offered side.
  void add_source(std::function<std::uint64_t()> attempted) {
    sources_.push_back(std::move(attempted));
  }
  void add_node(const Node& node) { nodes_.push_back(&node); }
  void add_link(const Link& link) { links_.push_back(&link); }

  struct Ledger {
    std::uint64_t offered = 0;
    std::uint64_t consumed = 0;
    // Signed: negative means the conservation violation "more packets
    // accounted for than were ever offered" (double counting).
    std::int64_t in_flight = 0;
  };
  Ledger ledger() const;

  // One audit pass at a quiescent instant `now`. Checks conservation
  // (in_flight >= 0) and, from the second audit on, clock progress.
  // `final_drain` additionally requires in_flight == 0 — call it after the
  // sources stopped and the pipeline emptied.
  void audit(TimeNs now, bool final_drain = false);

  const std::vector<std::string>& violations() const noexcept {
    return violations_;
  }
  std::size_t audits_run() const noexcept { return audits_; }

 private:
  std::vector<std::function<std::uint64_t()>> sources_;
  std::vector<const Node*> nodes_;
  std::vector<const Link*> links_;
  std::vector<std::string> violations_;
  std::size_t audits_ = 0;
  TimeNs last_now_ = 0;
};

}  // namespace srv6bpf::sim
