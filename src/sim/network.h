// Network: owns the event loop, RNG, nodes and links, and provides the
// topology-building vocabulary the examples and benchmarks use to recreate
// the paper's lab setups (Figure 1).
//
// A Network runs serially by default — one EventLoop, one host thread. The
// parallel surface (set_domain_count / assign_domain / seal_domains /
// run_parallel_*) shards the same topology across worker threads under
// conservative PDES synchronization (sim/pdes_domain.h) with a hard
// determinism contract: for a fixed partition, results are bit-identical at
// every thread count. Build the topology, pick the partition, seal, *then*
// attach apps and schedule churn — sealing repoints Node::loop() into the
// domains, and it requires the master loop to be quiescent.
//
// A Network keeps its own conservation ledger over every node and link,
// with the packets the nodes originate as the offered load: a scenario
// checks its own physics with one audit() and registers nothing.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sim/event_loop.h"
#include "sim/invariant_auditor.h"
#include "sim/link.h"
#include "sim/node.h"
#include "sim/pdes_domain.h"
#include "util/rng.h"

namespace srv6bpf::sim {

class Network {
 public:
  explicit Network(std::uint64_t seed = 0x5eed) : rng_(seed), seed_(seed) {
    auditor_.add_source([this] {
      std::uint64_t originated = 0;
      for (const auto& n : nodes_) originated += n->stats().originated;
      return originated;
    });
  }
  // Nodes, links and the ledger's source hold on to this object.
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  EventLoop& loop() noexcept { return loop_; }
  Rng& rng() noexcept { return rng_; }
  TimeNs now() const noexcept { return loop_.now(); }

  Node& add_node(const std::string& name) {
    nodes_.push_back(std::make_unique<Node>(loop_, rng_, name));
    auditor_.add_node(*nodes_.back());
    return *nodes_.back();
  }

  struct Attachment {
    Link* link;
    int a_ifindex;
    int b_ifindex;
  };
  // Creates a link and attaches both ends, assigning the given interface
  // addresses (also installed as local addresses).
  Attachment connect(Node& a, const net::Ipv6Addr& a_addr, Node& b,
                     const net::Ipv6Addr& b_addr, std::uint64_t bandwidth_bps,
                     TimeNs prop_delay_ns) {
    links_.push_back(
        std::make_unique<Link>(loop_, rng_, bandwidth_bps, prop_delay_ns));
    Link& link = *links_.back();
    auditor_.add_link(link);
    const int ai = a.add_interface(link, 0, a_addr);
    const int bi = b.add_interface(link, 1, b_addr);
    return Attachment{&link, ai, bi};
  }

  void run_until(TimeNs t) {
    if (parallel())
      run_parallel_until(t, 1);
    else
      loop_.run_until(t);
  }
  void run_for(TimeNs dt) { run_until(now() + dt); }

  // ---- parallel simulation (conservative PDES; sim/pdes_domain.h) ----
  // Number of thread domains the node set partitions into (default 1 =
  // serial). Set before seal_domains().
  void set_domain_count(std::size_t p) { pdes().set_domain_count(p); }
  // Explicit placement override; unassigned nodes hash by name.
  void assign_domain(Node& node, std::uint32_t dom) {
    pdes().assign(&node, dom);
  }
  std::uint32_t domain_of(const Node& node) const {
    return pdes_->domain_of(&node);
  }
  // Freezes the partition and rebinds every node and link side into its
  // domain. Requires a quiescent master loop (schedule traffic after).
  void seal_domains() { pdes().seal(loop_, nodes_, links_); }
  bool parallel() const noexcept { return pdes_ && pdes_->sealed(); }

  // Advances the partitioned simulation to `t` (inclusive) on up to
  // `threads` workers; bit-identical results at every thread count. Seals
  // implicitly if needed. The master clock follows so now() stays coherent.
  void run_parallel_until(TimeNs t, std::size_t threads) {
    if (!parallel()) seal_domains();
    pdes_->run_until(t, threads);
    loop_.advance_to(t);
  }
  void run_parallel_for(TimeNs dt, std::size_t threads) {
    run_parallel_until(now() + dt, threads);
  }
  // The sealed partition (seal_domains() first) — domain loops, executed-
  // event counts.
  PdesNet& pdes_net() { return pdes(); }

  // ---- conservation ledger (sim/invariant_auditor.h) ----
  // InvariantAuditor's formula with the nodes' originations as its one
  // source. Read it and audit only between run calls (under PDES, between
  // run windows), when no worker thread is mutating stats.
  InvariantAuditor::Ledger ledger() const { return auditor_.ledger(); }
  // One audit at now(); `final_drain` also requires in_flight == 0, once
  // the sources stopped and the pipeline emptied.
  void audit(bool final_drain = false) { auditor_.audit(now(), final_drain); }
  const std::vector<std::string>& violations() const noexcept {
    return auditor_.violations();
  }

  // ---- failure / churn scenario machinery ----
  // Scheduled topology events for failure scenarios: link flaps and route
  // churn injected at absolute sim times while traffic is in flight. All of
  // them are thin event-loop wrappers — the state change happens atomically
  // at the scheduled instant, exactly like an `ip link set down` or an IGP
  // update landing on a running router. Under a sealed partition the flip is
  // scheduled in *each* end's domain (one event per carrier replica, same
  // virtual instant), so both domains observe the cut at t without touching
  // each other's state.
  void schedule_link_down(Link& link, TimeNs t) {
    schedule_link_state(link, t, false);
  }
  void schedule_link_up(Link& link, TimeNs t) {
    schedule_link_state(link, t, true);
  }
  // Route add at `t` (IGP reconvergence installing a repaired path). The
  // route is parked in a shared_ptr so the closure stays within InlineFn's
  // inline capture budget regardless of the segment lists it carries.
  // Scheduled on the owning node's loop, which is the master loop serially
  // and the node's domain loop after sealing.
  void schedule_route_add(Node& node, int table, seg6::Route route, TimeNs t) {
    auto r = std::make_shared<seg6::Route>(std::move(route));
    node.loop().schedule_at(t, [&node, table, r] {
      node.ns().table(table).add_route(*r);
    });
  }
  // Exact-prefix withdraw at `t` (the failure notification reaching this
  // node's RIB).
  void schedule_route_withdraw(Node& node, int table, const net::Prefix& prefix,
                               TimeNs t) {
    node.loop().schedule_at(t, [&node, table, prefix] {
      node.ns().table(table).remove_route(prefix);
    });
  }

 private:
  PdesNet& pdes() {
    if (!pdes_) pdes_ = std::make_unique<PdesNet>(seed_);
    return *pdes_;
  }
  void schedule_link_state(Link& link, TimeNs t, bool up) {
    if (!parallel()) {
      loop_.schedule_at(t, [&link, up] { link.set_up(up); });
      return;
    }
    for (int s = 0; s < 2; ++s)
      if (link.side_node(s) != nullptr)
        link.side_loop(s).schedule_at(
            t, [&link, s, up] { link.set_side_up(s, up); });
  }

  EventLoop loop_;
  Rng rng_;
  std::uint64_t seed_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Link>> links_;
  std::unique_ptr<PdesNet> pdes_;
  InvariantAuditor auditor_;
};

}  // namespace srv6bpf::sim
