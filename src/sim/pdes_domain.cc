#include "sim/pdes_domain.h"

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <utility>

#include "sim/link.h"
#include "sim/node.h"
#include "util/hash.h"

namespace srv6bpf::sim {

std::uint32_t PdesNet::hash_name(const std::string& name, std::size_t p) {
  const std::uint64_t h = fnv1a_bytes(
      kFnv1aBasis, {reinterpret_cast<const std::uint8_t*>(name.data()),
                    name.size()});
  return static_cast<std::uint32_t>(h % (p == 0 ? 1 : p));
}

void PdesNet::assign(const Node* node, std::uint32_t dom) {
  if (sealed_)
    throw std::logic_error("PdesNet::assign: partition is already sealed");
  placement_[node] = dom;
}

std::uint32_t PdesNet::domain_of(const Node* node) const {
  const auto it = placement_.find(node);
  if (it == placement_.end())
    throw std::out_of_range("PdesNet::domain_of: node has no placement");
  return it->second;
}

PdesMailbox* PdesNet::mailbox(std::size_t src, std::size_t dst) {
  auto& slot = mailboxes_[src * domains_.size() + dst];
  if (!slot) slot = std::make_unique<PdesMailbox>();
  return slot.get();
}

void PdesNet::seal(EventLoop& master,
                   const std::vector<std::unique_ptr<Node>>& nodes,
                   const std::vector<std::unique_ptr<Link>>& links) {
  if (sealed_) return;
  if (master.pending() != 0)
    throw std::logic_error(
        "PdesNet::seal: the master event loop has pending events; seal the "
        "partition before scheduling traffic (apps schedule via Node::loop(), "
        "which sealing repoints into the node's domain)");

  const std::size_t p = std::max<std::size_t>(1, domain_count_);
  domains_.clear();
  domains_.reserve(p);
  for (std::size_t d = 0; d < p; ++d) {
    auto dom = std::make_unique<Domain>();
    dom->loop = std::make_unique<EventLoop>();
    dom->loop->set_domain(static_cast<std::uint32_t>(d));
    dom->loop->advance_to(master.now());
    domains_.push_back(std::move(dom));
  }
  mailboxes_ = std::vector<std::unique_ptr<PdesMailbox>>(p * p);

  // Place every node: explicit assignment wins, static name hash otherwise.
  for (const auto& n : nodes) {
    auto [it, inserted] = placement_.try_emplace(
        n.get(), hash_name(n->name(), p));
    if (it->second >= p)
      throw std::out_of_range("PdesNet::seal: explicit domain " +
                              std::to_string(it->second) + " for node '" +
                              n->name() + "' is out of range");
    n->bind_loop(*domains_[it->second]->loop);
  }

  // Bind link sides and derive the synchronization edges. A side lives in
  // its node's domain; an unattached side never transmits, so it just rides
  // along in the peer's domain.
  std::map<std::pair<std::size_t, std::size_t>, TimeNs> min_la;  // (dst,src)
  for (std::size_t li = 0; li < links.size(); ++li) {
    Link& link = *links[li];
    for (int s = 0; s < 2; ++s) {
      Node* n = link.side_node(s);
      Node* peer = link.side_node(1 - s);
      const std::size_t d =
          n ? domain_of(n) : (peer ? domain_of(peer) : 0u);
      const std::size_t pd = peer ? domain_of(peer) : d;
      // splitmix64 decorrelates the per-side RNG seeds derived from
      // (network seed, link index, side): adjacent links share no stream.
      std::uint64_t side_seed = seed_ ^ (2 * li + s + 1);
      side_rngs_.emplace_back(splitmix64(side_seed));
      PdesMailbox* box = nullptr;
      if (pd != d && n != nullptr && peer != nullptr) {
        if (link.prop_delay() == 0)
          throw std::invalid_argument(
              "PdesNet::seal: link between '" + n->name() + "' and '" +
              peer->name() +
              "' crosses domains with zero propagation delay (zero "
              "lookahead); co-locate the ends or give the link >= 1 ns");
        box = mailbox(d, pd);
        auto [it, inserted] =
            min_la.try_emplace({pd, d}, link.prop_delay());
        if (!inserted) it->second = std::min(it->second, link.prop_delay());
      }
      link.bind_side(s, *domains_[d]->loop, &side_rngs_.back(), box);
    }
  }
  for (const auto& [edge, la] : min_la)
    domains_[edge.first]->inbound.push_back(
        Inbound{edge.second, la, mailbox(edge.second, edge.first)});

  sealed_ = true;
}

bool PdesNet::iterate(Domain& d, TimeNs t_end) {
  // 1. Conservative bound from the neighbors' published horizons. Read
  //    *before* draining: a horizon observed here (acquire) makes every
  //    message it vouches for visible to the pops below.
  TimeNs lbts = t_end + 1;
  for (const Inbound& in : d.inbound) {
    const TimeNs h = domains_[in.src]->horizon.load(std::memory_order_acquire);
    const TimeNs bound =
        h > kTimeInfinity - in.lookahead ? kTimeInfinity : h + in.lookahead;
    lbts = std::min(lbts, bound);
  }

  // 2. Drain inbound mailboxes onto their wires. Done unconditionally — even
  //    after this domain finished its window — so a producer spinning on
  //    another worker always finds ring space (the deadlock-freedom argument
  //    in pdes_mailbox.h).
  bool drained = false;
  for (const Inbound& in : d.inbound) drained |= in.box->drain();
  if (d.done) return drained;

  // 3. Execute everything strictly below the bound. Events *at* the bound
  //    wait: a neighbor could still send a same-timestamp event whose stamp
  //    sorts earlier.
  const std::size_t ran = d.loop->run_events_before(lbts);

  // 4. Publish the new horizon. Every event below `lbts` has executed and
  //    pushed its sends (step 3 precedes this store), and any event still
  //    pending is >= lbts, so future sends are timestamped >= lbts: the
  //    promise holds. Monotone by construction — lbts only grows as the
  //    neighbors' horizons grow.
  const TimeNs prev = d.horizon.load(std::memory_order_relaxed);
  if (lbts > prev) d.horizon.store(lbts, std::memory_order_release);
  if (lbts > t_end) {
    d.done = true;
    done_count_.fetch_add(1, std::memory_order_acq_rel);
  }
  return ran > 0 || lbts > prev;
}

void PdesNet::worker(std::size_t worker_id, std::size_t worker_count,
                     TimeNs t_end) {
  for (;;) {
    bool progressed = false;
    for (std::size_t d = worker_id; d < domains_.size(); d += worker_count)
      progressed |= iterate(*domains_[d], t_end);
    if (done_count_.load(std::memory_order_acquire) == domains_.size())
      return;
    if (!progressed) std::this_thread::yield();
  }
}

void PdesNet::run_until(TimeNs t_end, std::size_t threads) {
  if (!sealed_)
    throw std::logic_error("PdesNet::run_until: seal the partition first");
  if (t_end >= kTimeInfinity - 1)
    throw std::invalid_argument("PdesNet::run_until: bound must be finite");

  done_count_.store(0, std::memory_order_relaxed);
  for (auto& d : domains_) {
    d->done = false;
    // Restart the horizon at the domain's clock: all events below it have
    // executed in earlier windows, so the promise is immediately valid.
    d->horizon.store(d->loop->now(), std::memory_order_relaxed);
  }

  const std::size_t n =
      std::min(std::max<std::size_t>(1, threads), domains_.size());
  // worker() serves domain d on worker d % n. A full ring whose consumer
  // shares the producer's worker must be drained by the producer itself.
  const std::size_t p = domains_.size();
  for (std::size_t src = 0; src < p; ++src)
    for (std::size_t dst = 0; dst < p; ++dst)
      if (PdesMailbox* box = mailboxes_[src * p + dst].get())
        box->set_inline_drain(src % n == dst % n);
  if (n == 1) {
    worker(0, 1, t_end);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(n - 1);
    for (std::size_t w = 1; w < n; ++w)
      pool.emplace_back(&PdesNet::worker, this, w, n, t_end);
    worker(0, n, t_end);
    for (auto& t : pool) t.join();
  }

  // run_until semantics: the whole window [now, t_end] elapsed, so every
  // clock lands exactly on the bound even if the domain went idle earlier.
  for (auto& d : domains_) d->loop->advance_to(t_end);
}

std::uint64_t PdesNet::events_executed() const {
  std::uint64_t total = 0;
  for (const auto& d : domains_) total += d->loop->executed();
  return total;
}

std::uint64_t PdesNet::mailbox_overflow_spins() const {
  std::uint64_t total = 0;
  for (const auto& box : mailboxes_)
    if (box) total += box->overflow_spins();
  return total;
}

}  // namespace srv6bpf::sim
