// RxRing: a bounded circular queue of packets — the per-(interface, CPU
// context) NIC RX ring of the multi-core Node. A full ring refuses the
// arrival (tail drop, as a NIC does); the node charges it to
// drops_rx_queue and the ring counts it in overflows().
//
// The previous std::deque backlog allocated and freed a block every handful
// of packets in steady state (push_back/pop_front churn walks the deque's
// node map), which is exactly the per-packet allocator traffic the pooled
// datapath eliminates. RxRing keeps a flat slot array sized to the node's
// rx_queue_limit: storage is allocated once when the ring first fills (or
// when the limit is raised — both warm-up events), and enqueue/drain in
// steady state touch no allocator at all. Slots hold net::Packet by value;
// a drained slot is left in the moved-from (buffer-less) state, so packet
// buffers are never held by an idle ring.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/packet.h"

namespace srv6bpf::sim {

class RxRing {
 public:
  std::size_t size() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }

  // Enqueues unless the ring already holds `limit` packets (tail drop —
  // the caller counts it; overflows() counts it here too). Grows the slot
  // array to `limit` on first use.
  bool push(net::Packet&& p, std::size_t limit) {
    if (count_ >= limit) {
      ++overflows_;
      return false;
    }
    if (slots_.size() < limit) grow(limit);
    std::size_t pos = head_ + count_;
    if (pos >= slots_.size()) pos -= slots_.size();
    slots_[pos] = std::move(p);
    ++count_;
    return true;
  }

  // Dequeues the oldest packet. Precondition: !empty().
  net::Packet pop() {
    net::Packet p = std::move(slots_[head_]);
    ++head_;
    if (head_ == slots_.size()) head_ = 0;
    --count_;
    return p;
  }

  // Discards every queued packet (node crash teardown), handing each to
  // `fn(Packet&&)` so the caller can account it before the buffer recycles.
  template <typename Fn>
  void flush(Fn&& fn) {
    while (!empty()) fn(pop());
  }

  // Tail drops on this ring since construction.
  std::uint64_t overflows() const noexcept { return overflows_; }

 private:
  void grow(std::size_t limit) {
    std::vector<net::Packet> grown(limit);
    for (std::size_t i = 0; i < count_; ++i) {
      std::size_t pos = head_ + i;
      if (pos >= slots_.size()) pos -= slots_.size();
      grown[i] = std::move(slots_[pos]);
    }
    slots_ = std::move(grown);
    head_ = 0;
  }

  std::vector<net::Packet> slots_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::uint64_t overflows_ = 0;
};

}  // namespace srv6bpf::sim
