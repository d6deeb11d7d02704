// Ring: a circular FIFO over a flat slot array — the per-(interface, CPU
// context) NIC RX ring of the multi-core Node (RxRing) and the packets and
// burst marks a Link side has on the wire (sim/link.h).
//
// An RX ring is bounded: a full ring refuses the arrival (tail drop, as a
// NIC does) and the node charges it to drops_rx_queue. A wire FIFO is
// unbounded and doubles its slot array when full.
//
// The previous std::deque backlog allocated and freed a block every handful
// of packets in steady state (push_back/pop_front churn walks the deque's
// node map), which is exactly the per-packet allocator traffic the pooled
// datapath eliminates. A ring allocates only when it grows past its peak
// occupancy (an RX ring once, to rx_queue_limit, or when the limit is
// raised — both warm-up events), and enqueue/drain in steady state touch no
// allocator at all. A drained packet slot is left in the moved-from
// (buffer-less) state, so packet buffers are never held by an idle ring.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "net/packet.h"

namespace srv6bpf::sim {

template <typename T>
class Ring {
 public:
  std::size_t size() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }

  // Enqueues unless the ring already holds `limit` entries (tail drop —
  // the caller counts it). Grows the slot array to `limit` on first use.
  bool push(T&& v, std::size_t limit) {
    if (count_ >= limit) return false;
    if (slots_.size() < limit) grow(limit);
    put(std::move(v));
    return true;
  }

  // Enqueues without a limit, doubling the slot array when it is full.
  void push(T&& v) {
    if (count_ == slots_.size())
      grow(std::max<std::size_t>(16, 2 * slots_.size()));
    put(std::move(v));
  }

  // The oldest entry. Precondition: !empty().
  const T& front() const noexcept { return slots_[head_]; }

  // Dequeues the oldest entry. Precondition: !empty().
  T pop() {
    T v = std::move(slots_[head_]);
    ++head_;
    if (head_ == slots_.size()) head_ = 0;
    --count_;
    return v;
  }

  // Discards every queued entry (node crash teardown), handing each to
  // `fn(T&&)` so the caller can account it before the buffer recycles.
  template <typename Fn>
  void flush(Fn&& fn) {
    while (!empty()) fn(pop());
  }

 private:
  void put(T&& v) {
    std::size_t pos = head_ + count_;
    if (pos >= slots_.size()) pos -= slots_.size();
    slots_[pos] = std::move(v);
    ++count_;
  }

  void grow(std::size_t cap) {
    std::vector<T> grown(cap);
    for (std::size_t i = 0; i < count_; ++i) {
      std::size_t pos = head_ + i;
      if (pos >= slots_.size()) pos -= slots_.size();
      grown[i] = std::move(slots_[pos]);
    }
    slots_ = std::move(grown);
    head_ = 0;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

using RxRing = Ring<net::Packet>;

}  // namespace srv6bpf::sim
