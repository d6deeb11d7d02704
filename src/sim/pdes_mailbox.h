// PdesMailbox: the lock-free SPSC channel between two PDES domains.
//
// Exactly one producer (the sending domain's worker thread, from inside
// Link::transmit_burst) and one consumer (the receiving domain's worker, in
// its drain pass) touch a mailbox, so a Lamport single-producer
// single-consumer ring suffices: two monotone cursors, release on publish,
// acquire on observe, no CAS anywhere on the fast path.
//
// Each message is one packet that crossed a link: the link and its
// transmitting side, and the packet itself (its arrival in rx_tstamp_ns),
// moved through the ring slot so pooled packet buffers travel without
// copies. A burst's last packet also carries the burst's size and the
// *sender's* EventLoop stamp (see event_loop.h — this is what makes the
// receiver's tie-break deterministic regardless of when the message is
// drained). The drain lands each packet on its link side's wire FIFO
// (Link::land), the same place a same-domain transmit puts it, and the
// burst's delivery event follows from there.
//
// Capacity is fixed. When the ring is full, `push` either drains it itself
// or spins, depending on who consumes it (PdesNet::run_until decides per run,
// from the worker assignment):
//   * The pushing worker also serves the consumer domain (always the case on
//     one worker). Nothing else will ever drain the ring, so spinning would
//     hang; `push` lands the queued packets itself. The consumer's loop is
//     idle, since its worker is busy running the producer, and stamps make
//     the receiver's order independent of when a message is drained, so
//     this changes no result.
//   * Another worker serves the consumer. That worker drains its inbound
//     mailboxes on every scheduling pass, even when its conservative horizon
//     forbids executing anything and after it has finished the run window,
//     so a spinning producer finds space within one consumer pass.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>

#include "net/packet.h"
#include "sim/event_loop.h"
#include "sim/link.h"

namespace srv6bpf::sim {

struct PdesMail {
  Link* link = nullptr;    // the wire the packet crossed
  std::uint32_t side = 0;  // its transmitting side
  // On a burst's last packet: the burst's size and the sender-side
  // provenance of its delivery (deterministic tie-break); n is 0 otherwise.
  std::uint32_t n = 0;
  EventLoop::Stamp stamp;
  net::Packet pkt;         // arrival in rx_tstamp_ns
};

class PdesMailbox {
 public:
  // One message per packet; a long lookahead window on a busy link can
  // queue more than this, and overflow is handled in `push`, never by loss.
  static constexpr std::size_t kCapacity = 1024;
  static_assert((kCapacity & (kCapacity - 1)) == 0, "power-of-two ring");

  PdesMailbox() : slots_(std::make_unique<PdesMail[]>(kCapacity)) {}

  PdesMailbox(const PdesMailbox&) = delete;
  PdesMailbox& operator=(const PdesMailbox&) = delete;

  // Producer side. Returns false when full (slot untouched).
  bool try_push(PdesMail&& m) noexcept {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_.load(std::memory_order_acquire) == kCapacity)
      return false;
    slots_[tail & (kCapacity - 1)] = std::move(m);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  // Whether `push` drains a full ring itself (the producer's worker also
  // serves the consumer) instead of waiting for another worker to. Set by
  // PdesNet::run_until before any worker starts.
  void set_inline_drain(bool on) noexcept { inline_drain_ = on; }

  // Producer side; never fails (see the overflow note above). Overflow is
  // an explicit *counted backpressure* policy, never a drop: conservative
  // PDES cannot lose a cross-domain message (the receiver's LBTS already
  // promised it will see everything below the horizon, and a dropped
  // delivery would silently break packet conservation and the determinism
  // contract both). Each full-ring encounter bumps overflow_spins(), so a
  // chronically undersized ring is visible in
  // PdesNet::mailbox_overflow_spins() instead of just being wall-clock loss.
  void push(PdesMail&& m) {
    if (try_push(std::move(m))) return;
    overflow_spins_.fetch_add(1, std::memory_order_relaxed);
    if (inline_drain_) {
      drain();
      try_push(std::move(m));  // the ring is empty now
      return;
    }
    do {
      std::this_thread::yield();
    } while (!try_push(std::move(m)));
  }

  // Consumer side: lands every queued packet on its link side's wire.
  // Returns whether there was any.
  bool drain() {
    bool drained = false;
    PdesMail m;
    while (try_pop(m)) {
      m.link->land(static_cast<int>(m.side), std::move(m.pkt), m.n, m.stamp);
      drained = true;
    }
    return drained;
  }

  // Consumer side. Returns false when empty.
  bool try_pop(PdesMail& out) noexcept {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (tail_.load(std::memory_order_acquire) == head) return false;
    out = std::move(slots_[head & (kCapacity - 1)]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  bool empty() const noexcept {
    return tail_.load(std::memory_order_acquire) ==
           head_.load(std::memory_order_acquire);
  }

  // Number of push() calls that found the ring full and had to drain or
  // spin — wall-clock-only observability (bit-identical results either way).
  std::uint64_t overflow_spins() const noexcept {
    return overflow_spins_.load(std::memory_order_relaxed);
  }

 private:
  // Cursors on separate cache lines so producer and consumer don't false-
  // share; slots are written by the producer and read by the consumer with
  // the tail_ release/acquire pair ordering the hand-off.
  alignas(64) std::atomic<std::uint64_t> head_{0};  // consumer cursor
  alignas(64) std::atomic<std::uint64_t> tail_{0};  // producer cursor
  std::atomic<std::uint64_t> overflow_spins_{0};
  bool inline_drain_ = false;
  std::unique_ptr<PdesMail[]> slots_;
};

}  // namespace srv6bpf::sim
