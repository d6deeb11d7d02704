// Discrete-event simulation core: a monotonic virtual clock and a
// time-ordered event queue. All timing in the repository is in integer
// nanoseconds of virtual time; nothing ever reads the wall clock.
//
// The queue is split in two. A binary heap orders small trivially copyable
// keys (time, ordering key, birth stamp, slot index; 40 bytes), so a sift
// moves 40 bytes instead of a whole closure. The closures (sim::InlineFn)
// live in a slot store of fixed-size chunks that never move: a schedule
// moves the closure once into a free slot, the event runs in that slot, and
// the slot returns to a LIFO free list. A closure may therefore schedule
// any number of events while it runs without its own captures moving.
// Once the heap's vector and the store have grown to the run's peak depth,
// scheduling never heap-allocates, which is what keeps the steady-state
// forwarding path allocation-free (alloc_test gates allocs-per-packet at
// zero). That depth stays small on long wires: a link side keeps only its
// head burst's delivery in the queue (sim/link.h).
//
// Ordering contract. Events execute in ascending (t, key, birth) order where
// `birth` is the event's provenance stamp: the scheduling loop's clock at
// schedule time, the scheduling domain's id, and a per-domain monotone
// sequence number. In a single-loop (serial) run the stamp reduces exactly
// to the historical FIFO tie-break — the clock is non-decreasing across
// schedule calls, the domain is constant, and the sequence number is the old
// global counter — so same-(t, key) events still run in scheduling order,
// bit-for-bit. Under parallel PDES execution (sim/pdes_domain.h) the stamp
// is what makes the tie-break *deterministic*: a cross-domain delivery
// carries its sender's stamp through the mailbox, so the merged order per
// domain is a pure function of the simulation, never of thread interleaving
// or mailbox arrival order. tests/pdes_test.cc pins both properties. An
// event may also be stamped before it is queued (make_stamp, then inject):
// a link stamps each burst at transmit and queues its delivery only once
// the burst reaches the head of the wire.
#pragma once

#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "sim/inline_fn.h"

namespace srv6bpf::sim {

using TimeNs = std::uint64_t;

inline constexpr TimeNs kMicro = 1000;
inline constexpr TimeNs kMilli = 1000 * 1000;
inline constexpr TimeNs kSecond = 1000ull * 1000 * 1000;
// "No event pending": later than any schedulable time.
inline constexpr TimeNs kTimeInfinity = ~TimeNs{0};

class EventLoop {
 public:
  using Fn = InlineFn;

  // Provenance of a scheduled event: where and when the schedule call
  // happened in *logical* time. Totally ordered (birth_t, dom, seq); unique
  // because seq is per-domain monotone. Cross-domain mailbox messages carry
  // their sender's stamp so receivers reproduce one global order.
  struct Stamp {
    TimeNs birth_t = 0;      // scheduling loop's now() at schedule time
    std::uint32_t dom = 0;   // scheduling domain id
    std::uint64_t seq = 0;   // per-domain monotone schedule counter
  };

  EventLoop() { heap_.reserve(kReservedKeys); }
  // Destroys every pending closure without running it (pooled packets they
  // own give their buffers back).
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  TimeNs now() const noexcept { return now_; }

  // Schedules `fn` at absolute time `t` (clamped to now()). Every schedule
  // call takes the closure by reference and moves it once, into its slot.
  void schedule_at(TimeNs t, Fn&& fn) { schedule_at_key(t, 0, std::move(fn)); }
  // Schedules `fn` `delay` ns from now.
  void schedule(TimeNs delay, Fn&& fn) {
    schedule_at(now_ + delay, std::move(fn));
  }
  // Same-time events execute in ascending `key`, FIFO within a key (plain
  // schedule_at uses key 0, so existing orderings are untouched). The
  // multi-core Node keys CPU-context service events by context id: when two
  // contexts complete at the same instant, their effects apply in a
  // deterministic context order instead of the order servicing happened to
  // be scheduled in.
  void schedule_at_key(TimeNs t, std::uint32_t key, Fn&& fn);

  // ---- PDES surface (sim/pdes_domain.h) ----
  // The domain id baked into this loop's stamps. 0 for the serial loop.
  void set_domain(std::uint32_t dom) noexcept { domain_ = dom; }
  std::uint32_t domain() const noexcept { return domain_; }
  // Allocates a stamp for a schedule that will happen later or *elsewhere*
  // (a link delivery queued behind its wire's head, or in another domain):
  // consumes this loop's sequence counter at its current clock, exactly as
  // a local schedule_at would have.
  Stamp make_stamp() noexcept { return Stamp{now_, domain_, next_seq_++}; }
  // Enqueues an event stamped earlier by make_stamp, on this loop or
  // another. `t` is clamped to now() like schedule_at — a wire's deliveries
  // and conservative synchronization both guarantee it is never in the
  // past, so the clamp is defensive only.
  void inject(TimeNs t, std::uint32_t key, Stamp stamp, Fn&& fn);
  // Earliest pending event time, kTimeInfinity when idle.
  TimeNs next_time() const noexcept {
    return heap_.empty() ? kTimeInfinity : heap_.front().t;
  }
  // Runs every event with t < bound (strict: `bound` is the conservative
  // horizon, events *at* it may still gain same-time predecessors from a
  // neighbor domain). Returns the number executed. now() is left at the last
  // executed event, never advanced to bound.
  std::size_t run_events_before(TimeNs bound);
  // Moves the clock forward to `t` without running anything (end-of-phase
  // catch-up for idle domains). No-op when t <= now().
  void advance_to(TimeNs t) noexcept {
    if (t > now_) now_ = t;
  }

  // Runs a single event; false when the queue is empty.
  bool step();
  // Runs until the queue empties or the clock passes `t`.
  void run_until(TimeNs t);
  // Drains the queue completely (use with care: traffic generators that
  // reschedule forever will never drain; prefer run_until).
  void run();

  std::size_t pending() const noexcept { return heap_.size(); }
  std::uint64_t executed() const noexcept { return executed_; }

 private:
  // Heap entry: everything the order reads, plus where the closure lives.
  struct Key {
    TimeNs t;
    std::uint32_t key;   // same-time ordering class (CPU-context id)
    std::uint32_t slot;  // closure index in the slot store
    Stamp birth;         // provenance: deterministic FIFO tie-break
  };
  static_assert(std::is_trivially_copyable_v<Key>);

  // A closure slot: holds a pending event's closure, or, once freed, the
  // index of the next freed slot (an intrusive LIFO free list, so freeing
  // never allocates).
  union Slot {
    Slot() noexcept {}
    ~Slot() {}
    Fn fn;
    std::uint32_t next_free;
  };
  // Sizing: a chunk (1024 slots, 96 KiB) and the reserved heap (4096 keys,
  // 160 KiB) are one allocation each that most loops never outgrow. Neither
  // is zero-filled, and a never-used slot is taken only when no freed one
  // is left, so the pages a loop touches track its peak depth: a shallow
  // loop costs a few pages, not 256 KiB.
  static constexpr std::size_t kChunkSlots = 1024;
  static constexpr std::size_t kReservedKeys = 4096;
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  struct Chunk {
    Slot slots[kChunkSlots];
  };

  void push(TimeNs t, std::uint32_t key, Stamp birth, Fn&& fn);
  Slot& slot(std::uint32_t s) noexcept {
    return chunks_[s / kChunkSlots]->slots[s % kChunkSlots];
  }

  TimeNs now_ = 0;
  std::uint32_t domain_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<Key> heap_;  // binary min-heap in (t, key, birth) order
  std::vector<std::unique_ptr<Chunk>> chunks_;  // stable closure storage
  std::uint32_t free_head_ = kNoSlot;           // first freed slot
  std::uint32_t fresh_ = 0;                     // first never-used slot
};

}  // namespace srv6bpf::sim
