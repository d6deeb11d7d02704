#include "sim/event_loop.h"

#include <algorithm>
#include <utility>

namespace srv6bpf::sim {

namespace {
// Heap comparator: "a runs after b". std::*_heap build a max-heap, so the
// front is the earliest (t, key, birth).
struct Later {
  template <typename K>
  bool operator()(const K& a, const K& b) const noexcept {
    if (a.t != b.t) return a.t > b.t;
    if (a.key != b.key) return a.key > b.key;
    if (a.birth.birth_t != b.birth.birth_t)
      return a.birth.birth_t > b.birth.birth_t;
    if (a.birth.dom != b.birth.dom) return a.birth.dom > b.birth.dom;
    return a.birth.seq > b.birth.seq;
  }
};
}  // namespace

EventLoop::~EventLoop() {
  for (const Key& k : heap_) slot(k.slot).fn.~Fn();
}

void EventLoop::push(TimeNs t, std::uint32_t key, Stamp birth, Fn&& fn) {
  const bool fresh = free_head_ == kNoSlot;
  if (fresh && fresh_ == chunks_.size() * kChunkSlots)
    chunks_.push_back(std::make_unique_for_overwrite<Chunk>());
  const std::uint32_t s = fresh ? fresh_ : free_head_;
  // The key goes in before the slot is taken: if the heap cannot grow,
  // nothing has changed yet.
  heap_.push_back(Key{t < now_ ? now_ : t, key, s, birth});
  Slot& sl = slot(s);
  if (fresh)
    ++fresh_;
  else
    free_head_ = sl.next_free;
  ::new (static_cast<void*>(&sl.fn)) Fn(std::move(fn));
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void EventLoop::schedule_at_key(TimeNs t, std::uint32_t key, Fn&& fn) {
  push(t, key, Stamp{now_, domain_, next_seq_++}, std::move(fn));
}

void EventLoop::inject(TimeNs t, std::uint32_t key, Stamp stamp, Fn&& fn) {
  push(t, key, stamp, std::move(fn));
}

bool EventLoop::step() {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key k = heap_.back();
  heap_.pop_back();
  now_ = k.t;
  ++executed_;
  // The closure runs in its slot; the slot is not free until it returns, so
  // events it schedules land elsewhere and its captures stay put. The guard
  // also destroys and frees the slot if the closure throws.
  struct Release {
    EventLoop& loop;
    std::uint32_t s;
    ~Release() {
      Slot& sl = loop.slot(s);
      sl.fn.~Fn();
      sl.next_free = loop.free_head_;
      loop.free_head_ = s;
    }
  } release{*this, k.slot};
  slot(k.slot).fn();
  return true;
}

std::size_t EventLoop::run_events_before(TimeNs bound) {
  std::size_t n = 0;
  while (!heap_.empty() && heap_.front().t < bound) {
    step();
    ++n;
  }
  return n;
}

void EventLoop::run_until(TimeNs t) {
  while (!heap_.empty() && heap_.front().t <= t) step();
  if (now_ < t) now_ = t;
}

void EventLoop::run() {
  while (step()) {
  }
}

}  // namespace srv6bpf::sim
