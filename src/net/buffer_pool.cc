#include "net/buffer_pool.h"

#include <new>

#if defined(__SANITIZE_ADDRESS__)
#define SRV6BPF_POISON_PARKED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SRV6BPF_POISON_PARKED 1
#endif
#endif
#ifdef SRV6BPF_POISON_PARKED
#include <sanitizer/asan_interface.h>
#endif

namespace srv6bpf::net {

namespace {

// A parked buffer's payload is off limits until acquire() pops it (see the
// header); only its Buf header, which the freelist walks, stays readable.
void poison(BufferPool::Buf* b) noexcept {
#ifdef SRV6BPF_POISON_PARKED
  ASAN_POISON_MEMORY_REGION(b->data(), b->cap);
#else
  (void)b;
#endif
}

void unpoison(BufferPool::Buf* b) noexcept {
#ifdef SRV6BPF_POISON_PARKED
  ASAN_UNPOISON_MEMORY_REGION(b->data(), b->cap);
#else
  (void)b;
#endif
}

// Frees every buffer of a freelist.
void free_list(BufferPool::Buf* b) noexcept {
  while (b != nullptr) {
    BufferPool::Buf* next = b->next;
    unpoison(b);
    ::operator delete(b);
    b = next;
  }
}

struct BufferPoolState {
  BufferPool::Buf* free_head = nullptr;
  std::uint64_t max_buffers = 0;  // 0 = unbounded (historical behaviour)
  BufferPool::Stats stats;

  ~BufferPoolState() { free_list(free_head); }
};

// Construct-on-first-use so cross-TU static init order can't bite; the
// state lives until thread exit. thread_local, not global: each PDES worker
// gets its own freelist, so the pool stays lock-free under parallel runs. A
// buffer released on a different thread than it was acquired on simply
// lands in the releasing thread's freelist — the pool is an allocator
// cache, not an ownership registry, so migration is harmless (stats are
// per-thread too; the zero-alloc gates all run single-threaded).
BufferPoolState& buf_state() {
  thread_local BufferPoolState s;
  return s;
}

}  // namespace

BufferPool::Buf* BufferPool::acquire(std::size_t min_cap) {
  BufferPoolState& s = buf_state();
  Buf* b;
  if (min_cap <= kPoolBufCap && s.free_head != nullptr) {
    b = s.free_head;
    s.free_head = b->next;
    unpoison(b);
    --s.stats.pooled;
    ++s.stats.reuses;
  } else {
    const std::size_t cap = min_cap <= kPoolBufCap ? kPoolBufCap : min_cap;
    b = static_cast<Buf*>(::operator new(sizeof(Buf) + cap));
    b->cap = static_cast<std::uint32_t>(cap);
    ++s.stats.allocs;
  }
  b->next = nullptr;
  ++s.stats.outstanding;
  if (s.stats.outstanding > s.stats.high_water)
    s.stats.high_water = s.stats.outstanding;
  return b;
}

void BufferPool::release(Buf* b) noexcept {
  if (b == nullptr) return;
  BufferPoolState& s = buf_state();
  // Saturate: a buffer acquired on one thread may be released on another
  // (PDES teardown runs on the master thread), and wrapping this thread's
  // outstanding count to 2^64 would jam try_admit() shut forever. The
  // counter is only exact on threads whose acquires and releases pair up —
  // which the serial exhaustion scenarios guarantee by running first.
  if (s.stats.outstanding > 0) --s.stats.outstanding;
  if (b->cap == kPoolBufCap) {
    poison(b);
    b->next = s.free_head;
    s.free_head = b;
    ++s.stats.pooled;
  } else {
    ::operator delete(b);
  }
}

void BufferPool::set_max_buffers(std::uint64_t n) noexcept {
  buf_state().max_buffers = n;
}

std::uint64_t BufferPool::max_buffers() noexcept {
  return buf_state().max_buffers;
}

bool BufferPool::try_admit() noexcept {
  BufferPoolState& s = buf_state();
  if (s.max_buffers != 0 && s.stats.outstanding >= s.max_buffers) {
    ++s.stats.admission_fail;
    return false;
  }
  return true;
}

BufferPool::Stats BufferPool::stats() noexcept { return buf_state().stats; }

void BufferPool::reset_stats() noexcept {
  BufferPoolState& s = buf_state();
  s.stats.allocs = 0;
  s.stats.reuses = 0;
  s.stats.admission_fail = 0;
  s.stats.high_water = s.stats.outstanding;
}

void BufferPool::trim() noexcept {
  BufferPoolState& s = buf_state();
  free_list(s.free_head);
  s.free_head = nullptr;
  s.stats.pooled = 0;
}

}  // namespace srv6bpf::net
