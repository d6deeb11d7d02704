// InlineFn: the event loop's callable, with in-place captures.
//
// std::function heap-allocates any closure past its ~16-byte small-buffer
// optimisation, which made every scheduled event (CPU service activations,
// link deliveries, deferred local handlers, generator ticks) an allocator
// round-trip. InlineFn stores the closure in place, in an event-loop slot
// (sim/event_loop.h): a fixed capture budget sized for the largest datapath
// closure (a Node* + a by-value net::Packet for deferred local delivery),
// enforced with static_asserts so an oversized capture is a compile error at
// the schedule() call site, never a silent heap fallback.
//
// Move-only by design — events are scheduled once and run once, and the
// closures own move-only resources (pooled Packets).
#pragma once

#include <cstddef>
#include <type_traits>
#include <utility>

namespace srv6bpf::sim {

class InlineFn {
 public:
  // Capture budget: sizeof(net::Packet) + a Node*. The static_assert below
  // fires on any closure that outgrows it — raise the budget consciously
  // instead of spilling to the heap.
  static constexpr std::size_t kCapacity = 80;

  InlineFn() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, InlineFn>>>
  InlineFn(F&& f) {  // NOLINT: implicit by design, mirrors std::function
    using Fn = std::remove_cvref_t<F>;
    static_assert(std::is_invocable_r_v<void, Fn&>,
                  "InlineFn requires a void() callable");
    static_assert(sizeof(Fn) <= kCapacity,
                  "closure captures exceed InlineFn::kCapacity — shrink the "
                  "capture (pool the payload, pass a pointer) or raise the "
                  "budget deliberately");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "over-aligned closure capture");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "closure must be nothrow-movable (a schedule moves it "
                  "into the event loop's slot store)");
    ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
    ops_ = &kOpsFor<Fn>;
  }

  InlineFn(InlineFn&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      if (ops_ != nullptr) ops_->destroy(buf_);
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(buf_, other.buf_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;

  ~InlineFn() {
    if (ops_ != nullptr) ops_->destroy(buf_);
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void operator()() { ops_->invoke(buf_); }

 private:
  struct Ops {
    void (*invoke)(void*);
    // Move-construct *dst from *src, then destroy *src.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
  };

  template <typename Fn>
  static constexpr Ops kOpsFor = {
      [](void* p) { (*static_cast<Fn*>(p))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
        static_cast<Fn*>(src)->~Fn();
      },
      [](void* p) noexcept { static_cast<Fn*>(p)->~Fn(); },
  };

  alignas(std::max_align_t) std::byte buf_[kCapacity];
  const Ops* ops_ = nullptr;
};

}  // namespace srv6bpf::sim
