// Host-speed reference for the end-to-end timings.
//
// The benchmark runs on shared hosts whose speed drifts by up to 2x for
// minutes at a time. A HostRef is a fixed unit of simulator-shaped work
// written in this directory, so it is the same on every commit of the
// library. Timed right after each measured interval, it says how fast the
// host was during that interval; main.cc scales the interval's wall time by
// it (corrected_median there).
//
// One unit is kEvents events of a miniature discrete-event loop: pop the
// earliest of kPending pending events from a binary heap, malloc a
// descriptor, copy a 96-byte header into it and read it back, free it, and
// push the event's successor. Its data stays in the core's private caches,
// like the simulator's hot path: units that also walked megabytes of memory
// followed other tenants' cache traffic, which the workloads mostly do not
// feel, and corrected worse (benchmark/README.md, "Host correction").
// Storage is reserved by the constructor and descriptors come from malloc,
// so run_s() makes no operator-new call and the window's allocation count
// stays the library's alone.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "spans.h"

namespace srv6bench {

class HostRef {
 public:
  static constexpr std::size_t kEvents = 20000;

  HostRef() {
    heap_.reserve(kPending + 1);
    for (std::size_t i = 0; i < sizeof header_; ++i)
      header_[i] = static_cast<unsigned char>(i * 37);
  }

  // Wall seconds of one unit of work.
  double run_s() {
    const std::uint64_t t0 = wall_ns();
    heap_.clear();
    std::uint64_t x = 0x2545f4914f6cdd1dull;
    for (std::uint32_t i = 0; i < kPending; ++i) {
      x = xorshift(x);
      heap_.push_back({x % 100000, i});
    }
    std::make_heap(heap_.begin(), heap_.end(), later);
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < kEvents; ++i) {
      std::pop_heap(heap_.begin(), heap_.end(), later);
      const Event e = heap_.back();
      heap_.pop_back();
      auto* desc = static_cast<unsigned char*>(std::malloc(96 + (e.id & 63)));
      std::memcpy(desc, header_, 96);
      desc[e.id & 63] ^= static_cast<unsigned char>(e.t);
      acc += desc[(e.id * 7) & 63];
      header_[e.id & 127] = desc[5];
      std::free(desc);
      x = xorshift(x);
      heap_.push_back({e.t + 1 + x % 5000, e.id});
      std::push_heap(heap_.begin(), heap_.end(), later);
    }
    sink_ = acc;
    return static_cast<double>(wall_ns() - t0) / 1e9;
  }

 private:
  static constexpr std::uint32_t kPending = 1024;

  struct Event {
    std::uint64_t t;
    std::uint32_t id;
  };
  static bool later(const Event& a, const Event& b) { return a.t > b.t; }
  static std::uint64_t xorshift(std::uint64_t x) {
    x ^= x << 13;
    x ^= x >> 7;
    return x ^ (x << 17);
  }

  std::vector<Event> heap_;
  unsigned char header_[128];
  volatile std::uint64_t sink_ = 0;
};

}  // namespace srv6bench
