// alloc_hooks: a global operator-new/delete call counter for bench and test
// builds — how tests/alloc_test.cc and bench_slo_soak *prove* the
// forwarding path's zero-allocation steady state instead of asserting it.
//
// The library ships only weak, inactive stubs (alloc_hooks.cc): linking the
// core library never changes allocator behaviour. Binaries that want real
// counting additionally compile bench/alloc_hooks_impl.cc, whose strong
// definitions override the stubs and install counting replacements of the
// global operator new/delete family. Callers must therefore check
// alloc_hooks_active() before trusting the counters.
//
// Counting is calls, not bytes: the zero-alloc gate is "no allocator
// round-trips per forwarded packet", the same property DPDK's mempools and
// the kernel's skb recycling buy, and byte sizes would only blur it.
#pragma once

#include <cstdint>

namespace srv6bpf::util {

struct AllocCounters {
  std::uint64_t news = 0;     // operator new / new[] calls (all variants)
  std::uint64_t deletes = 0;  // operator delete / delete[] calls
};

// true when bench/alloc_hooks_impl.cc is linked into this binary.
bool alloc_hooks_active() noexcept;
// Monotonic since process start; {0, 0} when the hooks are inactive.
AllocCounters alloc_counters() noexcept;

}  // namespace srv6bpf::util
