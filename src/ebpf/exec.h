// Execution environment shared by the eBPF interpreter and the JIT engine.
//
// eBPF pointers are real host pointers (as in the kernel). The verifier is
// the safety mechanism. The interpreter also bounds-checks every load and
// store against the region list below (defense in depth: a verifier bug
// faults instead of corrupting the simulator); the native engine does not,
// it trusts the verifier's proof. Helpers check their memory arguments
// against the region list on every engine.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace srv6bpf::ebpf {

class MapRegistry;
class HelperRegistry;

struct MemRegion {
  std::uintptr_t base = 0;
  std::size_t len = 0;
  bool writable = false;

  bool contains(std::uintptr_t addr, std::size_t n) const noexcept {
    return addr >= base && n <= len && addr - base <= len - n;
  }
};

// Small-vector of memory regions with inline storage. A typical program run
// carries ctx + packet + stack plus a handful of map-value regions, so the
// common case never touches the heap — the per-packet hot path pushes and
// pops the stack region on every invocation, which used to cost a vector
// allocation. Regions beyond the inline capacity spill to a heap vector so
// correctness is preserved for lookup-heavy programs.
class RegionList {
 public:
  static constexpr std::size_t kInlineCapacity = 8;

  std::size_t size() const noexcept { return size_; }

  void push_back(const MemRegion& r) {
    if (size_ < kInlineCapacity)
      inline_[size_] = r;
    else
      spill_.push_back(r);
    ++size_;
  }

  void resize(std::size_t n) {
    if (n < size_)
      spill_.resize(n > kInlineCapacity ? n - kInlineCapacity : 0);
    else
      for (std::size_t i = size_; i < n; ++i) push_back(MemRegion{});
    size_ = n;
  }

  void clear() noexcept {
    spill_.clear();
    size_ = 0;
  }

  MemRegion& operator[](std::size_t i) noexcept {
    return i < kInlineCapacity ? inline_[i] : spill_[i - kInlineCapacity];
  }
  const MemRegion& operator[](std::size_t i) const noexcept {
    return i < kInlineCapacity ? inline_[i] : spill_[i - kInlineCapacity];
  }

 private:
  // Intentionally not value-initialised: only slots below size_ are ever
  // read, and zeroing 8 regions on every ExecEnv construction is measurable
  // on the per-packet path.
  std::array<MemRegion, kInlineCapacity> inline_;
  std::vector<MemRegion> spill_;
  std::size_t size_ = 0;
};

// Everything a running program may touch. A packet program's env comes
// with its ctx in an SkbRun (ebpf/skb.h); a test fixture may build a bare
// one.
struct ExecEnv {
  MapRegistry* maps = nullptr;
  HelperRegistry* helpers = nullptr;

  // Opaque per-invocation state for helper implementations (e.g. the
  // Seg6ProgCtx carrying the packet and the node's FIB).
  void* user = nullptr;

  // What bpf_ktime_get_ns returns: the run's clock reading. The simulated
  // clock cannot move inside one event, so one reading serves every run of
  // a burst.
  std::uint64_t now_ns = 0;

  // The PRNG state bpf_get_prandom_u32 steps with one splitmix64 step
  // (util/hash.h); its owner, the netns, keeps it across runs. A null
  // state makes the helper return 4.
  std::uint64_t* prandom_state = nullptr;

  // CPU context this invocation runs on (the multi-core Node's RSS context
  // id). Read by bpf_get_smp_processor_id and by the map helpers to select
  // the slot of BPF_MAP_TYPE_PERCPU_* maps.
  std::uint32_t cpu_id = 0;

  // Valid memory regions: the program context and (for packet programs) the
  // packet bytes. The engines add the stack themselves.
  RegionList regions;

  bool readable(const void* p, std::size_t n) const noexcept {
    const auto a = reinterpret_cast<std::uintptr_t>(p);
    for (std::size_t i = 0; i < regions.size(); ++i)
      if (regions[i].contains(a, n)) return true;
    return false;
  }
  bool writable(const void* p, std::size_t n) const noexcept {
    const auto a = reinterpret_cast<std::uintptr_t>(p);
    for (std::size_t i = 0; i < regions.size(); ++i)
      if (regions[i].writable && regions[i].contains(a, n)) return true;
    return false;
  }
};

struct ExecResult {
  std::uint64_t ret = 0;
  std::uint64_t insns_executed = 0;
  std::uint64_t helper_calls = 0;
  bool aborted = false;      // runtime fault (bad access, div-by-zero trap...)
  std::string error;

  bool ok() const noexcept { return !aborted; }
};

}  // namespace srv6bpf::ebpf
