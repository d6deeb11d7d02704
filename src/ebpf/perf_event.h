// Perf-event ring buffer: the asynchronous eBPF -> user space channel used by
// the paper's delay-measurement daemon (§4.1) and the OAMP responder (§4.3).
//
// Modelled after BPF_MAP_TYPE_PERF_EVENT_ARRAY + the perf ring buffer: a
// program calls bpf_perf_event_output(ctx, map, flags, data, size); user
// space polls the buffer and drains records. A bounded capacity with a
// drop counter reproduces the lossy nature of the real ring.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "ebpf/map.h"

namespace srv6bpf::ebpf {

struct PerfRecord {
  std::uint64_t time_ns = 0;
  // CPU context the producing program ran on (ExecEnv::cpu_id) — the
  // kernel's per-CPU perf ring identity, carried so multi-core monitoring
  // output stays attributable and reproducible.
  std::uint32_t cpu = 0;
  std::vector<std::uint8_t> data;
};

// Models the per-CPU structure of BPF_MAP_TYPE_PERF_EVENT_ARRAY: one bounded
// ring per CPU context (capacity applies per ring, as each CPU's mmap'd
// buffer is sized independently in the kernel). poll() merges the rings in a
// deterministic order — context id first, then the ring's own time order —
// so a user-space drain pass sees the same record sequence on every run
// regardless of how contexts interleaved their pushes.
class PerfEventBuffer {
 public:
  explicit PerfEventBuffer(std::size_t capacity = 4096)
      : capacity_(capacity) {}

  // Returns false (and counts a drop) when `cpu`'s ring is full.
  bool push(std::uint64_t time_ns, std::span<const std::uint8_t> data,
            std::uint32_t cpu = 0);

  // Next record in merge order (lowest non-empty cpu ring, oldest first), or
  // nullopt when all rings are empty.
  std::optional<PerfRecord> poll();

  std::size_t pending() const noexcept {
    std::size_t n = 0;
    for (const auto& r : rings_) n += r.size();
    return n;
  }
  std::uint64_t dropped() const noexcept { return dropped_; }
  std::uint64_t produced() const noexcept { return produced_; }

  // Discards every pending record (node-crash teardown); the drop/produce
  // counters survive — they are the observer's ledger, not kernel memory.
  void clear() noexcept {
    for (auto& r : rings_) r.clear();
  }

 private:
  std::size_t capacity_;  // per-CPU ring capacity
  std::vector<std::deque<PerfRecord>> rings_;  // indexed by cpu, lazily grown
  std::uint64_t dropped_ = 0;
  std::uint64_t produced_ = 0;
};

// The map type programs reference from bpf_perf_event_output. Lookup/update
// on it are invalid from BPF (as in the kernel, where the values are perf fds
// owned by user space).
class PerfEventArrayMap final : public Map {
 public:
  explicit PerfEventArrayMap(const MapDef& def, std::size_t capacity = 4096)
      : Map(def), buffer_(capacity) {}

  std::uint8_t* lookup_cpu(std::span<const std::uint8_t>,
                           std::uint32_t) override {
    return nullptr;
  }
  int erase(std::span<const std::uint8_t>) override { return kErrInval; }
  std::size_t size() const override { return buffer_.pending(); }
  // A crash loses pending (undelivered) perf records with the rest of
  // kernel memory.
  void reset_contents() override { buffer_.clear(); }

  PerfEventBuffer& buffer() noexcept { return buffer_; }

 protected:
  int do_update_cpu(std::span<const std::uint8_t>,
                    std::span<const std::uint8_t>, std::uint64_t,
                    std::uint32_t) override {
    return kErrInval;
  }

 private:
  PerfEventBuffer buffer_;
};

// Convenience: create a perf event array in `reg` and return (id, buffer).
std::uint32_t create_perf_event_array(MapRegistry& reg, const std::string& name,
                                      std::size_t capacity = 4096);

}  // namespace srv6bpf::ebpf
