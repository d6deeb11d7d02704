// eBPF maps: persistent key/value stores shared between eBPF programs and
// "user space" (in this repository, the applications and daemons in
// src/apps). Mirrors the kernel map model: fixed key/value sizes declared at
// creation, lookups return stable pointers into the map's storage, updates
// copy the caller's buffer in.
//
// Thread/context model: maps are not synchronized — the simulator is
// single-threaded, and the multi-core Node's CpuContexts interleave on the
// event loop rather than race. Cross-context isolation is data layout, not
// locking: per-CPU map types give each context its own value slot (the
// lookup_cpu/update_cpu family below), everything else is shared state
// exactly as in the kernel. Per-CPU is a slot count, not a storage shape:
// an array or hash map holds slots() values per entry.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace srv6bpf::ebpf {

// Upper bound on simulated CPU contexts, the num_possible_cpus() analogue:
// per-CPU maps preallocate one value slot per possible CPU, and the
// multi-core Node clamps its context count to it.
inline constexpr std::uint32_t kMaxCpus = 16;

enum class MapType {
  kArray,
  kHash,
  kPerCpuArray,     // BPF_MAP_TYPE_PERCPU_ARRAY: one value slot per CPU
  kPerCpuHash,      // BPF_MAP_TYPE_PERCPU_HASH
  kLpmTrie,
  kPerfEventArray,  // bpf_perf_event_output target (see ebpf/perf_event.h)
};

// Update flags (include/uapi/linux/bpf.h).
inline constexpr std::uint64_t BPF_ANY = 0;      // create or update
inline constexpr std::uint64_t BPF_NOEXIST = 1;  // create only
inline constexpr std::uint64_t BPF_EXIST = 2;    // update only

// Errors follow the kernel convention of negative errno values.
inline constexpr int kOk = 0;
inline constexpr int kErrNoEnt = -2;    // -ENOENT
inline constexpr int kErrInval = -22;   // -EINVAL
inline constexpr int kErrExist = -17;   // -EEXIST
inline constexpr int kErrNoSpace = -28; // -ENOSPC
inline constexpr int kErrFault = -14;   // -EFAULT

struct MapDef {
  MapType type = MapType::kArray;
  std::uint32_t key_size = 4;
  std::uint32_t value_size = 8;
  std::uint32_t max_entries = 1;
  std::string name;
};

class Map {
 public:
  explicit Map(MapDef def) : def_(std::move(def)) {}
  virtual ~Map() = default;

  Map(const Map&) = delete;
  Map& operator=(const Map&) = delete;

  const MapDef& def() const noexcept { return def_; }
  std::uint32_t key_size() const noexcept { return def_.key_size; }
  std::uint32_t value_size() const noexcept { return def_.value_size; }
  std::uint32_t max_entries() const noexcept { return def_.max_entries; }

  // BPF_MAP_TYPE_PERCPU_*: one value slot per possible CPU in every entry.
  // Every other type is shared: one value per entry, whatever the cpu.
  bool per_cpu() const noexcept {
    return def_.type == MapType::kPerCpuArray ||
           def_.type == MapType::kPerCpuHash;
  }
  // Value slots per entry: kMaxCpus for per-CPU maps, else 1.
  std::uint32_t slots() const noexcept { return per_cpu() ? kMaxCpus : 1; }

  // Returns a pointer to the stored value (stable until the entry is deleted
  // or the map destroyed — BPF programs hold these across helper calls), or
  // nullptr if the key is absent. The eBPF verifier forces programs to
  // null-check this before dereferencing. Key interpretation and cost are
  // per-type: array O(1) index, hash O(log n) ordered-map walk (kept ordered
  // for deterministic dumps), LPM trie O(key bytes) node hops through the
  // multibit-stride engine (util/lpm_trie.h) with longest-prefix-match
  // semantics (the caller's prefixlen field is ignored on lookup). On a
  // per-CPU map this is cpu 0's value.
  std::uint8_t* lookup(std::span<const std::uint8_t> key) {
    return lookup_cpu(key, 0);
  }

  // Copies `value` in, honouring BPF_ANY/BPF_NOEXIST/BPF_EXIST. Returns 0 or
  // a negative errno (kErr*). Existing entries are updated in place, so
  // previously returned lookup pointers observe the new bytes. On a per-CPU
  // map the value lands in every CPU's slot (the syscall analogue requires
  // a full per-CPU value vector — initialisation writes).
  int update(std::span<const std::uint8_t> key,
             std::span<const std::uint8_t> value, std::uint64_t flags) {
    return do_update_cpu(key, value, flags, kAllCpus);
  }

  // Returns 0 or -ENOENT (-EINVAL for arrays, whose entries cannot die).
  virtual int erase(std::span<const std::uint8_t> key) = 0;

  // Number of live entries (arrays always report max_entries).
  virtual std::size_t size() const = 0;

  // ---- Per-CPU view ---------------------------------------------------------
  // For per-CPU map types, the value a program running on `cpu` sees
  // (nullptr, or -EINVAL on update, for cpu >= kMaxCpus); everything else
  // ignores `cpu` and serves the shared value. The BPF-side map helpers
  // route through these with ExecEnv::cpu_id, which is how
  // BPF_MAP_TYPE_PERCPU_* maps stay contention-free across the multi-core
  // Node's contexts. update_cpu writes that one slot; a per-CPU hash entry
  // it creates starts with every other slot zeroed.
  virtual std::uint8_t* lookup_cpu(std::span<const std::uint8_t> key,
                                   std::uint32_t cpu) = 0;
  int update_cpu(std::span<const std::uint8_t> key,
                 std::span<const std::uint8_t> value, std::uint64_t flags,
                 std::uint32_t cpu) {
    // Clamped so that no out-of-range cpu reads as kAllCpus.
    return do_update_cpu(key, value, flags, std::min(cpu, kMaxCpus));
  }

  // ---- Crash teardown -------------------------------------------------------
  // Drops every entry's *contents* while keeping the definition — what a
  // node crash does to pinned-map state in this model (the map object, like
  // the program text, represents on-disk artefacts that survive; the
  // contents are kernel memory that does not). Default: no-op for types
  // with no wipeable state.
  virtual void reset_contents() {}

  // User-space-style summed read of a u64 counter: adds the value across all
  // possible CPUs for per-CPU maps (the bpf_map_lookup_elem-from-userspace
  // semantics), or reads the single shared value otherwise. Returns 0 when
  // the key is absent or value_size != 8.
  std::uint64_t sum_u64(std::span<const std::uint8_t> key);

  // ---- Typed convenience accessors for user-space-side code -----------------
  template <typename K, typename V>
  int put(const K& key, const V& value, std::uint64_t flags = BPF_ANY) {
    static_assert(std::is_trivially_copyable_v<K> &&
                  std::is_trivially_copyable_v<V>);
    return update({reinterpret_cast<const std::uint8_t*>(&key), sizeof key},
                  {reinterpret_cast<const std::uint8_t*>(&value), sizeof value},
                  flags);
  }
  template <typename K>
  std::uint8_t* find(const K& key) {
    static_assert(std::is_trivially_copyable_v<K>);
    return lookup({reinterpret_cast<const std::uint8_t*>(&key), sizeof key});
  }
  template <typename K>
  std::uint8_t* find_cpu(const K& key, std::uint32_t cpu) {
    static_assert(std::is_trivially_copyable_v<K>);
    return lookup_cpu({reinterpret_cast<const std::uint8_t*>(&key), sizeof key},
                      cpu);
  }
  template <typename K>
  std::uint64_t sum_u64(const K& key) {
    static_assert(std::is_trivially_copyable_v<K>);
    return sum_u64(
        std::span<const std::uint8_t>{
            reinterpret_cast<const std::uint8_t*>(&key), sizeof key});
  }

 protected:
  // The cpu update() passes to do_update_cpu: write every slot.
  static constexpr std::uint32_t kAllCpus = ~0u;

  // The type's one write path, reached only through update() and
  // update_cpu(); `cpu` is kAllCpus or at most kMaxCpus.
  virtual int do_update_cpu(std::span<const std::uint8_t> key,
                            std::span<const std::uint8_t> value,
                            std::uint64_t flags, std::uint32_t cpu) = 0;

  bool key_ok(std::span<const std::uint8_t> key) const noexcept {
    return key.size() == def_.key_size;
  }
  // Whether `cpu` names a slot: always on a shared map.
  bool cpu_ok(std::uint32_t cpu) const noexcept {
    return !per_cpu() || cpu < kMaxCpus;
  }
  // The argument check every write starts with (all failures are -EINVAL).
  bool write_ok(std::span<const std::uint8_t> key,
                std::span<const std::uint8_t> value,
                std::uint32_t cpu) const noexcept {
    return key_ok(key) && value.size() == def_.value_size &&
           (cpu == kAllCpus || cpu_ok(cpu));
  }
  // Slot `cpu` of an entry's slots() values; a shared map's one value
  // whatever the cpu.
  std::uint8_t* slot(std::uint8_t* values, std::uint32_t cpu) const noexcept {
    return per_cpu() ? values + static_cast<std::size_t>(cpu) * value_size()
                     : values;
  }
  // Copies `value` into slot `cpu` of `values`, or into every slot for
  // kAllCpus.
  void store(std::uint8_t* values, std::span<const std::uint8_t> value,
             std::uint32_t cpu) const noexcept;

 private:
  MapDef def_;
};

std::unique_ptr<Map> make_map(const MapDef& def);

// Owns maps and hands out the small integer ids that LD_IMM64/PSEUDO_MAP_FD
// instructions embed (the userspace-fd analogue).
class MapRegistry {
 public:
  // Creates a map and returns its id (ids start at 1; 0 means "no map").
  std::uint32_t create(const MapDef& def);
  // Registers an externally constructed map (e.g. PerfEventArrayMap with a
  // custom ring capacity) and returns its id.
  std::uint32_t create_with(std::unique_ptr<Map> map);
  // nullptr for unknown ids.
  Map* get(std::uint32_t id) noexcept;
  const Map* get(std::uint32_t id) const noexcept;
  std::size_t count() const noexcept { return maps_.size(); }

 private:
  std::vector<std::unique_ptr<Map>> maps_;
};

}  // namespace srv6bpf::ebpf
