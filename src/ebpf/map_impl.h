// Concrete map implementations. Internal header — user code goes through
// Map / MapRegistry (ebpf/map.h).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ebpf/map.h"
#include "util/lpm_trie.h"

namespace srv6bpf::ebpf {

// BPF_MAP_TYPE_ARRAY / BPF_MAP_TYPE_PERCPU_ARRAY: dense u32-indexed array,
// preallocated and zero-filled, slots() values per index. Entries can never
// be deleted (delete returns -EINVAL, as in the kernel).
class ArrayMap final : public Map {
 public:
  explicit ArrayMap(const MapDef& def);

  std::uint8_t* lookup_cpu(std::span<const std::uint8_t> key,
                           std::uint32_t cpu) override;
  int erase(std::span<const std::uint8_t> key) override;
  std::size_t size() const override { return max_entries(); }
  void reset_contents() override {
    storage_.assign(storage_.size(), 0);  // preallocated entries zero out
  }

 protected:
  int do_update_cpu(std::span<const std::uint8_t> key,
                    std::span<const std::uint8_t> value, std::uint64_t flags,
                    std::uint32_t cpu) override;

 private:
  std::uint8_t* values(std::uint32_t index) noexcept {
    return storage_.data() +
           static_cast<std::size_t>(index) * slots() * value_size();
  }
  std::vector<std::uint8_t> storage_;  // max_entries * slots * value_size
};

// BPF_MAP_TYPE_HASH / BPF_MAP_TYPE_PERCPU_HASH: arbitrary fixed-size byte
// keys. Each entry's slots() values live in one individually allocated,
// zero-filled buffer, so lookup pointers stay stable across rehashes of the
// index.
class HashMap final : public Map {
 public:
  explicit HashMap(const MapDef& def) : Map(def) {}

  std::uint8_t* lookup_cpu(std::span<const std::uint8_t> key,
                           std::uint32_t cpu) override;
  int erase(std::span<const std::uint8_t> key) override;
  std::size_t size() const override { return entries_.size(); }
  void reset_contents() override { entries_.clear(); }

  // Iteration support for user-space dumps (bpf_map_get_next_key analogue).
  std::vector<std::vector<std::uint8_t>> keys() const;

 protected:
  int do_update_cpu(std::span<const std::uint8_t> key,
                    std::span<const std::uint8_t> value, std::uint64_t flags,
                    std::uint32_t cpu) override;

 private:
  // std::map keeps deterministic iteration order for reproducible dumps.
  std::map<std::vector<std::uint8_t>, std::unique_ptr<std::uint8_t[]>> entries_;
};

// BPF_MAP_TYPE_LPM_TRIE: longest-prefix-match over big-endian bit strings.
// Key layout matches struct bpf_lpm_trie_key: a host-endian u32 prefix length
// followed by (key_size - 4) data bytes, most significant bit first.
//
// Backed by the shared multibit-stride engine (util/lpm_trie.h): lookups
// descend one node per key *byte* instead of one per bit, which is the
// "LPM fast path" ROADMAP item — BPF programs and the seg6 FIB share the
// same engine. Values are individually heap-allocated buffers so lookup
// pointers keep the kernel-style stability guarantee across inserts.
class LpmTrieMap final : public Map {
 public:
  explicit LpmTrieMap(const MapDef& def)
      : Map(def),
        max_prefixlen_((def.key_size - 4) * 8),
        trie_(def.key_size - 4) {}

  std::uint8_t* lookup_cpu(std::span<const std::uint8_t> key,
                           std::uint32_t cpu) override;
  int erase(std::span<const std::uint8_t> key) override;
  std::size_t size() const override { return trie_.size(); }
  void reset_contents() override { trie_.clear(); }

 protected:
  int do_update_cpu(std::span<const std::uint8_t> key,
                    std::span<const std::uint8_t> value, std::uint64_t flags,
                    std::uint32_t cpu) override;

 private:
  std::uint32_t max_prefixlen_;
  util::LpmTrie<std::unique_ptr<std::uint8_t[]>> trie_;
};

}  // namespace srv6bpf::ebpf
