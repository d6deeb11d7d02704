#include <cstring>

#include "ebpf/map_impl.h"
#include "util/byteorder.h"

namespace srv6bpf::ebpf {

// A shared map: `cpu` names no slot.
std::uint8_t* LpmTrieMap::lookup_cpu(std::span<const std::uint8_t> key,
                                     std::uint32_t) {
  if (!key_ok(key)) return nullptr;
  // Lookups ignore the caller's prefixlen and match the full key, returning
  // the most specific stored prefix (kernel semantics).
  const auto* v = trie_.lookup(key.data() + 4);
  return v ? v->get() : nullptr;
}

int LpmTrieMap::do_update_cpu(std::span<const std::uint8_t> key,
                              std::span<const std::uint8_t> value,
                              std::uint64_t flags, std::uint32_t cpu) {
  if (!write_ok(key, value, cpu)) return kErrInval;
  if (flags > BPF_EXIST) return kErrInval;
  const std::uint32_t prefixlen = load_unaligned<std::uint32_t>(key.data());
  if (prefixlen > max_prefixlen_) return kErrInval;
  const std::uint8_t* data = key.data() + 4;

  if (auto* existing = trie_.find_exact(data, prefixlen)) {
    if (flags == BPF_NOEXIST) return kErrExist;
    std::memcpy(existing->get(), value.data(), value.size());
    return kOk;
  }
  if (flags == BPF_EXIST) return kErrNoEnt;
  if (trie_.size() >= max_entries()) return kErrNoSpace;
  bool created = false;
  auto* buf = trie_.find_or_insert(data, prefixlen, created);
  *buf = std::make_unique<std::uint8_t[]>(value_size());
  std::memcpy(buf->get(), value.data(), value.size());
  return kOk;
}

int LpmTrieMap::erase(std::span<const std::uint8_t> key) {
  if (!key_ok(key)) return kErrInval;
  const std::uint32_t prefixlen = load_unaligned<std::uint32_t>(key.data());
  if (prefixlen > max_prefixlen_) return kErrInval;
  return trie_.erase(key.data() + 4, prefixlen) ? kOk : kErrNoEnt;
}

}  // namespace srv6bpf::ebpf
