#include <cstring>

#include "ebpf/map_impl.h"

namespace srv6bpf::ebpf {

std::uint8_t* HashMap::lookup_cpu(std::span<const std::uint8_t> key,
                                  std::uint32_t cpu) {
  if (!key_ok(key) || !cpu_ok(cpu)) return nullptr;
  auto it = entries_.find(std::vector<std::uint8_t>(key.begin(), key.end()));
  return it == entries_.end() ? nullptr : slot(it->second.get(), cpu);
}

int HashMap::do_update_cpu(std::span<const std::uint8_t> key,
                           std::span<const std::uint8_t> value,
                           std::uint64_t flags, std::uint32_t cpu) {
  if (!write_ok(key, value, cpu)) return kErrInval;
  if (flags > BPF_EXIST) return kErrInval;
  std::vector<std::uint8_t> k(key.begin(), key.end());
  auto it = entries_.find(k);
  if (it != entries_.end()) {
    if (flags == BPF_NOEXIST) return kErrExist;
    store(it->second.get(), value, cpu);
    return kOk;
  }
  if (flags == BPF_EXIST) return kErrNoEnt;
  if (entries_.size() >= max_entries()) return kErrNoSpace;
  // Value-initialised: the slots this write skips start at zero.
  auto buf = std::make_unique<std::uint8_t[]>(
      static_cast<std::size_t>(slots()) * value_size());
  store(buf.get(), value, cpu);
  entries_.emplace(std::move(k), std::move(buf));
  return kOk;
}

int HashMap::erase(std::span<const std::uint8_t> key) {
  if (!key_ok(key)) return kErrInval;
  return entries_.erase(std::vector<std::uint8_t>(key.begin(), key.end())) ? kOk
                                                                           : kErrNoEnt;
}

std::vector<std::vector<std::uint8_t>> HashMap::keys() const {
  std::vector<std::vector<std::uint8_t>> out;
  out.reserve(entries_.size());
  for (const auto& [k, v] : entries_) out.push_back(k);
  return out;
}

}  // namespace srv6bpf::ebpf
