#include "ebpf/map.h"

#include <cstring>
#include <stdexcept>

#include "ebpf/map_impl.h"
#include "ebpf/perf_event.h"

namespace srv6bpf::ebpf {

std::unique_ptr<Map> make_map(const MapDef& def) {
  if (def.key_size == 0 || def.value_size == 0 || def.max_entries == 0)
    throw std::invalid_argument("map '" + def.name +
                                "': key/value/max_entries must be non-zero");
  switch (def.type) {
    case MapType::kArray:
    case MapType::kPerCpuArray:
      if (def.key_size != 4)
        throw std::invalid_argument("array map key_size must be 4");
      return std::make_unique<ArrayMap>(def);
    case MapType::kHash:
    case MapType::kPerCpuHash:
      return std::make_unique<HashMap>(def);
    case MapType::kLpmTrie:
      if (def.key_size <= 4)
        throw std::invalid_argument(
            "lpm trie key_size must exceed the 4-byte prefixlen field");
      return std::make_unique<LpmTrieMap>(def);
    case MapType::kPerfEventArray:
      return std::make_unique<PerfEventArrayMap>(def);
  }
  throw std::invalid_argument("unknown map type");
}

void Map::store(std::uint8_t* values, std::span<const std::uint8_t> value,
                std::uint32_t cpu) const noexcept {
  if (cpu != kAllCpus) {
    std::memcpy(slot(values, cpu), value.data(), value.size());
    return;
  }
  for (std::uint32_t c = 0; c < slots(); ++c)
    std::memcpy(slot(values, c), value.data(), value.size());
}

std::uint64_t Map::sum_u64(std::span<const std::uint8_t> key) {
  if (value_size() != 8) return 0;
  std::uint64_t total = 0;
  for (std::uint32_t c = 0; c < slots(); ++c) {
    const std::uint8_t* v = lookup_cpu(key, c);
    if (v == nullptr) return total;
    std::uint64_t x;
    std::memcpy(&x, v, 8);
    total += x;
  }
  return total;
}

std::uint32_t MapRegistry::create(const MapDef& def) {
  maps_.push_back(make_map(def));
  return static_cast<std::uint32_t>(maps_.size());  // ids start at 1
}

std::uint32_t MapRegistry::create_with(std::unique_ptr<Map> map) {
  maps_.push_back(std::move(map));
  return static_cast<std::uint32_t>(maps_.size());
}

Map* MapRegistry::get(std::uint32_t id) noexcept {
  if (id == 0 || id > maps_.size()) return nullptr;
  return maps_[id - 1].get();
}

const Map* MapRegistry::get(std::uint32_t id) const noexcept {
  if (id == 0 || id > maps_.size()) return nullptr;
  return maps_[id - 1].get();
}

}  // namespace srv6bpf::ebpf
