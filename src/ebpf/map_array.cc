#include <cstring>

#include "ebpf/map_impl.h"
#include "util/byteorder.h"

namespace srv6bpf::ebpf {

ArrayMap::ArrayMap(const MapDef& def) : Map(def) {
  storage_.assign(
      static_cast<std::size_t>(def.max_entries) * slots() * def.value_size, 0);
}

std::uint8_t* ArrayMap::lookup_cpu(std::span<const std::uint8_t> key,
                                   std::uint32_t cpu) {
  if (!key_ok(key) || !cpu_ok(cpu)) return nullptr;
  const std::uint32_t index = load_unaligned<std::uint32_t>(key.data());
  if (index >= max_entries()) return nullptr;
  return slot(values(index), cpu);
}

int ArrayMap::do_update_cpu(std::span<const std::uint8_t> key,
                            std::span<const std::uint8_t> value,
                            std::uint64_t flags, std::uint32_t cpu) {
  if (!write_ok(key, value, cpu)) return kErrInval;
  // Array entries always exist, so BPF_NOEXIST can never succeed.
  if (flags == BPF_NOEXIST) return kErrExist;
  if (flags > BPF_EXIST) return kErrInval;
  const std::uint32_t index = load_unaligned<std::uint32_t>(key.data());
  if (index >= max_entries()) return kErrNoEnt;
  store(values(index), value, cpu);
  return kOk;
}

int ArrayMap::erase(std::span<const std::uint8_t>) {
  return kErrInval;  // array entries cannot be deleted (kernel behaviour)
}

}  // namespace srv6bpf::ebpf
