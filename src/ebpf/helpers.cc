#include "ebpf/helpers.h"

#include <cstdio>
#include <cstring>
#include <span>

#include "ebpf/map.h"
#include "ebpf/perf_event.h"
#include "ebpf/skb.h"
#include "util/hash.h"

namespace srv6bpf::ebpf {

void HelperRegistry::register_helper(std::int32_t id, HelperProto proto,
                                     HelperFn fn) {
  helpers_[id] = Entry{std::move(proto), std::move(fn)};
}

const HelperProto* HelperRegistry::proto(std::int32_t id) const noexcept {
  auto it = helpers_.find(id);
  return it == helpers_.end() ? nullptr : &it->second.proto;
}

const HelperFn* HelperRegistry::fn(std::int32_t id) const noexcept {
  auto it = helpers_.find(id);
  return it == helpers_.end() ? nullptr : &it->second.fn;
}

namespace {

Map* map_from_arg(ExecEnv& env, std::uint64_t arg) {
  // At runtime a CONST_MAP_PTR argument carries the map id (the verifier
  // guarantees it originates from a ld_map instruction).
  return env.maps ? env.maps->get(static_cast<std::uint32_t>(arg)) : nullptr;
}

std::uint64_t do_map_lookup(ExecEnv& env, std::uint64_t map_arg,
                            std::uint64_t key, std::uint64_t, std::uint64_t,
                            std::uint64_t) {
  Map* map = map_from_arg(env, map_arg);
  if (map == nullptr) return 0;
  // Per-CPU maps hand back the invoking context's slot (this-CPU semantics of
  // the in-kernel helper); for everything else cpu_id is ignored.
  std::uint8_t* value = map->lookup_cpu(
      {reinterpret_cast<const std::uint8_t*>(key), map->key_size()},
      env.cpu_id);
  if (value != nullptr) {
    // Returned value memory becomes accessible to the program for the rest
    // of this invocation; the interpreter checks loads/stores against the
    // region list (the verifier bounds them statically for the JIT path).
    env.regions.push_back(MemRegion{reinterpret_cast<std::uintptr_t>(value),
                                    map->value_size(), true});
  }
  return reinterpret_cast<std::uint64_t>(value);
}

std::uint64_t do_map_update(ExecEnv& env, std::uint64_t map_arg,
                            std::uint64_t key, std::uint64_t value,
                            std::uint64_t flags, std::uint64_t) {
  Map* map = map_from_arg(env, map_arg);
  if (map == nullptr) return static_cast<std::uint64_t>(kErrInval);
  return static_cast<std::uint64_t>(map->update_cpu(
      {reinterpret_cast<const std::uint8_t*>(key), map->key_size()},
      {reinterpret_cast<const std::uint8_t*>(value), map->value_size()},
      flags, env.cpu_id));
}

std::uint64_t do_map_delete(ExecEnv& env, std::uint64_t map_arg,
                            std::uint64_t key, std::uint64_t, std::uint64_t,
                            std::uint64_t) {
  Map* map = map_from_arg(env, map_arg);
  if (map == nullptr) return static_cast<std::uint64_t>(kErrInval);
  return static_cast<std::uint64_t>(map->erase(
      {reinterpret_cast<const std::uint8_t*>(key), map->key_size()}));
}

std::uint64_t do_ktime(ExecEnv& env, std::uint64_t, std::uint64_t,
                       std::uint64_t, std::uint64_t, std::uint64_t) {
  return env.now_ns;
}

std::uint64_t do_prandom(ExecEnv& env, std::uint64_t, std::uint64_t,
                         std::uint64_t, std::uint64_t, std::uint64_t) {
  if (env.prandom_state == nullptr) return 4;  // chosen by fair dice roll
  // The high half of a splitmix64 mix, taken before its final xor-shift.
  return splitmix64_unfinalized(*env.prandom_state) >> 32;
}

std::uint64_t do_smp_processor_id(ExecEnv& env, std::uint64_t, std::uint64_t,
                                  std::uint64_t, std::uint64_t,
                                  std::uint64_t) {
  return env.cpu_id;
}

std::uint64_t do_perf_event_output(ExecEnv& env, std::uint64_t /*ctx*/,
                                   std::uint64_t map_arg, std::uint64_t /*flags*/,
                                   std::uint64_t data, std::uint64_t size) {
  auto* map = dynamic_cast<PerfEventArrayMap*>(map_from_arg(env, map_arg));
  if (map == nullptr) return static_cast<std::uint64_t>(kErrInval);
  const auto* p = reinterpret_cast<const std::uint8_t*>(data);
  if (!env.readable(p, size)) return static_cast<std::uint64_t>(kErrInval);
  // Records land in the invoking context's ring (BPF_F_CURRENT_CPU; explicit
  // target-cpu flags are not modelled).
  return map->buffer().push(env.now_ns, {p, static_cast<std::size_t>(size)},
                            env.cpu_id)
             ? 0
             : static_cast<std::uint64_t>(kErrNoSpace);
}

std::uint64_t do_skb_load_bytes(ExecEnv& env, std::uint64_t ctx,
                                std::uint64_t offset, std::uint64_t to,
                                std::uint64_t len, std::uint64_t) {
  // bpf_skb_load_bytes(skb, offset, to, len): copy packet bytes into program
  // memory. This is how translated classic filters read at variable offsets
  // (BPF_IND / BPF_MSH) — the verifier cannot prove direct packet loads at
  // runtime-computed offsets, so the kernel routes them through this helper.
  const auto* skb = reinterpret_cast<const SkbCtx*>(ctx);
  if (!env.readable(skb, sizeof(SkbCtx)))
    return static_cast<std::uint64_t>(kErrFault);
  const std::uint32_t off32 = static_cast<std::uint32_t>(offset);
  const std::uint32_t len32 = static_cast<std::uint32_t>(len);
  const std::uint64_t pkt_len = skb->data_end - skb->data;
  if (len32 == 0 || off32 > pkt_len || len32 > pkt_len - off32)
    return static_cast<std::uint64_t>(kErrFault);
  auto* dst = reinterpret_cast<std::uint8_t*>(to);
  if (!env.writable(dst, len32)) return static_cast<std::uint64_t>(kErrFault);
  std::memcpy(dst, reinterpret_cast<const std::uint8_t*>(skb->data) + off32,
              len32);
  return 0;
}

std::uint64_t do_trace_printk(ExecEnv& env, std::uint64_t fmt,
                              std::uint64_t fmt_size, std::uint64_t,
                              std::uint64_t, std::uint64_t) {
  const auto* p = reinterpret_cast<const char*>(fmt);
  if (!env.readable(p, fmt_size)) return static_cast<std::uint64_t>(kErrInval);
  // Debug-only output; arguments are intentionally not formatted.
  std::fwrite(p, 1, strnlen(p, fmt_size), stderr);
  std::fputc('\n', stderr);
  return 0;
}

}  // namespace

void register_generic_helpers(HelperRegistry& reg) {
  reg.register_helper(
      helper::MAP_LOOKUP_ELEM,
      {.name = "map_lookup_elem",
       .ret = RetKind::kPtrToMapValueOrNull,
       .args = {ArgKind::kConstMapPtr, ArgKind::kPtrToMapKey, ArgKind::kNone,
                ArgKind::kNone, ArgKind::kNone}},
      do_map_lookup);
  reg.register_helper(
      helper::MAP_UPDATE_ELEM,
      {.name = "map_update_elem",
       .ret = RetKind::kInteger,
       .args = {ArgKind::kConstMapPtr, ArgKind::kPtrToMapKey,
                ArgKind::kPtrToMapValue, ArgKind::kAnything, ArgKind::kNone}},
      do_map_update);
  reg.register_helper(
      helper::MAP_DELETE_ELEM,
      {.name = "map_delete_elem",
       .ret = RetKind::kInteger,
       .args = {ArgKind::kConstMapPtr, ArgKind::kPtrToMapKey, ArgKind::kNone,
                ArgKind::kNone, ArgKind::kNone}},
      do_map_delete);
  reg.register_helper(helper::KTIME_GET_NS,
                      {.name = "ktime_get_ns", .ret = RetKind::kInteger},
                      do_ktime);
  reg.register_helper(helper::GET_PRANDOM_U32,
                      {.name = "get_prandom_u32", .ret = RetKind::kInteger},
                      do_prandom);
  reg.register_helper(helper::GET_SMP_PROCESSOR_ID,
                      {.name = "get_smp_processor_id",
                       .ret = RetKind::kInteger},
                      do_smp_processor_id);
  reg.register_helper(
      helper::PERF_EVENT_OUTPUT,
      {.name = "perf_event_output",
       .ret = RetKind::kInteger,
       .args = {ArgKind::kPtrToCtx, ArgKind::kConstMapPtr, ArgKind::kAnything,
                ArgKind::kPtrToMem, ArgKind::kConstSize}},
      do_perf_event_output);
  reg.register_helper(
      helper::SKB_LOAD_BYTES,
      {.name = "skb_load_bytes",
       .ret = RetKind::kInteger,
       .args = {ArgKind::kPtrToCtx, ArgKind::kAnything,
                ArgKind::kPtrToUninitMem, ArgKind::kConstSize,
                ArgKind::kNone}},
      do_skb_load_bytes);
  reg.register_helper(
      helper::TRACE_PRINTK,
      {.name = "trace_printk",
       .ret = RetKind::kInteger,
       .args = {ArgKind::kPtrToMem, ArgKind::kConstSize, ArgKind::kAnything,
                ArgKind::kAnything, ArgKind::kNone}},
      do_trace_printk);
}

}  // namespace srv6bpf::ebpf
