// eBPF helper functions: the kernel-side proxies callable from programs.
//
// Each helper has a numeric id (matching include/uapi/linux/bpf.h for the
// real ones), a name and a type signature (HelperProto, registered once with
// the implementation; the verifier validates call sites against the
// signature and names the helper in its errors), and an implementation
// receiving the 5 argument registers plus the ExecEnv.
//
// The four SRv6 helpers the paper contributes (ids 73-76, merged in Linux
// 4.18) are implemented in src/seg6/helpers.cc because they need the packet
// and the node's routing state; this module hosts the generic ones plus the
// registry.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>

#include "ebpf/exec.h"

namespace srv6bpf::ebpf {

namespace helper {
// Generic kernel helpers.
inline constexpr std::int32_t MAP_LOOKUP_ELEM = 1;
inline constexpr std::int32_t MAP_UPDATE_ELEM = 2;
inline constexpr std::int32_t MAP_DELETE_ELEM = 3;
inline constexpr std::int32_t KTIME_GET_NS = 5;
inline constexpr std::int32_t TRACE_PRINTK = 6;
inline constexpr std::int32_t GET_PRANDOM_U32 = 7;
inline constexpr std::int32_t GET_SMP_PROCESSOR_ID = 8;
inline constexpr std::int32_t PERF_EVENT_OUTPUT = 25;
inline constexpr std::int32_t SKB_LOAD_BYTES = 26;
// The paper's LWT/SRv6 helpers (Linux 4.18 ids).
inline constexpr std::int32_t LWT_PUSH_ENCAP = 73;
inline constexpr std::int32_t LWT_SEG6_STORE_BYTES = 74;
inline constexpr std::int32_t LWT_SEG6_ADJUST_SRH = 75;
inline constexpr std::int32_t LWT_SEG6_ACTION = 76;
// Custom helper of §4.3 ("new helpers can easily be added to the kernel"):
// returns the ECMP nexthops the FIB holds for an address.
inline constexpr std::int32_t FIB_ECMP_NEXTHOPS = 200;
}  // namespace helper

// Argument classes, a subset of the kernel's bpf_arg_type. The verifier
// checks the register state at each call site against these.
enum class ArgKind {
  kNone,           // unused slot
  kAnything,       // any initialised scalar
  kPtrToCtx,       // must be the context pointer
  kConstMapPtr,    // must come from ld_map
  kPtrToMapKey,    // readable mem of exactly map->key_size bytes
  kPtrToMapValue,  // readable mem of exactly map->value_size bytes
  kPtrToMem,       // readable mem, size given by the *next* kConstSize arg
  kPtrToUninitMem, // writable mem, size given by the next kConstSize arg
  kConstSize,      // scalar with a verifier-known bound > 0
  kConstSizeOrZero,
};

enum class RetKind {
  kInteger,             // scalar
  kPtrToMapValueOrNull, // pointer into the map's value or NULL
};

// Program-type gating bits (kernel: each prog type has its own helper list).
inline constexpr std::uint8_t kProgLwtXmit = 1 << 0;
inline constexpr std::uint8_t kProgSeg6Local = 1 << 1;
inline constexpr std::uint8_t kProgSocketFilter = 1 << 2;
inline constexpr std::uint8_t kProgAny = 0xff;

struct HelperProto {
  std::string name;
  RetKind ret = RetKind::kInteger;
  std::array<ArgKind, 5> args{ArgKind::kNone, ArgKind::kNone, ArgKind::kNone,
                              ArgKind::kNone, ArgKind::kNone};
  // True if the helper may invalidate previously derived packet pointers
  // (anything that can reallocate/resize the packet, e.g. adjust_srh,
  // push_encap). The verifier kills packet pointers across such calls.
  bool invalidates_packet = false;
  // Which program types may call this helper (kProg* bits).
  std::uint8_t allowed_types = kProgAny;
};

// Raw function pointer, not std::function: helper dispatch is on the
// per-packet hot path and every registered helper is a capture-less free
// function. The decode step resolves call sites straight to these pointers.
using HelperFn = std::uint64_t (*)(ExecEnv&, std::uint64_t, std::uint64_t,
                                   std::uint64_t, std::uint64_t,
                                   std::uint64_t);

class HelperRegistry {
 public:
  void register_helper(std::int32_t id, HelperProto proto, HelperFn fn);
  bool contains(std::int32_t id) const noexcept {
    return helpers_.count(id) != 0;
  }
  const HelperProto* proto(std::int32_t id) const noexcept;
  const HelperFn* fn(std::int32_t id) const noexcept;

 private:
  struct Entry {
    HelperProto proto;
    HelperFn fn;
  };
  std::unordered_map<std::int32_t, Entry> helpers_;
};

// Registers map_lookup/update/delete, ktime_get_ns, get_prandom_u32,
// get_smp_processor_id, perf_event_output, skb_load_bytes and trace_printk.
void register_generic_helpers(HelperRegistry& reg);

}  // namespace srv6bpf::ebpf
