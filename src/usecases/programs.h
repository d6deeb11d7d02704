// The eBPF network functions evaluated in the paper, hand-assembled with
// ebpf::Asm (the paper wrote them in C and compiled with clang's BPF
// backend; the logic and helper call sequences here are the same).
//
// §3.2 micro-benchmark programs:
//   * End            — empty endpoint (1 SLOC body in the paper)
//   * End.T (BPF)    — bpf_lwt_seg6_action(SEG6_LOCAL_ACTION_END_T) (4 SLOC)
//   * Tag++          — read the SRH tag, increment it through
//                      bpf_lwt_seg6_store_bytes (50 SLOC)
//   * Add TLV        — grow the TLV area by 8 bytes with
//                      bpf_lwt_seg6_adjust_srh, then fill it (60 SLOC)
//
// §4 use-case programs:
//   * DM encap       — LWT transit: encapsulate every Nth packet with an SRH
//                      carrying a DM TLV (TX timestamp) + controller TLV
//                      (130 SLOC)
//   * End.DM         — endpoint: report TX/RX timestamps via perf event,
//                      then End.DT6-decapsulate (OWD, §4.1)
//   * End.DM (TWD)   — write the RX timestamp into the probe in place and
//                      bounce it back to the querier (§4.2)
//   * WRR            — LWT transit: per-packet weighted round-robin across
//                      two SRv6 paths (120 SLOC, §4.2)
//   * End.OAMP       — query the FIB's ECMP nexthops for the probe's target
//                      and report them via perf event (60 SLOC, §4.3)
#pragma once

#include <cstdint>
#include <vector>

#include "ebpf/insn.h"
#include "ebpf/map.h"
#include "ebpf/vm.h"
#include "net/ip6.h"

namespace srv6bpf::seg6 {
class Netns;
}

namespace srv6bpf::usecases {

// ---- On-the-wire probe layouts (fixed formats, byte offsets from the start
// ---- of the outermost IPv6 header) ------------------------------------------

// OWD probe (§4.1): outer IPv6 + SRH{2 segments, DM TLV, controller TLV}.
// 40 + (8 + 32 + 20 + 20) = 120 bytes of headers before the inner packet.
inline constexpr int kOwdSrhOff = 40;
inline constexpr int kOwdSrhLen = 80;
inline constexpr int kOwdDmTlvOff = 80;        // type 124
inline constexpr int kOwdDmTxOff = 84;         // u64 BE
inline constexpr int kOwdCtrlTlvOff = 100;     // type 125
inline constexpr int kOwdCtrlAddrOff = 102;
inline constexpr int kOwdCtrlPortOff = 118;
inline constexpr int kOwdHeaderBytes = 120;

// TWD probe (§4.2): IPv6 + SRH{2 segments, DM TLV, PadN(4)} = 40 + 64.
inline constexpr int kTwdDmTlvOff = 80;
inline constexpr int kTwdDmRxOff = 92;   // u64 BE, written by the CPE
inline constexpr int kTwdDmTxOff = 84;
inline constexpr int kTwdHeaderBytes = 104;

// OAMP probe (§4.3): IPv6 + SRH{2 segments, reply-to TLV(20), PadN(4)}.
inline constexpr int kOampReplyTlvOff = 80;   // type 126
inline constexpr int kOampReplyAddrOff = 82;
inline constexpr int kOampReplyPortOff = 98;
inline constexpr int kOampTargetSegOff = 48;  // segment[0] = queried target
inline constexpr int kOampHeaderBytes = 104;

// ---- Map value layouts -------------------------------------------------------

// DM encap config (array map, one entry).
struct DmEncapConfig {
  std::uint64_t counter = 0;   // incremented per packet
  std::uint64_t ratio = 100;   // probe every Nth packet
  std::uint8_t dm_sid[16]{};   // segment bound to End.DM on R
  std::uint8_t final_seg[16]{};
  std::uint8_t ctrl_addr[16]{};
  std::uint16_t ctrl_port = 0;
  std::uint8_t pad[6]{};
};
static_assert(sizeof(DmEncapConfig) == 72);

// WRR scheduler state+config (array map, one entry) — "we use maps to store
// the scheduler state, i.e. the weights and the last chosen path" (§4.2).
struct WrrConfig {
  std::uint64_t counter = 0;
  std::uint64_t weight1 = 5;
  std::uint64_t weight2 = 3;
  std::uint8_t sid1[16]{};
  std::uint8_t sid2[16]{};
};
static_assert(sizeof(WrrConfig) == 56);

// ---- Perf event records -------------------------------------------------------

// Emitted by End.DM (§4.1).
struct DmEvent {
  std::uint64_t tx_ns = 0;
  std::uint64_t rx_ns = 0;
  std::uint8_t ctrl_addr[16]{};
  std::uint16_t ctrl_port = 0;
  std::uint8_t pad[6]{};
};
static_assert(sizeof(DmEvent) == 40);

// Emitted by End.OAMP (§4.3).
struct OampEvent {
  std::uint8_t reply_addr[16]{};
  std::uint16_t reply_port = 0;
  std::uint16_t pad = 0;
  std::uint32_t nexthop_count = 0;
  std::uint8_t nexthops[8][16]{};
};
static_assert(sizeof(OampEvent) == 152);

// ---- Program builders ---------------------------------------------------------
// Each returns the raw instruction stream; load via load_or_throw (below)
// with the indicated program type. `sloc` reports the paper's SLOC figure for
// the C original, surfaced by the benchmarks.

struct BuiltProgram {
  std::vector<ebpf::Insn> insns;
  std::size_t paper_sloc;
  const char* name;
};

BuiltProgram build_end();                                // seg6local
BuiltProgram build_end_t(std::uint32_t table_id);        // seg6local
BuiltProgram build_tag_increment();                      // seg6local
BuiltProgram build_add_tlv();                            // seg6local
BuiltProgram build_dm_encap(std::uint32_t cfg_map_id);   // lwt_xmit
BuiltProgram build_end_dm(std::uint32_t perf_map_id);    // seg6local
BuiltProgram build_end_dm_twd();                         // seg6local
BuiltProgram build_wrr(std::uint32_t cfg_map_id);        // lwt_xmit
BuiltProgram build_end_oamp(std::uint32_t perf_map_id);  // seg6local
// Multi-core observability: counts packets per CPU context in a
// BPF_MAP_TYPE_PERCPU_ARRAY (slot 0 of `cnt_map_id`, a u64 per CPU) and
// tags each packet's skb->mark with bpf_get_smp_processor_id() so the
// servicing context is visible downstream. Race-free across the multi-core
// Node's contexts by construction — the per-CPU map is the whole point.
BuiltProgram build_percpu_counter(std::uint32_t cnt_map_id);  // seg6local

// ---- Loading and binding -------------------------------------------------------

// Loads `built` into `bpf` as a `type` program. Throws std::runtime_error
// ("<name> rejected: <verifier error>") on a verifier rejection.
ebpf::ProgHandle load_or_throw(ebpf::BpfSystem& bpf, const BuiltProgram& built,
                               ebpf::ProgType type);
// Binds `prog` to `sid` in `ns`'s SID table as End.BPF.
void bind_end_bpf(seg6::Netns& ns, const net::Ipv6Addr& sid,
                  const ebpf::ProgHandle& prog);

}  // namespace srv6bpf::usecases
