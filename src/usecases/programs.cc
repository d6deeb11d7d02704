#include "usecases/programs.h"

#include <stdexcept>
#include <string>

#include "ebpf/asm.h"
#include "ebpf/helpers.h"
#include "seg6/helpers.h"
#include "seg6/seg6local.h"

namespace srv6bpf::usecases {

using namespace srv6bpf::ebpf;  // NOLINT: assembler DSL reads better unqualified

namespace {
constexpr std::int32_t kActEndT =
    static_cast<std::int32_t>(seg6::Seg6Action::kEndT);
constexpr std::int32_t kActEndDT6 =
    static_cast<std::int32_t>(seg6::Seg6Action::kEndDT6);
}  // namespace

// ---- §3.2: End ---------------------------------------------------------------
BuiltProgram build_end() {
  Asm a;
  a.mov32_imm(R0, static_cast<std::int32_t>(BPF_OK)).exit_();
  return {a.build(), 1, "End (BPF)"};
}

// ---- §3.2: End.T -------------------------------------------------------------
BuiltProgram build_end_t(std::uint32_t table_id) {
  Asm a;
  a.mov64_reg(R6, R1)
      .st(BPF_W, R10, -4, static_cast<std::int32_t>(table_id))
      .mov64_reg(R1, R6)
      .mov32_imm(R2, kActEndT)
      .mov64_reg(R3, R10)
      .add64_imm(R3, -4)
      .mov32_imm(R4, 4)
      .call(helper::LWT_SEG6_ACTION)
      .jne_imm(R0, 0, "drop")
      .mov32_imm(R0, static_cast<std::int32_t>(BPF_REDIRECT))
      .exit_()
      .label("drop")
      .mov32_imm(R0, static_cast<std::int32_t>(BPF_DROP))
      .exit_();
  return {a.build(), 4, "End.T (BPF)"};
}

// ---- §3.2: Tag++ ---------------------------------------------------------------
// Fetch the SRH tag, increment it, write it back with the indirect-write
// helper (the SRH itself is read-only to the program).
BuiltProgram build_tag_increment() {
  Asm a;
  a.mov64_reg(R6, R1)
      .ldx(BPF_DW, R7, R6, 0)   // data
      .ldx(BPF_DW, R8, R6, 8)   // data_end
      .mov64_reg(R1, R7)
      .add64_imm(R1, 48)        // IPv6 (40) + SRH fixed part (8)
      .jgt_reg(R1, R8, "drop")
      .ldx(BPF_B, R2, R7, 6)    // IPv6 next header
      .jne_imm(R2, net::kProtoRouting, "drop")
      .ldx(BPF_B, R2, R7, 42)   // routing type
      .jne_imm(R2, net::kSrhRoutingType, "drop")
      .ldx(BPF_H, R2, R7, 46)   // tag (big-endian on the wire)
      .to_be(R2, 16)            // -> host order
      .add64_imm(R2, 1)
      .and64_imm(R2, 0xffff)
      .to_be(R2, 16)            // -> network order
      .stx(BPF_H, R10, R2, -2)
      .mov64_reg(R1, R6)
      .mov64_imm(R2, 46)        // offset of the tag within the packet
      .mov64_reg(R3, R10)
      .add64_imm(R3, -2)
      .mov64_imm(R4, 2)
      .call(helper::LWT_SEG6_STORE_BYTES)
      .jne_imm(R0, 0, "drop")
      .mov32_imm(R0, static_cast<std::int32_t>(BPF_OK))
      .exit_()
      .label("drop")
      .mov32_imm(R0, static_cast<std::int32_t>(BPF_DROP))
      .exit_();
  return {a.build(), 50, "Tag++ (BPF)"};
}

// ---- §3.2: Add TLV --------------------------------------------------------------
// Grow the TLV area by 8 bytes at the end of the SRH, then fill it with an
// opaque TLV. Exercises both adjust_srh and store_bytes.
BuiltProgram build_add_tlv() {
  Asm a;
  a.mov64_reg(R6, R1)
      .ldx(BPF_DW, R7, R6, 0)
      .ldx(BPF_DW, R8, R6, 8)
      .mov64_reg(R1, R7)
      .add64_imm(R1, 48)
      .jgt_reg(R1, R8, "drop")
      .ldx(BPF_B, R2, R7, 6)
      .jne_imm(R2, net::kProtoRouting, "drop")
      .ldx(BPF_B, R2, R7, 42)
      .jne_imm(R2, net::kSrhRoutingType, "drop")
      .ldx(BPF_B, R9, R7, 41)   // hdr_ext_len
      .lsh64_imm(R9, 3)
      .add64_imm(R9, 48)        // insertion offset = 40 + (ext_len+1)*8
      // bpf_lwt_seg6_adjust_srh(ctx, offset, +8)
      .mov64_reg(R1, R6)
      .mov64_reg(R2, R9)
      .mov64_imm(R3, 8)
      .call(helper::LWT_SEG6_ADJUST_SRH)
      .jne_imm(R0, 0, "drop")
      // 8-byte TLV: type=kTlvOpaque, len=6, payload "SRv6!\0"
      .st(BPF_B, R10, -8, net::kTlvOpaque)
      .st(BPF_B, R10, -7, 6)
      .st(BPF_B, R10, -6, 'S')
      .st(BPF_B, R10, -5, 'R')
      .st(BPF_B, R10, -4, 'v')
      .st(BPF_B, R10, -3, '6')
      .st(BPF_B, R10, -2, '!')
      .st(BPF_B, R10, -1, 0)
      // bpf_lwt_seg6_store_bytes(ctx, offset, tlv, 8)
      .mov64_reg(R1, R6)
      .mov64_reg(R2, R9)
      .mov64_reg(R3, R10)
      .add64_imm(R3, -8)
      .mov64_imm(R4, 8)
      .call(helper::LWT_SEG6_STORE_BYTES)
      .jne_imm(R0, 0, "drop")
      .mov32_imm(R0, static_cast<std::int32_t>(BPF_OK))
      .exit_()
      .label("drop")
      .mov32_imm(R0, static_cast<std::int32_t>(BPF_DROP))
      .exit_();
  return {a.build(), 60, "Add TLV (BPF)"};
}

// ---- §4.1: transit encap with DM TLV ---------------------------------------------
// Runs for every packet on the monitored route; every `ratio`-th packet is
// encapsulated with SRH{[End.DM SID, final segment], DM TLV(tx=now),
// controller TLV}. State lives in an array map (DmEncapConfig).
BuiltProgram build_dm_encap(std::uint32_t cfg_map_id) {
  Asm a;
  a.mov64_reg(R6, R1)
      .st(BPF_W, R10, -4, 0)  // key = 0
      .ld_map(R1, cfg_map_id)
      .mov64_reg(R2, R10)
      .add64_imm(R2, -4)
      .call(helper::MAP_LOOKUP_ELEM)
      .jeq_imm(R0, 0, "pass")
      .mov64_reg(R7, R0)        // config pointer
      .ldx(BPF_DW, R1, R7, 0)   // counter
      .mov64_reg(R2, R1)
      .add64_imm(R2, 1)
      .stx(BPF_DW, R7, R2, 0)
      .ldx(BPF_DW, R3, R7, 8)   // ratio
      .jeq_imm(R3, 0, "pass")
      .mod64_reg(R1, R3)
      .jne_imm(R1, 0, "pass")
      // ---- probe turn: build the 80-byte SRH at fp-80 ----
      .st(BPF_B, R10, -80, net::kProtoIpv6)  // next header (inner IPv6)
      .st(BPF_B, R10, -79, 9)                // hdr_ext_len: (80/8)-1
      .st(BPF_B, R10, -78, net::kSrhRoutingType)
      .st(BPF_B, R10, -77, 1)                // segments_left
      .st(BPF_B, R10, -76, 1)                // last_entry
      .st(BPF_B, R10, -75, 0)                // flags
      .st(BPF_H, R10, -74, 0)                // tag
      // segment[0] = final segment (slot order is reversed travel order)
      .ldx(BPF_DW, R1, R7, 32)
      .stx(BPF_DW, R10, R1, -72)
      .ldx(BPF_DW, R1, R7, 40)
      .stx(BPF_DW, R10, R1, -64)
      // segment[1] = End.DM SID (the first hop of the probe)
      .ldx(BPF_DW, R1, R7, 16)
      .stx(BPF_DW, R10, R1, -56)
      .ldx(BPF_DW, R1, R7, 24)
      .stx(BPF_DW, R10, R1, -48)
      // DM TLV: type, len=18, flags=0 (one-way), reserved
      .st(BPF_B, R10, -40, net::kTlvDelayMeasurement)
      .st(BPF_B, R10, -39, 18)
      .st(BPF_B, R10, -38, 0)
      .st(BPF_B, R10, -37, 0)
      .call(helper::KTIME_GET_NS)  // TX timestamp ("generic helper", §4.1)
      .to_be(R0, 64)
      .stx(BPF_DW, R10, R0, -36)
      .st(BPF_DW, R10, -28, 0)     // RX slot (filled by TWD endpoints)
      // Controller TLV: type, len=18, addr, port
      .st(BPF_B, R10, -20, net::kTlvController)
      .st(BPF_B, R10, -19, 18)
      .ldx(BPF_DW, R1, R7, 48)
      .stx(BPF_DW, R10, R1, -18)
      .ldx(BPF_DW, R1, R7, 56)
      .stx(BPF_DW, R10, R1, -10)
      .ldx(BPF_H, R1, R7, 64)
      .to_be(R1, 16)
      .stx(BPF_H, R10, R1, -2)
      // bpf_lwt_push_encap(ctx, BPF_LWT_ENCAP_SEG6, srh, 80)
      .mov64_reg(R1, R6)
      .mov64_imm(R2, static_cast<std::int32_t>(seg6::BPF_LWT_ENCAP_SEG6))
      .mov64_reg(R3, R10)
      .add64_imm(R3, -80)
      .mov64_imm(R4, 80)
      .call(helper::LWT_PUSH_ENCAP)
      .label("pass")
      .mov32_imm(R0, static_cast<std::int32_t>(BPF_OK))
      .exit_();
  return {a.build(), 130, "DM transit encap (BPF)"};
}

// ---- §4.1: End.DM (one-way delay) --------------------------------------------------
BuiltProgram build_end_dm(std::uint32_t perf_map_id) {
  Asm a;
  a.mov64_reg(R6, R1)
      .ldx(BPF_DW, R7, R6, 0)
      .ldx(BPF_DW, R8, R6, 8)
      .mov64_reg(R1, R7)
      .add64_imm(R1, kOwdHeaderBytes)
      .jgt_reg(R1, R8, "drop")
      .ldx(BPF_B, R2, R7, kOwdDmTlvOff)
      .jne_imm(R2, net::kTlvDelayMeasurement, "drop")
      .ldx(BPF_B, R2, R7, kOwdCtrlTlvOff)
      .jne_imm(R2, net::kTlvController, "drop")
      // DmEvent at fp-40: {tx, rx, ctrl_addr, ctrl_port, pad}
      .ldx(BPF_DW, R2, R7, kOwdDmTxOff)
      .to_be(R2, 64)
      .stx(BPF_DW, R10, R2, -40)
      .ldx(BPF_DW, R2, R6, 32)  // ctx->tstamp: the RX software timestamp
      .stx(BPF_DW, R10, R2, -32)
      .ldx(BPF_DW, R2, R7, kOwdCtrlAddrOff)
      .stx(BPF_DW, R10, R2, -24)
      .ldx(BPF_DW, R2, R7, kOwdCtrlAddrOff + 8)
      .stx(BPF_DW, R10, R2, -16)
      .ldx(BPF_H, R2, R7, kOwdCtrlPortOff)
      .to_be(R2, 16)
      .stx(BPF_H, R10, R2, -8)
      .st(BPF_H, R10, -6, 0)
      .st(BPF_W, R10, -4, 0)
      // perf_event_output(ctx, perf_map, 0, event, 40) — "an eBPF program is
      // not capable of sending out-of-band replies" (§4.1)
      .mov64_reg(R1, R6)
      .ld_map(R2, perf_map_id)
      .mov64_imm(R3, 0)
      .mov64_reg(R4, R10)
      .add64_imm(R4, -40)
      .mov64_imm(R5, 40)
      .call(helper::PERF_EVENT_OUTPUT)
      // decapsulate: bpf_lwt_seg6_action(End.DT6, table=0)
      .st(BPF_W, R10, -44, 0)
      .mov64_reg(R1, R6)
      .mov64_imm(R2, kActEndDT6)
      .mov64_reg(R3, R10)
      .add64_imm(R3, -44)
      .mov64_imm(R4, 4)
      .call(helper::LWT_SEG6_ACTION)
      .jne_imm(R0, 0, "drop")
      .mov32_imm(R0, static_cast<std::int32_t>(BPF_REDIRECT))
      .exit_()
      .label("drop")
      .mov32_imm(R0, static_cast<std::int32_t>(BPF_DROP))
      .exit_();
  return {a.build(), 100, "End.DM (BPF)"};
}

// ---- §4.2: End.DM two-way variant ---------------------------------------------------
// Writes the local RX timestamp into the probe's DM TLV in place and lets the
// probe continue to its last segment (the querier).
BuiltProgram build_end_dm_twd() {
  Asm a;
  a.mov64_reg(R6, R1)
      .ldx(BPF_DW, R7, R6, 0)
      .ldx(BPF_DW, R8, R6, 8)
      .mov64_reg(R1, R7)
      .add64_imm(R1, kTwdHeaderBytes)
      .jgt_reg(R1, R8, "drop")
      .ldx(BPF_B, R2, R7, kTwdDmTlvOff)
      .jne_imm(R2, net::kTlvDelayMeasurement, "drop")
      .ldx(BPF_DW, R2, R6, 32)  // RX software timestamp
      .to_be(R2, 64)
      .stx(BPF_DW, R10, R2, -8)
      .mov64_reg(R1, R6)
      .mov64_imm(R2, kTwdDmRxOff)
      .mov64_reg(R3, R10)
      .add64_imm(R3, -8)
      .mov64_imm(R4, 8)
      .call(helper::LWT_SEG6_STORE_BYTES)
      .jne_imm(R0, 0, "drop")
      .mov32_imm(R0, static_cast<std::int32_t>(BPF_OK))
      .exit_()
      .label("drop")
      .mov32_imm(R0, static_cast<std::int32_t>(BPF_DROP))
      .exit_();
  return {a.build(), 70, "End.DM-TWD (BPF)"};
}

// ---- §4.2: per-packet Weighted Round-Robin ---------------------------------------------
BuiltProgram build_wrr(std::uint32_t cfg_map_id) {
  Asm a;
  a.mov64_reg(R6, R1)
      .st(BPF_W, R10, -4, 0)
      .ld_map(R1, cfg_map_id)
      .mov64_reg(R2, R10)
      .add64_imm(R2, -4)
      .call(helper::MAP_LOOKUP_ELEM)
      .jeq_imm(R0, 0, "pass")
      .mov64_reg(R7, R0)
      .ldx(BPF_DW, R1, R7, 0)   // counter (scheduler state, kept in the map)
      .mov64_reg(R2, R1)
      .add64_imm(R2, 1)
      .stx(BPF_DW, R7, R2, 0)
      .ldx(BPF_DW, R3, R7, 8)   // weight1
      .ldx(BPF_DW, R4, R7, 16)  // weight2
      .mov64_reg(R5, R3)
      .add64_reg(R5, R4)
      .jeq_imm(R5, 0, "pass")
      .mod64_reg(R1, R5)        // slot = counter % (w1 + w2)
      .mov64_imm(R2, 24)        // offsetof(WrrConfig, sid1)
      .jlt_reg(R1, R3, "chosen")
      .mov64_imm(R2, 40)        // offsetof(WrrConfig, sid2)
      .label("chosen")
      .mov64_reg(R8, R7)
      .add64_reg(R8, R2)
      .ldx(BPF_DW, R1, R8, 0)   // copy the chosen SID to the stack SRH
      .stx(BPF_DW, R10, R1, -16)
      .ldx(BPF_DW, R1, R8, 8)
      .stx(BPF_DW, R10, R1, -8)
      // single-segment SRH (24 bytes) at fp-24
      .st(BPF_B, R10, -24, net::kProtoIpv6)
      .st(BPF_B, R10, -23, 2)   // hdr_ext_len: (24/8)-1
      .st(BPF_B, R10, -22, net::kSrhRoutingType)
      .st(BPF_B, R10, -21, 0)   // segments_left
      .st(BPF_B, R10, -20, 0)   // last_entry
      .st(BPF_B, R10, -19, 0)
      .st(BPF_H, R10, -18, 0)
      .mov64_reg(R1, R6)
      .mov64_imm(R2, static_cast<std::int32_t>(seg6::BPF_LWT_ENCAP_SEG6))
      .mov64_reg(R3, R10)
      .add64_imm(R3, -24)
      .mov64_imm(R4, 24)
      .call(helper::LWT_PUSH_ENCAP)
      .label("pass")
      .mov32_imm(R0, static_cast<std::int32_t>(BPF_OK))
      .exit_();
  return {a.build(), 120, "WRR scheduler (BPF)"};
}

// ---- §4.3: End.OAMP -----------------------------------------------------------------------
BuiltProgram build_end_oamp(std::uint32_t perf_map_id) {
  Asm a;
  a.mov64_reg(R6, R1)
      .ldx(BPF_DW, R7, R6, 0)
      .ldx(BPF_DW, R8, R6, 8)
      .mov64_reg(R1, R7)
      .add64_imm(R1, kOampHeaderBytes)
      .jgt_reg(R1, R8, "drop")
      .ldx(BPF_B, R2, R7, kOampReplyTlvOff)
      .jne_imm(R2, net::kTlvOamReplyTo, "drop")
      // queried target = final segment of the probe -> fp-168
      .ldx(BPF_DW, R2, R7, kOampTargetSegOff)
      .stx(BPF_DW, R10, R2, -168)
      .ldx(BPF_DW, R2, R7, kOampTargetSegOff + 8)
      .stx(BPF_DW, R10, R2, -160)
      // OampEvent at fp-152: reply addr/port first
      .ldx(BPF_DW, R2, R7, kOampReplyAddrOff)
      .stx(BPF_DW, R10, R2, -152)
      .ldx(BPF_DW, R2, R7, kOampReplyAddrOff + 8)
      .stx(BPF_DW, R10, R2, -144)
      .ldx(BPF_H, R2, R7, kOampReplyPortOff)
      .to_be(R2, 16)
      .stx(BPF_H, R10, R2, -136)
      .st(BPF_H, R10, -134, 0)
      // bpf_fib_ecmp_nexthops(ctx, &target, 16, event.nexthops, 128)
      .mov64_reg(R1, R6)
      .mov64_reg(R2, R10)
      .add64_imm(R2, -168)
      .mov64_imm(R3, 16)
      .mov64_reg(R4, R10)
      .add64_imm(R4, -128)
      .mov64_imm(R5, 128)
      .call(helper::FIB_ECMP_NEXTHOPS)
      .stx(BPF_W, R10, R0, -132)  // nexthop_count
      .mov64_reg(R1, R6)
      .ld_map(R2, perf_map_id)
      .mov64_imm(R3, 0)
      .mov64_reg(R4, R10)
      .add64_imm(R4, -152)
      .mov64_imm(R5, 152)
      .call(helper::PERF_EVENT_OUTPUT)
      .label("drop")  // probe consumed either way; the daemon answers
      .mov32_imm(R0, static_cast<std::int32_t>(BPF_DROP))
      .exit_();
  return {a.build(), 60, "End.OAMP (BPF)"};
}

// ---- Multi-core: per-CPU packet counter -------------------------------------
// The minimal program the multi-core Node model needs for race-free
// telemetry: bump this CPU's slot of a PERCPU_ARRAY counter and stamp the
// servicing context id into skb->mark. With a plain ARRAY map N contexts
// would interleave read-modify-write on one cell; the per-CPU slot makes the
// increment private, exactly why BPF_MAP_TYPE_PERCPU_* exists.
BuiltProgram build_percpu_counter(std::uint32_t cnt_map_id) {
  Asm a;
  a.mov64_reg(R6, R1)
      .call(helper::GET_SMP_PROCESSOR_ID)
      .stx(BPF_W, R6, R0, ebpf::skb_off::kMark)  // mark = cpu context id
      .st(BPF_W, R10, -4, 0)                     // key 0
      .ld_map(R1, cnt_map_id)
      .mov64_reg(R2, R10)
      .add64_imm(R2, -4)
      .call(helper::MAP_LOOKUP_ELEM)             // this CPU's u64 slot
      .jeq_imm(R0, 0, "out")
      .ldx(BPF_DW, R1, R0, 0)
      .add64_imm(R1, 1)
      .stx(BPF_DW, R0, R1, 0)
      .label("out")
      .mov32_imm(R0, static_cast<std::int32_t>(BPF_OK))
      .exit_();
  return {a.build(), 15, "per-CPU counter (BPF)"};
}

// ---- Loading and binding -------------------------------------------------------

ProgHandle load_or_throw(BpfSystem& bpf, const BuiltProgram& built,
                         ProgType type) {
  auto load = bpf.load(built.name, type, built.insns, built.paper_sloc);
  if (!load.ok())
    throw std::runtime_error(std::string(built.name) +
                             " rejected: " + load.verify.error);
  return load.prog;
}

void bind_end_bpf(seg6::Netns& ns, const net::Ipv6Addr& sid,
                  const ProgHandle& prog) {
  seg6::Seg6LocalEntry e;
  e.action = seg6::Seg6Action::kEndBPF;
  e.prog = prog;
  ns.seg6local().add(sid, e);
}

}  // namespace srv6bpf::usecases
