// cBPF → eBPF translation, modeled on the kernel's bpf_convert_filter().
//
// The emitted program is ordinary eBPF: it passes the existing verifier with
// ProgType::kSocketFilter and runs unmodified on both engines. Register
// mapping follows the kernel's convention:
//
//   R6 = skb context (saved from R1 in the prologue)
//   R7 = A (accumulator)        R8 = X (index register)
//   M[k] lives on the stack at fp[-64 + 4k]; fp[-72] is an 8-byte scratch
//   buffer for bpf_skb_load_bytes results.
//
// Lowering of the legacy packet-access modes:
//   * BPF_ABS and BPF_MSH with a small constant offset become the
//     canonical verifier bounds-check pattern (data + k + size > data_end
//     -> drop) followed by a direct load and a BPF_END byte-swap to network
//     order.
//   * BPF_IND, and BPF_ABS and BPF_MSH whose k + size (computed without
//     32-bit wraparound) passes 0x7fff, call bpf_skb_load_bytes — the
//     verifier cannot prove direct loads at runtime-computed offsets, which
//     is exactly why the kernel converts them to the helper too.
//   * Division/modulo by X emits an explicit zero guard that jumps to the
//     shared drop epilogue (classic semantics: the filter returns 0).
//
// Classic jumps are forward-only, so the translated program remains a DAG
// and the pre-5.3 no-back-edges verifier rule holds by construction. The
// program is emitted through ebpf::Asm: each classic instruction a jump
// targets, and the drop epilogue, is a label, and Asm::build() resolves
// every jump.
#pragma once

#include <string>
#include <vector>

#include "cbpf/insn.h"
#include "ebpf/insn.h"

namespace srv6bpf::cbpf {

struct TranslateResult {
  bool ok = false;
  std::string error;             // empty on success
  std::vector<ebpf::Insn> insns; // the eBPF program (empty on failure)
};

// Validates `prog` (check()) and lowers it to eBPF. The result loads as
// ProgType::kSocketFilter against a SkbCtx whose data/data_end cover the
// packet; R0 on exit is the classic accept length (0 = drop).
TranslateResult translate(const std::vector<SockFilter>& prog);

}  // namespace srv6bpf::cbpf
