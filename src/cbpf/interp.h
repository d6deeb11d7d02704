// Reference interpreter for classic BPF — the oracle the translator
// differential test compares against.
//
// Semantics notes (all matched by the cBPF→eBPF translation so that the
// oracle and both eBPF engines stay bit-identical):
//   * A, X and M[] are unsigned 32-bit; M[] starts zeroed (the translator
//     zero-fills the referenced scratch slots in its prologue, which also
//     satisfies the eBPF verifier's no-read-before-write stack rule).
//   * A packet load whose range falls outside the packet terminates the
//     filter with return 0, exactly like the kernel's ___bpf_prog_run
//     LD_ABS/LD_IND error path.
//   * Division or modulo by a zero X terminates the filter with return 0
//     (the translator emits an explicit guard; constant zero divisors are
//     rejected statically by check()).
//   * Shift counts are masked to 5 bits, the eBPF ALU32 semantics that the
//     kernel's conversion imposes on classic filters since 3.15.
//   * ABS/IND word and halfword loads are big-endian (network order).
//
// Validated programs only jump forward, so execution always terminates in at
// most prog.size() steps; run() assumes check() passed.
#pragma once

#include <cstddef>
#include <cstdint>

#include "cbpf/insn.h"

namespace srv6bpf::cbpf {

// Runs `prog` over the packet bytes; returns the accept length (0 = drop).
std::uint32_t run(const std::vector<SockFilter>& prog, const std::uint8_t* pkt,
                  std::size_t pkt_len);

}  // namespace srv6bpf::cbpf
