// Per-packet CPU cost model.
//
// The paper's throughput figures (Figs. 2 and 3) are CPU-bound: one core of a
// Xeon X3440 forwards 64-byte UDP/SRv6 packets at 610 kpps and every piece of
// extra work (seg6local behaviours, eBPF execution, helpers) shaves packets
// off that rate. We reproduce the *shape* of those results by charging each
// packet a deterministic cost assembled from the ProcessTrace the forwarding
// pipeline records — crucially, the eBPF component is
//   executed_instructions x per-instruction-cost(engine)
// with the instruction counts coming from actually running the programs, so
// program complexity (End's 3 insns vs Add-TLV's ~100) drives the figures.
//
// Calibration anchors (bench/paper.h holds the resulting shapes against the
// paper's, in bench_paper and tests/paper_test.cc):
//   * kXeonForwardNs   = 1/610kpps — the paper's §3.2 baseline;
//   * kInterpInsnNs    — chosen so disabling the JIT divides Add-TLV
//     throughput by ~1.8 (§3.2) given Add-TLV's real instruction count;
//   * CPE constants    — chosen so the Fig. 4 goodput curves are CPU-bound
//     at small payloads and line-limited at 1400 bytes, with the kernel
//     decap ~10% more expensive than plain forwarding.
#pragma once

#include <cstdint>

#include "seg6/ctx.h"

namespace srv6bpf::sim {

// Default NAPI-style drain budget per CPU service event (Node::Cpu::rx_burst).
// A simulator-efficiency knob: per-packet charged cost, delivery counts,
// traces and final stats are identical for every burst size (the burst
// differential test enforces this); downstream event timing may shift by up
// to one burst's wire-serialization time (delivery coalescing).
inline constexpr std::size_t kDefaultRxBurst = 32;

struct CpuProfile {
  // Base cost of receiving + routing + transmitting one packet.
  std::uint64_t forward_ns;
  // One static seg6local behaviour execution (SRH validation + advance +
  // rewrite); End.BPF pays this too, for its endpoint part.
  std::uint64_t seg6_op_ns;
  // Extra cost of a FIB lookup beyond the one in forward_ns.
  std::uint64_t fib_lookup_ns;
  // Fixed cost of entering/leaving an eBPF program (ctx setup, call).
  std::uint64_t bpf_entry_ns;
  // Per-executed-instruction cost for each engine.
  double jit_insn_ns;
  double interp_insn_ns;
  // Per helper call (kernel function call + arg marshalling).
  std::uint64_t helper_call_ns;
  // Encapsulation / decapsulation work (header push/pull, memmove).
  std::uint64_t encap_ns;
  std::uint64_t decap_ns;
};

// The paper's lab servers (Intel Xeon X3440, IRQs pinned to one core).
// 610 kpps raw IPv6 forwarding -> 1639 ns/packet.
inline constexpr CpuProfile kXeonProfile{
    .forward_ns = 1639,
    .seg6_op_ns = 210,
    .fib_lookup_ns = 45,
    .bpf_entry_ns = 48,
    .jit_insn_ns = 1.4,
    .interp_insn_ns = 48.0,
    .helper_call_ns = 26,
    .encap_ns = 180,
    .decap_ns = 150,
};

// The Turris Omnia CPE (1.6 GHz dual-core ARMv7, OpenWRT). Slower per packet
// across the board; the eBPF JIT is unavailable (ARM32 JIT bug, §4.2), which
// the hybrid-access benchmarks model by forcing the interpreter.
// The eBPF-path constants are deliberately heavy: the paper observes that
// "the eBPF interpreter, which heavily consumes CPU resources, is the
// bottleneck" on this box — 64-bit interpretation on a 32-bit in-order core
// costs an order of magnitude more per instruction than on the Xeon, and
// helper calls/encap pay for unaligned accesses and small caches. They are
// calibrated so the Figure-4 WRR curve stays CPU-bound until the 1 Gbps line
// takes over at 1400-byte payloads, as in the paper.
inline constexpr CpuProfile kTurrisProfile{
    .forward_ns = 2500,
    .seg6_op_ns = 600,
    .fib_lookup_ns = 120,
    .bpf_entry_ns = 800,
    .jit_insn_ns = 15.0,   // a working ARM32 JIT (projected; the CPE runs
                           // with the JIT off, as in the paper)
    .interp_insn_ns = 150.0,
    .helper_call_ns = 700,
    .encap_ns = 1500,
    .decap_ns = 250,
};

// Total CPU time to charge for one packet given what processing it received.
inline std::uint64_t packet_cost_ns(const CpuProfile& p,
                                    const seg6::ProcessTrace& t) {
  double cost = static_cast<double>(p.forward_ns);
  cost += static_cast<double>(t.seg6local_ops) * p.seg6_op_ns;
  cost += static_cast<double>(t.fib_lookups) * p.fib_lookup_ns;
  cost += static_cast<double>(t.bpf_runs) * p.bpf_entry_ns;
  cost += static_cast<double>(t.bpf_insns_jit) * p.jit_insn_ns;
  cost += static_cast<double>(t.bpf_insns_interp) * p.interp_insn_ns;
  cost += static_cast<double>(t.helper_calls) * p.helper_call_ns;
  cost += static_cast<double>(t.encaps) * p.encap_ns;
  cost += static_cast<double>(t.decaps) * p.decap_ns;
  return static_cast<std::uint64_t>(cost);
}

}  // namespace srv6bpf::sim
