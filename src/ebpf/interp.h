// The eBPF interpreter: the checked execution engine, analogous to the
// kernel's ___bpf_prog_run().
//
// Two paths:
//   * run(DecodedProgram) — the hot path. Consumes the decode-once program
//     representation (ebpf/decode.h) with direct-threaded computed-goto
//     dispatch, a single-comparison stack fast path on every memory access,
//     and a step budget amortised over backward jumps and helper calls
//     instead of every instruction. This is what BpfSystem uses when the JIT
//     is disabled.
//   * run(Program) — the baseline engine, which re-decodes every instruction
//     on every step. It is kept (a) as the reference point the §3.2 benches
//     compare against and (b) because it safely executes *unverified*
//     instruction streams, which the decoded form does not accept.
//
// Both paths bounds-check every program memory access against the
// environment's region list; the native JIT (ebpf/jit_x86.h) compiles the
// same decoded form without checks, trusting the verifier.
#pragma once

#include "ebpf/decode.h"
#include "ebpf/exec.h"
#include "ebpf/program.h"

namespace srv6bpf::ebpf {

// Hard cap on executed instructions; the verifier guarantees termination but
// the interpreter must also be safe on unverified test inputs. The
// pre-decoded path checks the budget only at backward jumps and helper
// calls, so it may overshoot by at most one program length.
inline constexpr std::uint64_t kMaxInterpSteps = 1u << 22;

class Interpreter {
 public:
  // Hot path: executes a pre-decoded program (decode-once, threaded
  // dispatch, runtime memory checks). `ctx` is the address of the program
  // context (a SkbCtx for packet programs). The caller must have
  // populated env.regions with the ctx and packet ranges, as an SkbRun
  // (ebpf/skb.h) does.
  ExecResult run(const DecodedProgram& prog, ExecEnv& env,
                 std::uint64_t ctx) const;

  // Baseline path: decode-every-step reference engine; accepts unverified
  // instruction streams.
  ExecResult run(const Program& prog, ExecEnv& env, std::uint64_t ctx) const;
};

}  // namespace srv6bpf::ebpf
