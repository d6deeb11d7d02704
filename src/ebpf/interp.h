// The eBPF interpreter: the checked execution engine, analogous to the
// kernel's ___bpf_prog_run(). BpfSystem runs a program on it when the JIT is
// off (bpf_jit_enable = 0) or when no native code was emitted for it.
//
// It runs the program's own instruction stream, decoding each instruction
// as it executes it, and bounds-checks every program memory access against
// the environment's region list, so it also safely executes *unverified*
// instruction streams. The native JIT (ebpf/jit_x86.h) compiles the
// program's decoded form (ebpf/decode.h) without checks, trusting the
// verifier.
#pragma once

#include "ebpf/exec.h"
#include "ebpf/program.h"

namespace srv6bpf::ebpf {

// Hard cap on executed instructions; the verifier guarantees termination but
// the interpreter must also be safe on unverified test inputs.
inline constexpr std::uint64_t kMaxInterpSteps = 1u << 22;

class Interpreter {
 public:
  // Executes `prog`. `ctx` is the address of the program context (a SkbCtx
  // for packet programs). The caller must have populated env.regions with
  // the ctx and packet ranges, as an SkbRun (ebpf/skb.h) does.
  ExecResult run(const Program& prog, ExecEnv& env, std::uint64_t ctx) const;
};

}  // namespace srv6bpf::ebpf
