// Native x86-64 eBPF JIT backend: verified instructions -> machine code.
//
// This is the repository's analogue of the kernel's arch/x86/net/bpf_jit_comp:
// a verified program's own instruction array is translated, one switch on
// each instruction's class and op as in the kernel's do_jit, to real x86-64
// in an mmap'd W^X page pair (written RW, then flipped to RX before first
// run, and never writable again). BPF registers live in hardware registers
// with the kernel's mapping:
//
//     BPF r0 -> rax        BPF r5 -> r8
//     BPF r1 -> rdi        BPF r6 -> rbx   (callee-saved)
//     BPF r2 -> rsi        BPF r7 -> r13   (callee-saved)
//     BPF r3 -> rdx        BPF r8 -> r14   (callee-saved)
//     BPF r4 -> rcx        BPF r9 -> r15   (callee-saved)
//                          BPF r10 -> rbp  (frame pointer, read-only)
//
// ALU/ALU64/JMP/JMP32 and byte swaps are emitted directly (32-bit forms rely
// on x86-64's implicit zero-extension of 32-bit register writes, exactly the
// kernel-JIT trick); LD/LDX/ST/STX are plain loads and stores with the
// verifier's proof standing in for runtime bounds checks; helper calls are
// direct `call`s to the resolved HelperFn pointers (the C ABI matches: five
// argument registers shift down one slot to make room for the ExecEnv*).
// Division follows eBPF semantics (x/0 == 0, x%0 == x) via an inline zero
// test, and rcx/rax/rdx pressure from variable shifts and div is resolved
// with the two scratch registers the mapping leaves free (r10, r11).
//
// The emitted function also maintains the two observability counters the
// differential test compares bit-for-bit across engines: executed-op counts
// are accumulated in r12 and flushed per basic block (a single `add r12, k`
// per block, not per instruction), helper calls increment a frame slot.
//
// Engine selection: when native emission is unavailable (non-x86-64 build,
// or mmap/mprotect refusing W->X pages, e.g. under a hardened kernel), the
// program runs on the interpreter; see ebpf/vm.h.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "ebpf/exec.h"
#include "ebpf/helpers.h"
#include "ebpf/insn.h"

namespace srv6bpf::ebpf {

// Counter block updated by the emitted code; mirrors the ExecResult fields
// every engine must agree on.
struct NativeCounters {
  std::uint64_t insns = 0;
  std::uint64_t helper_calls = 0;
};

// One program's emitted machine code. Immutable and executable-only after
// construction; unmapped on destruction.
class NativeCode {
 public:
  // C ABI of the emitted entry point: (env, ctx, counters, bpf_stack_top).
  // The BPF stack lives in the *caller's* frame so the run() wrapper can
  // register it as a helper-visible memory region before entering native
  // code (the kernel needs no such registration; our helpers defend against
  // verifier bugs by validating their pointer arguments).
  using Entry = std::uint64_t (*)(ExecEnv*, std::uint64_t, NativeCounters*,
                                  std::uint8_t*);

  ~NativeCode();
  NativeCode(const NativeCode&) = delete;
  NativeCode& operator=(const NativeCode&) = delete;

  // Executes the emitted code. Unchecked by construction: the only code
  // there is to run was compiled by BpfSystem::load right after the
  // verifier accepted its program, and the verifier's proof stands in for
  // the checks. Defined inline: this is the per-packet hot path and the
  // wrapper around the emitted code must stay a handful of instructions.
  ExecResult run(ExecEnv& env, std::uint64_t ctx) const {
    // Not zero-filled: only verified programs compile, and the verifier
    // proves stack slots are written before read (kernel JIT frames are not
    // cleared either).
    alignas(16) std::uint8_t stack[kStackSize];
    NativeCounters counters;
    ExecResult res;
    if (has_calls_) {
      // The BPF stack must be visible to helpers (they validate their memory
      // arguments against env.regions) for the duration of the run; programs
      // without helper calls skip the registration — nothing reads it.
      const std::size_t base = env.regions.size();
      env.regions.push_back(MemRegion{
          reinterpret_cast<std::uintptr_t>(stack), kStackSize, true});
      res.ret = entry_(&env, ctx, &counters, stack + kStackSize);
      env.regions.resize(base);
    } else {
      res.ret = entry_(&env, ctx, &counters, stack + kStackSize);
    }
    res.insns_executed = counters.insns;
    res.helper_calls = counters.helper_calls;
    return res;
  }

  // Bytes of emitted machine code (the mapping is rounded up to pages).
  std::size_t code_size() const noexcept { return code_size_; }

 private:
  friend std::unique_ptr<const NativeCode> compile_native(
      const std::vector<Insn>&, const HelperRegistry&);
  NativeCode() = default;

  void* pages_ = nullptr;       // mmap'd, PROT_READ|PROT_EXEC after emit
  std::size_t map_len_ = 0;     // page-rounded mapping length
  std::size_t code_size_ = 0;   // actual emitted bytes
  Entry entry_ = nullptr;
  // Only helpers consult env.regions; programs without calls skip the
  // per-run stack-region registration entirely (decided at compile time).
  bool has_calls_ = false;
};

// True when this build and host can emit and execute native code: x86-64,
// and a one-shot probe confirming an anonymous mapping accepts the
// RW -> RX mprotect flip (cached after the first call).
bool native_jit_available() noexcept;

// Translates a program's instructions into executable machine code with no
// runtime checks; call sites resolve to the helpers registered in `helpers`.
// Only verified programs get native code, as in the kernel, where the JIT
// runs after the verifier and never instead of it: the verifier vouches for
// every instruction's encoding, reachable or not, and for every jump target.
// The guard is the call order: BpfSystem::load is the only production
// caller, and calls it right after the verifier accepted the program, with
// the verifier's helper registry. Returns null where native_jit_available()
// is false or mmap/mprotect fails; the program then runs on the interpreter.
std::unique_ptr<const NativeCode> compile_native(
    const std::vector<Insn>& insns, const HelperRegistry& helpers);

}  // namespace srv6bpf::ebpf
