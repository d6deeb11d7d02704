// The JIT: verified eBPF to native machine code.
//
// The kernel translates verified eBPF to native machine code; the performance
// characteristics that matter for the paper's §3.2 experiment are (a) no
// per-step instruction decoding and (b) no per-access runtime bounds checks
// (the verifier proved them). The native backend (ebpf/jit_x86.h) emits real
// x86-64 machine code in W^X pages, the faithful bpf_jit_comp analogue. When
// it cannot (non-x86-64 host, or executable pages refused) the program runs
// on the pre-decoded interpreter instead, as Linux does without
// CONFIG_BPF_JIT_ALWAYS_ON (see ebpf/vm.h).
//
// The interpreter runs the same decoded form with memory bounds checks, and
// the legacy baseline interpreter re-decodes every step. The throughput ratio
// between the engines is the repository's analogue of the paper's
// JIT-vs-interpreter factor (reported by bench_vm_micro).
//
// Only verified programs may be compiled: native code trades runtime checks
// for the verifier's static proof, exactly like the kernel JIT.
#pragma once

#include <memory>

#include "ebpf/decode.h"
#include "ebpf/helpers.h"
#include "ebpf/jit_x86.h"
#include "ebpf/program.h"

namespace srv6bpf::ebpf {

// A verified program's decode-once form and, when the host supports it, the
// emitted machine code. The decoded program is cached here beside the JIT
// output so the pre-decoded interpreter path shares it without
// re-translating.
class CompiledProgram {
 public:
  explicit CompiledProgram(std::shared_ptr<const DecodedProgram> decoded,
                           std::shared_ptr<const NativeCode> native = nullptr)
      : decoded_(std::move(decoded)), native_(std::move(native)) {}

  bool has_native() const noexcept { return native_ != nullptr; }
  // Raw pointer for hot dispatch paths: resolving the engine and the code
  // object once per run (or per burst) instead of re-chasing the shared_ptr
  // at every layer is worth ~30% on the shortest programs.
  const NativeCode* native() const noexcept { return native_.get(); }
  std::size_t native_code_size() const noexcept {
    return native_ ? native_->code_size() : 0;
  }

  const DecodedProgram& decoded() const noexcept { return *decoded_; }
  std::size_t op_count() const noexcept { return decoded_->size(); }

 private:
  std::shared_ptr<const DecodedProgram> decoded_;
  std::shared_ptr<const NativeCode> native_;
};

class Jit {
 public:
  explicit Jit(const HelperRegistry* helpers) : helpers_(helpers) {}

  // True when this build and host can emit and run native machine code
  // (x86-64 with W^X mmap support); false means compile() still succeeds but
  // produces only the decoded form, which the interpreter runs.
  static bool available() noexcept { return native_jit_available(); }

  // Translates a *verified* program: decode once, then attempt native
  // emission. Throws std::logic_error if the program has not passed
  // verification (mirrors the kernel: the JIT runs after the verifier, never
  // instead of it).
  std::shared_ptr<const CompiledProgram> compile(const Program& prog) const;

 private:
  const HelperRegistry* helpers_;
};

}  // namespace srv6bpf::ebpf
