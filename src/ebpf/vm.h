// BpfSystem: the per-node "kernel BPF subsystem" facade.
//
// Owns the map registry, the helper registry and the execution engines, and
// enforces the kernel's invariant chain: programs are verified at load time,
// JIT-compiled if verification succeeded, and only then attachable to hooks.
// A node-wide JIT switch mirrors /proc/sys/net/core/bpf_jit_enable, which the
// paper toggles for its §3.2 JIT experiment (and which is forced off on the
// Turris Omnia CPE in §4.2 because of the ARM32 JIT bug).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ebpf/exec.h"
#include "ebpf/helpers.h"
#include "ebpf/interp.h"
#include "ebpf/jit_x86.h"
#include "ebpf/map.h"
#include "ebpf/program.h"
#include "ebpf/verifier.h"

namespace srv6bpf::ebpf {

// Which execution engine runs a program, the kernel's two:
//   kNative — emitted x86-64 machine code (ebpf/jit_x86.h); the default,
//             bpf_jit_enable = 1;
//   kInterp — the checked interpreter (ebpf/interp.h), bpf_jit_enable = 0.
// A program with no emitted code (non-x86-64 host, or W^X pages refused)
// runs on kInterp whatever the switch says, as Linux does without
// CONFIG_BPF_JIT_ALWAYS_ON. Simulated cost still follows the switch
// (BpfSystem::jit_enabled), so the datapath numbers do not depend on the host.
enum class EngineKind { kNative, kInterp };

constexpr const char* engine_name(EngineKind e) noexcept {
  switch (e) {
    case EngineKind::kNative: return "native";
    case EngineKind::kInterp: return "interp";
  }
  return "?";
}

// What a load produces, as the kernel's struct bpf_prog holds the
// instructions, the type and the image bpf_prog_select_runtime installs:
// the source program (the interpreter runs it) and, when the host could
// emit it, its native machine code.
class LoadedProgram {
 public:
  LoadedProgram(Program prog, std::unique_ptr<const NativeCode> native)
      : prog_(std::move(prog)), native_(std::move(native)) {}

  const Program& program() const noexcept { return prog_; }
  const std::string& name() const noexcept { return prog_.name(); }
  ProgType type() const noexcept { return prog_.type(); }
  // Null when no machine code was emitted (non-x86-64 host, or W^X pages
  // refused).
  const NativeCode* native() const noexcept { return native_.get(); }
  std::size_t native_code_size() const noexcept {
    return native_ ? native_->code_size() : 0;
  }

 private:
  Program prog_;
  std::unique_ptr<const NativeCode> native_;
};

using ProgHandle = std::shared_ptr<LoadedProgram>;

class BpfSystem {
 public:
  BpfSystem() { register_generic_helpers(helpers_); }

  MapRegistry& maps() noexcept { return maps_; }
  const MapRegistry& maps() const noexcept { return maps_; }
  HelperRegistry& helpers() noexcept { return helpers_; }

  // bpf_jit_enable, the one engine switch. Default on, as in the paper's
  // main experiments: native machine code where the host supports it, the
  // interpreter otherwise. The datapath bills instruction counts by this
  // switch.
  void set_jit_enabled(bool on) noexcept { jit_enabled_ = on; }
  bool jit_enabled() const noexcept { return jit_enabled_; }

  // The engine a program actually runs on under the current switch: the
  // JIT falls back to kInterp when no machine code was emitted for it.
  EngineKind engine_for(const LoadedProgram& prog) const noexcept {
    return jit_enabled_ && prog.native() != nullptr ? EngineKind::kNative
                                                    : EngineKind::kInterp;
  }

  struct LoadResult {
    ProgHandle prog;  // null on verification failure
    VerifyResult verify;
    bool ok() const noexcept { return prog != nullptr; }
  };

  // Verify, then decode and emit native code where the host can. On
  // verifier rejection returns a null handle and the verifier diagnostics.
  // Nothing reads the fourth parameter: it stays only because the
  // repository benchmark's workloads (benchmark/src/workloads.cc) pass a
  // program's paper SLOC count (BuiltProgram::paper_sloc) there.
  LoadResult load(std::string name, ProgType type, std::vector<Insn> insns,
                  std::size_t /*paper_sloc*/ = 0);

  // Runs a loaded program with the node's registries wired into `env`,
  // on engine_for(prog). The one engine dispatch: every attachment point
  // runs its programs through here.
  ExecResult run(const LoadedProgram& prog, ExecEnv& env,
                 std::uint64_t ctx) const;

 private:
  MapRegistry maps_;
  HelperRegistry helpers_;
  Interpreter interp_;
  bool jit_enabled_ = true;
};

}  // namespace srv6bpf::ebpf
