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
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ebpf/exec.h"
#include "ebpf/helpers.h"
#include "ebpf/interp.h"
#include "ebpf/jit.h"
#include "ebpf/map.h"
#include "ebpf/program.h"
#include "ebpf/verifier.h"

namespace srv6bpf::ebpf {

// Which execution engine runs a program:
//   kNative         — emitted x86-64 machine code (ebpf/jit_x86.h); the
//                     default, bpf_jit_enable = 1;
//   kInterp         — pre-decoded checked interpreter (bpf_jit_enable = 0);
//   kInterpBaseline — legacy decode-every-step interpreter, kept as the
//                     reference point the §3.2 benches compare against.
// A program selected onto kNative that has no emitted code (non-x86-64
// host, or W^X pages refused) runs on kInterp instead, as Linux does without
// CONFIG_BPF_JIT_ALWAYS_ON. Simulated cost still follows the selection
// (BpfSystem::jit_enabled), so the datapath numbers do not depend on the host.
enum class EngineKind { kNative, kInterp, kInterpBaseline };

constexpr const char* engine_name(EngineKind e) noexcept {
  switch (e) {
    case EngineKind::kNative: return "native";
    case EngineKind::kInterp: return "interp";
    case EngineKind::kInterpBaseline: return "interp-baseline";
  }
  return "?";
}

// A verified, loaded program plus its compiled form.
class LoadedProgram {
 public:
  LoadedProgram(Program prog, std::shared_ptr<const CompiledProgram> compiled,
                EngineKind engine)
      : prog_(std::move(prog)),
        compiled_(std::move(compiled)),
        engine_(engine) {}

  const Program& program() const noexcept { return prog_; }
  const std::string& name() const noexcept { return prog_.name(); }
  ProgType type() const noexcept { return prog_.type(); }
  const CompiledProgram& compiled() const noexcept { return *compiled_; }

  // The engine this program resolved to at load time: the system's selected
  // engine with kNative falling back to kInterp when no machine code could
  // be emitted. Purely observational — run() re-resolves against the
  // system's *current* selection so benches can flip engines after load.
  EngineKind engine() const noexcept { return engine_; }

 private:
  Program prog_;
  std::shared_ptr<const CompiledProgram> compiled_;
  EngineKind engine_;
};

using ProgHandle = std::shared_ptr<LoadedProgram>;

class BpfSystem {
 public:
  BpfSystem() { register_generic_helpers(helpers_); }

  MapRegistry& maps() noexcept { return maps_; }
  const MapRegistry& maps() const noexcept { return maps_; }
  HelperRegistry& helpers() noexcept { return helpers_; }

  // bpf_jit_enable. Default on, as in the paper's main experiments: native
  // machine code where the host supports it, the interpreter otherwise.
  // The datapath bills instruction counts by this switch.
  void set_jit_enabled(bool on) noexcept {
    engine_ = on ? EngineKind::kNative : EngineKind::kInterp;
  }
  bool jit_enabled() const noexcept { return engine_ == EngineKind::kNative; }

  // Finer-grained engine choice (benchmarks use the baseline interpreter to
  // quantify what decode-once dispatch buys).
  void set_engine(EngineKind e) noexcept { engine_ = e; }
  EngineKind engine() const noexcept { return engine_; }

  // The engine a program actually runs on under the current selection:
  // kNative falls back to kInterp when no machine code was emitted for it.
  EngineKind engine_for(const CompiledProgram& c) const noexcept {
    return engine_ == EngineKind::kNative && !c.has_native()
               ? EngineKind::kInterp
               : engine_;
  }
  EngineKind engine_for(const LoadedProgram& prog) const noexcept {
    return engine_for(prog.compiled());
  }

  struct LoadResult {
    ProgHandle prog;  // null on verification failure
    VerifyResult verify;
    bool ok() const noexcept { return prog != nullptr; }
  };

  // Verify + compile. On verifier rejection returns a null handle and the
  // verifier diagnostics.
  LoadResult load(std::string name, ProgType type, std::vector<Insn> insns,
                  std::size_t sloc_hint = 0);

  // Runs a loaded program with the node's registries wired into `env`,
  // on the engine selected via set_engine / set_jit_enabled. The one
  // engine dispatch: every attachment point runs its programs through here.
  ExecResult run(const LoadedProgram& prog, ExecEnv& env,
                 std::uint64_t ctx) const;

 private:
  // With the SRV6BPF_LOG_LOADS environment variable set (and not "0"), each
  // successful load logs one line to stderr: program name, op count,
  // resolved engine, emitted-code size.
  static bool log_loads_default() noexcept;

  MapRegistry maps_;
  HelperRegistry helpers_;
  Interpreter interp_;
  EngineKind engine_ = EngineKind::kNative;
  bool log_loads_ = log_loads_default();
};

}  // namespace srv6bpf::ebpf
