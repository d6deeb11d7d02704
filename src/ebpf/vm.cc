#include "ebpf/vm.h"

#include <cstdio>
#include <cstdlib>

namespace srv6bpf::ebpf {

bool BpfSystem::log_loads_default() noexcept {
  const char* v = std::getenv("SRV6BPF_LOG_LOADS");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

BpfSystem::LoadResult BpfSystem::load(std::string name, ProgType type,
                                      std::vector<Insn> insns,
                                      std::size_t sloc_hint) {
  Program prog(std::move(name), type, std::move(insns));
  prog.set_sloc_hint(sloc_hint);

  Verifier verifier(&maps_, &helpers_);
  LoadResult result;
  result.verify = verifier.verify(prog);
  if (!result.verify.ok) return result;

  prog.set_verified();
  // Decode once (jump targets, fused ld_imm64, resolved helpers), then emit
  // native machine code where the host supports it; the compiled form
  // carries the shared decoded program for every engine.
  Jit jit(&helpers_);
  auto compiled = jit.compile(prog);
  const EngineKind resolved = engine_for(*compiled);
  if (log_loads_) {
    std::fprintf(stderr, "bpf: loaded '%s' (%zu ops) engine=%s%s\n",
                 prog.name().c_str(), compiled->op_count(),
                 engine_name(resolved),
                 compiled->has_native()
                     ? (" native_code=" +
                        std::to_string(compiled->native_code_size()) + "B")
                           .c_str()
                     : "");
  }
  result.prog = std::make_shared<LoadedProgram>(std::move(prog),
                                                std::move(compiled), resolved);
  return result;
}

ExecResult BpfSystem::run(const LoadedProgram& prog, ExecEnv& env,
                          std::uint64_t ctx) const {
  // Hot path: resolve the compiled form and (for kNative) the code object
  // exactly once — every extra shared_ptr chase here is measurable on the
  // shortest §3.2 programs.
  if (env.maps == nullptr) env.maps = const_cast<MapRegistry*>(&maps_);
  if (env.helpers == nullptr)
    env.helpers = const_cast<HelperRegistry*>(&helpers_);
  const CompiledProgram& c = prog.compiled();
  switch (engine_for(c)) {
    case EngineKind::kNative:
      return c.native()->run(env, ctx);
    case EngineKind::kInterp:
      break;
    case EngineKind::kInterpBaseline:
      return interp_.run(prog.program(), env, ctx);
  }
  return interp_.run(c.decoded(), env, ctx);
}

}  // namespace srv6bpf::ebpf
