#include "ebpf/vm.h"

namespace srv6bpf::ebpf {

BpfSystem::LoadResult BpfSystem::load(std::string name, ProgType type,
                                      std::vector<Insn> insns, std::size_t) {
  LoadResult result;
  result.verify = Verifier(&maps_, &helpers_).verify(insns, type);
  if (!result.verify.ok) return result;

  // No state check ran on an instruction exploration never reached: like
  // the kernel's sanitize_dead_code, it is stored and compiled as `ja -1`.
  for (std::size_t i = 0; i < insns.size(); ++i)
    if (!result.verify.reached[i]) insns[i] = {BPF_JMP | BPF_JA, 0, 0, -1, 0};

  // Only a program the verifier has just accepted is compiled: native code
  // has no runtime checks and stands on this proof. compile_native returns
  // null where the host cannot emit code, and the program then runs on the
  // interpreter.
  Program prog(std::move(name), type, std::move(insns));
  std::unique_ptr<const NativeCode> native =
      compile_native(prog.insns(), helpers_);
  result.prog =
      std::make_shared<LoadedProgram>(std::move(prog), std::move(native));
  return result;
}

ExecResult BpfSystem::run(const LoadedProgram& prog, ExecEnv& env,
                          std::uint64_t ctx) const {
  if (env.maps == nullptr) env.maps = const_cast<MapRegistry*>(&maps_);
  if (env.helpers == nullptr)
    env.helpers = const_cast<HelperRegistry*>(&helpers_);
  if (engine_for(prog) == EngineKind::kNative)
    return prog.native()->run(env, ctx);
  return interp_.run(prog.program(), env, ctx);
}

}  // namespace srv6bpf::ebpf
