#include "ebpf/vm.h"

namespace srv6bpf::ebpf {

BpfSystem::LoadResult BpfSystem::load(std::string name, ProgType type,
                                      std::vector<Insn> insns, std::size_t) {
  Program prog(std::move(name), type, std::move(insns));
  LoadResult result;
  result.verify = Verifier(&maps_, &helpers_).verify(prog);
  if (!result.verify.ok) return result;

  // Only a program the verifier has just accepted is decoded and compiled:
  // native code has no runtime checks and stands on this proof. Decode once
  // (jump targets, fused ld_imm64, resolved helpers); compile_native returns
  // null where the host cannot emit code, and the program then runs on the
  // pre-decoded interpreter.
  DecodedProgram decoded = decode_program(prog.insns(), &helpers_);
  std::unique_ptr<const NativeCode> native = compile_native(decoded);
  result.prog = std::make_shared<LoadedProgram>(
      std::move(prog), std::move(decoded), std::move(native));
  return result;
}

ExecResult BpfSystem::run(const LoadedProgram& prog, ExecEnv& env,
                          std::uint64_t ctx) const {
  if (env.maps == nullptr) env.maps = const_cast<MapRegistry*>(&maps_);
  if (env.helpers == nullptr)
    env.helpers = const_cast<HelperRegistry*>(&helpers_);
  switch (engine_for(prog)) {
    case EngineKind::kNative:
      return prog.native()->run(env, ctx);
    case EngineKind::kInterp:
      break;
    case EngineKind::kInterpBaseline:
      return interp_.run(prog.program(), env, ctx);
  }
  return interp_.run(prog.decoded(), env, ctx);
}

}  // namespace srv6bpf::ebpf
