#include "ebpf/vm.h"

#include "ebpf/decode.h"

namespace srv6bpf::ebpf {

BpfSystem::LoadResult BpfSystem::load(std::string name, ProgType type,
                                      std::vector<Insn> insns, std::size_t) {
  Program prog(std::move(name), type, std::move(insns));
  LoadResult result;
  result.verify = Verifier(&maps_, &helpers_).verify(prog);
  if (!result.verify.ok) return result;

  // Only a program the verifier has just accepted is compiled: native code
  // has no runtime checks and stands on this proof. The decoded form (jump
  // targets, fused ld_imm64, resolved helpers) is the JIT's input and is
  // not kept. compile_native returns null where the host cannot emit code,
  // and the program then runs on the interpreter.
  std::unique_ptr<const NativeCode> native =
      compile_native(decode_program(prog.insns(), &helpers_));
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
