#include "ebpf/jit.h"

#include <stdexcept>

namespace srv6bpf::ebpf {

std::shared_ptr<const CompiledProgram> Jit::compile(
    const Program& prog) const {
  if (!prog.verified())
    throw std::logic_error("jit: refusing to compile unverified program '" +
                           prog.name() + "'");
  auto decoded = decode_program(prog, helpers_);
  // Native emission is best-effort: on unsupported hosts (or if W^X pages
  // are refused) the program keeps only its decoded form and runs on the
  // interpreter.
  std::shared_ptr<const NativeCode> native;
  if (available()) native = compile_native(*decoded, nullptr);
  return std::make_shared<CompiledProgram>(std::move(decoded),
                                           std::move(native));
}

}  // namespace srv6bpf::ebpf
