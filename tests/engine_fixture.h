// The engine-parameterized fixture shared by the instruction-semantics and
// JIT edge-case tests. Each test runs once per execution engine: the
// interpreter (bpf_jit_enable = 0) and the native x86-64 JIT (which falls
// back to the interpreter on hosts without native support). A test file
// names the fixture for its own suite (`using EngineTest = EngineFixture;`)
// and instantiates that suite over kEngines with engine_param_name.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "ebpf/insn.h"
#include "ebpf/vm.h"

namespace srv6bpf::ebpf {

inline constexpr EngineKind kEngines[] = {EngineKind::kInterp,
                                          EngineKind::kNative};

inline std::string engine_param_name(
    const ::testing::TestParamInfo<EngineKind>& info) {
  switch (info.param) {
    case EngineKind::kInterp: return "Interp";
    default: return "Native";
  }
}

class EngineFixture : public ::testing::TestWithParam<EngineKind> {
 protected:
  // The bpf_jit_enable setting that selects the engine under test.
  bool jit() const { return GetParam() == EngineKind::kNative; }

  // Loads `insns` (every program run this way is verifiable) and runs it on
  // the engine under test.
  ExecResult run(const std::vector<Insn>& insns, std::uint64_t ctx = 0) {
    BpfSystem sys;
    auto load = sys.load("t", ProgType::kLwtSeg6Local, insns);
    EXPECT_TRUE(load.ok()) << load.verify.error;
    if (!load.ok()) return {};
    sys.set_jit_enabled(jit());
    ExecEnv env;
    return sys.run(*load.prog, env, ctx);
  }

  std::uint64_t eval(const std::vector<Insn>& insns) {
    const ExecResult r = run(insns);
    EXPECT_TRUE(r.ok()) << r.error;
    return r.ret;
  }
};

}  // namespace srv6bpf::ebpf
