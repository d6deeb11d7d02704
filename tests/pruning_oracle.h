// The pruning oracle. State pruning may save the verifier work but must
// never change what it says: a program verified with pruning on (what
// BpfSystem::load does) and off gets the same verdict, the same error text
// and the same error instruction, and pruning visits no more states. The
// unpruned run can be exponentially longer, so it gets a budget of its own;
// a program whose unpruned run exhausts that budget has nothing to compare.
#pragma once

#include <gtest/gtest.h>

#include <vector>

#include "ebpf/verifier.h"

namespace srv6bpf::ebpf {

struct PruningOracle {
  VerifyResult pruned;
  VerifyResult unpruned;
  bool compared = false;  // the unpruned run fit its budget

  ::testing::AssertionResult agree() const {
    if (pruned.ok == unpruned.ok && pruned.error == unpruned.error &&
        pruned.error_insn == unpruned.error_insn &&
        pruned.stats.states_visited <= unpruned.stats.states_visited)
      return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "pruning on: ok=" << pruned.ok << " insn=" << pruned.error_insn
           << " states=" << pruned.stats.states_visited << " '"
           << pruned.error << "'; off: ok=" << unpruned.ok
           << " insn=" << unpruned.error_insn
           << " states=" << unpruned.stats.states_visited << " '"
           << unpruned.error << "'";
  }
};

inline PruningOracle check_pruning(
    const MapRegistry* maps, const HelperRegistry* helpers,
    const std::vector<Insn>& insns, ProgType type,
    std::size_t unpruned_budget = VerifyOptions{}.max_states) {
  PruningOracle o;
  o.pruned = Verifier(maps, helpers).verify(insns, type);
  o.unpruned = Verifier(maps, helpers,
                        {.enable_pruning = false,
                         .max_states = unpruned_budget})
                   .verify(insns, type);
  o.compared = o.unpruned.stats.states_visited <= unpruned_budget;
  return o;
}

}  // namespace srv6bpf::ebpf
