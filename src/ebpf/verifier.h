// The eBPF static verifier.
//
// Before a program may be attached to a hook it must be proven safe:
//   * the control-flow graph is a DAG (no back-edges; pre-5.3 kernel rule),
//     every path ends in BPF_EXIT, and no jump lands inside a LD_IMM64 pair;
//   * registers are typed (scalar / ctx / packet / stack / map-value / map
//     pointer) and never used uninitialised;
//   * packet bytes may only be loaded after the program has established
//     bounds with the canonical `if (data + N > data_end) goto out;` pattern,
//     and packet memory is read-only for LWT/seg6local program types (writes
//     go through the SRv6 helpers — this is principle (i) of the paper §3);
//   * stack accesses stay within the 512-byte frame and never read slots
//     that were not previously written; pointer spills/fills are tracked;
//   * helper call sites match the registered helper prototypes, map-value
//     pointers are null-checked before use, and helpers that can reallocate
//     the packet invalidate previously derived packet pointers.
//
// Implementation: explicit-state symbolic execution over the instruction
// DAG with optional state pruning: identical-state deduplication at join
// points (instructions with two or more CFG predecessors), the only places
// two paths can meet, so states are stored and compared only there. A state
// holds the 11 registers, the proven packet range and the stack slots only
// as deep as the path has written. The DAG property bounds the exploration;
// a visited-state budget rejects pathological programs as "too complex",
// like the kernel.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ebpf/helpers.h"
#include "ebpf/insn.h"
#include "ebpf/map.h"
#include "ebpf/program.h"

namespace srv6bpf::ebpf {

struct VerifyOptions {
  bool enable_pruning = true;
  // Upper bound on symbolic states processed before giving up.
  std::size_t max_states = 200000;
};

struct VerifyStats {
  std::size_t states_visited = 0;
  std::size_t states_pruned = 0;
};

struct VerifyResult {
  bool ok = false;
  std::string error;     // empty on success
  int error_insn = -1;   // instruction index the error refers to
  VerifyStats stats;
};

class Verifier {
 public:
  // `maps` resolves pseudo map-fd loads; `helpers` provides call prototypes.
  Verifier(const MapRegistry* maps, const HelperRegistry* helpers,
           VerifyOptions opts = {})
      : maps_(maps), helpers_(helpers), opts_(opts) {}

  VerifyResult verify(const Program& prog) const;
  VerifyResult verify(const std::vector<Insn>& insns, ProgType type) const;

 private:
  const MapRegistry* maps_;
  const HelperRegistry* helpers_;
  VerifyOptions opts_;
};

}  // namespace srv6bpf::ebpf
