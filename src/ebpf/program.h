// An eBPF program as a loader hands it in: a name, an attachment type and
// its instructions. BpfSystem::load verifies it and keeps it in the
// LoadedProgram it produces (ebpf/vm.h).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ebpf/insn.h"

namespace srv6bpf::ebpf {

// Attachment points. LWT_XMIT runs on a route's packets just before
// transmission (and may call bpf_lwt_push_encap); LWT_SEG6LOCAL is the
// paper's End.BPF program type, which may call the three seg6 helpers.
// SOCKET_FILTER is the classic SO_ATTACH_FILTER attachment: programs run
// over packets delivered to an application socket and return the number of
// bytes to accept (0 = drop) — the target type of the cBPF translator.
enum class ProgType {
  kLwtXmit,
  kLwtSeg6Local,
  kSocketFilter,
};

const char* prog_type_name(ProgType t) noexcept;

class Program {
 public:
  Program(std::string name, ProgType type, std::vector<Insn> insns)
      : name_(std::move(name)), type_(type), insns_(std::move(insns)) {}

  const std::string& name() const noexcept { return name_; }
  ProgType type() const noexcept { return type_; }
  const std::vector<Insn>& insns() const noexcept { return insns_; }
  std::size_t size() const noexcept { return insns_.size(); }

 private:
  std::string name_;
  ProgType type_;
  std::vector<Insn> insns_;
};

}  // namespace srv6bpf::ebpf
