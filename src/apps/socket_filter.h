// SO_ATTACH_FILTER-style socket filters.
//
// A SocketFilter owns the full classic-BPF pipeline for one attachment:
// tcpdump expression (optional) → classic BPF → check → translate to eBPF →
// verifier → the node's engines. Exactly like the kernel since 3.15, the
// classic program is *never* interpreted on the delivery path — it is
// translated once at attach time and each packet runs the eBPF form on
// whichever engine the node selected (native JIT by default).
//
// A filter attaches to a socket through AppMux::attach_udp_filter(port)
// (apps/sink.h), which consults it before that port's handler runs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cbpf/insn.h"
#include "ebpf/skb.h"
#include "ebpf/vm.h"
#include "seg6/ctx.h"

namespace srv6bpf::apps {

class SocketFilter {
 public:
  // Compiles `expr` (cbpf::compile) and attaches the result. Returns null on
  // compile/translate/verify failure with the diagnostic in *error.
  static std::shared_ptr<SocketFilter> from_expr(seg6::Netns& ns,
                                                 std::string name,
                                                 std::string_view expr,
                                                 std::string* error = nullptr);
  // Attaches a hand-written classic program (the raw SO_ATTACH_FILTER path).
  static std::shared_ptr<SocketFilter> from_cbpf(
      seg6::Netns& ns, std::string name, std::vector<cbpf::SockFilter> prog,
      std::string* error = nullptr);

  // Runs the filter over the packet on the node's selected engine; returns
  // the classic accept length (0 = drop).
  std::uint32_t run(const net::Packet& pkt);
  // run() plus accept/drop accounting.
  bool accept(const net::Packet& pkt);

  const std::string& name() const noexcept { return name_; }
  const std::string& expr() const noexcept { return expr_; }
  // The classic program this filter attaches (pre-translation form).
  const std::vector<cbpf::SockFilter>& classic() const noexcept {
    return classic_;
  }
  // The translated, verified eBPF program.
  const ebpf::LoadedProgram& program() const noexcept { return *prog_; }

  std::uint64_t accepted() const noexcept { return accepted_; }
  std::uint64_t dropped() const noexcept { return dropped_; }
  std::uint64_t bytes_accepted() const noexcept { return bytes_accepted_; }
  void reset_stats() noexcept { accepted_ = dropped_ = bytes_accepted_ = 0; }

 private:
  SocketFilter(seg6::Netns& ns, std::string name);

  bool attach(std::vector<cbpf::SockFilter> prog, std::string* error);

  seg6::Netns& ns_;
  std::string name_;
  std::string expr_;  // empty for raw cBPF attachments
  std::vector<cbpf::SockFilter> classic_;
  ebpf::ProgHandle prog_;
  // A read-only view: no mark write-back and no SRv6 helper state.
  ebpf::SkbRun run_;
  std::uint64_t accepted_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t bytes_accepted_ = 0;
};

}  // namespace srv6bpf::apps
