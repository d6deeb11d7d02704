#include "seg6/lwt.h"

#include "seg6/seg6local.h"

namespace srv6bpf::seg6 {

namespace {

// Shared BPF-tunnel tail: interprets the program's outcome for one packet.
PipelineResult lwt_bpf_epilogue(net::Packet& pkt, const ebpf::ExecResult& exec,
                                bool packet_replaced) {
  if (!exec.ok()) return PipelineResult::drop();
  switch (exec.ret) {
    case ebpf::BPF_OK:
      // If the program pushed an encapsulation the packet's destination
      // changed; route it afresh (the kernel's BPF_LWT_REROUTE path).
      return packet_replaced ? PipelineResult::cont(0)
                             : PipelineResult::use_route();
    case ebpf::BPF_REDIRECT:
      if (!pkt.dst().valid) return PipelineResult::drop();
      return PipelineResult::forward();
    case ebpf::BPF_DROP:
    default:
      return PipelineResult::drop();
  }
}

}  // namespace

PipelineResult lwt_process(Netns& ns, net::Packet& pkt, const LwtState& lwt,
                           LwtHook hook, ProcessTrace* trace) {
  switch (lwt.kind) {
    case LwtState::Kind::kNone:
      return PipelineResult::use_route();

    case LwtState::Kind::kSeg6Encap: {
      if (!seg6_do_encap(pkt, lwt.segments, ns.encap_src(pkt)))
        return PipelineResult::drop();
      if (trace != nullptr) ++trace->encaps;
      return PipelineResult::cont(0);
    }

    case LwtState::Kind::kBpf: {
      if (lwt.prog_xmit == nullptr) return PipelineResult::use_route();
      net::Packet* const one = &pkt;
      PipelineResult result;
      lwt_process_burst(ns, {&one, 1}, lwt, hook, &trace, &result);
      return result;
    }
  }
  return PipelineResult::drop();
}

void lwt_process_burst(Netns& ns, std::span<net::Packet* const> pkts,
                       const LwtState& lwt, LwtHook hook,
                       ProcessTrace* const* traces, PipelineResult* results) {
  const std::size_t n = pkts.size();
  // Non-BPF tunnel kinds are plain header surgery; only a BPF program has
  // per-invocation setup worth amortising.
  if (lwt.kind != LwtState::Kind::kBpf || lwt.prog_xmit == nullptr) {
    for (std::size_t i = 0; i < n; ++i)
      results[i] = lwt_process(ns, *pkts[i], lwt, hook, traces[i]);
    return;
  }

  run_prog_over_burst(ns, *lwt.prog_xmit, pkts, traces,
                      [&](std::size_t k, const ebpf::ExecResult& exec,
                          const Seg6BurstRunner::Verdict& v) {
                        results[k] = lwt_bpf_epilogue(*pkts[k], exec,
                                                      v.packet_replaced);
                      });
}

}  // namespace srv6bpf::seg6
