#include "seg6/ctx.h"

#include "seg6/helpers.h"
#include "seg6/seg6local.h"

namespace srv6bpf::seg6 {

Netns::Netns(std::string name)
    : name_(std::move(name)), seg6local_(std::make_unique<Seg6LocalTable>()) {
  register_seg6_helpers(bpf_.helpers());
}

Netns::~Netns() = default;

Fib& Netns::table(int id) { return tables_[id]; }

const Fib* Netns::find_table(int id) const {
  auto it = tables_.find(id);
  return it == tables_.end() ? nullptr : &it->second;
}

void Seg6BurstRunner::prepare(net::Packet& pkt, ProcessTrace* trace) {
  ctx_.pkt = &pkt;
  ctx_.trace = trace;
  ctx_.srh_dirty = false;
  ctx_.packet_replaced = false;
  ctx_.dst_set = false;
  ctx_.run.point_at(pkt);
}

Seg6BurstRunner::Verdict Seg6BurstRunner::harvest() {
  ctx_.pkt->mark = ctx_.run.skb.mark;  // writable ctx field propagates back
  return Verdict{ctx_.srh_dirty, ctx_.packet_replaced, ctx_.dst_set};
}

void Seg6BurstRunner::account(ProcessTrace* trace,
                              const ebpf::ExecResult& exec) const {
  if (trace == nullptr) return;
  ++trace->bpf_runs;
  trace->helper_calls += exec.helper_calls;
  // Billed by the selected engine: a program with no emitted code that falls
  // back to the interpreter stays in the paper's bpf_jit_enable=1 bucket.
  if (ns_.bpf().jit_enabled())
    trace->bpf_insns_jit += exec.insns_executed;
  else
    trace->bpf_insns_interp += exec.insns_executed;
}

}  // namespace srv6bpf::seg6
