#include "seg6/ctx.h"

#include "seg6/helpers.h"
#include "seg6/seg6local.h"
#include "util/hash.h"

namespace srv6bpf::seg6 {

void Seg6ProgCtx::refresh_packet_view() {
  skb.data = reinterpret_cast<std::uint64_t>(pkt->data());
  skb.data_end = skb.data + pkt->size();
  skb.len = static_cast<std::uint32_t>(pkt->size());
  if (env != nullptr && env->regions.size() >= 2) {
    env->regions[1] = ebpf::MemRegion{
        reinterpret_cast<std::uintptr_t>(pkt->data()), pkt->size(), false};
  }
}

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

std::uint32_t Netns::prandom() {
  // A splitmix64 step, truncated to the high half of the mix before its
  // final xor-shift: the bpf_get_prandom_u32 sequence the goldens pin.
  return static_cast<std::uint32_t>(splitmix64_unfinalized(prandom_state_) >>
                                    32);
}

Seg6BurstRunner::Seg6BurstRunner(Netns& ns) : ns_(ns) {
  ctx_.netns = &ns;
  ctx_.skb.protocol = ebpf::kEthPIpv6Be;
  env_.user = &ctx_;
  env_.now_ns = [&ns] { return ns.now(); };
  env_.prandom = [&ns] { return ns.prandom(); };
  env_.cpu_id = ns.current_cpu;
  // Region 0: the ctx struct (read/write; the verifier confines writes to
  // `mark`). Region 1: packet bytes, retargeted per packet by prepare().
  env_.regions.push_back(ebpf::MemRegion{
      reinterpret_cast<std::uintptr_t>(&ctx_.skb), sizeof ctx_.skb, true});
  env_.regions.push_back(ebpf::MemRegion{0, 0, false});
  ctx_.env = &env_;
}

void Seg6BurstRunner::prepare(net::Packet& pkt, ProcessTrace* trace) {
  ctx_.pkt = &pkt;
  ctx_.trace = trace;
  ctx_.srh_dirty = false;
  ctx_.packet_replaced = false;
  ctx_.dst_set = false;
  ctx_.skb.mark = pkt.mark;
  ctx_.skb.ingress_ifindex = pkt.ingress_ifindex;
  ctx_.skb.tstamp_ns = pkt.rx_tstamp_ns;
  ctx_.refresh_packet_view();
}

Seg6BurstRunner::Verdict Seg6BurstRunner::harvest() {
  ctx_.pkt->mark = ctx_.skb.mark;  // writable ctx field propagates back
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
