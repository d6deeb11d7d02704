// Netns: one instance of the "kernel network stack" state — routing tables,
// the seg6local SID table, local addresses and the BPF subsystem — plus the
// per-invocation context handed to SRv6 eBPF programs.
//
// The simulator's Node (sim/node.h) owns a Netns and drives the forwarding
// pipeline; everything in this module is pure protocol logic with no notion
// of links or simulated time (time is injected via the clock callback).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_set>

#include "ebpf/skb.h"
#include "ebpf/vm.h"
#include "net/ip6.h"
#include "net/packet.h"
#include "seg6/fib.h"

namespace srv6bpf::seg6 {

class Seg6LocalTable;

// What the forwarding pipeline should do next with a packet.
enum class Disposition {
  kContinue,   // dst (possibly rewritten) needs a FIB lookup in `table`
  kUseRoute,   // proceed with the already-selected route's nexthop
  kForward,    // pkt.dst() metadata is set; ship it
  kLocal,      // deliver to the local host
  kDrop,
};

// Intentionally no field initialisers, like ProcessTrace: the datapath's
// burst scratch holds kMaxBurstPackets of these and writes only the burst's
// packets. Every factory below sets both fields.
struct PipelineResult {
  Disposition disposition;
  int table;  // for kContinue
  static PipelineResult drop() { return {Disposition::kDrop, 0}; }
  static PipelineResult cont(int table = 0) {
    return {Disposition::kContinue, table};
  }
  static PipelineResult forward() { return {Disposition::kForward, 0}; }
  static PipelineResult use_route() { return {Disposition::kUseRoute, 0}; }
};

// Everything the cost model (sim/costmodel.h) needs to charge a packet for
// the processing it received on a node.
//
// Intentionally no field initialisers: the per-burst scratch holds
// kMaxBurstPackets of these and reset() zeroes only the burst's packets.
// Declare a lone trace value-initialised (`ProcessTrace t{};`).
struct ProcessTrace {
  int fib_lookups;
  int seg6local_ops;       // static seg6local behaviour executions
  int bpf_runs;
  std::uint64_t bpf_insns_jit;     // insns executed on the JIT engine
  std::uint64_t bpf_insns_interp;  // insns executed on the interpreter
  std::uint64_t helper_calls;
  int encaps;
  int decaps;

  void reset() { *this = ProcessTrace{}; }
};

// Per-invocation state shared between a running eBPF program and the SRv6
// helper implementations (reached through ExecEnv::user).
struct Seg6ProgCtx {
  class Netns* netns = nullptr;
  net::Packet* pkt = nullptr;
  ProcessTrace* trace = nullptr;

  bool srh_dirty = false;        // SRH bytes/size modified -> revalidate
  bool packet_replaced = false;  // encap/decap/resize happened
  bool dst_set = false;          // lwt_seg6_action resolved a destination

  // The ctx and env the program runs with. A helper that may move or
  // resize the packet re-points it: run.point_data_at(pkt->bytes()).
  ebpf::SkbRun run;
};

class Netns {
 public:
  explicit Netns(std::string name = "netns");
  ~Netns();  // out of line: Seg6LocalTable is forward-declared here

  const std::string& name() const noexcept { return name_; }
  ebpf::BpfSystem& bpf() noexcept { return bpf_; }
  const ebpf::BpfSystem& bpf() const noexcept { return bpf_; }

  // Routing table by id (created on demand). Table 0 is "main".
  Fib& table(int id = 0);
  const Fib* find_table(int id) const;
  // Every table (id -> Fib), ordered by id: crash teardown wipes them all,
  // and the control-plane re-installer snapshots route config across them.
  std::map<int, Fib>& tables() noexcept { return tables_; }
  const std::map<int, Fib>& tables() const noexcept { return tables_; }
  Seg6LocalTable& seg6local() noexcept { return *seg6local_; }

  void add_local_addr(const net::Ipv6Addr& a) { local_addrs_.insert(a); }
  // Exact match in a hash set: one probe per datapath destination group,
  // however many addresses the host owns (a /48 site sink owns thousands).
  bool is_local(const net::Ipv6Addr& a) const {
    return local_addrs_.count(a) != 0;
  }

  // Source address used for SRH encapsulation (ip sr tunsrc analogue).
  net::Ipv6Addr sr_tunsrc;
  // Outer source of an SRv6 encapsulation of `pkt`: sr_tunsrc when set,
  // else the packet's own source.
  net::Ipv6Addr encap_src(net::Packet& pkt) const {
    return sr_tunsrc.is_unspecified() ? pkt.ipv6().src() : sr_tunsrc;
  }

  // Simulated clock; defaults to 0 when unset.
  std::function<std::uint64_t()> clock;
  std::uint64_t now() const { return clock ? clock() : 0; }

  // CPU context currently executing this netns's datapath. The multi-core
  // Node sets it around each service event (and restores it after); program
  // runners snapshot it into ExecEnv::cpu_id, which is what
  // bpf_get_smp_processor_id and the PERCPU_* map helpers read.
  std::uint32_t current_cpu = 0;

  // The executing context's one-entry FIB route-cache slot. Every hot-path
  // route lookup against this netns — the datapath's fib stage, the
  // bpf_lwt_seg6_action behaviours, End.X nexthop resolution — goes through
  // the servicing context's slot, so contexts never share cache state
  // (FibCacheSlot's rationale in seg6/fib.h).
  FibCacheSlot& fib_cache_slot() noexcept { return fib_slots_[current_cpu]; }

  // The PRNG state every program run on this netns steps for
  // bpf_get_prandom_u32 (ExecEnv::prandom_state).
  std::uint64_t prandom_state = 0x853c49e6748fea9bull;

 private:
  std::string name_;
  ebpf::BpfSystem bpf_;
  std::map<int, Fib> tables_;
  std::unique_ptr<Seg6LocalTable> seg6local_;
  std::unordered_set<net::Ipv6Addr, net::Ipv6AddrHash> local_addrs_;
  // One slot per possible CPU context (current_cpu is clamped below
  // ebpf::kMaxCpus by the Node's context setup).
  std::array<FibCacheSlot, ebpf::kMaxCpus> fib_slots_;
};

// Amortised SRv6 program executor: one Seg6ProgCtx whose SkbRun takes the
// netns's clock reading, PRNG state and CPU context once, then is pointed
// at the burst's packets one by one, so a burst of packets hitting the same
// program pays the per-invocation setup once per group.
//
// Protocol per packet: prepare() -> BpfSystem::run -> harvest() ->
// account(). harvest() must run before the next prepare(): it writes the
// writable ctx field (skb->mark) back to the current packet and returns the
// per-packet helper flags.
class Seg6BurstRunner {
 public:
  explicit Seg6BurstRunner(Netns& ns) : ns_(ns) {
    ctx_.netns = &ns;
    ebpf::ExecEnv& env = ctx_.run.env;
    env.user = &ctx_;
    env.now_ns = ns.now();
    env.prandom_state = &ns.prandom_state;
    env.cpu_id = ns.current_cpu;
  }
  Seg6BurstRunner(const Seg6BurstRunner&) = delete;
  Seg6BurstRunner& operator=(const Seg6BurstRunner&) = delete;

  struct Verdict {
    bool srh_dirty = false;
    bool packet_replaced = false;
    bool dst_set = false;
  };

  // Points the shared ctx/env at `pkt` and resets the per-packet flags.
  void prepare(net::Packet& pkt, ProcessTrace* trace);
  // Propagates writable ctx fields back into the prepared packet and reads
  // out the per-packet flags.
  Verdict harvest();
  // Charges one program execution to `trace` (engine-aware insn counts).
  void account(ProcessTrace* trace, const ebpf::ExecResult& exec) const;

  ebpf::ExecEnv& env() noexcept { return ctx_.run.env; }
  std::uint64_t ctx_addr() const noexcept { return ctx_.run.ctx_addr(); }

 private:
  Netns& ns_;
  Seg6ProgCtx ctx_;
};

// The one way an SRv6 program runs over packets: for each packet of `pkts`
// in order, one Seg6BurstRunner prepares it, BpfSystem::run executes `prog`,
// the runner harvests the verdict and charges `traces[k]`, and then
// `per_packet(k, exec, verdict)` interprets the outcome (End.BPF vs LWT
// epilogue) before the next packet runs. Callers keep any index mapping of
// their own. A template, so the epilogue inlines and its closure is never
// wrapped or allocated.
template <typename PerPacket>
void run_prog_over_burst(Netns& ns, const ebpf::LoadedProgram& prog,
                         std::span<net::Packet* const> pkts,
                         ProcessTrace* const* traces,
                         PerPacket&& per_packet) {
  Seg6BurstRunner runner(ns);
  for (std::size_t k = 0; k < pkts.size(); ++k) {
    runner.prepare(*pkts[k], traces[k]);
    const ebpf::ExecResult exec =
        ns.bpf().run(prog, runner.env(), runner.ctx_addr());
    const Seg6BurstRunner::Verdict verdict = runner.harvest();
    runner.account(traces[k], exec);
    per_packet(k, exec, verdict);
  }
}

}  // namespace srv6bpf::seg6
