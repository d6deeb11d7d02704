// Lightweight tunnels attached to routes: the seg6 transit encapsulation
// (T.Encaps, the `seg6` iproute2 encap type) and route-attached BPF
// programs on the xmit hook (the `bpf` encap type's `xmit` section, the
// hook the paper's §4.1 and §4.2 programs use). The datapath runs every
// route tunnel at xmit; the hook stays a parameter so each call site names
// it.
#pragma once

#include <span>

#include "net/packet.h"
#include "seg6/ctx.h"
#include "seg6/fib.h"

namespace srv6bpf::seg6 {

enum class LwtHook { kXmit };

// Applies a route's tunnel state to a packet being forwarded by that route.
// Dispositions:
//   kContinue  — the packet was re-encapsulated; re-run the FIB lookup
//   kUseRoute  — no rewrite; proceed with the route's own nexthop
//   kForward   — a BPF program resolved the destination (BPF_REDIRECT)
//   kDrop      — drop
PipelineResult lwt_process(Netns& ns, net::Packet& pkt, const LwtState& lwt,
                           LwtHook hook, ProcessTrace* trace);

// Burst entry point: applies the tunnel state to every packet in `pkts` (all
// selected the same route), writing dispositions into `results[i]`. For BPF
// tunnels the program runs through run_prog_over_burst (ExecEnv setup paid
// once per route group); per-packet semantics match sequential lwt_process
// calls.
void lwt_process_burst(Netns& ns, std::span<net::Packet* const> pkts,
                       const LwtState& lwt, LwtHook hook,
                       ProcessTrace* const* traces, PipelineResult* results);

}  // namespace srv6bpf::seg6
