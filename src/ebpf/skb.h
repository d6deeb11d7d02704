// The program context ("struct __sk_buff" analogue) handed to LWT,
// seg6local and socket-filter eBPF programs, and SkbRun, what one such
// program run sees.
//
// Simplification vs the kernel: data/data_end are 64-bit host pointers
// directly (the kernel exposes 32-bit fields and rewrites the access in the
// verifier's ctx-conversion pass; the programmer-visible semantics are the
// same). The verifier types a load of `data` as PTR_TO_PACKET and `data_end`
// as PTR_TO_PACKET_END, and requires the usual bounds-check pattern before
// any packet byte can be read.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "ebpf/exec.h"
#include "net/packet.h"

namespace srv6bpf::ebpf {

struct SkbCtx {
  std::uint64_t data = 0;          // first byte of the outermost IPv6 header
  std::uint64_t data_end = 0;      // one past the last byte
  std::uint32_t len = 0;           // packet length in bytes
  std::uint32_t protocol = 0;      // ETH_P_IPV6, big-endian like the kernel
  std::uint32_t mark = 0;          // scratch, read-write
  std::uint32_t ingress_ifindex = 0;
  std::uint64_t tstamp_ns = 0;     // RX software timestamp (used by End.DM)
};

// Field offsets (the ABI contract between programs and the verifier).
namespace skb_off {
inline constexpr int kData = 0;
inline constexpr int kDataEnd = 8;
inline constexpr int kLen = 16;
inline constexpr int kProtocol = 20;
inline constexpr int kMark = 24;
inline constexpr int kIngressIfindex = 28;
inline constexpr int kTstamp = 32;
}  // namespace skb_off

inline constexpr int kSkbCtxSize = 40;

static_assert(sizeof(SkbCtx) == kSkbCtxSize);
static_assert(offsetof(SkbCtx, data) == skb_off::kData);
static_assert(offsetof(SkbCtx, data_end) == skb_off::kDataEnd);
static_assert(offsetof(SkbCtx, len) == skb_off::kLen);
static_assert(offsetof(SkbCtx, protocol) == skb_off::kProtocol);
static_assert(offsetof(SkbCtx, mark) == skb_off::kMark);
static_assert(offsetof(SkbCtx, ingress_ifindex) == skb_off::kIngressIfindex);
static_assert(offsetof(SkbCtx, tstamp_ns) == skb_off::kTstamp);

// ETH_P_IPV6 in network byte order, as seen in skb->protocol.
inline constexpr std::uint32_t kEthPIpv6Be = 0xdd86;  // htons(0x86dd) on LE

// What one packet-program run sees: the SkbCtx over a packet and the
// ExecEnv whose region 0 is that ctx (writable; the verifier confines
// writes to `mark`) and region 1 the packet bytes (read-only; programs
// change packets only through helpers). End.BPF, the LWT xmit hook and
// socket filters all run through one, as the kernel fills data/data_end
// for every such program type in bpf_compute_data_pointers. The owner
// sets the rest of `env` (clock reading, PRNG state, CPU, helper state).
//
// The regions point into the object, so it is neither copied nor moved.
class SkbRun {
 public:
  SkbRun() {
    skb.protocol = kEthPIpv6Be;
    env.regions.push_back(
        MemRegion{reinterpret_cast<std::uintptr_t>(&skb), sizeof skb, true});
    env.regions.push_back(MemRegion{0, 0, false});
  }
  SkbRun(const SkbRun&) = delete;
  SkbRun& operator=(const SkbRun&) = delete;

  // Points the ctx at `pkt`: its bytes and the metadata a program reads.
  void point_at(const net::Packet& pkt) {
    skb.mark = pkt.mark;
    skb.ingress_ifindex = pkt.ingress_ifindex;
    skb.tstamp_ns = pkt.rx_tstamp_ns;
    point_data_at(pkt.bytes());
  }
  // Points data/data_end/len and region 1 at `bytes`, leaving the metadata
  // fields alone: after a helper moved or resized the packet, or for a run
  // over bare bytes.
  void point_data_at(std::span<const std::uint8_t> bytes) {
    const auto base = reinterpret_cast<std::uintptr_t>(bytes.data());
    skb.data = base;
    skb.data_end = base + bytes.size();
    skb.len = static_cast<std::uint32_t>(bytes.size());
    env.regions[1] = MemRegion{base, bytes.size(), false};
  }

  // The ctx argument a program runs with (BpfSystem::run).
  std::uint64_t ctx_addr() const noexcept {
    return reinterpret_cast<std::uint64_t>(&skb);
  }

  SkbCtx skb;
  ExecEnv env;
};

}  // namespace srv6bpf::ebpf
