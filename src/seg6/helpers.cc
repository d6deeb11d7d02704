#include "seg6/helpers.h"

#include <cstring>
#include <vector>

#include "net/srh.h"
#include "seg6/ctx.h"
#include "seg6/seg6local.h"
#include "util/byteorder.h"

namespace srv6bpf::seg6 {
namespace {

using ebpf::ArgKind;
using ebpf::ExecEnv;
using ebpf::RetKind;

constexpr std::uint64_t err_(int e) { return static_cast<std::uint64_t>(e); }
constexpr int kEInval = -22;
constexpr int kENoEnt = -2;

Seg6ProgCtx* prog_ctx(ExecEnv& env) {
  return static_cast<Seg6ProgCtx*>(env.user);
}

// Returns a view of the outermost SRH, or nullopt.
std::optional<net::SrhView> outer_srh(net::Packet& pkt) { return pkt.srh(); }

// Inserts the segments of a program-supplied SRH inline (End.B6,
// BPF_LWT_ENCAP_SEG6_INLINE). They are read out in travel order before the
// packet changes, so `srh` may point into the packet itself.
bool inline_srh(net::Packet& pkt, const net::SrhView& srh) {
  std::vector<net::Ipv6Addr> segs;
  for (std::size_t i = srh.num_segments(); i-- > 0;)
    segs.push_back(srh.segment(i));
  return seg6_do_inline(pkt, segs);
}

// ---- bpf_lwt_seg6_store_bytes ------------------------------------------------
// Indirect write access restricted to the SRH's editable fields: flags, tag
// and the TLV area. Anything else returns -EINVAL (principle (i) of §3).
std::uint64_t do_store_bytes(ExecEnv& env, std::uint64_t /*skb*/,
                             std::uint64_t offset, std::uint64_t from,
                             std::uint64_t len, std::uint64_t) {
  Seg6ProgCtx* ctx = prog_ctx(env);
  if (ctx == nullptr || ctx->pkt == nullptr) return err_(kEInval);
  auto srh = outer_srh(*ctx->pkt);
  if (!srh) return err_(kEInval);
  if (len == 0 || len > 4096) return err_(kEInval);

  const std::uint64_t srh_start = net::kIpv6HeaderSize;
  const std::uint64_t flags_begin = srh_start + 5;  // flags(1) + tag(2)
  const std::uint64_t flags_end = srh_start + 8;
  const std::uint64_t tlv_begin = srh_start + srh->tlv_offset();
  const std::uint64_t tlv_end = srh_start + srh->total_len();

  const bool in_flags_tag = offset >= flags_begin && offset + len <= flags_end;
  const bool in_tlvs = offset >= tlv_begin && offset + len <= tlv_end;
  if (!in_flags_tag && !in_tlvs) return err_(kEInval);

  const auto* src = reinterpret_cast<const std::uint8_t*>(from);
  if (!env.readable(src, len)) return err_(kEInval);
  std::memcpy(ctx->pkt->data() + offset, src, len);
  ctx->srh_dirty = true;
  return 0;
}

// ---- bpf_lwt_seg6_adjust_srh --------------------------------------------------
// Grows (delta > 0) or shrinks (delta < 0) the TLV area at `offset`. The SRH
// length stays a multiple of 8; header length fields are maintained here, and
// End.BPF revalidates the TLV chain after the program finishes.
std::uint64_t do_adjust_srh(ExecEnv& env, std::uint64_t /*skb*/,
                            std::uint64_t offset, std::uint64_t delta_u,
                            std::uint64_t, std::uint64_t) {
  Seg6ProgCtx* ctx = prog_ctx(env);
  if (ctx == nullptr || ctx->pkt == nullptr) return err_(kEInval);
  net::Packet& pkt = *ctx->pkt;
  auto srh = outer_srh(pkt);
  if (!srh) return err_(kEInval);

  const auto delta = static_cast<std::int64_t>(delta_u);
  if (delta == 0) return 0;
  if (delta % 8 != 0 || delta > 4096 || delta < -4096) return err_(kEInval);

  const std::uint64_t srh_start = net::kIpv6HeaderSize;
  const std::uint64_t tlv_begin = srh_start + srh->tlv_offset();
  const std::uint64_t tlv_end = srh_start + srh->total_len();
  // Insertion point must lie in [tlv_begin, tlv_end]; deletions must stay
  // inside the TLV area.
  if (offset < tlv_begin || offset > tlv_end) return err_(kEInval);
  if (delta < 0 && offset + static_cast<std::uint64_t>(-delta) > tlv_end)
    return err_(kEInval);

  const std::int64_t new_ext_len =
      static_cast<std::int64_t>(srh->hdr_ext_len()) + delta / 8;
  if (new_ext_len < 0 || new_ext_len > 255) return err_(kEInval);

  if (!pkt.expand_at(offset, delta)) return err_(kEInval);

  // Re-derive views: the buffer may have been reallocated.
  net::Ipv6View ip(pkt.data());
  ip.set_payload_length(
      static_cast<std::uint16_t>(ip.payload_length() + delta));
  pkt.data()[srh_start + 1] = static_cast<std::uint8_t>(new_ext_len);

  ctx->srh_dirty = true;
  ctx->packet_replaced = true;
  ctx->run.point_data_at(ctx->pkt->bytes());
  return 0;
}

// ---- bpf_lwt_seg6_action -------------------------------------------------------
// Runs a basic SRv6 behaviour from inside an End.BPF program. The SRH was
// already advanced by End.BPF, so these implement the post-advance part of
// each behaviour, resolving the packet's destination into its metadata; the
// program should then return BPF_REDIRECT (§3.1).
std::uint64_t do_seg6_action(ExecEnv& env, std::uint64_t /*skb*/,
                             std::uint64_t action, std::uint64_t param,
                             std::uint64_t param_len, std::uint64_t) {
  Seg6ProgCtx* ctx = prog_ctx(env);
  if (ctx == nullptr || ctx->pkt == nullptr || ctx->netns == nullptr)
    return err_(kEInval);
  net::Packet& pkt = *ctx->pkt;
  Netns& ns = *ctx->netns;
  const auto* p = reinterpret_cast<const std::uint8_t*>(param);
  if (param_len > 0 && !env.readable(p, param_len)) return err_(kEInval);

  auto fib_resolve = [&](int table_id) -> std::uint64_t {
    const Fib* fib = ns.find_table(table_id);
    if (fib == nullptr) return err_(kENoEnt);
    net::Ipv6View ip(pkt.data());
    const Route* route = fib->lookup(ip.dst(), ns.fib_cache_slot());
    if (route == nullptr || route->nexthops.empty()) return err_(kENoEnt);
    set_nexthop(pkt, Fib::select_nexthop(*route, pkt), ip.dst());
    ctx->dst_set = true;
    if (ctx->trace != nullptr) ++ctx->trace->fib_lookups;
    return 0;
  };

  switch (static_cast<Seg6Action>(action)) {
    case Seg6Action::kEndX: {
      if (param_len != 16) return err_(kEInval);
      Nexthop nh;
      std::memcpy(nh.via.bytes().data(), p, 16);
      if (!seg6_end_x(ns, pkt, nh, ctx->trace)) return err_(kENoEnt);
      ctx->dst_set = true;
      return 0;
    }
    case Seg6Action::kEndT: {
      if (param_len != 4) return err_(kEInval);
      std::uint32_t table;
      std::memcpy(&table, p, 4);
      return fib_resolve(static_cast<int>(table));
    }
    case Seg6Action::kEndB6: {
      // param: a serialized SRH whose segments (travel order) are inserted
      // inline; the original destination becomes the final segment.
      net::SrhView view(const_cast<std::uint8_t*>(p), param_len);
      if (param_len < net::kSrhFixedSize || !view.valid()) return err_(kEInval);
      if (!inline_srh(pkt, view)) return err_(kEInval);
      if (ctx->trace != nullptr) ++ctx->trace->encaps;
      ctx->packet_replaced = true;
      ctx->run.point_data_at(ctx->pkt->bytes());
      return 0;
    }
    case Seg6Action::kEndB6Encaps: {
      net::SrhView view(const_cast<std::uint8_t*>(p), param_len);
      if (param_len < net::kSrhFixedSize || !view.valid()) return err_(kEInval);
      // Verbatim SRH push (TLVs preserved), then outer IPv6.
      seg6_encap_srh(pkt, std::vector<std::uint8_t>(p, p + view.total_len()),
                     ns.encap_src(pkt));
      if (ctx->trace != nullptr) ++ctx->trace->encaps;
      ctx->packet_replaced = true;
      ctx->run.point_data_at(ctx->pkt->bytes());
      return 0;
    }
    case Seg6Action::kEndDT6: {
      if (param_len != 4) return err_(kEInval);
      std::uint32_t table;
      std::memcpy(&table, p, 4);
      if (!seg6_decap(pkt)) return err_(kEInval);
      if (ctx->trace != nullptr) ++ctx->trace->decaps;
      ctx->packet_replaced = true;
      ctx->run.point_data_at(ctx->pkt->bytes());
      return fib_resolve(static_cast<int>(table));
    }
    default:
      return err_(kEInval);
  }
}

// ---- bpf_lwt_push_encap ---------------------------------------------------------
// LWT-hook helper: wraps plain IPv6 traffic in an SRH (§4.1's transit
// behaviour, §4.2's WRR scheduler). The `hdr` argument is a fully formed SRH
// whose TLVs are preserved verbatim.
std::uint64_t do_push_encap(ExecEnv& env, std::uint64_t /*skb*/,
                            std::uint64_t type, std::uint64_t hdr,
                            std::uint64_t len, std::uint64_t) {
  Seg6ProgCtx* ctx = prog_ctx(env);
  if (ctx == nullptr || ctx->pkt == nullptr || ctx->netns == nullptr)
    return err_(kEInval);
  net::Packet& pkt = *ctx->pkt;
  const auto* p = reinterpret_cast<const std::uint8_t*>(hdr);
  if (len < net::kSrhFixedSize || len > 4096 || !env.readable(p, len))
    return err_(kEInval);
  net::SrhView view(const_cast<std::uint8_t*>(p), len);
  if (!view.valid() || view.total_len() != len) return err_(kEInval);

  if (type == BPF_LWT_ENCAP_SEG6) {
    seg6_encap_srh(pkt, std::vector<std::uint8_t>(p, p + len),
                   ctx->netns->encap_src(pkt));
  } else if (type == BPF_LWT_ENCAP_SEG6_INLINE) {
    if (!inline_srh(pkt, view)) return err_(kEInval);
  } else {
    return err_(kEInval);
  }
  if (ctx->trace != nullptr) ++ctx->trace->encaps;
  ctx->packet_replaced = true;
  ctx->run.point_data_at(ctx->pkt->bytes());
  return 0;
}

// ---- bpf_fib_ecmp_nexthops (custom helper, §4.3) --------------------------------
// Writes the gateway addresses of the FIB's ECMP nexthop set for the queried
// destination into `out` (16 bytes each) and returns the count.
std::uint64_t do_fib_ecmp(ExecEnv& env, std::uint64_t /*skb*/,
                          std::uint64_t addr_mem, std::uint64_t addr_len,
                          std::uint64_t out_mem, std::uint64_t out_len) {
  Seg6ProgCtx* ctx = prog_ctx(env);
  if (ctx == nullptr || ctx->netns == nullptr) return err_(kEInval);
  if (addr_len != 16) return err_(kEInval);
  const auto* ap = reinterpret_cast<const std::uint8_t*>(addr_mem);
  auto* op = reinterpret_cast<std::uint8_t*>(out_mem);
  if (!env.readable(ap, 16) || !env.writable(op, out_len))
    return err_(kEInval);

  net::Ipv6Addr dst;
  std::memcpy(dst.bytes().data(), ap, 16);
  const Fib* fib = ctx->netns->find_table(0);
  if (fib == nullptr) return 0;
  const Route* route = fib->lookup(dst, ctx->netns->fib_cache_slot());
  if (route == nullptr) return 0;

  std::uint64_t count = 0;
  const std::uint64_t max = std::min<std::uint64_t>(out_len / 16,
                                                    kMaxEcmpNexthops);
  for (const Nexthop& nh : route->nexthops) {
    if (count >= max) break;
    const net::Ipv6Addr& via = nh.via.is_unspecified() ? dst : nh.via;
    std::memcpy(op + count * 16, via.bytes().data(), 16);
    ++count;
  }
  return count;
}

}  // namespace

void register_seg6_helpers(ebpf::HelperRegistry& reg) {
  using ebpf::helper::FIB_ECMP_NEXTHOPS;
  using ebpf::helper::LWT_PUSH_ENCAP;
  using ebpf::helper::LWT_SEG6_ACTION;
  using ebpf::helper::LWT_SEG6_ADJUST_SRH;
  using ebpf::helper::LWT_SEG6_STORE_BYTES;

  reg.register_helper(
      LWT_SEG6_STORE_BYTES,
      {.name = "lwt_seg6_store_bytes",
       .ret = RetKind::kInteger,
       .args = {ArgKind::kPtrToCtx, ArgKind::kAnything, ArgKind::kPtrToMem,
                ArgKind::kConstSize, ArgKind::kNone},
       .allowed_types = ebpf::kProgSeg6Local},
      do_store_bytes);
  reg.register_helper(
      LWT_SEG6_ADJUST_SRH,
      {.name = "lwt_seg6_adjust_srh",
       .ret = RetKind::kInteger,
       .args = {ArgKind::kPtrToCtx, ArgKind::kAnything, ArgKind::kAnything,
                ArgKind::kNone, ArgKind::kNone},
       .invalidates_packet = true,
       .allowed_types = ebpf::kProgSeg6Local},
      do_adjust_srh);
  reg.register_helper(
      LWT_SEG6_ACTION,
      {.name = "lwt_seg6_action",
       .ret = RetKind::kInteger,
       .args = {ArgKind::kPtrToCtx, ArgKind::kAnything, ArgKind::kPtrToMem,
                ArgKind::kConstSize, ArgKind::kNone},
       .invalidates_packet = true,
       .allowed_types = ebpf::kProgSeg6Local},
      do_seg6_action);
  reg.register_helper(
      LWT_PUSH_ENCAP,
      {.name = "lwt_push_encap",
       .ret = RetKind::kInteger,
       .args = {ArgKind::kPtrToCtx, ArgKind::kAnything, ArgKind::kPtrToMem,
                ArgKind::kConstSize, ArgKind::kNone},
       .invalidates_packet = true,
       .allowed_types = ebpf::kProgLwtXmit},
      do_push_encap);
  reg.register_helper(
      FIB_ECMP_NEXTHOPS,
      {.name = "fib_ecmp_nexthops",
       .ret = RetKind::kInteger,
       .args = {ArgKind::kPtrToCtx, ArgKind::kPtrToMem, ArgKind::kConstSize,
                ArgKind::kPtrToUninitMem, ArgKind::kConstSize}},
      do_fib_ecmp);
}

}  // namespace srv6bpf::seg6
