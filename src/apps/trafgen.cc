#include "apps/trafgen.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "net/buffer_pool.h"
#include "util/byteorder.h"

namespace srv6bpf::apps {

namespace {

// The tick interval for `pps`, at least 1 ns. Rejects a rate with no such
// interval — not positive, not finite (NaN included), or so small that
// 1e9 / pps overflows TimeNs — whose conversion would be undefined
// behaviour.
sim::TimeNs tick_interval(double pps) {
  const double ns = 1e9 / pps;
  if (!(pps > 0 && std::isfinite(pps) && ns < 0x1p64))
    throw std::invalid_argument("trafgen: pps must be positive and finite");
  return std::max<sim::TimeNs>(static_cast<sim::TimeNs>(ns), 1);
}

}  // namespace

TrafGen::TrafGen(sim::Node& node, Config cfg)
    : node_(node), cfg_(cfg), t_template_(net::make_udp_packet(cfg.spec)),
      interval_ns_(tick_interval(cfg.pps)),
      dst_site_base_(load_be16(t_template_.data() + 24 + 4)) {
  // One header-chain walk at construction; every stamped packet reuses
  // these offsets.
  if (const auto loc = net::locate_transport(t_template_);
      loc && loc->proto == net::kProtoUdp) {
    udp_off_ = loc->offset;
    has_udp_ = true;
  }
}

void TrafGen::start() {
  stop_at_ = cfg_.start_at + cfg_.duration;
  next_send_ = cfg_.start_at;
  node_.loop().schedule_at(cfg_.start_at, [this] { tick(); });
}

namespace {

// RFC 1624 incremental checksum update for one rewritten be16 word:
// HC' = ~(~HC + ~m + m'). `ck` points at the stored transport checksum.
void fixup_checksum(std::uint8_t* ck, std::uint16_t old_word,
                    std::uint16_t new_word) {
  std::uint32_t sum = static_cast<std::uint16_t>(~load_be16(ck));
  sum += static_cast<std::uint16_t>(~old_word);
  sum += new_word;
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  std::uint16_t out = static_cast<std::uint16_t>(~sum);
  if (out == 0) out = 0xffff;  // UDP: zero means "no checksum"
  store_be16(ck, out);
}

}  // namespace

net::Packet TrafGen::next_packet() {
  // Stamp: pooled-buffer copy of the prebuilt frame (one freelist pop plus
  // one memcpy — no heap once the pool is warm).
  net::Packet pkt = t_template_;
  pkt.seq = static_cast<std::uint32_t>(sent_);
  if (cfg_.flow_label_spread > 1) {
    // Rotate the outer flow label in place (bytes 1-3 of the fixed header;
    // not covered by the transport pseudo-header checksum).
    const std::uint32_t fl =
        (cfg_.spec.flow_label + sent_ % cfg_.flow_label_spread) & 0xfffffu;
    std::uint8_t* p = pkt.data();
    p[1] = static_cast<std::uint8_t>((p[1] & 0xf0) | ((fl >> 16) & 0x0f));
    p[2] = static_cast<std::uint8_t>((fl >> 8) & 0xff);
    p[3] = static_cast<std::uint8_t>(fl & 0xff);
  }
  if (cfg_.dst_spread > 1) {
    // Rotate a site counter through dst bytes 4-5 (offset 24 + 4 in the
    // fixed header): each value lands in a different /48.
    std::uint8_t* w = pkt.data() + 24 + 4;
    const std::uint16_t old_word = load_be16(w);
    const std::uint16_t new_word = static_cast<std::uint16_t>(
        dst_site_base_ + sent_ % cfg_.dst_spread);
    store_be16(w, new_word);
    if (cfg_.spec.segments.empty() && has_udp_) {
      // The rewritten dst is the transport final destination, so it is in
      // the pseudo-header: fix the UDP checksum incrementally.
      fixup_checksum(pkt.data() + udp_off_ + 6, old_word, new_word);
    }
  }
  if (cfg_.src_port_spread > 1 && has_udp_) {
    // Rotate the UDP source port in place (cached offset; it depends only
    // on SRH presence, which the template fixes).
    std::uint8_t* pp = pkt.data() + udp_off_;
    const std::uint16_t old_port = load_be16(pp);
    const std::uint16_t port = static_cast<std::uint16_t>(
        cfg_.spec.src_port + sent_ % cfg_.src_port_spread);
    store_be16(pp, port);
    // The port is inside the checksummed UDP header (SRH or not).
    fixup_checksum(pp + 6, old_port, port);
  }
  ++sent_;
  return pkt;
}

void TrafGen::tick() {
  const sim::TimeNs now = node_.loop().now();
  if (now >= stop_at_) return;

  // BufferPool hard cap: when the pool refuses admission the packet that was
  // due is dropped at the source (counted here and on the node), never
  // allocated — a mempool running dry refuses skb allocation the same way.
  auto admit = [this, now] {
    if (net::BufferPool::try_admit()) return true;
    ++drops_no_buffer_;
    node_.refuse_send(sim::DropReason::kNoBuffer, now);
    return false;
  };
  const std::size_t burst =
      std::min(cfg_.burst > 0 ? cfg_.burst : 1, net::kMaxBurstPackets);
  // Emit a whole burst at this tick and stretch the tick interval so the
  // average offered rate stays cfg_.pps.
  net::PacketBurst b;
  for (std::size_t k = 0; k < burst && next_send_ < stop_at_; ++k) {
    if (admit()) b.push(next_packet());
    next_send_ += interval_ns_;
  }
  if (!b.empty()) node_.send_burst(std::move(b));
  node_.loop().schedule_at(next_send_, [this] { tick(); });
}

}  // namespace srv6bpf::apps
