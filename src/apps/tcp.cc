#include "apps/tcp.h"

#include <algorithm>
#include <cstring>

#include "net/checksum.h"
#include "util/byteorder.h"

namespace srv6bpf::apps {

namespace {
// Sequence-space comparison helpers (wrap-safe).
bool seq_lt(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) < 0;
}
bool seq_le(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) <= 0;
}
}  // namespace

net::Packet make_tcp_segment(const net::Ipv6Addr& src,
                             const net::Ipv6Addr& dst, std::uint16_t sport,
                             std::uint16_t dport, std::uint32_t seq,
                             std::uint32_t ack, std::uint8_t flags,
                             std::size_t payload_len) {
  const std::size_t total =
      net::kIpv6HeaderSize + net::kTcpHeaderSize + payload_len;
  net::Packet pkt;
  std::uint8_t* p = pkt.push_front(total);

  net::Ipv6Header ip;
  ip.src = src;
  ip.dst = dst;
  ip.next_header = net::kProtoTcp;
  ip.hop_limit = 64;
  ip.payload_length =
      static_cast<std::uint16_t>(net::kTcpHeaderSize + payload_len);
  ip.write(p);

  net::TcpHeader th;
  th.src_port = sport;
  th.dst_port = dport;
  th.seq = seq;
  th.ack = ack;
  th.flags = flags;
  th.window = 0xffff;
  th.checksum = 0;
  th.write(p + net::kIpv6HeaderSize);
  if (payload_len > 0)
    std::memset(p + net::kIpv6HeaderSize + net::kTcpHeaderSize, 0x42,
                payload_len);

  const std::uint16_t csum = net::transport_checksum(
      src, dst, net::kProtoTcp,
      {p + net::kIpv6HeaderSize, net::kTcpHeaderSize + payload_len});
  store_be16(p + net::kIpv6HeaderSize + 16, csum);
  return pkt;
}

// ---- TcpSender ---------------------------------------------------------------

TcpSender::TcpSender(sim::Node& node, AppMux& mux, Config cfg)
    : node_(node), cfg_(cfg) {
  cwnd_ = kInitCwndSegs * kMss;
  ssthresh_ = kInitSsthresh;
  mux.on_tcp(cfg_.src_port,
             [this](const net::Packet&, const net::TcpHeader& h,
                    std::span<const std::uint8_t>, sim::TimeNs now) {
               if (h.flags & net::kTcpAck) on_ack(h, now);
             });
}

void TcpSender::start() {
  stop_at_ = cfg_.start_at + cfg_.duration;
  node_.loop().schedule_at(cfg_.start_at, [this] {
    try_send(node_.loop().now());
    arm_rto(node_.loop().now());
  });
}

void TcpSender::send_segment(std::uint32_t seq, bool is_rtx, sim::TimeNs now) {
  net::Packet pkt = make_tcp_segment(cfg_.src, cfg_.dst, cfg_.src_port,
                                     cfg_.dst_port, seq, 0, net::kTcpAck,
                                     kMss);
  ++segs_sent_;
  if (is_rtx) {
    ++retransmits_;
    rtt_samples_.erase(seq + kMss);  // Karn: never sample retransmits
  } else {
    rtt_samples_[seq + kMss] = now;
  }
  node_.send(std::move(pkt));
}

void TcpSender::try_send(sim::TimeNs now) {
  if (now >= stop_at_) return;
  if (cwnd_ > kMaxCwnd) cwnd_ = kMaxCwnd;
  while (snd_nxt_ - snd_una_ + kMss <= cwnd_) {
    send_segment(snd_nxt_, false, now);
    snd_nxt_ += kMss;
  }
}

void TcpSender::update_rtt(sim::TimeNs sample) {
  if (srtt_ == 0) {
    srtt_ = sample;
    rttvar_ = sample / 2;
  } else {
    const auto diff = srtt_ > sample ? srtt_ - sample : sample - srtt_;
    rttvar_ = (3 * rttvar_ + diff) / 4;
    srtt_ = (7 * srtt_ + sample) / 8;
  }
  rto_ = std::max(kMinRto, srtt_ + 4 * rttvar_);
}

void TcpSender::arm_rto(sim::TimeNs now) {
  const std::uint64_t epoch = ++rto_epoch_;
  const sim::TimeNs deadline = now + (rto_ << rto_backoff_);
  node_.loop().schedule_at(deadline, [this, epoch] {
    if (epoch == rto_epoch_) on_rto_fire();
  });
}

void TcpSender::on_rto_fire() {
  const sim::TimeNs now = node_.loop().now();
  if (now >= stop_at_) return;
  if (snd_una_ == snd_nxt_) {  // idle: nothing outstanding
    try_send(now);
    arm_rto(now);
    return;
  }
  ++timeouts_;
  const std::uint32_t flight = snd_nxt_ - snd_una_;
  ssthresh_ = std::max(flight / 2, 2 * kMss);
  cwnd_ = kMss;
  in_recovery_ = false;
  dupacks_ = 0;
  rto_backoff_ = std::min(rto_backoff_ + 1, 6);
  rtt_samples_.clear();
  send_segment(snd_una_, true, now);
  // Go-back-N: everything beyond the retransmitted segment is resent as
  // slow start reopens the window (classic Reno RTO recovery; the receiver
  // discards duplicates). Without this, scattered losses cost one RTO each.
  snd_nxt_ = snd_una_ + kMss;
  arm_rto(now);
}

void TcpSender::on_ack(const net::TcpHeader& h, sim::TimeNs now) {
  const std::uint32_t ack = h.ack;
  if (now >= stop_at_) return;

  if (seq_lt(snd_una_, ack)) {
    // ---- New data acknowledged ----
    // After a go-back-N RTO rewind the receiver may ack beyond snd_nxt_
    // (its reassembly queue already held the data); fold that in.
    if (seq_lt(snd_nxt_, ack)) snd_nxt_ = ack;
    const std::uint32_t acked = ack - snd_una_;
    snd_una_ = ack;
    rto_backoff_ = 0;

    auto it = rtt_samples_.find(ack);
    if (it != rtt_samples_.end()) {
      update_rtt(now - it->second);
      rtt_samples_.erase(rtt_samples_.begin(), std::next(it));
    } else {
      rtt_samples_.erase(rtt_samples_.begin(),
                         rtt_samples_.lower_bound(ack + 1));
    }

    if (in_recovery_) {
      if (seq_le(recover_, ack)) {
        // Full ACK: leave recovery (NewReno).
        in_recovery_ = false;
        cwnd_ = ssthresh_;
        dupacks_ = 0;
      } else {
        // Partial ACK. In genuine multi-loss recovery these arrive once per
        // RTT (each retransmission must be acked first); under reordering
        // they arrive at line rate as the displaced originals land. Throttle
        // retransmissions to one per half-RTT — faithful for real loss,
        // avoids a go-back-N spray for reordering.
        const sim::TimeNs gap = std::max<sim::TimeNs>(srtt_ / 2, sim::kMilli);
        if (now - last_partial_rtx_ >= gap) {
          last_partial_rtx_ = now;
          send_segment(snd_una_, true, now);
          ++fast_rtx_;
        }
        cwnd_ = cwnd_ > acked ? cwnd_ - acked + kMss : kMss;
      }
    } else {
      dupacks_ = 0;
      if (cwnd_ < ssthresh_) {
        cwnd_ += std::min(acked, kMss);  // slow start
      } else {
        cwnd_ += std::max<std::uint32_t>(
            1, static_cast<std::uint32_t>(
                   static_cast<std::uint64_t>(kMss) * kMss / cwnd_));
      }
    }
    arm_rto(now);
    try_send(now);
    return;
  }

  if (ack == snd_una_ && snd_nxt_ != snd_una_) {
    // ---- Duplicate ACK ----
    ++dupacks_;
    if (!in_recovery_ && dupacks_ == kDupackThreshold) {
      in_recovery_ = true;
      recover_ = snd_nxt_;
      const std::uint32_t flight = snd_nxt_ - snd_una_;
      ssthresh_ = std::max(flight / 2, 2 * kMss);
      cwnd_ = ssthresh_ + 3 * kMss;
      send_segment(snd_una_, true, now);
      ++fast_rtx_;
      arm_rto(now);
    } else if (in_recovery_) {
      cwnd_ += kMss;  // window inflation per extra dupack
      try_send(now);
    }
  }
}

// ---- TcpReceiver ---------------------------------------------------------------

TcpReceiver::TcpReceiver(sim::Node& node, AppMux& mux, Config cfg)
    : node_(node), cfg_(cfg) {
  mux.on_tcp(cfg_.port,
             [this](const net::Packet& pkt, const net::TcpHeader& h,
                    std::span<const std::uint8_t> payload, sim::TimeNs now) {
               on_segment(pkt, h, payload, now);
             });
}

void TcpReceiver::on_segment(const net::Packet& pkt, const net::TcpHeader& h,
                             std::span<const std::uint8_t> payload,
                             sim::TimeNs /*now*/) {
  const auto loc = net::locate_transport(pkt);
  const net::Ipv6Addr peer =
      loc ? net::Ipv6View(const_cast<std::uint8_t*>(pkt.data()) + loc->inner_ip)
                .src()
          : net::Ipv6Addr{};

  if (!payload.empty()) {
    const std::uint32_t start = h.seq;
    const std::uint32_t end = start + static_cast<std::uint32_t>(payload.size());
    if (seq_le(end, rcv_nxt_)) {
      // Entirely old: pure duplicate, just re-ACK.
    } else if (seq_le(start, rcv_nxt_)) {
      // Extends the in-order prefix.
      delivered_ += end - rcv_nxt_;
      rcv_nxt_ = end;
      // Absorb any contiguous out-of-order data.
      auto it = ooo_.begin();
      while (it != ooo_.end() && seq_le(it->first, rcv_nxt_)) {
        if (seq_lt(rcv_nxt_, it->second)) {
          delivered_ += it->second - rcv_nxt_;
          rcv_nxt_ = it->second;
        }
        it = ooo_.erase(it);
      }
    } else {
      // Hole: stash.
      ++ooo_segments_;
      auto [it, inserted] = ooo_.emplace(start, end);
      if (!inserted && seq_lt(it->second, end)) it->second = end;
    }
  }
  send_ack(peer, h.src_port);
}

void TcpReceiver::send_ack(const net::Ipv6Addr& to, std::uint16_t to_port) {
  node_.send(make_tcp_segment(cfg_.addr, to, cfg_.port, to_port, 0, rcv_nxt_,
                              net::kTcpAck, 0));
}

}  // namespace srv6bpf::apps
