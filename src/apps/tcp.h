// A compact NewReno TCP for the hybrid-access experiment (§4.2).
//
// The paper's observation — per-packet Weighted Round-Robin across links with
// 30 ms and 5 ms RTTs collapses TCP goodput to a few Mbps — is a property of
// duplicate-ACK-based loss recovery misreading reordering as loss. This
// implementation models exactly the machinery that matters:
//   * slow start / congestion avoidance (AIMD),
//   * three-dupack fast retransmit + NewReno fast recovery (partial ACKs),
//   * RTO with exponential backoff and Karn's rule for RTT samples,
//   * a cumulative-ACK receiver with an out-of-order reassembly queue.
// No SACK — like the GRE/nttcp setups the paper compares against.
#pragma once

#include <cstdint>
#include <map>

#include "apps/sink.h"
#include "net/packet.h"
#include "net/transport.h"
#include "sim/event_loop.h"
#include "sim/node.h"

namespace srv6bpf::apps {

// Bulk-data sender: an infinite stream (nttcp-style) towards dst:port.
class TcpSender {
 public:
  struct Config {
    net::Ipv6Addr src;
    net::Ipv6Addr dst;
    std::uint16_t src_port = 40000;
    std::uint16_t dst_port = 5001;
    sim::TimeNs start_at = 0;
    sim::TimeNs duration = 10 * sim::kSecond;
  };

  static constexpr std::uint32_t kMss = 1400;  // payload bytes per segment
  static constexpr std::uint32_t kInitCwndSegs = 10;
  // Initial ssthresh (a receiver-window stand-in) and an absolute window
  // cap; both bound the slow-start overshoot, whose loss bursts NewReno —
  // without SACK — repairs only one hole per RTT.
  static constexpr std::uint32_t kInitSsthresh = 256 * 1024;
  static constexpr std::uint32_t kMaxCwnd = 384 * 1024;  // a realistic rwnd
  static constexpr sim::TimeNs kMinRto = 200 * sim::kMilli;
  // Classic NewReno (no SACK), as in §4.2: a fixed three-dupack threshold,
  // so WRR's reordering across unequal RTTs reads as loss.
  static constexpr int kDupackThreshold = 3;

  TcpSender(sim::Node& node, AppMux& mux, Config cfg);
  void start();

  // ---- statistics ----
  std::uint64_t segments_sent() const noexcept { return segs_sent_; }
  std::uint64_t retransmits() const noexcept { return retransmits_; }
  std::uint64_t fast_retransmits() const noexcept { return fast_rtx_; }
  std::uint64_t timeouts() const noexcept { return timeouts_; }
  std::uint32_t cwnd() const noexcept { return cwnd_; }

 private:
  void on_ack(const net::TcpHeader& h, sim::TimeNs now);
  void send_segment(std::uint32_t seq, bool is_rtx, sim::TimeNs now);
  void try_send(sim::TimeNs now);
  void arm_rto(sim::TimeNs now);
  void on_rto_fire();
  void update_rtt(sim::TimeNs sample);

  sim::Node& node_;
  Config cfg_;
  sim::TimeNs stop_at_ = 0;

  // Connection state (sequence space in bytes; starts at 0).
  std::uint32_t snd_una_ = 0;
  std::uint32_t snd_nxt_ = 0;
  std::uint32_t cwnd_ = 0;      // bytes
  std::uint32_t ssthresh_ = 0;  // bytes
  int dupacks_ = 0;
  bool in_recovery_ = false;
  std::uint32_t recover_ = 0;
  sim::TimeNs last_partial_rtx_ = 0;

  // RTT estimation (Jacobson/Karels), Karn-sampled.
  sim::TimeNs srtt_ = 0;
  sim::TimeNs rttvar_ = 0;
  sim::TimeNs rto_ = sim::kSecond;
  int rto_backoff_ = 0;
  std::uint64_t rto_epoch_ = 0;  // cancels stale timer events
  std::map<std::uint32_t, sim::TimeNs> rtt_samples_;  // end_seq -> send time

  std::uint64_t segs_sent_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t fast_rtx_ = 0;
  std::uint64_t timeouts_ = 0;
};

// Cumulative-ACK receiver with reassembly; reports in-order goodput.
class TcpReceiver {
 public:
  struct Config {
    net::Ipv6Addr addr;           // our address (ACK source)
    std::uint16_t port = 5001;
  };

  TcpReceiver(sim::Node& node, AppMux& mux, Config cfg);

  std::uint64_t delivered_bytes() const noexcept { return delivered_; }
  std::uint64_t ooo_segments() const noexcept { return ooo_segments_; }
  double goodput_mbps(sim::TimeNs window) const noexcept {
    return window == 0 ? 0.0
                       : static_cast<double>(delivered_) * 8e3 /
                             static_cast<double>(window);
  }

 private:
  void on_segment(const net::Packet& pkt, const net::TcpHeader& h,
                  std::span<const std::uint8_t> payload, sim::TimeNs now);
  void send_ack(const net::Ipv6Addr& to, std::uint16_t to_port);

  sim::Node& node_;
  Config cfg_;
  std::uint32_t rcv_nxt_ = 0;
  std::map<std::uint32_t, std::uint32_t> ooo_;  // start -> end
  std::uint64_t delivered_ = 0;
  std::uint64_t ooo_segments_ = 0;
};

// Shared wire format helper: builds an IPv6+TCP segment with `payload_len`
// dummy payload bytes.
net::Packet make_tcp_segment(const net::Ipv6Addr& src,
                             const net::Ipv6Addr& dst, std::uint16_t sport,
                             std::uint16_t dport, std::uint32_t seq,
                             std::uint32_t ack, std::uint8_t flags,
                             std::size_t payload_len);

}  // namespace srv6bpf::apps
