// §4.2 — Hybrid access networks: SRv6-based link aggregation.
//
// Two labs:
//
//  * HybridLab — the TCP experiment. An aggregation box A and a CPE M are
//    joined by two shaped WAN links (50 Mbps / 30±5 ms RTT and 30 Mbps /
//    5±2 ms RTT, the paper's xDSL+LTE stand-ins). Both A and M run the WRR
//    LWT eBPF program that encapsulates each packet towards one of two
//    End.DT6 SIDs on the far side, weighted 5:3. The CPE additionally hosts
//    an End.DM-TWD SID; a daemon on A sends two-way delay probes over each
//    link, computes the delay difference, and programs a netem delay on the
//    fast link to mitigate TCP reordering.
//
//  * Fig4Lab — the UDP forwarding-performance experiment on the Turris Omnia
//    CPE (Figure 4): plain IPv6 forwarding vs kernel decap vs eBPF WRR
//    (interpreter only, because of the ARM32 JIT bug).
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "apps/daemons.h"
#include "apps/sink.h"
#include "apps/tcp.h"
#include "apps/trafgen.h"
#include "sim/network.h"
#include "usecases/programs.h"

namespace srv6bpf::usecases {

// Loads the WRR LWT program on `node` with its one-entry config map and
// returns the LWT state for a route: each packet is encapsulated towards
// sid1 or sid2, weighted 5:3 (WrrConfig's defaults, the ratio of the two
// WAN links' capacities). Throws std::runtime_error if the verifier rejects
// the program.
std::shared_ptr<seg6::LwtState> make_wrr_lwt(sim::Node& node,
                                             const net::Ipv6Addr& sid1,
                                             const net::Ipv6Addr& sid2);

class HybridLab {
 public:
  // Link 1 (xDSL-like, 50 Mbps, 30±5 ms RTT) and link 2 (LTE-like,
  // 30 Mbps, 5±2 ms RTT), as in the paper; with compensation on, the TWD
  // daemon probes every 50 ms.
  struct Options {
    bool twd_compensation = false;
  };

  explicit HybridLab(const Options& opts);

  // Starts `flows` parallel bulk TCP connections S1 -> S2 and runs for
  // `duration`. Returns aggregated goodput in Mbps.
  double run_tcp(int flows, sim::TimeNs duration);

  sim::Network& net() noexcept { return net_; }
  sim::Link* link1() noexcept { return link1_; }
  sim::Link* link2() noexcept { return link2_; }
  sim::Node& s1() noexcept { return *s1_; }
  sim::Node& aggbox() noexcept { return *a_; }
  sim::Node& cpe() noexcept { return *m_; }
  sim::Node& s2() noexcept { return *s2_; }
  std::uint64_t total_retransmits() const;
  std::uint64_t total_timeouts() const;
  std::uint64_t receiver_ooo_segments() const;
  // Most recent delay difference measured by the TWD daemon (ns).
  std::int64_t measured_delay_diff() const noexcept { return delay_diff_; }
  std::uint64_t twd_probes_returned() const noexcept { return twd_rx_; }

 private:
  void start_twd_daemon();
  void start_probe_cycle();
  void send_twd_probe(int link_index);

  sim::Network net_;
  sim::Node* s1_;
  sim::Node* a_;
  sim::Node* m_;
  sim::Node* s2_;
  sim::Link* link1_ = nullptr;
  sim::Link* link2_ = nullptr;
  int a_link1_side_ = 0;
  int a_link2_side_ = 0;

  std::unique_ptr<apps::AppMux> mux_s1_;
  std::unique_ptr<apps::AppMux> mux_s2_;
  std::unique_ptr<apps::AppMux> mux_a_;
  std::vector<std::unique_ptr<apps::TcpSender>> senders_;
  std::vector<std::unique_ptr<apps::TcpReceiver>> receivers_;

  // TWD daemon state on A.
  bool twd_on_ = false;
  std::uint64_t twd_seq_ = 0;
  std::uint64_t twd_rx_ = 0;
  // Windowed minimum filter per link: the minimum one-way delay over the
  // last N probes tracks propagation + compensation while rejecting
  // queueing spikes (the BBR/LEDBAT trick).
  std::deque<double> owd_window_[2];
  bool owd_valid_[2] = {false, false};
  sim::TimeNs base_delay_[2] = {0, 0}; // netem propagation delay (config)
  sim::TimeNs comp_[2] = {0, 0};       // compensation currently applied
  std::int64_t delay_diff_ = 0;
  void apply_compensation();
};

class Fig4Lab {
 public:
  enum class Mode { kPlainForward, kKernelDecap, kEbpfWrr };

  struct Options {
    Mode mode = Mode::kPlainForward;
  };

  explicit Fig4Lab(const Options& opts);

  // Offers a 1 Gbps iperf3-like UDP flow with the given payload size through
  // the Turris CPE and returns the aggregated goodput in Mbps. Throws
  // std::invalid_argument for a zero payload, which has no packet rate.
  double run_udp(std::size_t payload_size, sim::TimeNs duration);

 private:
  sim::Network net_;
  sim::Node* s1_;
  sim::Node* m_;  // Turris Omnia
  sim::Node* s2_;
  Mode mode_;
  std::unique_ptr<apps::AppMux> mux_s2_;
  std::unique_ptr<apps::UdpSink> sink_;
  std::unique_ptr<apps::TrafGen> flow_;
};

}  // namespace srv6bpf::usecases
