// §4.1 — Passive monitoring of one-way network delays.
//
// Reproduces the paper's deployment: a BPF LWT transit program on the router
// at the head of the monitored path encapsulates every Nth packet with an
// SRH carrying a DM TLV (TX timestamp) and a controller TLV; the router at
// the tail runs End.DM (an End.BPF program) which reports both timestamps to
// a user-space daemon over a perf event ring; the daemon relays them to the
// controller in a UDP datagram.
//
// Lab layout (paper Figure 1, setup 1):
//     S1 ---- R ---- S2        (10 Gbps links)
//
// No node enables its CPU model (sim::Node::cpu), so R adds no queueing:
// an OWD sample reads the S1 -> R link delay plus the probe's time on the
// wire.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/daemons.h"
#include "apps/sink.h"
#include "apps/socket_filter.h"
#include "apps/trafgen.h"
#include "sim/network.h"
#include "usecases/programs.h"

namespace srv6bpf::usecases {

// Loads the DM transit LWT program on `node` with its one-entry config map
// and returns the LWT state for a route: one packet in `ratio` leaves
// encapsulated with the probe SRH [dm_sid, final_seg], whose controller TLV
// names ctrl_addr:ctrl_port. Throws std::runtime_error if the verifier
// rejects the program.
std::shared_ptr<seg6::LwtState> make_dm_encap_lwt(
    sim::Node& node, std::uint64_t ratio, const net::Ipv6Addr& dm_sid,
    const net::Ipv6Addr& final_seg, const net::Ipv6Addr& ctrl_addr,
    std::uint16_t ctrl_port);

struct OwdSample {
  std::uint64_t tx_ns = 0;
  std::uint64_t rx_ns = 0;
  std::uint64_t owd_ns() const noexcept { return rx_ns - tx_ns; }
};

class DelayMonitorLab {
 public:
  struct Options {
    std::uint64_t probe_ratio = 100;      // 1:N probing
    sim::TimeNs link_delay = 2 * sim::kMilli;
    std::uint64_t seed = 42;
  };

  explicit DelayMonitorLab(const Options& opts);

  // Offered plain-IPv6 load S1 -> S2 (the 3 Mpps pktgen stream).
  void offer_traffic(double pps, sim::TimeNs duration,
                     std::size_t payload = 64);
  void run_for(sim::TimeNs t) { net_.run_for(t); }

  sim::Network& net() noexcept { return net_; }
  sim::Node& s1() noexcept { return *s1_; }
  sim::Node& r() noexcept { return *r_; }
  sim::Node& s2() noexcept { return *s2_; }

  // Results.
  const std::vector<OwdSample>& samples() const noexcept { return samples_; }
  std::uint64_t sink_packets() const;
  std::uint64_t probes_emitted() const noexcept { return probes_; }

  // The classic-BPF filters gating both receive sockets, compiled from
  // tcpdump expressions (SO_ATTACH_FILTER style: expression -> cBPF ->
  // eBPF -> whichever engine the node runs): the sink meters only
  // "udp and dst port 7001", the controller parses only "udp and dst port
  // 9999". Each keeps accept/drop counters and its source expression.
  const std::shared_ptr<apps::SocketFilter>& sink_filter() const noexcept {
    return sink_filter_;
  }
  const std::shared_ptr<apps::SocketFilter>& controller_filter()
      const noexcept {
    return ctrl_filter_;
  }

  static constexpr std::uint16_t kControllerPort = 9999;

 private:
  sim::Network net_;
  sim::Node* s1_;
  sim::Node* r_;
  sim::Node* s2_;
  std::unique_ptr<apps::AppMux> mux_s1_;
  std::unique_ptr<apps::AppMux> mux_s2_;
  std::unique_ptr<apps::UdpSink> sink_;
  std::shared_ptr<apps::SocketFilter> sink_filter_;
  std::shared_ptr<apps::SocketFilter> ctrl_filter_;
  std::unique_ptr<apps::TrafGen> gen_;
  std::unique_ptr<apps::PerfPoller> poller_;
  std::vector<OwdSample> samples_;
  std::uint64_t probes_ = 0;
};

}  // namespace srv6bpf::usecases
