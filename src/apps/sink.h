// Local packet delivery plumbing for hosts: a per-node demultiplexer (AppMux)
// and the counting sinks the benchmarks read their kpps/goodput numbers from.
//
// A socket takes a classic filter through AppMux::attach_udp_filter
// (SO_ATTACH_FILTER on the listening socket). Filters are SocketFilter
// instances — compiled tcpdump expressions or raw classic BPF, translated to
// eBPF and run on the node's engines (apps/socket_filter.h).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>

#include "net/packet.h"
#include "net/transport.h"
#include "sim/latency_tracer.h"
#include "sim/node.h"
#include "sim/stats.h"

namespace srv6bpf::apps {

class SocketFilter;

// Installs itself as the node's local handler and dispatches by transport
// protocol + destination port. At most one AppMux per node.
class AppMux {
 public:
  explicit AppMux(sim::Node& node);
  ~AppMux();  // out of line: SocketFilter is forward-declared here

  using UdpHandler = std::function<void(
      const net::Packet& pkt, const net::UdpHeader& udp,
      std::span<const std::uint8_t> payload, sim::TimeNs now)>;
  using TcpHandler = std::function<void(
      const net::Packet& pkt, const net::TcpHeader& tcp,
      std::span<const std::uint8_t> payload, sim::TimeNs now)>;
  using RawHandler = std::function<void(const net::Packet& pkt,
                                        sim::TimeNs now)>;

  void on_udp(std::uint16_t port, UdpHandler h) { udp_[port] = std::move(h); }
  void on_tcp(std::uint16_t port, TcpHandler h) { tcp_[port] = std::move(h); }
  // Fallback for everything else (ICMPv6, unmatched ports).
  void on_raw(RawHandler h) { raw_ = std::move(h); }

  // Per-socket filter: consulted after dispatch resolves to `port`'s UDP
  // handler and before the handler runs (SO_ATTACH_FILTER analogue). Null
  // detaches.
  void attach_udp_filter(std::uint16_t port, std::shared_ptr<SocketFilter> f);

  sim::Node& node() noexcept { return node_; }
  std::uint64_t unmatched() const noexcept { return unmatched_; }
  // Packets dropped by a per-socket filter.
  std::uint64_t filtered() const noexcept { return filtered_; }

 private:
  void deliver(net::Packet&& pkt, sim::TimeNs now);

  sim::Node& node_;
  std::map<std::uint16_t, UdpHandler> udp_;
  std::map<std::uint16_t, TcpHandler> tcp_;
  RawHandler raw_;
  std::map<std::uint16_t, std::shared_ptr<SocketFilter>> udp_filters_;
  std::uint64_t unmatched_ = 0;
  std::uint64_t filtered_ = 0;
};

// Counts UDP datagrams to a port: the S2 "sink" of the paper's setup 1.
// A filter attached to the port (AppMux::attach_udp_filter) gates what
// reaches the sink. Deliveries are timestamped into the RateMeter (so
// report() can flag microbursts from inter-arrival gaps) and, when
// observers are attached, fed to a sim::LatencyTracer (per-flow-class
// end-to-end latency) and a sim::ReconvergenceClock (failure blackhole
// measurement).
class UdpSink {
 public:
  UdpSink(AppMux& mux, std::uint16_t port);

  // Observers are borrowed, not owned: they must outlive the sink (or be
  // detached with nullptr first).
  void set_tracer(sim::LatencyTracer* tracer) noexcept { tracer_ = tracer; }
  void set_reconvergence_clock(sim::ReconvergenceClock* clock) noexcept {
    reconv_ = clock;
  }

  std::uint64_t packets() const noexcept { return meter_.packets(); }
  std::uint64_t payload_bytes() const noexcept { return meter_.bytes(); }
  const sim::RateMeter& meter() const noexcept { return meter_; }
  void reset() { meter_.reset(); }

 private:
  sim::RateMeter meter_;
  sim::LatencyTracer* tracer_ = nullptr;
  sim::ReconvergenceClock* reconv_ = nullptr;
};

}  // namespace srv6bpf::apps
