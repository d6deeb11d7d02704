#include "apps/sink.h"

#include "apps/socket_filter.h"

namespace srv6bpf::apps {

AppMux::AppMux(sim::Node& node) : node_(node) {
  node_.set_local_handler([this](net::Packet&& pkt, sim::TimeNs now) {
    deliver(std::move(pkt), now);
  });
}

AppMux::~AppMux() = default;

void AppMux::attach_udp_filter(std::uint16_t port,
                               std::shared_ptr<SocketFilter> f) {
  if (f == nullptr)
    udp_filters_.erase(port);
  else
    udp_filters_[port] = std::move(f);
}

void AppMux::deliver(net::Packet&& pkt, sim::TimeNs now) {
  const auto loc = net::locate_transport(pkt);
  if (loc) {
    const std::span<const std::uint8_t> from_transport{
        pkt.data() + loc->offset, pkt.size() - loc->offset};
    if (loc->proto == net::kProtoUdp) {
      if (auto udp = net::UdpHeader::parse(from_transport)) {
        auto it = udp_.find(udp->dst_port);
        if (it != udp_.end()) {
          if (auto fit = udp_filters_.find(udp->dst_port);
              fit != udp_filters_.end() && !fit->second->accept(pkt)) {
            ++filtered_;
            return;
          }
          it->second(pkt, *udp,
                     from_transport.subspan(net::kUdpHeaderSize), now);
          return;
        }
      }
    } else if (loc->proto == net::kProtoTcp) {
      if (auto tcp = net::TcpHeader::parse(from_transport)) {
        auto it = tcp_.find(tcp->dst_port);
        if (it != tcp_.end()) {
          it->second(pkt, *tcp,
                     from_transport.subspan(net::kTcpHeaderSize), now);
          return;
        }
      }
    }
  }
  if (raw_) {
    raw_(pkt, now);
    return;
  }
  ++unmatched_;
}

UdpSink::UdpSink(AppMux& mux, std::uint16_t port) {
  mux.on_udp(port, [this](const net::Packet& pkt, const net::UdpHeader&,
                          std::span<const std::uint8_t> payload,
                          sim::TimeNs now) {
    meter_.record(payload.size(), now);
    if (tracer_ != nullptr) tracer_->record(pkt, now);
    if (reconv_ != nullptr) reconv_->note_delivery(now);
  });
}

}  // namespace srv6bpf::apps
