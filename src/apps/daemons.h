// User-space daemons: the perf-event consumers of the paper's use cases.
//
// The paper's End.DM daemon is 100 lines of Python on bcc, continuously
// polling the perf ring and relaying measurements to a controller over UDP
// (§4.1). PerfPoller is the generic polling loop; the use-case modules wire
// record-specific parsing on top and send their datagrams, built by
// net::make_udp_packet, from the node.
#pragma once

#include <cstdint>
#include <functional>

#include "ebpf/perf_event.h"
#include "sim/event_loop.h"
#include "sim/node.h"

namespace srv6bpf::apps {

class PerfPoller {
 public:
  using Handler =
      std::function<void(const ebpf::PerfRecord& rec, sim::TimeNs now)>;

  PerfPoller(sim::Node& node, ebpf::PerfEventBuffer& buffer,
             sim::TimeNs poll_interval, Handler handler)
      : node_(node), buffer_(buffer), interval_(poll_interval),
        handler_(std::move(handler)) {}

  void start() { node_.loop().schedule(interval_, [this] { poll(); }); }
  void stop() { stopped_ = true; }
  std::uint64_t consumed() const noexcept { return consumed_; }

 private:
  void poll() {
    if (stopped_) return;
    while (auto rec = buffer_.poll()) {
      ++consumed_;
      handler_(*rec, node_.loop().now());
    }
    node_.loop().schedule(interval_, [this] { poll(); });
  }

  sim::Node& node_;
  ebpf::PerfEventBuffer& buffer_;
  sim::TimeNs interval_;
  Handler handler_;
  bool stopped_ = false;
  std::uint64_t consumed_ = 0;
};

}  // namespace srv6bpf::apps
