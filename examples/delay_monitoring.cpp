// §4.1 — Passive one-way delay monitoring, end to end.
//
// A transit eBPF program on S1 encapsulates 1 in 50 packets with an SRH
// carrying a DM TLV; End.DM on R reports TX/RX timestamps over a perf event
// ring; a daemon relays them to the controller, which prints OWD statistics.
//
// The userspace receive paths are driven entirely by compiled filter
// expressions: the sink and the controller each attach a tcpdump-style
// filter (compiled to classic BPF, translated to eBPF, run on the node's
// engine) to their socket, SO_ATTACH_FILTER style.
//
//   $ ./delay_monitoring
#include <algorithm>
#include <cstdio>
#include <numeric>

#include "apps/socket_filter.h"
#include "usecases/delay_monitor.h"

using namespace srv6bpf;

int main() {
  usecases::DelayMonitorLab::Options opts;
  opts.probe_ratio = 50;
  opts.link_delay = 5 * sim::kMilli;  // 5 ms per hop
  usecases::DelayMonitorLab lab(opts);

  std::printf("sink filter:       filter(\"%s\")\n",
              lab.sink_filter()->expr().c_str());
  std::printf("controller filter: filter(\"%s\")\n",
              lab.controller_filter()->expr().c_str());
  std::printf("offering 20k pps of plain IPv6 for 1 s (probing 1:%llu)...\n",
              static_cast<unsigned long long>(opts.probe_ratio));
  lab.offer_traffic(/*pps=*/20000, /*duration=*/sim::kSecond);
  lab.run_for(1500 * sim::kMilli);

  const auto& samples = lab.samples();
  std::printf("sink received %llu packets (filter accepted %llu / dropped "
              "%llu); controller collected %zu OWD samples (filter accepted "
              "%llu)\n",
              static_cast<unsigned long long>(lab.sink_packets()),
              static_cast<unsigned long long>(lab.sink_filter()->accepted()),
              static_cast<unsigned long long>(lab.sink_filter()->dropped()),
              samples.size(),
              static_cast<unsigned long long>(
                  lab.controller_filter()->accepted()));
  if (samples.empty()) return 1;

  std::vector<double> owd;
  owd.reserve(samples.size());
  for (const auto& s : samples) owd.push_back(s.owd_ns() / 1e6);
  std::sort(owd.begin(), owd.end());
  const double mean =
      std::accumulate(owd.begin(), owd.end(), 0.0) / owd.size();
  std::printf("one-way delay S1->R: min %.3f ms, median %.3f ms, "
              "mean %.3f ms, max %.3f ms (link delay: 5 ms)\n",
              owd.front(), owd[owd.size() / 2], mean, owd.back());
  return 0;
}
