// The end of a scenario test: the network's drained audit.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/network.h"

namespace srv6bpf {

// Ends a scenario with the network's drained audit (sim::Network::audit):
// every packet a node originated was delivered or dropped with a reason.
// Call it between run windows, never while PDES workers run.
inline void expect_drained(sim::Network& net) {
  net.audit(/*final_drain=*/true);
  EXPECT_EQ(net.violations(), std::vector<std::string>{});
}

}  // namespace srv6bpf
