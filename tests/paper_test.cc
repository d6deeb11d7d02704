// The paper's anchor table (bench/paper.h), checked at 20 ms windows. Every
// Fig. 2 and Fig. 3 ratio there lies within 0.002 of its value at
// bench_paper's 200 ms windows; §4.2 keeps its 12 s runs.
#include <gtest/gtest.h>

#include "../bench/paper.h"

namespace srv6bpf::bench {
namespace {

TEST(Paper, EveryAnchorHoldsAt20msWindows) {
  const PaperData d = run_paper(20 * sim::kMilli);
  for (const Anchor& a : kAnchors) {
    const double measured = a.measure(d);
    EXPECT_TRUE(a.holds(measured))
        << a.section << " " << a.name << " = " << measured << " outside ["
        << a.lo << ", " << a.hi << ")";
  }
}

}  // namespace
}  // namespace srv6bpf::bench
