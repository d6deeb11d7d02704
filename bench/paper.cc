// The paper's figures at 200 ms windows: prints the data of Figs. 2-4 and of
// the §4.2 TCP runs, then the anchor table of bench/paper.h. Exits 1 when an
// anchor leaves its band or a lab's drained audit finds a conservation
// violation, printing "GATE: ..." on stderr for each one.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "paper.h"

using namespace srv6bpf;
using namespace srv6bpf::bench;

namespace {

void print_figures(const PaperData& d) {
  const double raw = d.fig2[kRaw].kpps;
  print_header("Figure 2: forwarding rate of seg6local endpoint functions on R");
  std::printf("(vector datapath: R drains bursts of %zu per service event; "
              "rates are burst-invariant, see bench_burst_sweep)\n",
              sim::kDefaultRxBurst);
  std::printf("\n%-26s %10s %10s  %-6s %s\n", "function", "kpps",
              "% of raw", "SLOC", "note");
  for (const Fig2Row& row : d.fig2)
    std::printf("%-26s %10.1f %9.1f%%  %-6s %s\n", row.name, row.kpps,
                100.0 * row.kpps / raw,
                row.sloc ? std::to_string(row.sloc).c_str() : "-", row.note);

  print_header("Figure 3: passive delay monitoring overhead on R");
  std::printf("\nraw IPv6 forwarding baseline: %.1f kpps\n\n", raw);
  std::printf("%-16s %10s %12s\n", "experiment", "kpps", "% of raw");
  for (const Fig3Row& row : d.fig3)
    std::printf("%-16s %10.1f %11.1f%%\n", row.name, row.kpps,
                100.0 * row.kpps / raw);

  print_header("Figure 4: aggregated UDP goodput through the Turris Omnia");
  std::printf("(vector datapath: the CPE drains bursts of %zu per service "
              "event; goodput is burst-invariant)\n", sim::kDefaultRxBurst);
  std::printf("\n%8s %18s %18s %18s\n", "payload", "IPv6 forward.",
              "Kernel decap.", "eBPF WRR");
  std::printf("%8s %18s %18s %18s\n", "(bytes)", "(Mbps)", "(Mbps)", "(Mbps)");
  for (std::size_t i = 0; i < d.fig4.size(); ++i)
    std::printf("%8zu %18.1f %18.1f %18.1f\n", kFig4Payloads[i],
                d.fig4[i].plain, d.fig4[i].decap, d.fig4[i].wrr);

  print_header("§4.2 TCP goodput over the hybrid access network");
  std::printf("\n%-34s %10s %8s %9s %8s\n", "configuration", "Mbps", "rtx",
              "timeouts", "ooo-seg");
  for (const TcpRow& row : d.tcp)
    std::printf("%-34s %10.1f %8llu %9llu %8llu\n", row.name, row.mbps,
                (unsigned long long)row.rtx, (unsigned long long)row.timeouts,
                (unsigned long long)row.ooo);
}

// Prints the anchor table, one group per section, and returns the number of
// anchors outside their band.
int print_anchors(const PaperData& d) {
  print_header("Paper anchors: each holds when lo <= measured < hi");
  std::printf("\n  %-34s %7s %16s %10s\n", "anchor", "paper", "band",
              "measured");
  int misses = 0;
  const char* section = "";
  for (const Anchor& a : kAnchors) {
    if (std::strcmp(section, a.section) != 0)
      std::printf("%s\n", section = a.section);
    char paper[16] = "-", band[40];
    if (!std::isnan(a.paper)) std::snprintf(paper, sizeof paper, "%g", a.paper);
    std::snprintf(band, sizeof band, "[%g, %g)", a.lo, a.hi);
    const double v = a.measure(d);
    const bool ok = a.holds(v);
    misses += !ok;
    std::printf("  %-34s %7s %16s %10.3f  %s\n", a.name, paper, band, v,
                ok ? "ok" : "MISS");
    if (!ok)
      std::fprintf(stderr, "GATE: %s %s = %.3f outside %s\n", a.section,
                   a.name, v, band);
  }
  std::printf("\n%zu of %zu anchors hold\n", std::size(kAnchors) - misses,
              std::size(kAnchors));
  return misses;
}

}  // namespace

int main() {
  const PaperData d = run_paper(200 * sim::kMilli);
  print_figures(d);
  const int misses = print_anchors(d);
  for (const std::string& v : d.violations)
    std::fprintf(stderr, "GATE: ledger of %s\n", v.c_str());
  return misses == 0 && d.violations.empty() ? 0 : 1;
}
