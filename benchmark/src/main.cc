// srv6bench: one workload of the repository benchmark, in its own process.
//
//   srv6bench --workload endbpf_tag --seed 1 --seconds 10 [--trace]
//             [--out-dir benchmark/out]
//
// Run protocol (identical on every commit; run length is simulated time, so
// two commits do exactly the same work):
//   1. build the workload; it is the build that runs;
//   2. warm up for 30 ms of simulated time (fills RX rings, buffer pools and
//      event-queue storage);
//   3. run a window of `seconds` x the workload's window_ms_per_s simulated
//      ms, split into 200 equal slices, each timed with steady_clock and
//      followed by one timed unit of host-reference work (host_ref.h); the
//      conservation ledger is audited at every slice boundary, and after
//      every sixth slice the workload is built again from scratch, timed
//      with a reference unit of its own, and thrown away;
//   4. let the sources stop, drain, and run the checks — including a fresh
//      rebuild replayed to slice 16 whose digest must match (on min(4, nproc)
//      PDES threads for the partitioned workload, whose window runs on one).
// The end-to-end timings are host-corrected: each slice's and each build's
// wall time is scaled by its reference unit (corrected_median), and
// sim_pps_norm and setup_s are medians of the scaled times.
// With --trace the process first does an untraced pass, then a traced pass of
// the same window (each half as long as an untraced run's) with spans kept in
// memory, then times each layer's public calls on a separate instance
// (layers.cc); it writes
// <out-dir>/<workload>.trace.json (Chrome trace events) and
// <out-dir>/<workload>.layers.json and reports the per-layer metrics.
//
// The last line of stdout is one JSON object; benchmark/run.py reads it.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "host_ref.h"
#include "layers.h"
#include "net/buffer_pool.h"
#include "spans.h"
#include "util/alloc_hooks.h"
#include "workloads.h"

using namespace srv6bpf;
using namespace srv6bench;

namespace {

constexpr std::size_t kSetupBuilds = 31;
constexpr std::size_t kSlices = 200;
constexpr std::size_t kPrefixSlices = 16;
constexpr std::size_t kMaxThreads = 4;

// Host correction. An interval that took t of wall time, followed by a
// reference unit (host_ref.h) that took r, counts as
// t * (kHostRefNominalS / r)^e: about its wall time on a host where the unit
// takes kHostRefNominalS, a typical time on a 4-vCPU Xeon KVM guest (it sets
// only the scale of the metrics). e is how steeply the interval's time follows the unit's across the
// host's slow and fast phases, fitted over all four workloads
// (benchmark/README.md, "Host correction"): a window slice slows by about the
// 1.6th power of the unit's slowdown, a build by about its 0.75th power.
constexpr double kHostRefNominalS = 1.8e-3;
constexpr double kSliceElasticity = 1.6;
constexpr double kBuildElasticity = 0.75;

// Median of the host-corrected times t[k] * (nominal / ref_s[k])^elasticity.
double corrected_median(const std::vector<double>& t,
                        const std::vector<double>& ref_s, double elasticity) {
  std::vector<double> c;
  c.reserve(t.size());
  for (std::size_t k = 0; k < t.size(); ++k)
    c.push_back(t[k] * std::pow(kHostRefNominalS / ref_s[k], elasticity));
  return quantile(c, 0.5);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  unsigned seconds = 10;
  bool trace = false;
  std::string out_dir = "benchmark/out";
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const bool has_value = i + 1 < argc;
    if (k == "--trace") {
      a.trace = true;
    } else if (k == "--workload" && has_value) {
      a.workload = argv[++i];
    } else if (k == "--seed" && has_value) {
      a.seed = std::stoull(argv[++i]);
    } else if (k == "--seconds" && has_value) {
      a.seconds = static_cast<unsigned>(std::stoul(argv[++i]));
    } else if (k == "--out-dir" && has_value) {
      a.out_dir = argv[++i];
    } else {
      return false;
    }
  }
  return find_workload(a.workload) != nullptr && a.seconds >= 1;
}

double seconds_since(std::uint64_t t0) {
  return static_cast<double>(wall_ns() - t0) / 1e9;
}

double peak_rss_mib() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;
  return 0;
}

// One pass of steps 1-4 over a workload.
struct Pass {
  std::vector<double> setup_s;   // one per build
  std::vector<double> setup_ref_s;  // the reference unit after each build
  std::vector<double> slice_s;   // one per slice
  std::vector<double> slice_ref_s;  // the reference unit after each slice
  std::vector<double> depth;     // pending events at each slice boundary
  WindowCounts window;
  LayerCounts before, after;     // counters at window start and end
  std::uint64_t allocs = 0;      // operator-new calls in the window
  std::uint64_t pool_high_water = 0;
  std::uint64_t prefix_digest = 0;
  std::uint64_t final_digest = 0;
  std::vector<Check> checks;
};

Pass run_pass(const WorkloadInfo& info, const Args& a, std::size_t builds,
              HostRef& ref, SpanRecorder* spans) {
  const TimeNs window =
      static_cast<TimeNs>(a.seconds) * info.window_ms_per_s * sim::kMilli;
  const TimeNs slice = window / kSlices;
  BuildOptions opts;
  opts.seed = a.seed;
  opts.traffic = kWarmup + window;
  opts.spans = spans;

  Pass p;
  // Reserved so the window's allocation count is the library's alone.
  p.setup_s.reserve(builds);
  p.setup_ref_s.reserve(builds);
  p.slice_s.reserve(kSlices);
  p.slice_ref_s.reserve(kSlices);
  p.depth.reserve(kSlices);
  auto build = [&] {
    std::unique_ptr<Workload> built;
    {
      SpanRecorder::Scope span(spans, "build");
      const std::uint64_t t0 = wall_ns();
      built = make_workload(info.name, opts);
      p.setup_s.push_back(seconds_since(t0));
    }
    p.setup_ref_s.push_back(ref.run_s());
    return built;
  };
  std::unique_ptr<Workload> w;
  {
    SpanRecorder::Scope setup(spans, "setup");
    w = build();
  }
  {
    SpanRecorder::Scope warm(spans, "warmup");
    w->run_until(kWarmup);
  }

  // The other builds are thrown away. They run between slices, spread over
  // the window, so that setup_s samples the whole run rather than the
  // host's state at one moment; their allocations are not the window's.
  const std::size_t build_every = builds > 1 ? kSlices / (builds - 1) : 0;
  std::uint64_t build_allocs = 0;
  p.before = count_layers(*w);
  net::BufferPool::reset_stats();
  const std::uint64_t allocs0 = util::alloc_counters().news;
  {
    SpanRecorder::Scope win(spans, "window");
    for (std::size_t k = 1; k <= kSlices; ++k) {
      std::uint64_t t0;
      {
        SpanRecorder::Scope s(spans, "slice");
        t0 = wall_ns();
        w->run_until(kWarmup + slice * k);
        p.slice_s.push_back(seconds_since(t0));
      }
      p.slice_ref_s.push_back(ref.run_s());
      w->auditor().audit(w->now());
      p.depth.push_back(static_cast<double>(w->events_pending()));
      if (k == kPrefixSlices) p.prefix_digest = w->digest();
      if (build_every != 0 && k % build_every == 0 &&
          p.setup_s.size() < builds) {
        const std::uint64_t a0 = util::alloc_counters().news;
        build();
        build_allocs += util::alloc_counters().news - a0;
      }
    }
  }
  p.allocs = util::alloc_counters().news - allocs0 - build_allocs;
  p.pool_high_water = net::BufferPool::stats().high_water;
  p.after = count_layers(*w);
  p.window = {p.after.offered - p.before.offered,
              p.after.delivered - p.before.delivered, window};

  w->run_until(kWarmup + window + kDrain);
  w->auditor().audit(w->now(), /*final_drain=*/true);
  p.final_digest = w->digest();

  const auto& v = w->auditor().violations();
  p.checks.push_back({"ledger", v.empty(),
                      v.empty() ? std::to_string(w->auditor().audits_run()) +
                                      " audits balanced, drained to 0"
                                : v.front()});
  p.checks.push_back({"delivered", p.window.delivered > 0,
                      std::to_string(p.window.delivered) + " of " +
                          std::to_string(p.window.offered) +
                          " offered packets delivered in the window"});
  w->check(p.checks, p.window);
  return p;
}

// Rebuilds the workload and replays it to the prefix slice; returns the
// digest there and the wall time of the prefix slices.
std::pair<std::uint64_t, double> replay_prefix(const WorkloadInfo& info,
                                               const Args& a,
                                               std::size_t threads) {
  const TimeNs window =
      static_cast<TimeNs>(a.seconds) * info.window_ms_per_s * sim::kMilli;
  BuildOptions opts;
  opts.seed = a.seed;
  opts.traffic = kWarmup + window;
  opts.threads = threads;
  auto w = make_workload(info.name, opts);
  w->run_until(kWarmup);
  const std::uint64_t t0 = wall_ns();
  for (std::size_t k = 1; k <= kPrefixSlices; ++k)
    w->run_until(kWarmup + window / kSlices * k);
  return {w->digest(), seconds_since(t0)};
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void print_metric(std::FILE* f, const char* name, double value,
                  const char* unit, bool last) {
  std::fprintf(f, "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}%s", name,
               value, unit, last ? "" : ", ");
}

}  // namespace

int main(int argc, char** argv) {
#ifdef __GLIBC__
  // A fixed threshold turns off glibc's dynamic one, which rises after the
  // first large free. With it on, whether the FIB's growing route vector came
  // from the heap or from mmap depended on the allocation history, and
  // fib_churn's peak RSS took one of two values 0.7 MiB apart by seed.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: srv6bench --workload <endbpf_tag|fib_churn|dm_filter|"
                 "ring_pdes> [--seed N] [--seconds S] [--trace] "
                 "[--out-dir DIR]\n");
    return 2;
  }
  if (!util::alloc_hooks_active()) {
    std::fprintf(stderr, "alloc hooks not linked\n");
    return 2;
  }
  const WorkloadInfo& info = *find_workload(a.workload);
  // The measured window runs on one worker thread; the partitioned
  // workload's repeat check replays on several.
  const std::size_t replay_threads = info.parallel
      ? std::min<std::size_t>(kMaxThreads,
                              std::max(1u, std::thread::hardware_concurrency()))
      : 1;

  // A traced run measures two passes (untraced, traced) of half the window
  // each, so that it measures for about as long as an untraced run.
  if (a.trace) a.seconds = (a.seconds + 1) / 2;
  HostRef ref;
  const Pass p = run_pass(info, a, a.trace ? 1 : kSetupBuilds, ref, nullptr);
  std::vector<Check> checks = p.checks;
  // Determinism: a fresh build replayed to the prefix slice reaches the same
  // state, at any thread count.
  const auto [prefix_digest, prefix_wall_s] =
      replay_prefix(info, a, replay_threads);
  checks.push_back({"repeat_digest", prefix_digest == p.prefix_digest,
                    hex(p.prefix_digest) + " at slice " +
                        std::to_string(kPrefixSlices) + ", rebuild on " +
                        std::to_string(replay_threads) + " thread(s) " +
                        hex(prefix_digest)});

  // Offered packets per host-corrected median slice. The raw median slice
  // moves with minute-long contention phases on shared hosts, by up to 2x;
  // the corrected one follows the simulator (benchmark/calibration/).
  const double offered_per_slice =
      static_cast<double>(p.window.offered) / kSlices;
  const double pps_norm =
      offered_per_slice /
      corrected_median(p.slice_s, p.slice_ref_s, kSliceElasticity);
  const double pps_wall = offered_per_slice / quantile(p.slice_s, 0.5);

  std::FILE* out = stdout;
  if (!a.trace) {
    std::fprintf(out, "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": false, "
                      "\"digest\": \"%s\", \"metrics\": {",
                 info.name, static_cast<unsigned long long>(a.seed),
                 hex(p.final_digest).c_str());
    print_metric(out, "sim_pps_norm", pps_norm, "pkt/s", false);
    print_metric(out, "setup_s",
                 corrected_median(p.setup_s, p.setup_ref_s, kBuildElasticity),
                 "s", false);
    print_metric(out, "peak_rss_mb", peak_rss_mib(), "MiB", false);
    // The uncorrected figures, for calibrate.py.
    print_metric(out, "sim_pps_wall", pps_wall, "pkt/s", false);
    print_metric(out, "setup_wall_s", quantile(p.setup_s, 0.5), "s", false);
    print_metric(out, "host.ref_ms", quantile(p.slice_ref_s, 0.5) * 1e3, "ms",
                 true);
  } else {
    SpanRecorder spans(info.name);
    Pass t;
    LayerReport layers;
    {
      SpanRecorder::Scope run(&spans, "run");
      t = run_pass(info, a, 1, ref, &spans);
      layers = replay_layers(
          info, a.seed,
          quantile(t.depth, 0.5) /
              static_cast<double>(t.after.domain_events.size()),
          spans);
    }
    checks.insert(checks.end(), t.checks.begin(), t.checks.end());
    std::string replay_detail =
        std::to_string(layers.timings.size()) + " layer calls timed";
    for (const std::string& problem : layers.problems)
      replay_detail += "; " + problem;
    checks.push_back({"layer_replays", layers.problems.empty(), replay_detail});
    checks.push_back({"traced_digest", t.final_digest == p.final_digest,
                      "traced " + hex(t.final_digest) + ", untraced " +
                          hex(p.final_digest)});
    WindowSummary ws;
    ws.before = t.before;
    ws.after = t.after;
    ws.allocs = t.allocs;
    ws.pool_high_water = t.pool_high_water;
    ws.queue_depth = quantile(t.depth, 0.5);
    ws.slice_p90_ms = quantile(p.slice_s, 0.9) * 1e3;
    ws.pps_wall = pps_wall;
    ws.host_ref_ms = quantile(p.slice_ref_s, 0.5) * 1e3;
    ws.wall_ns_per_pkt = quantile(t.slice_s, 0.5) * 1e9 / offered_per_slice;
    ws.trace_overhead =
        1.0 - offered_per_slice /
                  corrected_median(t.slice_s, t.slice_ref_s, kSliceElasticity) /
                  pps_norm;
    // The prefix slices on one thread vs the prefix replay's threads.
    double serial = 0;
    for (std::size_t k = 0; k < kPrefixSlices; ++k) serial += p.slice_s[k];
    ws.pdes_speedup = serial / prefix_wall_s;
    ws.pdes_threads = replay_threads;
    const std::vector<Metric> metrics = derive_metrics(ws, layers);

    const std::string base = a.out_dir + "/" + info.name;
    if (!spans.write_chrome_trace(base + ".trace.json") ||
        !write_layers_json(base + ".layers.json", info, a.seed, metrics,
                           layers)) {
      std::fprintf(stderr, "cannot write %s.*.json\n", base.c_str());
      return 1;
    }
    std::fprintf(out, "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": true, "
                      "\"digest\": \"%s\", \"metrics\": {",
                 info.name, static_cast<unsigned long long>(a.seed),
                 hex(t.final_digest).c_str());
    for (std::size_t i = 0; i < metrics.size(); ++i)
      print_metric(out, metrics[i].name.c_str(), metrics[i].value,
                   metrics[i].unit.c_str(), i + 1 == metrics.size());
  }
  std::fprintf(out, "}, \"checks\": [");
  for (std::size_t i = 0; i < checks.size(); ++i) {
    std::string detail;
    for (const char c : checks[i].detail)
      if (c != '"' && c != '\\') detail += c;
    std::fprintf(out, "{\"name\": \"%s\", \"ok\": %s, \"detail\": \"%s\"}%s",
                 checks[i].name.c_str(), checks[i].ok ? "true" : "false",
                 detail.c_str(), i + 1 < checks.size() ? ", " : "");
  }
  std::fprintf(out, "]}\n");
  return 0;
}
