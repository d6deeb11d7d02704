#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "../bench/report.h"

namespace srv6bpf::bench {
namespace {

// A per-process name, so concurrent test runs never share a file.
std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name + "." + std::to_string(getpid());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(BenchReport, RendersTheRecordInOrderWithItsCommas) {
  Obj rec;
  rec.str("bench", "demo").num("duration_ms", 50.0, 0);
  rec.obj("pool").num("buf_high_water", 606).flag("hooks", true);
  rec.row("rows").num("burst", 1).num("sim_kpps", 514.44, 1);
  rec.row("rows").num("burst", 32).num("sim_kpps", 514.46, 1);
  rec.obj("scenarios").obj("frr").num("p99", std::uint64_t{7});
  rec.obj("scenarios").num("recovered", 1);
  rec.num("speedup", 2.5, 3);
  EXPECT_EQ(rec.render(),
            "{\n"
            "  \"bench\": \"demo\",\n"
            "  \"duration_ms\": 50,\n"
            "  \"pool\": {\"buf_high_water\": 606, \"hooks\": true},\n"
            "  \"rows\": [\n"
            "    {\"burst\": 1, \"sim_kpps\": 514.4},\n"
            "    {\"burst\": 32, \"sim_kpps\": 514.5}\n"
            "  ],\n"
            "  \"scenarios\": {\n"
            "    \"frr\": {\"p99\": 7},\n"
            "    \"recovered\": 1\n"
            "  },\n"
            "  \"speedup\": 2.500\n"
            "}");
}

TEST(BenchReport, PrintsTheHeaderThenEchoesAndWritesTheRecord) {
  const std::string path = temp_path("bench_report_ok.json");
  ::testing::internal::CaptureStdout();
  Report rep(path, Mode{}, "title", "note");
  rep.str("bench", "demo").num("x", 0.125, 2);
  EXPECT_EQ(rep.finish(), 0);
  const std::string rule(62, '=');
  EXPECT_EQ(::testing::internal::GetCapturedStdout(),
            rule + "\ntitle\n(paper: note)\n" + rule + "\n" + rep.render() +
                "\nwrote " + path + "\n");
  EXPECT_EQ(read_file(path), rep.render() + "\n");
  std::filesystem::remove(path);
}

TEST(BenchReport, FinishFailsWithoutAWroteLineWhenThePathIsADirectory) {
  const std::string path = temp_path("bench_report_dir.json");
  std::filesystem::create_directories(path);
  Report rep(path, Mode{.quick = false, .json_only = true}, "title", "note");
  rep.num("x", 1);
  ::testing::internal::CaptureStdout();
  EXPECT_EQ(rep.finish(), 1);
  EXPECT_EQ(::testing::internal::GetCapturedStdout(), "");
  std::filesystem::remove(path);
}

// A failed gate fails the run in both modes.
TEST(BenchReport, OneFailedGateFailsFinish) {
  const std::string path = temp_path("bench_report_gate.json");
  for (const bool quick : {false, true}) {
    SCOPED_TRACE(quick ? "--quick" : "full run");
    Report rep(path, Mode{.quick = quick, .json_only = true}, "title", "note");
    ::testing::internal::CaptureStderr();
    rep.gate(true, "never printed");
    rep.gate(false, "speedup %.2f below %d", 0.5, 2);
    rep.gate(true, "a later passing gate does not clear it");
    EXPECT_EQ(::testing::internal::GetCapturedStderr(),
              "GATE: speedup 0.50 below 2\n");
    ::testing::internal::CaptureStdout();
    EXPECT_EQ(rep.finish(), 1);
    EXPECT_EQ(::testing::internal::GetCapturedStdout(),
              "wrote " + path + "\n");
  }
  std::filesystem::remove(path);
}

// A failed wall gate fails a full run like gate(), but under --quick it
// only warns.
TEST(BenchReport, AFailedWallGateOnlyWarnsUnderQuick) {
  const std::string path = temp_path("bench_report_wall.json");
  for (const bool quick : {false, true}) {
    SCOPED_TRACE(quick ? "--quick" : "full run");
    Report rep(path, Mode{.quick = quick, .json_only = true}, "title", "note");
    ::testing::internal::CaptureStderr();
    rep.wall_gate(true, "never printed");
    rep.wall_gate(false, "speedup %.2f below %d", 0.5, 2);
    EXPECT_EQ(::testing::internal::GetCapturedStderr(),
              std::string(quick ? "WARN" : "GATE") +
                  ": speedup 0.50 below 2\n");
    ::testing::internal::CaptureStdout();
    EXPECT_EQ(rep.finish(), quick ? 0 : 1);
    EXPECT_EQ(::testing::internal::GetCapturedStdout(),
              "wrote " + path + "\n");
  }
  std::filesystem::remove(path);
}

TEST(BenchReport, ParseModeReadsItsTwoFlags) {
  char prog[] = "bench", quick[] = "--quick", smoke[] = "--smoke",
       json[] = "--json-only";
  char* argv[] = {prog, quick, smoke, json, nullptr};
  const Mode mode = parse_mode(4, argv);
  EXPECT_TRUE(mode.quick);
  EXPECT_TRUE(mode.json_only);

  char* bare[] = {prog, nullptr};
  const Mode none = parse_mode(1, bare);
  EXPECT_FALSE(none.quick);
  EXPECT_FALSE(none.json_only);
}

}  // namespace
}  // namespace srv6bpf::bench
