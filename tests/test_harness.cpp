// Tests for the benchmark harness (argument parsing and the warmup+repeat
// measurement protocol of Appendix A.7).
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "array/parray.hpp"
#include "bench_common/harness.hpp"

namespace {

namespace bc = pbds::bench_common;

bc::options parse(std::vector<std::string> args) {
  std::vector<char*> argv;
  static std::string prog = "prog";
  argv.push_back(prog.data());
  for (auto& a : args) argv.push_back(a.data());
  return bc::options::parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Harness, Defaults) {
  auto o = parse({});
  EXPECT_EQ(o.scale, 1.0);
  EXPECT_EQ(o.repeat, 3);
  EXPECT_EQ(o.warmup, 0.25);
  EXPECT_TRUE(o.procs.empty());
}

TEST(Harness, ParsesFlags) {
  auto o = parse({"--scale", "0.5", "--repeat", "7", "--warmup", "1.5"});
  EXPECT_EQ(o.scale, 0.5);
  EXPECT_EQ(o.repeat, 7);
  EXPECT_EQ(o.warmup, 1.5);
}

TEST(Harness, ParsesProcsList) {
  auto o = parse({"--procs", "1,2,8,72"});
  EXPECT_EQ(o.procs, (std::vector<unsigned>{1, 2, 8, 72}));
}

TEST(Harness, ScaledSizes) {
  auto o = parse({"--scale", "0.25"});
  EXPECT_EQ(o.scaled(1000), 250u);
  EXPECT_EQ(o.scaled(1), 1u);  // never drops to zero
  auto o2 = parse({"--scale", "2"});
  EXPECT_EQ(o2.scaled(1000), 2000u);
}

TEST(Harness, MeasureRunsWarmupThenRepeats) {
  std::atomic<int> calls{0};
  bc::options opt;
  opt.repeat = 5;
  opt.warmup = 0.0;  // deadline passes after the mandatory first run
  auto m = bc::measure([&] { calls++; }, opt);
  // at least 1 warmup run + exactly 5 timed runs
  EXPECT_GE(calls.load(), 6);
  EXPECT_GE(m.seconds, 0.0);
}

TEST(Harness, MeasureReportsAllocationsPerRun) {
  bc::options opt;
  opt.repeat = 4;
  opt.warmup = 0.0;
  auto m = bc::measure(
      [] {
        auto a = pbds::parray<char>::filled(1 << 12, 'x');
        bc::do_not_optimize(a.data());
      },
      opt);
  EXPECT_EQ(m.allocated_bytes, 1 << 12);  // per-run average
  EXPECT_GE(m.peak_bytes, 1 << 12);
}

TEST(Harness, RatioAndMb) {
  EXPECT_EQ(bc::ratio(10.0, 4.0), 2.5);
  EXPECT_EQ(bc::ratio(10.0, 0.0), 0.0);
  EXPECT_EQ(bc::mb(1024 * 1024), 1.0);
}

// --- strict argument validation ----------------------------------------------
//
// Malformed values for recognized flags must exit(2) with a message, not
// silently become 0 the way atoi/atof did.

TEST(HarnessDeathTest, RejectsMalformedRepeat) {
  EXPECT_EXIT(parse({"--repeat", "abc"}), ::testing::ExitedWithCode(2),
              "invalid value");
  EXPECT_EXIT(parse({"--repeat", "0"}), ::testing::ExitedWithCode(2),
              "invalid value");
  EXPECT_EXIT(parse({"--repeat", "3x"}), ::testing::ExitedWithCode(2),
              "invalid value");
}

TEST(HarnessDeathTest, RejectsMalformedScaleAndWarmup) {
  EXPECT_EXIT(parse({"--scale", "zero"}), ::testing::ExitedWithCode(2),
              "invalid value");
  EXPECT_EXIT(parse({"--scale", "0"}), ::testing::ExitedWithCode(2),
              "invalid value");
  EXPECT_EXIT(parse({"--scale", "-1"}), ::testing::ExitedWithCode(2),
              "invalid value");
  EXPECT_EXIT(parse({"--warmup", "-0.5"}), ::testing::ExitedWithCode(2),
              "invalid value");
}

TEST(HarnessDeathTest, RejectsMalformedProcsList) {
  EXPECT_EXIT(parse({"--procs", "1,,4"}), ::testing::ExitedWithCode(2),
              "invalid --procs");
  EXPECT_EXIT(parse({"--procs", "1;4"}), ::testing::ExitedWithCode(2),
              "invalid --procs");
  EXPECT_EXIT(parse({"--procs", "0"}), ::testing::ExitedWithCode(2),
              "invalid --procs");
}

TEST(HarnessDeathTest, RejectsMissingValue) {
  EXPECT_EXIT(parse({"--repeat"}), ::testing::ExitedWithCode(2),
              "requires a value");
}

// A misspelled or removed flag must not run silently with its default,
// and --help must not exit 0 before the arguments after it are checked.
TEST(HarnessDeathTest, RejectsUnknownFlag) {
  EXPECT_EXIT(parse({"--threshhold", "3.0"}), ::testing::ExitedWithCode(2),
              "unknown argument '--threshhold'");
  EXPECT_EXIT(parse({"--scale", "0.5", "--retries", "2"}),
              ::testing::ExitedWithCode(2), "unknown argument '--retries'");
  EXPECT_EXIT(parse({"--help", "--bogus"}), ::testing::ExitedWithCode(2),
              "unknown argument '--bogus'");
}

// --- subprocess isolation ------------------------------------------------------

TEST(Isolation, ChildMeasurementRoundTrips) {
  auto r = bc::run_isolated(
      [] {
        bc::measurement m;
        m.seconds = 1.5;
        m.peak_bytes = 12345;
        m.allocated_bytes = 67890;
        return m;
      },
      /*timeout_sec=*/30);
  ASSERT_EQ(r.status, bc::run_status::ok);
  EXPECT_DOUBLE_EQ(r.m.seconds, 1.5);
  EXPECT_EQ(r.m.peak_bytes, 12345);
  EXPECT_EQ(r.m.allocated_bytes, 67890);
}

TEST(Isolation, TimeoutKillsWedgedChild) {
  auto r = bc::run_isolated(
      [] {
        for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
        return bc::measurement{};
      },
      /*timeout_sec=*/0.3);
  EXPECT_EQ(r.status, bc::run_status::timeout);
}

TEST(Isolation, CrashIsClassified) {
  auto r = bc::run_isolated([]() -> bc::measurement { std::abort(); },
                            /*timeout_sec=*/30);
  EXPECT_EQ(r.status, bc::run_status::crashed);
}

TEST(Isolation, BudgetRefusalIsClassified) {
  auto r = bc::run_isolated(
      []() -> bc::measurement {
        throw pbds::budget_exceeded(1024, 0, 512);
      },
      /*timeout_sec=*/30);
  EXPECT_EQ(r.status, bc::run_status::budget_exceeded);
}

TEST(Isolation, NonzeroExitIsError) {
  auto r = bc::run_isolated(
      []() -> bc::measurement { throw std::runtime_error("boom"); },
      /*timeout_sec=*/30);
  EXPECT_EQ(r.status, bc::run_status::error);
}

// --- partial-results JSON report ----------------------------------------------

TEST(JsonReport, ValidAfterEveryRecord) {
  std::string path = ::testing::TempDir() + "pbds_report_test.json";
  bc::json_report report(path);
  bc::measurement m;
  m.seconds = 0.25;
  m.peak_bytes = 1024;
  m.allocated_bytes = 2048;
  report.add({"linefit", "delay", bc::run_status::ok, m});

  auto slurp = [&] {
    std::FILE* f = std::fopen(path.c_str(), "r");
    EXPECT_NE(f, nullptr);
    char buf[4096] = {0};
    std::size_t got = std::fread(buf, 1, sizeof buf - 1, f);
    std::fclose(f);
    return std::string(buf, got);
  };
  std::string one = slurp();
  EXPECT_NE(one.find("\"name\": \"linefit\""), std::string::npos);
  EXPECT_NE(one.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_EQ(one.front(), '[');
  EXPECT_EQ(one[one.size() - 2], ']');  // trailing newline after ]

  // A timed-out configuration is recorded too, and the file stays a
  // complete JSON document after the partial rewrite.
  report.add({"bfs", "array", bc::run_status::timeout, bc::measurement{}});
  std::string two = slurp();
  EXPECT_NE(two.find("\"name\": \"bfs\""), std::string::npos);
  EXPECT_NE(two.find("\"status\": \"timeout\""), std::string::npos);
  EXPECT_EQ(two.front(), '[');
  std::remove(path.c_str());
}

TEST(JsonReport, ExtraNumericFieldsAreEmitted) {
  std::string path = ::testing::TempDir() + "pbds_report_extra.json";
  bc::json_report report(path);
  report.add({"soak",
              "delay",
              bc::run_status::ok,
              bc::measurement{},
              {{"throughput_jobs_per_s", 125.5}, {"shed_rate", 0.25}}});
  ASSERT_TRUE(report.ok());
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[4096] = {0};
  std::size_t got = std::fread(buf, 1, sizeof buf - 1, f);
  std::fclose(f);
  std::string text(buf, got);
  EXPECT_NE(text.find("\"throughput_jobs_per_s\": 125.5"), std::string::npos);
  EXPECT_NE(text.find("\"shed_rate\": 0.25"), std::string::npos);
  std::remove(path.c_str());
}

TEST(JsonReport, WriteFailureKeepsPreviousReportAndSetsError) {
  // Simulate an unwritable tmp file (the same failure mode as ENOSPC at
  // open) by planting a directory where the tmp file would go. The flush
  // must report the error and leave the previous complete report alone.
  std::string path = ::testing::TempDir() + "pbds_report_err.json";
  std::string tmp = path + ".tmp";
  std::remove(path.c_str());
  bc::json_report report(path);
  report.add({"first", "delay", bc::run_status::ok, bc::measurement{}});
  ASSERT_TRUE(report.ok());

  ASSERT_EQ(::mkdir(tmp.c_str(), 0700), 0);
  report.add({"second", "delay", bc::run_status::ok, bc::measurement{}});
  EXPECT_FALSE(report.ok());
  EXPECT_FALSE(report.last_error().empty());
  // The published report is still the last complete one.
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[4096] = {0};
  std::size_t got = std::fread(buf, 1, sizeof buf - 1, f);
  std::fclose(f);
  std::string text(buf, got);
  EXPECT_NE(text.find("\"first\""), std::string::npos);
  EXPECT_EQ(text.find("\"second\""), std::string::npos);
  EXPECT_EQ(text[text.size() - 2], ']');  // complete document, not truncated

  // Once the obstruction clears, the next add recovers and publishes both
  // records.
  ASSERT_EQ(::rmdir(tmp.c_str()), 0);
  report.add({"third", "delay", bc::run_status::ok, bc::measurement{}});
  EXPECT_TRUE(report.ok());
  f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::memset(buf, 0, sizeof buf);
  got = std::fread(buf, 1, sizeof buf - 1, f);
  std::fclose(f);
  text.assign(buf, got);
  EXPECT_NE(text.find("\"second\""), std::string::npos);
  EXPECT_NE(text.find("\"third\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(JsonReport, RenameFailureCleansUpTmpFile) {
  // Final path is a directory: the write succeeds but the atomic rename
  // cannot, so the tmp file must be removed rather than left behind.
  std::string path = ::testing::TempDir() + "pbds_report_dir.json";
  ASSERT_EQ(::mkdir(path.c_str(), 0700), 0);
  bc::json_report report(path);
  report.add({"only", "delay", bc::run_status::ok, bc::measurement{}});
  EXPECT_FALSE(report.ok());
  EXPECT_FALSE(report.last_error().empty());
  std::FILE* f = std::fopen((path + ".tmp").c_str(), "r");
  EXPECT_EQ(f, nullptr);  // no stale tmp litter
  if (f != nullptr) std::fclose(f);
  ASSERT_EQ(::rmdir(path.c_str()), 0);
}

}  // namespace
