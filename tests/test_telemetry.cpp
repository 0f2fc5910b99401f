// Telemetry registry + trace timeline (PR 10).
//
// The observability contract, as executable oracles:
//
//   * snapshot() under concurrent mutation is a consistent cut: repeated
//     snapshots taken while worker threads hammer a counter never
//     decrease, and the final quiescent snapshot equals the exact event count (no lost
//     updates across shards) — the suite runs under TSan in CI;
//   * the PBDS_METRICS gate actually elides recording (non-tautological:
//     the same record calls are made in both arms; only the disabled arm
//     leaves the registry untouched);
//   * det-vs-real parity: the fork tree is mode-invariant for a fixed
//     worker count, so the forks/joins counters from a deterministic
//     replay at p workers match a real-pool run at p workers exactly —
//     the counters a dashboard shows for a replayed failure are the
//     counters the production run would have shown;
//   * scoped_env (tests/differential.hpp) re-reads every first-touch env
//     cache, so a hostile ambient environment (CI exports
//     PBDS_BUDGET_BYTES around full ctest runs) is invisible inside it;
//   * flush_trace emits loadable Chrome-trace JSON (displayTimeUnit /
//     pid / tid / ts / ph fields), including the deterministic
//     scheduler's decision instants for a replayed (seed, p) schedule.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/delayed.hpp"
#include "differential.hpp"
#include "memory/budget.hpp"
#include "sched/exec_policy.hpp"
#include "sched/parallel.hpp"
#include "sched/scheduler.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace {

namespace telemetry = pbds::telemetry;
namespace delayed = pbds::delayed;
namespace sched = pbds::sched;
using telemetry::counter;

// Isolate every test from ambient PBDS_* (CI's hostile-env stage) and from
// the trace/metrics state other suites may have cached.
class Telemetry : public ::testing::Test {
 protected:
  pbds::testing::scoped_env env_;
};

// --- concurrent snapshot consistency ----------------------------------------

TEST_F(Telemetry, SnapshotIsConsistentUnderConcurrentMutation) {
  telemetry::scoped_metrics on(true);
  telemetry::reset();
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 20000;
  std::atomic<bool> go{false};
  std::vector<std::thread> hammers;
  hammers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    hammers.emplace_back([&go] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (std::uint64_t i = 0; i < kPerThread; ++i)
        telemetry::count(counter::forks);
    });
  }
  go.store(true, std::memory_order_release);
  // Snapshot continuously while the hammers run: every cut must be
  // monotone in the cell we watch.
  std::uint64_t last_forks = 0;
  for (int s = 0; s < 200; ++s) {
    std::uint64_t forks = telemetry::snapshot().get(counter::forks);
    ASSERT_GE(forks, last_forks) << "counter sum decreased under mutation";
    last_forks = forks;
  }
  for (auto& t : hammers) t.join();
  // Quiescent: exact totals — no shard updates were lost.
  auto fin = telemetry::snapshot();
  EXPECT_EQ(fin.get(counter::forks), kThreads * kPerThread);
}

// --- the gate (non-tautological) ---------------------------------------------

TEST_F(Telemetry, DisabledGateElidesRecording) {
  telemetry::reset();
  // Arm A: gate off, record anyway. The registry must not move.
  {
    telemetry::scoped_metrics off(false);
    ASSERT_FALSE(telemetry::metrics_enabled());
    telemetry::count(counter::stalls, 7);
  }
  auto off_snap = telemetry::snapshot();
  EXPECT_EQ(off_snap.get(counter::stalls), 0u);
  // Arm B: same calls with the gate on. The registry must move — proving
  // arm A's zeros came from elision, not from a dead record path.
  {
    telemetry::scoped_metrics on(true);
    ASSERT_TRUE(telemetry::metrics_enabled());
    telemetry::count(counter::stalls, 7);
  }
  auto on_snap = telemetry::snapshot();
  EXPECT_EQ(on_snap.get(counter::stalls), 7u);
}

TEST_F(Telemetry, EnvGateIsReloadableAndScopedEnvClearsIt) {
  // PBDS_METRICS=0 observed after a reload...
  ::setenv("PBDS_METRICS", "0", 1);
  telemetry::reload_metrics_from_env();
  EXPECT_FALSE(telemetry::metrics_enabled());
  {
    // ...and scoped_env scrubs it: inside, the default (on) applies.
    pbds::testing::scoped_env inner;
    EXPECT_TRUE(telemetry::metrics_enabled());
  }
  // Restored on scope exit.
  EXPECT_FALSE(telemetry::metrics_enabled());
  ::unsetenv("PBDS_METRICS");
  telemetry::reload_metrics_from_env();
  EXPECT_TRUE(telemetry::metrics_enabled());
}

TEST_F(Telemetry, ScopedEnvReloadsBudgetCache) {
  // The headline PR-10 bug class: a first-touch env cache that ignores
  // what a test scope set. The budget limit must track setenv + reload,
  // and scoped_env must both clear and restore it.
  ::setenv("PBDS_BUDGET_BYTES", "16777216", 1);
  pbds::memory::reload_budget_limit_from_env();
  EXPECT_EQ(pbds::memory::budget_limit(), 16777216);
  {
    pbds::testing::scoped_env inner;
    EXPECT_FALSE(pbds::memory::budget_active())
        << "scoped_env failed to clear the ambient budget";
  }
  EXPECT_EQ(pbds::memory::budget_limit(), 16777216)
      << "scoped_env failed to restore the ambient budget";
  ::unsetenv("PBDS_BUDGET_BYTES");
  pbds::memory::reload_budget_limit_from_env();
  EXPECT_FALSE(pbds::memory::budget_active());
}

// --- det-vs-real parity ------------------------------------------------------

TEST_F(Telemetry, ForkJoinCountersMatchBetweenDetReplayAndRealPool) {
  telemetry::scoped_metrics on(true);
  constexpr std::size_t kN = 1 << 16;
  auto kernel = [] {
    auto xs = delayed::map(
        [](std::size_t i) { return static_cast<std::uint64_t>(i) * 31 + 7; },
        delayed::iota(kN));
    return delayed::reduce(
        [](std::uint64_t a, std::uint64_t b) { return a + b; },
        std::uint64_t{0}, xs);
  };
  // Warm the real pool first so its worker count is settled, then replay
  // deterministically at exactly that width: the fork tree depends only on
  // (n, grain, p), so the two runs must fork and join identically.
  std::uint64_t real_result = kernel();
  unsigned p = sched::num_workers();
  auto before_det = telemetry::snapshot();
  std::uint64_t det_result;
  {
    sched::scoped_deterministic g(0x5eed, p);
    det_result = kernel();
  }
  auto after_det = telemetry::snapshot();
  auto before_real = telemetry::snapshot();
  std::uint64_t real_again = kernel();
  auto after_real = telemetry::snapshot();
  EXPECT_EQ(det_result, real_result);
  EXPECT_EQ(real_again, real_result);
  std::uint64_t det_forks =
      after_det.get(counter::forks) - before_det.get(counter::forks);
  std::uint64_t det_joins =
      after_det.get(counter::joins) - before_det.get(counter::joins);
  std::uint64_t real_forks =
      after_real.get(counter::forks) - before_real.get(counter::forks);
  std::uint64_t real_joins =
      after_real.get(counter::joins) - before_real.get(counter::joins);
  EXPECT_GT(det_forks, 0u) << "parity test is vacuous: nothing forked";
  EXPECT_EQ(det_forks, real_forks)
      << "deterministic replay at p=" << p
      << " forked differently from the real pool";
  EXPECT_EQ(det_joins, real_joins)
      << "deterministic replay at p=" << p
      << " joined differently from the real pool";
  EXPECT_EQ(det_forks, det_joins) << "unbalanced fork/join accounting";
}

// --- trace timeline ----------------------------------------------------------

TEST_F(Telemetry, FlushedTraceIsChromeTraceJson) {
  std::string path =
      ::testing::TempDir() + "pbds_trace_shape.json";
  {
    telemetry::scoped_trace on(true);
    telemetry::trace_instant(telemetry::trace_kind::sched, "deadline", 3);
    {
      telemetry::trace_span span(telemetry::trace_kind::job, "job", 42);
    }
    // A deterministic replay's decision stream lands in the same timeline:
    // the (seed, p) that reproduces a failure also produces its trace.
    sched::scoped_deterministic g(0x5eed, 4);
    pbds::parallel_for(0, 1024, [](std::size_t) {});
    ASSERT_GE(telemetry::flush_trace(path.c_str()), std::size_t{3});
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "trace file was not written: " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  std::string json = buf.str();
  // Shape check, mirroring the CI jq gate: the four mandatory event keys
  // plus the time-unit header, and both phase kinds we emit.
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"pid\":"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"deadline\""), std::string::npos);
  // Det-scheduler decisions are named after their event kinds.
  EXPECT_NE(json.find("fork_"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  while (!json.empty() && (json.back() == '\n' || json.back() == ' '))
    json.pop_back();
  EXPECT_EQ(json.back(), '}');
  std::remove(path.c_str());
}

TEST_F(Telemetry, TraceRingWrapCountsDrops) {
  // Ring capacity binds at a thread's FIRST recorded event, so record from
  // a fresh thread — the main thread's ring was already sized at the
  // default cap by earlier tests.
  ::setenv("PBDS_TRACE_CAP", "16", 1);
  telemetry::reload_trace_from_env();
  std::uint64_t before = telemetry::trace_dropped();
  {
    telemetry::scoped_trace on(true);
    std::thread t([] {
      for (int i = 0; i < 256; ++i)
        telemetry::trace_instant(telemetry::trace_kind::region, "spin", i);
    });
    t.join();
  }
  EXPECT_GE(telemetry::trace_dropped() - before, std::uint64_t{240})
      << "a 16-slot ring absorbed 256 events without dropping";
  ::unsetenv("PBDS_TRACE_CAP");
  telemetry::reload_trace_from_env();
}

}  // namespace
