// Unit tests for the work-stealing scheduler and parallel primitives.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/env.hpp"
#include "sched/chase_lev_deque.hpp"
#include "sched/job.hpp"
#include "sched/parallel.hpp"
#include "sched/scheduler.hpp"

namespace {

using pbds::apply;
using pbds::fork2join;
using pbds::parallel_for;

TEST(Scheduler, SingletonIsCreatedLazily) {
  auto& s = pbds::sched::get_scheduler();
  EXPECT_GE(s.num_workers(), 1u);
  // The calling thread is enrolled as a worker.
  EXPECT_EQ(pbds::sched::scheduler::worker_id(), 0);
}

TEST(Scheduler, Fork2JoinRunsBothBranches) {
  int a = 0, b = 0;
  fork2join([&] { a = 1; }, [&] { b = 2; });
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
}

TEST(Scheduler, Fork2JoinNested) {
  std::atomic<int> count{0};
  fork2join(
      [&] {
        fork2join([&] { count++; }, [&] { count++; });
      },
      [&] {
        fork2join([&] { count++; }, [&] { count++; });
      });
  EXPECT_EQ(count.load(), 4);
}

TEST(Scheduler, Fork2JoinDeepNesting) {
  // A full binary fork tree of depth 12 => 4096 leaves.
  std::atomic<int> leaves{0};
  std::function<void(int)> rec = [&](int depth) {
    if (depth == 0) {
      leaves++;
      return;
    }
    fork2join([&] { rec(depth - 1); }, [&] { rec(depth - 1); });
  };
  rec(12);
  EXPECT_EQ(leaves.load(), 4096);
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
  for (std::size_t n : {0u, 1u, 2u, 100u, 100'000u}) {
    std::vector<std::atomic<int>> hits(n);
    parallel_for(0, n, [&](std::size_t i) { hits[i]++; });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ParallelFor, RespectsSubrange) {
  std::vector<int> hits(100, 0);
  parallel_for(10, 20, [&](std::size_t i) { hits[i] = 1; });
  for (std::size_t i = 0; i < 100; ++i)
    EXPECT_EQ(hits[i], (i >= 10 && i < 20) ? 1 : 0) << i;
}

TEST(ParallelFor, ExplicitGranularities) {
  for (std::size_t gran : {1u, 2u, 17u, 1000u, 1'000'000u}) {
    std::atomic<std::int64_t> sum{0};
    parallel_for(
        0, 10'000,
        [&](std::size_t i) {
          sum.fetch_add(static_cast<std::int64_t>(i),
                        std::memory_order_relaxed);
        },
        gran);
    EXPECT_EQ(sum.load(), 10'000LL * 9'999 / 2) << "gran=" << gran;
  }
}

TEST(ParallelFor, EmptyAndReversedRanges) {
  bool ran = false;
  parallel_for(5, 5, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
  parallel_for(7, 3, [&](std::size_t) { ran = true; });  // lo >= hi: no-op
  EXPECT_FALSE(ran);
}

TEST(Apply, GranularityOnePerIndex) {
  std::atomic<int> calls{0};
  apply(257, [&](std::size_t) { calls++; });
  EXPECT_EQ(calls.load(), 257);
}

TEST(ParallelFor, NestedParallelForInsideApply) {
  std::atomic<std::int64_t> total{0};
  apply(16, [&](std::size_t j) {
    parallel_for(0, 100, [&](std::size_t i) {
      total.fetch_add(static_cast<std::int64_t>(j * 100 + i),
                      std::memory_order_relaxed);
    });
  });
  std::int64_t want = 0;
  for (std::int64_t j = 0; j < 16; ++j)
    for (std::int64_t i = 0; i < 100; ++i) want += j * 100 + i;
  EXPECT_EQ(total.load(), want);
}

TEST(Scheduler, SetNumWorkersSwapsPool) {
  unsigned before = pbds::sched::num_workers();
  pbds::sched::set_num_workers(3);
  EXPECT_EQ(pbds::sched::num_workers(), 3u);
  std::atomic<int> count{0};
  parallel_for(0, 10'000, [&](std::size_t) { count++; });
  EXPECT_EQ(count.load(), 10'000);
  pbds::sched::set_num_workers(before);
  EXPECT_EQ(pbds::sched::num_workers(), before);
}

TEST(Scheduler, StressManySmallForks) {
  // Exercise steal races: many rounds of small fork trees.
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> c{0};
    parallel_for(0, 1000, [&](std::size_t) { c++; }, 1);
    ASSERT_EQ(c.load(), 1000);
  }
}

TEST(Scheduler, SpawnFailureShrinksPoolGracefully) {
  // A std::system_error from thread creation (injected here, exactly where
  // an exhausted OS would throw) must not crash the constructor: the pool
  // shrinks to the workers that actually started and still runs work.
  unsigned before = pbds::sched::num_workers();
  pbds::sched::detail::arm_spawn_fault(2);  // 3rd spawn attempt fails
  pbds::sched::set_num_workers(8);
  pbds::sched::detail::disarm_spawn_fault();
  EXPECT_EQ(pbds::sched::num_workers(), 3u);  // worker 0 + the 2 that started
  std::atomic<std::int64_t> sum{0};
  parallel_for(
      0, 50'000,
      [&](std::size_t i) {
        sum.fetch_add(static_cast<std::int64_t>(i),
                      std::memory_order_relaxed);
      },
      64);
  EXPECT_EQ(sum.load(), 50'000LL * 49'999 / 2);
  pbds::sched::set_num_workers(before);
  EXPECT_EQ(pbds::sched::num_workers(), before);
}

TEST(Scheduler, SpawnFailureOnFirstWorkerLeavesUsableSingletonPool) {
  unsigned before = pbds::sched::num_workers();
  pbds::sched::detail::arm_spawn_fault(0);  // even the first spawn fails
  pbds::sched::set_num_workers(8);
  pbds::sched::detail::disarm_spawn_fault();
  EXPECT_EQ(pbds::sched::num_workers(), 1u);
  std::atomic<int> c{0};
  parallel_for(0, 10'000, [&](std::size_t) { c++; }, 16);
  EXPECT_EQ(c.load(), 10'000);
  pbds::sched::set_num_workers(before);
}

TEST(Scheduler, DefaultNumWorkersParsesStrictly) {
  const char* old = std::getenv("PBDS_NUM_THREADS");
  std::string saved = old != nullptr ? old : "";
  bool had = old != nullptr;
  unsigned hw = std::thread::hardware_concurrency();
  unsigned fallback = hw == 0 ? 1 : hw;
  auto with = [](const char* v) {
    setenv("PBDS_NUM_THREADS", v, 1);
    return pbds::sched::detail::default_num_workers();
  };
  EXPECT_EQ(with("7"), 7u);
  EXPECT_EQ(with(" 12"), 12u);  // strtol skips leading whitespace
  EXPECT_EQ(with("4096"), 4096u);
  // Malformed or out-of-range values fall back to the hardware count
  // (warning once on stderr) instead of silently misconfiguring the pool.
  EXPECT_EQ(with("0"), fallback);
  EXPECT_EQ(with("-3"), fallback);
  EXPECT_EQ(with("4x"), fallback);   // trailing junk
  EXPECT_EQ(with("abc"), fallback);
  EXPECT_EQ(with(""), fallback);
  EXPECT_EQ(with("4097"), fallback);  // above kMaxWorkers
  EXPECT_EQ(with("99999999999999999999"), fallback);  // ERANGE
  unsetenv("PBDS_NUM_THREADS");
  EXPECT_EQ(pbds::sched::detail::default_num_workers(), fallback);
  if (had) setenv("PBDS_NUM_THREADS", saved.c_str(), 1);
}

TEST(Deque, PushBottomRefusesWhenFullInsteadOfAborting) {
  // Regression: overflow used to std::abort() the process. Now push_bottom
  // reports failure and the caller runs the job inline.
  auto deque = std::make_unique<pbds::sched::chase_lev_deque>();
  auto noop = [] {};
  std::vector<std::unique_ptr<pbds::sched::callable_job<decltype(noop)>>> jobs;
  jobs.reserve(pbds::sched::chase_lev_deque::kCapacity + 1);
  for (std::size_t i = 0; i < pbds::sched::chase_lev_deque::kCapacity; ++i) {
    jobs.push_back(
        std::make_unique<pbds::sched::callable_job<decltype(noop)>>(noop));
    EXPECT_TRUE(deque->push_bottom(jobs.back().get())) << i;
  }
  jobs.push_back(
      std::make_unique<pbds::sched::callable_job<decltype(noop)>>(noop));
  EXPECT_FALSE(deque->push_bottom(jobs.back().get()));  // full: refused
  // Popping one makes room again.
  EXPECT_NE(deque->pop_bottom(), nullptr);
  EXPECT_TRUE(deque->push_bottom(jobs.back().get()));
}

TEST(Scheduler, ForkDepthPastDequeCapacityRunsInline) {
  // Left-spine recursion deeper than kCapacity: every fork2join frame on
  // this stack holds one unjoined job, so the owner's deque must overflow.
  // The old code aborted the process here; now the overflowing forks
  // execute their right branch inline and every leaf still runs.
  constexpr int kDepth =
      static_cast<int>(pbds::sched::chase_lev_deque::kCapacity) + 64;
  std::atomic<int> rights{0};
  std::function<void(int)> rec = [&](int depth) {
    if (depth == 0) return;
    fork2join([&] { rec(depth - 1); }, [&] { rights++; });
  };
  rec(kDepth);
  EXPECT_EQ(rights.load(), kDepth);
}

TEST(Scheduler, WorkActuallyDistributesAcrossWorkers) {
  // With >1 workers, long parallel loops should be executed by more than
  // one thread (statistically certain with this much work).
  unsigned before = pbds::sched::num_workers();
  pbds::sched::set_num_workers(4);
  std::atomic<std::uint64_t> worker_mask{0};
  parallel_for(
      0, 1 << 16,
      [&](std::size_t) {
        int id = pbds::sched::scheduler::worker_id();
        worker_mask.fetch_or(1ull << id, std::memory_order_relaxed);
        // A little work so the loop lasts long enough to be stolen from.
        volatile int x = 0;
        for (int k = 0; k < 50; ++k) x = x + k;
      },
      1 << 8);
  EXPECT_GE(__builtin_popcountll(worker_mask.load()), 2);
  pbds::sched::set_num_workers(before);
}

TEST(Scheduler, JoinWakesPromptlyAfterStolenBranch) {
  // A join on a stolen branch is the critical path of every apply, so it
  // must return within microseconds of the branch finishing. A joiner that
  // slept in back_off's 200 µs sleeps, as idle workers do, returned a
  // median 82-233 µs late on a 4-core host; one that yields, 3-7 µs.
  using clock = std::chrono::steady_clock;
  unsigned before = pbds::sched::num_workers();
  pbds::sched::set_num_workers(4);
  const int self = pbds::sched::scheduler::worker_id();
  std::vector<double> wake_us;
  for (int trial = 0; trial < 20; ++trial) {
    std::atomic<bool> right_started{false};
    bool stolen = false;
    clock::time_point right_done;
    fork2join(
        [&] {
          // Hold the fork open until a thief has started the right branch,
          // so the join has to wait for it; give up after 100 ms.
          const auto give_up = clock::now() + std::chrono::milliseconds(100);
          while (!right_started.load(std::memory_order_acquire) &&
                 clock::now() < give_up)
            std::this_thread::yield();
        },
        [&] {
          stolen = pbds::sched::scheduler::worker_id() != self;
          right_started.store(true, std::memory_order_release);
          const auto until = clock::now() + std::chrono::milliseconds(10);
          while (clock::now() < until) {
          }
          right_done = clock::now();
        });
    const auto joined = clock::now();
    // The join's acquire of the job's completion publishes `stolen` and
    // `right_done`.
    if (stolen)
      wake_us.push_back(
          std::chrono::duration<double, std::micro>(joined - right_done)
              .count());
  }
  pbds::sched::set_num_workers(before);

  ASSERT_GE(wake_us.size(), 15u) << "too few right branches were stolen";
  std::sort(wake_us.begin(), wake_us.end());
  const std::size_t n = wake_us.size();
  const double median = (wake_us[(n - 1) / 2] + wake_us[n / 2]) / 2;
  EXPECT_LT(median, 100.0)
      << "the join returned a median " << median
      << " µs after its stolen branch finished";
}

TEST(EnvKnobs, UnknownPbdsVariableWarnsExactlyOnce) {
  ::setenv("PBDS_BUDGET_BYTE", "1", 1);  // deliberate typo
  ::testing::internal::CaptureStderr();
  pbds::detail::warn_unknown_pbds_env();
  std::string first = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(first.find("PBDS_BUDGET_BYTE"), std::string::npos)
      << "typo'd knob did not warn";
  // Known knobs must never be flagged.
  EXPECT_EQ(first.find("variable PBDS_BUDGET_BYTES "), std::string::npos);
  ::testing::internal::CaptureStderr();
  pbds::detail::warn_unknown_pbds_env();
  EXPECT_EQ(::testing::internal::GetCapturedStderr().find("PBDS_BUDGET_BYTE"),
            std::string::npos)
      << "warn-once fired twice";
  ::unsetenv("PBDS_BUDGET_BYTE");
}

}  // namespace
