// parallel_for / fork2join edge cases, across execution modes:
// empty and single-element ranges, ranges exactly at / one past the
// granularity boundary, and nested parallelism or whole delayed pipelines
// entered from threads that are not part of the worker pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "array/parray.hpp"
#include "core/delayed.hpp"
#include "memory/tracking.hpp"
#include "sched/deterministic.hpp"
#include "sched/exec_policy.hpp"
#include "sched/parallel.hpp"
#include "sched/scheduler.hpp"

namespace {

using namespace pbds;  // NOLINT

// Run `body` under each execution mode; det mode uses a fixed seed.
template <typename F>
void for_each_mode(F body) {
  {
    SCOPED_TRACE("mode=sequential");
    sched::scoped_sequential g;
    body();
  }
  {
    SCOPED_TRACE("mode=deterministic");
    sched::scoped_deterministic g(21, 4);
    body();
  }
  {
    SCOPED_TRACE("mode=parallel");
    body();
  }
}

TEST(ParallelForEdges, EmptyRangeNeverInvokesBody) {
  for_each_mode([] {
    std::atomic<int> calls{0};
    parallel_for(5, 5, [&](std::size_t) { ++calls; });
    parallel_for(7, 3, [&](std::size_t) { ++calls; });  // hi < lo
    apply(0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 0);
  });
}

TEST(ParallelForEdges, SingleElementRange) {
  for_each_mode([] {
    std::atomic<int> calls{0};
    std::atomic<std::size_t> seen{~std::size_t{0}};
    parallel_for(41, 42, [&](std::size_t i) {
      ++calls;
      seen = i;
    });
    EXPECT_EQ(calls.load(), 1);
    EXPECT_EQ(seen.load(), 41u);
    apply(1, [&](std::size_t i) { EXPECT_EQ(i, 0u); });
  });
}

TEST(ParallelForEdges, CoversEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 10'000;
  for_each_mode([] {
    std::vector<std::atomic<int>> hits(kN);
    parallel_for(0, kN, [&](std::size_t i) { hits[i]++; });
    for (std::size_t i = 0; i < kN; ++i)
      ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  });
}

TEST(ParallelForEdges, RangeExactlyAtGranularityDoesNotFork) {
  // n == granularity runs as one sequential leaf; n == granularity + 1
  // must split. The deterministic trace makes fork counts observable.
  constexpr std::size_t kG = 64;
  {
    sched::scoped_deterministic g(1, 4);
    parallel_for(0, kG, [](std::size_t) {}, kG);
    EXPECT_EQ(g.scheduler().num_forks(), 0u);
  }
  {
    sched::scoped_deterministic g(1, 4);
    parallel_for(0, kG + 1, [](std::size_t) {}, kG);
    EXPECT_GE(g.scheduler().num_forks(), 1u);
  }
}

TEST(ParallelForEdges, GranularityBoundaryStillCoversRange) {
  constexpr std::size_t kG = 64;
  for (std::size_t n : {kG - 1, kG, kG + 1, 2 * kG, 2 * kG + 1}) {
    for_each_mode([n] {
      std::vector<std::atomic<int>> hits(n);
      parallel_for(0, n, [&](std::size_t i) { hits[i]++; }, kG);
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "n=" << n << " index " << i;
    });
  }
}

TEST(ParallelForEdges, NestedParallelForInsideFork2Join) {
  for_each_mode([] {
    constexpr std::size_t kN = 2000;
    std::vector<std::atomic<int>> left(kN), right(kN);
    fork2join(
        [&] { parallel_for(0, kN, [&](std::size_t i) { left[i]++; }); },
        [&] { parallel_for(0, kN, [&](std::size_t i) { right[i]++; }); });
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(left[i].load(), 1) << i;
      ASSERT_EQ(right[i].load(), 1) << i;
    }
  });
}

TEST(ParallelForEdges, NonPoolThreadRunsNestedParallelismSafely) {
  // A thread that is not a pool worker (worker_id() < 0) must fall back to
  // the safe sequential path for fork2join — including nested
  // parallel_for inside the branches — and still cover every index.
  (void)sched::get_scheduler();  // pool up before the foreign thread starts
  constexpr std::size_t kN = 4000;
  std::vector<std::atomic<int>> hits(kN);
  std::atomic<bool> ok{true};
  std::thread outsider([&] {
    if (sched::scheduler::worker_id() >= 0) {
      ok = false;  // precondition: this thread is not in the pool
      return;
    }
    fork2join(
        [&] { parallel_for(0, kN / 2, [&](std::size_t i) { hits[i]++; }); },
        [&] {
          parallel_for(kN / 2, kN, [&](std::size_t i) { hits[i]++; });
        });
  });
  outsider.join();
  EXPECT_TRUE(ok.load());
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

// filter -> scan -> map-to-parray -> flatten -> to_array: every terminal
// and forcing path of the delayed library allocates along the way.
parray<std::int64_t> nested_pipeline(std::size_t n) {
  auto input = delayed::tabulate(n, [](std::size_t i) {
    return static_cast<std::int64_t>(i * 2654435761u % 1009);
  });
  auto kept =
      delayed::filter([](std::int64_t v) { return v % 3 != 0; }, input);
  auto prefix = delayed::scan(
                    [](std::int64_t a, std::int64_t b) { return a + b; },
                    std::int64_t{0}, kept)
                    .first;
  auto inners = delayed::map(
      [](std::int64_t v) {
        return parray<std::int64_t>::tabulate(
            static_cast<std::size_t>(v % 4) + 1,
            [v](std::size_t j) { return v + static_cast<std::int64_t>(j); });
      },
      prefix);
  return delayed::to_array(delayed::flatten(inners));
}

TEST(ParallelForEdges, NonPoolThreadsRunDelayedPipelinesBesideThePool) {
  // Threads outside the pool take the sequential fallback while the pool's
  // own caller forks onto the workers, all allocating through the one
  // tracker (and any ambient budget) at once. Every result must match the
  // sequential reference, every tracked byte must come back, and the pool
  // must stay usable. n stays small enough that the four concurrent
  // pipelines fit a 16 MiB PBDS_BUDGET_BYTES.
  constexpr std::size_t kN = std::size_t{1} << 15;
  constexpr int kOutsiders = 3;
  constexpr int kRounds = 5;
  (void)sched::get_scheduler();  // this thread is the pool's caller
  const parray<std::int64_t> ref = [] {
    sched::scoped_sequential seq;
    return nested_pipeline(kN);
  }();
  auto matches_ref = [&ref](const parray<std::int64_t>& got) {
    return got.size() == ref.size() &&
           std::equal(got.begin(), got.end(), ref.begin());
  };
  const std::int64_t baseline = memory::bytes_live();

  std::atomic<bool> go{false};
  std::atomic<int> mismatches{0};
  // One slot per caller (outsiders first, the pool's caller last): the
  // failure message of a pipeline that threw, so no exception escapes a
  // thread.
  std::vector<std::string> errors(kOutsiders + 1);
  auto run_rounds = [&](std::string& error) {
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    try {
      for (int r = 0; r < kRounds; ++r)
        if (!matches_ref(nested_pipeline(kN))) mismatches.fetch_add(1);
    } catch (const std::exception& e) {
      error = e.what();
    }
  };
  std::atomic<int> outsiders_in_pool{0};
  std::vector<std::thread> outsiders;
  outsiders.reserve(kOutsiders);
  for (int t = 0; t < kOutsiders; ++t) {
    outsiders.emplace_back([&, t] {
      if (sched::scheduler::worker_id() >= 0) outsiders_in_pool.fetch_add(1);
      run_rounds(errors[t]);
    });
  }
  go.store(true, std::memory_order_release);
  run_rounds(errors[kOutsiders]);
  for (auto& t : outsiders) t.join();

  EXPECT_EQ(outsiders_in_pool.load(), 0);
  for (int t = 0; t <= kOutsiders; ++t)
    EXPECT_EQ(errors[t], "") << "caller " << t;
  EXPECT_EQ(mismatches.load(), 0);
  sched::quiesce();
  EXPECT_EQ(memory::bytes_live(), baseline);
  EXPECT_TRUE(matches_ref(nested_pipeline(kN)));
  sched::quiesce();
  EXPECT_EQ(memory::bytes_live(), baseline);
}

TEST(ParallelForEdges, ApplyUsesGranularityOne) {
  // apply(n, f) treats each index as a block-sized task: under the
  // deterministic scheduler an n-leaf apply forks n - 1 times.
  sched::scoped_deterministic g(5, 4);
  apply(9, [](std::size_t) {});
  EXPECT_EQ(g.scheduler().num_forks(), 8u);
}

}  // namespace
