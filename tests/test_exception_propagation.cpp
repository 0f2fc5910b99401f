// Exception propagation across the fork-join layer.
//
// The failure model under test (DESIGN.md §"Failure semantics"): a throw
// from any branch of a fork tree — left, right, both, a deep
// parallel_for chunk, a stolen job on another worker, or a thread outside
// the pool — is rethrown as exactly ONE exception on the calling thread,
// with its type and payload intact, nothing leaked, every sibling join
// completed, and the pool quiescent and reusable afterwards. Scenarios run
// under all three execution modes: sequential, deterministic (16-seed
// sweep; cancellation interleavings must replay per seed), and the real
// work-stealing pool.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <new>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "array/parray.hpp"
#include "benchmarks/policies.hpp"
#include "memory/counting_allocator.hpp"
#include "memory/tracking.hpp"
#include "sched/deterministic.hpp"
#include "sched/exec_policy.hpp"
#include "sched/parallel.hpp"
#include "sched/scheduler.hpp"

namespace {

using namespace pbds;  // NOLINT

// Distinguishable payload: propagation must preserve both type and value.
struct test_error {
  int id;
};

// A clean computation on the current pool/mode; failing here after a
// caught exception means the failure left the scheduler wedged or lost.
void expect_pool_clean() {
  std::atomic<std::int64_t> sum{0};
  parallel_for(
      0, 20'000,
      [&](std::size_t i) {
        sum.fetch_add(static_cast<std::int64_t>(i),
                      std::memory_order_relaxed);
      },
      64);
  EXPECT_EQ(sum.load(), 20'000LL * 19'999 / 2);
}

// Run `scenario` under sequential, a 16-seed deterministic sweep, and the
// real pool (the ambient parallel mode).
template <typename Fn>
void for_each_mode(Fn&& scenario) {
  {
    SCOPED_TRACE("mode=sequential");
    sched::scoped_sequential seq;
    scenario();
  }
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    SCOPED_TRACE("mode=det seed=" + std::to_string(seed) +
                 "  [replay: PBDS_SEED=" + std::to_string(seed) + "]");
    sched::scoped_deterministic det(seed, 4);
    scenario();
  }
  {
    // Force a real multi-worker pool even on single-core machines —
    // otherwise fork2join takes its sequential fast path and the
    // capture/cancel/rethrow protocol is never crossed.
    SCOPED_TRACE("mode=parallel");
    unsigned before = sched::num_workers();
    if (before < 4) sched::set_num_workers(4);
    scenario();
    if (before < 4) sched::set_num_workers(before);
  }
}

// --- single branches ---------------------------------------------------------

TEST(ExceptionPropagation, ThrowFromLeftBranch) {
  for_each_mode([] {
    bool caught = false;
    try {
      fork2join([] { throw test_error{1}; }, [] {});
    } catch (const test_error& e) {
      caught = true;
      EXPECT_EQ(e.id, 1);
    }
    EXPECT_TRUE(caught);
    expect_pool_clean();
  });
}

TEST(ExceptionPropagation, ThrowFromRightBranch) {
  for_each_mode([] {
    bool caught = false;
    try {
      fork2join([] {}, [] { throw test_error{2}; });
    } catch (const test_error& e) {
      caught = true;
      EXPECT_EQ(e.id, 2);
    }
    EXPECT_TRUE(caught);
    expect_pool_clean();
  });
}

TEST(ExceptionPropagation, ThrowFromBothBranchesYieldsExactlyOne) {
  for_each_mode([] {
    int catches = 0;
    int id = 0;
    try {
      fork2join([] { throw test_error{1}; }, [] { throw test_error{2}; });
    } catch (const test_error& e) {
      ++catches;
      id = e.id;
    }
    EXPECT_EQ(catches, 1);
    EXPECT_TRUE(id == 1 || id == 2) << id;
    expect_pool_clean();
  });
}

TEST(ExceptionPropagation, PayloadSurvivesRethrow) {
  for_each_mode([] {
    try {
      fork2join([] {},
                [] { throw std::runtime_error("boom: fork failure"); });
      ADD_FAILURE() << "no exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom: fork failure");
    }
  });
}

// --- deep trees and loops ----------------------------------------------------

TEST(ExceptionPropagation, ThrowFromDeepForkTreeLeaf) {
  for_each_mode([] {
    // Depth-8 fork tree (256 leaves); exactly one leaf throws.
    std::atomic<int> leaves{0};
    std::function<void(int, int)> rec = [&](int depth, int path) {
      if (depth == 0) {
        if (path == 137) throw test_error{path};
        leaves.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      fork2join([&] { rec(depth - 1, path << 1); },
                [&] { rec(depth - 1, (path << 1) | 1); });
    };
    bool caught = false;
    try {
      rec(8, 0);  // leaves are paths 0..255
    } catch (const test_error& e) {
      caught = true;
      EXPECT_EQ(e.id, 137);
    }
    EXPECT_TRUE(caught);
    EXPECT_LE(leaves.load(), 255);
    expect_pool_clean();
  });
}

TEST(ExceptionPropagation, ThrowFromDeepParallelForChunk) {
  for_each_mode([] {
    bool caught = false;
    try {
      parallel_for(
          0, 1 << 16,
          [](std::size_t i) {
            if (i == 12'345) throw test_error{42};
          },
          16);
    } catch (const test_error& e) {
      caught = true;
      EXPECT_EQ(e.id, 42);
    }
    EXPECT_TRUE(caught);
    expect_pool_clean();
  });
}

TEST(ExceptionPropagation, ThrowFromNestedParallelForInsideApply) {
  for_each_mode([] {
    bool caught = false;
    try {
      apply(16, [](std::size_t j) {
        parallel_for(
            0, 1000,
            [j](std::size_t i) {
              if (j == 7 && i == 500) throw test_error{70};
            },
            8);
      });
    } catch (const test_error& e) {
      caught = true;
      EXPECT_EQ(e.id, 70);
    }
    EXPECT_TRUE(caught);
    expect_pool_clean();
  });
}

// --- cancellation ------------------------------------------------------------

// Once a branch throws, sibling/descendant work bails at fork and chunk
// boundaries; under the deterministic scheduler both the amount of work
// skipped and the interleaving trace replay exactly from the seed.
TEST(ExceptionPropagation, CancellationSkipsWorkAndReplaysPerSeed) {
  constexpr std::size_t n = 4096;
  auto run = [](std::uint64_t seed) {
    sched::scoped_deterministic det(seed, 4);
    std::atomic<std::size_t> executed{0};
    bool caught = false;
    try {
      apply(n, [&](std::size_t i) {
        if (i == n / 2) throw test_error{7};
        executed.fetch_add(1, std::memory_order_relaxed);
      });
    } catch (const test_error& e) {
      caught = true;
      EXPECT_EQ(e.id, 7);
    }
    EXPECT_TRUE(caught);
    return std::pair(executed.load(), det.scheduler().trace_hash());
  };
  std::size_t total = 0;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    auto [count1, hash1] = run(seed);
    auto [count2, hash2] = run(seed);
    EXPECT_EQ(count1, count2) << "seed " << seed;
    EXPECT_EQ(hash1, hash2) << "seed " << seed;
    total += count1;
  }
  // The throwing chunk aside, a full run would execute 16 * (n - 1)
  // chunks; cancellation must have skipped a substantial share.
  EXPECT_LT(total, 16 * (n - 1));
}

TEST(ExceptionPropagation, FirstExceptionWinsIsSeedDeterministic) {
  auto winner = [](std::uint64_t seed) {
    sched::scoped_deterministic det(seed, 4);
    try {
      fork2join([] { throw test_error{1}; }, [] { throw test_error{2}; });
    } catch (const test_error& e) {
      return e.id;
    }
    return -1;
  };
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    int a = winner(seed);
    EXPECT_EQ(a, winner(seed)) << "seed " << seed;
    EXPECT_TRUE(a == 1 || a == 2) << a;
  }
}

// --- the real pool -----------------------------------------------------------

TEST(ExceptionPropagation, ThrowFromStolenJob) {
  unsigned before = sched::num_workers();
  sched::set_num_workers(4);
  std::atomic<int> right_worker{-2};
  bool caught = false;
  try {
    fork2join(
        [&] {
          // Park the forker until a thief picks up the right job (bounded,
          // for single-core or overloaded machines: if nobody steals, the
          // forker itself pops and runs the job after the deadline).
          auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(5);
          while (right_worker.load(std::memory_order_acquire) == -2 &&
                 std::chrono::steady_clock::now() < deadline) {
            std::this_thread::yield();
          }
        },
        [&] {
          right_worker.store(pbds::sched::scheduler::worker_id(),
                             std::memory_order_release);
          throw test_error{11};
        });
  } catch (const test_error& e) {
    caught = true;
    EXPECT_EQ(e.id, 11);
  }
  EXPECT_TRUE(caught);
  EXPECT_NE(right_worker.load(), -2);  // the right branch did run
  expect_pool_clean();
  sched::set_num_workers(before);
}

TEST(ExceptionPropagation, ThrowOnNonPoolThread) {
  // A thread outside the pool runs the (safe) sequential fast path of the
  // parallel primitives; its exceptions unwind normally within the thread.
  std::exception_ptr seen;
  std::thread t([&] {
    try {
      parallel_for(0, 10'000, [](std::size_t i) {
        if (i == 777) throw test_error{5};
      });
    } catch (...) {
      seen = std::current_exception();
    }
  });
  t.join();
  ASSERT_TRUE(seen != nullptr);
  try {
    std::rethrow_exception(seen);
  } catch (const test_error& e) {
    EXPECT_EQ(e.id, 5);
  }
  expect_pool_clean();
}

TEST(ExceptionPropagation, PoolSurvivesRepeatedFailures) {
  for (int round = 0; round < 50; ++round) {
    bool caught = false;
    try {
      parallel_for(
          0, 2000,
          [round](std::size_t i) {
            if (i == static_cast<std::size_t>(round * 17 % 2000))
              throw test_error{round};
          },
          1);
    } catch (const test_error& e) {
      caught = true;
      EXPECT_EQ(e.id, round);
    }
    ASSERT_TRUE(caught) << "round " << round;
  }
  expect_pool_clean();
}

// --- leak freedom ------------------------------------------------------------

TEST(ExceptionPropagation, NoLeaksWhenBranchesAllocateAndThrow) {
  for_each_mode([] {
    std::int64_t baseline = memory::bytes_live();
    bool caught = false;
    try {
      fork2join(
          [] {
            // Tracked allocations on the throwing branch: a flat array and
            // a non-trivially-destructible nested one (exercises the
            // shielded destructor sweep during unwinding).
            auto flat = parray<std::int64_t>::tabulate(
                5'000,
                [](std::size_t i) { return static_cast<std::int64_t>(i); });
            auto nested = parray<memory::tracked_vector<int>>::tabulate(
                64, [](std::size_t i) {
                  memory::tracked_vector<int> v;
                  for (std::size_t j = 0; j <= i % 7; ++j)
                    v.push_back(static_cast<int>(j));
                  return v;
                });
            throw test_error{3};
          },
          [] {
            auto other = parray<std::int64_t>::tabulate(
                5'000,
                [](std::size_t i) { return static_cast<std::int64_t>(i); });
          });
    } catch (const test_error& e) {
      caught = true;
      EXPECT_EQ(e.id, 3);
    }
    EXPECT_TRUE(caught);
    EXPECT_EQ(memory::bytes_live(), baseline);
    expect_pool_clean();
  });
}

TEST(ExceptionPropagation, NoLeaksWhenPipelineThrowsMidway) {
  // A user exception (not an injected bad_alloc) from inside a fused
  // delayed pipeline: the library's construction paths must unwind
  // leak-free under every mode.
  for_each_mode([] {
    std::int64_t baseline = memory::bytes_live();
    bool caught = false;
    try {
      auto input = parray<std::int64_t>::tabulate(
          3'000, [](std::size_t i) { return static_cast<std::int64_t>(i); });
      auto odd = delayed::filter([](std::int64_t x) { return (x & 1) == 1; },
                                 delayed::view(input));
      auto mapped = delayed::map(
          [](std::int64_t x) -> std::int64_t {
            if (x == 2'001) throw test_error{21};
            return x * 3;
          },
          odd);
      auto arr = delayed::to_array(mapped);
      (void)arr;
    } catch (const test_error& e) {
      caught = true;
      EXPECT_EQ(e.id, 21);
    }
    EXPECT_TRUE(caught);
    EXPECT_EQ(memory::bytes_live(), baseline);
    expect_pool_clean();
  });
}

}  // namespace
