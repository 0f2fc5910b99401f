// Pool longevity soak: thousands of alternating failing and succeeding
// parallel regions on a single pool. A long-lived service reuses one
// scheduler for its whole lifetime, so an exception-heavy workload must
// not leak workers (pool shrink), memory (bytes_live creep), or speed
// (per-round wall-clock growth).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>

#include "array/parray.hpp"
#include "memory/tracking.hpp"
#include "sched/deterministic.hpp"
#include "sched/parallel.hpp"
#include "sched/scheduler.hpp"

namespace {

// A region that fails from a round-dependent index. The throw is captured
// by the region's cancel_state, siblings bail at fork boundaries, and the
// root join rethrows here.
void failing_region(int round) {
  pbds::parallel_for(
      0, 2048,
      [&](std::size_t i) {
        if (i == static_cast<std::size_t>((round * 37) % 2048))
          throw std::runtime_error("injected round failure");
      },
      64);
}

// A region that allocates, computes, and frees — so bytes_live drift is
// visible immediately if any round leaks.
std::uint64_t succeeding_region(std::size_t n) {
  auto a = pbds::parray<std::uint64_t>::tabulate(
      n, [](std::size_t i) { return static_cast<std::uint64_t>(i); });
  std::atomic<std::uint64_t> sum{0};
  pbds::parallel_for(
      0, a.size(),
      [&](std::size_t i) { sum.fetch_add(a[i], std::memory_order_relaxed); },
      256);
  return sum.load();
}

void run_rounds(int rounds, std::size_t n) {
  const std::uint64_t want =
      static_cast<std::uint64_t>(n) * (n - 1) / 2;
  const std::int64_t baseline = pbds::memory::bytes_live();
  for (int r = 0; r < rounds; ++r) {
    if (r % 2 == 0) {
      EXPECT_THROW(failing_region(r), std::runtime_error) << "round " << r;
    } else {
      EXPECT_EQ(succeeding_region(n), want) << "round " << r;
    }
    // Every round returns memory to the baseline: failed regions free
    // their partial allocations during unwinding too.
    ASSERT_EQ(pbds::memory::bytes_live(), baseline) << "round " << r;
  }
}

TEST(PoolLongevity, SequentialPoolSurvivesAlternatingFailures) {
  unsigned before = pbds::sched::num_workers();
  pbds::sched::set_num_workers(1);
  run_rounds(1000, 1 << 12);
  EXPECT_EQ(pbds::sched::num_workers(), 1u);
  pbds::sched::set_num_workers(before);
}

TEST(PoolLongevity, DeterministicPoolSurvivesAcrossSeeds) {
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    pbds::sched::scoped_deterministic det(seed, 4);
    run_rounds(64, 1 << 10);
  }
}

TEST(PoolLongevity, RealPoolKeepsWorkersAndSpeedOverThousandsOfRounds) {
  unsigned before = pbds::sched::num_workers();
  pbds::sched::set_num_workers(4);
  ASSERT_EQ(pbds::sched::num_workers(), 4u);

  auto timed_rounds = [](int rounds) {
    auto t0 = std::chrono::steady_clock::now();
    run_rounds(rounds, 1 << 12);
    auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
  };
  const double first_half = timed_rounds(1000);
  // No worker was lost to the 500 exceptions of the first half.
  EXPECT_EQ(pbds::sched::num_workers(), 4u);
  const double second_half = timed_rounds(1000);
  EXPECT_EQ(pbds::sched::num_workers(), 4u);

  // Wall-clock stays stable: the second thousand rounds may jitter but
  // must not degrade the way a pool leaking workers or state would. The
  // bound is deliberately loose (4x + 100ms) to stay robust on loaded CI.
  EXPECT_LT(second_half, 4.0 * first_half + 0.1)
      << "first=" << first_half << "s second=" << second_half << "s";

  pbds::sched::set_num_workers(before);
}

}  // namespace
