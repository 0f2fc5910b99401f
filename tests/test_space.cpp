// The paper's space claims as executable assertions: for each fusion
// pattern, the delayed library must allocate asymptotically less than the
// baselines, measured with the byte-exact accounting. These are the §5/§6
// headline claims — not "delay is a bit smaller" but "delay is O(b) or
// O(survivors) where the baselines are O(n)".
#include <gtest/gtest.h>

#include <cstdint>

#include "benchmarks/bfs.hpp"
#include "benchmarks/integrate.hpp"
#include "benchmarks/policies.hpp"
#include "core/block.hpp"
#include "core/delayed.hpp"
#include "memory/tracking.hpp"

namespace {

using namespace pbds;  // NOLINT

constexpr std::size_t kN = 1 << 18;  // 256K elements, 512 blocks of 512
constexpr std::size_t kB = 512;

// map -> reduce: delay allocates O(b); array allocates O(n) twice.
TEST(SpaceClaims, MapReduce) {
  scoped_block_size guard(kB);
  auto in = parray<std::int64_t>::tabulate(
      kN, [](std::size_t i) { return (std::int64_t)i; });
  memory::space_meter ma;
  {
    auto m = array_policy::map([](std::int64_t x) { return x * 2; },
                               array_policy::view(in));
    volatile auto r = array_policy::reduce(
        [](std::int64_t a, std::int64_t b) { return a + b; },
        std::int64_t{0}, m);
    (void)r;
  }
  std::int64_t array_bytes = ma.allocated_bytes();

  memory::space_meter md;
  {
    auto m = delay_policy::map([](std::int64_t x) { return x * 2; },
                               delay_policy::view(in));
    volatile auto r = delay_policy::reduce(
        [](std::int64_t a, std::int64_t b) { return a + b; },
        std::int64_t{0}, m);
    (void)r;
  }
  std::int64_t delay_bytes = md.allocated_bytes();

  EXPECT_GE(array_bytes, static_cast<std::int64_t>(kN * 8));  // O(n)
  EXPECT_LE(delay_bytes,
            static_cast<std::int64_t>(8 * (kN / kB) * 8));  // O(b)
  EXPECT_GE(array_bytes / std::max<std::int64_t>(delay_bytes, 1), 50);
}

// scan pipeline: delay O(b); rad O(n) (materialized scan output).
TEST(SpaceClaims, ScanPipeline) {
  scoped_block_size guard(kB);
  auto in = parray<std::int64_t>::tabulate(
      kN, [](std::size_t i) { return (std::int64_t)(i % 5); });
  auto run = [&](auto p) {
    using P = decltype(p);
    auto [pre, tot] = P::scan(
        [](std::int64_t a, std::int64_t b) { return a + b; },
        std::int64_t{0}, P::view(in));
    (void)tot;
    volatile auto r = P::reduce(
        [](std::int64_t a, std::int64_t b) { return a + b; },
        std::int64_t{0}, pre);
    (void)r;
  };
  memory::space_meter mr;
  run(rad_policy{});
  std::int64_t rad_bytes = mr.allocated_bytes();
  memory::space_meter md;
  run(delay_policy{});
  std::int64_t delay_bytes = md.allocated_bytes();
  EXPECT_GE(rad_bytes, static_cast<std::int64_t>(kN * 8));
  EXPECT_LE(delay_bytes, static_cast<std::int64_t>(8 * (kN / kB) * 8));
}

// filter: delay allocates ~survivors; array allocates n-sized map output
// plus survivors plus packing.
TEST(SpaceClaims, SparseFilter) {
  scoped_block_size guard(kB);
  auto in = parray<std::int64_t>::tabulate(
      kN, [](std::size_t i) { return (std::int64_t)i; });
  auto run = [&](auto p) {
    using P = decltype(p);
    auto kept = P::filter([](std::int64_t x) { return x % 1000 == 0; },
                          P::view(in));
    volatile auto r = P::reduce(
        [](std::int64_t a, std::int64_t b) { return a + b; },
        std::int64_t{0}, kept);
    (void)r;
  };
  memory::space_meter md;
  run(delay_policy{});
  std::int64_t delay_bytes = md.allocated_bytes();
  // survivors ~ kN/1000 int64s + offsets (kN/kB size_ts) + slack.
  EXPECT_LE(delay_bytes, static_cast<std::int64_t>(64 * (kN / kB) * 8));
  EXPECT_LT(delay_bytes, static_cast<std::int64_t>(kN));  // << n * 8
}

// The integrate benchmark: delay allocates O(b), array O(n) (the paper's
// 250x space story).
TEST(SpaceClaims, IntegrateAllocation) {
  scoped_block_size guard(kB);
  memory::space_meter ma;
  volatile double ra = bench::integrate<array_policy>(kN);
  (void)ra;
  std::int64_t array_bytes = ma.allocated_bytes();
  memory::space_meter md;
  volatile double rd = bench::integrate<delay_policy>(kN);
  (void)rd;
  std::int64_t delay_bytes = md.allocated_bytes();
  EXPECT_GE(array_bytes, static_cast<std::int64_t>(kN * 8));
  EXPECT_GE(array_bytes / std::max<std::int64_t>(delay_bytes, 1), 100);
}

// §5.1's BFS claim: total allocation O(N + M/B) for delay vs O(N + M) for
// array. With M >> N the ratio must be substantial.
TEST(SpaceClaims, BfsAllocation) {
  scoped_block_size guard(kB);
  auto g = graph::uniform(1 << 10, 1 << 17);  // M = 128 * N
  memory::space_meter ma;
  { auto p = bench::bfs<array_policy>(g, 0); }
  std::int64_t array_bytes = ma.allocated_bytes();
  memory::space_meter md;
  { auto p = bench::bfs<delay_policy>(g, 0); }
  std::int64_t delay_bytes = md.allocated_bytes();
  EXPECT_GT(array_bytes, 4 * delay_bytes);
}

// flatten (Fig. 10 lines 44-47) keeps only what its walk reads: the forced
// inner sequences and their count + 1 offsets. Once the outer sequence is
// out of scope, nothing it held (here filter's packed survivors) may stay
// alive in the flattened result.
TEST(SpaceClaims, FlattenHoldsOnlyInnersAndOffsets) {
  scoped_block_size guard(kB);
  auto in = parray<std::int64_t>::tabulate(
      kN, [](std::size_t i) { return (std::int64_t)i; });
  std::int64_t base = memory::bytes_live();
  std::size_t inner_bytes = 0;
  auto flat = [&] {
    auto evens =
        delayed::filter([](std::int64_t x) { return x % 2 == 0; }, in);
    auto outer = delayed::map(
        [](std::int64_t v) {
          return delayed::tabulate(
              2, [v](std::size_t j) { return v + (std::int64_t)j; });
        },
        evens);
    inner_bytes = sizeof(typename decltype(outer)::value_type);
    return delayed::flatten(outer);
  }();
  const std::size_t count = kN / 2;
  EXPECT_EQ(memory::bytes_live() - base,
            static_cast<std::int64_t>(count * inner_bytes +
                                      (count + 1) * sizeof(std::size_t)));
  auto out = delayed::to_array(flat);
  ASSERT_EQ(out.size(), kN);
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(out[i], (std::int64_t)i);
}

// Peak residency (not just total allocation) must also improve: the scan
// pipeline holds only partials at peak under delay.
TEST(SpaceClaims, PeakResidencyScan) {
  scoped_block_size guard(kB);
  auto in = parray<std::int64_t>::tabulate(
      kN, [](std::size_t i) { return (std::int64_t)i; });
  auto run = [&](auto p) {
    using P = decltype(p);
    auto [pre, tot] = P::scan(
        [](std::int64_t a, std::int64_t b) { return a + b; },
        std::int64_t{0}, P::view(in));
    (void)tot;
    volatile auto r = P::reduce(
        [](std::int64_t a, std::int64_t b) { return a + b; },
        std::int64_t{0}, pre);
    (void)r;
  };
  memory::space_meter mr;
  run(rad_policy{});
  std::int64_t rad_peak = mr.peak_delta_bytes();
  memory::space_meter md;
  run(delay_policy{});
  std::int64_t delay_peak = md.peak_delta_bytes();
  EXPECT_GT(rad_peak, 10 * std::max<std::int64_t>(delay_peak, 1));
}

}  // namespace
