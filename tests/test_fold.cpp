// fold(step, combine, z, s) in A, R and Ours: each block copies z and runs
// the in-place step(acc, x) over its elements in order, then the block
// partials are combined left to right. With an associative combine whose
// identity is z, every library must equal the sequential left fold, under
// every schedule, and allocate exactly reduce's nb partials.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "benchmarks/policies.hpp"
#include "core/block.hpp"
#include "memory/tracking.hpp"
#include "sched/deterministic.hpp"
#include "sched/exec_policy.hpp"

namespace {

using namespace pbds;  // NOLINT

// A polynomial hash of the elements folded so far, with base^len and len.
// concat(a, b) is the hash of a's elements followed by b's: associative,
// identity poly{}, and not commutative, so a fold that reorders elements
// or partials gets a different value.
struct poly {
  std::uint64_t h = 0;
  std::uint64_t pw = 1;
  std::uint64_t len = 0;
  friend bool operator==(const poly&, const poly&) = default;
};

constexpr std::uint64_t kBase = 0x100000001b3ull;

auto step = [](poly& acc, std::uint32_t x) {
  acc.h = acc.h * kBase + x + 1;
  acc.pw *= kBase;
  acc.len += 1;
};

auto concat = [](const poly& a, const poly& b) {
  return poly{a.h * b.pw + b.h, a.pw * b.pw, a.len + b.len};
};

auto scramble = [](std::uint32_t x) { return x ^ 0x5bd1e995u; };
auto keep = [](std::uint32_t x) { return x % 3 != 0; };

parray<std::uint32_t> input(std::size_t n) {
  return parray<std::uint32_t>::tabulate(n, [](std::size_t i) {
    auto x = static_cast<std::uint32_t>(i);
    return x * 2654435761u ^ (x >> 3);
  });
}

poly left_fold(const std::vector<std::uint32_t>& xs) {
  poly acc{};
  for (std::uint32_t x : xs) step(acc, x);
  return acc;
}

std::vector<std::size_t> sizes(std::size_t b) {
  return {0, 1, b - 1, b, b + 1, 37 * b + 5};
}

// Folds a plain input, a map over it (fused in R and Ours) and a filter of
// it (a BID of packed blocks in Ours) through P, against the sequential
// left folds of the same elements.
template <typename P>
void expect_left_fold(const parray<std::uint32_t>& data,
                      const std::string& label) {
  std::vector<std::uint32_t> plain(data.begin(), data.end());
  std::vector<std::uint32_t> mapped;
  std::vector<std::uint32_t> kept;
  for (std::uint32_t x : plain) {
    mapped.push_back(scramble(x));
    if (keep(x)) kept.push_back(x);
  }
  const std::string at = label + " " + P::name + " n=" +
                         std::to_string(data.size());
  EXPECT_EQ(P::fold(step, concat, poly{}, P::view(data)), left_fold(plain))
      << at << " plain";
  EXPECT_EQ(P::fold(step, concat, poly{}, P::map(scramble, P::view(data))),
            left_fold(mapped))
      << at << " map";
  EXPECT_EQ(P::fold(step, concat, poly{}, P::filter(keep, P::view(data))),
            left_fold(kept))
      << at << " filter";
}

void expect_all_libraries(const std::string& label) {
  for (std::size_t n : sizes(block_size())) {
    auto data = input(n);
    expect_left_fold<array_policy>(data, label);
    expect_left_fold<rad_policy>(data, label);
    expect_left_fold<delay_policy>(data, label);
  }
}

class FoldTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  scoped_block_size guard_{GetParam()};
};

TEST(Fold, AccumulatorIsOrderSensitive) {
  poly a{}, b{};
  step(a, 1);
  step(b, 2);
  EXPECT_NE(concat(a, b), concat(b, a));
  EXPECT_EQ(concat(poly{}, a), a);
  EXPECT_EQ(concat(a, poly{}), a);
}

TEST_P(FoldTest, MatchesLeftFoldSequential) {
  sched::scoped_sequential seq;
  expect_all_libraries("sequential");
}

TEST_P(FoldTest, MatchesLeftFoldDeterministic) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    sched::scoped_deterministic det(seed, 4);
    expect_all_libraries("det seed=" + std::to_string(seed));
  }
}

TEST_P(FoldTest, MatchesLeftFoldRealPool) {
  ASSERT_EQ(sched::current_exec_mode(), sched::exec_mode::parallel);
  expect_all_libraries("pool");
}

// reduce's allocation rule: one tracked allocation of nb partials when the
// input spans more than one block, none otherwise.
template <typename P>
void expect_partials_only(const parray<std::uint32_t>& data) {
  std::size_t nb = num_blocks_for(data.size(), block_size());
  memory::space_meter m;
  poly got = P::fold(step, concat, poly{}, P::view(data));
  const std::int64_t count = m.alloc_count();
  const std::int64_t bytes = m.allocated_bytes();
  EXPECT_EQ(got.len, data.size()) << P::name;
  EXPECT_EQ(count, nb > 1 ? 1 : 0) << P::name << " n=" << data.size();
  EXPECT_EQ(bytes, nb > 1 ? static_cast<std::int64_t>(nb * sizeof(poly)) : 0)
      << P::name << " n=" << data.size();
}

TEST_P(FoldTest, AllocatesPartialsOnlyForMoreThanOneBlock) {
  for (std::size_t n : sizes(block_size())) {
    auto data = input(n);
    expect_partials_only<array_policy>(data);
    expect_partials_only<rad_policy>(data);
    expect_partials_only<delay_policy>(data);
  }
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, FoldTest,
                         ::testing::Values(1, 64, 2048),
                         [](const auto& info) {
                           std::string name = "B";
                           name += std::to_string(info.param);
                           return name;
                         });

}  // namespace
