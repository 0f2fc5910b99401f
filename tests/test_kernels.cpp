// Integration tests: every benchmark kernel produces correct results under
// all three library policies (array / rad / delay), on small inputs and
// across block sizes.
#include <gtest/gtest.h>

#include <string_view>
#include <vector>

#include "benchmarks/bestcut.hpp"
#include "benchmarks/bfs.hpp"
#include "benchmarks/bignum_add.hpp"
#include "benchmarks/grep.hpp"
#include "benchmarks/integrate.hpp"
#include "benchmarks/linearrec.hpp"
#include "benchmarks/linefit.hpp"
#include "benchmarks/mcss.hpp"
#include "benchmarks/policies.hpp"
#include "benchmarks/primes.hpp"
#include "benchmarks/quickhull.hpp"
#include "benchmarks/spmv.hpp"
#include "benchmarks/tokens.hpp"
#include "benchmarks/wc.hpp"
#include "core/block.hpp"
#include "sched/deterministic.hpp"
#include "text/text.hpp"

namespace {

using namespace pbds;          // NOLINT
using namespace pbds::bench;   // NOLINT

class KernelsTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  scoped_block_size guard_{GetParam()};
};

TEST_P(KernelsTest, Bestcut) {
  auto events = bestcut_input(10'000);
  double want = bestcut_reference(events);
  EXPECT_DOUBLE_EQ(bestcut<array_policy>(events), want);
  EXPECT_DOUBLE_EQ(bestcut<rad_policy>(events), want);
  EXPECT_DOUBLE_EQ(bestcut<delay_policy>(events), want);
}

TEST_P(KernelsTest, Bfs) {
  auto g = graph::rmat(10, 8'000);
  graph::vertex source = 0;
  auto pa = bfs<array_policy>(g, source);
  auto pr = bfs<rad_policy>(g, source);
  auto pd = bfs<delay_policy>(g, source);
  auto as_fn = [](const parray<std::atomic<graph::vertex>>& p) {
    return [&p](std::size_t v) {
      return p[v].load(std::memory_order_relaxed);
    };
  };
  EXPECT_TRUE(graph::check_bfs_tree(g, source, as_fn(pa)));
  EXPECT_TRUE(graph::check_bfs_tree(g, source, as_fn(pr)));
  EXPECT_TRUE(graph::check_bfs_tree(g, source, as_fn(pd)));
}

TEST_P(KernelsTest, BignumAdd) {
  for (std::size_t n : {1u, 100u, 9'999u}) {
    auto a = bignum::random_bignum(n, 1);
    auto b = bignum::random_bignum(n, 2);
    auto want = bignum::reference_add(a, b);
    auto check = [&](const bignum_sum& got) {
      ASSERT_EQ(got.digits.size(), n);
      for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(got.digits[i], want[i]);
      ASSERT_EQ(got.carry_out, want[n]);
    };
    check(bignum_add<array_policy>(a, b));
    check(bignum_add<rad_policy>(a, b));
    check(bignum_add<delay_policy>(a, b));
  }
}

TEST_P(KernelsTest, BignumAddWorstCaseCarry) {
  std::size_t n = 5'000;
  auto a = bignum::all_ones(n);
  auto b = bignum::random_bignum(n, 3);
  auto want = bignum::reference_add(a, b);
  auto got = bignum_add<delay_policy>(a, b);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(got.digits[i], want[i]);
  ASSERT_EQ(got.carry_out, want[n]);
}

// Element by element against the sequential sieve's list.
void expect_primes(const parray<std::int64_t>& got, std::int64_t n,
                   const std::vector<std::int64_t>& want,
                   std::string_view what) {
  ASSERT_EQ(got.size(), want.size()) << what << " n=" << n;
  for (std::size_t i = 0; i < want.size(); ++i)
    ASSERT_EQ(got[i], want[i]) << what << " n=" << n << " i=" << i;
}

TEST_P(KernelsTest, Primes) {
  for (std::int64_t n : {1, 2, 3, 10, 97, 10'000}) {
    auto want = reference_primes(n);
    expect_primes(primes<array_policy>(n), n, want, "array");
    expect_primes(primes<rad_policy>(n), n, want, "rad");
    expect_primes(primes<delay_policy>(n), n, want, "delay");
  }
}

TEST_P(KernelsTest, Tokens) {
  auto text = text::random_words(20'000, 7.0);
  auto want = tokens_reference(text);
  EXPECT_EQ(tokens<array_policy>(text), want);
  EXPECT_EQ(tokens<rad_policy>(text), want);
  EXPECT_EQ(tokens<delay_policy>(text), want);
}

TEST_P(KernelsTest, Grep) {
  auto text = text::random_lines(30'000);
  std::string_view pattern = "ab";
  auto want = grep_reference(text, pattern);
  EXPECT_GT(want.matching_lines, 0u);
  EXPECT_EQ(grep<array_policy>(text, pattern), want);
  EXPECT_EQ(grep<rad_policy>(text, pattern), want);
  EXPECT_EQ(grep<delay_policy>(text, pattern), want);
}

TEST_P(KernelsTest, Integrate) {
  std::size_t n = 200'000;
  double exact = integrate_exact();
  double ga = integrate<array_policy>(n);
  double gr = integrate<rad_policy>(n);
  double gd = integrate<delay_policy>(n);
  // Identical blocking => identical summation order => identical bits.
  EXPECT_EQ(ga, gr);
  EXPECT_EQ(gr, gd);
  EXPECT_NEAR(gd, exact, 1e-3 * exact);
}

TEST_P(KernelsTest, Linearrec) {
  auto coefs = linearrec_input(30'000);
  auto want = linearrec_reference(coefs);
  auto ra = linearrec<array_policy>(coefs);
  auto rr = linearrec<rad_policy>(coefs);
  auto rd = linearrec<delay_policy>(coefs);
  ASSERT_EQ(ra.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    // The blocked scan reassociates the affine composition; allow small
    // floating-point divergence from the sequential reference.
    ASSERT_NEAR(rd[i], want[i], 1e-9) << i;
    ASSERT_EQ(ra[i], rd[i]) << i;  // identical blocking across libraries
    ASSERT_EQ(rr[i], rd[i]) << i;
  }
}

TEST_P(KernelsTest, Linefit) {
  auto pts = linefit_input(50'000);
  auto want = linefit_reference(pts);
  for (auto got : {linefit<array_policy>(pts), linefit<rad_policy>(pts),
                   linefit<delay_policy>(pts)}) {
    EXPECT_NEAR(got.slope, want.slope, 1e-9);
    EXPECT_NEAR(got.intercept, want.intercept, 1e-9);
    EXPECT_NEAR(got.slope, 2.0, 0.01);     // the generating line
    EXPECT_NEAR(got.intercept, 1.0, 0.01);
  }
}

TEST_P(KernelsTest, Mcss) {
  auto a = mcss_input(50'000);
  auto want = mcss_reference(a);
  EXPECT_EQ(mcss<array_policy>(a), want);
  EXPECT_EQ(mcss<rad_policy>(a), want);
  EXPECT_EQ(mcss<delay_policy>(a), want);
}

TEST_P(KernelsTest, Quickhull) {
  auto pts = geom::points_in_disk(20'000);
  std::size_t want = quickhull_reference(pts);
  EXPECT_GT(want, 3u);
  EXPECT_EQ(quickhull<array_policy>(pts), want);
  EXPECT_EQ(quickhull<rad_policy>(pts), want);
  EXPECT_EQ(quickhull<delay_policy>(pts), want);
}

TEST_P(KernelsTest, Spmv) {
  auto m = spmv_input(2'000, 20);
  auto x = spmv_vector(2'000);
  auto want = spmv_reference(m, x);
  auto ya = spmv<array_policy>(m, x);
  auto yr = spmv<rad_policy>(m, x);
  auto yd = spmv<delay_policy>(m, x);
  ASSERT_EQ(ya.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_NEAR(yd[i], want[i], 1e-9);
    ASSERT_EQ(ya[i], yd[i]);
    ASSERT_EQ(yr[i], yd[i]);
  }
}

TEST_P(KernelsTest, Wc) {
  auto text = text::random_lines(40'000);
  auto want = text::reference_wc(text);
  EXPECT_EQ(wc<array_policy>(text), want);
  EXPECT_EQ(wc<rad_policy>(text), want);
  EXPECT_EQ(wc<delay_policy>(text), want);
}

// The sieve marks its flags segment by segment (kPrimesSegment = S). Around
// one and three segments, under every schedule: at n = 3S, n is composite
// and alone in its last segment. Only Ours runs here; A and R hold 8 bytes
// per composite, over the 16 MiB budget the hostile-env tests run under.
TEST(PrimesSegments, EdgesMatchSequentialSieve) {
  constexpr std::int64_t S = kPrimesSegment;
  for (std::int64_t n : {S - 1, S, S + 1, 3 * S - 1, 3 * S, 3 * S + 1}) {
    auto want = reference_primes(n);
    {
      sched::scoped_sequential g;
      expect_primes(primes<delay_policy>(n), n, want, "sequential");
    }
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(::testing::Message() << "seed=" << seed);
      sched::scoped_deterministic g(seed, 4);
      expect_primes(primes<delay_policy>(n), n, want, "deterministic");
    }
    expect_primes(primes<delay_policy>(n), n, want, "pool");
  }
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, KernelsTest,
                         ::testing::Values(1, 16, 257, 2048),
                         [](const auto& info) {
                           return "B" + std::to_string(info.param);
                         });

}  // namespace
