// Differential oracle suite (see differential.hpp): every benchmark kernel
// and representative fusion pipelines, run under array / rad / delay
// backends × {sequential, deterministic(seed sweep), real scheduler}, with
// element-exact agreement, the paper's space invariant, and seeded replay.
//
// Custom main: `--seed N` (or PBDS_SEED=N) collapses every seed sweep to
// that one seed, for replaying a CI failure locally.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "benchmarks/bestcut.hpp"
#include "benchmarks/bfs.hpp"
#include "benchmarks/bignum_add.hpp"
#include "benchmarks/grep.hpp"
#include "benchmarks/integrate.hpp"
#include "benchmarks/inverted_index.hpp"
#include "benchmarks/linearrec.hpp"
#include "benchmarks/linefit.hpp"
#include "benchmarks/mcss.hpp"
#include "benchmarks/policies.hpp"
#include "benchmarks/primes.hpp"
#include "benchmarks/quickhull.hpp"
#include "benchmarks/spmv.hpp"
#include "benchmarks/tokens.hpp"
#include "benchmarks/wc.hpp"
#include "differential.hpp"
#include "graph/graph.hpp"
#include "memory/counting_allocator.hpp"
#include "text/text.hpp"

namespace {

using namespace pbds;           // NOLINT
using namespace pbds::testing;  // NOLINT

constexpr std::size_t kSeedSweep = 16;    // agreement sweep (>= 16 required)
constexpr std::size_t kReplaySeeds = 4;   // replay runs everything twice

// --- case registry ----------------------------------------------------------

std::vector<diff_case> build_cases() {
  std::vector<diff_case> cases;

  // The twelve evaluation kernels at small scale. Inputs are regenerated
  // inside each run from fixed seeds (generators are index-pure, so the
  // inputs are identical regardless of schedule).
  cases.push_back(make_diff_case("kernel/mcss", []<typename P>() {
    digest d;
    put(d, static_cast<double>(bench::mcss<P>(bench::mcss_input(4000))));
    return d;
  }));
  cases.push_back(make_diff_case("kernel/primes", []<typename P>() {
    digest d;
    put_all(d, bench::primes<P>(3000));
    return d;
  }));
  cases.push_back(make_diff_case("kernel/integrate", []<typename P>() {
    digest d;
    put(d, bench::integrate<P>(20'000));
    return d;
  }));
  cases.push_back(make_diff_case("kernel/linefit", []<typename P>() {
    auto got = bench::linefit<P>(bench::linefit_input(4000));
    digest d;
    put(d, got.slope);
    put(d, got.intercept);
    return d;
  }));
  cases.push_back(make_diff_case("kernel/linearrec", []<typename P>() {
    digest d;
    put_all(d, bench::linearrec<P>(bench::linearrec_input(3000)));
    return d;
  }));
  cases.push_back(make_diff_case("kernel/tokens", []<typename P>() {
    auto got = bench::tokens<P>(text::random_words(4000, 7.0));
    digest d;
    put(d, static_cast<double>(got.count));
    put(d, static_cast<double>(got.total_len));
    put(d, static_cast<double>(got.hash % (1ull << 52)));
    return d;
  }));
  cases.push_back(make_diff_case("kernel/grep", []<typename P>() {
    auto got = bench::grep<P>(text::random_lines(5000), "ab");
    digest d;
    put(d, static_cast<double>(got.matching_lines));
    put(d, static_cast<double>(got.matching_bytes));
    put(d, static_cast<double>(got.hash % (1ull << 52)));
    return d;
  }));
  cases.push_back(make_diff_case("kernel/wc", []<typename P>() {
    auto got = bench::wc<P>(text::random_lines(5000));
    digest d;
    put(d, static_cast<double>(got.lines));
    put(d, static_cast<double>(got.words));
    put(d, static_cast<double>(got.bytes));
    return d;
  }));
  cases.push_back(make_diff_case("kernel/bestcut", []<typename P>() {
    digest d;
    put(d, bench::bestcut<P>(bench::bestcut_input(2000)));
    return d;
  }));
  cases.push_back(make_diff_case("kernel/spmv", []<typename P>() {
    auto y = bench::spmv<P>(bench::spmv_input(500, 8), bench::spmv_vector(500));
    digest d;
    put_all(d, y);
    return d;
  }));
  cases.push_back(make_diff_case("kernel/quickhull", []<typename P>() {
    digest d;
    put(d, static_cast<double>(
               bench::quickhull<P>(geom::points_in_disk(1500))));
    return d;
  }));
  cases.push_back(make_diff_case("kernel/bignum_add", []<typename P>() {
    auto a = bignum::random_bignum(2000, 1);
    auto b = bignum::random_bignum(2000, 2);
    auto got = bench::bignum_add<P>(a, b);
    digest d;
    put_all(d, got.digits);
    put(d, static_cast<double>(got.carry_out));
    return d;
  }));

  // Fusion-pipeline compositions: the map/scan/filter/flatten shapes the
  // paper fuses, exercised end to end through the policy interface.
  cases.push_back(make_diff_case("pipe/map_scan_map_reduce", []<typename P>() {
    auto input = parray<std::int64_t>::tabulate(
        6000, [](std::size_t i) { return static_cast<std::int64_t>(i % 101) - 50; });
    auto xs = P::map([](std::int64_t x) { return x * x + 1; }, P::view(input));
    auto [pre, tot] = P::scan(
        [](std::int64_t a, std::int64_t b) { return a + b; }, std::int64_t{0},
        xs);
    auto halved = P::map([](std::int64_t x) { return x / 2; }, pre);
    std::int64_t best = P::reduce(
        [](std::int64_t a, std::int64_t b) { return a > b ? a : b; },
        std::int64_t{0}, halved);
    digest d;
    put(d, static_cast<double>(best));
    put(d, static_cast<double>(tot));
    return d;
  }));
  cases.push_back(make_diff_case("pipe/filter_scan", []<typename P>() {
    auto input = parray<std::int64_t>::tabulate(
        5000, [](std::size_t i) { return static_cast<std::int64_t>((i * 7) % 256); });
    auto evens =
        P::filter([](std::int64_t x) { return (x & 1) == 0; }, P::view(input));
    auto [pre, tot] = P::scan(
        [](std::int64_t a, std::int64_t b) { return a + b; }, std::int64_t{0},
        evens);
    auto arr = P::to_array(std::move(pre));
    digest d;
    put_all(d, arr);
    put(d, static_cast<double>(tot));
    return d;
  }));
  cases.push_back(make_diff_case("pipe/flatten_map_reduce", []<typename P>() {
    using buf = memory::tracked_vector<std::int64_t>;
    auto nested = parray<buf>::tabulate(150, [](std::size_t i) {
      buf v;
      for (std::size_t j = 0; j < i % 13; ++j)
        v.push_back(static_cast<std::int64_t>(i * 31 + j));
      return v;
    });
    auto flat = P::flatten(nested);
    auto mapped =
        P::map([](std::int64_t x) { return 3 * x + 1; }, flat);
    std::int64_t sum = P::reduce(
        [](std::int64_t a, std::int64_t b) { return a + b; }, std::int64_t{0},
        mapped);
    digest d;
    put(d, static_cast<double>(sum));
    put(d, static_cast<double>(P::length(flat)));
    return d;
  }));
  cases.push_back(make_diff_case("pipe/zip_filter_op", []<typename P>() {
    auto a = parray<std::int64_t>::tabulate(
        4000, [](std::size_t i) { return static_cast<std::int64_t>((i * 13) % 97); });
    auto idx =
        P::tabulate(4000, [](std::size_t i) { return static_cast<std::int64_t>(i); });
    auto z = P::zip(P::view(a), idx);
    auto picked = P::filter_op(
        [](const std::pair<std::int64_t, std::int64_t>& p)
            -> std::optional<std::int64_t> {
          if ((p.first + p.second) % 3 != 0) return std::nullopt;
          return p.first - p.second;
        },
        z);
    auto arr = P::to_array(std::move(picked));
    digest d;
    put_all(d, arr);
    return d;
  }));

  // Appended after the pipelines so the earlier cases keep their indices.
  cases.push_back(make_diff_case("kernel/inv_index", []<typename P>() {
    auto got = bench::build_index<P>(text::random_lines(6000, 40.0, 6.0));
    digest d;
    for (const auto& b : got) {
      put(d, static_cast<double>(b.postings));
      put(d, static_cast<double>(b.doc_hash % (1ull << 52)));
    }
    return d;
  }));
  // Which racing tryVisit wins a vertex depends on the schedule; its BFS
  // level does not. The digest is each vertex's level, read off the parent
  // array (-1 unreached). A chain longer than n, or a parent out of range,
  // digests as -2, so a broken parent array fails instead of hanging.
  cases.push_back(make_diff_case("kernel/bfs", []<typename P>() {
    auto parent = bench::bfs<P>(graph::rmat(10, 6000), 0);
    const std::size_t n = parent.size();
    digest d;
    for (std::size_t v = 0; v < n; ++v) {
      std::size_t u = v;
      double level = 0;
      for (;;) {
        graph::vertex p = parent[u].load(std::memory_order_relaxed);
        if (p == graph::kNoVertex) {
          level = -1;
          break;
        }
        if (p == u) break;
        if (p >= n || level >= static_cast<double>(n)) {
          level = -2;
          break;
        }
        u = p;
        ++level;
      }
      put(d, level);
    }
    return d;
  }));

  return cases;
}

const std::vector<diff_case>& cases() {
  static const std::vector<diff_case> c = build_cases();
  return c;
}

std::string case_test_name(int i) {
  std::string s = cases()[static_cast<std::size_t>(i)].name;
  for (char& ch : s)
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  return s;
}

// --- tests ------------------------------------------------------------------

class DifferentialTest : public ::testing::TestWithParam<int> {
 protected:
  const diff_case& c() { return cases()[static_cast<std::size_t>(GetParam())]; }
};

TEST_P(DifferentialTest, BackendsAgreeUnderAllSchedules) {
  expect_backends_agree(c(), sweep_seeds(kSeedSweep));
}

TEST_P(DifferentialTest, DelayedPeakAtMostArrayPeak) {
  expect_space_invariant(c());
}

TEST_P(DifferentialTest, SeededReplayIsDeterministic) {
  expect_seed_replay(c(), sweep_seeds(kReplaySeeds));
}

TEST_P(DifferentialTest, BulkFastPathMatchesGeneric) {
  expect_bulk_matches_generic(c(), sweep_seeds(kSeedSweep));
}

INSTANTIATE_TEST_SUITE_P(AllCases, DifferentialTest,
                         ::testing::Range(0, static_cast<int>(cases().size())),
                         [](const auto& info) {
                           return case_test_name(info.param);
                         });

}  // namespace

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  // gtest strips its own flags; anything left is ours.
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--seed" && i + 1 < argc) {
      pbds::testing::replay_seed() = std::strtoull(argv[i + 1], nullptr, 0);
      ++i;
    }
  }
  return RUN_ALL_TESTS();
}
