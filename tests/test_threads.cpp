// Multithreaded runs: on this container threads > cores, which still
// exercises every synchronization path (steals, joins, contended CAS in
// filter_op). Results must be identical to the single-threaded runs —
// the blocked algorithms fix the combination order regardless of P.
#include <gtest/gtest.h>

#include <cstdint>

#include "benchmarks/bestcut.hpp"
#include "benchmarks/bfs.hpp"
#include "benchmarks/linearrec.hpp"
#include "benchmarks/mcss.hpp"
#include "benchmarks/policies.hpp"
#include "benchmarks/tokens.hpp"
#include "sched/scheduler.hpp"

namespace {

using namespace pbds;         // NOLINT
using namespace pbds::bench;  // NOLINT

class ThreadsTest : public ::testing::TestWithParam<unsigned> {
 protected:
  void SetUp() override {
    before_ = sched::num_workers();
    sched::set_num_workers(GetParam());
  }
  void TearDown() override { sched::set_num_workers(before_); }
  unsigned before_ = 1;
};

TEST_P(ThreadsTest, BestcutDeterministicAcrossP) {
  auto events = bestcut_input(200'000);
  double want = bestcut_reference(events);
  EXPECT_DOUBLE_EQ(bestcut<delay_policy>(events), want);
  EXPECT_DOUBLE_EQ(bestcut<array_policy>(events), want);
}

TEST_P(ThreadsTest, McssDeterministicAcrossP) {
  auto a = mcss_input(300'000);
  EXPECT_EQ(mcss<delay_policy>(a), mcss_reference(a));
}

TEST_P(ThreadsTest, TokensDeterministicAcrossP) {
  auto t = text::random_words(300'000, 7.0);
  EXPECT_EQ(tokens<delay_policy>(t), tokens_reference(t));
}

TEST_P(ThreadsTest, LinearrecBitwiseIdenticalAcrossP) {
  // The blocked scan's combination tree depends only on the block size,
  // not on P, so even floating-point results are bitwise reproducible.
  auto coefs = linearrec_input(100'000);
  auto r = linearrec<delay_policy>(coefs);
  sched::set_num_workers(1);
  auto r1 = linearrec<delay_policy>(coefs);
  ASSERT_EQ(r.size(), r1.size());
  for (std::size_t i = 0; i < r.size(); ++i) ASSERT_EQ(r[i], r1[i]) << i;
}

template <typename P>
void expect_valid_bfs_trees(const graph::csr_graph& g) {
  for (int round = 0; round < 3; ++round) {
    auto parent = bfs<P>(g, 0);
    EXPECT_TRUE(graph::check_bfs_tree(g, 0, [&](std::size_t v) {
      return parent[v].load(std::memory_order_relaxed);
    })) << "round " << round;
  }
}

TEST_P(ThreadsTest, BfsValidUnderContention) {
  // Racy tryVisit CAS: any winner is fine, the tree must stay valid. The
  // second graph has 256 vertices of about 234 edges each, so nearly
  // every edge finds its target visited and first visits race.
  for (const auto& g : {graph::rmat(12, 60'000), graph::rmat(8, 60'000)}) {
    expect_valid_bfs_trees<array_policy>(g);
    expect_valid_bfs_trees<rad_policy>(g);
    expect_valid_bfs_trees<delay_policy>(g);
  }
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, ThreadsTest,
                         ::testing::Values(2, 4, 8),
                         [](const auto& info) {
                           return "P" + std::to_string(info.param);
                         });

}  // namespace
