// Tests for the inverted-index workload (scan -> zip -> filterOp -> fold
// fusion chain) across all three libraries.
#include <gtest/gtest.h>

#include "benchmarks/inverted_index.hpp"
#include "benchmarks/policies.hpp"
#include "core/block.hpp"

namespace {

using namespace pbds;         // NOLINT
using namespace pbds::bench;  // NOLINT

parray<char> from_string(const std::string& s) {
  return parray<char>::tabulate(s.size(),
                                [&](std::size_t i) { return s[i]; });
}

TEST(InvertedIndex, TinyCorpusByHand) {
  // doc 0: "apple bat"; doc 1: "cat apple"; doc 2: "bat"
  auto corpus = from_string("apple bat\ncat apple\nbat\n");
  auto idx = index_reference(corpus);
  EXPECT_EQ(idx['a' - 'a'].postings, 2u);  // apple in docs 0 and 1
  EXPECT_EQ(idx['b' - 'a'].postings, 2u);  // bat in docs 0 and 2
  EXPECT_EQ(idx['c' - 'a'].postings, 1u);  // cat in doc 1
  EXPECT_EQ(idx['z' - 'a'].postings, 0u);
  auto h = [](std::uint32_t doc) {
    return (doc + 1) * 0x9e3779b97f4a7c15ull;
  };
  EXPECT_EQ(idx['a' - 'a'].doc_hash, h(0) + h(1));
  EXPECT_EQ(idx['b' - 'a'].doc_hash, h(0) + h(2));
}

class IndexTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  scoped_block_size guard_{GetParam()};
};

TEST_P(IndexTest, AllLibrariesMatchReference) {
  auto corpus = text::random_lines(30'000, 40.0, 6.0);
  auto want = index_reference(corpus);
  EXPECT_EQ(build_index<array_policy>(corpus), want);
  EXPECT_EQ(build_index<rad_policy>(corpus), want);
  EXPECT_EQ(build_index<delay_policy>(corpus), want);
}

TEST_P(IndexTest, EdgeCases) {
  for (const char* s :
       {"", "\n", "a", "a\n", "\n\na\n\n", "   \n  ", "one\ntwo\nthree"}) {
    auto corpus = from_string(s);
    auto want = index_reference(corpus);
    EXPECT_EQ(build_index<delay_policy>(corpus), want) << "corpus=" << s;
    EXPECT_EQ(build_index<array_policy>(corpus), want) << "corpus=" << s;
  }
}

// Allocation claim at a realistic block size only: with B = 1 the O(n/B)
// per-block terms legitimately degenerate to O(n).
TEST(InvertedIndex, DelayAllocatesLessThanArray) {
  scoped_block_size guard(2048);
  auto corpus = text::random_lines(100'000, 40.0, 6.0);
  memory::space_meter ma;
  build_index<array_policy>(corpus);
  auto array_bytes = ma.allocated_bytes();
  memory::space_meter md;
  build_index<delay_policy>(corpus);
  auto delay_bytes = md.allocated_bytes();
  EXPECT_GT(array_bytes, 4 * delay_bytes);
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, IndexTest,
                         ::testing::Values(1, 64, 2048),
                         [](const auto& info) {
                           return "B" + std::to_string(info.param);
                         });

}  // namespace
