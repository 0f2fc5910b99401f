// Unit tests for the bignum substrate: the carry-symbol algebra (the
// associativity that the parallel scan relies on) and the reference adder.
#include <gtest/gtest.h>

#include <cstdint>

#include "bignum/bignum.hpp"

namespace {

namespace bn = pbds::bignum;
using bn::carry;

TEST(Bignum, ClassifyBoundaries) {
  EXPECT_EQ(bn::classify(0), carry::kill);
  EXPECT_EQ(bn::classify(254), carry::kill);
  EXPECT_EQ(bn::classify(255), carry::propagate);
  EXPECT_EQ(bn::classify(256), carry::generate);
  EXPECT_EQ(bn::classify(510), carry::generate);
  // Every digit-pair sum.
  for (unsigned sum = 0; sum <= 510; ++sum) {
    carry want = sum < 255 ? carry::kill
                 : sum == 255 ? carry::propagate
                              : carry::generate;
    EXPECT_EQ(bn::classify(sum), want) << "sum " << sum;
  }
}

TEST(Bignum, CombineSemantics) {
  // y decides unless y propagates.
  EXPECT_EQ(bn::combine(carry::kill, carry::generate), carry::generate);
  EXPECT_EQ(bn::combine(carry::generate, carry::kill), carry::kill);
  EXPECT_EQ(bn::combine(carry::generate, carry::propagate), carry::generate);
  EXPECT_EQ(bn::combine(carry::kill, carry::propagate), carry::kill);
  EXPECT_EQ(bn::combine(carry::propagate, carry::propagate),
            carry::propagate);
}

TEST(Bignum, CombineIsAssociativeExhaustively) {
  // The parallel scan is only correct if combine is associative; check all
  // 27 triples.
  constexpr carry all[] = {carry::kill, carry::propagate, carry::generate};
  for (carry x : all)
    for (carry y : all)
      for (carry z : all)
        EXPECT_EQ(bn::combine(bn::combine(x, y), z),
                  bn::combine(x, bn::combine(y, z)));
}

TEST(Bignum, PropagateIsTwoSidedIdentity) {
  constexpr carry all[] = {carry::kill, carry::propagate, carry::generate};
  for (carry x : all) {
    EXPECT_EQ(bn::combine(carry::propagate, x), x);
    EXPECT_EQ(bn::combine(x, carry::propagate), x);
  }
}

TEST(Bignum, ResolveAppliesCarry) {
  EXPECT_EQ(bn::resolve(10, carry::kill), 10);
  EXPECT_EQ(bn::resolve(10, carry::generate), 11);
  EXPECT_EQ(bn::resolve(10, carry::propagate), 10);  // no GEN upstream
  EXPECT_EQ(bn::resolve(255, carry::generate), 0);   // wraps
  EXPECT_EQ(bn::resolve(510, carry::generate), 255);
}

TEST(Bignum, ReferenceAddSmallNumbers) {
  // 0x01ff + 0x0001 = 0x0200 (little-endian digits).
  auto a = pbds::parray<bn::digit>::tabulate(2, [](std::size_t i) {
    return i == 0 ? bn::digit{0xff} : bn::digit{0x01};
  });
  auto b = pbds::parray<bn::digit>::tabulate(2, [](std::size_t i) {
    return i == 0 ? bn::digit{0x01} : bn::digit{0x00};
  });
  auto s = bn::reference_add(a, b);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0], 0x00);
  EXPECT_EQ(s[1], 0x02);
  EXPECT_EQ(s[2], 0x00);
}

TEST(Bignum, ReferenceAddFullCarryChain) {
  // 0xffff + 0x0001 = 0x10000.
  auto a = bn::all_ones(2);
  auto b = pbds::parray<bn::digit>::tabulate(2, [](std::size_t i) {
    return i == 0 ? bn::digit{0x01} : bn::digit{0x00};
  });
  auto s = bn::reference_add(a, b);
  EXPECT_EQ(s[0], 0x00);
  EXPECT_EQ(s[1], 0x00);
  EXPECT_EQ(s[2], 0x01);
}

TEST(Bignum, RandomBignumIsDeterministic) {
  auto a = bn::random_bignum(100, 9);
  auto b = bn::random_bignum(100, 9);
  auto c = bn::random_bignum(100, 10);
  int same_c = 0;
  for (std::size_t i = 0; i < 100; ++i) {
    ASSERT_EQ(a[i], b[i]);
    same_c += a[i] == c[i];
  }
  EXPECT_LT(same_c, 20);  // different seed: mostly different digits
}

}  // namespace
