// Bignum substrate for the bignum-add benchmark (§6: "addition on two
// bignums of 500M bytes each").
//
// A bignum is a little-endian base-256 digit array. Parallel addition uses
// the classic carry-resolution trick: position i's carry behaviour is one
// of GENERATE (digit sum > 255), PROPAGATE (== 255) or KILL (< 255), and
// the carry *into* each position is an exclusive scan of these symbols
// under the associative operator  x ⊕ y = (y == PROPAGATE ? x : y)  whose
// identity is PROPAGATE (a prefix of all-propagates means "no carry", the
// correct boundary condition at position 0: only GENERATE adds one). The
// benchmark kernel (src/benchmarks/bignum_add.hpp) expresses this as
// zip → map → scan → map, which the delayed library fuses to two passes.
#pragma once

#include <cstdint>

#include "array/parray.hpp"
#include "random/rng.hpp"

namespace pbds::bignum {

using digit = std::uint8_t;

// Carry symbols, in the order of the digit-pair sums they classify
// (below, at and above 255), so classify is two comparisons added
// together rather than a branch on every digit, and combine a select.
enum class carry : std::uint8_t { kill = 0, propagate = 1, generate = 2 };

// The associative carry-resolution operator (identity: propagate).
constexpr carry combine(carry x, carry y) noexcept {
  return y == carry::propagate ? x : y;
}

// Carry symbol for a digit-pair sum in [0, 510].
constexpr carry classify(unsigned sum) noexcept {
  return static_cast<carry>((sum >= 255u) + (sum > 255u));
}

// Final digit given the pairwise sum and the incoming carry symbol.
constexpr digit resolve(unsigned sum, carry in) noexcept {
  return static_cast<digit>((sum + (in == carry::generate ? 1u : 0u)) & 0xffu);
}

// Random n-digit bignum (most-significant digit may be zero).
inline parray<digit> random_bignum(std::size_t n, std::uint64_t seed) {
  random::rng gen(seed);
  return parray<digit>::tabulate(n, [&](std::size_t i) {
    return static_cast<digit>(gen.u64(i) & 0xffu);
  });
}

// Worst-case carry chains: a = 0xff...f, so adding any b propagates far.
inline parray<digit> all_ones(std::size_t n) {
  return parray<digit>::filled(n, static_cast<digit>(0xff));
}

// Reference sequential schoolbook addition; result has n+1 digits
// (little-endian), the last being the final carry (0 or 1).
inline parray<digit> reference_add(const parray<digit>& a,
                                   const parray<digit>& b) {
  std::size_t n = a.size();
  auto out = parray<digit>::uninitialized(n + 1);
  unsigned c = 0;
  for (std::size_t i = 0; i < n; ++i) {
    unsigned s = static_cast<unsigned>(a[i]) + b[i] + c;
    out[i] = static_cast<digit>(s & 0xffu);
    c = s >> 8;
  }
  out[n] = static_cast<digit>(c);
  return out;
}

}  // namespace pbds::bignum
