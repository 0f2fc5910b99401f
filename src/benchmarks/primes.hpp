// primes — all primes below n via a parallel recursive sieve (§6: primes
// less than 100M).
//
// Recursively compute the primes up to sqrt(n), then mark composites by
// flattening delayed sequences of multiples and finally filter the unmarked
// indices. flatten and filter are BID operations: the composites sequence
// (size ~ n ln ln n) and the pre-filter index sequence are never
// materialized in the delayed version.
//
// The outer sequence of the flatten is segment-major: the flags [0, n] are
// cut into segments of kPrimesSegment, and piece k holds the multiples >= 2p
// of p = sqrt_primes[k % np] that fall in segment k / np (np primes up to
// sqrt(n)). Listed prime by prime instead, the composites would sweep the
// whole flags array once per prime, each store a cache miss at large n; in
// segment-major order a block of composites stores into one or two segments
// that stay in L2, and the workers mark disjoint segments. The composites
// are the same multiset in a different order, so the flags and the output
// do not change.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <vector>

#include "array/parray.hpp"

namespace pbds::bench {

// Flags per segment of the composite marking: half the 2 MiB per-core L2
// that sysfs reports on the measured 4-core host. A P=1 sweep at n = 30M
// ran 2^18 to 2^20 in about 160 ms each against about 560 ms for the
// prime-major order; 2^21, the size of L2, was 13% slower than that and
// 2^22 50% slower.
inline constexpr std::int64_t kPrimesSegment = std::int64_t{1} << 20;

template <typename P>
parray<std::int64_t> primes(std::int64_t n) {  // primes in [2, n]
  if (n < 2) return {};
  if (n < 8) {
    // Base case: tiny sieve, sequentially.
    std::int64_t small[] = {2, 3, 5, 7};
    std::size_t cnt = 0;
    while (cnt < 4 && small[cnt] <= n) ++cnt;
    const std::int64_t* p = small;
    return parray<std::int64_t>::tabulate(
        cnt, [p](std::size_t i) { return p[i]; });
  }
  auto sqrt_primes =
      primes<P>(static_cast<std::int64_t>(std::sqrt(static_cast<double>(n))));
  auto flags = parray<std::atomic<std::uint8_t>>::tabulate(
      static_cast<std::size_t>(n) + 1, [](std::size_t) { return 1; });
  const std::size_t np = sqrt_primes.size();
  const auto nseg = static_cast<std::size_t>(n / kPrimesSegment) + 1;
  auto composites = P::flatten(P::tabulate(
      nseg * np, [n, np, ps = sqrt_primes.data()](std::size_t k) {
        std::int64_t p = ps[k % np];
        auto lo = static_cast<std::int64_t>(k / np) * kPrimesSegment;
        std::int64_t hi = std::min(lo + kPrimesSegment, n + 1);
        std::int64_t first = std::max(2 * p, (lo + p - 1) / p * p);
        auto count =
            first < hi ? static_cast<std::size_t>((hi - 1 - first) / p + 1)
                       : std::size_t{0};
        return P::tabulate(count, [first, p](std::size_t m) {
          return first + static_cast<std::int64_t>(m) * p;
        });
      }));
  P::apply_each(composites, [&flags](std::int64_t c) {
    flags[static_cast<std::size_t>(c)].store(0, std::memory_order_relaxed);
  });
  return P::to_array(P::filter(
      [&flags](std::int64_t i) {
        return flags[static_cast<std::size_t>(i)].load(
                   std::memory_order_relaxed) != 0;
      },
      P::tabulate(static_cast<std::size_t>(n) - 1, [](std::size_t i) {
        return static_cast<std::int64_t>(i) + 2;
      })));
}

// Sequential sieve of Eratosthenes for validation: the primes in [2, n].
inline std::vector<std::int64_t> reference_primes(std::int64_t n) {
  std::vector<std::int64_t> out;
  if (n < 2) return out;
  std::vector<std::uint8_t> sieve(static_cast<std::size_t>(n) + 1, 1);
  for (std::int64_t i = 2; i <= n; ++i) {
    if (!sieve[static_cast<std::size_t>(i)]) continue;
    out.push_back(i);
    for (std::int64_t j = i * i; j <= n; j += i)
      sieve[static_cast<std::size_t>(j)] = 0;
  }
  return out;
}

// Deterministic count for validation (prime-counting values).
inline std::size_t reference_prime_count(std::int64_t n) {
  return reference_primes(n).size();
}

}  // namespace pbds::bench
