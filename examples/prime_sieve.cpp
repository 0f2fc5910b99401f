// Nested-parallelism example: the recursive prime sieve, whose composite
// marking is a flatten over the multiples of each sieving prime within each
// segment of the flags — a fusion case (flatten feeding an effectful
// traversal) index fusion alone cannot express. Runs the three libraries,
// checks that their lists agree element by element and that the count is
// the sequential sieve's, and exits 1 on any mismatch.
//
// Usage: prime_sieve [n]       (default: all primes below 10M)
//
// A non-numeric or out-of-range argument exits 2 with a message naming it.
#include <chrono>
#include <cstdio>
#include <limits>

#include "bench_common/harness.hpp"
#include "benchmarks/policies.hpp"
#include "benchmarks/primes.hpp"
#include "memory/tracking.hpp"

namespace {

template <typename P>
pbds::parray<std::int64_t> run(const char* name, std::int64_t n) {
  pbds::memory::space_meter meter;
  auto t0 = std::chrono::steady_clock::now();
  auto primes = pbds::bench::primes<P>(n);
  auto t1 = std::chrono::steady_clock::now();
  std::printf("%-6s: %zu primes below %lld in %.3fs, %7.1f MB allocated\n",
              name, primes.size(), static_cast<long long>(n),
              std::chrono::duration<double>(t1 - t0).count(),
              static_cast<double>(meter.allocated_bytes()) / 1e6);
  if (primes.size() >= 3) {
    std::printf("        last primes: %lld %lld %lld\n",
                static_cast<long long>(primes[primes.size() - 3]),
                static_cast<long long>(primes[primes.size() - 2]),
                static_cast<long long>(primes[primes.size() - 1]));
  }
  return primes;
}

bool same(const pbds::parray<std::int64_t>& a,
          const pbds::parray<std::int64_t>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i] != b[i]) return false;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using pbds::bench_common::detail::parse_long_arg;
  if (argc > 2) {
    std::fprintf(stderr, "usage: %s [n]\n", argv[0]);
    return 2;
  }
  std::int64_t n =
      argc > 1 ? parse_long_arg("n", argv[1], 2, std::numeric_limits<long>::max())
               : 10'000'000;
  auto pa = run<pbds::array_policy>("array", n);
  auto pr = run<pbds::rad_policy>("rad", n);
  auto pd = run<pbds::delay_policy>("delay", n);
  std::size_t want = pbds::bench::reference_prime_count(n);
  bool ok = same(pa, pd) && same(pr, pd) && pd.size() == want;
  std::printf("libraries agree with the sequential count (%zu): %s\n", want,
              ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
