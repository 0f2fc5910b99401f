// Nested-parallelism example: the recursive prime sieve, whose composite
// marking is a flatten over per-prime multiple sequences — a fusion case
// (flatten feeding an effectful traversal) index fusion alone cannot
// express. Compares the three libraries end to end.
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
void run(const char* name, std::int64_t n) {
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
  run<pbds::array_policy>("array", n);
  run<pbds::rad_policy>("rad", n);
  run<pbds::delay_policy>("delay", n);
  return 0;
}
