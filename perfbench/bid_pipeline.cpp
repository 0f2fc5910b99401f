// bid-pipeline: scan, filter and flatten with materialized results. bestcut
// streams a 1.28 GB input; bignum-add, primes and tokens are sized down to
// an equal share of the pass, which puts their inputs inside L3 (the run
// records that).
#include <cstdint>
#include <utility>

#include "benchmarks/bestcut.hpp"
#include "benchmarks/bignum_add.hpp"
#include "benchmarks/primes.hpp"
#include "benchmarks/tokens.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace {

using namespace pbds;         // NOLINT
using namespace pbds::bench;  // NOLINT

constexpr std::size_t kBestcutN = 80'000'000;  // 1.28 GB of events
constexpr std::size_t kBignumN = 40'000'000;   // digits per operand
constexpr std::int64_t kPrimesN = 30'000'000;
constexpr std::size_t kTokensN = 40'000'000;   // characters

struct bignum_in {
  parray<bignum::digit> a, b;
};

}  // namespace

kernel_list make_bid_pipeline() {
  kernel_list ks;
  ks.push_back(make_kernel(
      "bestcut",
      [](std::uint64_t seed) { return bestcut_input(kBestcutN, seed); },
      [](const parray<axis_event>& e) { return e.size() * sizeof(e[0]); },
      []<typename P>(const parray<axis_event>& e) { return bestcut<P>(e); },
      [](const auto&, double cost) { return digest{bits_of(cost)}; }));
  ks.push_back(make_kernel(
      "bignum-add",
      [](std::uint64_t seed) {
        return bignum_in{bignum::random_bignum(kBignumN, seed),
                         bignum::random_bignum(kBignumN, mix(seed, 1))};
      },
      [](const bignum_in& in) { return in.a.size() + in.b.size(); },
      []<typename P>(const bignum_in& in) {
        return bignum_add<P>(in.a, in.b);
      },
      [](const auto&, const bignum_sum& s) {
        digest d{bits_of(s.carry_out)};
        put_array(d, s.digits, [](bignum::digit v) { return bits_of(v); });
        return d;
      }));
  // primes has no input array; the seed moves n a little so runs differ.
  ks.push_back(make_kernel(
      "primes",
      [](std::uint64_t seed) {
        return kPrimesN + static_cast<std::int64_t>(seed % 1000);
      },
      [](std::int64_t) { return std::size_t{0}; },
      []<typename P>(std::int64_t n) { return primes<P>(n); },
      [](const auto&, const parray<std::int64_t>& ps) {
        digest d;
        put_array(d, ps, [](std::int64_t v) { return bits_of(v); });
        return d;
      }));
  ks.push_back(make_kernel(
      "tokens",
      [](std::uint64_t seed) { return text::random_words(kTokensN, 7.0, seed); },
      [](const parray<char>& t) { return t.size(); },
      []<typename P>(const parray<char>& t) { return tokens<P>(t); },
      [](const auto&, const tokens_result& r) {
        return digest{r.count, r.total_len, r.hash};
      }));
  return ks;
}

}  // namespace perfbench
