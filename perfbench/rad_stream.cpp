// rad-stream: read-only RAD fusion over inputs of at least 4x the L3 size.
// mcss, linefit and sparse-mxv each stream one ~1.28 GB input; the work is
// the stream inner loop and memory bandwidth.
#include <algorithm>
#include <cstdint>
#include <utility>

#include "benchmarks/linefit.hpp"
#include "benchmarks/mcss.hpp"
#include "benchmarks/spmv.hpp"
#include "core/block.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace {

using namespace pbds;         // NOLINT
using namespace pbds::bench;  // NOLINT

constexpr std::size_t kMcssN = 160'000'000;     // 1.28 GB of int64
constexpr std::size_t kLinefitN = 80'000'000;   // 1.28 GB of points
constexpr std::size_t kSpmvRows = 1'060'000;    // ~106M nonzeros, 1.28 GB
constexpr std::size_t kSpmvAvgNnz = 100;

// The hand-written fused loops of bench/handopt_comparison.cpp: blocked
// parallel loops with everything inlined by hand.
std::int64_t mcss_hand(const parray<std::int64_t>& a) {
  std::size_t n = a.size();
  std::size_t blk = block_size();
  std::size_t nb = num_blocks_for(n, blk);
  const std::int64_t* p = a.data();
  auto states = parray<mcss_state>::tabulate(
      nb,
      [&](std::size_t j) {
        std::size_t b0 = j * blk, b1 = std::min(n, b0 + blk);
        mcss_state acc = mcss_identity;
        for (std::size_t i = b0; i < b1; ++i)
          acc = mcss_combine(acc, mcss_embed(p[i]));
        return acc;
      },
      1);
  mcss_state acc = mcss_identity;
  for (std::size_t j = 0; j < nb; ++j) acc = mcss_combine(acc, states[j]);
  return acc.best;
}

line linefit_hand(const parray<geom::point2d>& pts) {
  std::size_t n = pts.size();
  std::size_t blk = block_size();
  std::size_t nb = num_blocks_for(n, blk);
  const geom::point2d* p = pts.data();
  auto pass = [&](auto fold) {
    auto partial = parray<std::pair<double, double>>::tabulate(
        nb,
        [&](std::size_t j) {
          std::size_t b0 = j * blk, b1 = std::min(n, b0 + blk);
          std::pair<double, double> acc{0, 0};
          for (std::size_t i = b0; i < b1; ++i) fold(acc, p[i]);
          return acc;
        },
        1);
    std::pair<double, double> acc{0, 0};
    for (std::size_t j = 0; j < nb; ++j) {
      acc.first += partial[j].first;
      acc.second += partial[j].second;
    }
    return acc;
  };
  auto sums = pass([](std::pair<double, double>& acc, const geom::point2d& q) {
    acc.first += q.x;
    acc.second += q.y;
  });
  double mx = sums.first / static_cast<double>(n);
  double my = sums.second / static_cast<double>(n);
  auto moments =
      pass([mx, my](std::pair<double, double>& acc, const geom::point2d& q) {
        acc.first += (q.x - mx) * (q.x - mx);
        acc.second += (q.x - mx) * (q.y - my);
      });
  double slope = moments.first == 0 ? 0 : moments.second / moments.first;
  return line{slope, my - slope * mx};
}

struct spmv_in {
  csr_matrix m;
  parray<double> x;
};

}  // namespace

kernel_list make_rad_stream() {
  kernel_list ks;
  ks.push_back(make_kernel(
      "mcss", [](std::uint64_t seed) { return mcss_input(kMcssN, seed); },
      [](const parray<std::int64_t>& a) { return a.size() * sizeof(a[0]); },
      []<typename P>(const parray<std::int64_t>& a) { return mcss<P>(a); },
      [](const auto&, std::int64_t best) { return digest{bits_of(best)}; },
      [](const parray<std::int64_t>& a) { return mcss_hand(a); }));
  ks.push_back(make_kernel(
      "linefit",
      [](std::uint64_t seed) { return linefit_input(kLinefitN, seed); },
      [](const parray<geom::point2d>& p) { return p.size() * sizeof(p[0]); },
      []<typename P>(const parray<geom::point2d>& p) { return linefit<P>(p); },
      [](const auto&, const line& l) {
        return digest{bits_of(l.slope), bits_of(l.intercept)};
      },
      [](const parray<geom::point2d>& p) { return linefit_hand(p); }));
  ks.push_back(make_kernel(
      "sparse-mxv",
      [](std::uint64_t seed) {
        return spmv_in{spmv_input(kSpmvRows, kSpmvAvgNnz, seed),
                       spmv_vector(kSpmvRows, mix(seed, 1))};
      },
      [](const spmv_in& in) {
        return in.m.offsets.size() * sizeof(std::uint64_t) +
               in.m.cols.size() * sizeof(std::uint32_t) +
               in.m.vals.size() * sizeof(double) +
               in.x.size() * sizeof(double);
      },
      []<typename P>(const spmv_in& in) { return spmv<P>(in.m, in.x); },
      [](const auto&, const parray<double>& y) {
        digest d;
        put_array(d, y, [](double v) { return bits_of(v); });
        return d;
      }));
  return ks;
}

}  // namespace perfbench
