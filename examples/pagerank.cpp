// PageRank by power iteration — a larger application of the public API.
//
// Each iteration is a nested-parallel pipeline in the sparse-mxv mold: an
// outer tabulate over vertices whose inner map+reduce pulls rank from
// in-neighbors. With RAD fusion the inner contribution sequences are never
// materialized; with the eager library every vertex would allocate a
// per-row temporary each iteration.
//
// Usage: pagerank [scale] [edges] [iters]   (defaults 16, 1M, 10)
//
// A non-numeric or out-of-range argument exits 2 with a message naming it.
#include <cmath>
#include <cstdio>
#include <limits>

#include "bench_common/harness.hpp"
#include "core/delayed.hpp"
#include "graph/graph.hpp"
#include "memory/tracking.hpp"

namespace d = pbds::delayed;
using pbds::graph::csr_graph;
using pbds::graph::vertex;

int main(int argc, char** argv) {
  using pbds::bench_common::detail::parse_long_arg;
  if (argc > 4) {
    std::fprintf(stderr, "usage: %s [scale] [edges] [iters]\n", argv[0]);
    return 2;
  }
  // Vertex ids are 32-bit.
  unsigned scale =
      argc > 1 ? static_cast<unsigned>(parse_long_arg("scale", argv[1], 0, 31))
               : 16;
  std::size_t m =
      argc > 2 ? static_cast<std::size_t>(parse_long_arg(
                     "edges", argv[2], 1, std::numeric_limits<long>::max()))
               : 1'000'000;
  int iters = argc > 3 ? static_cast<int>(parse_long_arg(
                             "iters", argv[3], 1,
                             std::numeric_limits<int>::max()))
                       : 10;

  // Build the graph and its transpose (in-edges), plus out-degrees.
  auto g = pbds::graph::rmat(scale, m);
  std::size_t n = g.num_vertices();
  auto reversed_edges =
      pbds::parray<std::pair<vertex, vertex>>::uninitialized(m);
  {
    std::size_t k = 0;
    for (vertex u = 0; u < n; ++u) {
      const vertex* ngh = g.neighbors(u);
      for (std::size_t e = 0; e < g.degree(u); ++e)
        reversed_edges[k++] = {ngh[e], u};
    }
  }
  csr_graph gt = pbds::graph::from_edges(n, reversed_edges);
  auto outdeg = pbds::parray<double>::tabulate(n, [&](std::size_t u) {
    return static_cast<double>(g.degree(static_cast<vertex>(u)));
  });

  const double damp = 0.85;
  const double base = (1.0 - damp) / static_cast<double>(n);
  auto rank = pbds::parray<double>::filled(n, 1.0 / static_cast<double>(n));

  pbds::memory::space_meter meter;
  double delta = 0;
  for (int it = 0; it < iters; ++it) {
    const double* r = rank.data();
    const double* deg = outdeg.data();
    auto next = d::to_array(d::tabulate(n, [&gt, r, deg, base,
                                            damp](std::size_t v) {
      const vertex* in = gt.neighbors(static_cast<vertex>(v));
      std::size_t din = gt.degree(static_cast<vertex>(v));
      double pulled = d::reduce(
          [](double a, double b) { return a + b; }, 0.0,
          d::tabulate(din, [in, r, deg](std::size_t e) {
            vertex u = in[e];
            return deg[u] > 0 ? r[u] / deg[u] : 0.0;
          }));
      return base + damp * pulled;
    }));
    // Convergence metric: L1 distance between iterates (fused map+reduce).
    const double* nr = next.data();
    delta = d::reduce(
        [](double a, double b) { return a + b; }, 0.0,
        d::tabulate(n, [r, nr](std::size_t v) {
          return std::fabs(nr[v] - r[v]);
        }));
    rank = std::move(next);
    std::printf("iter %2d: L1 delta = %.3e\n", it, delta);
  }

  // Report the top-ranked vertex and mass conservation.
  double mass = d::sum(d::view(rank));
  std::size_t best = 0;
  for (std::size_t v = 1; v < n; ++v)
    if (rank[v] > rank[best]) best = v;
  std::printf(
      "\n%d iterations over %zu vertices / %zu edges; intermediate "
      "allocation %.1f MB\n",
      iters, n, g.num_edges(),
      static_cast<double>(meter.allocated_bytes()) / 1e6);
  std::printf("top vertex: %zu with rank %.3e; total mass %.6f "
              "(dangling mass leaks below 1.0)\n",
              best, rank[best], mass);
  bool ok = mass > 0.1 && mass <= 1.0 + 1e-6 && delta < 1e-2;
  std::printf("sanity: %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}
