// Graph analytics example: parallel BFS over an R-MAT power-law graph
// using flatten + filterOp fusion (the paper's Fig. 6).
//
// The per-round pipeline  flatten(map outPairs frontier) |> filterOp tryVisit
// never materializes the edge list: with block-delayed sequences the
// flattened (parent, neighbor) pairs stream straight into the filter, which
// packs the targets tryVisit claims (a compare-and-swap tried only on an
// unvisited target), allocating O(frontier + edges/B) per round instead of
// O(edges).
//
// Usage: graph_bfs [scale] [edges]     (defaults: scale 18, 3M edges)
//
// A non-numeric or out-of-range argument exits 2 with a message naming it.
#include <cstdio>
#include <limits>

#include "bench_common/harness.hpp"
#include "benchmarks/bfs.hpp"
#include "benchmarks/policies.hpp"
#include "memory/tracking.hpp"

int main(int argc, char** argv) {
  using pbds::bench_common::detail::parse_long_arg;
  if (argc > 3) {
    std::fprintf(stderr, "usage: %s [scale] [edges]\n", argv[0]);
    return 2;
  }
  // Vertex ids are 32-bit.
  unsigned scale =
      argc > 1 ? static_cast<unsigned>(parse_long_arg("scale", argv[1], 0, 31))
               : 18;
  std::size_t edges =
      argc > 2 ? static_cast<std::size_t>(parse_long_arg(
                     "edges", argv[2], 1, std::numeric_limits<long>::max()))
               : 3'000'000;
  std::printf("generating R-MAT graph: 2^%u vertices, %zu edges...\n", scale,
              edges);
  auto g = pbds::graph::rmat(scale, edges);

  pbds::memory::space_meter meter;
  auto parent = pbds::bench::bfs<pbds::delay_policy>(g, 0);
  std::printf("BFS done; intermediate allocation %.1f MB\n",
              static_cast<double>(meter.allocated_bytes()) / 1e6);

  // Report reachability and depth histogram via the reference distances.
  auto dist = pbds::graph::reference_distances(g, 0);
  std::size_t reached = 0;
  std::int64_t diameter = 0;
  for (auto d : dist) {
    if (d >= 0) {
      ++reached;
      diameter = std::max(diameter, d);
    }
  }
  std::printf("reached %zu / %zu vertices; eccentricity of source = %ld\n",
              reached, g.num_vertices(), static_cast<long>(diameter));

  bool ok = pbds::graph::check_bfs_tree(g, 0, [&](std::size_t v) {
    return parent[v].load(std::memory_order_relaxed);
  });
  std::printf("BFS tree valid: %s\n", ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
