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
#include <cstdio>
#include <cstdlib>

#include "benchmarks/bfs.hpp"
#include "benchmarks/policies.hpp"
#include "memory/tracking.hpp"

int main(int argc, char** argv) {
  unsigned scale = argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 18;
  std::size_t edges = argc > 2 ? static_cast<std::size_t>(std::atoll(argv[2]))
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
