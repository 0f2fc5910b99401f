// bfs — forward breadth-first search with sequences (§3, Fig. 6).
//
// Each round maps outPairs over the frontier (a nested map producing
// (parent, neighbor) pairs), flattens, then filterOps with a
// compare-and-swap tryVisit. With block-delayed sequences the flattened
// M-sized edge sequence is never instantiated and the filter packs within
// blocks only — the §5.1 analysis gives O(N + M/B) total allocation versus
// O(N + M) for the array version.
//
// tryVisit reads the target's slot before its compare-and-swap: a CAS
// takes the cache line exclusive even when it fails, and on a power-law
// graph almost every edge finds its target already visited.
#pragma once

#include <atomic>
#include <optional>
#include <utility>

#include "array/parray.hpp"
#include "graph/graph.hpp"

namespace pbds::bench {

using graph::csr_graph;
using graph::kNoVertex;
using graph::vertex;

// Returns the parent array (atomics; kNoVertex = unvisited).
template <typename P>
parray<std::atomic<vertex>> bfs(const csr_graph& g, vertex source) {
  std::size_t n = g.num_vertices();
  auto parent = parray<std::atomic<vertex>>::tabulate(
      n, [](std::size_t) { return kNoVertex; });
  parent[source].store(source, std::memory_order_relaxed);

  auto out_pairs = [&g](vertex u) {
    const vertex* ngh = g.neighbors(u);
    return P::tabulate(g.degree(u), [u, ngh](std::size_t k) {
      return std::pair<vertex, vertex>(u, ngh[k]);
    });
  };
  // A slot only moves from kNoVertex to a vertex, so one that already
  // reads visited would fail the CAS; skipping it keeps the line shared
  // instead of taking it exclusive for nothing.
  auto try_visit =
      [&parent](const std::pair<vertex, vertex>& e) -> std::optional<vertex> {
    std::atomic<vertex>& slot = parent[e.second];
    vertex expected = kNoVertex;
    if (slot.load(std::memory_order_relaxed) == kNoVertex &&
        slot.compare_exchange_strong(expected, e.first,
                                     std::memory_order_relaxed)) {
      return e.second;
    }
    return std::nullopt;
  };

  parray<vertex> frontier =
      parray<vertex>::tabulate(1, [source](std::size_t) { return source; });
  while (frontier.size() > 0) {
    auto edges = P::flatten(P::map(out_pairs, P::view(frontier)));
    frontier = P::to_array(P::filter_op(try_visit, edges));
  }
  return parent;
}

}  // namespace pbds::bench
