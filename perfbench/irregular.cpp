// irregular: data-dependent nested fork2join with many small calls and
// shared-state contention (bfs, quickhull, inv-index). Each input is about
// 1 MB, inside one core's private 2 MiB L2, so a pass is a few
// milliseconds of forks, joins, small allocations and atomics: this
// workload measures overheads, not bandwidth, and the L3 that other
// tenants of the host share does not move it.
// quickhull.hpp uses std::sort without including <algorithm>.
#include <algorithm>
#include <cstdint>
#include <vector>

#include "benchmarks/bfs.hpp"
#include "benchmarks/inverted_index.hpp"
#include "benchmarks/quickhull.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace {

using namespace pbds;         // NOLINT
using namespace pbds::bench;  // NOLINT

constexpr unsigned kBfsScale = 14;  // 2^14 vertices
constexpr std::size_t kBfsEdges = 200'000;
constexpr std::size_t kHullN = 100'000;
constexpr std::size_t kIndexN = 400'000;  // characters

// Which parent a vertex gets depends on the schedule; its BFS level does
// not. Digest the level of every vertex (-1 = unreached).
digest bfs_levels(const parray<std::atomic<vertex>>& parent) {
  std::size_t n = parent.size();
  std::vector<std::int32_t> level(n, -2);  // -2 = not yet known
  std::vector<vertex> chain;
  for (std::size_t v = 0; v < n; ++v) {
    vertex u = static_cast<vertex>(v);
    while (level[u] == -2) {
      vertex p = parent[u].load(std::memory_order_relaxed);
      if (p == kNoVertex) {
        level[u] = -1;
      } else if (p == u) {
        level[u] = 0;
      } else {
        chain.push_back(u);
        u = p;
      }
    }
    std::int32_t l = level[u];
    while (!chain.empty()) {
      vertex w = chain.back();
      chain.pop_back();
      l = l < 0 ? -1 : l + 1;
      level[w] = l;
    }
  }
  digest d;
  put_array(d, level, [](std::int32_t l) {
    return static_cast<std::uint64_t>(static_cast<std::int64_t>(l));
  });
  return d;
}

}  // namespace

kernel_list make_irregular() {
  kernel_list ks;
  ks.push_back(make_kernel(
      "bfs",
      [](std::uint64_t seed) { return graph::rmat(kBfsScale, kBfsEdges, seed); },
      [](const csr_graph& g) {
        return (g.num_vertices() + 1) * sizeof(std::uint64_t) +
               g.num_edges() * sizeof(vertex);
      },
      []<typename P>(const csr_graph& g) { return bfs<P>(g, 0); },
      [](const auto&, const parray<std::atomic<vertex>>& parent) {
        return bfs_levels(parent);
      }));
  ks.push_back(make_kernel(
      "quickhull",
      [](std::uint64_t seed) { return geom::points_in_disk(kHullN, seed); },
      [](const parray<point2d>& p) { return p.size() * sizeof(p[0]); },
      []<typename P>(const parray<point2d>& p) { return quickhull<P>(p); },
      [](const auto&, std::size_t hull) { return digest{hull}; }));
  ks.push_back(make_kernel(
      "inv-index",
      [](std::uint64_t seed) {
        return text::random_lines(kIndexN, 60.0, 8.0, seed);
      },
      [](const parray<char>& t) { return t.size(); },
      []<typename P>(const parray<char>& t) { return build_index<P>(t); },
      [](const auto&, const inverted_index& idx) {
        digest d;
        for (const auto& b : idx) {
          d.push_back(b.postings);
          d.push_back(b.doc_hash);
        }
        return d;
      }));
  return ks;
}

}  // namespace perfbench
