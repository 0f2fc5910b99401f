// The paper's motivating example (§3): best-cut selection for kd-tree
// construction in a ray tracer, and the delay-vs-force tradeoff the cost
// semantics exposes.
//
// The fused pipeline evaluates the initial map TWICE (once in scan phase 1,
// once in the reduce pass) for 2n + O(b) memory traffic; forcing the map
// evaluates it once but pays an n-element array (4n + O(b) traffic). Which
// wins depends on how expensive the map is relative to memory bandwidth —
// this example measures both so you can see the crossover.
//
// Usage: raytrace_bestcut [n]       (default 8M events)
//
// A non-numeric or out-of-range argument exits 2 with a message naming it.
#include <chrono>
#include <cstdio>
#include <limits>

#include "bench_common/harness.hpp"
#include "benchmarks/bestcut.hpp"
#include "core/delayed.hpp"
#include "memory/tracking.hpp"

namespace d = pbds::delayed;
using pbds::bench::bestcut_input;
using pbds::geom::axis_event;

namespace {

double run(const char* name, const pbds::parray<axis_event>& events,
           bool force_map) {
  std::size_t n = events.size();
  pbds::memory::space_meter meter;
  auto t0 = std::chrono::steady_clock::now();

  auto compute = [&](const auto& is_end) {
    auto [counts, total] = d::scan(
        [](std::uint64_t a, std::uint64_t b) { return a + b; },
        std::uint64_t{0}, is_end);
    (void)total;
    auto costs = d::map(
        [n](const std::pair<std::uint64_t, axis_event>& ce) {
          return pbds::geom::sah_cost(ce.second.coord, ce.first, n);
        },
        d::zip(counts, d::view(events)));
    return d::reduce([](double a, double b) { return a < b ? a : b; },
                     std::numeric_limits<double>::infinity(), costs);
  };

  auto is_end_delayed = d::map(
      [](const axis_event& e) -> std::uint64_t { return e.is_end; },
      d::view(events));
  double best = force_map ? compute(d::force(is_end_delayed))
                          : compute(is_end_delayed);

  auto t1 = std::chrono::steady_clock::now();
  std::printf("%-12s: best cut cost %.2f, %.3fs, %7.1f MB allocated\n", name,
              best, std::chrono::duration<double>(t1 - t0).count(),
              static_cast<double>(meter.allocated_bytes()) / 1e6);
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  using pbds::bench_common::detail::parse_long_arg;
  if (argc > 2) {
    std::fprintf(stderr, "usage: %s [n]\n", argv[0]);
    return 2;
  }
  std::size_t n =
      argc > 1 ? static_cast<std::size_t>(parse_long_arg(
                     "n", argv[1], 1, std::numeric_limits<long>::max()))
               : 8'000'000;
  auto events = bestcut_input(n);
  double a = run("fused (2n)", events, /*force_map=*/false);
  double b = run("forced (4n)", events, /*force_map=*/true);
  double want = pbds::bench::bestcut_reference(events);
  bool ok = a == want && b == want;
  std::printf("both match the sequential reference: %s\n", ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
