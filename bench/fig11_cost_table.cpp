// Fig. 11 — the cost-semantics table, evaluated concretely.
//
// The paper's Fig. 11 gives each operation's eager (work, span, alloc) and
// the delayed costs it installs on its output. This bench evaluates the
// executable model (src/cost) for a concrete n and block size and prints
// the table, so the asymptotic rows can be read as numbers: e.g. scan's
// eager allocation is |X|/B, visible here as exactly n/B partials.
// --scale multiplies n; --repeat and --warmup are accepted and have
// nothing to time.
#include <cstdio>

#include "bench_common/harness.hpp"
#include "core/block.hpp"
#include "cost/cost.hpp"

namespace {

using namespace pbds::cost;  // NOLINT

void print_row(const char* name, const char* repr_s, const costs& eager,
               const costs& delayed_per_elem) {
  std::printf("%-22s | %4s | %12.0f %10.0f %12.0f | %8.1f %8.1f %8.1f\n",
              name, repr_s, eager.work, eager.span, eager.alloc,
              delayed_per_elem.work, delayed_per_elem.span,
              delayed_per_elem.alloc);
}

}  // namespace

int main(int argc, char** argv) {
  auto opts = pbds::bench_common::options::parse(argc, argv);
  std::size_t n = opts.scaled(1'000'000);
  std::size_t B = pbds::block_size();
  std::printf("=== Fig. 11: cost semantics, evaluated at n = %zu, B = %zu ===\n\n",
              n, B);
  std::printf("%-22s | repr | %12s %10s %12s | %8s %8s %8s\n", "operation",
              "eager W", "eager S", "eager A", "W*/i", "S*/i", "A*/i");
  std::printf("%.*s\n", 108,
              "------------------------------------------------------------"
              "------------------------------------------------");

  {  // tabulate n f
    cost_meter m;
    auto y = tabulate(m, n);
    print_row("tabulate n f", "RAD", m.total(), y.delayed(0));
  }
  {  // map f X (X a fresh tabulate)
    cost_meter mk;
    auto x = tabulate(mk, n);
    cost_meter m;
    auto y = map(m, x);
    print_row("map f X", "RAD", m.total(), y.delayed(0));
  }
  {  // force X
    cost_meter mk;
    auto x = map(mk, tabulate(mk, n));
    cost_meter m;
    auto y = force(m, x);
    print_row("force X", "RAD", m.total(), y.delayed(0));
  }
  {  // filter p X, 10% survivors
    cost_meter mk;
    auto x = tabulate(mk, n);
    cost_meter m;
    auto y = filter(m, x, n / 10);
    print_row("filter p X (|Y|=n/10)", "BID", m.total(), y.delayed(0));
  }
  {  // flatten X (outer n/100 inners of 100)
    cost_meter mk;
    auto outer = tabulate(mk, n / 100);
    cost_meter m;
    auto y = flatten(m, outer, n, constant_delayed(kUnit));
    print_row("flatten X (n/100 x100)", "BID", m.total(), y.delayed(0));
  }
  {  // scan f z X
    cost_meter mk;
    auto x = tabulate(mk, n);
    cost_meter m;
    auto y = scan(m, x);
    print_row("scan f z X", "BID", m.total(), y.delayed(0));
  }
  {  // reduce f z X
    cost_meter mk;
    auto x = tabulate(mk, n);
    cost_meter m;
    reduce(m, x);
    print_row("reduce f z X", "-", m.total(), costs{0, 0, 0});
  }

  std::printf(
      "\nReadings to check against the paper's Fig. 11:\n"
      "  * tabulate/map: eager O(1), costs pushed into the delayed columns;\n"
      "  * force: eager W = sum of delayed work, A = |X| + delayed allocs;\n"
      "  * filter: eager A = |Y| + |X|/B = %zu;\n"
      "  * scan/reduce: eager A = |X|/B = %zu, span has the log-|X| term;\n"
      "  * scan output carries +1 delayed cost per element (phase 3).\n",
      n / 10 + n / B, n / B);
  return 0;
}
