// Fig. 5 — the read/write accounting for the best-cut pipeline (map ->
// scan(3 phases) -> map -> reduce), normal vs fused, from the analytic
// model in src/cost/rw_model.hpp. Also prints the §3 forced-map variant
// (4n + O(b)) and cross-checks the totals against the closed forms the
// paper states (8n + O(b) normal, 2n + O(b) fused). --scale multiplies n;
// --repeat and --warmup are accepted and have nothing to time.
#include <cstdio>
#include <string>

#include "bench_common/harness.hpp"
#include "core/block.hpp"
#include "cost/rw_model.hpp"

int main(int argc, char** argv) {
  using namespace pbds::cost;  // NOLINT
  auto opts = pbds::bench_common::options::parse(argc, argv);
  // The paper's bestcut input size.
  double n = static_cast<double>(opts.scaled(200'000'000));
  double b = n / static_cast<double>(pbds::block_size());

  std::printf("=== Fig. 5: best-cut reads/writes, n = %.0f, b = %.0f ===\n\n",
              n, b);
  std::printf("%-14s | %12s %12s | %12s %12s\n", "operation", "normal R",
              "normal W", "fused R", "fused W");
  std::printf("%.*s\n", 72,
              "------------------------------------------------------------"
              "------------");
  auto rows = bestcut_rw_table(n, b);
  for (const auto& r : rows) {
    std::printf("%-14s | %12.0f %12.0f | %12.0f %12.0f\n",
                std::string(r.op).c_str(), r.normal.reads, r.normal.writes,
                r.fused.reads, r.fused.writes);
  }
  rw tn = rw_total(rows, /*fused=*/false);
  rw tf = rw_total(rows, /*fused=*/true);
  rw forced = bestcut_rw_forced(n, b);
  std::printf("%.*s\n", 72,
              "------------------------------------------------------------"
              "------------");
  std::printf("%-14s | %25.0f | %25.0f\n", "total (R+W)", tn.total(),
              tf.total());
  std::printf("\nclosed forms:  normal = 8n + O(b) = %.0f (+O(b))\n", 8 * n);
  std::printf("               fused  = 2n + O(b) = %.0f (+O(b))\n", 2 * n);
  std::printf("               forced-map variant = 4n + O(b) = %.0f  "
              "(measured %.0f)\n",
              4 * n, forced.total());
  std::printf("\nfused/normal traffic ratio: %.2fx less\n",
              tn.total() / tf.total());
  return 0;
}
