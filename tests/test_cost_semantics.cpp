// Tests for the executable cost semantics (§5, Fig. 11) — both the
// internal consistency of the model (the Fig. 11 rows) and its headline
// predictions: the Fig. 5 read/write totals and the §5.1 BFS bounds.
// Where possible the model's allocation predictions are cross-checked
// against the *measured* allocations of the real library.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/block.hpp"
#include "core/delayed.hpp"
#include "cost/cost.hpp"
#include "cost/rw_model.hpp"
#include "memory/tracking.hpp"
#include "sched/exec_policy.hpp"

namespace {

namespace c = pbds::cost;
using pbds::scoped_block_size;

TEST(CostModel, TabulateIsEagerO1) {
  c::cost_meter m;
  auto x = c::tabulate(m, 1'000'000);
  EXPECT_EQ(x.n, 1'000'000u);
  EXPECT_EQ(x.r, c::repr::rad);
  EXPECT_LE(m.total().work, 2.0);
  EXPECT_EQ(m.total().alloc, 0.0);
}

TEST(CostModel, MapAddsDelayedWorkOnly) {
  c::cost_meter m;
  auto x = c::tabulate(m, 100);
  auto y = c::map(m, x, c::costs{5, 5, 0});
  EXPECT_LE(m.total().work, 3.0);  // still O(1) eager
  EXPECT_EQ(y.delayed(0).work, x.delayed(0).work + 5);
  EXPECT_EQ(y.r, c::repr::rad);
}

TEST(CostModel, ForcePaysAllDelayedCosts) {
  scoped_block_size guard(16);
  c::cost_meter m;
  auto x = c::tabulate(m, 160);
  auto y = c::map(m, x, c::costs{3, 3, 0});
  c::cost_meter m2;
  auto z = c::force(m2, y);
  // Work: 160 elements x (1 tabulate + 1 + 3 map + 1) per Fig. 11 chains.
  EXPECT_GE(m2.total().work, 160.0 * 4);
  EXPECT_GE(m2.total().alloc, 160.0);  // the result array
  EXPECT_EQ(z.delayed(7).work, 1.0);   // forced: unit delayed costs
}

TEST(CostModel, ScanAllocatesBlocksNotElements) {
  scoped_block_size guard(64);
  c::cost_meter m;
  auto x = c::tabulate(m, 64 * 100);
  auto y = c::scan(m, x);
  EXPECT_EQ(y.r, c::repr::bid);
  EXPECT_LE(m.total().alloc, 100.0 + 2.0);  // |X|/B = 100 partials
  EXPECT_GE(m.total().work, 6400.0);        // phase 1 reads everything
}

TEST(CostModel, ReduceChargesBmaxSpan) {
  scoped_block_size guard(10);
  c::cost_meter m;
  // Delayed span 2 per element; blocks of 10 -> bmax = 20 within blocks.
  c::cost_seq x{100, c::repr::rad,
                c::constant_delayed(c::costs{2, 2, 0})};
  c::reduce(m, x);
  EXPECT_GE(m.total().span, 20.0);       // at least one block's sum
  EXPECT_LE(m.total().span, 20.0 + 10);  // + log terms, not n
}

TEST(CostModel, FilterAllocatesSurvivorsPlusBlocks) {
  scoped_block_size guard(32);
  c::cost_meter m;
  auto x = c::tabulate(m, 3200);
  auto y = c::filter(m, x, /*m_out=*/17);
  EXPECT_EQ(y.n, 17u);
  EXPECT_EQ(y.r, c::repr::bid);
  // |Y| + |X|/B = 17 + 100 plus O(1) noise, not 3200.
  EXPECT_LE(m.total().alloc, 17.0 + 100.0 + 5.0);
}

TEST(CostModel, FilterSurvivorBytesMatchModel) {
  // filter's |Y| term is exact: a block's survivors are packed into one
  // buffer of exactly their count, so what filter allocates beyond the
  // same filter keeping nothing is |Y| elements, to the byte.
  pbds::sched::scoped_sequential seq;
  scoped_block_size guard(32);
  const std::size_t n = 3200;
  auto model_alloc = [n](std::size_t m_out) {
    c::cost_meter m;
    auto x = c::tabulate(m, n);
    c::filter(m, x, m_out);
    return m.total().alloc;
  };
  const double model_y = model_alloc(17) - model_alloc(0);
  EXPECT_EQ(model_y, 17.0);
  // Survivors 1000..1016 all lie in block 31 (992..1023).
  auto measured_bytes = [n](std::int64_t keep) {
    auto t = pbds::delayed::tabulate(
        n, [](std::size_t i) { return static_cast<std::int64_t>(i); });
    pbds::memory::space_meter meter;
    auto y = pbds::delayed::filter(
        [keep](std::int64_t x) { return x >= 1000 && x < 1000 + keep; }, t);
    EXPECT_EQ(y.size(), static_cast<std::size_t>(keep));
    return meter.allocated_bytes();
  };
  EXPECT_EQ(measured_bytes(17) - measured_bytes(0),
            static_cast<std::int64_t>(model_y) *
                static_cast<std::int64_t>(sizeof(std::int64_t)));
}

TEST(CostModel, FusedBestcutPipelineAllocatesOnlyBlocks) {
  // The whole Fig. 5 pipeline in the model: map -> scan -> map -> reduce
  // must allocate O(b), not O(n).
  scoped_block_size guard(100);
  std::size_t n = 100 * 1000;
  c::cost_meter m;
  auto a = c::tabulate(m, n);
  auto is_end = c::map(m, a);
  auto counts = c::scan(m, is_end);
  auto costs_seq = c::map(m, counts);
  c::reduce(m, costs_seq);
  double b = static_cast<double>(n) / 100.0;
  EXPECT_LE(m.total().alloc, 2 * b + 10);  // O(b)
  EXPECT_GE(m.total().work, 2.0 * n);      // two passes
}

TEST(CostModel, ModelMatchesMeasuredScanAllocation) {
  // Cross-check: the model's byte prediction for a fused scan+reduce
  // pipeline vs the real library's measured allocation.
  scoped_block_size guard(256);
  std::size_t n = 256 * 64;
  // Model (elements):
  c::cost_meter m;
  auto x = c::tabulate(m, n);
  auto y = c::scan(m, x);
  c::reduce(m, y);
  double predicted_elems = m.total().alloc;
  // Measured (bytes of int64):
  pbds::memory::space_meter meter;
  auto t = pbds::delayed::tabulate(
      n, [](std::size_t i) { return (std::int64_t)i; });
  auto [pre, tot] = pbds::delayed::scan(
      [](std::int64_t p, std::int64_t q) { return p + q; },
      std::int64_t{0}, t);
  (void)tot;
  volatile auto r = pbds::delayed::reduce(
      [](std::int64_t p, std::int64_t q) { return p + q; },
      std::int64_t{0}, pre);
  (void)r;
  double measured_elems =
      static_cast<double>(meter.allocated_bytes()) / sizeof(std::int64_t);
  // Same order of magnitude: both are O(blocks), within 4x of each other
  // (the implementation also allocates phase-1 sums and reduce partials).
  EXPECT_LE(measured_elems, 4 * predicted_elems + 16);
  EXPECT_LE(predicted_elems, 4 * measured_elems + 16);
}

TEST(CostModel, Fig5ReadWriteTotals) {
  double n = 1e6, b = 1e3;
  auto rows = c::bestcut_rw_table(n, b);
  auto normal = c::rw_total(rows, false);
  auto fused = c::rw_total(rows, true);
  EXPECT_NEAR(normal.total(), 8 * n, 10 * b);  // 8n + O(b)
  EXPECT_NEAR(fused.total(), 2 * n, 10 * b);   // 2n + O(b)
  EXPECT_NEAR(c::bestcut_rw_forced(n, b).total(), 4 * n, 10 * b);
}

TEST(CostModel, Fig5PhaseBreakdown) {
  double n = 1000, b = 10;
  auto rows = c::bestcut_rw_table(n, b);
  ASSERT_EQ(rows.size(), 6u);
  // Phase 1 of the scan reads n and writes b in both executions.
  EXPECT_EQ(rows[1].normal.reads, n);
  EXPECT_EQ(rows[1].normal.writes, b);
  EXPECT_EQ(rows[1].fused.reads, n);
  // The two maps and phase 3 vanish under fusion.
  EXPECT_EQ(rows[0].fused.total(), 0);
  EXPECT_EQ(rows[3].fused.total(), 0);
  EXPECT_EQ(rows[4].fused.total(), 0);
}

// §5.1: BFS allocation is O(N + M/B). Model one round over a frontier of
// size F with E outgoing edges: flatten allocates F, filter allocates
// F' + E/B, map allocates nothing.
TEST(CostModel, BfsRoundAllocation) {
  scoped_block_size guard(128);
  std::size_t F = 1000, E = 50'000, Fp = 800;
  c::cost_meter m;
  auto frontier = c::tabulate(m, F);
  auto mapped = c::map(m, frontier);  // outPairs construction: O(1)/elt
  auto edges = c::flatten(m, mapped, E, c::constant_delayed(c::kUnit));
  auto next = c::filter(m, edges, Fp);
  EXPECT_EQ(next.n, Fp);
  double bound = static_cast<double>(F) + static_cast<double>(Fp) +
                 static_cast<double>(E) / 128.0;
  EXPECT_LE(m.total().alloc, bound + 10);
  EXPECT_GE(m.total().alloc, bound * 0.5);
}

// Summing the per-round §5.1 bound over a synthetic level structure gives
// O(N + M/B) for the whole BFS.
TEST(CostModel, BfsTotalAllocationBound) {
  scoped_block_size guard(64);
  // 10 rounds; frontier sizes and edge counts sum to N and M.
  std::size_t fs[] = {1, 10, 100, 400, 300, 100, 50, 25, 10, 4};
  std::size_t N = 0, M = 0;
  c::cost_meter m;
  for (int round = 0; round < 9; ++round) {
    std::size_t F = fs[round], E = F * 60, Fp = fs[round + 1];
    N += F;
    M += E;
    auto frontier = c::tabulate(m, F);
    auto mapped = c::map(m, frontier);
    auto edges = c::flatten(m, mapped, E, c::constant_delayed(c::kUnit));
    c::filter(m, edges, Fp);
  }
  double bound = 2.0 * static_cast<double>(N) +
                 static_cast<double>(M) / 64.0;
  EXPECT_LE(m.total().alloc, bound + 100);
}

}  // namespace

namespace {

TEST(CostModel, ZipIsO1AndBidInfectious) {
  pbds::scoped_block_size guard(32);
  c::cost_meter m;
  auto a = c::tabulate(m, 320);
  auto b = c::tabulate(m, 320);
  auto z1 = c::zip(m, a, b);
  EXPECT_EQ(z1.r, c::repr::rad);  // RAD x RAD stays RAD
  auto s = c::scan(m, a);
  c::cost_meter m2;
  auto z2 = c::zip(m2, s, b);
  EXPECT_EQ(z2.r, c::repr::bid);  // BID side forces blockwise zip
  EXPECT_LE(m2.total().work, 2.0);  // zip itself is O(1)
  // Delayed costs of the zip are the sum of both sides'.
  EXPECT_EQ(z2.delayed(3).work,
            s.delayed(3).work + b.delayed(3).work + 1);
}

TEST(CostModel, FilterOpMatchesFilterCosts) {
  pbds::scoped_block_size guard(64);
  c::cost_meter m1, m2;
  auto x1 = c::tabulate(m1, 6400);
  auto x2 = c::tabulate(m2, 6400);
  c::filter(m1, x1, 99, c::costs{4, 4, 0});
  c::filter_op(m2, x2, 99, c::costs{4, 4, 0});
  EXPECT_EQ(m1.total().work, m2.total().work);
  EXPECT_EQ(m1.total().alloc, m2.total().alloc);
}

TEST(CostModel, ScanInclusiveSameAsScan) {
  pbds::scoped_block_size guard(64);
  c::cost_meter m1, m2;
  auto x1 = c::tabulate(m1, 6400);
  auto x2 = c::tabulate(m2, 6400);
  auto y1 = c::scan(m1, x1);
  auto y2 = c::scan_inclusive(m2, x2);
  EXPECT_EQ(m1.total().alloc, m2.total().alloc);
  EXPECT_EQ(y1.r, y2.r);
}

TEST(CostModel, ForcedVsRecomputedMapTradeoff) {
  // The §3 decision as model arithmetic: with an expensive map feeding a
  // scan+reduce, forcing halves the map work but adds n allocation.
  pbds::scoped_block_size guard(128);
  std::size_t n = 12'800;
  c::costs f_cost{10, 10, 0};
  // Recomputed: scan phase 1 + reduce both pay the map.
  c::cost_meter mr;
  auto xr = c::map(mr, c::tabulate(mr, n), f_cost);
  auto sr = c::scan(mr, xr);
  c::reduce(mr, sr);
  // Forced: map paid once in the force; downstream reads unit-cost RAD.
  c::cost_meter mf;
  auto xf = c::map(mf, c::tabulate(mf, n), f_cost);
  auto ff = c::force(mf, xf);
  auto sf = c::scan(mf, ff);
  c::reduce(mf, sf);
  // With W(f)=10, recompute does ~2*10n extra work; force adds n alloc.
  EXPECT_GT(mr.total().work, mf.total().work);
  EXPECT_GT(mf.total().alloc, mr.total().alloc + static_cast<double>(n) - 1);
}

}  // namespace
