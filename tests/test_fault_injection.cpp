// Allocation fault injector + exception safety of the library pipelines.
//
// The invariant under test: an allocation failure anywhere inside
// scan / filter / filter_op / flatten — scan partials, filter pack
// buffers, flatten offset arrays, output buffers — propagates out as
// std::bad_alloc and leaks nothing: bytes_live returns exactly to its
// pre-call baseline once the in-scope inputs are destroyed. The sweeps
// run under the sequential and deterministic schedulers AND the real
// work-stealing pool (the fault then fires on an arbitrary worker and
// must cross the fork-join layer's capture/cancel/rethrow protocol —
// DESIGN.md §"Failure semantics"), and the pool must stay reusable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <new>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

#include "array/parray.hpp"
#include "benchmarks/policies.hpp"
#include "core/block.hpp"
#include "core/delayed.hpp"
#include "memory/budget.hpp"
#include "memory/counting_allocator.hpp"
#include "memory/tracking.hpp"
#include "sched/deterministic.hpp"
#include "sched/exec_policy.hpp"

namespace {

using namespace pbds;  // NOLINT

// --- the injector itself -----------------------------------------------------

TEST(FaultInjection, FailsExactlyTheNthAllocation) {
  sched::scoped_sequential seq;
  for (std::int64_t nth = 0; nth < 4; ++nth) {
    auto faults = memory::scoped_alloc_faults::fail_nth(nth);
    std::int64_t succeeded = 0;
    try {
      for (int i = 0; i < 8; ++i) {
        auto a = parray<int>::uninitialized(4);  // exactly one allocation
        ++succeeded;
      }
      FAIL() << "no fault delivered for nth=" << nth;
    } catch (const std::bad_alloc&) {
      EXPECT_EQ(succeeded, nth);  // 0-based: nth allocations succeed first
    }
    EXPECT_EQ(faults.injected(), 1);
    // One-shot: the injector stays armed but delivers no second fault.
    EXPECT_TRUE(memory::fault_injection_armed());
    auto b = parray<int>::uninitialized(4);
    EXPECT_EQ(faults.injected(), 1);
  }
  EXPECT_FALSE(memory::fault_injection_armed());  // disarmed on scope exit
}

TEST(FaultInjection, CountersUntouchedByInjectedFailure) {
  sched::scoped_sequential seq;
  std::int64_t live = memory::bytes_live();
  std::int64_t allocs = memory::num_allocs();
  auto faults = memory::scoped_alloc_faults::fail_nth(0);
  EXPECT_THROW((void)parray<int>::uninitialized(64), std::bad_alloc);
  EXPECT_EQ(memory::bytes_live(), live);
  EXPECT_EQ(memory::num_allocs(), allocs);
}

TEST(FaultInjection, ArmedButNeverFiringLeavesResultsIntact) {
  sched::scoped_sequential seq;
  auto faults = memory::scoped_alloc_faults::fail_nth(1'000'000);
  // The guarded (armed) construction paths must still compute the same
  // values as the fast path.
  auto a = parray<std::int64_t>::tabulate(
      2000, [](std::size_t i) { return static_cast<std::int64_t>(i); });
  std::int64_t sum = std::accumulate(a.begin(), a.end(), std::int64_t{0});
  EXPECT_EQ(sum, 1999LL * 2000 / 2);
  EXPECT_EQ(faults.injected(), 0);
}

// --- pipelines under injected failures --------------------------------------

// A pipeline hitting every allocating operation: filter (pack buffers +
// concat), scan (block sums, partials, output), to_array.
template <typename P>
std::int64_t filter_scan_pipeline() {
  auto input = parray<std::int64_t>::tabulate(
      3000, [](std::size_t i) { return static_cast<std::int64_t>((i * 11) % 64); });
  auto evens =
      P::filter([](std::int64_t x) { return (x & 1) == 0; }, P::view(input));
  auto [pre, tot] = P::scan(
      [](std::int64_t a, std::int64_t b) { return a + b; }, std::int64_t{0},
      evens);
  auto arr = P::to_array(std::move(pre));
  std::int64_t acc = tot;
  for (auto v : arr) acc += v;
  return acc;
}

// flatten + filter_op, exercising the ragged-piece offset/copy machinery.
template <typename P>
std::int64_t flatten_pipeline() {
  using buf = memory::tracked_vector<std::int64_t>;
  auto nested = parray<buf>::tabulate(100, [](std::size_t i) {
    buf v;
    for (std::size_t j = 0; j < i % 9; ++j)
      v.push_back(static_cast<std::int64_t>(i + j));
    return v;
  });
  auto flat = P::flatten(nested);
  auto picked = P::filter_op(
      [](std::int64_t x) -> std::optional<std::int64_t> {
        if (x % 3 == 0) return x * 2;
        return std::nullopt;
      },
      flat);
  auto arr = P::to_array(std::move(picked));
  std::int64_t acc = 0;
  for (auto v : arr) acc += v;
  return acc;
}

// Run `pipeline` under fail_nth for EVERY allocation index the fault-free
// run performs, asserting bad_alloc-or-success and zero leaked bytes.
template <typename Pipeline>
void sweep_every_allocation(Pipeline pipeline, std::int64_t expected) {
  std::int64_t baseline = memory::bytes_live();
  std::int64_t total_allocs;
  {
    memory::space_meter m;
    ASSERT_EQ(pipeline(), expected);
    total_allocs = m.alloc_count();
  }
  ASSERT_GT(total_allocs, 0);
  std::int64_t faulted = 0;
  for (std::int64_t nth = 0; nth < total_allocs; ++nth) {
    auto faults = memory::scoped_alloc_faults::fail_nth(nth);
    try {
      // The armed guarded paths may allocate in a different pattern than
      // the fault-free probe, so late nth values can complete cleanly;
      // completed runs must still produce the right answer.
      EXPECT_EQ(pipeline(), expected) << "nth=" << nth;
    } catch (const std::bad_alloc&) {
      ++faulted;
    }
    EXPECT_EQ(memory::bytes_live(), baseline)
        << "leak after injected fault at allocation " << nth;
  }
  EXPECT_GT(faulted, 0);
}

TEST(FaultInjection, FilterScanPipelineLeakFreeSequential_Array) {
  sched::scoped_sequential seq;
  sweep_every_allocation([] { return filter_scan_pipeline<array_policy>(); },
                         filter_scan_pipeline<array_policy>());
}

TEST(FaultInjection, FilterScanPipelineLeakFreeSequential_Rad) {
  sched::scoped_sequential seq;
  sweep_every_allocation([] { return filter_scan_pipeline<rad_policy>(); },
                         filter_scan_pipeline<rad_policy>());
}

TEST(FaultInjection, FilterScanPipelineLeakFreeSequential_Delay) {
  sched::scoped_sequential seq;
  sweep_every_allocation([] { return filter_scan_pipeline<delay_policy>(); },
                         filter_scan_pipeline<delay_policy>());
}

TEST(FaultInjection, FlattenPipelineLeakFreeSequential_Array) {
  sched::scoped_sequential seq;
  sweep_every_allocation([] { return flatten_pipeline<array_policy>(); },
                         flatten_pipeline<array_policy>());
}

TEST(FaultInjection, FlattenPipelineLeakFreeSequential_Delay) {
  sched::scoped_sequential seq;
  sweep_every_allocation([] { return flatten_pipeline<delay_policy>(); },
                         flatten_pipeline<delay_policy>());
}

TEST(FaultInjection, FilterScanPipelineLeakFreeDeterministic) {
  std::int64_t expected;
  {
    sched::scoped_sequential seq;
    expected = filter_scan_pipeline<delay_policy>();
  }
  // Under the deterministic scheduler the fork tree interleaves, so the
  // failing allocation lands in different operations per seed.
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    sched::scoped_deterministic det(seed, 4);
    sweep_every_allocation([] { return filter_scan_pipeline<delay_policy>(); },
                           expected);
  }
}

// --- the real work-stealing pool ---------------------------------------------
//
// Same sweeps under exec_mode::parallel: the injected bad_alloc now lands
// on whichever worker performs the Nth allocation — possibly inside a
// stolen job — and must still reach the caller as a single bad_alloc on
// the forking thread, leak nothing, and leave the pool able to run a
// clean pipeline immediately afterwards.

TEST(FaultInjection, FilterScanPipelineLeakFreeRealPool_Array) {
  ASSERT_EQ(sched::current_exec_mode(), sched::exec_mode::parallel);
  std::int64_t expected = filter_scan_pipeline<array_policy>();
  sweep_every_allocation([] { return filter_scan_pipeline<array_policy>(); },
                         expected);
  EXPECT_EQ(filter_scan_pipeline<array_policy>(), expected);  // pool intact
}

TEST(FaultInjection, FilterScanPipelineLeakFreeRealPool_Rad) {
  ASSERT_EQ(sched::current_exec_mode(), sched::exec_mode::parallel);
  std::int64_t expected = filter_scan_pipeline<rad_policy>();
  sweep_every_allocation([] { return filter_scan_pipeline<rad_policy>(); },
                         expected);
  EXPECT_EQ(filter_scan_pipeline<rad_policy>(), expected);
}

TEST(FaultInjection, FilterScanPipelineLeakFreeRealPool_Delay) {
  ASSERT_EQ(sched::current_exec_mode(), sched::exec_mode::parallel);
  std::int64_t expected = filter_scan_pipeline<delay_policy>();
  sweep_every_allocation([] { return filter_scan_pipeline<delay_policy>(); },
                         expected);
  EXPECT_EQ(filter_scan_pipeline<delay_policy>(), expected);
}

TEST(FaultInjection, FlattenPipelineLeakFreeRealPool_Array) {
  ASSERT_EQ(sched::current_exec_mode(), sched::exec_mode::parallel);
  std::int64_t expected = flatten_pipeline<array_policy>();
  sweep_every_allocation([] { return flatten_pipeline<array_policy>(); },
                         expected);
  EXPECT_EQ(flatten_pipeline<array_policy>(), expected);
}

TEST(FaultInjection, FlattenPipelineLeakFreeRealPool_Delay) {
  ASSERT_EQ(sched::current_exec_mode(), sched::exec_mode::parallel);
  std::int64_t expected = flatten_pipeline<delay_policy>();
  sweep_every_allocation([] { return flatten_pipeline<delay_policy>(); },
                         expected);
  EXPECT_EQ(flatten_pipeline<delay_policy>(), expected);
}

TEST(FaultInjection, ProbabilityModeLeakFreeRealPool) {
  ASSERT_EQ(sched::current_exec_mode(), sched::exec_mode::parallel);
  std::int64_t expected = filter_scan_pipeline<delay_policy>();
  std::int64_t baseline = memory::bytes_live();
  std::int64_t faulted_runs = 0;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    {
      auto faults =
          memory::scoped_alloc_faults::fail_with_probability(seed, 0.05);
      try {
        EXPECT_EQ(filter_scan_pipeline<delay_policy>(), expected)
            << "seed=" << seed;
      } catch (const std::bad_alloc&) {
        ++faulted_runs;
      }
    }
    EXPECT_EQ(memory::bytes_live(), baseline) << "leak with seed " << seed;
    // The pool must come back clean between faulted runs.
    ASSERT_EQ(filter_scan_pipeline<delay_policy>(), expected)
        << "pool wedged after seed " << seed;
  }
  EXPECT_GT(faulted_runs, 0);
}

TEST(FaultInjection, ProbabilityModeLeakFreeAcrossSeeds) {
  sched::scoped_sequential seq;
  std::int64_t expected = filter_scan_pipeline<delay_policy>();
  std::int64_t baseline = memory::bytes_live();
  std::int64_t faulted_runs = 0;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    auto faults =
        memory::scoped_alloc_faults::fail_with_probability(seed, 0.05);
    try {
      EXPECT_EQ(filter_scan_pipeline<delay_policy>(), expected)
          << "seed=" << seed;
    } catch (const std::bad_alloc&) {
      ++faulted_runs;
    }
    EXPECT_EQ(memory::bytes_live(), baseline) << "leak with seed " << seed;
  }
  // With ~dozens of allocations per run at p=0.05, some runs must fault.
  EXPECT_GT(faulted_runs, 0);
}

// --- accumulators with real destructors ---------------------------------------
//
// reduce, fold, scan and scan_inclusive materialize their block sums,
// scan its partials and output through one guarded construction loop,
// in A, R and Ours alike.
// An accumulator whose every value construction allocates through the
// tracker puts injected faults inside element construction too (a block
// sum mid-fold, a partial, an output element), not only on the arrays; a
// placeholder (default construction) never allocates. live() counts
// constructions minus destructions.
struct boxed {
  static std::atomic<long>& live() {
    static std::atomic<long> v{0};
    return v;
  }
  memory::tracked_vector<std::int64_t> v;
  boxed() noexcept { ++live(); }
  explicit boxed(std::int64_t x) : v(1, x) { ++live(); }
  boxed(const boxed& o) : v(o.v) { ++live(); }
  boxed& operator=(const boxed& o) = default;
  ~boxed() { --live(); }
  [[nodiscard]] std::int64_t get() const { return v.empty() ? 0 : v[0]; }
};

boxed boxed_plus(const boxed& a, const boxed& b) {
  return boxed(a.get() + b.get());
}

// 64 elements in 8 blocks of 8: enough blocks to fork, few enough
// allocations per run to fault every one of them.
constexpr std::size_t kBoxedN = 64;
constexpr std::size_t kBoxedBlk = 8;

template <typename P>
auto boxed_input() {
  return P::map(
      [](std::size_t i) { return boxed(static_cast<std::int64_t>(i % 7)); },
      P::iota(kBoxedN));
}

template <typename P>
std::int64_t boxed_reduce() {
  return P::reduce(boxed_plus, boxed(1), boxed_input<P>()).get();
}

// Folds the materialized scan output and the total into one checksum.
template <typename P, typename Pair>
std::int64_t boxed_checksum(const Pair& pr) {
  auto arr = P::to_array(pr.first);
  auto acc = static_cast<std::uint64_t>(pr.second.get());
  for (std::size_t i = 0; i < arr.size(); ++i)
    acc = acc * 31 + static_cast<std::uint64_t>(arr[i].get());
  return static_cast<std::int64_t>(acc);
}

template <typename P>
std::int64_t boxed_scan() {
  return boxed_checksum<P>(P::scan(boxed_plus, boxed(1), boxed_input<P>()));
}

template <typename P>
std::int64_t boxed_scan_inclusive() {
  return boxed_checksum<P>(
      P::scan_inclusive(boxed_plus, boxed(1), boxed_input<P>()));
}

// A step that allocates (a fresh boxed per element), so the sweep also
// throws from inside a block's fold, with the block's accumulator live.
template <typename P>
std::int64_t boxed_fold() {
  return P::fold([](boxed& acc, const boxed& x) { acc = boxed_plus(acc, x); },
                 boxed_plus, boxed(1), boxed_input<P>())
      .get();
}

// Fail every allocation of a fault-free run in turn: each run returns the
// right result or throws bad_alloc, and after each one bytes_live and the
// live accumulator count are back at their baselines.
void sweep_boxed(std::int64_t (*op)(), const char* name) {
  scoped_block_size bs(kBoxedBlk);
  std::int64_t expected;
  std::int64_t total_allocs;
  {
    memory::space_meter m;
    expected = op();
    total_allocs = m.alloc_count();
  }
  std::int64_t baseline = memory::bytes_live();
  long live0 = boxed::live().load();
  ASSERT_GT(total_allocs, 0) << name;
  std::int64_t faulted = 0;
  for (std::int64_t nth = 0; nth < total_allocs; ++nth) {
    {
      auto faults = memory::scoped_alloc_faults::fail_nth(nth);
      try {
        EXPECT_EQ(op(), expected) << name << " nth=" << nth;
      } catch (const std::bad_alloc&) {
        ++faulted;
      }
    }
    EXPECT_EQ(memory::bytes_live(), baseline)
        << name << ": leak after injected fault at allocation " << nth;
    EXPECT_EQ(boxed::live().load(), live0)
        << name << ": constructions != destructions after fault at " << nth;
  }
  EXPECT_GT(faulted, 0) << name;
}

// The four sweeps through one library.
template <typename P>
void sweep_boxed_ops() {
  SCOPED_TRACE(P::name);
  sweep_boxed(boxed_reduce<P>, "reduce");
  sweep_boxed(boxed_scan<P>, "scan");
  sweep_boxed(boxed_scan_inclusive<P>, "scan_inclusive");
  sweep_boxed(boxed_fold<P>, "fold");
}

TEST(FaultInjection, NonTrivialAccumulatorsLeakFreeSequential) {
  sched::scoped_sequential seq;
  sweep_boxed_ops<array_policy>();
  sweep_boxed_ops<rad_policy>();
  sweep_boxed_ops<delay_policy>();
}

TEST(FaultInjection, NonTrivialAccumulatorsLeakFreeRealPool) {
  ASSERT_EQ(sched::current_exec_mode(), sched::exec_mode::parallel);
  sweep_boxed_ops<array_policy>();
  sweep_boxed_ops<rad_policy>();
  sweep_boxed_ops<delay_policy>();
}

// --- a predicate that throws with survivors staged ----------------------------
//
// filter and filter_op stage a block's survivors on the stack before they
// move into the block's buffer. A predicate that throws part-way through
// a block must destroy what is staged: with `boxed` elements (each holds
// a tracked allocation and counts its live instances) the exception
// reaches the caller once, and the live count and bytes_live return to
// their baselines, in A, R and Ours.
struct predicate_threw {};

constexpr std::size_t kStagedBlk = 256;
constexpr std::size_t kStagedN = 8 * kStagedBlk;

// Keeps the even values; throws at offset 200 of every odd block, when
// 100 of that block's survivors are staged.
bool keep_or_throw(const boxed& x) {
  auto i = static_cast<std::size_t>(x.get());
  if (i % kStagedBlk == 200 && (i / kStagedBlk) % 2 == 1)
    throw predicate_threw{};
  return i % 2 == 0;
}

std::optional<boxed> keep_or_throw_op(const boxed& x) {
  if (!keep_or_throw(x)) return std::nullopt;
  return x;
}

template <typename P>
void throwing_predicate_leaks_nothing() {
  scoped_block_size bs(kStagedBlk);
  auto input = parray<boxed>::tabulate(kStagedN, [](std::size_t i) {
    return boxed(static_cast<std::int64_t>(i));
  });
  const long live0 = boxed::live().load();
  const std::int64_t bytes0 = memory::bytes_live();
  auto expect_throws_once = [&](const char* what, auto run) {
    int caught = 0;
    try {
      run();
    } catch (const predicate_threw&) {
      ++caught;
    }
    EXPECT_EQ(caught, 1) << P::name << " " << what;
    EXPECT_EQ(boxed::live().load(), live0) << P::name << " " << what;
    EXPECT_EQ(memory::bytes_live(), bytes0) << P::name << " " << what;
  };
  // A copying map puts the element evaluation in the block stream (R and
  // Ours) instead of a read of the input.
  auto copy = [](const boxed& x) { return boxed(x.get()); };
  expect_throws_once("filter", [&] {
    (void)P::filter(keep_or_throw, P::view(input));
  });
  expect_throws_once("filter_op", [&] {
    (void)P::filter_op(keep_or_throw_op, P::view(input));
  });
  expect_throws_once("filter of map", [&] {
    (void)P::filter(keep_or_throw, P::map(copy, P::view(input)));
  });
  expect_throws_once("filter_op of map", [&] {
    (void)P::filter_op(keep_or_throw_op, P::map(copy, P::view(input)));
  });
  // The pool is reusable and a clean filter keeps every even element.
  auto evens = P::to_array(P::filter(
      [](const boxed& x) { return x.get() % 2 == 0; }, P::view(input)));
  ASSERT_EQ(evens.size(), kStagedN / 2);
  for (std::size_t k = 0; k < evens.size(); ++k)
    ASSERT_EQ(evens[k].get(), static_cast<std::int64_t>(2 * k));
}

TEST(FaultInjection, ThrowingPredicateDestroysStagedSurvivorsSequential) {
  sched::scoped_sequential seq;
  throwing_predicate_leaks_nothing<array_policy>();
  throwing_predicate_leaks_nothing<rad_policy>();
  throwing_predicate_leaks_nothing<delay_policy>();
}

TEST(FaultInjection, ThrowingPredicateDestroysStagedSurvivorsRealPool) {
  ASSERT_EQ(sched::current_exec_mode(), sched::exec_mode::parallel);
  throwing_predicate_leaks_nothing<array_policy>();
  throwing_predicate_leaks_nothing<rad_policy>();
  throwing_predicate_leaks_nothing<delay_policy>();
}

// Budget admission runs the fault injector first: with both active, an
// injected fault wins (it throws plain bad_alloc, not budget_exceeded) and
// neither mechanism leaks reservation or live bytes.
TEST(FaultInjection, ComposesWithBudgetWithoutLeaking) {
  sched::scoped_sequential seq;
  std::int64_t baseline = memory::bytes_live();
  {
    memory::budget_scope budget(static_cast<std::size_t>(baseline) +
                                (1u << 20));
    auto faults = memory::scoped_alloc_faults::fail_nth(1);
    bool injected = false;
    try {
      auto a = parray<char>::uninitialized(64);
      auto b = parray<char>::uninitialized(64);  // injector fires here
      (void)a;
      (void)b;
    } catch (const pbds::budget_exceeded&) {
      ADD_FAILURE() << "injected fault misreported as a budget refusal";
    } catch (const std::bad_alloc&) {
      injected = true;
    }
    EXPECT_TRUE(injected);
    EXPECT_EQ(memory::bytes_live(), baseline);
    // The budget is still enforced after the injected fault: the refusal
    // path must not have left a stale reservation behind.
    EXPECT_THROW(parray<char>::uninitialized(2u << 20),
                 pbds::budget_exceeded);
    EXPECT_EQ(memory::bytes_live(), baseline);
  }
}

}  // namespace
