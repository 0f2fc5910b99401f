// Resource governance: memory budget admission, the propagation of a
// refusal, and region deadlines (DESIGN.md §"Resource governance").
//
// Invariants under test:
//  * admission is byte-exact — an allocation landing exactly on the limit
//    is admitted, one byte more is refused with pbds::budget_exceeded;
//  * budget_scope composes by min and restores on exit;
//  * a refusal propagates once, to the caller, through the fork-join
//    cancellation protocol under the sequential, deterministic (16 seeds),
//    and real 4-worker schedulers, with bytes_live back at baseline and
//    the pool reusable: from a tabulate of nested arrays, from flatten
//    forcing its inner sequences, and from filter_op's pack, whose
//    predicate still runs at most once per element;
//  * a region past its deadline throws pbds::stall_detected at its root
//    join; shielded construction inside it still builds every element;
//    deterministic mode ignores deadlines, so its schedule replays from
//    the seed alone.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "array/parray.hpp"
#include "core/block.hpp"
#include "core/delayed.hpp"
#include "memory/budget.hpp"
#include "memory/counting_allocator.hpp"
#include "memory/tracking.hpp"
#include "sched/deterministic.hpp"
#include "sched/exec_policy.hpp"
#include "sched/parallel.hpp"
#include "sched/scheduler.hpp"

namespace {

using namespace pbds;  // NOLINT

// --- admission ---------------------------------------------------------------

TEST(Budget, ExactBoundaryAdmittedOneByteMoreRefused) {
  sched::scoped_sequential seq;
  std::int64_t base = memory::bytes_live();
  std::int64_t refusals_before = memory::budget_refusals();
  {
    memory::budget_scope budget(base + 4096);
    // Exactly filling the budget is admitted...
    auto full = parray<char>::uninitialized(4096);
    // ...one more byte is not.
    EXPECT_THROW(parray<char>::uninitialized(1), budget_exceeded);
    EXPECT_EQ(memory::budget_refusals(), refusals_before + 1);
    // The refusal left no trace: live bytes unchanged, and freeing the
    // full allocation reopens the budget.
  }
  EXPECT_EQ(memory::bytes_live(), base);
  auto fine = parray<char>::uninitialized(8192);  // no budget active
  EXPECT_EQ(memory::bytes_live(), base + 8192);
}

TEST(Budget, ExceptionCarriesRequestLiveAndLimit) {
  sched::scoped_sequential seq;
  std::int64_t base = memory::bytes_live();
  memory::budget_scope budget(base + 100);
  try {
    auto a = parray<char>::uninitialized(4096);
    FAIL() << "allocation was not refused";
  } catch (const budget_exceeded& e) {
    EXPECT_EQ(e.requested(), 4096u);
    EXPECT_EQ(e.live(), base);
    EXPECT_EQ(e.limit(), base + 100);
    EXPECT_NE(std::string(e.what()).find("budget"), std::string::npos);
  }
}

TEST(Budget, RefusalIsCatchableAsBadAlloc) {
  sched::scoped_sequential seq;
  memory::budget_scope budget(memory::bytes_live() + 16);
  EXPECT_THROW(parray<char>::uninitialized(1024), std::bad_alloc);
}

TEST(Budget, NestedScopesComposeByMin) {
  sched::scoped_sequential seq;
  std::int64_t base = memory::bytes_live();
  memory::budget_scope outer(base + 8192);
  EXPECT_EQ(memory::budget_limit(), base + 8192);
  {
    // A looser inner scope cannot loosen the outer budget.
    memory::budget_scope inner(base + (1 << 20));
    EXPECT_EQ(memory::budget_limit(), base + 8192);
  }
  {
    // A tighter inner scope restricts, and restores on exit.
    memory::budget_scope inner(base + 1024);
    EXPECT_EQ(memory::budget_limit(), base + 1024);
    EXPECT_THROW(parray<char>::uninitialized(2048), budget_exceeded);
  }
  EXPECT_EQ(memory::budget_limit(), base + 8192);
  auto ok = parray<char>::uninitialized(2048);
  EXPECT_EQ(memory::bytes_live(), base + 2048);
}

// --- propagation through the cancellation protocol ---------------------------

void expect_refusal_propagates() {
  std::int64_t base = memory::bytes_live();
  {
    memory::budget_scope budget(base + 16 * 1024);
    // The outer buffer (64 * sizeof(parray) = 1 KiB) is admitted; the
    // per-element inner allocations (8 KiB each, 512 KiB total) blow the
    // budget mid-tabulate on whichever worker runs that element, so the
    // refusal must cross the fork-join capture / cancel / rethrow
    // protocol — and leak nothing despite the half-built outer array.
    EXPECT_THROW(
        {
          auto a = parray<parray<std::int64_t>>::tabulate(
              64,
              [](std::size_t i) {
                return parray<std::int64_t>::filled(
                    1024, static_cast<std::int64_t>(i));
              },
              /*granularity=*/1);
        },
        budget_exceeded);
  }
  EXPECT_EQ(memory::bytes_live(), base);
}

TEST(BudgetPropagation, Sequential) {
  sched::scoped_sequential seq;
  expect_refusal_propagates();
}

TEST(BudgetPropagation, DeterministicSeeds) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    sched::scoped_deterministic det(seed, 4);
    expect_refusal_propagates();
  }
}

TEST(BudgetPropagation, RealPool) {
  unsigned before = sched::num_workers();
  sched::set_num_workers(4);
  expect_refusal_propagates();
  sched::set_num_workers(before);
}

// The flagship pipeline: filter -> scan -> map-to-inner-sequences ->
// flatten -> narrowing map -> to_array. Forcing the inners needs ~256 KiB
// of transients; the final output is 32 KiB. With ~100 KiB of budget
// headroom flatten's forcing is refused, and the refusal is the result:
// it reaches the caller once, nothing leaks, and the same pipeline then
// runs unbudgeted to the same result.
parray<char> run_pipeline() {
  scoped_block_size blocks(256);
  auto input = parray<long>::tabulate(
      1024, [](std::size_t i) { return static_cast<long>(i); });
  auto evens =
      delayed::filter([](long v) { return v % 2 == 0; }, input);  // 512
  auto prefix =
      delayed::scan([](long a, long b) { return a + b; }, 0L, evens).first;
  auto inners = delayed::map(
      [](long v) {
        return parray<long>::tabulate(
            64, [v](std::size_t j) { return v + static_cast<long>(j); });
      },
      prefix);
  auto flat = delayed::flatten(inners);  // 32768 elements
  auto narrowed = delayed::map(
      [](long v) { return static_cast<char>(v & 0x7f); }, flat);
  return delayed::to_array(narrowed);
}

void expect_pipeline_refused_once() {
  auto expected = run_pipeline();  // no budget
  std::int64_t base = memory::bytes_live();
  std::int64_t refusals_before = memory::budget_refusals();
  int caught = 0;
  {
    memory::budget_scope budget(base + 100 * 1024);
    try {
      (void)run_pipeline();
    } catch (const budget_exceeded&) {
      ++caught;
    }
  }
  EXPECT_EQ(caught, 1);
  EXPECT_GT(memory::budget_refusals(), refusals_before);
  EXPECT_EQ(memory::bytes_live(), base);
  auto again = run_pipeline();
  ASSERT_EQ(again.size(), expected.size());
  for (std::size_t i = 0; i < again.size(); ++i) {
    ASSERT_EQ(again[i], expected[i]) << "at " << i;
  }
}

TEST(BudgetPropagation, FlattenPipelineSequential) {
  sched::scoped_sequential seq;
  expect_pipeline_refused_once();
}

TEST(BudgetPropagation, FlattenPipelineDeterministicSeeds) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    sched::scoped_deterministic det(seed, 4);
    expect_pipeline_refused_once();
  }
}

TEST(BudgetPropagation, FlattenPipelineRealPool) {
  unsigned before = sched::num_workers();
  sched::set_num_workers(4);
  expect_pipeline_refused_once();
  sched::set_num_workers(before);
}

// filter_op with bfs's compare-and-swap visit, counting its calls. The
// budget admits the array of block buffers but no block's pack (2,048
// survivors, 16 KiB), so the first pack is refused after its block's
// predicates ran. The refusal must reach the caller with no predicate run
// twice: a second run would find its element visited and drop it.
// Afterwards the unbudgeted filter_op keeps exactly the elements the
// refused one left unvisited.
void expect_filter_op_refused_predicates_once() {
  constexpr std::size_t kBlock = 2048;
  constexpr std::size_t kN = 4 * kBlock;
  scoped_block_size blocks(kBlock);
  auto input = parray<std::int64_t>::tabulate(
      kN, [](std::size_t i) { return static_cast<std::int64_t>(i); });
  std::vector<std::atomic<int>> calls(kN);
  std::vector<std::atomic<bool>> visited(kN);
  auto try_visit = [&](std::int64_t v) -> std::optional<std::int64_t> {
    auto i = static_cast<std::size_t>(v);
    calls[i].fetch_add(1, std::memory_order_relaxed);
    bool expected = false;
    if (visited[i].compare_exchange_strong(expected, true,
                                           std::memory_order_relaxed))
      return v;
    return std::nullopt;
  };
  std::int64_t base = memory::bytes_live();
  const auto buffers = static_cast<std::int64_t>(
      (kN / kBlock) * sizeof(memory::tracked_vector<std::int64_t>));
  int caught = 0;
  {
    memory::budget_scope budget(base + buffers + 1024);
    try {
      (void)delayed::filter_op(try_visit, input);
    } catch (const budget_exceeded&) {
      ++caught;
    }
  }
  EXPECT_EQ(caught, 1);
  EXPECT_EQ(memory::bytes_live(), base);
  std::size_t ran = 0;
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_LE(calls[i].load(), 1) << "predicate ran twice on element " << i;
    ran += static_cast<std::size_t>(calls[i].load());
  }
  EXPECT_GE(ran, kBlock);  // at least one block's pack was attempted
  auto kept = delayed::to_array(delayed::filter_op(try_visit, input));
  EXPECT_EQ(kept.size(), kN - ran);
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(visited[i].load()) << "element " << i << " never visited";
  }
}

TEST(BudgetPropagation, FilterOpPredicateOnceSequential) {
  sched::scoped_sequential seq;
  expect_filter_op_refused_predicates_once();
}

TEST(BudgetPropagation, FilterOpPredicateOnceDeterministicSeeds) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    sched::scoped_deterministic det(seed, 4);
    expect_filter_op_refused_predicates_once();
  }
}

TEST(BudgetPropagation, FilterOpPredicateOnceRealPool) {
  unsigned before = sched::num_workers();
  sched::set_num_workers(4);
  expect_filter_op_refused_predicates_once();
  sched::set_num_workers(before);
}

// --- deadlines ---------------------------------------------------------------

TEST(Deadline, DeadlineOverloadCancelsOverrunningRegion) {
  unsigned before = sched::num_workers();
  sched::set_num_workers(4);
  EXPECT_THROW(
      parallel_for(
          0, 64,
          [](std::size_t) {
            while (!sched::cancellation_requested()) std::this_thread::yield();
          },
          /*granularity=*/1, std::chrono::milliseconds(100)),
      stall_detected);
  // A region that finishes in time is untouched by its deadline.
  std::atomic<int> count{0};
  parallel_for(
      0, 100,
      [&](std::size_t) { count.fetch_add(1, std::memory_order_relaxed); },
      /*granularity=*/1, std::chrono::milliseconds(60000));
  EXPECT_EQ(count.load(), 100);
  sched::set_num_workers(before);
}

TEST(Deadline, Fork2joinDeadlineOverload) {
  unsigned before = sched::num_workers();
  sched::set_num_workers(4);
  EXPECT_THROW(
      fork2join(
          [] {
            while (!sched::cancellation_requested()) std::this_thread::yield();
          },
          [] {
            while (!sched::cancellation_requested()) std::this_thread::yield();
          },
          std::chrono::milliseconds(100)),
      stall_detected);
  sched::set_num_workers(before);
}

// A deterministic schedule must replay from its seed alone, so a deadline
// has no effect in deterministic mode, even after a real-pool deadline
// call: the loop below takes over ten times its deadline and must still
// finish with the interleaving of the same loop without one.
TEST(Deadline, IgnoredInDeterministicMode) {
  unsigned before = sched::num_workers();
  sched::set_num_workers(4);
  parallel_for(
      0, 64, [](std::size_t) {}, /*granularity=*/1,
      std::chrono::milliseconds(60000));
  sched::set_num_workers(before);

  auto sleepy = [](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  };
  std::uint64_t with_deadline = 0;
  {
    sched::scoped_deterministic det(7, 4);
    EXPECT_NO_THROW(parallel_for(0, 64, sleepy, /*granularity=*/1,
                                 std::chrono::milliseconds(10)));
    with_deadline = det.scheduler().trace_hash();
  }
  sched::scoped_deterministic det(7, 4);
  parallel_for(0, 64, sleepy, /*granularity=*/1);
  EXPECT_EQ(with_deadline, det.scheduler().trace_hash());
}

// The shield around to_array's construction loop suspends the deadline, so
// a deadline that passes mid-construction cannot skip blocks and leave
// slots unconstructed: every element is built by the user function, and
// the region throws at its root join instead.
TEST(Deadline, ShieldedConstructionCompletesPastDeadline) {
  unsigned before = sched::num_workers();
  sched::set_num_workers(4);
  const std::size_t n = std::size_t{1} << 17;
  const std::size_t blk = block_size();
  std::atomic<std::size_t> built{0};
  std::int64_t base = memory::bytes_live();
  EXPECT_THROW(
      fork2join(
          [&] {
            auto strings = delayed::to_array(delayed::map(
                [&](std::size_t i) {
                  if (i % blk == 0)
                    std::this_thread::sleep_for(std::chrono::milliseconds(5));
                  built.fetch_add(1, std::memory_order_relaxed);
                  return std::to_string(i);
                },
                delayed::iota(n)));
          },
          [] {}, std::chrono::milliseconds(5)),
      stall_detected);
  EXPECT_EQ(built.load(), n);
  EXPECT_EQ(memory::bytes_live(), base);
  sched::set_num_workers(before);
}

}  // namespace
