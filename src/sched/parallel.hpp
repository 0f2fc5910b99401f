// Fork-join parallel primitives built on the work-stealing scheduler.
//
//   fork2join(l, r)           — run two thunks in parallel, join both.
//   parallel_for(lo, hi, f)   — divide-and-conquer loop with granularity
//                               control.
//   apply(n, f)               — the paper's sole parallel primitive
//                               (Fig. 7): a tabulate with no result, i.e.
//                               f(i) for all 0 <= i < n in parallel. All of
//                               the sequence libraries bottom out here.
//
// All three dispatch on the thread's execution mode (exec_policy.hpp):
// `parallel` uses the work-stealing pool, `sequential` runs depth-first on
// the calling thread, and `deterministic` replays a seeded single-thread
// simulation of the scheduler (deterministic.hpp). The mode only changes
// *how* the fork tree is executed — the tree itself (granularity, range
// splits) is identical across modes for a given worker count, which is
// what makes the differential test oracles (tests/differential.hpp)
// meaningful.
//
// Exception safety (DESIGN.md §"Failure semantics"): a throw from any
// branch, on any worker, is captured into the region's cancel_state
// (cancellation.hpp); sibling work bails out at fork and granularity-chunk
// boundaries; every join still completes; and the *first* captured
// exception is rethrown exactly once at the root fork on the calling
// thread, with the pool quiescent and reusable. An exception never unwinds
// a frame whose pushed job might still be stolen.
#pragma once

#include <cassert>
#include <chrono>
#include <cstddef>
#include <exception>
#include <utility>

#include "sched/cancellation.hpp"
#include "sched/deterministic.hpp"
#include "sched/exec_policy.hpp"
#include "sched/scheduler.hpp"
#include "telemetry/metrics.hpp"

namespace pbds {

namespace sched {
// Worker count that granularity decisions should assume: the simulated
// count in deterministic mode, the real pool size otherwise. Keeping these
// in sync (both default to PBDS_NUM_THREADS) makes a pipeline's range
// partitioning identical across execution modes.
[[nodiscard]] inline unsigned effective_num_workers() {
  if (current_exec_mode() == exec_mode::deterministic)
    return current_det_scheduler().num_workers();
  return num_workers();
}
}  // namespace sched

namespace detail {

// The execution engine of fork2join, with no telemetry of its own. Both
// entry points layer counting on top: the public fork2join records one
// fork/join pair per call, while parallel_for batch-counts its whole
// (deterministic, mode-invariant) split tree with two bulk counts at the
// loop root — per-node counting would put an atomic RMW inside a path
// that is otherwise two function calls on a 1-worker pool, and the
// `--metrics-overhead` gate caps the registry tax at 5%.
template <typename L, typename R>
void fork2join_impl(L&& left, R&& right) {
  switch (sched::current_exec_mode()) {
    case sched::exec_mode::sequential:
      left();
      right();
      return;
    case sched::exec_mode::deterministic:
      sched::current_det_scheduler().fork(std::forward<L>(left),
                                          std::forward<R>(right));
      return;
    case sched::exec_mode::parallel:
      break;
  }
  auto& s = sched::get_scheduler();
  if (s.num_workers() == 1 || sched::scheduler::worker_id() < 0) {
    // Sequential fast path; also the safe path for threads outside the
    // pool. No job is pushed, so a throw may unwind freely to the caller.
    left();
    right();
    return;
  }
  sched::cancel_scope scope;
  sched::cancel_state* cs = scope.state();
  if (!scope.is_root() && cs->cancelled()) return;  // bail: sibling failed
  sched::callable_job<R> right_job(right, cs);
  const bool pushed = s.push(&right_job);
  if (!pushed) {
    // Deque full (fork depth beyond kCapacity): run the right branch
    // inline on this worker instead of aborting. Stack growth stays
    // bounded by the recursion that got us here; no work is lost, the
    // branch merely isn't stealable. execute captures its own throw.
    right_job.execute();
  }
  std::exception_ptr left_err;
  try {
    left();
  } catch (...) {
    // Must not unwind yet: right_job lives in this frame and may be held
    // by a thief. Capture, cancel the region, and fall through to the
    // join; the rethrow happens after right_job is resolved.
    left_err = std::current_exception();
    cs->capture(left_err);
  }
  if (pushed) {
    sched::job* popped = s.try_pop();
    if (popped != nullptr) {
      // Fork-join discipline guarantees the bottom of our deque is exactly
      // the job we pushed (everything pushed by `left` was joined inside
      // it). Had right_job been executed inline instead of pushed, this
      // pop would hand us an *enclosing* frame's job — hence the guard.
      assert(popped == &right_job);
      // execute captures its own throw (skips the payload if cancelled).
      popped->execute();
    } else {
      s.wait_until(&right_job);
    }
  }
  if (scope.is_root()) {
    // First-exception-wins: exactly one exception leaves the region, on
    // the thread that forked its root.
    if (cs->cancelled()) cs->rethrow_first();
  } else {
    // Interior join: keep unwinding toward the root with a local
    // exception; the root substitutes the region's first one.
    if (left_err) std::rethrow_exception(left_err);
    if (auto e = right_job.exception()) std::rethrow_exception(e);
  }
}

// Balances a bulk fork count on every exit path: the join protocol
// completes all joins before the root rethrow, so joins must reach the
// registry even when the region unwinds.
struct join_count {
  std::uint64_t n;
  ~join_count() { telemetry::count(telemetry::counter::joins, n); }
};

}  // namespace detail

// Run `left` and `right` in parallel; return when both are complete.
// The right branch is made stealable; the forking worker runs the left
// branch, then either runs the right branch inline (if no one stole it) or
// steals other work while waiting for the thief to finish it.
//
// Telemetry: one logical fork/join pair per call, identically in
// deterministic, 1-worker, and parallel execution — the fork tree is
// mode-invariant for a given worker count, so a deterministic replay at
// `p` workers reports exactly the counts the real pool at `p` reports
// (the parity oracle in tests/test_telemetry.cpp). Sequential mode forks
// nothing and counts nothing.
template <typename L, typename R>
void fork2join(L&& left, R&& right) {
  if (sched::current_exec_mode() == sched::exec_mode::sequential) {
    left();
    right();
    return;
  }
  telemetry::count(telemetry::counter::forks);
  detail::join_count jc{1};
  detail::fork2join_impl(std::forward<L>(left), std::forward<R>(right));
}

namespace detail {

inline constexpr std::size_t kDefaultGranularity = 512;

// Leaf count of parallel_for's halving split tree over a range of size n:
// ranges larger than g split at the midpoint (floor half left, ceil half
// right) until every leaf is <= g. The tree depends only on (n, g) — not
// on stealing, worker count, or execution mode — so its size can be
// recorded as two bulk counts at the loop root instead of one atomic RMW
// pair per interior node. Sizes at any level of a halving tree take at
// most two distinct values (floor/ceil of n/2^k), so this runs in
// O(log n) with no recursion.
[[nodiscard]] inline std::uint64_t split_tree_leaves(std::size_t n,
                                                     std::size_t g) {
  if (n <= g) return 1;
  std::size_t sz[2] = {n, 0};
  std::uint64_t cnt[2] = {1, 0};
  std::uint64_t leaves = 0;
  while (cnt[0] + cnt[1] > 0) {
    std::size_t nsz[2] = {0, 0};
    std::uint64_t ncnt[2] = {0, 0};
    auto emit = [&](std::size_t s, std::uint64_t c) {
      for (int i = 0; i < 2; ++i) {
        if (ncnt[i] == 0) {
          nsz[i] = s;
          ncnt[i] = c;
          return;
        }
        if (nsz[i] == s) {
          ncnt[i] += c;
          return;
        }
      }
      assert(false && "halving tree has > 2 distinct sizes per level");
    };
    for (int i = 0; i < 2; ++i) {
      if (cnt[i] == 0) continue;
      if (sz[i] <= g) {
        leaves += cnt[i];
        continue;
      }
      emit(sz[i] / 2, cnt[i]);
      emit(sz[i] - sz[i] / 2, cnt[i]);
    }
    sz[0] = nsz[0];
    cnt[0] = ncnt[0];
    sz[1] = nsz[1];
    cnt[1] = ncnt[1];
  }
  return leaves;
}

template <typename F>
void parallel_for_rec(std::size_t lo, std::size_t hi, const F& f,
                      std::size_t granularity) {
  if (hi - lo > granularity) {
    std::size_t mid = lo + (hi - lo) / 2;
    // Uncounted fork: the loop root already recorded this whole tree
    // (split_tree_leaves) with two bulk counts.
    fork2join_impl([&] { parallel_for_rec(lo, mid, f, granularity); },
                   [&] { parallel_for_rec(mid, hi, f, granularity); });
    return;
  }
  // Chunk-boundary bail: once the region is cancelled, remaining leaves
  // are dead work — their output is discarded by the rethrow at the root.
  if (sched::cancellation_requested()) return;
  for (std::size_t i = lo; i < hi; ++i) f(i);
}

}  // namespace detail

// Parallel loop over [lo, hi). `granularity` is the largest range executed
// sequentially; 0 selects a default that balances scheduling overhead
// against load balance. `f` must be safe to invoke concurrently for
// distinct indices. Under cancellation whole chunks may be skipped; loops
// that must visit every index regardless (element construction or
// destruction) run under a sched::cancel_shield.
template <typename F>
void parallel_for(std::size_t lo, std::size_t hi, const F& f,
                  std::size_t granularity = 0) {
  if (lo >= hi) return;
  if (sched::current_exec_mode() == sched::exec_mode::sequential) {
    for (std::size_t i = lo; i < hi; ++i) f(i);
    return;
  }
  std::size_t n = hi - lo;
  if (granularity == 0) {
    // Aim for ~8 chunks per worker, but never chunks so small that
    // scheduling dominates memory-bound per-element work.
    std::size_t target = n / (8 * static_cast<std::size_t>(
                                      sched::effective_num_workers()) +
                              1);
    granularity = target < 1 ? 1 : target;
    if (granularity > detail::kDefaultGranularity)
      granularity = detail::kDefaultGranularity;
  }
  if (n <= granularity) {
    for (std::size_t i = lo; i < hi; ++i) f(i);
    return;
  }
  // Batch the tree's fork/join telemetry at the root: the split tree is a
  // pure function of (n, granularity), so the totals equal what per-node
  // counting would record, in every execution mode, at a cost that no
  // longer scales with the number of forks. A cancelled loop still ran
  // (and still joined) every interior node, so the totals stay exact
  // under cancellation too.
  const std::uint64_t interior =
      telemetry::metrics_enabled()
          ? detail::split_tree_leaves(n, granularity) - 1
          : 0;
  telemetry::count(telemetry::counter::forks, interior);
  detail::join_count jc{interior};
  detail::parallel_for_rec(lo, hi, f, granularity);
}

// The paper's `apply` (Fig. 7): run f(i) for all 0 <= i < n in parallel,
// one invocation per index, granularity 1 (each index is assumed to be a
// block-sized unit of work, as in the blocked implementations of
// reduce/scan/filter/flatten).
template <typename F>
void apply(std::size_t n, const F& f) {
  parallel_for(0, n, f, 1);
}

// --- deadline overloads -----------------------------------------------------
//
// Run a fork-join region with a wall-clock deadline. The deadline is
// installed thread-locally for the *next root region* entered here; the
// root's cancel_scope registers itself with the watchdog's region
// registry, and a (possibly deadline-only) watchdog thread cancels the
// region once the deadline passes — the root join then throws
// pbds::stall_detected through the ordinary cancellation protocol.
//
// Caveats (by design, documented in DESIGN.md §"Resource governance"):
// enforcement is cooperative and asynchronous — work stops at the next
// fork or granularity-chunk boundary after the watchdog notices, so a
// single long-running leaf overruns its deadline undetected until it
// yields control. Paths that never enter the cancellation machinery
// (sequential mode; a 1-worker pool's inline fast path; calls from
// threads outside the pool) run to completion and ignore the deadline.
// In deterministic mode the deadline is ignored too — wall-clock cutoffs
// are inherently non-replayable; use det_scheduler::arm_stall_after for a
// seed-stable stand-in.

template <typename L, typename R>
void fork2join(L&& left, R&& right, std::chrono::milliseconds deadline) {
  if (sched::current_exec_mode() == sched::exec_mode::parallel)
    sched::ensure_watchdog_for_deadlines();
  sched::region_deadline guard(std::chrono::steady_clock::now() + deadline);
  fork2join(std::forward<L>(left), std::forward<R>(right));
}

template <typename F>
void parallel_for(std::size_t lo, std::size_t hi, const F& f,
                  std::size_t granularity,
                  std::chrono::milliseconds deadline) {
  if (sched::current_exec_mode() == sched::exec_mode::parallel)
    sched::ensure_watchdog_for_deadlines();
  sched::region_deadline guard(std::chrono::steady_clock::now() + deadline);
  parallel_for(lo, hi, f, granularity);
}

}  // namespace pbds
