// Cooperative cancellation + first-exception-wins capture for fork-join.
//
// Failure model (see DESIGN.md §"Failure semantics"): every fork-join
// computation runs under one `cancel_state`, installed thread-locally by
// the *root* fork (the outermost fork2join / parallel_for of the region)
// and carried into stolen jobs by the scheduler, so all workers touching
// the region share it. When any branch throws:
//
//   1. the exception is captured (never unwinds past a stealable job or
//      off a worker's stack) and the state flips to `cancelled`;
//   2. sibling/descendant work observes `cancelled` and bails out cheaply
//      — fork2join skips both branches at entry, a pending job skips its
//      payload when executed, and parallel_for skips whole granularity
//      chunks — while every join still completes, so the pool is
//      quiescent when control returns to the root;
//   3. the root rethrows the *first* captured exception, exactly once, on
//      the calling thread. Later exceptions from already-running branches
//      are captured and dropped (they are secondary failures of a
//      computation whose result is already dead).
//
// A region may also carry a wall-clock deadline (the deadline overloads in
// parallel.hpp). It is stored in the region's cancel_state and checked at
// the same polls: the first poll past it captures pbds::stall_detected, and
// the region collapses exactly as if a branch had thrown it.
//
// `cancel_shield` opts a subtree *out* of an enclosing region's
// cancellation: loops that must visit every index even while unwinding —
// placeholder construction in parray::tabulate / delayed::to_array, the
// destructor sweep in parray::release — run shielded, otherwise a skipped
// chunk would leave elements unconstructed (or undestroyed) behind the
// exception.
#pragma once

#include <atomic>
#include <cassert>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace pbds {

// Thrown at the root join of a fork-join region whose deadline passed
// before the region finished. The region collapses through the normal
// cancellation protocol, so the pool is quiescent and reusable when this
// surfaces.
class stall_detected : public std::runtime_error {
 public:
  explicit stall_detected(const std::string& what)
      : std::runtime_error(what) {}
};

}  // namespace pbds

namespace pbds::sched {

class cancel_state {
 public:
  // time_point::max() means no deadline.
  explicit cancel_state(std::chrono::steady_clock::time_point deadline) noexcept
      : deadline_(deadline) {}
  cancel_state(const cancel_state&) = delete;
  cancel_state& operator=(const cancel_state&) = delete;

  // Polled from arbitrary workers at fork/chunk boundaries and when a job
  // starts; relaxed is fine — a stale `false` only delays the bail-out by
  // one chunk. Only a region with a deadline reads the clock.
  [[nodiscard]] bool cancelled() noexcept {
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    return deadline_ != std::chrono::steady_clock::time_point::max() &&
           deadline_passed();
  }

  // Record a thrown exception and request cancellation. The first caller
  // wins the `first_` slot and gets true; all callers flip `cancelled`.
  // Safe to call concurrently from any worker. The claim goes through
  // three states — 0 free, 1 writing, 2 published — because a LOSING
  // capture also stores `cancelled_`, and a reader reaching rethrow_first
  // through the loser's store must not touch `first_` while the winner is
  // still writing it.
  bool capture(std::exception_ptr e) noexcept {
    int expected = 0;
    const bool first = claim_.compare_exchange_strong(
        expected, 1, std::memory_order_acq_rel);
    if (first) {
      first_ = std::move(e);
      claim_.store(2, std::memory_order_release);
    }
    cancelled_.store(true, std::memory_order_release);
    return first;
  }

  // Rethrow the winning exception. Safe from any thread that observed
  // `cancelled()`: the claim handshake (not the join edges alone) makes
  // `first_` visible.
  void rethrow_first() {
    assert(cancelled_.load(std::memory_order_relaxed) &&
           "rethrow_first on a region that never failed");
    int c = claim_.load(std::memory_order_acquire);
    while (c == 1) {  // winner mid-write; publication is a few stores away
      std::this_thread::yield();
      c = claim_.load(std::memory_order_acquire);
    }
    if (c == 2 && first_) std::rethrow_exception(first_);
  }

 private:
  // Out of line, so that the poll of a region without a deadline stays one
  // load and one compare.
  [[gnu::noinline]] bool deadline_passed() noexcept {
    if (std::chrono::steady_clock::now() < deadline_) return false;
    if (capture(std::make_exception_ptr(stall_detected(
            "pbds: fork-join region exceeded its deadline")))) {
      telemetry::count(telemetry::counter::stalls);
      telemetry::trace_instant(telemetry::trace_kind::sched, "deadline");
    }
    return true;
  }

  std::atomic<int> claim_{0};
  std::atomic<bool> cancelled_{false};
  const std::chrono::steady_clock::time_point deadline_;
  std::exception_ptr first_;
};

namespace detail {
// The cancel state of the fork-join region the current thread is working
// in; null outside any region (and inside a cancel_shield). Workers
// executing a stolen job adopt the job's state for the duration
// (job::execute), so the pointer follows the *computation*, not the
// thread.
inline thread_local cancel_state* tl_cancel = nullptr;

// Deadline installed by region_deadline (parallel.hpp's deadline-taking
// overloads) for the next root region entered on this thread;
// time_point::max() means none.
inline thread_local std::chrono::steady_clock::time_point tl_deadline =
    std::chrono::steady_clock::time_point::max();
}  // namespace detail

[[nodiscard]] inline cancel_state* current_cancel() noexcept {
  return detail::tl_cancel;
}

// True iff the current thread works for a region that has failed or passed
// its deadline — the signal to bail at the next fork or chunk boundary.
[[nodiscard]] inline bool cancellation_requested() noexcept {
  return detail::tl_cancel != nullptr && detail::tl_cancel->cancelled();
}

// Installed by every fork site. The outermost one on a thread (no region
// active) becomes the *root*: it owns the region's cancel_state and is
// where the first exception is rethrown. Nested scopes are no-ops that
// just hand back the enclosing state.
class cancel_scope {
 public:
  // A root takes the thread's pending deadline into its state; a nested
  // scope's copy is never polled.
  cancel_scope()
      : local_(detail::tl_deadline), root_(detail::tl_cancel == nullptr) {
    if (root_) detail::tl_cancel = &local_;
  }

  ~cancel_scope() {
    if (root_) detail::tl_cancel = nullptr;
  }

  cancel_scope(const cancel_scope&) = delete;
  cancel_scope& operator=(const cancel_scope&) = delete;

  [[nodiscard]] bool is_root() const noexcept { return root_; }
  [[nodiscard]] cancel_state* state() noexcept { return detail::tl_cancel; }

 private:
  cancel_state local_;  // used only when this scope is the root
  bool root_;
};

// RAII deadline for the next root region entered on this thread (installed
// by the deadline-taking fork2join / parallel_for overloads). Saving and
// restoring makes nesting well-defined: the innermost deadline wins for
// regions rooted inside it.
class region_deadline {
 public:
  explicit region_deadline(std::chrono::steady_clock::time_point deadline)
      : saved_(detail::tl_deadline) {
    detail::tl_deadline = deadline;
  }
  ~region_deadline() { detail::tl_deadline = saved_; }
  region_deadline(const region_deadline&) = delete;
  region_deadline& operator=(const region_deadline&) = delete;

 private:
  std::chrono::steady_clock::time_point saved_;
};

// Suppress cancellation for a lexical region: forks below run as fresh
// root regions of their own. Used by must-complete loops (element
// destruction, placeholder construction) whose bodies are noexcept or
// self-catching — skipping their chunks would corrupt object lifetimes.
//
// Must-complete means must-complete: the shield also suspends the
// thread's pending deadline, so the fresh roots carry none. Otherwise a
// shielded loop on the thread that entered a deadline overload roots its
// forks with that deadline, a poll past it cancels them, and the root join
// throws with whole blocks skipped — exactly the unconstructed-slot
// corruption the shield exists to prevent. Shielded loops are bounded
// (one pass over storage), so the exemption delays a deadline by at most
// that pass.
class cancel_shield {
 public:
  cancel_shield() noexcept
      : saved_(detail::tl_cancel), saved_deadline_(detail::tl_deadline) {
    detail::tl_cancel = nullptr;
    detail::tl_deadline = std::chrono::steady_clock::time_point::max();
  }
  ~cancel_shield() {
    detail::tl_deadline = saved_deadline_;
    detail::tl_cancel = saved_;
  }
  cancel_shield(const cancel_shield&) = delete;
  cancel_shield& operator=(const cancel_shield&) = delete;

 private:
  cancel_state* saved_;
  std::chrono::steady_clock::time_point saved_deadline_;
};

}  // namespace pbds::sched
