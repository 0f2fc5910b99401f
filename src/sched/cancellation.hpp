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
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

namespace pbds {

// Thrown at the root join of a fork-join region that the watchdog
// (scheduler.hpp) cancelled — either its deadline expired or the pool made
// no global progress for the configured number of watchdog intervals. The
// region collapses through the normal cancellation protocol, so the pool
// is quiescent and reusable when this surfaces.
class stall_detected : public std::runtime_error {
 public:
  explicit stall_detected(const std::string& what)
      : std::runtime_error(what) {}
};

}  // namespace pbds

namespace pbds::sched {

class cancel_state {
 public:
  cancel_state() noexcept = default;
  cancel_state(const cancel_state&) = delete;
  cancel_state& operator=(const cancel_state&) = delete;

  // Polled from arbitrary workers at fork/chunk boundaries; relaxed is
  // fine — a stale `false` only delays the bail-out by one chunk.
  [[nodiscard]] bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_relaxed);
  }

  // Record a thrown exception and request cancellation. The first caller
  // wins the `first_` slot; all callers flip `cancelled`. Safe to call
  // concurrently from any worker (or the watchdog thread). The claim
  // goes through three states — 0 free, 1 writing, 2 published — because
  // a LOSING capture also stores `cancelled_`, and a reader reaching
  // rethrow_first through the loser's store must not touch `first_`
  // while the winner is still writing it.
  void capture(std::exception_ptr e) noexcept {
    int expected = 0;
    if (claim_.compare_exchange_strong(expected, 1,
                                       std::memory_order_acq_rel)) {
      first_ = std::move(e);
      claim_.store(2, std::memory_order_release);
    }
    cancelled_.store(true, std::memory_order_release);
  }

  // Rethrow the winning exception. Safe from any thread that observed
  // `cancelled()`: the claim handshake (not the join edges alone) makes
  // `first_` visible, so this also covers asynchronous captures — a
  // watchdog deadline or stagnation cancel racing the root's rethrow.
  void rethrow_first() {
    assert(cancelled() && "rethrow_first on a region that never failed");
    int c = claim_.load(std::memory_order_acquire);
    while (c == 1) {  // winner mid-write; publication is a few stores away
      std::this_thread::yield();
      c = claim_.load(std::memory_order_acquire);
    }
    if (c == 2 && first_) std::rethrow_exception(first_);
  }

 private:
  std::atomic<int> claim_{0};
  std::atomic<bool> cancelled_{false};
  std::exception_ptr first_;
};

namespace detail {
// The cancel state of the fork-join region the current thread is working
// in; null outside any region (and inside a cancel_shield). Workers
// executing a stolen job adopt the job's state for the duration
// (job::execute), so the pointer follows the *computation*, not the
// thread.
inline thread_local cancel_state* tl_cancel = nullptr;

// --- active-region registry (watchdog support) -----------------------------
//
// When region tracking is on (watchdog running, or the current root has a
// deadline), every *root* cancel_scope registers its cancel_state here so
// the watchdog thread can cancel a stuck or expired region from outside.
// Off by default: the only cost on the fork hot path is one relaxed load
// plus a thread-local deadline check, both in the root-only branch.
inline std::atomic<bool> g_region_tracking{false};

// Deadline installed by region_deadline (parallel.hpp's deadline-taking
// overloads); time_point::max() means none.
inline thread_local std::chrono::steady_clock::time_point tl_deadline =
    std::chrono::steady_clock::time_point::max();

// Depth of nested cancel_shields on this thread. Roots entered under a
// shield are must-complete: they never register with the watchdog, so
// neither a deadline nor a stagnation sweep can collapse them.
inline thread_local int tl_shield_depth = 0;

struct region_entry {
  cancel_state* state;
  std::chrono::steady_clock::time_point deadline;  // max() = none
};

inline std::mutex& region_registry_mutex() {
  static std::mutex m;
  return m;
}

inline std::vector<region_entry>& region_registry() {
  static std::vector<region_entry> v;
  return v;
}

inline void register_region(cancel_state* cs,
                            std::chrono::steady_clock::time_point deadline) {
  std::lock_guard<std::mutex> lock(region_registry_mutex());
  region_registry().push_back({cs, deadline});
}

inline void unregister_region(cancel_state* cs) {
  std::lock_guard<std::mutex> lock(region_registry_mutex());
  auto& v = region_registry();
  for (auto it = v.begin(); it != v.end(); ++it) {
    if (it->state == cs) {
      v.erase(it);
      return;
    }
  }
}
}  // namespace detail

// Number of fork-join regions currently registered for watchdog
// observation (those with a deadline, or all roots while tracking is on).
[[nodiscard]] inline std::size_t active_tracked_regions() {
  std::lock_guard<std::mutex> lock(detail::region_registry_mutex());
  return detail::region_registry().size();
}

[[nodiscard]] inline cancel_state* current_cancel() noexcept {
  return detail::tl_cancel;
}

// True iff the current thread works for a region whose failure has been
// recorded — the signal to bail at the next fork or chunk boundary.
[[nodiscard]] inline bool cancellation_requested() noexcept {
  return detail::tl_cancel != nullptr && detail::tl_cancel->cancelled();
}

// Installed by every fork site. The outermost one on a thread (no region
// active) becomes the *root*: it owns the region's cancel_state and is
// where the first exception is rethrown. Nested scopes are no-ops that
// just hand back the enclosing state.
class cancel_scope {
 public:
  cancel_scope() : root_(detail::tl_cancel == nullptr) {
    if (root_) {
      detail::tl_cancel = &local_;
      // Publish the region to the watchdog when tracking is on or this
      // root carries a deadline. Root scopes only — one registration per
      // top-level region, not per nested fork — and never under a
      // cancel_shield, whose loops must run to completion.
      auto deadline = detail::tl_deadline;
      if (detail::tl_shield_depth == 0 &&
          (detail::g_region_tracking.load(std::memory_order_relaxed) ||
           deadline != std::chrono::steady_clock::time_point::max())) {
        detail::register_region(&local_, deadline);
        registered_ = true;
      }
    }
  }

  ~cancel_scope() {
    if (registered_) detail::unregister_region(&local_);
    if (root_) detail::tl_cancel = nullptr;
  }

  cancel_scope(const cancel_scope&) = delete;
  cancel_scope& operator=(const cancel_scope&) = delete;

  [[nodiscard]] bool is_root() const noexcept { return root_; }
  [[nodiscard]] cancel_state* state() noexcept { return detail::tl_cancel; }

 private:
  cancel_state local_;  // used only when this scope is the root
  bool root_;
  bool registered_ = false;
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
// enclosing job's region deadline and keeps the fresh roots out of the
// watchdog's registry (see cancel_scope). Otherwise a shielded guarded
// loop inherits the job's deadline through tl_deadline, the watchdog
// cancels its root mid-loop, and the root join throws with whole blocks
// skipped — exactly the unconstructed-slot corruption the shield exists
// to prevent. Shielded loops are bounded (one pass over storage), so
// withholding them from the watchdog cannot hide a livelock.
class cancel_shield {
 public:
  cancel_shield() noexcept
      : saved_(detail::tl_cancel), saved_deadline_(detail::tl_deadline) {
    detail::tl_cancel = nullptr;
    detail::tl_deadline = std::chrono::steady_clock::time_point::max();
    ++detail::tl_shield_depth;
  }
  ~cancel_shield() {
    --detail::tl_shield_depth;
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
