// Job abstraction for the work-stealing scheduler.
//
// A job is a type-erased unit of work with a completion flag. Jobs are
// always stack-allocated by the forking thread (fork2join keeps the right
// branch alive on its own stack until the join), so no heap allocation or
// reference counting is needed on the fork path.
//
// Exception safety: `execute` never lets an exception escape. A throw from
// the payload is captured into the job's `exception_ptr` — and into the
// region's shared cancel_state, requesting cancellation — and the job is
// still marked finished, so a join never hangs and a thief's worker_loop
// never unwinds into std::terminate. The forker inspects `exception()`
// after the join (the done_ release/acquire pair publishes the pointer).
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <utility>

#include "sched/cancellation.hpp"

namespace pbds::sched {

// Type-erased job. `execute` runs the payload; `done` is set (release) by
// whichever worker ran it, and polled (acquire) by the joiner.
class job {
 public:
  explicit job(void (*run)(job*), cancel_state* cancel = nullptr) noexcept
      : run_(run), cancel_(cancel) {}

  job(const job&) = delete;
  job& operator=(const job&) = delete;

  // The done_ store is the job's last breath: the joiner may observe it,
  // return, and pop the frame the job lives in, so the executing worker
  // touching *this afterwards is a use-after-free on another thread's
  // stack.
  void execute() noexcept {
    // Adopt the forker's region for the duration: nested forks inside the
    // payload (possibly on a thief's thread) must share its cancel_state.
    cancel_state* saved = detail::tl_cancel;
    detail::tl_cancel = cancel_;
    if (cancel_ == nullptr || !cancel_->cancelled()) {
      try {
        run_(this);
      } catch (...) {
        eptr_ = std::current_exception();
        if (cancel_ != nullptr) cancel_->capture(eptr_);
      }
    }
    // else: a sibling already failed or the region's deadline passed —
    // skip the payload (the cheap bail at a fork boundary) but still
    // finish, so the joiner wakes up.
    detail::tl_cancel = saved;
    done_.store(true, std::memory_order_release);
  }

  [[nodiscard]] bool finished() const noexcept {
    return done_.load(std::memory_order_acquire);
  }

  // Valid only on the joining thread (which owns the job's frame) once
  // finished() has returned true.
  [[nodiscard]] std::exception_ptr exception() const noexcept {
    return eptr_;
  }

 private:
  void (*run_)(job*);
  cancel_state* cancel_;
  std::exception_ptr eptr_;
  std::atomic<bool> done_{false};
};

// Concrete job holding a callable of type F by reference. The callable
// outlives the job (both live in the forking frame), so a reference is safe
// and avoids a copy of potentially capture-heavy lambdas.
template <typename F>
class callable_job final : public job {
 public:
  explicit callable_job(F& f, cancel_state* cancel = nullptr) noexcept
      : job(&callable_job::invoke, cancel), f_(f) {}

 private:
  static void invoke(job* self) {
    static_cast<callable_job*>(self)->f_();
  }
  F& f_;
};

}  // namespace pbds::sched
