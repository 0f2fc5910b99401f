// Seeded deterministic fork-join simulator.
//
// Runs an entire fork-join computation on ONE thread while reproducing the
// scheduling freedom of the work-stealing pool: at every fork the simulator
// makes pseudo-random decisions — which branch becomes the stealable job
// (branch ordering) and whether pending stealable jobs get "stolen" and run
// before the forking branch completes (steal-vs-inline). All decisions come
// from a splitmix64 stream seeded with a single integer, so
//
//   same seed  =>  same decision sequence  =>  same interleaving trace,
//
// and any schedule-dependent failure is replayable by re-running with the
// failing seed (see docs/TESTING.md). The decision trace is recorded and
// exposed for replay assertions.
//
// Steal simulation: like the real scheduler, a fork pushes one branch as a
// pending job and runs the other; a "steal" takes the OLDEST pending job
// (the top of the Chase-Lev deque) and runs it to completion immediately,
// which is exactly the set of execution orders a thief can produce — an
// outer right branch running before an inner left branch has finished.
// Unstolen jobs are popped and run inline at the join, as in fork2join.
//
// The simulated worker count is independent of the execution (everything
// runs on the calling thread) but feeds parallel_for's granularity choice,
// so a pipeline's range partitioning — and therefore its fork tree — is
// identical to a real run with the same PBDS_NUM_THREADS (deterministic.hpp
// defaults to the same environment handling as scheduler.hpp).
//
// Failure mirror: fork() reproduces the real pool's exception protocol —
// capture into the region's cancel_state, cheap bail-out of cancelled
// forks and payload-skipped pending jobs, first-exception-wins rethrow at
// the root — with every decision driven by the seed, so cancellation
// interleavings (which branch fails, which siblings got skipped) replay
// exactly via --seed / PBDS_SEED (docs/TESTING.md).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <string>
#include <vector>

#include "sched/cancellation.hpp"
#include "sched/exec_policy.hpp"
#include "sched/job.hpp"
#include "sched/scheduler.hpp"

namespace pbds::sched {

class det_scheduler {
 public:
  // Decision events, recorded in execution order.
  enum class event : std::uint8_t {
    fork_keep = 0,    // fork: left runs first, right is the pending job
    fork_swap = 1,    // fork: right runs first, left is the pending job
    steal = 2,        // oldest pending job executed before its forker joined
    inline_join = 3,  // pending job was not stolen; run inline at the join
  };

  // num_workers = 0 selects the same default as the real scheduler
  // (PBDS_NUM_THREADS, else hardware_concurrency), keeping granularity —
  // and hence block partitioning of parallel_for — identical across the
  // deterministic and real schedulers. steal_prob is the per-opportunity
  // chance of stealing a pending job, in [0, 1].
  explicit det_scheduler(std::uint64_t seed, unsigned num_workers = 0,
                         double steal_prob = 0.25)
      : seed_(seed),
        state_(seed ^ 0x9e3779b97f4a7c15ull),
        num_workers_(num_workers == 0 ? detail::default_num_workers()
                                      : num_workers),
        steal_threshold_(static_cast<std::uint64_t>(
            steal_prob >= 1.0
                ? ~0ull
                : steal_prob * 18446744073709551616.0 /* 2^64 */)) {}

  det_scheduler(const det_scheduler&) = delete;
  det_scheduler& operator=(const det_scheduler&) = delete;

  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  [[nodiscard]] unsigned num_workers() const noexcept { return num_workers_; }

  // Simulate fork2join(left, right), mirroring the real pool's failure
  // protocol: same cancel_scope root/interior structure, same cheap bail
  // at fork entry, same first-exception-wins rethrow at the root. Because
  // all decisions (including which branch fails first and which pending
  // jobs get payload-skipped) come from the seed, a cancellation
  // interleaving replays exactly from one integer.
  template <typename L, typename R>
  void fork(L&& left, R&& right) {
    cancel_scope scope;
    cancel_state* cs = scope.state();
    if (!scope.is_root() && cs->cancelled()) return;  // bail: sibling failed
    maybe_inject_stall(cs);
    try {
      if (next_u64() & 1) {
        record(event::fork_swap);
        fork_impl(right, left, cs);
      } else {
        record(event::fork_keep);
        fork_impl(left, right, cs);
      }
    } catch (...) {
      // Interior exceptions keep unwinding toward the root; the root
      // swallows the local one (already captured in cs) and substitutes
      // the region's first below.
      if (!scope.is_root()) throw;
    }
    if (scope.is_root() && cs->cancelled()) cs->rethrow_first();
  }

  // --- interleaving trace ----------------------------------------------------

  [[nodiscard]] const std::vector<event>& trace() const noexcept {
    return trace_;
  }

  // FNV-1a over the event bytes: one integer identifying the interleaving.
  [[nodiscard]] std::uint64_t trace_hash() const noexcept {
    std::uint64_t h = 14695981039346656037ull;
    for (event e : trace_) {
      h ^= static_cast<std::uint64_t>(e);
      h *= 1099511628211ull;
    }
    return h;
  }

  [[nodiscard]] std::size_t num_forks() const noexcept { return forks_; }
  [[nodiscard]] std::size_t num_steals() const noexcept { return steals_; }

  // --- stall mirror ----------------------------------------------------------
  //
  // Wall-clock deadlines and watchdog stagnation cancels are inherently
  // non-replayable; the deterministic stand-in is fork-count-based: after
  // the n-th fork of the region, the simulator captures
  // pbds::stall_detected into the region's cancel_state — exactly what the
  // watchdog does to a stuck real region — and the computation collapses
  // through the ordinary cancellation protocol. Being keyed to the fork
  // counter, the injection point is a pure function of (seed, pipeline),
  // so which siblings get skipped replays from one integer. Disarm with a
  // negative n.
  void arm_stall_after(long n_forks) noexcept { stall_after_ = n_forks; }

 private:
  void maybe_inject_stall(cancel_state* cs) {
    if (stall_after_ < 0 || cs == nullptr) return;
    if (static_cast<long>(forks_) >= stall_after_ && !cs->cancelled()) {
      cs->capture(std::make_exception_ptr(stall_detected(
          "pbds deterministic: injected stall (arm_stall_after)")));
      telemetry::count(telemetry::counter::stalls);
      telemetry::trace_instant(telemetry::trace_kind::sched, "stall");
    }
  }

  template <typename A, typename B>
  void fork_impl(A& first, B& second, cancel_state* cs) {
    ++forks_;
    callable_job<B> pending(second, cs);
    pending_.push_back(&pending);
    std::exception_ptr first_err;
    try {
      maybe_steal();
      first();
    } catch (...) {
      // Same discipline as the real fork2join: never unwind while our
      // pending job is unresolved. Capture, cancel the region, and fall
      // through to the join below (execute() then skips the payload).
      first_err = std::current_exception();
      cs->capture(first_err);
    }
    if (!pending.finished()) {
      // Frames below us resolved their own pending jobs before returning
      // or rethrowing, so if ours was not stolen it is at the back.
      assert(!pending_.empty() && pending_.back() == &pending);
      pending_.pop_back();
      record(event::inline_join);
      pending.execute();  // captures its own throw; skipped if cancelled
    }
    if (first_err) std::rethrow_exception(first_err);
    if (auto e = pending.exception()) std::rethrow_exception(e);
  }

  // With seeded probability, run the oldest pending job(s) to completion
  // right now — the deterministic stand-in for a concurrent thief.
  void maybe_steal() {
    while (!pending_.empty() && next_u64() < steal_threshold_) {
      record(event::steal);
      ++steals_;
      job* victim = pending_.front();
      pending_.pop_front();
      victim->execute();
    }
  }

  std::uint64_t next_u64() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  // Every simulated decision lands in the replay trace AND, when tracing
  // is armed (PBDS_TRACE_FILE / scoped_trace), in the timeline rings — so
  // a failure replayed from (seed, nth) produces a viewable Chrome-trace
  // of the exact interleaving, not just a hash.
  void record(event e) {
    trace_.push_back(e);
    if (e == event::steal) telemetry::count(telemetry::counter::steals);
    if (telemetry::trace_enabled()) {
      static constexpr const char* kNames[] = {
          "fork_keep", "fork_swap", "steal", "inline_join"};
      telemetry::trace_instant(telemetry::trace_kind::sched,
                               kNames[static_cast<std::size_t>(e)],
                               static_cast<std::int64_t>(trace_.size()));
    }
  }

  std::uint64_t seed_;
  std::uint64_t state_;
  unsigned num_workers_;
  std::uint64_t steal_threshold_;
  std::deque<job*> pending_;
  std::vector<event> trace_;
  std::size_t forks_ = 0;
  std::size_t steals_ = 0;
  long stall_after_ = -1;  // injected-stall fork threshold; < 0 disarmed
};

namespace detail {
inline thread_local det_scheduler* tl_det_scheduler = nullptr;
}  // namespace detail

// The deterministic scheduler driving the calling thread; only valid while
// current_exec_mode() == exec_mode::deterministic.
[[nodiscard]] inline det_scheduler& current_det_scheduler() noexcept {
  assert(detail::tl_det_scheduler != nullptr);
  return *detail::tl_det_scheduler;
}

// RAII: run the enclosed region under a fresh deterministic scheduler.
// Nestable (the previous scheduler and mode are restored on exit); the
// scheduler object is accessible for trace/replay assertions.
class scoped_deterministic {
 public:
  explicit scoped_deterministic(std::uint64_t seed, unsigned num_workers = 0,
                                double steal_prob = 0.25)
      : det_(seed, num_workers, steal_prob),
        saved_mode_(detail::tl_exec_mode),
        saved_det_(detail::tl_det_scheduler) {
    detail::tl_exec_mode = exec_mode::deterministic;
    detail::tl_det_scheduler = &det_;
  }

  ~scoped_deterministic() {
    detail::tl_exec_mode = saved_mode_;
    detail::tl_det_scheduler = saved_det_;
  }

  scoped_deterministic(const scoped_deterministic&) = delete;
  scoped_deterministic& operator=(const scoped_deterministic&) = delete;

  [[nodiscard]] det_scheduler& scheduler() noexcept { return det_; }

 private:
  det_scheduler det_;
  exec_mode saved_mode_;
  det_scheduler* saved_det_;
};

}  // namespace pbds::sched
