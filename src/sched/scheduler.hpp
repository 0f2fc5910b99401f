// Work-stealing fork-join scheduler.
//
// A fixed pool of workers, each with a Chase-Lev deque. The thread that
// first touches the scheduler (normally the program's main thread) is
// enrolled as worker 0 and participates in the computation; `num_workers-1`
// additional threads are spawned. Forked jobs are pushed onto the forking
// worker's deque; idle workers steal from the top of random victims.
//
// This is the substrate for the paper's single parallel primitive `apply`
// (Fig. 7), exposed here as fork2join / parallel_for (see parallel.hpp).
//
// A join never sleeps: while its job is unfinished the joiner steals, and
// when there is nothing to steal it yields and re-checks, so the critical
// path of every `apply` resumes as soon as a stolen branch finishes. Only
// idle workers back off exponentially (yield, then short sleeps), so an
// over-provisioned pool does not burn a core per idle worker.
//
// Failure behavior (DESIGN.md §"Failure semantics"): jobs capture their own
// exceptions (job.hpp), so nothing ever unwinds through worker_loop, and a
// thread-spawn failure in the constructor shrinks the pool to the workers
// that actually started instead of crashing.
#pragma once

#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

#include "core/env.hpp"
#include "sched/chase_lev_deque.hpp"
#include "sched/job.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace pbds::sched {

// Per-worker flag, published by the worker loop for quiesce(): set while
// the worker is inside a job payload. Cache-line aligned so it never
// false-shares with a neighbour's.
struct alignas(64) worker_stat {
  std::atomic<bool> busy{false};
};

namespace detail {
// Per-thread worker id; -1 for threads not enrolled in the pool.
inline thread_local int tl_worker_id = -1;

// Cheap per-thread xorshift for victim selection.
inline std::uint64_t& tl_rng_state() {
  static thread_local std::uint64_t state =
      0x9e3779b97f4a7c15ull ^
      (static_cast<std::uint64_t>(tl_worker_id + 2) * 0xbf58476d1ce4e5b9ull);
  return state;
}

inline std::uint64_t next_random() {
  std::uint64_t& x = tl_rng_state();
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

// Test hook mirroring the allocation fault injector (memory/tracking.hpp):
// when armed with k, the k-th spawn attempt from now throws std::system_error
// exactly as an exhausted OS would, exercising the constructor's
// shrink-to-fit degradation path. Disarmed when negative.
inline std::atomic<int> g_spawn_fault_countdown{-1};

inline void arm_spawn_fault(int nth) noexcept {
  g_spawn_fault_countdown.store(nth, std::memory_order_relaxed);
}

inline void disarm_spawn_fault() noexcept {
  g_spawn_fault_countdown.store(-1, std::memory_order_relaxed);
}

inline void maybe_inject_spawn_fault() {
  int c = g_spawn_fault_countdown.load(std::memory_order_relaxed);
  if (c < 0) return;
  if (g_spawn_fault_countdown.fetch_sub(1, std::memory_order_relaxed) == 0) {
    throw std::system_error(
        std::make_error_code(std::errc::resource_unavailable_try_again),
        "injected thread-spawn failure");
  }
}
}  // namespace detail

class scheduler {
 public:
  explicit scheduler(unsigned num_workers)
      : num_workers_(num_workers == 0 ? 1 : num_workers),
        deques_(num_workers_.load(std::memory_order_relaxed)),
        stats_(deques_.size()) {
    // Enroll the constructing thread as worker 0.
    detail::tl_worker_id = 0;
    const auto requested = static_cast<unsigned>(deques_.size());
    threads_.reserve(requested - 1);
    for (unsigned id = 1; id < requested; ++id) {
      try {
        detail::maybe_inject_spawn_fault();
        threads_.emplace_back([this, id] { worker_loop(id); });
      } catch (const std::system_error& e) {
        // Graceful degradation: workers 0..id-1 are already running, so
        // shrink the pool to them rather than crashing. The deque vector
        // keeps its original size — unreachable deques stay empty and
        // stale num_workers_ reads in concurrent steal loops only probe
        // them harmlessly.
        num_workers_.store(id, std::memory_order_relaxed);
        std::fprintf(stderr,
                     "pbds: thread spawn failed after %u of %u workers "
                     "(%s); continuing with a pool of %u\n",
                     id, requested, e.what(), id);
        break;
      }
    }
  }

  ~scheduler() {
    shutdown_.store(true, std::memory_order_release);
    for (auto& t : threads_)
      if (t.joinable()) t.join();
    detail::tl_worker_id = -1;
  }

  scheduler(const scheduler&) = delete;
  scheduler& operator=(const scheduler&) = delete;

  [[nodiscard]] unsigned num_workers() const noexcept {
    return num_workers_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] static int worker_id() noexcept {
    return detail::tl_worker_id;
  }

  // Push a job onto the calling worker's deque. Caller must be enrolled.
  // Returns false — job NOT enqueued — when the deque is full; the caller
  // must then execute the job inline (fork2join does), so overflow costs
  // stealable parallelism, never correctness.
  [[nodiscard]] bool push(job* j) {
    assert(detail::tl_worker_id >= 0);
    return deques_[static_cast<unsigned>(detail::tl_worker_id)].push_bottom(j);
  }

  // Pop from the calling worker's own deque (LIFO).
  job* try_pop() {
    assert(detail::tl_worker_id >= 0);
    return deques_[static_cast<unsigned>(detail::tl_worker_id)].pop_bottom();
  }

  // True when no spawned worker is inside a job payload. Worker 0 (the
  // caller) is excluded: it is by definition not executing stolen work
  // when it is here asking. Acquire pairs with the release store clearing
  // `busy`, so a true return also means every finished payload's memory
  // effects are visible to the caller.
  [[nodiscard]] bool quiescent() const noexcept {
    for (const auto& s : stats_)
      if (s.busy.load(std::memory_order_acquire)) return false;
    return true;
  }

  // Block (cooperatively) until `j` completes, stealing work meanwhile.
  //
  // Jobs always finish — job::execute marks completion even when the
  // payload throws or is skipped by cancellation — so finished() is a
  // sound exit. A joiner that finds nothing to steal yields and re-checks;
  // it never sleeps in back_off, whose 20/200 µs sleeps would delay the
  // join by up to their length after the stolen branch finished.
  void wait_until(const job* j) {
    while (!j->finished()) {
      // A shutdown while a join is still pending means an exception (or a
      // teardown) unwound past a stealable job — the use-after-scope this
      // layer exists to prevent. Fail loudly in debug builds.
      assert(!shutdown_.load(std::memory_order_acquire) &&
             "scheduler shut down while a join was still pending");
      job* stolen = find_work();
      if (stolen != nullptr) {
        // No busy bracket here: the waiting thread is *inside* a join, so
        // quiesce() — which only runs between top-level regions — never
        // races with it. Only spawned workers publish busy.
        stolen->execute();
      } else {
        std::this_thread::yield();
      }
    }
  }

 private:
  void worker_loop(unsigned id) {
    detail::tl_worker_id = static_cast<int>(id);
    worker_stat& stat = stats_[id];
    unsigned failures = 0;
    while (!shutdown_.load(std::memory_order_acquire)) {
      job* j = find_work();
      if (j != nullptr) {
        // execute never throws (captures into the job + cancel state).
        // *j must not be touched afterwards: the joiner may already have
        // reclaimed its frame.
        //
        // The busy flag brackets the payload: quiesce() (below) waits for
        // every spawned worker to show busy == false, so the release store
        // on clearing makes the payload's memory effects (note_alloc /
        // note_free traffic) visible to the quiescing thread's acquire.
        stat.busy.store(true, std::memory_order_relaxed);
        {
          telemetry::trace_span span(telemetry::trace_kind::job, "job",
                                     static_cast<std::int64_t>(id));
          j->execute();
        }
        stat.busy.store(false, std::memory_order_release);
        failures = 0;
      } else {
        back_off(failures);
      }
    }
    detail::tl_worker_id = -1;
  }

  // Own deque first (LIFO locality), then a round of random steals.
  job* find_work() {
    unsigned self = static_cast<unsigned>(detail::tl_worker_id);
    if (job* j = deques_[self].pop_bottom()) return j;
    unsigned n = num_workers();
    if (n == 1) return nullptr;
    for (unsigned attempt = 0; attempt < 2 * n; ++attempt) {
      unsigned victim = static_cast<unsigned>(detail::next_random() % n);
      if (victim == self) continue;
      if (job* j = deques_[victim].steal()) {
        telemetry::count(telemetry::counter::steals);
        return j;
      }
    }
    telemetry::count(telemetry::counter::failed_steals);
    return nullptr;
  }

  // Idle workers only (worker_loop); a join yields instead (wait_until).
  static void back_off(unsigned& failures) {
    ++failures;
    if (failures < 16) {
      std::this_thread::yield();
    } else {
      // Over-provisioned pools (threads > cores) must not spin hard.
      std::this_thread::sleep_for(std::chrono::microseconds(
          failures < 64 ? 20 : 200));
    }
  }

  // Shrinks (once, in the constructor) if thread spawn fails; concurrent
  // readers take relaxed loads, so it must be atomic.
  std::atomic<unsigned> num_workers_;
  std::vector<chase_lev_deque> deques_;  // one per requested worker
  std::vector<worker_stat> stats_;
  std::vector<std::thread> threads_;
  std::atomic<bool> shutdown_{false};
};

namespace detail {
// Serializes creation of the global scheduler (get_scheduler) and its
// replacement (set_num_workers).
inline std::mutex& scheduler_slot_mutex() {
  static std::mutex m;
  return m;
}

inline std::unique_ptr<scheduler>& global_slot() {
  static std::unique_ptr<scheduler> slot;
  return slot;
}

// Worker-count policy shared by every execution backend: the deterministic
// simulator (deterministic.hpp) seeds its *simulated* worker count from
// this same function, so granularity decisions — and therefore a
// pipeline's range partitioning — match the real pool for a given
// PBDS_NUM_THREADS.
//
// PBDS_NUM_THREADS is parsed strictly (full-string match, range
// [1, kMaxWorkers] — pbds::detail::env_integer); a malformed value falls
// back to the hardware count and warns once on stderr instead of silently
// misconfiguring the pool.
inline constexpr long kMaxWorkers = 4096;

inline unsigned default_num_workers() {
  unsigned hw = std::thread::hardware_concurrency();
  unsigned fallback = hw == 0 ? 1 : hw;
  return static_cast<unsigned>(pbds::detail::env_integer(
      "PBDS_NUM_THREADS", 1, kMaxWorkers, fallback));
}
}  // namespace detail

// The process-wide scheduler, created lazily on first use from the calling
// thread (which becomes worker 0).
inline scheduler& get_scheduler() {
  auto& slot = detail::global_slot();
  if (!slot) {
    std::lock_guard<std::mutex> lock(detail::scheduler_slot_mutex());
    if (!slot) {
      pbds::detail::warn_unknown_pbds_env();
      slot = std::make_unique<scheduler>(detail::default_num_workers());
    }
  }
  return *slot;
}

inline unsigned num_workers() { return get_scheduler().num_workers(); }

// Tear down and recreate the pool with `p` workers. Must be called from the
// original worker-0 thread with no parallel work in flight (used by the
// scalability bench to sweep processor counts).
inline void set_num_workers(unsigned p) {
  std::lock_guard<std::mutex> lock(detail::scheduler_slot_mutex());
  auto& slot = detail::global_slot();
  slot.reset();
  slot = std::make_unique<scheduler>(p == 0 ? 1 : p);
}

// Barrier: wait until no spawned worker is inside a job payload. Call only
// between top-level parallel regions (all joins completed) — then the only
// residual activity is a worker finishing the epilogue of its last stolen
// job, which this spin covers. Used to make peak-accounting resets
// (memory::reset_peak) race-free: a worker's trailing note_free could
// otherwise land between the reset and the next measurement.
inline void quiesce() {
  auto& slot = detail::global_slot();
  if (!slot) return;
  while (!slot->quiescent()) std::this_thread::yield();
}

// After fork(2): worker threads exist only in the parent. Joining them in
// the child would hang and letting the handles' destructors run would
// std::terminate, so leak the pool and reset the thread-local state; the
// child lazily builds a fresh pool on first use (or simply _exits without
// one).
inline void reinit_in_child() {
  (void)detail::global_slot().release();  // NOLINT(bugprone-unused-return-value)
  detail::tl_worker_id = -1;
}

}  // namespace pbds::sched
