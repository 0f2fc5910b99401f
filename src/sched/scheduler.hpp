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
#include <cstdlib>
#include <cerrno>
#include <memory>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

#include "core/env.hpp"
#include "memory/tracking.hpp"
#include "sched/cancellation.hpp"
#include "sched/chase_lev_deque.hpp"
#include "sched/job.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace pbds::sched {

// Per-worker progress counters, published by the worker loop and sampled
// by the watchdog (and by quiesce()). Cache-line aligned so this traffic
// never false-shares with a neighbour's counters.
struct alignas(64) worker_stat {
  std::atomic<std::uint64_t> jobs{0};            // jobs executed to completion
  std::atomic<std::uint64_t> steal_attempts{0};  // find_work probe rounds
  std::atomic<std::uint64_t> epoch{0};           // loop iterations (liveness)
  std::atomic<bool> busy{false};                 // currently inside a payload
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
        requested_(num_workers_.load(std::memory_order_relaxed)),
        deques_(requested_),
        stats_(requested_) {
    // Enroll the constructing thread as worker 0.
    detail::tl_worker_id = 0;
    unsigned requested = requested_;
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

  // Sum of jobs executed to completion across all workers. Monotone; the
  // watchdog samples it each interval — a pool with pending joins whose
  // total stops moving is making no global progress.
  [[nodiscard]] std::uint64_t total_jobs_executed() const noexcept {
    std::uint64_t total = 0;
    for (const auto& s : stats_)
      total += s.jobs.load(std::memory_order_relaxed);
    return total;
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

  // Diagnostics snapshot for the watchdog's stderr dump: a stalled worker
  // shows busy with a job count that no longer moves and a possibly deep
  // deque.
  void dump_worker_stats(std::FILE* out) const {
    for (unsigned i = 0; i < requested_; ++i) {
      const auto& s = stats_[i];
      std::fprintf(
          out,
          "pbds:   worker %u: jobs=%llu steal_attempts=%llu epoch=%llu "
          "deque=%zu%s\n",
          i,
          static_cast<unsigned long long>(
              s.jobs.load(std::memory_order_relaxed)),
          static_cast<unsigned long long>(
              s.steal_attempts.load(std::memory_order_relaxed)),
          static_cast<unsigned long long>(
              s.epoch.load(std::memory_order_relaxed)),
          deques_[i].size_estimate(),
          s.busy.load(std::memory_order_relaxed) ? " busy" : "");
    }
  }

  // Block (cooperatively) until `j` completes, stealing work meanwhile.
  //
  // Jobs always finish — job::execute marks completion even when the
  // payload throws or is skipped by cancellation — so finished() is a
  // sound exit. A joiner that finds nothing to steal yields and re-checks;
  // it never sleeps in back_off, whose 20/200 µs sleeps would delay the
  // join by up to their length after the stolen branch finished.
  void wait_until(const job* j) {
    worker_stat& stat =
        stats_[static_cast<unsigned>(detail::tl_worker_id)];
    while (!j->finished()) {
      // A shutdown while a join is still pending means an exception (or a
      // teardown) unwound past a stealable job — the use-after-scope this
      // layer exists to prevent. Fail loudly in debug builds.
      assert(!shutdown_.load(std::memory_order_acquire) &&
             "scheduler shut down while a join was still pending");
      stat.epoch.fetch_add(1, std::memory_order_relaxed);
      job* stolen = find_work();
      if (stolen != nullptr) {
        // No busy bracket here: the waiting thread is *inside* a join, so
        // quiesce() — which only runs between top-level regions — never
        // races with it. Only spawned workers publish busy.
        stolen->execute();
        stat.jobs.fetch_add(1, std::memory_order_relaxed);
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
      stat.epoch.fetch_add(1, std::memory_order_relaxed);
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
        stat.jobs.fetch_add(1, std::memory_order_relaxed);
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
    stats_[self].steal_attempts.fetch_add(1, std::memory_order_relaxed);
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
  unsigned requested_;  // worker count before any spawn-failure shrink
  std::vector<chase_lev_deque> deques_;
  std::vector<worker_stat> stats_;
  std::vector<std::thread> threads_;
  std::atomic<bool> shutdown_{false};
};

namespace detail {
// Guards the global scheduler slot against the one legitimate cross-thread
// reader: the watchdog thread sampling progress while worker 0 swaps the
// pool (set_num_workers) or first-creates it (get_scheduler).
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

// --- watchdog ---------------------------------------------------------------
//
// An optional monitor thread that samples global progress (sum of completed
// jobs) every `period_ms` and watches the active-region registry
// (cancellation.hpp). While at least one tracked region is live and the job
// total stops moving:
//
//   * after `warn_intervals` stagnant samples it dumps per-worker stats
//     plus memory/budget counters to stderr (diagnosis first — a stall
//     may be expected, e.g. a long sequential tail);
//   * after `cancel_intervals` stagnant samples it cancels every tracked
//     region by capturing `pbds::stall_detected` into its cancel_state.
//     The region then collapses through the ordinary cancellation
//     protocol and the root join rethrows stall_detected.
//
// Independently of stagnation, each sample cancels any registered region
// whose deadline (fork2join / parallel_for deadline overloads) has passed.
//
// Enabled explicitly via start_watchdog(), or at pool creation when
// PBDS_WATCHDOG_MS is set. ensure_watchdog_for_deadlines() starts a
// deadline-only instance (no stagnation tracking) so deadline overloads
// work without the full watchdog.
struct watchdog_config {
  long period_ms = 100;      // sampling interval; <= 0 disables entirely
  int warn_intervals = 2;    // stagnant samples before diagnostics; <= 0 off
  int cancel_intervals = 6;  // stagnant samples before cancelling; <= 0 off
};

namespace detail {
class watchdog {
 public:
  watchdog(watchdog_config cfg, bool track_stagnation)
      : cfg_(cfg), tracking_(track_stagnation) {
    if (tracking_) g_region_tracking.store(true, std::memory_order_relaxed);
    thread_ = std::thread([this] { loop(); });
  }

  ~watchdog() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
    if (tracking_) g_region_tracking.store(false, std::memory_order_relaxed);
  }

  watchdog(const watchdog&) = delete;
  watchdog& operator=(const watchdog&) = delete;

  [[nodiscard]] bool deadline_only() const noexcept { return !tracking_; }

 private:
  void loop() {
    const auto period = std::chrono::milliseconds(cfg_.period_ms);
    std::uint64_t last_jobs = 0;
    bool have_sample = false;
    int stagnant = 0;
    bool warned = false;
    while (!stop_.load(std::memory_order_acquire)) {
      // Sleep in short chunks so stop_watchdog() returns promptly even
      // with a long period.
      auto slept = std::chrono::milliseconds(0);
      while (slept < period && !stop_.load(std::memory_order_acquire)) {
        auto chunk = period - slept;
        if (chunk > std::chrono::milliseconds(5))
          chunk = std::chrono::milliseconds(5);
        std::this_thread::sleep_for(chunk);
        slept += chunk;
      }
      if (stop_.load(std::memory_order_acquire)) break;

      expire_deadlines();

      if (!tracking_) continue;

      // Stagnation pass. Sample under the slot mutex: set_num_workers may
      // be swapping the pool out from under us.
      std::uint64_t jobs = 0;
      bool have_pool = false;
      {
        std::lock_guard<std::mutex> lock(scheduler_slot_mutex());
        if (auto& slot = global_slot()) {
          jobs = slot->total_jobs_executed();
          have_pool = true;
        }
      }
      std::size_t regions = active_tracked_regions();
      if (!have_pool || regions == 0) {
        have_sample = false;
        stagnant = 0;
        warned = false;
        continue;
      }
      if (have_sample && jobs == last_jobs) {
        ++stagnant;
      } else {
        stagnant = 0;
        warned = false;
      }
      last_jobs = jobs;
      have_sample = true;

      if (cfg_.warn_intervals > 0 && stagnant >= cfg_.warn_intervals &&
          !warned) {
        warned = true;
        dump_diagnostics(jobs, regions);
      }
      if (cfg_.cancel_intervals > 0 && stagnant >= cfg_.cancel_intervals) {
        cancel_all_tracked_regions(
            "pbds watchdog: no global progress across the pool; "
            "cancelling the stuck fork-join region");
        stagnant = 0;
        warned = false;
        have_sample = false;
      }
    }
  }

  void expire_deadlines() {
    auto now = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> lock(region_registry_mutex());
    for (auto& e : region_registry()) {
      if (e.deadline != std::chrono::steady_clock::time_point::max() &&
          now >= e.deadline && !e.state->cancelled()) {
        e.state->capture(std::make_exception_ptr(stall_detected(
            "pbds watchdog: fork-join region exceeded its deadline")));
        telemetry::count(telemetry::counter::stalls);
        telemetry::trace_instant(telemetry::trace_kind::sched, "deadline");
      }
    }
  }

  static void cancel_all_tracked_regions(const char* why) {
    std::lock_guard<std::mutex> lock(region_registry_mutex());
    for (auto& e : region_registry()) {
      if (!e.state->cancelled()) {
        e.state->capture(std::make_exception_ptr(stall_detected(why)));
        telemetry::count(telemetry::counter::stalls);
        telemetry::trace_instant(telemetry::trace_kind::sched, "stall");
      }
    }
  }

  void dump_diagnostics(std::uint64_t jobs, std::size_t regions) const {
    std::fprintf(stderr,
                 "pbds watchdog: no global progress for %d interval(s) of "
                 "%ld ms (total jobs=%llu, tracked regions=%zu)\n",
                 cfg_.warn_intervals, cfg_.period_ms,
                 static_cast<unsigned long long>(jobs), regions);
    std::lock_guard<std::mutex> lock(scheduler_slot_mutex());
    if (auto& slot = global_slot()) {
      slot->dump_worker_stats(stderr);
      std::fprintf(
          stderr,
          "pbds:   bytes_live=%lld budget_refusals=%llu\n",
          static_cast<long long>(memory::bytes_live()),
          static_cast<unsigned long long>(memory::budget_refusals()));
    }
  }

  watchdog_config cfg_;
  bool tracking_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

inline std::unique_ptr<watchdog>& watchdog_slot() {
  static std::unique_ptr<watchdog> slot;
  return slot;
}

// Static-destruction-order pin: everything the watchdog thread touches
// (scheduler slot + mutex, region registry + mutex) must be constructed
// *before* the watchdog owner's function-local static, so that at process
// exit the watchdog is destroyed (thread joined) first.
inline void pin_watchdog_dependencies() {
  (void)scheduler_slot_mutex();
  (void)global_slot();
  (void)region_registry_mutex();
  (void)region_registry();
}

// PBDS_WATCHDOG_MS: strict parse (pbds::detail::env_integer, range
// [1, 3600000]); malformed values warn once and leave the watchdog off
// rather than guessing a period.
inline void maybe_start_watchdog_from_env();
}  // namespace detail

// Start (or restart, with the new config) the watchdog. Call from the main
// thread with no parallel work in flight — the restart destroys the
// previous monitor. A non-positive period stops the watchdog instead.
inline void start_watchdog(watchdog_config cfg = {}) {
  detail::pin_watchdog_dependencies();
  auto& slot = detail::watchdog_slot();
  slot.reset();
  if (cfg.period_ms <= 0) return;
  slot = std::make_unique<detail::watchdog>(cfg, /*track_stagnation=*/true);
}

inline void stop_watchdog() { detail::watchdog_slot().reset(); }

[[nodiscard]] inline bool watchdog_running() {
  return detail::watchdog_slot() != nullptr;
}

// Deadline overloads (parallel.hpp) need *someone* to observe the clock:
// without a monitor thread a deadline would only be noticed if a full
// watchdog happened to be running. Start a deadline-only instance (fast
// 20ms sampling, no stagnation tracking, no region tracking flag) unless a
// watchdog already exists.
inline void ensure_watchdog_for_deadlines() {
  auto& slot = detail::watchdog_slot();
  if (slot) return;
  detail::pin_watchdog_dependencies();
  watchdog_config cfg;
  cfg.period_ms = 20;
  cfg.warn_intervals = 0;
  cfg.cancel_intervals = 0;
  slot = std::make_unique<detail::watchdog>(cfg, /*track_stagnation=*/false);
}

namespace detail {
inline void maybe_start_watchdog_from_env() {
  long v = static_cast<long>(
      pbds::detail::env_integer("PBDS_WATCHDOG_MS", 1, 3600000, 0));
  if (v >= 1) start_watchdog(watchdog_config{v, 2, 6});
}
}  // namespace detail

// The process-wide scheduler, created lazily on first use from the calling
// thread (which becomes worker 0). Creation also consults PBDS_WATCHDOG_MS
// to optionally start the watchdog alongside the pool.
inline scheduler& get_scheduler() {
  auto& slot = detail::global_slot();
  if (!slot) {
    std::lock_guard<std::mutex> lock(detail::scheduler_slot_mutex());
    if (!slot) {
      pbds::detail::warn_unknown_pbds_env();
      slot = std::make_unique<scheduler>(detail::default_num_workers());
      detail::maybe_start_watchdog_from_env();
    }
  }
  return *slot;
}

inline unsigned num_workers() { return get_scheduler().num_workers(); }

// Tear down and recreate the pool with `p` workers. Must be called from the
// original worker-0 thread with no parallel work in flight (used by the
// scalability bench to sweep processor counts). The slot mutex keeps the
// swap invisible to a concurrently sampling watchdog.
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

// Bounded quiesce: same barrier, but gives up after `timeout` and throws
// pbds::stall_detected instead of spinning forever — the unbounded form
// can hang on a worker whose payload is wedged (busy frozen), which is
// exactly when the caller most needs control back to diagnose or shed.
inline void quiesce(std::chrono::milliseconds timeout) {
  auto& slot = detail::global_slot();
  if (!slot) return;
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!slot->quiescent()) {
    if (std::chrono::steady_clock::now() >= deadline)
      throw stall_detected(
          "pbds: quiesce() exceeded its deadline — a spawned worker is "
          "still inside a payload (wedged or very long leaf)");
    std::this_thread::yield();
  }
}

// After fork(2): worker threads and the watchdog thread exist only in the
// parent. Joining them in the child would hang and letting the handles'
// destructors run would std::terminate, so leak both objects and reset the
// thread-local state; the child lazily builds a fresh pool on first use
// (or simply _exits without one).
inline void reinit_in_child() {
  (void)detail::watchdog_slot().release();  // NOLINT(bugprone-unused-return-value)
  (void)detail::global_slot().release();    // NOLINT(bugprone-unused-return-value)
  detail::tl_worker_id = -1;
  detail::g_region_tracking.store(false, std::memory_order_relaxed);
}

}  // namespace pbds::sched
