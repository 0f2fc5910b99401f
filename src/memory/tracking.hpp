// Byte-exact allocation accounting for the evaluation's "space" columns.
//
// The paper measures space as maximum residency reported by Linux; the
// dominant term there is exactly the intermediate arrays the fusion
// technique eliminates (see DESIGN.md §1). Here every intermediate buffer
// (parray, packed filter blocks, scan partials, ...) is routed through
// these counters, giving a deterministic, noise-free equivalent:
//
//   bytes_live     — currently allocated and not yet freed
//   bytes_peak     — high-water mark of bytes_live (resettable)
//   bytes_total    — cumulative bytes ever allocated (the cost semantics'
//                    allocation count A, in bytes)
//   num_allocs     — number of allocation events
//
// Counters are process-global atomics; allocations in this codebase happen
// per *block*, not per element (a filter block's pack buffer is one
// allocation of exactly its survivors), so contention is negligible.
// An allocation *fault injector* rides on the same choke point: every
// tracked allocation first calls maybe_inject_alloc_fault(), which can be
// armed (scoped_alloc_faults) to throw std::bad_alloc on the Nth
// allocation or with seeded probability — the hook the exception-safety
// tests (tests/test_fault_injection.cpp) use to prove that scan partials,
// filter pack buffers and flatten offsets never leak on out-of-memory
// paths.
//
// The same choke point enforces the memory budget (budget.hpp): call sites
// bracket the real allocation with admit_alloc (fault injection + budget
// reservation; throws budget_exceeded on refusal) and note_alloc (converts
// the reservation into live bytes). If the real allocator throws between
// the two, retract_admission returns the reserved bytes.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <new>

#include "memory/budget.hpp"
#include "telemetry/metrics.hpp"

namespace pbds::memory {

namespace detail {
inline std::atomic<std::int64_t> g_bytes_live{0};
inline std::atomic<std::int64_t> g_bytes_peak{0};
inline std::atomic<std::int64_t> g_bytes_total{0};
inline std::atomic<std::int64_t> g_num_allocs{0};
}  // namespace detail

inline void note_alloc(std::size_t bytes) {
  auto b = static_cast<std::int64_t>(bytes);
  detail::g_bytes_total.fetch_add(b, std::memory_order_relaxed);
  detail::g_num_allocs.fetch_add(1, std::memory_order_relaxed);
  std::int64_t live =
      detail::g_bytes_live.fetch_add(b, std::memory_order_relaxed) + b;
  std::int64_t peak = detail::g_bytes_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !detail::g_bytes_peak.compare_exchange_weak(
             peak, live, std::memory_order_relaxed)) {
  }
}

inline void note_free(std::size_t bytes) {
  detail::g_bytes_live.fetch_sub(static_cast<std::int64_t>(bytes),
                                 std::memory_order_relaxed);
}

inline std::int64_t bytes_live() {
  return detail::g_bytes_live.load(std::memory_order_relaxed);
}
inline std::int64_t bytes_peak() {
  return detail::g_bytes_peak.load(std::memory_order_relaxed);
}
inline std::int64_t bytes_total() {
  return detail::g_bytes_total.load(std::memory_order_relaxed);
}
inline std::int64_t num_allocs() {
  return detail::g_num_allocs.load(std::memory_order_relaxed);
}

// Reset the high-water mark to the current live total (start of a
// measurement region).
inline void reset_peak() {
  detail::g_bytes_peak.store(bytes_live(), std::memory_order_relaxed);
}

// Snapshot of the counters over a region of execution. Typical use:
//
//   space_meter m;                 // start of region
//   run_benchmark();
//   auto peak = m.peak_bytes();    // max residency during the region
//   auto allocd = m.allocated_bytes();
//
// `peak_bytes` includes buffers that were already live when the meter was
// constructed (e.g. benchmark inputs), matching the paper's max-residency
// measurement; `peak_delta_bytes` excludes them.
class space_meter {
 public:
  space_meter()
      : live_at_start_(bytes_live()),
        total_at_start_(bytes_total()),
        allocs_at_start_(num_allocs()) {
    reset_peak();
  }

  [[nodiscard]] std::int64_t peak_bytes() const { return bytes_peak(); }
  [[nodiscard]] std::int64_t peak_delta_bytes() const {
    return bytes_peak() - live_at_start_;
  }
  [[nodiscard]] std::int64_t allocated_bytes() const {
    return bytes_total() - total_at_start_;
  }
  [[nodiscard]] std::int64_t alloc_count() const {
    return num_allocs() - allocs_at_start_;
  }

 private:
  std::int64_t live_at_start_;
  std::int64_t total_at_start_;
  std::int64_t allocs_at_start_;
};

// --- allocation fault injection ---------------------------------------------
//
// Every tracked allocation site (parray's buffer, counting_allocator) calls
// maybe_inject_alloc_fault() *before* allocating, so an injected failure is
// indistinguishable from the real allocator throwing std::bad_alloc — and
// the counters above are only updated on success, which is what lets tests
// assert that bytes_live returns to its pre-call value after an injected
// failure propagates out of scan/filter/flatten.
//
// Two modes, both armed via the RAII scoped_alloc_faults below:
//   fail_nth(n)                    — the (n+1)-th tracked allocation from
//                                    now throws; one-shot, later ones
//                                    succeed (so recovery paths still run).
//   fail_with_probability(seed, p) — every tracked allocation throws
//                                    independently with probability p from
//                                    a seeded xorshift stream.
// The injector stays "armed" (fault_injection_armed() == true) for the
// whole scope even after a one-shot fault fires; construction paths that
// pay for exception tolerance only when armed key off that predicate.

namespace detail {
// 0 = off, 1 = countdown, 2 = probability, 3 = armed but spent (one-shot
// fault already delivered).
inline std::atomic<int> g_fault_mode{0};
inline std::atomic<std::int64_t> g_fault_countdown{0};
inline std::atomic<std::uint64_t> g_fault_rng{0};
inline std::atomic<std::uint64_t> g_fault_threshold{0};
inline std::atomic<std::int64_t> g_faults_injected{0};
}  // namespace detail

[[nodiscard]] inline bool fault_injection_armed() {
  return detail::g_fault_mode.load(std::memory_order_relaxed) != 0;
}

[[nodiscard]] inline std::int64_t faults_injected() {
  return detail::g_faults_injected.load(std::memory_order_relaxed);
}

inline void maybe_inject_alloc_fault() {
  int mode = detail::g_fault_mode.load(std::memory_order_relaxed);
  if (mode == 0 || mode == 3) return;
  if (mode == 1) {
    // Exactly one caller observes the zero crossing.
    if (detail::g_fault_countdown.fetch_sub(1, std::memory_order_relaxed) ==
        0) {
      detail::g_fault_mode.store(3, std::memory_order_relaxed);
      detail::g_faults_injected.fetch_add(1, std::memory_order_relaxed);
      throw std::bad_alloc();
    }
    return;
  }
  // Probability mode: advance the shared xorshift stream atomically.
  std::uint64_t x = detail::g_fault_rng.load(std::memory_order_relaxed);
  std::uint64_t nxt;
  do {
    nxt = x;
    nxt ^= nxt << 13;
    nxt ^= nxt >> 7;
    nxt ^= nxt << 17;
  } while (!detail::g_fault_rng.compare_exchange_weak(
      x, nxt, std::memory_order_relaxed));
  if (nxt < detail::g_fault_threshold.load(std::memory_order_relaxed)) {
    detail::g_faults_injected.fetch_add(1, std::memory_order_relaxed);
    throw std::bad_alloc();
  }
}

// RAII arming of the injector; disarms (and clears any pending fault) on
// scope exit. Only one instance may be live at a time.
class scoped_alloc_faults {
 public:
  // Fail the nth tracked allocation from now (0-based: n == 0 fails the
  // very next one). One-shot.
  [[nodiscard]] static scoped_alloc_faults fail_nth(std::int64_t n) {
    scoped_alloc_faults s;
    detail::g_fault_countdown.store(n, std::memory_order_relaxed);
    detail::g_fault_mode.store(1, std::memory_order_relaxed);
    return s;
  }

  // Fail each tracked allocation independently with probability p, drawn
  // from a stream seeded with `seed` (deterministic given a serial
  // allocation order, e.g. under the sequential/deterministic schedulers).
  [[nodiscard]] static scoped_alloc_faults fail_with_probability(
      std::uint64_t seed, double p) {
    scoped_alloc_faults s;
    detail::g_fault_rng.store(seed | 1, std::memory_order_relaxed);
    detail::g_fault_threshold.store(
        p >= 1.0 ? ~0ull
                 : static_cast<std::uint64_t>(
                       p * 18446744073709551616.0 /* 2^64 */),
        std::memory_order_relaxed);
    detail::g_fault_mode.store(2, std::memory_order_relaxed);
    return s;
  }

  ~scoped_alloc_faults() {
    if (owner_) detail::g_fault_mode.store(0, std::memory_order_relaxed);
  }

  scoped_alloc_faults(scoped_alloc_faults&& other) noexcept
      : start_count_(other.start_count_), owner_(other.owner_) {
    other.owner_ = false;
  }
  scoped_alloc_faults(const scoped_alloc_faults&) = delete;
  scoped_alloc_faults& operator=(const scoped_alloc_faults&) = delete;
  scoped_alloc_faults& operator=(scoped_alloc_faults&&) = delete;

  // Faults delivered since this scope was armed.
  [[nodiscard]] std::int64_t injected() const {
    return faults_injected() - start_count_;
  }

 private:
  scoped_alloc_faults() : start_count_(faults_injected()) {}

  std::int64_t start_count_;
  bool owner_ = true;
};

// --- allocation admission (fault injection + budget) -------------------------
//
// The single choke point every tracked allocation passes through. Call
// sites bracket the real allocation:
//
//   alloc_admission adm(bytes);     // may throw bad_alloc / budget_exceeded
//   p = ::operator new(bytes);      // may throw the real bad_alloc
//   adm.commit();                   // note_alloc + release the reservation
//
// Admission first runs the fault injector, then — when a budget is active
// (budget.hpp) — reserves `bytes` against the limit with a fetch_add, so
// two threads racing through admission cannot jointly overcommit. If the
// allocation is abandoned (real allocator threw), the destructor retracts
// the reservation; commit() converts it into live bytes.
class alloc_admission {
 public:
  explicit alloc_admission(std::size_t bytes) : bytes_(bytes) {
    maybe_inject_alloc_fault();
    std::int64_t limit = budget_limit();
    if (limit <= 0) return;
    auto b = static_cast<std::int64_t>(bytes);
    std::int64_t reserved =
        detail::g_budget_reserved.fetch_add(b, std::memory_order_relaxed);
    reserved_ = true;
    if (bytes_live() + reserved + b > limit) {
      retract();
      detail::g_budget_refusals.fetch_add(1, std::memory_order_relaxed);
      telemetry::count(telemetry::counter::budget_refusals);
      throw budget_exceeded(bytes, bytes_live(), limit);
    }
    telemetry::count(telemetry::counter::budget_admissions);
  }

  ~alloc_admission() { retract(); }

  alloc_admission(const alloc_admission&) = delete;
  alloc_admission& operator=(const alloc_admission&) = delete;

  // The allocation succeeded: account it and drop the reservation (the
  // bytes are now counted in bytes_live instead).
  void commit() {
    retract();
    note_alloc(bytes_);
  }

 private:
  void retract() {
    if (reserved_) {
      detail::g_budget_reserved.fetch_sub(static_cast<std::int64_t>(bytes_),
                                          std::memory_order_relaxed);
      reserved_ = false;
    }
  }

  std::size_t bytes_;
  bool reserved_ = false;
};

// Collects the first exception thrown across concurrently executing loop
// bodies. The fault-tolerant construction paths (parray::tabulate,
// to_array) catch inside the parallel lambda — an exception must never
// unwind through a fork while a pushed job is pending, and must never
// escape a stolen job on a pool thread — then rethrow on the calling
// thread after the join. Construction loops run under a
// sched::cancel_shield (the region-level bail-out would skip chunks and
// leave slots unconstructed), so `triggered` is their private cancellation
// signal: once set, remaining bodies stop calling the real element
// producer and just fill cheap placeholders.
class first_exception {
 public:
  void capture() noexcept {
    if (!claimed_.exchange(true, std::memory_order_acq_rel))
      eptr_ = std::current_exception();
    triggered_.store(true, std::memory_order_release);
  }

  // Polled from loop bodies on any worker; relaxed — a stale `false` only
  // costs one more real element evaluation.
  [[nodiscard]] bool triggered() const noexcept {
    return triggered_.load(std::memory_order_relaxed);
  }

  // Call after the parallel region has joined.
  void rethrow_if_set() {
    if (eptr_) std::rethrow_exception(eptr_);
  }

 private:
  std::atomic<bool> claimed_{false};
  std::atomic<bool> triggered_{false};
  std::exception_ptr eptr_;
};

}  // namespace pbds::memory
