// Lock-free, shard-per-thread metrics registry (DESIGN.md §8).
//
// The scheduler, the budget governor and the watchdog surface their event
// counts here: process-monotonic u64 counters (forks, steals, refusals,
// stalls, ...), each recorded with one relaxed fetch_add on a
// thread-private shard. The registry holds counters only; the bytes-live
// peak is memory::bytes_peak (memory/tracking.hpp).
//
// Memory model: every cell is a relaxed std::atomic<u64> that only ever
// increases. snapshot() therefore
// needs no synchronization with writers: it reads each cell once and sums
// across shards. A snapshot taken during concurrent mutation is a
// *consistent cut in the per-cell monotone order* — each cell's value was
// its true value at some instant during the call, and successive
// snapshots never observe a sum decrease. No cross-cell atomicity is
// promised (a fork counted on shard A may be visible before its join on
// shard B); the registry is for rates, not invariants.
//
// Sharding: threads hash onto kShards cache-line-padded shards via a
// thread_local slot assigned round-robin on first record, so the hot path
// is one TLS read + one relaxed RMW on a line no other core is writing.
// Pool workers and threads outside the pool record through the same API;
// the registry has no dependency on the scheduler.
//
// Gate: PBDS_METRICS (default ON; 0 disables) is read once into an
// atomic slot, re-readable via reload_metrics_from_env() (used by the
// scoped_env test harness) and overridable via the scoped_metrics RAII
// (used by the pbdsbench --metrics-overhead A/B gate). Defining
// PBDS_METRICS_COMPILED_OUT at build time compiles every record call to
// nothing — the "fast path can be elided entirely" escape hatch.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "core/env.hpp"

namespace pbds::telemetry {

// --- the metric taxonomy -----------------------------------------------------

enum class counter : unsigned {
  // scheduler
  forks,
  joins,
  steals,
  failed_steals,
  stalls,
  // memory / budget
  budget_admissions,
  budget_refusals,
  kCount,
};
inline constexpr std::size_t kNumCounters =
    static_cast<std::size_t>(counter::kCount);

[[nodiscard]] inline const char* counter_name(counter c) {
  static constexpr const char* kNames[kNumCounters] = {
      "forks",  "joins",           "steals",         "failed_steals",
      "stalls", "budget_admissions", "budget_refusals",
  };
  return kNames[static_cast<std::size_t>(c)];
}

// --- the gate ----------------------------------------------------------------

#if defined(PBDS_METRICS_COMPILED_OUT)
inline constexpr bool metrics_compiled_in = false;
#else
inline constexpr bool metrics_compiled_in = true;
#endif

namespace detail {

// -1 = unset (read env on next query), 0 = off, 1 = on. The override depth
// makes scoped_metrics nestable and thread-safe to *install* (the flag is
// process-global; toggling while hot paths run merely starts/stops
// recording, it cannot corrupt the registry).
inline std::atomic<int>& metrics_flag_slot() {
  static std::atomic<int> slot{-1};
  return slot;
}

}  // namespace detail

// True when record calls mutate the registry. One relaxed load on the hot
// path once initialized.
[[nodiscard]] inline bool metrics_enabled() {
  if constexpr (!metrics_compiled_in) return false;
  int v = detail::metrics_flag_slot().load(std::memory_order_relaxed);
  if (v >= 0) return v != 0;
  v = pbds::detail::env_integer("PBDS_METRICS", 0, 1, 1) != 0 ? 1 : 0;
  detail::metrics_flag_slot().store(v, std::memory_order_relaxed);
  return v != 0;
}

// Forget the cached PBDS_METRICS so the next query re-reads the (possibly
// scrubbed) environment. Used by tests/differential.hpp's scoped_env.
inline void reload_metrics_from_env() {
  detail::metrics_flag_slot().store(-1, std::memory_order_relaxed);
}

// RAII on/off override; restores the previous cached state on exit.
// Toggling while parallel work is in flight is safe but makes A/B deltas
// fuzzy — the overhead gate quiesces between arms.
class scoped_metrics {
 public:
  explicit scoped_metrics(bool on)
      : saved_(detail::metrics_flag_slot().load(std::memory_order_relaxed)) {
    detail::metrics_flag_slot().store(on ? 1 : 0, std::memory_order_relaxed);
  }
  ~scoped_metrics() {
    detail::metrics_flag_slot().store(saved_, std::memory_order_relaxed);
  }
  scoped_metrics(const scoped_metrics&) = delete;
  scoped_metrics& operator=(const scoped_metrics&) = delete;

 private:
  int saved_;
};

// --- the registry ------------------------------------------------------------

namespace detail {

inline constexpr std::size_t kShards = 32;

struct alignas(64) shard {
  std::atomic<std::uint64_t> counters[kNumCounters];
};

struct registry {
  shard shards[kShards];
};

inline registry& reg() {
  static registry r;
  return r;
}

inline shard& shard_of_thread() {
  static std::atomic<unsigned> next{0};
  thread_local unsigned idx =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return reg().shards[idx];
}

}  // namespace detail

// O(1) hot-path record: one TLS read + one relaxed fetch_add when enabled,
// a single relaxed load when disabled, nothing at all when compiled out.
inline void count(counter c, std::uint64_t n = 1) {
  if constexpr (!metrics_compiled_in) return;
  if (!metrics_enabled()) return;
  detail::shard_of_thread().counters[static_cast<std::size_t>(c)].fetch_add(
      n, std::memory_order_relaxed);
}

// --- snapshots ---------------------------------------------------------------

struct metrics_snapshot {
  std::array<std::uint64_t, kNumCounters> counters{};

  [[nodiscard]] std::uint64_t get(counter c) const {
    return counters[static_cast<std::size_t>(c)];
  }
};

// Sum every shard. Safe (and meaningful) under concurrent mutation — see
// the header comment for the exact consistency contract.
[[nodiscard]] inline metrics_snapshot snapshot() {
  metrics_snapshot out;
  if constexpr (!metrics_compiled_in) return out;
  auto& r = detail::reg();
  for (const auto& s : r.shards)
    for (std::size_t c = 0; c < kNumCounters; ++c)
      out.counters[c] += s.counters[c].load(std::memory_order_relaxed);
  return out;
}

// Zero every cell. NOT safe under concurrent mutation (a racing record may
// land before or after the wipe) — call only while the process is
// quiescent; tests and the bench A/B gate do. Monotonicity guarantees
// restart from the reset point.
inline void reset() {
  if constexpr (!metrics_compiled_in) return;
  auto& r = detail::reg();
  for (auto& s : r.shards)
    for (std::size_t c = 0; c < kNumCounters; ++c)
      s.counters[c].store(0, std::memory_order_relaxed);
}

}  // namespace pbds::telemetry
