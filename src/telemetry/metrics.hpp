// Lock-free, shard-per-thread metrics registry (DESIGN.md §10).
//
// The runtime's robustness layers (checkpoint/resume, the watchdog, the
// pipeline service) each kept private counters; this header is the one
// place they all surface. Two primitives:
//
//   counters    — process-monotonic u64 event counts (forks, steals,
//                 refusals, stalls, ...), recorded with one relaxed
//                 fetch_add on a thread-private shard;
//   histograms  — fixed power-of-two bucket latency/size distributions
//                 (bucket = bit_width(value), 64 buckets, no allocation,
//                 no clamping error beyond the 2x bucket granularity),
//                 with p50/p99 extraction on snapshots.
//
// Memory model: every cell is a relaxed std::atomic<u64> that only ever
// increases (the sole max-gauge uses a CAS max). snapshot() therefore
// needs no synchronization with writers: it reads each cell once and sums
// across shards. A snapshot taken during concurrent mutation is a
// *consistent cut in the per-cell monotone order* — each cell's value was
// its true value at some instant during the call, and successive
// snapshots never observe a sum decrease. No cross-cell atomicity is
// promised (a fork counted on shard A may be visible before its join on
// shard B); the registry is for rates and distributions, not invariants.
//
// Sharding: threads hash onto kShards cache-line-padded shards via a
// thread_local slot assigned round-robin on first record, so the hot path
// is one TLS read + one relaxed RMW on a line no other core is writing.
// Pool workers, guest threads and service dispatchers all record through
// the same API; the registry has no dependency on the scheduler.
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
#include <bit>
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
  budget_retries,
  // recovery
  blocks_salvaged,
  blocks_redone,
  // service
  jobs_admitted,
  jobs_shed,
  jobs_retried,
  jobs_completed,
  jobs_failed,
  kCount,
};
inline constexpr std::size_t kNumCounters =
    static_cast<std::size_t>(counter::kCount);

[[nodiscard]] inline const char* counter_name(counter c) {
  static constexpr const char* kNames[kNumCounters] = {
      "forks",           "joins",          "steals",
      "failed_steals",   "stalls",         "budget_admissions",
      "budget_refusals", "budget_retries", "blocks_salvaged",
      "blocks_redone",   "jobs_admitted",  "jobs_shed",
      "jobs_retried",    "jobs_completed", "jobs_failed",
  };
  return kNames[static_cast<std::size_t>(c)];
}

enum class hist : unsigned {
  service_latency_us,  // end-to-end submit->terminal latency per job
  attempt_latency_us,  // single service attempt latency
  block_bytes,         // materialized checkpoint-block sizes
  kCount,
};
inline constexpr std::size_t kNumHists =
    static_cast<std::size_t>(hist::kCount);
inline constexpr std::size_t kHistBuckets = 64;

[[nodiscard]] inline const char* hist_name(hist h) {
  static constexpr const char* kNames[kNumHists] = {
      "service_latency_us",
      "attempt_latency_us",
      "block_bytes",
  };
  return kNames[static_cast<std::size_t>(h)];
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
  std::atomic<std::uint64_t> hists[kNumHists][kHistBuckets];
};

struct registry {
  shard shards[kShards];
  // The single max-gauge: high-water mark of live tracked bytes as seen by
  // the metrics layer (mirrors memory::bytes_peak but resettable with the
  // registry, and visible in snapshots without a tracking.hpp dependency).
  std::atomic<std::int64_t> bytes_live_peak{0};
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

[[nodiscard]] inline std::size_t bucket_of(std::uint64_t value) {
  // bucket b holds values with bit_width b: 0 -> 0, [2^(b-1), 2^b) -> b.
  return static_cast<std::size_t>(std::bit_width(value));
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

inline void observe(hist h, std::uint64_t value) {
  if constexpr (!metrics_compiled_in) return;
  if (!metrics_enabled()) return;
  detail::shard_of_thread()
      .hists[static_cast<std::size_t>(h)][detail::bucket_of(value)]
      .fetch_add(1, std::memory_order_relaxed);
}

// Raise the bytes-live high-water mark to at least `live`.
inline void observe_peak_bytes(std::int64_t live) {
  if constexpr (!metrics_compiled_in) return;
  if (!metrics_enabled()) return;
  auto& peak = detail::reg().bytes_live_peak;
  std::int64_t cur = peak.load(std::memory_order_relaxed);
  while (live > cur &&
         !peak.compare_exchange_weak(cur, live, std::memory_order_relaxed)) {
  }
}

// --- snapshots ---------------------------------------------------------------

struct histogram_snapshot {
  std::array<std::uint64_t, kHistBuckets> buckets{};
  std::uint64_t total = 0;

  // Upper bound of the bucket containing the q-quantile observation
  // (0 when the histogram is empty). Error is bounded by the 2x bucket
  // width, which is all a latency SLO dashboard needs.
  [[nodiscard]] std::uint64_t quantile(double q) const {
    if (total == 0) return 0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    auto rank = static_cast<std::uint64_t>(q * static_cast<double>(total));
    if (rank >= total) rank = total - 1;
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kHistBuckets; ++b) {
      seen += buckets[b];
      if (seen > rank)
        return b == 0 ? 0 : (std::uint64_t{1} << (b < 64 ? b : 63));
    }
    return std::uint64_t{1} << 63;
  }

  [[nodiscard]] std::uint64_t p50() const { return quantile(0.50); }
  [[nodiscard]] std::uint64_t p99() const { return quantile(0.99); }
};

struct metrics_snapshot {
  std::array<std::uint64_t, kNumCounters> counters{};
  std::array<histogram_snapshot, kNumHists> hists{};
  std::int64_t bytes_live_peak = 0;

  [[nodiscard]] std::uint64_t get(counter c) const {
    return counters[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] const histogram_snapshot& get(hist h) const {
    return hists[static_cast<std::size_t>(h)];
  }
};

// Sum every shard. Safe (and meaningful) under concurrent mutation — see
// the header comment for the exact consistency contract.
[[nodiscard]] inline metrics_snapshot snapshot() {
  metrics_snapshot out;
  if constexpr (!metrics_compiled_in) return out;
  auto& r = detail::reg();
  for (const auto& s : r.shards) {
    for (std::size_t c = 0; c < kNumCounters; ++c)
      out.counters[c] += s.counters[c].load(std::memory_order_relaxed);
    for (std::size_t h = 0; h < kNumHists; ++h)
      for (std::size_t b = 0; b < kHistBuckets; ++b)
        out.hists[h].buckets[b] +=
            s.hists[h][b].load(std::memory_order_relaxed);
  }
  for (std::size_t h = 0; h < kNumHists; ++h)
    for (std::size_t b = 0; b < kHistBuckets; ++b)
      out.hists[h].total += out.hists[h].buckets[b];
  out.bytes_live_peak = r.bytes_live_peak.load(std::memory_order_relaxed);
  return out;
}

// Zero every cell. NOT safe under concurrent mutation (a racing record may
// land before or after the wipe) — call only while the process is
// quiescent; tests and the bench A/B gate do. Monotonicity guarantees
// restart from the reset point.
inline void reset() {
  if constexpr (!metrics_compiled_in) return;
  auto& r = detail::reg();
  for (auto& s : r.shards) {
    for (std::size_t c = 0; c < kNumCounters; ++c)
      s.counters[c].store(0, std::memory_order_relaxed);
    for (std::size_t h = 0; h < kNumHists; ++h)
      for (std::size_t b = 0; b < kHistBuckets; ++b)
        s.hists[h][b].store(0, std::memory_order_relaxed);
  }
  r.bytes_live_peak.store(0, std::memory_order_relaxed);
}

}  // namespace pbds::telemetry
