// Memory budget governor: a byte budget on live tracked allocations.
//
// The paper's value proposition is bounded space — delayed pipelines exist
// to keep max residency low (§6.3) — and tracking.hpp *measures* that
// residency byte-exactly. This header *enforces* it: a process-wide limit
// (env PBDS_BUDGET_BYTES, or RAII-scoped via budget_scope) checked at the
// single allocation choke point (tracking.hpp's admit/commit pair). An
// allocation that would push bytes_live past the limit is refused with
// pbds::budget_exceeded — an exception carrying requested/live/limit that
// propagates through the fork-join cancellation protocol like any other
// failure, so "out of budget" is a catchable, replayable error instead of
// an OOM kill.
//
// Admission is reservation-based and race-tight: admit_alloc (tracking.hpp)
// reserves the requested bytes against the limit with a fetch_add before
// the real allocation, and note_alloc converts the reservation into live
// bytes afterwards. Two threads racing past a naive check-then-allocate
// could overcommit; with the reservation they cannot — the governor is
// byte-exact even under the real pool.
//
// A refusal is not retried and has no fallback: every operation lets it
// propagate once, to the caller of the pipeline (DESIGN.md §7).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <mutex>
#include <new>
#include <vector>

#include "core/env.hpp"

namespace pbds {

// Thrown when admitting an allocation would push live tracked bytes past
// the active budget. Derives from std::bad_alloc so every existing
// out-of-memory tolerance path (guarded construction, leak guarantees,
// cancellation propagation) treats a budget refusal exactly like the real
// allocator failing.
class budget_exceeded : public std::bad_alloc {
 public:
  budget_exceeded(std::size_t requested, std::int64_t live,
                  std::int64_t limit) noexcept
      : requested_(requested), live_(live), limit_(limit) {
    std::snprintf(what_, sizeof(what_),
                  "pbds::budget_exceeded: requested %zu bytes with %lld "
                  "live of a %lld-byte budget",
                  requested, static_cast<long long>(live),
                  static_cast<long long>(limit));
  }

  [[nodiscard]] const char* what() const noexcept override { return what_; }

  [[nodiscard]] std::size_t requested() const noexcept { return requested_; }
  [[nodiscard]] std::int64_t live() const noexcept { return live_; }
  [[nodiscard]] std::int64_t limit() const noexcept { return limit_; }

 private:
  std::size_t requested_;
  std::int64_t live_;
  std::int64_t limit_;
  // Fixed buffer: composing the message must not allocate — we are, by
  // definition, out of budget when this is constructed.
  char what_[160];
};

namespace memory {

namespace detail {

// Strict parse of PBDS_BUDGET_BYTES (pbds::detail::env_integer):
// full-string integer >= 1, warn once and fall back to unlimited on
// garbage.
inline std::int64_t budget_limit_from_env() {
  return static_cast<std::int64_t>(pbds::detail::env_integer(
      "PBDS_BUDGET_BYTES", 1, std::numeric_limits<long long>::max(), 0));
}

// The *base* limit (env / set_budget_limit); 0 = unlimited. Initialized
// from the environment on first touch. The enforced limit additionally
// composes active budget_scopes by min — see effective_limit_slot.
inline std::atomic<std::int64_t>& budget_limit_slot() {
  static std::atomic<std::int64_t> limit{budget_limit_from_env()};
  return limit;
}

// Active budget_scope limits, composed by min with the base limit into
// the cached effective limit below. A registry (rather than the old
// save/restore of a single global) makes concurrent scopes on different
// threads compose correctly regardless of construction/destruction
// order. Scope churn is per *pipeline*, not per allocation, so the mutex
// is cold.
inline std::mutex& scope_registry_mutex() {
  static std::mutex m;
  return m;
}

inline std::vector<std::int64_t>& scope_registry() {
  static std::vector<std::int64_t> v;
  return v;
}

// Cached min(base, active scopes); 0 = unlimited. This is the only word
// the allocation hot path reads.
inline std::atomic<std::int64_t>& effective_limit_slot() {
  static std::atomic<std::int64_t> limit{budget_limit_slot().load(
      std::memory_order_relaxed)};
  return limit;
}

// Call with scope_registry_mutex held (or from set_budget_limit, which
// takes it).
inline void recompute_effective_limit() {
  std::int64_t eff = budget_limit_slot().load(std::memory_order_relaxed);
  for (std::int64_t s : scope_registry()) {
    if (eff <= 0 || s < eff) eff = s;
  }
  effective_limit_slot().store(eff, std::memory_order_relaxed);
}

// Bytes admitted but not yet converted to bytes_live (see tracking.hpp's
// admit/commit pair). Counted against the limit so concurrent admissions
// cannot overcommit.
inline std::atomic<std::int64_t> g_budget_reserved{0};

// Total refusals, for tests.
inline std::atomic<std::int64_t> g_budget_refusals{0};

}  // namespace detail

// The enforced limit: min of the base limit and every active
// budget_scope; 0 = unlimited.
[[nodiscard]] inline std::int64_t budget_limit() {
  return detail::effective_limit_slot().load(std::memory_order_relaxed);
}

// Set (or clear, with 0) the process-wide base budget. Prefer
// budget_scope.
inline void set_budget_limit(std::int64_t bytes) {
  std::lock_guard<std::mutex> lock(detail::scope_registry_mutex());
  detail::budget_limit_slot().store(bytes, std::memory_order_relaxed);
  detail::recompute_effective_limit();
}

// Re-read PBDS_BUDGET_BYTES into the base limit. The slot caches the env
// on first touch; tests that snapshot/clear the environment
// (tests/differential.hpp scoped_env) call this so the cleared env is
// actually observed instead of the stale first-touch value.
inline void reload_budget_limit_from_env() {
  set_budget_limit(detail::budget_limit_from_env());
}

[[nodiscard]] inline std::int64_t budget_refusals() {
  return detail::g_budget_refusals.load(std::memory_order_relaxed);
}

// RAII budget: tightens the enforced limit to min(enclosing, bytes) for
// the scope's lifetime, so scopes compose (an inner scope can only
// restrict, never loosen, what the outer one granted). Scopes register in
// a process-wide min-composed registry, so concurrent scopes on different
// threads are safe and order-independent: the enforced limit is always
// the tightest active one. Non-positive `bytes` imposes no constraint.
class budget_scope {
 public:
  explicit budget_scope(std::int64_t bytes) : bytes_(bytes) {
    if (bytes_ <= 0) return;
    std::lock_guard<std::mutex> lock(detail::scope_registry_mutex());
    detail::scope_registry().push_back(bytes_);
    detail::recompute_effective_limit();
  }

  ~budget_scope() {
    if (bytes_ <= 0) return;
    std::lock_guard<std::mutex> lock(detail::scope_registry_mutex());
    auto& v = detail::scope_registry();
    for (auto it = v.begin(); it != v.end(); ++it) {
      if (*it == bytes_) {
        v.erase(it);
        break;
      }
    }
    detail::recompute_effective_limit();
  }

  budget_scope(const budget_scope&) = delete;
  budget_scope& operator=(const budget_scope&) = delete;

 private:
  std::int64_t bytes_;
};

}  // namespace memory
}  // namespace pbds
