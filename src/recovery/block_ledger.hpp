// Per-block completion ledger + boundary fault injection.
//
// block_ledger records which blocks (units) of a blockwise operation have
// completed, using an atomic bitmap so concurrent workers can mark blocks
// without coordination. It survives a thrown budget_exceeded /
// stall_detected / cooperative cancellation (it lives outside the failing
// attempt, typically inside a resumable_result), so a re-entry can skip
// completed blocks and re-run only the rest.
//
// Two bitmaps are kept:
//   complete — block j's output slots hold their final values
//   started  — block j was begun by some attempt; for non-trivially-
//              destructible element types the guarded construction paths
//              maintain the invariant that a *started* block has every slot
//              constructed (real values or T() placeholders), which is what
//              makes redo-by-destroy-then-reconstruct safe.
//
// Ledger memory is allocated with plain new[] on purpose: bookkeeping must
// not count against the process budget or perturb bytes_live accounting,
// and it must be obtainable even while the budget is exhausted (that is
// exactly when a ledger is most needed).
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>

#include "memory/budget.hpp"
#include "memory/tracking.hpp"
#include "recovery/progress.hpp"
#include "sched/cancellation.hpp"
#include "telemetry/metrics.hpp"

namespace pbds::recovery {

// -------------------------------------------------------------------------
// block_ledger

class block_ledger {
 public:
  block_ledger() = default;
  block_ledger(const block_ledger&) = delete;
  block_ledger& operator=(const block_ledger&) = delete;

  // Establish (or re-establish) the geometry: n elements in units of blk.
  // Binding with the same geometry is a resume: progress is preserved.
  // Binding with a different geometry discards all completion state (the
  // caller is responsible for any element-lifetime cleanup first — see
  // resumable_result). Called between attempts, never concurrently with
  // mark_* on the same ledger.
  void bind(std::size_t n, std::size_t blk) {
    if (blk == 0) blk = 1;
    std::size_t nb = n == 0 ? 0 : (n + blk - 1) / blk;
    if (bound_ && n == n_.load(std::memory_order_relaxed) &&
        blk == blk_.load(std::memory_order_relaxed)) {
      return;  // same geometry: resume
    }
    std::size_t words = (nb + 63) / 64;
    complete_.reset(words ? new std::atomic<std::uint64_t>[words] : nullptr);
    started_.reset(words ? new std::atomic<std::uint64_t>[words] : nullptr);
    for (std::size_t w = 0; w < words; ++w) {
      complete_[w].store(0, std::memory_order_relaxed);
      started_[w].store(0, std::memory_order_relaxed);
    }
    n_.store(n, std::memory_order_relaxed);
    blk_.store(blk, std::memory_order_relaxed);
    nb_.store(nb, std::memory_order_relaxed);
    complete_count_.store(0, std::memory_order_relaxed);
    elements_complete_.store(0, std::memory_order_relaxed);
    bound_ = true;
  }

  // Forget completion state but keep the geometry (and the cumulative
  // execution statistics). Element lifetimes are the caller's problem.
  void clear_completion() {
    std::size_t words = (num_blocks() + 63) / 64;
    for (std::size_t w = 0; w < words; ++w) {
      complete_[w].store(0, std::memory_order_relaxed);
      started_[w].store(0, std::memory_order_relaxed);
    }
    complete_count_.store(0, std::memory_order_relaxed);
    elements_complete_.store(0, std::memory_order_relaxed);
  }

  void reset() {
    complete_.reset();
    started_.reset();
    bound_ = false;
    n_.store(0, std::memory_order_relaxed);
    blk_.store(0, std::memory_order_relaxed);
    nb_.store(0, std::memory_order_relaxed);
    complete_count_.store(0, std::memory_order_relaxed);
    elements_complete_.store(0, std::memory_order_relaxed);
  }

  [[nodiscard]] bool bound() const { return bound_; }
  [[nodiscard]] std::size_t size() const {
    return n_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t unit_size() const {
    return blk_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t num_blocks() const {
    return nb_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t block_length(std::size_t j) const {
    std::size_t n = size(), blk = unit_size();
    std::size_t base = j * blk;
    return base >= n ? 0 : (n - base < blk ? n - base : blk);
  }

  [[nodiscard]] bool is_complete(std::size_t j) const {
    return (complete_[j >> 6].load(std::memory_order_acquire) >>
            (j & 63)) & 1u;
  }
  [[nodiscard]] bool is_started(std::size_t j) const {
    return (started_[j >> 6].load(std::memory_order_acquire) >> (j & 63)) & 1u;
  }

  // Record that some attempt is (re)executing block j. Returns true when the
  // block had already been started by an earlier (failed) attempt — i.e.
  // this execution is a redo. Also bumps the cumulative execution counter.
  bool mark_started(std::size_t j) {
    executions_.fetch_add(1, std::memory_order_relaxed);
    std::uint64_t bit = std::uint64_t{1} << (j & 63);
    std::uint64_t prev =
        started_[j >> 6].fetch_or(bit, std::memory_order_acq_rel);
    bool redo = (prev & bit) != 0;
    if (redo) {
      redone_.fetch_add(1, std::memory_order_relaxed);
      telemetry::count(telemetry::counter::blocks_redone);
    }
    return redo;
  }

  // Publish block j's slots as final. The release pairs with is_complete's
  // acquire so a later attempt observing the bit also observes the values.
  // Exactly one execution completes each block (salvage checks the bit
  // first): completing a block twice means execution accounting is broken,
  // so it asserts in debug builds and is surfaced through
  // double_completed() in release builds instead of silently overcounting
  // salvage on the next attempt.
  void mark_complete(std::size_t j) {
    std::uint64_t bit = std::uint64_t{1} << (j & 63);
    std::uint64_t prev =
        complete_[j >> 6].fetch_or(bit, std::memory_order_release);
    if (!(prev & bit)) {
      complete_count_.fetch_add(1, std::memory_order_relaxed);
      elements_complete_.fetch_add(block_length(j), std::memory_order_relaxed);
    } else {
      double_completed_.fetch_add(1, std::memory_order_relaxed);
      assert(false && "block_ledger::mark_complete: block completed twice");
    }
  }

  // Record that an attempt skipped block j because it was already complete.
  void note_salvaged() {
    salvaged_.fetch_add(1, std::memory_order_relaxed);
    telemetry::count(telemetry::counter::blocks_salvaged);
  }

  [[nodiscard]] std::size_t blocks_complete() const {
    return complete_count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t elements_complete() const {
    return elements_complete_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool all_complete() const {
    return blocks_complete() == num_blocks();
  }
  [[nodiscard]] std::uint64_t executions() const {
    return executions_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t salvaged() const {
    return salvaged_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t redone() const {
    return redone_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t double_completed() const {
    return double_completed_.load(std::memory_order_relaxed);
  }

  // element_bytes lets the owner scale elements into bytes (the ledger is
  // deliberately type-blind).
  [[nodiscard]] progress snapshot(std::size_t element_bytes) const {
    progress p;
    p.blocks_total = num_blocks();
    p.blocks_complete = blocks_complete();
    p.bytes_complete = elements_complete() * element_bytes;
    p.executions = executions();
    p.salvaged = salvaged();
    p.redone = redone();
    return p;
  }

 private:
  // Geometry fields are atomics (relaxed) only so that a concurrent
  // aggregate() from the service's drain path reads them without a data
  // race; they are logically written only between attempts.
  std::unique_ptr<std::atomic<std::uint64_t>[]> complete_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> started_;
  std::atomic<std::size_t> n_{0};
  std::atomic<std::size_t> blk_{0};
  std::atomic<std::size_t> nb_{0};
  std::atomic<std::size_t> complete_count_{0};
  std::atomic<std::size_t> elements_complete_{0};
  std::atomic<std::uint64_t> executions_{0};
  std::atomic<std::uint64_t> salvaged_{0};
  std::atomic<std::uint64_t> redone_{0};
  std::atomic<std::uint64_t> double_completed_{0};
  bool bound_ = false;
};

// -------------------------------------------------------------------------
// Boundary fault injection: deterministic faults at block boundaries of
// checkpointed operations. A one-shot process-global countdown: the
// (count+1)-th unit start after arming throws. Used by the crash-at-every-
// block-boundary sweep; arming also forces the guarded construction paths
// so a mid-operation throw leaves storage in the documented uniform state.

class boundary_fault : public std::runtime_error {
 public:
  boundary_fault() : std::runtime_error("pbds: injected block-boundary fault") {}
};

enum class boundary_fault_kind { none, fault, stall, budget };

namespace detail {

struct boundary_fault_state {
  std::atomic<int> armed{0};
  std::atomic<boundary_fault_kind> kind{boundary_fault_kind::none};
  std::atomic<std::int64_t> countdown{-1};
  std::atomic<std::uint64_t> injected{0};
};

inline boundary_fault_state& bf_state() {
  static boundary_fault_state s;
  return s;
}

}  // namespace detail

[[nodiscard]] inline bool boundary_faults_armed() {
  return detail::bf_state().armed.load(std::memory_order_relaxed) != 0;
}

// Called by checkpointed operations immediately before executing an
// incomplete unit. One-shot: fires exactly once per arming.
inline void maybe_inject_boundary_fault() {
  auto& s = detail::bf_state();
  if (s.armed.load(std::memory_order_relaxed) == 0) return;
  if (s.countdown.fetch_sub(1, std::memory_order_acq_rel) != 0) return;
  s.injected.fetch_add(1, std::memory_order_relaxed);
  switch (s.kind.load(std::memory_order_relaxed)) {
    case boundary_fault_kind::stall:
      throw stall_detected("pbds: injected stall at block boundary");
    case boundary_fault_kind::budget: {
      // Marked injected so memory::budget_retry rethrows instead of
      // retrying: a fabricated refusal is not transient pressure, and the
      // sweep's propagation contract must hold regardless of whether an
      // ambient PBDS_BUDGET_BYTES has budget_active() true.
      budget_exceeded e(1, memory::bytes_live(), 1);
      e.mark_injected();
      throw e;
    }
    default:
      throw boundary_fault{};
  }
}

// RAII arming. `after` = number of unit starts to allow before throwing
// (0 = fault before the very first unit executes).
class scoped_boundary_faults {
 public:
  scoped_boundary_faults(boundary_fault_kind kind, std::int64_t after) {
    auto& s = detail::bf_state();
    s.kind.store(kind, std::memory_order_relaxed);
    s.countdown.store(after, std::memory_order_relaxed);
    s.injected.store(0, std::memory_order_relaxed);
    s.armed.store(1, std::memory_order_release);
  }
  ~scoped_boundary_faults() {
    auto& s = detail::bf_state();
    s.armed.store(0, std::memory_order_release);
    s.kind.store(boundary_fault_kind::none, std::memory_order_relaxed);
    s.countdown.store(-1, std::memory_order_relaxed);
  }
  scoped_boundary_faults(const scoped_boundary_faults&) = delete;
  scoped_boundary_faults& operator=(const scoped_boundary_faults&) = delete;

  // Number of faults actually delivered since arming (0 or 1).
  [[nodiscard]] std::uint64_t injected() const {
    return detail::bf_state().injected.load(std::memory_order_relaxed);
  }
};

}  // namespace pbds::recovery
