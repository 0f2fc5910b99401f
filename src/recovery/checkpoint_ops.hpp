// Checkpointed variants of the blockwise terminal operations.
//
// Each op takes the usual sequence arguments plus a resumable_result bound
// to the operation's block geometry. On first entry it behaves like the
// plain delayed:: op; if the attempt dies (budget_exceeded, stall_detected,
// injected fault, cooperative cancellation), completed blocks stay recorded
// in the ledger, and a re-entry with the same resumable_result skips them
// — idempotent re-execution at block granularity. A budget_exceeded or
// stall_detected leaving one of these ops carries the ledger's progress
// snapshot (attach_progress), so callers can see how far it got.
//
// Completed results are retained by the resumable_result (see
// resumable.hpp): re-entering an op whose slot already completed salvages
// every block and returns the same storage without re-executing anything.
// This is what lets a multi-op job resume in a later stage without
// redoing earlier stages.
//
// Purity contract: like plain to_array/reduce/scan, the input's index /
// block functions must be pure — a resumed attempt re-pulls only the
// blocks that did not complete, and the differential oracle
// (tests/differential.hpp) checks the result is bit-identical to an
// uninterrupted run.
#pragma once

#include <cstddef>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "array/parray.hpp"
#include "core/bid.hpp"
#include "core/delayed.hpp"
#include "core/rad.hpp"
#include "memory/budget.hpp"
#include "memory/tracking.hpp"
#include "recovery/block_ledger.hpp"
#include "recovery/resumable.hpp"
#include "sched/cancellation.hpp"
#include "sched/parallel.hpp"
#include "stream/streams.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace pbds::recovery {

// Thrown by a checkpointed op that observes its enclosing fork-join region
// was cooperatively cancelled (drain, deadline, watchdog). Nested joins
// collapse WITHOUT unwinding — apply simply returns — so without this
// check the op would hand its caller incomplete storage, and geometry
// computed by a collapsed upstream pipeline (a garbage element count from
// an unfinished filter pack, say) could reach the ledger's untracked
// bitmap allocator. The region root captures-and-drops this as a
// secondary failure and surfaces the cancellation's real cause; the
// ledger's completed blocks survive for the retry.
class attempt_interrupted : public std::runtime_error {
 public:
  attempt_interrupted()
      : std::runtime_error(
            "pbds: checkpointed attempt interrupted by region cancellation") {
  }
};

namespace detail {

inline void throw_if_region_cancelled() {
  if (sched::cancellation_requested()) throw attempt_interrupted{};
}

// Shared guard gate: non-trivial destructors always need the guarded
// (placeholder-filling) loops; injectors force them so a mid-block throw
// leaves storage in the documented uniform state.
template <typename T>
[[nodiscard]] inline bool guarded_construction() {
  return !std::is_trivially_destructible_v<T> ||
         memory::fault_injection_armed() || boundary_faults_armed();
}

// Run `f`; if a budget refusal or stall escapes, annotate it with the
// ledger's progress before it propagates. Under an active budget the
// attempt additionally goes through the drain/backoff retry ladder —
// each rung naturally resumes from the ledger.
template <typename T, typename F>
decltype(auto) with_progress(resumable_result<T>& rr, const F& f) {
  auto annotated = [&]() -> decltype(f()) {
    telemetry::trace_span span(telemetry::trace_kind::retry,
                               "checkpoint_attempt");
    try {
      return f();
    } catch (budget_exceeded& e) {
      e.attach_progress(rr.snapshot());
      throw;
    } catch (stall_detected& e) {
      e.attach_progress(rr.snapshot());
      throw;
    }
  };
  if (memory::budget_active()) return memory::budget_retry(annotated);
  return annotated();
}

// Materialize every incomplete block of `bd` into rr's storage (rr bound
// to (bd.n, bd.block_size)). Completed blocks are skipped (salvaged);
// started-but-incomplete blocks are destroyed and reconstructed.
template <typename Bid, typename T>
void materialize_blocks(const Bid& bd, resumable_result<T>& rr) {
  block_ledger& led = rr.ledger();
  T* q = rr.data();
  std::size_t nb = led.num_blocks();
  const std::size_t blk = led.unit_size();
  if constexpr (std::is_nothrow_default_constructible_v<T>) {
    if (guarded_construction<T>()) {
      // Shielded + self-catching, as parray::tabulate / to_array_eager:
      // a throw must not skip chunks (that would leave slots in an
      // unknown state), so the loop is its own cancellation domain.
      sched::cancel_shield shield;
      memory::first_exception err;
      apply(nb, [&, q](std::size_t j) {
        std::size_t base = j * blk;
        std::size_t len = led.block_length(j);
        if (led.is_complete(j)) {
          led.note_salvaged();
          return;
        }
        if (err.triggered()) return;  // block stays untouched
        try {
          maybe_inject_boundary_fault();
        } catch (...) {
          err.capture();
          return;  // pre-start fault: block stays untouched
        }
        bool redo = led.mark_started(j);
        if constexpr (!std::is_trivially_destructible_v<T>) {
          // A started block has every slot constructed (resumable.hpp
          // invariant); clear them before reconstructing.
          if (redo) {
            for (std::size_t k = 0; k < len; ++k) (q + base + k)->~T();
          }
        }
        std::size_t k = 0;
        try {
          auto st = bd.block(j);
          for (; k < len; ++k) ::new (q + base + k) T(st.next());
          led.mark_complete(j);
          telemetry::observe(telemetry::hist::block_bytes, len * sizeof(T));
          return;
        } catch (...) {
          err.capture();
        }
        for (; k < len; ++k) ::new (q + base + k) T();
      });
      err.rethrow_if_set();
      return;
    }
  }
  // Fast path: trivial T, no injectors. Bulk drain per block (contiguous
  // sources lower to one memcpy); a throw (real allocator, budget) unwinds
  // via the region cancellation protocol and the block simply stays
  // incomplete — trivial slots need no lifetime repair.
  apply(nb, [&, q](std::size_t j) {
    std::size_t base = j * blk;
    std::size_t len = led.block_length(j);
    if (led.is_complete(j)) {
      led.note_salvaged();
      return;
    }
    led.mark_started(j);
    auto st = bd.block(j);
    stream::drain_into(st, q + base, len);
    led.mark_complete(j);
    telemetry::observe(telemetry::hist::block_bytes, len * sizeof(T));
  });
  // An enclosing-region cancellation collapses the apply without unwinding
  // this frame (the root rethrows only at region exit); never hand back
  // incomplete storage.
  if (!led.all_complete()) throw attempt_interrupted{};
}

// Materialize single-value units: unit j of rr (bound with unit_size 1)
// is produce(j). Used for the per-block partial sums of reduce/scan.
template <typename T, typename P>
void materialize_units(resumable_result<T>& rr, const P& produce) {
  block_ledger& led = rr.ledger();
  T* q = rr.data();
  std::size_t nb = led.num_blocks();
  if constexpr (std::is_nothrow_default_constructible_v<T>) {
    if (guarded_construction<T>()) {
      sched::cancel_shield shield;
      memory::first_exception err;
      apply(nb, [&, q](std::size_t j) {
        if (led.is_complete(j)) {
          led.note_salvaged();
          return;
        }
        if (err.triggered()) return;
        try {
          maybe_inject_boundary_fault();
        } catch (...) {
          err.capture();
          return;
        }
        bool redo = led.mark_started(j);
        if constexpr (!std::is_trivially_destructible_v<T>) {
          if (redo) (q + j)->~T();
        }
        try {
          ::new (q + j) T(produce(j));
          led.mark_complete(j);
          return;
        } catch (...) {
          err.capture();
        }
        ::new (q + j) T();
      });
      err.rethrow_if_set();
      return;
    }
  }
  apply(nb, [&, q](std::size_t j) {
    if (led.is_complete(j)) {
      led.note_salvaged();
      return;
    }
    led.mark_started(j);
    ::new (q + j) T(produce(j));
    led.mark_complete(j);
  });
  if (!led.all_complete()) throw attempt_interrupted{};
}

}  // namespace detail

// --- to_array / force -------------------------------------------------------

// Checkpointed toArray. Returns a reference to the slot-owned array; it
// stays valid while `rr` (or any shared_value handle) lives. Accepts a
// RAD, BID, or parray, exactly like delayed::to_array.
template <typename Seq, typename T>
const parray<T>& to_array(const Seq& s, resumable_result<T>& rr) {
  auto bd = delayed::bid_of(delayed::as_seq(s));
  static_assert(
      std::is_same_v<typename std::decay_t<decltype(bd)>::value_type, T>,
      "resumable_result element type must match the sequence");
  auto attempt = [&]() -> const parray<T>& {
    // Refuse to bind geometry computed under a collapsed region: bd.n may
    // be garbage from an unfinished upstream pipeline, and the ledger's
    // bitmap is deliberately budget-exempt.
    detail::throw_if_region_cancelled();
    rr.bind(bd.n, bd.block_size);
    detail::materialize_blocks(bd, rr);
    return rr.value();
  };
  return detail::with_progress(rr, attempt);
}

// Checkpointed force: the result RAD shares ownership of the slot's
// storage, so it stays valid after the checkpoint is discarded.
template <typename Seq, typename T>
[[nodiscard]] auto force(const Seq& s, resumable_result<T>& rr) {
  (void)to_array(s, rr);
  return rad_shared(rr.shared_value());
}

// --- reduce -----------------------------------------------------------------

// Checkpointed blockwise reduce: the per-block partial sums are the
// recovery units. The final O(#blocks) scalar fold re-runs on every
// attempt (it is not a "block execution" — no input element is re-pulled
// for a completed block).
template <typename F, typename T, typename Seq>
[[nodiscard]] T reduce(const F& f, T z, const Seq& s,
                       resumable_result<T>& rr) {
  auto bd = delayed::bid_of(delayed::as_seq(s));
  std::size_t nb = bd.num_blocks();
  auto attempt = [&]() -> T {
    detail::throw_if_region_cancelled();
    rr.bind(nb, 1);
    detail::materialize_units(
        rr, [&](std::size_t j) {
          return stream::reduce(bd.block(j), bd.block_length(j), f, z);
        });
    const parray<T>& sums = rr.value();
    T acc = z;
    for (std::size_t j = 0; j < nb; ++j) acc = f(acc, sums[j]);
    return acc;
  };
  return detail::with_progress(rr, attempt);
}

// --- scan / scan_inclusive --------------------------------------------------

// Checkpointed exclusive scan: phase 1 (block sums — the expensive
// re-reading pass) is checkpointed; phases 2-3 (O(#blocks) sequential
// offsets + the delayed output BID) are rebuilt per attempt, as they cost
// O(#blocks) and allocate only the partials array.
template <typename F, typename T, typename Seq>
[[nodiscard]] auto scan(const F& f, T z, const Seq& s,
                        resumable_result<T>& rr) {
  auto bd = delayed::bid_of(delayed::as_seq(s));
  std::size_t nb = bd.num_blocks();
  auto attempt = [&] {
    detail::throw_if_region_cancelled();
    rr.bind(nb, 1);
    detail::materialize_units(
        rr, [&](std::size_t j) {
          return stream::reduce(bd.block(j), bd.block_length(j), f, z);
        });
    const parray<T>& sums = rr.value();
    auto partials =
        std::make_shared<parray<T>>(parray<T>::uninitialized(nb));
    T acc = z;
    for (std::size_t j = 0; j < nb; ++j) {
      ::new (partials->data() + j) T(acc);
      acc = f(acc, sums[j]);
    }
    auto block_fn = [b = bd.b, partials, f](std::size_t j) {
      return stream::scan_stream{b(j), f, (*partials)[j]};
    };
    return std::pair(make_bid(bd.n, bd.block_size, std::move(block_fn)),
                     acc);
  };
  return detail::with_progress(rr, attempt);
}

template <typename F, typename T, typename Seq>
[[nodiscard]] auto scan_inclusive(const F& f, T z, const Seq& s,
                                  resumable_result<T>& rr) {
  auto bd = delayed::bid_of(delayed::as_seq(s));
  std::size_t nb = bd.num_blocks();
  auto attempt = [&] {
    detail::throw_if_region_cancelled();
    rr.bind(nb, 1);
    detail::materialize_units(
        rr, [&](std::size_t j) {
          return stream::reduce(bd.block(j), bd.block_length(j), f, z);
        });
    const parray<T>& sums = rr.value();
    auto partials =
        std::make_shared<parray<T>>(parray<T>::uninitialized(nb));
    T acc = z;
    for (std::size_t j = 0; j < nb; ++j) {
      ::new (partials->data() + j) T(acc);
      acc = f(acc, sums[j]);
    }
    auto block_fn = [b = bd.b, partials, f](std::size_t j) {
      return stream::scan_inclusive_stream{b(j), f, (*partials)[j]};
    };
    return std::pair(make_bid(bd.n, bd.block_size, std::move(block_fn)),
                     acc);
  };
  return detail::with_progress(rr, attempt);
}

}  // namespace pbds::recovery
