// Checkpointed variants of the blockwise terminal operations.
//
// Each op takes the usual sequence arguments plus a resumable_result bound
// to the operation's block geometry, and is the plain delayed:: op with
// one difference: its blocks (to_array's output blocks, or the block sums
// of reduce and scan) are filled into the result's storage by the same
// delayed::detail::fill_blocks skeleton, with ledger hooks instead of
// no-ops; reduce's fold and scan's phases 2-3 are the plain ops' code. If
// an attempt dies (budget_exceeded, stall_detected, injected fault,
// cooperative cancellation), completed blocks stay recorded in the
// ledger, and a re-entry with the same resumable_result skips them —
// idempotent re-execution at block granularity. A budget_exceeded or
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

#include "array/parray.hpp"
#include "core/bid.hpp"
#include "core/delayed.hpp"
#include "core/rad.hpp"
#include "memory/budget.hpp"
#include "recovery/block_ledger.hpp"
#include "recovery/resumable.hpp"
#include "sched/cancellation.hpp"
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

// The hooks that make delayed::detail::fill_blocks checkpointed: completed
// blocks are salvaged, each incomplete block consults the boundary-fault
// injector before it starts (arming it also forces the guarded loop, so a
// fault leaves storage in the documented uniform state), a redo of a block
// an earlier attempt started destroys its slots first, and completion is
// published to the ledger. Blocks that never began stay unconstructed:
// resumable_result fills them if it drops incomplete storage.
template <typename T>
struct ledger_hooks {
  static constexpr bool keeps_untouched = true;
  block_ledger& led;

  [[nodiscard]] bool guarded() const { return boundary_faults_armed(); }
  [[nodiscard]] bool skip(std::size_t j) const {
    if (!led.is_complete(j)) return false;
    led.note_salvaged();
    return true;
  }
  void before(std::size_t) const { maybe_inject_boundary_fault(); }
  void begin(std::size_t j, T* out, std::size_t len) const {
    bool redo = led.mark_started(j);
    // A started block has every slot constructed (resumable.hpp
    // invariant); clear them before reconstructing.
    if constexpr (!std::is_trivially_destructible_v<T>) {
      if (redo) std::destroy_n(out, len);
    }
  }
  void done(std::size_t j, std::size_t len) const {
    led.mark_complete(j);
    telemetry::observe(telemetry::hist::block_bytes, len * sizeof(T));
  }
};

// Bind rr to bd's geometry and run the skeleton over its incomplete
// blocks.
template <typename Bid, typename T>
void fill_checkpointed(const Bid& bd, resumable_result<T>& rr) {
  static_assert(std::is_same_v<typename Bid::value_type, T>,
                "resumable_result element type must match the sequence");
  // Refuse to bind geometry computed under a collapsed region: bd.n may
  // be garbage from an unfinished upstream pipeline, and the ledger's
  // bitmap is deliberately budget-exempt.
  throw_if_region_cancelled();
  rr.bind(bd.n, bd.block_size);
  delayed::detail::fill_blocks(bd, rr.data(), ledger_hooks<T>{rr.ledger()});
  // An enclosing-region cancellation collapses the unguarded loop without
  // unwinding this frame (the root rethrows only at region exit); never
  // hand back incomplete storage.
  if (!rr.ledger().all_complete()) throw attempt_interrupted{};
}

// Checkpointed scan: phase 1 (block sums — the expensive re-reading pass)
// is checkpointed; phases 2-3 (O(#blocks) sequential offsets + the delayed
// output BID) are rebuilt per attempt, as they cost O(#blocks) and
// allocate only the partials array.
template <template <typename, typename> class Stream, typename F,
          typename T, typename Seq>
[[nodiscard]] auto scan_with(const F& f, const T& z, const Seq& s,
                             resumable_result<T>& rr) {
  auto bd = delayed::bid_of(delayed::as_seq(s));
  return with_progress(rr, [&] {
    fill_checkpointed(delayed::detail::block_sums(bd, f, z), rr);
    return delayed::detail::scan_from_sums<Stream>(bd, f, z, rr.value());
  });
}

}  // namespace detail

// --- to_array / force -------------------------------------------------------

// Checkpointed toArray. Returns a reference to the slot-owned array; it
// stays valid while `rr` (or any shared_value handle) lives. Accepts a
// RAD, BID, or parray, exactly like delayed::to_array.
template <typename Seq, typename T>
const parray<T>& to_array(const Seq& s, resumable_result<T>& rr) {
  auto bd = delayed::bid_of(delayed::as_seq(s));
  return detail::with_progress(rr, [&]() -> const parray<T>& {
    detail::fill_checkpointed(bd, rr);
    return rr.value();
  });
}

// Checkpointed force: the result RAD shares ownership of the slot's
// storage, so it stays valid after the checkpoint is discarded.
template <typename Seq, typename T>
[[nodiscard]] auto force(const Seq& s, resumable_result<T>& rr) {
  (void)to_array(s, rr);
  return rad_shared(rr.shared_value());
}

// --- reduce / scan / scan_inclusive -----------------------------------------

// The per-block partial sums are the recovery units. The final O(#blocks)
// scalar fold re-runs on every attempt (it is not a "block execution" —
// no input element is re-pulled for a completed block).
template <typename F, typename T, typename Seq>
[[nodiscard]] T reduce(const F& f, T z, const Seq& s,
                       resumable_result<T>& rr) {
  auto bd = delayed::bid_of(delayed::as_seq(s));
  return detail::with_progress(rr, [&] {
    detail::fill_checkpointed(delayed::detail::block_sums(bd, f, z), rr);
    return delayed::detail::fold_sums(f, z, rr.value());
  });
}

template <typename F, typename T, typename Seq>
[[nodiscard]] auto scan(const F& f, T z, const Seq& s,
                        resumable_result<T>& rr) {
  return detail::scan_with<stream::scan_stream>(f, z, s, rr);
}

template <typename F, typename T, typename Seq>
[[nodiscard]] auto scan_inclusive(const F& f, T z, const Seq& s,
                                  resumable_result<T>& rr) {
  return detail::scan_with<stream::scan_inclusive_stream>(f, z, s, rr);
}

}  // namespace pbds::recovery
