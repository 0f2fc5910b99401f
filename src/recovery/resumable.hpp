// resumable_result<T> — partially-materialized storage that survives a
// failure — and job_checkpoint, the per-job container the pipeline service
// threads through retries (a caller may keep it and submit it again after
// a drain).
//
// Storage model: one parray<T> (shared_ptr so a completed result can be
// exposed as a rad_shared view without copying) plus a block_ledger over
// it. Element-lifetime invariants, maintained jointly with the guarded
// loop of delayed::detail::fill_blocks run with the ledger hooks of
// checkpoint_ops.hpp:
//
//   * untouched block (neither started nor complete): slots UNCONSTRUCTED;
//   * started block: every slot constructed (final values or T()
//     placeholders) — the guarded loop placeholder-fills on any throw;
//   * complete block: every slot holds its final value.
//
// For non-trivially-destructible T the parray destructor destroys all n
// slots, so before the storage can be dropped while incomplete, untouched
// blocks are default-filled under a cancel_shield (sanitize) — the same
// PR-2 discipline used by parray::tabulate. The storage only escapes
// (shared_value / value) once ALL blocks are complete, so an escaped array
// is always fully constructed.
//
// Completed results are deliberately retained: a checkpointed op re-entered
// after its slot completed salvages every block and returns the same
// storage, which is what makes multi-op jobs resume without redoing
// earlier stages. The memory is released when the owning checkpoint dies;
// until then the retained bytes ARE the salvaged work.
#pragma once

#include <cassert>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <type_traits>

#include "array/parray.hpp"
#include "recovery/block_ledger.hpp"
#include "recovery/progress.hpp"
#include "sched/cancellation.hpp"

namespace pbds::recovery {

template <typename T>
class resumable_result {
 public:
  static_assert(std::is_nothrow_default_constructible_v<T> ||
                    std::is_trivially_destructible_v<T>,
                "resumable_result requires nothrow-default-constructible "
                "placeholders for types with real destructors");

  resumable_result() = default;
  ~resumable_result() { drop_storage(); }
  resumable_result(const resumable_result&) = delete;
  resumable_result& operator=(const resumable_result&) = delete;

  // Establish the geometry for an attempt. Same geometry + live storage
  // => resume (completed blocks preserved); anything else starts fresh.
  // The storage allocation goes through the tracked/budgeted allocator
  // and may throw budget_exceeded — in that case the next attempt simply
  // retries the allocation here.
  void bind(std::size_t n, std::size_t blk) {
    if (blk == 0) blk = 1;
    bool same = ledger_.bound() && ledger_.size() == n &&
                ledger_.unit_size() == blk;
    if (same && storage_) return;
    drop_storage();
    ledger_.bind(n, blk);
    ledger_.clear_completion();
    storage_ = std::make_shared<parray<T>>(parray<T>::uninitialized(n));
  }

  [[nodiscard]] block_ledger& ledger() { return ledger_; }
  [[nodiscard]] const block_ledger& ledger() const { return ledger_; }

  [[nodiscard]] T* data() { return storage_ ? storage_->data() : nullptr; }

  [[nodiscard]] bool complete() const {
    return storage_ != nullptr && ledger_.bound() && ledger_.all_complete();
  }

  // The completed array; valid only while this resumable_result (or a
  // shared_value handle) lives.
  [[nodiscard]] const parray<T>& value() const {
    assert(complete() && "resumable_result::value before completion");
    return *storage_;
  }

  // Shared ownership of the completed array (for rad_shared views).
  [[nodiscard]] std::shared_ptr<parray<T>> shared_value() const {
    assert(complete() && "resumable_result::shared_value before completion");
    return storage_;
  }

  [[nodiscard]] progress snapshot() const {
    return ledger_.snapshot(sizeof(T));
  }

  // Drop all progress and storage (element-lifetime safe).
  void reset() {
    drop_storage();
    ledger_.reset();
  }

 private:
  // Default-fill every untouched block so the parray destructor (which
  // destroys all n slots) is safe to run on incomplete storage.
  void sanitize() noexcept {
    if constexpr (!std::is_trivially_destructible_v<T>) {
      if (!storage_ || storage_->empty() || ledger_.all_complete()) return;
      sched::cancel_shield shield;
      T* p = storage_->data();
      std::size_t nb = ledger_.num_blocks();
      std::size_t blk = ledger_.unit_size();
      for (std::size_t j = 0; j < nb; ++j) {
        if (ledger_.is_started(j) || ledger_.is_complete(j)) continue;
        std::size_t base = j * blk;
        std::size_t len = ledger_.block_length(j);
        for (std::size_t k = 0; k < len; ++k) ::new (p + base + k) T();
      }
    }
  }

  void drop_storage() noexcept {
    if (!storage_) return;
    sanitize();
    storage_.reset();
  }

  std::shared_ptr<parray<T>> storage_;
  block_ledger ledger_;
};

// -------------------------------------------------------------------------
// job_checkpoint: a type-erased bag of resumable_results keyed by slot id,
// carried across attempts of one service job (and across services when a
// caller submits it again). A job's thunk asks for its slots by stable keys:
//
//   auto& rr = ck.slot<std::uint64_t>(0);
//   total = recovery::reduce(plus, 0ull, seq, rr);
//
// slot() is thread-safe (a drain-time aggregate() may race a running
// attempt); references returned by slot() are stable for the checkpoint's
// lifetime.

class job_checkpoint {
 public:
  job_checkpoint() = default;
  job_checkpoint(const job_checkpoint&) = delete;
  job_checkpoint& operator=(const job_checkpoint&) = delete;

  template <typename T>
  [[nodiscard]] resumable_result<T>& slot(std::size_t key) {
    std::lock_guard<std::mutex> lock(m_);
    auto it = slots_.find(key);
    if (it == slots_.end()) {
      it = slots_.emplace(key, std::make_unique<slot_impl<T>>()).first;
    }
    auto* typed = dynamic_cast<slot_impl<T>*>(it->second.get());
    if (typed == nullptr) {
      throw std::logic_error(
          "pbds::recovery::job_checkpoint: slot reused with a different "
          "element type");
    }
    return typed->rr;
  }

  // Sum of per-slot progress. Safe to call while an attempt is running
  // (ledger counters are atomic); the result is then a consistent-enough
  // snapshot for reporting, not a linearizable one.
  [[nodiscard]] progress aggregate() const {
    std::lock_guard<std::mutex> lock(m_);
    progress p;
    for (const auto& [key, s] : slots_) p += s->snapshot();
    return p;
  }

  // Attempt bookkeeping: the service bumps this once per thunk
  // execution.
  void begin_attempt() {
    attempts_.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t attempts() const {
    return attempts_.load(std::memory_order_relaxed);
  }

 private:
  struct slot_base {
    virtual ~slot_base() = default;
    [[nodiscard]] virtual progress snapshot() const = 0;
  };
  template <typename T>
  struct slot_impl final : slot_base {
    resumable_result<T> rr;
    [[nodiscard]] progress snapshot() const override { return rr.snapshot(); }
  };

  mutable std::mutex m_;
  std::map<std::size_t, std::unique_ptr<slot_base>> slots_;
  std::atomic<std::uint64_t> attempts_{0};
};

}  // namespace pbds::recovery
