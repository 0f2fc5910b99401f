// parray<T> — the tracked parallel array underlying all three libraries.
//
// This is the `array` type of the paper's Fig. 7: a fixed-size array that
// is constructed in parallel (a.tabulate) and whose allocation is visible
// to the space accounting. It is move-only (copies of multi-gigabyte
// buffers should never be accidental; use clone()).
//
// Element lifetimes: tabulate/filled construct every element; the
// uninitialized factory leaves elements unconstructed and the caller must
// construct all of them (e.g. to_array walking a delayed sequence) before
// the parray is destroyed, unless T is trivially destructible.
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "memory/tracking.hpp"
#include "sched/parallel.hpp"

namespace pbds {

template <typename T>
class parray {
 public:
  using value_type = T;

  parray() noexcept = default;

  ~parray() { release(); }

  parray(parray&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        n_(std::exchange(other.n_, 0)) {}

  parray& operator=(parray&& other) noexcept {
    if (this != &other) {
      release();
      data_ = std::exchange(other.data_, nullptr);
      n_ = std::exchange(other.n_, 0);
    }
    return *this;
  }

  parray(const parray&) = delete;
  parray& operator=(const parray&) = delete;

  // Allocate n elements without constructing them.
  static parray uninitialized(std::size_t n) { return parray(n); }

  // Parallel tabulation: element i is f(i). `granularity` as parallel_for.
  //
  // Construction is exception tolerant whenever T can be nothrow
  // default-constructed as a placeholder AND either the allocation fault
  // injector is armed or T has a real destructor: a throw from f or from
  // T's constructor — e.g. an injected bad_alloc while a filter block
  // allocates its pack buffer — is captured inside the loop body (it must not
  // unwind through a fork), the slot is default-constructed so every
  // element has a destructible value, and the first exception is rethrown
  // on the calling thread after the join. The returned-by-exception parray
  // then destroys all n elements normally and nothing leaks.
  //
  // The guarded loop runs under a cancel_shield: the region-level bail-out
  // (parallel.hpp) skips whole chunks, which would leave slots
  // unconstructed behind the exception. Instead the loop is its own
  // cancellation domain — once `err` triggers, remaining bodies skip the
  // expensive f(i) and fill cheap placeholders.
  //
  // For trivially destructible T the injector-off fast path is unchanged:
  // on a throw the skipped/garbage slots need no destruction and release()
  // still frees the buffer, so nothing leaks there either.
  //
  // A budget refusal (memory/budget.hpp) is one more such throw: it
  // propagates once and f is never re-run.
  template <typename F>
  static parray tabulate(std::size_t n, F&& f, std::size_t granularity = 0) {
    parray a(n);
    T* p = a.data_;
    if constexpr (std::is_nothrow_default_constructible_v<T>) {
      if (!std::is_trivially_destructible_v<T> ||
          memory::fault_injection_armed()) {
        sched::cancel_shield shield;
        memory::first_exception err;
        parallel_for(
            0, n,
            [&, p](std::size_t i) {
              if (err.triggered()) {
                ::new (p + i) T();
                return;
              }
              try {
                ::new (p + i) T(f(i));
              } catch (...) {
                err.capture();
                ::new (p + i) T();
              }
            },
            granularity);
        err.rethrow_if_set();
        return a;
      }
    }
    parallel_for(
        0, n, [&](std::size_t i) { ::new (p + i) T(f(i)); }, granularity);
    return a;
  }

  static parray filled(std::size_t n, const T& v) {
    return tabulate(n, [&](std::size_t) { return v; });
  }

  // Deep copy (deliberately explicit).
  [[nodiscard]] parray clone() const {
    const T* p = data_;
    return tabulate(n_, [p](std::size_t i) { return p[i]; });
  }

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] bool empty() const noexcept { return n_ == 0; }

  T& operator[](std::size_t i) noexcept {
    assert(i < n_);
    return data_[i];
  }
  const T& operator[](std::size_t i) const noexcept {
    assert(i < n_);
    return data_[i];
  }

  T* data() noexcept { return data_; }
  const T* data() const noexcept { return data_; }
  T* begin() noexcept { return data_; }
  T* end() noexcept { return data_ + n_; }
  const T* begin() const noexcept { return data_; }
  const T* end() const noexcept { return data_ + n_; }

 private:
  explicit parray(std::size_t n) : n_(n) {
    if (n_ > 0) {
      // Admission runs the fault injector and the budget check; commit
      // only after the allocation succeeded, so a throw (real, injected,
      // or a budget refusal) leaves the accounting untouched.
      memory::alloc_admission adm(n_ * sizeof(T));
      data_ = static_cast<T*>(
          ::operator new(n_ * sizeof(T), std::align_val_t(alignof(T))));
      adm.commit();
    }
  }

  void release() noexcept {
    if (data_ == nullptr) return;
    if constexpr (!std::is_trivially_destructible_v<T>) {
      // Shielded: this often runs while an exception unwinds through a
      // cancelled region, and a chunk skipped by the bail-out would leak
      // the elements it never destroyed.
      sched::cancel_shield shield;
      T* p = data_;
      parallel_for(0, n_, [p](std::size_t i) { p[i].~T(); });
    }
    memory::note_free(n_ * sizeof(T));
    ::operator delete(data_, std::align_val_t(alignof(T)));
    data_ = nullptr;
    n_ = 0;
  }

  T* data_ = nullptr;
  std::size_t n_ = 0;
};

}  // namespace pbds
