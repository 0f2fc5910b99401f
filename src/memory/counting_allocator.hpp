// std-compatible allocator that reports through pbds::memory's counters.
//
// Used for filter's per-block pack buffers (s.packToArray in the paper,
// Fig. 8), so that they show up in the space accounting. stream::pack
// stages a block's survivors on the stack and allocates the buffer once,
// at the survivor count (a block longer than the stage grows it once per
// chunk).
#pragma once

#include <cstddef>
#include <new>
#include <vector>

#include "memory/tracking.hpp"

namespace pbds::memory {

template <typename T>
class counting_allocator {
 public:
  using value_type = T;

  counting_allocator() noexcept = default;
  template <typename U>
  counting_allocator(const counting_allocator<U>&) noexcept {}  // NOLINT

  T* allocate(std::size_t n) {
    // Admission runs the fault injector and the budget check; commit only
    // after the allocation succeeded, so a throw (real, injected, or a
    // budget refusal) leaves the accounting untouched.
    alloc_admission adm(n * sizeof(T));
    T* p = static_cast<T*>(::operator new(n * sizeof(T)));
    adm.commit();
    return p;
  }

  void deallocate(T* p, std::size_t n) noexcept {
    note_free(n * sizeof(T));
    ::operator delete(p);
  }

  friend bool operator==(const counting_allocator&,
                         const counting_allocator&) noexcept {
    return true;
  }
};

// std::vector whose allocations are space-accounted.
template <typename T>
using tracked_vector = std::vector<T, counting_allocator<T>>;

}  // namespace pbds::memory
