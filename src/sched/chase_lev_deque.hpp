// Chase-Lev work-stealing deque (fixed-capacity variant).
//
// Owner pushes/pops at the bottom without contention in the common case;
// thieves steal from the top with a CAS. Memory orderings follow Lê,
// Pop, Cohen & Zappa Nardelli, "Correct and Efficient Work-Stealing for
// Weak Memory Models" (PPoPP 2013), specialized to a fixed-size circular
// buffer.
//
// Capacity is fixed because the number of outstanding forked-but-unjoined
// jobs per worker is bounded by the fork-join nesting depth (one job per
// live fork2join frame), which for divide-and-conquer loops is
// O(log n) and in practice far below kCapacity. Overflow is not fatal:
// push_bottom refuses (returns false) and the owner executes the job
// inline instead (parallel.hpp), trading stealable parallelism for
// bounded state — no lost work, no abort. That graceful path is what lets
// the capacity stay modest: it is purely a locality/stealability knob.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#include "sched/job.hpp"

namespace pbds::sched {

class chase_lev_deque {
 public:
  static constexpr std::size_t kCapacity = 1 << 10;
  static constexpr std::size_t kMask = kCapacity - 1;

  chase_lev_deque() {
    for (auto& slot : buffer_) slot.store(nullptr, std::memory_order_relaxed);
  }

  chase_lev_deque(const chase_lev_deque&) = delete;
  chase_lev_deque& operator=(const chase_lev_deque&) = delete;

  // Owner only. Returns false — job NOT enqueued — when the deque is full
  // (fork depth exceeded kCapacity); the caller must then run the job
  // itself (fork2join executes it inline on the owner).
  [[nodiscard]] bool push_bottom(job* j) {
    std::int64_t b = bottom_.load(std::memory_order_relaxed);
    std::int64_t t = top_.load(std::memory_order_acquire);
    if (b - t >= static_cast<std::int64_t>(kCapacity)) return false;
    buffer_[static_cast<std::size_t>(b) & kMask].store(
        j, std::memory_order_relaxed);
    // Publish the slot (and the job's payload) before making it visible to
    // thieves. The release must be on the bottom_ store itself, not a
    // standalone fence: a thief acquires bottom_ in steal(), and pairing
    // store-release/load-acquire gives the happens-before edge for the
    // job's non-atomic fields. (ThreadSanitizer does not model standalone
    // fences, so this is also what makes the deque TSan-clean; on x86 a
    // release store compiles to a plain mov, same as before.)
    bottom_.store(b + 1, std::memory_order_release);
    return true;
  }

  // Owner only. Returns nullptr if the deque was empty or the last element
  // was lost to a concurrent thief.
  job* pop_bottom() {
    std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    bottom_.store(b, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_relaxed);
    if (t > b) {
      // Deque was empty; restore.
      bottom_.store(b + 1, std::memory_order_relaxed);
      return nullptr;
    }
    job* j = buffer_[static_cast<std::size_t>(b) & kMask].load(
        std::memory_order_relaxed);
    if (t == b) {
      // Single element: race with thieves via CAS on top.
      if (!top_.compare_exchange_strong(t, t + 1,
                                        std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        j = nullptr;  // lost the race
      }
      bottom_.store(b + 1, std::memory_order_relaxed);
    }
    return j;
  }

  // Thieves. Returns nullptr if empty or the steal raced.
  job* steal() {
    std::int64_t t = top_.load(std::memory_order_acquire);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    std::int64_t b = bottom_.load(std::memory_order_acquire);
    if (t >= b) return nullptr;
    job* j = buffer_[static_cast<std::size_t>(t) & kMask].load(
        std::memory_order_relaxed);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      return nullptr;  // another thief (or the owner) got it
    }
    return j;
  }

 private:
  alignas(64) std::atomic<std::int64_t> top_{0};
  alignas(64) std::atomic<std::int64_t> bottom_{0};
  std::array<std::atomic<job*>, kCapacity> buffer_;
};

}  // namespace pbds::sched
