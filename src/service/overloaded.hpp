// pbds::overloaded — the pipeline service's refusal exception.
//
// The service (pipeline_service.hpp) refuses load instead of queueing
// unboundedly; every refusal surfaces as this one exception type, with an
// `overload_reason` saying *which* limit fired. Like budget_exceeded and
// stall_detected, it flows through the fork-join cancellation protocol as
// an ordinary exception: a drained-away in-flight job's root join
// rethrows it with the pool quiescent.
#pragma once

#include <stdexcept>
#include <string>

namespace pbds {

enum class overload_reason : unsigned char {
  queue_full,       // admission queue at capacity
  draining,         // the service no longer accepts work
  drain_cancelled,  // drain deadline passed before this job finished
};

[[nodiscard]] constexpr const char* to_string(overload_reason r) noexcept {
  switch (r) {
    case overload_reason::queue_full:
      return "queue_full";
    case overload_reason::draining:
      return "draining";
    case overload_reason::drain_cancelled:
      return "drain_cancelled";
  }
  return "unknown";
}

class overloaded : public std::runtime_error {
 public:
  explicit overloaded(overload_reason reason)
      : std::runtime_error(std::string("pbds::overloaded: ") +
                           to_string(reason)),
        reason_(reason) {}

  [[nodiscard]] overload_reason reason() const noexcept { return reason_; }

 private:
  overload_reason reason_;
};

}  // namespace pbds
