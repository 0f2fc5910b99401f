// Progress snapshot carried by recovery-aware failures.
//
// A tiny POD (no dependencies — it is included by the exception types in
// memory/budget.hpp and sched/cancellation.hpp) summarizing how far a
// checkpointed computation got before a refusal, stall, or cancellation.
// Counters are cumulative over the life of the ledger(s) they summarize:
//
//   blocks_total / blocks_complete — geometry-level progress
//   bytes_complete                 — completed elements scaled by element
//                                    size (what a resume salvages)
//   executions                     — units actually run (first runs + redos)
//   salvaged                       — units skipped because a prior attempt
//                                    completed them
//   redone                         — units re-run because a prior attempt
//                                    started but did not complete them
#pragma once

#include <cstddef>
#include <cstdint>

namespace pbds::recovery {

struct progress {
  std::size_t blocks_total = 0;
  std::size_t blocks_complete = 0;
  std::size_t bytes_complete = 0;
  std::uint64_t executions = 0;
  std::uint64_t salvaged = 0;
  std::uint64_t redone = 0;

  progress& operator+=(const progress& o) noexcept {
    blocks_total += o.blocks_total;
    blocks_complete += o.blocks_complete;
    bytes_complete += o.bytes_complete;
    executions += o.executions;
    salvaged += o.salvaged;
    redone += o.redone;
    return *this;
  }

  friend bool operator==(const progress&, const progress&) = default;
};

}  // namespace pbds::recovery
