// Block-granular checkpoint/resume (PR 7).
//
// The recovery subsystem's contract, as executable oracles:
//
//   * crash-at-every-block-boundary sweep: for each checkpointed terminal
//     op (to_array / force / reduce / scan / scan_inclusive / flatten
//     pipelines, plus a multi-op job), inject a fault | stall | budget
//     refusal at EVERY unit boundary in turn, resume the same checkpoint,
//     and require the resumed output to be bit-identical to an
//     uninterrupted run (expect_resume_equivalence, differential.hpp);
//   * no block is executed more than once after the successful attempt
//     (the executions-delta formula inside the oracle);
//   * bytes_live returns to baseline once the checkpoint dies, even when
//     progress was partial and elements are non-trivially destructible;
//   * constructions equal destructions for elements and accumulators with
//     real destructors: to_array's output blocks, and the block sums that
//     reduce / scan / scan_inclusive checkpoint (the same fill_blocks
//     skeleton, ledger hooks);
//   * budget_exceeded / stall_detected escaping a checkpointed op carry
//     the ledger's progress snapshot (attach_progress);
//   * under an ACTIVE budget, the drain/backoff retry ladder resumes from
//     the ledger in place — one visible call, each block executed once.
//
// Replay: all deterministic sweeps honor PBDS_SEED=<n> to collapse to one
// seed (see docs/TESTING.md §resume).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/block.hpp"
#include "differential.hpp"
#include "memory/budget.hpp"
#include "memory/tracking.hpp"
#include "recovery/checkpoint_ops.hpp"
#include "sched/exec_policy.hpp"

namespace {

using pbds::parray;
using pbds::testing::digest;
using pbds::testing::put;
using pbds::testing::put_all;
using pbds::testing::resume_case;
using pbds::testing::sweep_seeds;
namespace delayed = pbds::delayed;
namespace recovery = pbds::recovery;
namespace memory = pbds::memory;

// Small blocks so every case has a handful of boundaries to crash at
// without making the sweep (3 kinds x boundaries x modes x seeds) slow.
constexpr std::size_t kBlk = 256;
constexpr std::size_t kN = 1600;  // 7 blocks of 256
constexpr std::size_t kBlocks = (kN + kBlk - 1) / kBlk;

inline std::uint64_t plus(std::uint64_t a, std::uint64_t b) { return a + b; }

// --- the crash-at-every-boundary sweep --------------------------------------

// The sweeps inject their own budget refusals / stalls / faults and prove
// exact resume equivalence; an ambient PBDS_* environment (the CI
// hostile-env stage exports PBDS_BUDGET_BYTES around the full ctest run)
// must not rewrite what those injections mean. scoped_env clears the
// behavioral knobs for the duration of each test and restores them after.
class ResumeSweep : public ::testing::Test {
 protected:
  pbds::testing::scoped_env env_;
};

TEST_F(ResumeSweep, ToArrayOverMappedIota) {
  resume_case c{"resume.to_array(map.iota)", [](recovery::job_checkpoint& ck) {
                  pbds::scoped_block_size bs(kBlk);
                  auto xs = delayed::map(
                      [](std::size_t i) {
                        return static_cast<std::uint64_t>(i) * (i ^ 0x9e37u);
                      },
                      delayed::iota(kN));
                  const auto& a =
                      recovery::to_array(xs, ck.slot<std::uint64_t>(0));
                  digest d;
                  put_all(d, a);
                  return d;
                }};
  pbds::testing::expect_resume_equivalence(c, sweep_seeds(16));
}

TEST_F(ResumeSweep, ToArrayOverRadTabulate) {
  resume_case c{"resume.to_array(tabulate)",
                [](recovery::job_checkpoint& ck) {
                  pbds::scoped_block_size bs(kBlk);
                  auto xs = delayed::tabulate(kN, [](std::size_t i) {
                    return static_cast<std::uint64_t>(i * 2654435761u);
                  });
                  const auto& a =
                      recovery::to_array(xs, ck.slot<std::uint64_t>(0));
                  digest d;
                  put_all(d, a);
                  return d;
                }};
  pbds::testing::expect_resume_equivalence(c, sweep_seeds(16));
}

TEST_F(ResumeSweep, Reduce) {
  resume_case c{"resume.reduce", [](recovery::job_checkpoint& ck) {
                  pbds::scoped_block_size bs(kBlk);
                  auto xs = delayed::map(
                      [](std::size_t i) {
                        return static_cast<std::uint64_t>(i) + 17u;
                      },
                      delayed::iota(kN));
                  digest d;
                  put(d, static_cast<double>(recovery::reduce(
                             plus, std::uint64_t{0}, xs,
                             ck.slot<std::uint64_t>(0))));
                  return d;
                }};
  pbds::testing::expect_resume_equivalence(c, sweep_seeds(16));
}

TEST_F(ResumeSweep, Scan) {
  resume_case c{"resume.scan", [](recovery::job_checkpoint& ck) {
                  pbds::scoped_block_size bs(kBlk);
                  auto xs = delayed::tabulate(kN, [](std::size_t i) {
                    return static_cast<std::uint64_t>(i % 97);
                  });
                  auto pr = recovery::scan(plus, std::uint64_t{0}, xs,
                                           ck.slot<std::uint64_t>(0));
                  auto arr = delayed::to_array(pr.first);
                  digest d;
                  put_all(d, arr);
                  put(d, static_cast<double>(pr.second));
                  return d;
                }};
  pbds::testing::expect_resume_equivalence(c, sweep_seeds(8));
}

TEST_F(ResumeSweep, ScanInclusive) {
  resume_case c{"resume.scan_inclusive", [](recovery::job_checkpoint& ck) {
                  pbds::scoped_block_size bs(kBlk);
                  auto xs = delayed::tabulate(kN, [](std::size_t i) {
                    return static_cast<std::uint64_t>(i * 31 + 7);
                  });
                  auto pr = recovery::scan_inclusive(plus, std::uint64_t{0},
                                                     xs,
                                                     ck.slot<std::uint64_t>(0));
                  auto arr = delayed::to_array(pr.first);
                  digest d;
                  put_all(d, arr);
                  put(d, static_cast<double>(pr.second));
                  return d;
                }};
  pbds::testing::expect_resume_equivalence(c, sweep_seeds(8));
}

TEST_F(ResumeSweep, FlattenToArray) {
  resume_case c{"resume.to_array(flatten)", [](recovery::job_checkpoint& ck) {
                  pbds::scoped_block_size bs(kBlk);
                  std::size_t outers = kN / 64;
                  auto heads = parray<std::uint64_t>::tabulate(
                      outers,
                      [](std::size_t i) {
                        return static_cast<std::uint64_t>(i);
                      });
                  auto inners = delayed::map(
                      [](std::uint64_t v) {
                        return parray<std::uint64_t>::tabulate(
                            64, [v](std::size_t j) { return v * 64 + j; });
                      },
                      delayed::view(heads));
                  const auto& flat = recovery::to_array(
                      delayed::flatten(inners), ck.slot<std::uint64_t>(0));
                  digest d;
                  put_all(d, flat);
                  return d;
                }};
  pbds::testing::expect_resume_equivalence(c, sweep_seeds(8));
}

TEST_F(ResumeSweep, ForceSharesCompletedStorage) {
  resume_case c{"resume.force", [](recovery::job_checkpoint& ck) {
                  pbds::scoped_block_size bs(kBlk);
                  auto xs = delayed::map(
                      [](std::size_t i) {
                        return static_cast<std::uint64_t>(i ^ 0x5bd1u);
                      },
                      delayed::iota(kN));
                  auto forced =
                      recovery::force(xs, ck.slot<std::uint64_t>(0));
                  digest d;
                  put(d, static_cast<double>(delayed::reduce(
                             plus, std::uint64_t{0}, forced)));
                  return d;
                }};
  pbds::testing::expect_resume_equivalence(c, sweep_seeds(8));
}

// A multi-op job (the soak driver's class-1 shape): a fault in the second
// op's pass must not re-execute the first op's completed blocks — the
// executions-delta oracle inside the sweep checks exactly that, because
// blocks_complete_before counts the finished scan units.
TEST_F(ResumeSweep, MultiOpFilterScanReduce) {
  resume_case c{"resume.filter+scan+reduce",
                [](recovery::job_checkpoint& ck) {
                  pbds::scoped_block_size bs(kBlk);
                  auto input = parray<std::uint64_t>::tabulate(
                      kN,
                      [](std::size_t i) {
                        return static_cast<std::uint64_t>(i);
                      });
                  auto thirds = delayed::filter(
                      [](std::uint64_t v) { return v % 3 == 0; }, input);
                  auto prefix = recovery::scan(plus, std::uint64_t{0}, thirds,
                                               ck.slot<std::uint64_t>(0))
                                    .first;
                  digest d;
                  put(d, static_cast<double>(recovery::reduce(
                             plus, std::uint64_t{0}, prefix,
                             ck.slot<std::uint64_t>(1))));
                  return d;
                }};
  pbds::testing::expect_resume_equivalence(c, sweep_seeds(16));
}

// --- exception progress attachment ------------------------------------------

TEST(ResumeProgress, BudgetRefusalCarriesLedgerSnapshot) {
  pbds::sched::scoped_sequential g;
  pbds::scoped_block_size bs(kBlk);
  recovery::job_checkpoint ck;
  auto xs = delayed::map(
      [](std::size_t i) { return static_cast<std::uint64_t>(i); },
      delayed::iota(kN));
  bool threw = false;
  {
    recovery::scoped_boundary_faults inj(recovery::boundary_fault_kind::budget,
                                         3);
    try {
      (void)recovery::to_array(xs, ck.slot<std::uint64_t>(0));
    } catch (const pbds::budget_exceeded& e) {
      threw = true;
      ASSERT_TRUE(e.has_progress());
      // Sequential execution completes blocks in order: exactly the 3
      // allowed unit starts finished before the refusal.
      EXPECT_EQ(e.checkpoint_progress().blocks_total, kBlocks);
      EXPECT_EQ(e.checkpoint_progress().blocks_complete, 3u);
      EXPECT_EQ(e.checkpoint_progress().bytes_complete,
                3u * kBlk * sizeof(std::uint64_t));
      EXPECT_EQ(e.checkpoint_progress().executions, 3u);
    }
  }
  ASSERT_TRUE(threw);
  // And the checkpoint agrees with what the exception reported.
  EXPECT_EQ(ck.aggregate().blocks_complete, 3u);
}

TEST(ResumeProgress, StallCarriesLedgerSnapshot) {
  pbds::sched::scoped_sequential g;
  pbds::scoped_block_size bs(kBlk);
  recovery::job_checkpoint ck;
  auto xs = delayed::tabulate(
      kN, [](std::size_t i) { return static_cast<std::uint64_t>(i * 3); });
  bool threw = false;
  {
    recovery::scoped_boundary_faults inj(recovery::boundary_fault_kind::stall,
                                         2);
    try {
      (void)recovery::reduce(plus, std::uint64_t{0}, xs,
                             ck.slot<std::uint64_t>(0));
    } catch (const pbds::stall_detected& e) {
      threw = true;
      ASSERT_TRUE(e.has_progress());
      EXPECT_EQ(e.checkpoint_progress().blocks_total, kBlocks);
      EXPECT_EQ(e.checkpoint_progress().blocks_complete, 2u);
    }
  }
  ASSERT_TRUE(threw);
}

// --- budget retry ladder ----------------------------------------------------

// An injected budget refusal PROPAGATES even with a budget active — the
// retry ladder only absorbs real (transient-pressure) refusals, never
// injector-fabricated ones, so the sweep's fault contract is identical
// whether or not PBDS_BUDGET_BYTES (or a budget_scope) is ambient. The
// resumed call then salvages the refused attempt's completed blocks: every
// block executed exactly once across the two visible calls.
TEST(ResumeBudget, InjectedRefusalPropagatesThenResumeSalvages) {
  pbds::sched::scoped_sequential g;
  pbds::scoped_block_size bs(kBlk);
  memory::budget_scope budget(std::int64_t{1} << 30);  // active, generous
  ASSERT_TRUE(memory::budget_active());
  recovery::job_checkpoint ck;
  auto& slot = ck.slot<std::uint64_t>(0);
  auto xs = delayed::map(
      [](std::size_t i) { return static_cast<std::uint64_t>(i + 5); },
      delayed::iota(kN));
  {
    recovery::scoped_boundary_faults inj(recovery::boundary_fault_kind::budget,
                                         4);
    bool threw = false;
    try {
      (void)recovery::to_array(xs, slot);
    } catch (const pbds::budget_exceeded& e) {
      threw = true;
      EXPECT_TRUE(e.injected());
      ASSERT_TRUE(e.has_progress());
      EXPECT_EQ(e.checkpoint_progress().blocks_complete, 4u);
    }
    ASSERT_TRUE(threw) << "injected refusal must propagate, not be retried";
    EXPECT_EQ(inj.injected(), 1u);
  }
  const parray<std::uint64_t>& a = recovery::to_array(xs, slot);
  ASSERT_EQ(a.size(), kN);
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(a[i], static_cast<std::uint64_t>(i + 5)) << "at " << i;
  }
  // Across the crash and the resume, each block ran exactly once, and the
  // resumed call salvaged the 4 blocks the refused attempt completed.
  EXPECT_EQ(slot.ledger().executions(), kBlocks);
  EXPECT_EQ(slot.ledger().redone(), 0u);
  EXPECT_GE(slot.ledger().salvaged(), 4u);
}

// --- allocation faults ------------------------------------------------------

// The PR-2 alloc-fault injector composes with resume: an attempt killed by
// a failing tracked allocation keeps its completed blocks, and the resumed
// attempt is bit-identical to an undisturbed run.
TEST(ResumeAllocFault, FlattenResumesAfterAllocFailure) {
  pbds::sched::scoped_sequential g;
  pbds::scoped_block_size bs(kBlk);
  auto run = [](recovery::job_checkpoint& ck) {
    std::size_t outers = kN / 64;
    auto heads = parray<std::uint64_t>::tabulate(
        outers, [](std::size_t i) { return static_cast<std::uint64_t>(i); });
    auto inners = delayed::map(
        [](std::uint64_t v) {
          return parray<std::uint64_t>::tabulate(
              64, [v](std::size_t j) { return v * 131 + j; });
        },
        delayed::view(heads));
    const auto& flat = recovery::to_array(delayed::flatten(inners),
                                          ck.slot<std::uint64_t>(0));
    digest d;
    put_all(d, flat);
    return d;
  };
  digest ref;
  {
    recovery::job_checkpoint ck;
    ref = run(ck);
  }
  for (std::int64_t nth : {1, 2, 5, 9, 14}) {
    recovery::job_checkpoint ck;
    bool faulted = false;
    try {
      auto inj = memory::scoped_alloc_faults::fail_nth(nth);
      digest clean = run(ck);
      // Fault landed beyond the case's allocations: a clean run.
      pbds::testing::expect_digest_eq(clean, ref, "alloc-fault clean run");
    } catch (...) {
      faulted = true;
    }
    if (faulted) {
      recovery::progress before = ck.aggregate();
      digest resumed = run(ck);
      pbds::testing::expect_digest_eq(
          resumed, ref, "resume after alloc fault nth=" + std::to_string(nth));
      recovery::progress after = ck.aggregate();
      EXPECT_EQ(after.executions - before.executions,
                after.blocks_total - before.blocks_complete)
          << "nth=" << nth << ": completed blocks re-executed after resume";
    }
  }
}

// --- non-trivial element lifetimes ------------------------------------------

struct counted {
  static std::atomic<long>& ctors() {
    static std::atomic<long> v{0};
    return v;
  }
  static std::atomic<long>& dtors() {
    static std::atomic<long> v{0};
    return v;
  }
  std::uint64_t v = 0;
  counted() noexcept { ctors().fetch_add(1, std::memory_order_relaxed); }
  explicit counted(std::uint64_t x) noexcept : v(x) {
    ctors().fetch_add(1, std::memory_order_relaxed);
  }
  counted(const counted& o) noexcept : v(o.v) {
    ctors().fetch_add(1, std::memory_order_relaxed);
  }
  counted(counted&& o) noexcept : v(o.v) {
    ctors().fetch_add(1, std::memory_order_relaxed);
  }
  counted& operator=(const counted&) noexcept = default;
  counted& operator=(counted&&) noexcept = default;
  ~counted() { dtors().fetch_add(1, std::memory_order_relaxed); }
};

// Abandoning a partially-complete checkpoint (the park-expiry / job-failure
// path) must destroy exactly the elements that were constructed: untouched
// blocks are default-filled by sanitize() before the storage dies, started
// blocks already hold constructed values or placeholders.
TEST(ResumeLifetime, AbandonedPartialProgressBalancesCtorsAndDtors) {
  pbds::sched::scoped_sequential g;
  pbds::scoped_block_size bs(kBlk);
  std::int64_t base_bytes = memory::bytes_live();
  long c0 = counted::ctors().load(), d0 = counted::dtors().load();
  {
    recovery::job_checkpoint ck;
    auto xs = delayed::map(
        [](std::size_t i) { return counted(static_cast<std::uint64_t>(i)); },
        delayed::iota(kN));
    recovery::scoped_boundary_faults inj(recovery::boundary_fault_kind::fault,
                                         3);
    EXPECT_THROW((void)recovery::to_array(xs, ck.slot<counted>(0)),
                 recovery::boundary_fault);
    // Checkpoint dies here with 3/7 blocks complete — no resume.
  }
  EXPECT_EQ(counted::ctors().load() - c0, counted::dtors().load() - d0)
      << "partial progress leaked or double-destroyed elements";
  EXPECT_EQ(memory::bytes_live(), base_bytes);
}

TEST(ResumeLifetime, ResumedNonTrivialRunBalancesAndMatches) {
  pbds::sched::scoped_sequential g;
  pbds::scoped_block_size bs(kBlk);
  long c0 = counted::ctors().load(), d0 = counted::dtors().load();
  {
    recovery::job_checkpoint ck;
    auto xs = delayed::map(
        [](std::size_t i) {
          return counted(static_cast<std::uint64_t>(i * 13));
        },
        delayed::iota(kN));
    {
      recovery::scoped_boundary_faults inj(
          recovery::boundary_fault_kind::fault, 5);
      EXPECT_THROW((void)recovery::to_array(xs, ck.slot<counted>(0)),
                   recovery::boundary_fault);
    }
    const parray<counted>& a = recovery::to_array(xs, ck.slot<counted>(0));
    ASSERT_EQ(a.size(), kN);
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(a[i].v, static_cast<std::uint64_t>(i * 13)) << "at " << i;
    }
  }
  EXPECT_EQ(counted::ctors().load() - c0, counted::dtors().load() - d0);
}

// reduce, scan and scan_inclusive checkpoint their block sums, so with a
// counted accumulator the sums themselves have real lifetimes: crash at
// every unit boundary (fault, stall, budget; every mode), resume, and
// require the bit-identical result, each block run once after the crash
// (both inside the oracle), and as many destructions as constructions.
counted counted_plus(const counted& a, const counted& b) {
  return counted(a.v + b.v);
}

auto counted_input() {
  return delayed::map(
      [](std::size_t i) { return counted(static_cast<std::uint64_t>(i % 97)); },
      delayed::iota(kN));
}

class ResumeLifetimeSweep : public ResumeSweep {
 protected:
  void TearDown() override {
    EXPECT_EQ(counted::ctors().load() - c0_, counted::dtors().load() - d0_)
        << "sums or partials leaked or double-destroyed elements";
  }
  long c0_ = counted::ctors().load();
  long d0_ = counted::dtors().load();
};

TEST_F(ResumeLifetimeSweep, ReduceWithCountedAccumulator) {
  resume_case c{"resume.reduce(counted)", [](recovery::job_checkpoint& ck) {
                  pbds::scoped_block_size bs(kBlk);
                  digest d;
                  put(d, static_cast<double>(
                             recovery::reduce(counted_plus, counted(0),
                                              counted_input(),
                                              ck.slot<counted>(0))
                                 .v));
                  return d;
                }};
  pbds::testing::expect_resume_equivalence(c, sweep_seeds(4));
}

template <typename ScanOp>
resume_case counted_scan_case(std::string name, ScanOp scan_op) {
  return {std::move(name), [scan_op](recovery::job_checkpoint& ck) {
            pbds::scoped_block_size bs(kBlk);
            auto pr = scan_op(counted_input(), ck.slot<counted>(0));
            auto arr = delayed::to_array(pr.first);
            digest d;
            for (const counted& x : arr) put(d, static_cast<double>(x.v));
            put(d, static_cast<double>(pr.second.v));
            return d;
          }};
}

TEST_F(ResumeLifetimeSweep, ScanWithCountedAccumulator) {
  auto c = counted_scan_case("resume.scan(counted)", [](auto xs, auto& rr) {
    return recovery::scan(counted_plus, counted(0), xs, rr);
  });
  pbds::testing::expect_resume_equivalence(c, sweep_seeds(4));
}

TEST_F(ResumeLifetimeSweep, ScanInclusiveWithCountedAccumulator) {
  auto c = counted_scan_case(
      "resume.scan_inclusive(counted)", [](auto xs, auto& rr) {
        return recovery::scan_inclusive(counted_plus, counted(0), xs, rr);
      });
  pbds::testing::expect_resume_equivalence(c, sweep_seeds(4));
}

// --- salvage of completed operations ----------------------------------------

// Re-entering an op whose slot already completed must return the SAME
// storage without executing anything — the property that lets a multi-op
// job fail in stage 2 and resume without touching stage 1.
TEST(ResumeSalvage, CompletedOpReturnsRetainedStorageWithoutExecution) {
  pbds::sched::scoped_sequential g;
  pbds::scoped_block_size bs(kBlk);
  recovery::job_checkpoint ck;
  auto& slot = ck.slot<std::uint64_t>(0);
  auto xs = delayed::tabulate(
      kN, [](std::size_t i) { return static_cast<std::uint64_t>(i + 1); });
  const parray<std::uint64_t>& first = recovery::to_array(xs, slot);
  std::uint64_t execs = slot.ledger().executions();
  EXPECT_EQ(execs, kBlocks);
  const parray<std::uint64_t>& second = recovery::to_array(xs, slot);
  EXPECT_EQ(&first, &second) << "completed op must return retained storage";
  EXPECT_EQ(slot.ledger().executions(), execs)
      << "re-entry of a completed op executed blocks";
  EXPECT_GE(slot.ledger().salvaged(), kBlocks);
}

// --- cooperative-cancellation collapse --------------------------------------
//
// Nested joins inside a cancelled region bail and RETURN (the root
// rethrows only at region exit), so without an explicit guard a
// checkpointed op would hand its caller incomplete storage — and, worse,
// bind ledger geometry computed by a collapsed upstream pipeline. Both
// guards must surface attempt_interrupted instead.

TEST(ResumeCancellation, EntryIntoCancelledRegionRefusesToBind) {
  pbds::sched::scoped_sequential g;
  pbds::scoped_block_size bs(kBlk);
  recovery::job_checkpoint ck;
  auto& slot = ck.slot<std::uint64_t>(0);
  auto xs = delayed::tabulate(
      kN, [](std::size_t i) { return static_cast<std::uint64_t>(i); });
  pbds::sched::cancel_scope root;
  ASSERT_TRUE(root.is_root());
  pbds::sched::current_cancel()->capture(
      std::make_exception_ptr(std::runtime_error("upstream failure")));
  ASSERT_TRUE(pbds::sched::cancellation_requested());
  EXPECT_THROW((void)recovery::to_array(xs, slot),
               recovery::attempt_interrupted);
  // The op must bail before binding: no storage, no executions.
  EXPECT_EQ(slot.snapshot().blocks_total, 0u);
  EXPECT_EQ(slot.ledger().executions(), 0u);
}

TEST(ResumeCancellation, MidOpCollapseThrowsInsteadOfReturningIncomplete) {
  // Sequential mode runs a plain loop with no bail points, so collapse
  // can only happen under a forking scheduler; the deterministic one
  // makes it reproducible: leaves run atomically, so the capture during
  // the 4th executed block always leaves the remaining blocks to bail.
  pbds::sched::scoped_deterministic g(17, 4);
  pbds::scoped_block_size bs(kBlk);
  recovery::job_checkpoint ck;
  auto& slot = ck.slot<std::uint64_t>(0);
  std::atomic<std::size_t> pulls{0};
  // Trivial element type and no armed injectors: this drives the
  // unguarded fast path, whose apply collapses silently on cancellation.
  auto xs = delayed::tabulate(kN, [&](std::size_t i) {
    if (pulls.fetch_add(1, std::memory_order_relaxed) == 3 * kBlk) {
      pbds::sched::current_cancel()->capture(
          std::make_exception_ptr(std::runtime_error("sibling failed")));
    }
    return static_cast<std::uint64_t>(i * 3);
  });
  {
    pbds::sched::cancel_scope root;
    ASSERT_TRUE(root.is_root());
    EXPECT_THROW((void)recovery::to_array(xs, slot),
                 recovery::attempt_interrupted);
    EXPECT_LT(slot.ledger().blocks_complete(), kBlocks);
  }
  // Outside the cancelled region the same checkpoint resumes to a
  // complete, correct result.
  const auto& a = recovery::to_array(xs, slot);
  ASSERT_EQ(a.size(), kN);
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(a[i], static_cast<std::uint64_t>(i * 3)) << "at " << i;
  }
  EXPECT_EQ(slot.ledger().blocks_complete(), kBlocks);
}

// --- ledger unit behavior ---------------------------------------------------

TEST(BlockLedger, GeometryRebindAndRedoFlag) {
  recovery::block_ledger led;
  EXPECT_FALSE(led.bound());
  led.bind(1000, 256);
  EXPECT_TRUE(led.bound());
  EXPECT_EQ(led.num_blocks(), 4u);
  EXPECT_EQ(led.block_length(3), 1000u - 3 * 256u);  // ragged tail
  EXPECT_FALSE(led.mark_started(1));  // first start: not a redo
  led.mark_complete(1);
  EXPECT_TRUE(led.is_complete(1));
  EXPECT_EQ(led.blocks_complete(), 1u);
  EXPECT_EQ(led.elements_complete(), 256u);
  // Same-geometry rebind preserves completion (this IS resume).
  led.bind(1000, 256);
  EXPECT_TRUE(led.is_complete(1));
  // Re-running a started block reports a redo.
  EXPECT_TRUE(led.mark_started(1));
  EXPECT_EQ(led.redone(), 1u);
  // Different geometry discards completion but keeps cumulative stats.
  led.bind(1000, 128);
  EXPECT_EQ(led.num_blocks(), 8u);
  EXPECT_FALSE(led.is_complete(1));
  EXPECT_EQ(led.blocks_complete(), 0u);
  EXPECT_EQ(led.executions(), 2u);
  recovery::progress p = led.snapshot(8);
  EXPECT_EQ(p.blocks_total, 8u);
  EXPECT_EQ(p.bytes_complete, 0u);
}

TEST(BlockLedgerDeathTest, DoubleCompletionIsGuarded) {
  recovery::block_ledger led;
  led.bind(1024, 256);
  led.mark_complete(1);
#ifndef NDEBUG
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(led.mark_complete(1), "completed twice");
#else
  // Release fallback: counted, not silently absorbed into salvage stats.
  led.mark_complete(1);
  EXPECT_EQ(led.double_completed(), 1u);
  EXPECT_EQ(led.blocks_complete(), 1u);
#endif
}

TEST(JobCheckpoint, SlotTypeMismatchThrows) {
  recovery::job_checkpoint ck;
  (void)ck.slot<std::uint64_t>(0);
  EXPECT_THROW((void)ck.slot<double>(0), std::logic_error);
  (void)ck.slot<double>(1);  // fresh key: fine
}

}  // namespace
