// Pipeline service: bounded admission, per-job governance, retry and
// checkpoint resume, and graceful drain.
//
// Most tests run the service in *manual* mode (dispatchers = 0): nothing
// executes until the test calls run_one(), so the interleaving of
// submissions and executions is scripted and every admit/reject decision
// is reproducible. Dispatcher-mode tests cover the real-thread paths:
// guest-worker pipelines and drain cancellation of in-flight jobs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/block.hpp"
#include "memory/budget.hpp"
#include "memory/tracking.hpp"
#include "recovery/checkpoint_ops.hpp"
#include "sched/parallel.hpp"
#include "sched/scheduler.hpp"
#include "service/pipeline_service.hpp"
#include "service/soak_driver.hpp"
#include "differential.hpp"

namespace {

using pbds::overload_reason;
using pbds::overloaded;
using namespace pbds::service;  // NOLINT

// Every suite here configures budget, deadlines, and service tuning
// explicitly; an exported PBDS_* knob (the CI hostile-env stage) must not
// change outcomes — e.g. an ambient global budget turns deadline-resume
// soaks into budget-refusal soaks and no job ever resumes.
class Service : public ::testing::Test {
 protected:
  pbds::testing::scoped_env env_;
};

class ServiceResume : public ::testing::Test {
 protected:
  pbds::testing::scoped_env env_;
};

service_config manual_config(std::size_t cap) {
  service_config cfg;
  cfg.queue_capacity = cap;
  cfg.dispatchers = 0;
  return cfg;
}

TEST_F(Service, CompletesJobsManually) {
  pipeline_service svc(manual_config(8));
  std::atomic<int> ran{0};
  std::vector<job_ticket> tickets;
  for (int i = 0; i < 3; ++i)
    tickets.push_back(svc.submit(0, [&] { ran++; }));
  EXPECT_EQ(svc.queue_depth(), 3u);
  EXPECT_TRUE(svc.run_one());
  EXPECT_TRUE(svc.run_one());
  EXPECT_TRUE(svc.run_one());
  EXPECT_FALSE(svc.run_one());
  EXPECT_EQ(ran.load(), 3);
  for (auto& t : tickets) {
    EXPECT_EQ(t.status(), job_status::done);
    EXPECT_NO_THROW(t.get());
  }
  EXPECT_EQ(svc.stats().completed, 3u);
}

TEST_F(Service, RejectPolicyThrowsQueueFullAndStaysBounded) {
  pipeline_service svc(manual_config(2));
  auto t1 = svc.submit(0, [] {});
  auto t2 = svc.submit(0, [] {});
  try {
    svc.submit(0, [] {});
    FAIL() << "expected pbds::overloaded";
  } catch (const overloaded& o) {
    EXPECT_EQ(o.reason(), overload_reason::queue_full);
  }
  EXPECT_LE(svc.queue_depth(), svc.queue_capacity());
  EXPECT_EQ(svc.stats().rejected, 1u);
  // Space frees as jobs run; admission resumes.
  EXPECT_TRUE(svc.run_one());
  auto t3 = svc.submit(0, [] {});
  while (svc.run_one()) {
  }
  EXPECT_EQ(t1.status(), job_status::done);
  EXPECT_EQ(t2.status(), job_status::done);
  EXPECT_EQ(t3.status(), job_status::done);
}

TEST_F(Service, BlockPolicyWithDispatchersCompletesEverything) {
  service_config cfg;
  cfg.queue_capacity = 20;
  cfg.dispatchers = 2;
  pipeline_service svc(cfg);
  std::atomic<std::uint64_t> sum{0};
  std::vector<job_ticket> tickets;
  for (int i = 0; i < 20; ++i) {
    // The queue holds every job; dispatchers (enrolled as scheduler
    // guests) drain it running a real parallel pipeline.
    tickets.push_back(svc.submit(0, [&sum] {
      std::atomic<std::uint64_t> local{0};
      pbds::parallel_for(
          0, 2048, [&](std::size_t i) { local += i; }, 64);
      sum += local.load();
    }));
  }
  for (auto& t : tickets) t.get();
  EXPECT_EQ(sum.load(), 20u * (2048u * 2047u / 2));
  svc.drain();
  EXPECT_EQ(svc.stats().completed, 20u);
}

TEST_F(Service, PerJobBudgetScopeAppliesDuringTheJobOnly) {
  pipeline_service svc(manual_config(4));
  const std::int64_t before = pbds::memory::budget_limit();
  std::int64_t seen = -1;
  job_limits lim;
  lim.budget_bytes = 1 << 20;
  svc.submit(0, [&] { seen = pbds::memory::budget_limit(); }, lim);
  EXPECT_TRUE(svc.run_one());
  EXPECT_EQ(seen, 1 << 20);
  EXPECT_EQ(pbds::memory::budget_limit(), before);
}

TEST_F(Service, RetriesBudgetExceededThenSucceeds) {
  pipeline_service svc(manual_config(4));
  int calls = 0;
  job_limits lim;
  lim.max_retries = 2;
  lim.retry_backoff_us = 1;
  auto t = svc.submit(
      0,
      [&calls] {
        if (++calls < 3) throw pbds::budget_exceeded(64, 0, 32);
      },
      lim);
  EXPECT_TRUE(svc.run_one());  // all attempts happen inside one run_one
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(t.status(), job_status::done);
  EXPECT_EQ(svc.stats().retries, 2u);
}

TEST_F(Service, RetryLadderExhaustsToFailure) {
  pipeline_service svc(manual_config(4));
  int calls = 0;
  job_limits lim;
  lim.max_retries = 1;
  lim.retry_backoff_us = 1;
  auto t = svc.submit(
      0, [&calls] { ++calls; throw pbds::budget_exceeded(64, 0, 32); }, lim);
  EXPECT_TRUE(svc.run_one());
  EXPECT_EQ(calls, 2);  // initial attempt + 1 retry
  EXPECT_EQ(t.status(), job_status::failed);
  EXPECT_THROW(t.get(), pbds::budget_exceeded);
}

TEST_F(Service, NonRetryableFailureFailsImmediately) {
  pipeline_service svc(manual_config(4));
  int calls = 0;
  job_limits lim;
  lim.max_retries = 5;
  auto t = svc.submit(
      0, [&calls] { ++calls; throw std::runtime_error("logic bug"); }, lim);
  EXPECT_TRUE(svc.run_one());
  EXPECT_EQ(calls, 1);  // runtime_error is not transient; no retries
  EXPECT_EQ(t.status(), job_status::failed);
  EXPECT_THROW(t.get(), std::runtime_error);
}

TEST_F(Service, DrainRunsBacklogThenRefusesNewWork) {
  const std::int64_t baseline = pbds::memory::bytes_live();
  {
    pipeline_service svc(manual_config(16));
    std::atomic<int> ran{0};
    for (int i = 0; i < 10; ++i)
      svc.submit(0, [&ran] {
        auto a = pbds::parray<std::uint64_t>::tabulate(
            4096, [](std::size_t i) { return i; });
        ran += a.size() != 0;
      });
    svc.drain();  // unbounded: the whole backlog runs
    EXPECT_EQ(ran.load(), 10);
    EXPECT_EQ(svc.stats().completed, 10u);
    EXPECT_EQ(svc.queue_depth(), 0u);
    try {
      svc.submit(0, [] {});
      FAIL() << "post-drain submission must be refused";
    } catch (const overloaded& o) {
      EXPECT_EQ(o.reason(), overload_reason::draining);
    }
    // The refused submission is counted, and admitted nothing.
    const auto st = svc.stats();
    EXPECT_EQ(st.submitted, 11u);
    EXPECT_EQ(st.admitted, 10u);
    EXPECT_EQ(st.rejected, 1u);
  }
  // Every job's pipeline memory was released: live bytes are back at the
  // pre-service baseline.
  EXPECT_EQ(pbds::memory::bytes_live(), baseline);
}

TEST_F(Service, DrainCancelsStragglersAndPoolStaysReusable) {
  service_config cfg;
  cfg.queue_capacity = 16;
  cfg.dispatchers = 2;
  pipeline_service svc(cfg);
  job_limits no_retries;
  no_retries.max_retries = 0;
  // Jobs spin on cancellable parallel work until drain cancels them.
  std::vector<job_ticket> tickets;
  for (int i = 0; i < 8; ++i) {
    tickets.push_back(svc.submit(
        0,
        [] {
          while (!pbds::sched::cancellation_requested()) {
            pbds::parallel_for(
                0, 256, [](std::size_t) {}, 64);
            std::this_thread::yield();
          }
        },
        no_retries));
  }
  svc.drain(20);  // nobody finishes in 20ms; everything is cancelled
  auto st = svc.stats();
  EXPECT_EQ(st.cancelled, 8u);
  EXPECT_EQ(st.completed, 0u);
  for (auto& t : tickets) {
    EXPECT_EQ(t.status(), job_status::cancelled);
    try {
      t.get();
      FAIL() << "cancelled ticket must throw";
    } catch (const overloaded& o) {
      EXPECT_EQ(o.reason(), overload_reason::drain_cancelled);
    }
  }
  // The pool survived the cancellations and is quiescent + reusable.
  std::atomic<std::uint64_t> sum{0};
  pbds::parallel_for(
      0, 4096, [&](std::size_t i) { sum += i; }, 64);
  EXPECT_EQ(sum.load(), 4096u * 4095u / 2);
}

TEST_F(Service, OverloadWithConstrainedBudgetTerminatesAndBalances) {
  soak_config cfg;
  cfg.producers = 4;
  cfg.jobs_per_producer = 10;
  cfg.n = 2048;
  cfg.poison_class = 1;               // that class's jobs fail
  cfg.job.budget_bytes = 256 * 1024;  // pipelines feel the budget
  cfg.job.max_retries = 1;
  cfg.job.retry_backoff_us = 1;
  cfg.service.queue_capacity = 4;     // 2x-overloaded vs 2 dispatchers
  cfg.service.dispatchers = 2;
  auto r = run_soak(cfg);
  // No hang, no abort (we got here), and every submission is accounted
  // for exactly once.
  EXPECT_EQ(r.stats.submitted, 40u);
  EXPECT_EQ(r.stats.completed + r.stats.failed + r.stats.rejected +
                r.stats.cancelled,
            r.stats.submitted);
  EXPECT_GT(r.stats.completed, 0u);
  // Jobs retried after a budget refusal finish with the oracle's result.
  EXPECT_EQ(r.result_mismatches, 0u);
}

// --- block-granular checkpoint/resume (PR 7) --------------------------------

// A checkpointed job whose first attempt stalls resumes on the retry:
// the retry salvages the completed blocks instead of re-running them, and
// the job lands in completed_after_resume.
TEST_F(ServiceResume, RetryResumesFromLedgerAndRecordsProgress) {
  pipeline_service svc(manual_config(4));
  auto ck = std::make_shared<pbds::recovery::job_checkpoint>();
  job_limits lim;
  lim.max_retries = 2;
  lim.retry_backoff_us = 1;
  std::uint64_t result = 0;
  auto t = svc.submit_resumable(
      0,
      [&result](pbds::recovery::job_checkpoint& c) {
        pbds::sched::scoped_sequential seq;
        pbds::scoped_block_size bs(256);
        std::optional<pbds::recovery::scoped_boundary_faults> inj;
        if (c.attempts() == 1)
          inj.emplace(pbds::recovery::boundary_fault_kind::stall, 3);
        auto xs = pbds::delayed::tabulate(1600, [](std::size_t i) {
          return static_cast<std::uint64_t>(i);
        });
        result = pbds::recovery::reduce(
            [](std::uint64_t a, std::uint64_t b) { return a + b; },
            std::uint64_t{0}, xs, c.slot<std::uint64_t>(0));
      },
      lim, ck);
  EXPECT_TRUE(svc.run_one());  // both attempts inside this run_one
  EXPECT_EQ(t.status(), job_status::done);
  EXPECT_EQ(result, 1600ull * 1599 / 2);
  EXPECT_EQ(ck->attempts(), 2u);
  auto st = svc.stats();
  EXPECT_EQ(st.resumed, 1u);
  EXPECT_EQ(st.retries, 1u);
  EXPECT_EQ(st.completed_after_resume, 1u);
  // Sequential attempt 1 completed exactly the 3 allowed unit starts, and
  // the retry salvaged exactly those.
  EXPECT_EQ(st.blocks_salvaged, 3u);
  EXPECT_EQ(st.blocks_redone, 0u);
  // Every block ran exactly once across both attempts.
  EXPECT_EQ(ck->aggregate().executions, 7u);
}

// A caller that keeps a job's checkpoint can finish the job after a drain
// cancelled it: submitting the checkpoint to a fresh service completes
// the job without re-executing a single completed block.
TEST_F(ServiceResume, DrainCancelledCheckpointCompletesInFreshService) {
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  auto rthunk = [&](pbds::recovery::job_checkpoint& ck) {
    pbds::sched::scoped_sequential seq;
    pbds::scoped_block_size bs(256);
    auto xs = pbds::delayed::tabulate(1600, [](std::size_t i) {
      return static_cast<std::uint64_t>(i * 3 + 1);
    });
    const auto& a =
        pbds::recovery::to_array(xs, ck.slot<std::uint64_t>(0));  // 7 blocks
    ASSERT_EQ(a.size(), 1600u);
    started.store(true);
    // Hold the job in flight until the test has driven drain past its
    // deadline (the cancellation is captured into this job's root scope;
    // returning surfaces it).
    while (!release.load())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  service_config cfg;
  cfg.queue_capacity = 4;
  cfg.dispatchers = 1;
  auto ck = std::make_shared<pbds::recovery::job_checkpoint>();
  {
    pipeline_service svc(cfg);
    auto t = svc.submit_resumable(2, rthunk, {}, ck);
    while (!started.load()) std::this_thread::yield();
    std::thread drainer([&] { svc.drain(20); });
    // Give the bounded drain ample time to hit its deadline and sweep the
    // in-flight cancellation before letting the job observe it.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    release.store(true);
    drainer.join();
    EXPECT_EQ(t.status(), job_status::cancelled);
    EXPECT_EQ(svc.stats().cancelled, 1u);
  }
  EXPECT_EQ(ck->aggregate().blocks_complete, 7u);
  // Resubmit into a fresh (manual) service: salvage everything.
  pipeline_service svc2(manual_config(4));
  auto t2 = svc2.submit_resumable(2, rthunk, {}, ck);
  EXPECT_TRUE(svc2.run_one());
  EXPECT_EQ(t2.status(), job_status::done);
  auto st2 = svc2.stats();
  EXPECT_EQ(st2.completed_after_resume, 1u);
  EXPECT_GE(st2.blocks_salvaged, 7u);
  // "No block executed more than once after the successful attempt": the
  // 7 executions all happened in the original pre-drain attempt.
  EXPECT_EQ(ck->aggregate().executions, 7u);
}

// The resumable soak converges under constrained budget at 2x capacity
// with resumed jobs actually completing — the CI service-soak assertion,
// in-process.
TEST_F(ServiceResume, ResumableSoakUnderBudgetCompletesResumedJobs) {
  // A seeded one-shot stall at a block boundary interrupts one attempt
  // mid-materialization; the service retries it (stall_detected is
  // retryable) and the retry resumes from the ledger. The per-job budget
  // keeps allocation pressure on without starving the initial storage
  // bind. Which job the stall lands in depends on the pool's timing, so
  // the deterministic salvage assertions live in
  // RetryResumesFromLedgerAndRecordsProgress; here we require that resumed
  // jobs exist and that some of them complete. The deadline-driven
  // interruption is the CI service-soak resumable step's (--deadline-ms 2).
  soak_config cfg;
  cfg.producers = 4;
  cfg.jobs_per_producer = 10;
  cfg.n = 1 << 19;
  cfg.resumable = true;
  cfg.job.budget_bytes = 16 * 1024 * 1024;
  cfg.job.max_retries = 3;
  cfg.job.retry_backoff_us = 1;
  cfg.service.queue_capacity = 8;
  cfg.service.dispatchers = 2;
  pbds::recovery::scoped_boundary_faults stall(
      pbds::recovery::boundary_fault_kind::stall,
      static_cast<std::int64_t>(cfg.seed % 64));
  auto r = run_soak(cfg);
  EXPECT_EQ(stall.injected(), 1u);
  EXPECT_EQ(r.stats.submitted, 40u);
  EXPECT_EQ(r.stats.completed + r.stats.failed + r.stats.rejected +
                r.stats.cancelled,
            r.stats.submitted);
  EXPECT_GT(r.stats.completed, 0u);
  // Recovery must have been exercised, not just configured.
  EXPECT_GT(r.stats.resumed, 0u);
  EXPECT_GT(r.stats.completed_after_resume, 0u);
  // Every completed job, resumed ones included, is bit-identical to the
  // per-class oracle.
  EXPECT_EQ(r.result_mismatches, 0u);
}

}  // namespace
