// Pipeline service: admission control, backpressure, per-job governance,
// circuit breaking, graceful drain, and deterministic decision replay.
//
// Most tests run the service in *manual* mode (dispatchers = 0): nothing
// executes until the test calls run_one(), so the interleaving of
// submissions and executions is scripted and every admit/shed/trip
// decision is reproducible. Dispatcher-mode tests cover the real-thread
// paths: blocking backpressure, guest-worker pipelines, drain
// cancellation of in-flight jobs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <optional>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <vector>

#include "core/block.hpp"
#include "memory/budget.hpp"
#include "memory/tracking.hpp"
#include "recovery/checkpoint_ops.hpp"
#include "sched/deterministic.hpp"
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

service_config manual_config(std::size_t cap, backpressure policy) {
  service_config cfg;
  cfg.queue_capacity = cap;
  cfg.policy = policy;
  cfg.dispatchers = 0;
  cfg.default_backoff_us = 1;  // keep retry sleeps out of test wall-clock
  return cfg;
}

TEST_F(Service, CompletesJobsManually) {
  pipeline_service svc(manual_config(8, backpressure::reject));
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
  pipeline_service svc(manual_config(2, backpressure::reject));
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

TEST_F(Service, ShedOldestEvictsQueuedHead) {
  pipeline_service svc(manual_config(2, backpressure::shed_oldest));
  auto t1 = svc.submit(1, [] {});
  auto t2 = svc.submit(2, [] {});
  auto t3 = svc.submit(3, [] {});  // sheds t1
  EXPECT_EQ(t1.status(), job_status::shed);
  try {
    t1.get();
    FAIL() << "shed ticket must throw";
  } catch (const overloaded& o) {
    EXPECT_EQ(o.reason(), overload_reason::shed);
  }
  EXPECT_LE(svc.queue_depth(), svc.queue_capacity());
  while (svc.run_one()) {
  }
  EXPECT_EQ(t2.status(), job_status::done);
  EXPECT_EQ(t3.status(), job_status::done);
  auto st = svc.stats();
  EXPECT_EQ(st.shed, 1u);
  EXPECT_EQ(st.completed, 2u);
}

TEST_F(Service, BlockPolicyWithDispatchersCompletesEverything) {
  service_config cfg;
  cfg.queue_capacity = 2;
  cfg.policy = backpressure::block;
  cfg.dispatchers = 2;
  pipeline_service svc(cfg);
  std::atomic<std::uint64_t> sum{0};
  std::vector<job_ticket> tickets;
  for (int i = 0; i < 20; ++i) {
    // Blocks whenever the 2-slot queue is full; dispatchers (enrolled as
    // scheduler guests) drain it running a real parallel pipeline.
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
  pipeline_service svc(manual_config(4, backpressure::reject));
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
  pipeline_service svc(manual_config(4, backpressure::reject));
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
  pipeline_service svc(manual_config(4, backpressure::reject));
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
  pipeline_service svc(manual_config(4, backpressure::reject));
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

TEST_F(Service, BreakerTripsWithinKWhileHealthyClassesComplete) {
  auto cfg = manual_config(8, backpressure::reject);
  cfg.breaker_threshold = 3;
  cfg.default_retries = 0;
  pipeline_service svc(cfg);
  constexpr unsigned kPoisoned = 9, kHealthy = 2;
  for (int i = 0; i < 3; ++i) {
    svc.submit(kPoisoned, [] { throw std::runtime_error("poisoned"); });
    EXPECT_TRUE(svc.run_one());
  }
  EXPECT_EQ(svc.breaker_state(kPoisoned), circuit_breaker::state::open);
  EXPECT_EQ(svc.stats().breaker_trips, 1u);
  try {
    svc.submit(kPoisoned, [] {});
    FAIL() << "open breaker must refuse the class";
  } catch (const overloaded& o) {
    EXPECT_EQ(o.reason(), overload_reason::circuit_open);
  }
  // A healthy class is unaffected.
  auto t = svc.submit(kHealthy, [] {});
  EXPECT_TRUE(svc.run_one());
  EXPECT_EQ(t.status(), job_status::done);
}

TEST_F(Service, HalfOpenProbeReclosesBreaker) {
  auto cfg = manual_config(8, backpressure::reject);
  cfg.breaker_threshold = 2;
  cfg.breaker_cooldown = 2;
  cfg.default_retries = 0;
  pipeline_service svc(cfg);
  constexpr unsigned kCls = 4;
  for (int i = 0; i < 2; ++i) {
    svc.submit(kCls, [] { throw std::runtime_error("transient outage"); });
    EXPECT_TRUE(svc.run_one());
  }
  EXPECT_EQ(svc.breaker_state(kCls), circuit_breaker::state::open);
  // Count-based cooldown: the first refused submission burns credit, the
  // second is admitted as the half-open probe.
  EXPECT_THROW(svc.submit(kCls, [] {}), overloaded);
  auto probe = svc.submit(kCls, [] {});  // outage over
  EXPECT_EQ(svc.breaker_state(kCls), circuit_breaker::state::half_open);
  EXPECT_TRUE(svc.run_one());
  EXPECT_EQ(probe.status(), job_status::done);
  EXPECT_EQ(svc.breaker_state(kCls), circuit_breaker::state::closed);
  // And the class is fully admitted again.
  auto after = svc.submit(kCls, [] {});
  EXPECT_TRUE(svc.run_one());
  EXPECT_EQ(after.status(), job_status::done);
  const auto trace = svc.trace();
  bool saw_probe = false, saw_close = false;
  for (const auto& e : trace) {
    saw_probe |= e.ev == event::probe && e.job_class == kCls;
    saw_close |= e.ev == event::close && e.job_class == kCls;
  }
  EXPECT_TRUE(saw_probe);
  EXPECT_TRUE(saw_close);
}

TEST_F(Service, DrainRunsBacklogThenRefusesNewWork) {
  const std::int64_t baseline = pbds::memory::bytes_live();
  {
    pipeline_service svc(manual_config(16, backpressure::reject));
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
    const auto trace = svc.trace();
    ASSERT_FALSE(trace.empty());
    EXPECT_EQ(trace.back().ev, event::drain_end);
    try {
      svc.submit(0, [] {});
      FAIL() << "post-drain submission must be refused";
    } catch (const overloaded& o) {
      EXPECT_EQ(o.reason(), overload_reason::draining);
    }
    // The refused submission is itself a recorded decision.
    EXPECT_EQ(svc.trace().back().ev, event::reject_draining);
  }
  // Every job's pipeline memory was released: live bytes are back at the
  // pre-service baseline.
  EXPECT_EQ(pbds::memory::bytes_live(), baseline);
}

TEST_F(Service, DrainCancelsStragglersAndPoolStaysReusable) {
  service_config cfg;
  cfg.queue_capacity = 16;
  cfg.policy = backpressure::reject;
  cfg.dispatchers = 2;
  cfg.default_retries = 0;
  pipeline_service svc(cfg);
  // Jobs spin on cancellable parallel work until drain cancels them.
  std::vector<job_ticket> tickets;
  for (int i = 0; i < 8; ++i) {
    tickets.push_back(svc.submit(0, [] {
      while (!pbds::sched::cancellation_requested()) {
        pbds::parallel_for(
            0, 256, [](std::size_t) {}, 64);
        std::this_thread::yield();
      }
    }));
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

TEST_F(Service, BlockedSubmitterRefusedWhenDrainEmptiesTheQueue) {
  // Regression: a block-policy submitter parked on cv_space_ must not be
  // admitted when drain's take_all both frees queue space and stops
  // admissions in one step — the job would be queued with nothing left to
  // run it and its ticket would hang forever.
  pipeline_service svc(manual_config(1, backpressure::block));
  auto queued = svc.submit(0, [] {});  // queue is now full
  std::exception_ptr blocked_err;
  std::thread submitter([&] {
    try {
      svc.submit(0, [] {});
    } catch (...) {
      blocked_err = std::current_exception();
    }
  });
  // submitted is bumped under the mutex before the thread parks, so this
  // poll means the submitter has entered submit (and with a full queue,
  // block policy, and no runners, can only be blocking or refused).
  while (svc.stats().submitted < 2) std::this_thread::yield();
  svc.drain(0);  // zero deadline: cancel the queued job, empty the queue
  submitter.join();
  ASSERT_TRUE(blocked_err) << "blocked submitter was admitted after drain";
  try {
    std::rethrow_exception(blocked_err);
  } catch (const overloaded& o) {
    EXPECT_EQ(o.reason(), overload_reason::draining);
  }
  EXPECT_EQ(queued.status(), job_status::cancelled);
  EXPECT_EQ(svc.queue_depth(), 0u);
  // Exactly the first submission was admitted; the blocked one never was.
  EXPECT_EQ(svc.stats().admitted, 1u);
  EXPECT_EQ(svc.stats().rejected, 1u);
}

TEST_F(Service, TraceIsBoundedButHashCoversEverything) {
  auto run = [](std::size_t trace_cap) {
    auto cfg = manual_config(8, backpressure::reject);
    cfg.trace_capacity = trace_cap;
    pipeline_service svc(cfg);
    for (int i = 0; i < 32; ++i) {
      svc.submit(static_cast<unsigned>(i % 3), [] {});
      svc.run_one();
    }
    svc.drain();
    return std::tuple(svc.trace().size(), svc.trace_dropped(),
                      svc.trace_hash());
  };
  const auto [full_size, full_dropped, full_hash] = run(1 << 16);
  const auto [cap_size, cap_dropped, cap_hash] = run(4);
  EXPECT_EQ(full_dropped, 0u);
  EXPECT_LE(cap_size, 4u);
  EXPECT_EQ(cap_dropped, full_size - cap_size);
  // The replay fingerprint is independent of the retention window.
  EXPECT_EQ(cap_hash, full_hash);
}

TEST_F(Service, DrainCancelledProbeDoesNotStrandBreakerHalfOpen) {
  auto cfg = manual_config(8, backpressure::reject);
  cfg.breaker_threshold = 1;
  cfg.breaker_cooldown = 2;
  cfg.default_retries = 0;
  pipeline_service svc(cfg);
  constexpr unsigned kCls = 6;
  svc.submit(kCls, [] { throw std::runtime_error("poisoned"); });
  EXPECT_TRUE(svc.run_one());
  EXPECT_EQ(svc.breaker_state(kCls), circuit_breaker::state::open);
  EXPECT_THROW(svc.submit(kCls, [] {}), overloaded);  // burns cooldown
  auto probe = svc.submit(kCls, [] {});               // half-open probe
  EXPECT_EQ(svc.breaker_state(kCls), circuit_breaker::state::half_open);
  svc.drain(0);  // cancels the still-queued probe before it ever runs
  EXPECT_EQ(probe.status(), job_status::cancelled);
  // The probe will never report a result; the breaker must re-open (with
  // cooldown credit) rather than stay half_open with no probe in flight.
  EXPECT_EQ(svc.breaker_state(kCls), circuit_breaker::state::open);
}

// Scripted overload scenario: a seeded splitmix64 stream decides each
// step's job class (one class poisoned, one running a pipeline under the
// deterministic simulator with seed-armed stall injection) and how many
// queued jobs execute between submissions. Same seed => same admission,
// shed, retry, trip, and drain decisions => identical trace.
std::vector<trace_entry> scripted_run(std::uint64_t seed) {
  auto cfg = manual_config(4, backpressure::shed_oldest);
  cfg.breaker_threshold = 2;
  cfg.breaker_cooldown = 3;
  cfg.default_retries = 1;
  cfg.seed = seed;
  pipeline_service svc(cfg);
  std::uint64_t state = seed;
  for (int i = 0; i < 48; ++i) {
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    const unsigned cls = static_cast<unsigned>(z & 3);
    try {
      if (cls == 3) {
        svc.submit(3, [] { throw std::runtime_error("poisoned class"); });
      } else if (cls == 2) {
        const std::uint64_t jobseed = z >> 8;
        svc.submit(2, [jobseed] {
          // Replayable stall: the simulator injects stall_detected at a
          // fork count that is a pure function of the job's seed.
          pbds::sched::scoped_deterministic det(jobseed, 4);
          if ((jobseed & 1) != 0) det.scheduler().arm_stall_after(3);
          std::atomic<long> acc{0};
          pbds::parallel_for(
              0, 512, [&](std::size_t j) { acc += static_cast<long>(j); },
              16);
        });
      } else {
        svc.submit(cls, [] {});
      }
    } catch (const overloaded&) {
      // Refusals are part of the scripted trace.
    }
    if ((z & 4) != 0) svc.run_one();
    if ((z & 8) != 0) svc.run_one();
  }
  svc.drain();
  return svc.trace();
}

TEST_F(Service, IdenticalSeedsReplayIdenticalDecisionTraces) {
  const auto a = scripted_run(7);
  const auto b = scripted_run(7);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_TRUE(a == b);
  // The scenario is nontrivial: it must exercise shed/refusal paths, not
  // just a string of admits.
  bool saw_shed_or_reject = false, saw_fail = false;
  for (const auto& e : a) {
    saw_shed_or_reject |=
        e.ev == event::shed || e.ev == event::reject_open;
    saw_fail |= e.ev == event::fail;
  }
  EXPECT_TRUE(saw_shed_or_reject);
  EXPECT_TRUE(saw_fail);
}

TEST_F(Service, TraceHashMatchesAcrossReplays) {
  auto hash_of = [](std::uint64_t seed) {
    auto cfg = manual_config(3, backpressure::shed_oldest);
    cfg.seed = seed;
    pipeline_service svc(cfg);
    for (int i = 0; i < 10; ++i) {
      try {
        svc.submit(static_cast<unsigned>(i % 3), [] {});
      } catch (const overloaded&) {
      }
      if (i % 2 == 0) svc.run_one();
    }
    svc.drain();
    return svc.trace_hash();
  };
  EXPECT_EQ(hash_of(11), hash_of(11));
  EXPECT_EQ(hash_of(12), hash_of(12));
}

TEST_F(Service, OverloadWithConstrainedBudgetTerminatesAndBalances) {
  soak_config cfg;
  cfg.producers = 4;
  cfg.jobs_per_producer = 10;
  cfg.n = 2048;
  cfg.poison_class = 1;               // trips that class's breaker
  cfg.job_budget_bytes = 256 * 1024;  // pipelines feel the budget
  cfg.service.queue_capacity = 4;     // 2x-overloaded vs 2 dispatchers
  cfg.service.policy = backpressure::reject;
  cfg.service.dispatchers = 2;
  cfg.service.breaker_threshold = 3;
  cfg.service.default_retries = 1;
  cfg.service.default_backoff_us = 1;
  auto r = run_soak(cfg);
  // No hang, no abort (we got here), and every submission is accounted
  // for exactly once.
  EXPECT_EQ(r.stats.submitted, 40u);
  EXPECT_EQ(r.stats.completed + r.stats.failed + r.stats.rejected +
                r.stats.shed + r.stats.cancelled,
            r.stats.submitted);
  EXPECT_GT(r.stats.completed, 0u);
  // Jobs retried after a budget refusal finish with the oracle's result.
  EXPECT_EQ(r.result_mismatches, 0u);
}

// --- block-granular checkpoint/resume (PR 7) --------------------------------

// Regression: a retry that hits the breaker-open fast path must fail the
// job WITHOUT burning a checkpoint attempt, counting a retry, or emitting
// a resume event — the job never re-executes, so its ledger budget must
// stay intact for a later readmission. (Previously the retry ladder
// re-ran the attempt and let the class's open breaker reject it only on
// the next submission.)
TEST_F(ServiceResume, BreakerOpenRetryBurnsNoCheckpointAttempt) {
  auto cfg = manual_config(8, backpressure::reject);
  cfg.breaker_threshold = 1;  // one failure of the class opens the breaker
  pipeline_service svc(cfg);
  std::atomic<bool> a_started{false};
  std::atomic<bool> release_a{false};
  auto ck = std::make_shared<pbds::recovery::job_checkpoint>();
  job_limits lim;
  lim.max_retries = 3;
  lim.retry_backoff_us = 1;
  // A: checkpointed, fails retryably — but only after B has tripped the
  // class breaker on another thread.
  auto ta = svc.submit_resumable(
      0,
      [&](pbds::recovery::job_checkpoint&) {
        a_started.store(true);
        while (!release_a.load()) std::this_thread::yield();
        throw pbds::stall_detected("test: transient stall");
      },
      lim, ck);
  auto tb = svc.submit(0, [] { throw std::runtime_error("poisoned"); });
  std::thread t1([&] { EXPECT_TRUE(svc.run_one()); });  // runs A, parks in it
  while (!a_started.load()) std::this_thread::yield();
  EXPECT_TRUE(svc.run_one());  // runs B: fails, trips the class-0 breaker
  EXPECT_EQ(tb.status(), job_status::failed);
  EXPECT_EQ(svc.breaker_state(0), circuit_breaker::state::open);
  release_a.store(true);  // A's stall surfaces; its retry must fail fast
  t1.join();
  EXPECT_EQ(ta.status(), job_status::failed);
  try {
    ta.get();
    FAIL() << "breaker-open retry should surface overloaded";
  } catch (const overloaded& o) {
    EXPECT_EQ(o.reason(), overload_reason::circuit_open);
  }
  // The regression's teeth: exactly the one real execution is accounted.
  EXPECT_EQ(ck->attempts(), 1u);
  auto st = svc.stats();
  EXPECT_EQ(st.retries, 0u);
  EXPECT_EQ(st.resumed, 0u);
  bool saw_reject_open = false, saw_resume = false;
  for (const auto& e : svc.trace()) {
    saw_reject_open |= e.ev == event::reject_open;
    saw_resume |= e.ev == event::resume;
  }
  EXPECT_TRUE(saw_reject_open);
  EXPECT_FALSE(saw_resume);
}

// A checkpointed job whose first attempt stalls resumes on the retry:
// the resume event carries the salvageable-block count, the retry skips
// completed blocks, and the job lands in completed_after_resume.
TEST_F(ServiceResume, RetryResumesFromLedgerAndRecordsProgress) {
  pipeline_service svc(manual_config(4, backpressure::reject));
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
  EXPECT_GE(st.blocks_salvaged, 3u);
  EXPECT_EQ(st.blocks_redone, 0u);
  // Sequential attempt 1 completed exactly the 3 allowed unit starts; the
  // resume event's aux must say so.
  bool saw = false;
  for (const auto& e : svc.trace()) {
    if (e.ev == event::resume) {
      saw = true;
      EXPECT_EQ(e.aux, 3u);
    }
  }
  EXPECT_TRUE(saw);
  // Every block ran exactly once across both attempts.
  EXPECT_EQ(ck->aggregate().executions, 7u);
}

// Drain cancels an in-flight resumable job, parks its checkpoint with the
// progress it made, and a fresh service readmits and finishes it without
// re-executing a single completed block.
TEST_F(ServiceResume, DrainParksInFlightProgressForReadmission) {
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
  std::uint64_t parked_hash = 0;
  std::vector<parked_job> parked;
  {
    pipeline_service svc(cfg);
    auto t = svc.submit_resumable(2, rthunk);
    while (!started.load()) std::this_thread::yield();
    std::thread drainer([&] { svc.drain(20); });
    // Give the bounded drain ample time to hit its deadline and sweep the
    // in-flight cancellation before letting the job observe it.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    release.store(true);
    drainer.join();
    EXPECT_EQ(t.status(), job_status::cancelled);
    auto st = svc.stats();
    EXPECT_EQ(st.cancelled, 1u);
    EXPECT_EQ(st.parked, 1u);
    bool saw_park = false;
    for (const auto& e : svc.trace()) {
      if (e.ev == event::park) {
        saw_park = true;
        EXPECT_EQ(e.aux, 7u);  // all 7 blocks were already complete
      }
    }
    EXPECT_TRUE(saw_park);
    parked = svc.take_parked();
    parked_hash = svc.trace_hash();
  }
  ASSERT_EQ(parked.size(), 1u);
  EXPECT_EQ(parked[0].job_class, 2u);
  ASSERT_NE(parked[0].checkpoint, nullptr);
  EXPECT_EQ(parked[0].checkpoint->aggregate().blocks_complete, 7u);
  EXPECT_NE(parked_hash, 0u);
  // Readmit into a fresh (manual) service: salvage everything.
  release.store(true);  // the closure re-checks; let it fall straight through
  pipeline_service svc2(manual_config(4, backpressure::reject));
  auto ck = parked[0].checkpoint;
  auto t2 = svc2.resubmit(std::move(parked[0]));
  EXPECT_TRUE(svc2.run_one());
  EXPECT_EQ(t2.status(), job_status::done);
  auto st2 = svc2.stats();
  EXPECT_EQ(st2.readmitted, 1u);
  EXPECT_EQ(st2.completed_after_resume, 1u);
  EXPECT_GE(st2.blocks_salvaged, 7u);
  bool saw_readmit = false;
  for (const auto& e : svc2.trace()) {
    if (e.ev == event::readmit) {
      saw_readmit = true;
      EXPECT_EQ(e.aux, 7u);
    }
  }
  EXPECT_TRUE(saw_readmit);
  // "No block executed more than once after the successful attempt": the
  // 7 executions all happened in the original pre-drain attempt.
  EXPECT_EQ(ck->aggregate().executions, 7u);
}

// Seed replay with recovery in play: identical scripted runs of
// checkpointed jobs (deterministic per-job stall points) produce identical
// traces and trace hashes, with resume events present — the replay
// fingerprint covers recovery decisions too.
TEST_F(ServiceResume, SeedReplayTraceHashCoversResumeEvents) {
  auto run = [](std::uint64_t seed) {
    auto cfg = manual_config(8, backpressure::reject);
    cfg.seed = seed;
    pipeline_service svc(cfg);
    job_limits lim;
    lim.max_retries = 1;
    lim.retry_backoff_us = 1;
    for (unsigned i = 0; i < 6; ++i) {
      svc.submit_resumable(
          i % 2,
          [i](pbds::recovery::job_checkpoint& c) {
            pbds::sched::scoped_sequential seq;
            pbds::scoped_block_size bs(256);
            std::optional<pbds::recovery::scoped_boundary_faults> inj;
            if (c.attempts() == 1)
              inj.emplace(pbds::recovery::boundary_fault_kind::stall,
                          static_cast<std::int64_t>(i % 5));
            auto xs = pbds::delayed::tabulate(1600, [](std::size_t k) {
              return static_cast<std::uint64_t>(k + 11);
            });
            (void)pbds::recovery::reduce(
                [](std::uint64_t a, std::uint64_t b) { return a + b; },
                std::uint64_t{0}, xs, c.slot<std::uint64_t>(0));
          },
          lim);
      while (svc.run_one()) {
      }
    }
    svc.drain();
    return std::tuple(svc.trace(), svc.trace_hash(), svc.stats().resumed);
  };
  auto [trace_a, hash_a, resumed_a] = run(21);
  auto [trace_b, hash_b, resumed_b] = run(21);
  EXPECT_TRUE(trace_a == trace_b);
  EXPECT_EQ(hash_a, hash_b);
  EXPECT_EQ(resumed_a, resumed_b);
  EXPECT_EQ(resumed_a, 6u);  // every job stalls once, then resumes
  // aux payloads differ per job (i % 5 completed blocks) and are folded
  // into the hash; make sure they actually appeared.
  bool saw_nonzero_aux = false;
  for (const auto& e : trace_a) {
    if (e.ev == event::resume && e.aux > 0) saw_nonzero_aux = true;
  }
  EXPECT_TRUE(saw_nonzero_aux);
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
  cfg.job_budget_bytes = 16 * 1024 * 1024;
  cfg.service.queue_capacity = 8;
  cfg.service.policy = backpressure::reject;
  cfg.service.dispatchers = 2;
  cfg.service.default_retries = 3;
  cfg.service.default_backoff_us = 1;
  pbds::recovery::scoped_boundary_faults stall(
      pbds::recovery::boundary_fault_kind::stall,
      static_cast<std::int64_t>(cfg.seed % 64));
  auto r = run_soak(cfg);
  EXPECT_EQ(stall.injected(), 1u);
  EXPECT_EQ(r.stats.submitted, 40u);
  EXPECT_EQ(r.stats.completed + r.stats.failed + r.stats.rejected +
                r.stats.shed + r.stats.cancelled,
            r.stats.submitted);
  EXPECT_GT(r.stats.completed, 0u);
  // Recovery must have been exercised, not just configured.
  EXPECT_GT(r.stats.resumed, 0u);
  EXPECT_GT(r.stats.completed_after_resume, 0u);
  // Every completed job, resumed ones included, is bit-identical to the
  // per-class oracle.
  EXPECT_EQ(r.result_mismatches, 0u);
}

TEST_F(Service, ConfigFromEnvParsesStrictly) {
  ::setenv("PBDS_SERVICE_QUEUE_CAP", "17", 1);
  ::setenv("PBDS_SERVICE_BREAKER_K", "5", 1);
  ::setenv("PBDS_SERVICE_RETRIES", "not-a-number", 1);
  auto cfg = service_config::from_env();
  EXPECT_EQ(cfg.queue_capacity, 17u);
  EXPECT_EQ(cfg.breaker_threshold, 5);
  EXPECT_EQ(cfg.default_retries, 2);  // malformed: warn once, keep default
  ::unsetenv("PBDS_SERVICE_QUEUE_CAP");
  ::unsetenv("PBDS_SERVICE_BREAKER_K");
  ::unsetenv("PBDS_SERVICE_RETRIES");
}

}  // namespace
