// pipeline_service — a bounded executor for delayed-pipeline jobs on the
// fork-join pool.
//
// The paper's library gives each *pipeline* bounded space; this layer
// runs a *process full of concurrent pipelines* within bounds:
//
//   admission — a bounded FIFO; a full queue refuses the submission with
//               pbds::overloaded{queue_full}.
//   isolation — each job runs under its own budget_scope + deadline
//               (job_limits), so one hog degrades itself, not the
//               service.
//   retry     — budget_exceeded / stall_detected are transient under
//               concurrency; jobs retry with jittered exponential backoff
//               before failing for real, and a checkpointed job resumes
//               from its ledger instead of restarting.
//   drain     — stop admissions, run what's queued under a drain
//               deadline, cancel stragglers through the fork-join
//               cancellation protocol, leave the pool quiescent and
//               reusable.
//
// Threading modes:
//   dispatchers = 0  — *manual*: nothing runs until the owner calls
//                      run_one() / drain(), so a test scripts the
//                      interleaving of submissions and executions.
//   dispatchers > 0  — that many service threads pull jobs. Dispatchers
//                      enroll as scheduler guests (sched::guest_worker) so
//                      the pipelines they run fork real stealable work
//                      instead of degrading to the sequential fast path.
//
// Lock order: service mutex before any job_record mutex; never the
// reverse. Control operations (drain, destruction) belong to one owner
// thread; submit/ticket APIs are thread-safe.
#pragma once

#include <algorithm>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "memory/budget.hpp"
#include "recovery/resumable.hpp"
#include "sched/cancellation.hpp"
#include "sched/exec_policy.hpp"
#include "sched/scheduler.hpp"
#include "service/overloaded.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace pbds::service {

// Per-job resource envelope. Non-positive budget/deadline means "no
// constraint".
struct job_limits {
  std::int64_t budget_bytes = 0;       // budget_scope for the job's pipelines
  long deadline_ms = 0;                // per-attempt region deadline
  int max_retries = 2;                 // retries of budget_exceeded/stall
  std::int64_t retry_backoff_us = 100; // base of the jittered backoff ladder
};

struct service_config {
  std::size_t queue_capacity = 64;  // values < 1 are clamped to 1
  unsigned dispatchers = 0;         // 0 = manual mode (owner calls run_one)
};

enum class job_status : unsigned char {
  queued,
  running,
  done,
  failed,     // thunk failed after the retry ladder
  cancelled,  // drain deadline cancelled it (queued or in flight)
};

[[nodiscard]] constexpr bool is_terminal(job_status s) noexcept {
  return s != job_status::queued && s != job_status::running;
}

struct service_stats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;  // queue_full + draining
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t retries = 0;
  // Recovery accounting (checkpointed jobs only).
  std::uint64_t resumed = 0;                // retries that resumed a ledger
  std::uint64_t completed_after_resume = 0; // done on a 2nd+ attempt
  std::uint64_t blocks_salvaged = 0;        // block executions avoided
  std::uint64_t blocks_redone = 0;          // started-incomplete re-runs
};

// Thunk form of a checkpointed job: receives the job's checkpoint and
// binds its resumable slots to whatever checkpointed ops it runs.
using resumable_fn = std::function<void(recovery::job_checkpoint&)>;

namespace detail {

struct job_record {
  std::function<void()> thunk;
  // Checkpointed jobs use these two instead of `thunk`: the checkpoint
  // survives failed attempts, so a retry resumes it.
  resumable_fn rthunk;
  std::shared_ptr<recovery::job_checkpoint> checkpoint;
  unsigned job_class = 0;
  job_limits limits;
  std::uint64_t id = 0;
  // End-to-end latency clock: submit construction to terminal transition
  // (telemetry::hist::service_latency_us).
  std::chrono::steady_clock::time_point submitted_at =
      std::chrono::steady_clock::now();

  // Terminal-state handshake. Lock order: after the service mutex.
  std::mutex m;
  std::condition_variable cv;
  job_status status = job_status::queued;
  std::exception_ptr error;
};

}  // namespace detail

// Handle to a submitted job. Copyable; outliving the service is safe (the
// record is shared), but wait()/get() in manual mode only return if
// someone drives run_one()/drain().
class job_ticket {
 public:
  job_ticket() = default;

  [[nodiscard]] bool valid() const noexcept { return rec_ != nullptr; }
  [[nodiscard]] unsigned job_class() const noexcept {
    return rec_ ? rec_->job_class : 0;
  }

  [[nodiscard]] job_status status() const {
    assert(rec_);
    std::lock_guard<std::mutex> lock(rec_->m);
    return rec_->status;
  }

  void wait() const {
    assert(rec_);
    std::unique_lock<std::mutex> lock(rec_->m);
    rec_->cv.wait(lock, [&] { return is_terminal(rec_->status); });
  }

  // Wait, then rethrow the job's failure (overloaded for cancelled, the
  // thunk's own exception for failed). Returns normally iff done.
  void get() const {
    wait();
    std::lock_guard<std::mutex> lock(rec_->m);
    if (rec_->error) std::rethrow_exception(rec_->error);
  }

 private:
  friend class pipeline_service;
  explicit job_ticket(std::shared_ptr<detail::job_record> rec)
      : rec_(std::move(rec)) {}

  std::shared_ptr<detail::job_record> rec_;
};

class pipeline_service {
 public:
  explicit pipeline_service(service_config cfg = {}) : cfg_(cfg) {
    cfg_.queue_capacity = std::max<std::size_t>(cfg_.queue_capacity, 1);
    if (cfg_.dispatchers > 0) {
      // Touch the pool from the owner thread first: get_scheduler()
      // enrolls the *first* caller as worker 0, and that must not be a
      // dispatcher (it would leave with the pool's identity).
      (void)sched::get_scheduler();
      dispatchers_.reserve(cfg_.dispatchers);
      for (unsigned i = 0; i < cfg_.dispatchers; ++i)
        dispatchers_.emplace_back([this] { dispatcher_loop(); });
    }
  }

  ~pipeline_service() {
    if (!drained_) drain(0);
  }

  pipeline_service(const pipeline_service&) = delete;
  pipeline_service& operator=(const pipeline_service&) = delete;

  // Submit a pipeline job. Throws pbds::overloaded when the service
  // refuses it: a full queue (queue_full) or a drain in progress
  // (draining).
  job_ticket submit(unsigned job_class, std::function<void()> thunk,
                    job_limits limits = {}) {
    auto rec = std::make_shared<detail::job_record>();
    rec->thunk = std::move(thunk);
    rec->job_class = job_class;
    rec->limits = limits;
    return admit(std::move(rec));
  }

  // Submit a checkpointed job: `fn` receives the job's checkpoint and
  // binds resumable slots for the checkpointed ops it runs. Retries resume
  // from the checkpoint instead of restarting. Pass an existing checkpoint
  // (e.g. one a caller kept from a job a drain cancelled) to continue its
  // progress, in this or another service; a fresh one is created
  // otherwise.
  job_ticket submit_resumable(
      unsigned job_class, resumable_fn fn, job_limits limits = {},
      std::shared_ptr<recovery::job_checkpoint> checkpoint = nullptr) {
    auto rec = std::make_shared<detail::job_record>();
    rec->checkpoint = checkpoint ? std::move(checkpoint)
                                 : std::make_shared<recovery::job_checkpoint>();
    rec->rthunk = std::move(fn);
    rec->job_class = job_class;
    rec->limits = limits;
    return admit(std::move(rec));
  }

  // Manual mode: run the next queued job on the calling thread. Returns
  // false when the queue is empty. Must be called outside any fork-join
  // region.
  bool run_one() {
    std::shared_ptr<detail::job_record> rec;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (queue_.empty()) return false;
      rec = pop_locked();
    }
    execute(std::move(rec));
    return true;
  }

  // Graceful drain: stop admissions, give queued + in-flight work
  // `deadline_ms` to finish (negative = unbounded, 0 = none), then cancel
  // stragglers through the cancellation protocol, stop dispatchers, and
  // quiesce the pool. Idempotent; call from the owner thread.
  void drain(long deadline_ms = -1) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (drained_) return;
      if (!draining_) {
        draining_ = true;
        mark("drain_begin", 0);
      }
    }
    const auto cutoff = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_ms < 0 ? 0 : deadline_ms);
    const bool bounded = deadline_ms >= 0;
    if (dispatchers_.empty()) {
      // Manual mode: this thread runs the backlog itself (none of it for
      // a zero deadline).
      if (!bounded) {
        while (run_one()) {
        }
      } else if (deadline_ms > 0) {
        while (std::chrono::steady_clock::now() < cutoff && run_one()) {
        }
      }
    } else {
      std::unique_lock<std::mutex> lk(mutex_);
      auto drained = [&] { return queue_.empty() && running_ == 0; };
      if (bounded) {
        cv_idle_.wait_until(lk, cutoff, drained);
      } else {
        cv_idle_.wait(lk, drained);
      }
    }
    // Deadline passed (or backlog done): cancel what's left. Queued jobs
    // fail directly; in-flight jobs get pbds::overloaded captured into
    // their root cancel_state and collapse cooperatively.
    {
      std::lock_guard<std::mutex> lock(mutex_);
      std::deque<std::shared_ptr<detail::job_record>> left;
      left.swap(queue_);
      for (auto& rec : left) {
        mark("cancel", rec->job_class);
        ++stats_.cancelled;
        finish(std::move(rec), job_status::cancelled,
               std::make_exception_ptr(
                   overloaded(overload_reason::drain_cancelled)));
      }
      for (auto* cs : inflight_)
        cs->capture(std::make_exception_ptr(
            overloaded(overload_reason::drain_cancelled)));
      stop_dispatch_ = true;
    }
    cv_work_.notify_all();
    for (auto& t : dispatchers_) t.join();
    dispatchers_.clear();
    // Manual mode has no in-flight jobs here; dispatcher joins covered
    // theirs. The pool itself must be quiescent and reusable.
    sched::quiesce();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      mark("drain_end", 0);
      drained_ = true;
    }
  }

  [[nodiscard]] bool draining() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return draining_;
  }

  [[nodiscard]] std::size_t queue_depth() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
  }

  [[nodiscard]] std::size_t queue_capacity() const noexcept {
    return cfg_.queue_capacity;
  }

  [[nodiscard]] service_stats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
  }

 private:
  job_ticket admit(std::shared_ptr<detail::job_record> rec) {
    std::unique_lock<std::mutex> lk(mutex_);
    rec->id = next_job_id_++;
    ++stats_.submitted;
    if (draining_) refuse(rec, overload_reason::draining);
    if (queue_.size() >= cfg_.queue_capacity)
      refuse(rec, overload_reason::queue_full);
    mark("admit", rec->job_class, telemetry::counter::jobs_admitted);
    ++stats_.admitted;
    queue_.push_back(rec);
    lk.unlock();
    cv_work_.notify_one();
    return job_ticket(std::move(rec));
  }

  // Finish + throw for every submission-time refusal. Called with the
  // service mutex held. The record was never queued and submit throws
  // before returning a ticket, but it still gets a terminal status so any
  // future caller that stashed the record can't wait forever.
  [[noreturn]] void refuse(const std::shared_ptr<detail::job_record>& rec,
                           overload_reason reason) {
    mark(reason == overload_reason::queue_full ? "reject_full"
                                               : "reject_draining",
         rec->job_class, telemetry::counter::jobs_shed);
    ++stats_.rejected;
    finish(rec, job_status::failed,
           std::make_exception_ptr(overloaded(reason)));
    throw overloaded(reason);
  }

  // Pop the next job to run (FIFO). Called with the service mutex held.
  std::shared_ptr<detail::job_record> pop_locked() {
    auto rec = std::move(queue_.front());
    queue_.pop_front();
    ++running_;
    return rec;
  }

  // Mark a service decision on the trace timeline, counting it in the
  // metrics registry when it has a counter; a dashboard reads both
  // without this service's mutex.
  static void mark(const char* what, unsigned job_class) {
    if (telemetry::trace_enabled())
      telemetry::trace_instant(telemetry::trace_kind::job, what,
                               static_cast<std::int64_t>(job_class));
  }
  static void mark(const char* what, unsigned job_class,
                   telemetry::counter c) {
    telemetry::count(c);
    mark(what, job_class);
  }

  // Terminal transition on a record. Service mutex may be held; takes the
  // record mutex (lock order: service before record).
  static void finish(std::shared_ptr<detail::job_record> rec, job_status st,
                     std::exception_ptr err) {
    telemetry::observe(
        telemetry::hist::service_latency_us,
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - rec->submitted_at)
                .count()));
    {
      std::lock_guard<std::mutex> lock(rec->m);
      rec->status = st;
      rec->error = std::move(err);
    }
    rec->cv.notify_all();
  }

  void dispatcher_loop() {
    // Enroll as a scheduler guest so this thread's fork2join calls push
    // stealable work (and it steals back while joining) instead of
    // falling into the sequential fast path for non-pool threads. If the
    // guest slots are exhausted, jobs still run — sequentially.
    sched::guest_worker guest(sched::get_scheduler());
    for (;;) {
      std::shared_ptr<detail::job_record> rec;
      {
        std::unique_lock<std::mutex> lk(mutex_);
        cv_work_.wait(lk, [&] { return stop_dispatch_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stop requested, backlog cancelled
        rec = pop_locked();
      }
      execute(std::move(rec));
    }
  }

  void execute(std::shared_ptr<detail::job_record> rec) {
    {
      std::lock_guard<std::mutex> lock(rec->m);
      rec->status = job_status::running;
    }
    const job_limits& lim = rec->limits;
    std::exception_ptr err;
    for (int attempt = 0;; ++attempt) {
      err = run_attempt(*rec);
      if (!err || !retryable(err) || attempt >= lim.max_retries) break;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (draining_) break;  // honor the drain deadline over retries
        if (rec->checkpoint) {
          mark("resume", rec->job_class, telemetry::counter::jobs_retried);
          ++stats_.resumed;
        } else {
          mark("retry", rec->job_class, telemetry::counter::jobs_retried);
        }
        ++stats_.retries;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(
          memory::jittered_backoff_us(attempt, lim.retry_backoff_us,
                                      rec->id)));
    }
    finalize(std::move(rec), std::move(err));
  }

  // One attempt of the job under its resource envelope. The service owns
  // the attempt's *root* cancel scope: the thunk's fork-join regions nest
  // inside it, so drain can cancel the whole job by capturing into this
  // one state — and a cancellation that collapsed the thunk without
  // unwinding (nested joins bail and return) is still surfaced here by
  // the rethrow_first after the thunk returns.
  std::exception_ptr run_attempt(detail::job_record& rec) {
    telemetry::trace_span span(telemetry::trace_kind::job, "attempt",
                               static_cast<std::int64_t>(rec.job_class));
    const auto attempt_start = std::chrono::steady_clock::now();
    struct attempt_timer {
      std::chrono::steady_clock::time_point start;
      ~attempt_timer() {
        telemetry::observe(
            telemetry::hist::attempt_latency_us,
            static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - start)
                    .count()));
      }
    } timer{attempt_start};
    std::optional<memory::budget_scope> budget;
    if (rec.limits.budget_bytes > 0) budget.emplace(rec.limits.budget_bytes);
    std::optional<sched::region_deadline> deadline;
    if (rec.limits.deadline_ms > 0 &&
        sched::current_exec_mode() == sched::exec_mode::parallel) {
      sched::ensure_watchdog_for_deadlines();
      deadline.emplace(std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(rec.limits.deadline_ms));
    }
    sched::cancel_scope scope;
    assert(scope.is_root() && "pipeline_service job inside a fork-join region");
    sched::cancel_state* cs = scope.state();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      inflight_.push_back(cs);
      // A job popped just before drain's cancellation sweep would miss
      // the capture loop; catch it as it registers.
      if (stop_dispatch_)
        cs->capture(std::make_exception_ptr(
            overloaded(overload_reason::drain_cancelled)));
    }
    try {
      if (rec.checkpoint) {
        // Attempt accounting lives on the checkpoint: one bump per actual
        // thunk execution.
        rec.checkpoint->begin_attempt();
        rec.rthunk(*rec.checkpoint);
      } else {
        rec.thunk();
      }
    } catch (...) {
      cs->capture(std::current_exception());
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (auto it = inflight_.begin(); it != inflight_.end(); ++it) {
        if (*it == cs) {
          inflight_.erase(it);
          break;
        }
      }
    }
    if (cs->cancelled()) {
      try {
        cs->rethrow_first();
      } catch (...) {
        return std::current_exception();
      }
    }
    return nullptr;
  }

  [[nodiscard]] static bool retryable(const std::exception_ptr& err) {
    try {
      std::rethrow_exception(err);
    } catch (const budget_exceeded&) {
      return true;
    } catch (const stall_detected&) {
      return true;
    } catch (...) {
      return false;
    }
  }

  [[nodiscard]] static bool drain_cancelled(const std::exception_ptr& err) {
    try {
      std::rethrow_exception(err);
    } catch (const overloaded& o) {
      return o.reason() == overload_reason::drain_cancelled;
    } catch (...) {
      return false;
    }
  }

  void finalize(std::shared_ptr<detail::job_record> rec,
                std::exception_ptr err) {
    job_status st;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!err) {
        st = job_status::done;
        mark("complete", rec->job_class, telemetry::counter::jobs_completed);
        ++stats_.completed;
        if (rec->checkpoint) {
          auto p = rec->checkpoint->aggregate();
          stats_.blocks_salvaged += p.salvaged;
          stats_.blocks_redone += p.redone;
          // Attempts accumulate on the checkpoint, also across services,
          // so a checkpoint submitted again after a drain counts here.
          if (rec->checkpoint->attempts() > 1) ++stats_.completed_after_resume;
        }
      } else if (drain_cancelled(err)) {
        st = job_status::cancelled;
        mark("cancel", rec->job_class);
        ++stats_.cancelled;
      } else {
        st = job_status::failed;
        mark("fail", rec->job_class, telemetry::counter::jobs_failed);
        ++stats_.failed;
      }
      --running_;
    }
    cv_idle_.notify_all();
    finish(std::move(rec), st, std::move(err));
  }

  service_config cfg_;
  mutable std::mutex mutex_;
  std::condition_variable cv_work_;  // dispatchers: work available / stop
  std::condition_variable cv_idle_;  // drain: backlog finished
  std::deque<std::shared_ptr<detail::job_record>> queue_;
  std::vector<sched::cancel_state*> inflight_;
  service_stats stats_;
  std::vector<std::thread> dispatchers_;
  std::uint64_t next_job_id_ = 0;
  std::size_t running_ = 0;
  bool draining_ = false;
  bool drained_ = false;
  bool stop_dispatch_ = false;
};

}  // namespace pbds::service
