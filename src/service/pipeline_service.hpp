// pipeline_service — an overload-resilient executor for delayed-pipeline
// jobs on the fork-join pool.
//
// The paper's library gives each *pipeline* bounded space; this layer
// gives a *process full of concurrent pipelines* bounded everything:
//
//   admission     — a bounded FIFO with a configurable backpressure policy
//                   (block / reject with pbds::overloaded / shed-oldest).
//   isolation     — each job runs under its own budget_scope + deadline
//                   (job_limits), so one hog degrades itself, not the
//                   service.
//   retry         — budget_exceeded / stall_detected are transient under
//                   concurrency; jobs retry with jittered exponential
//                   backoff before failing for real.
//   circuit break — a per-class breaker (circuit_breaker.hpp) stops
//                   admitting a poisoned job class after K consecutive
//                   failures, probing it half-open after a count-based
//                   cooldown.
//   drain         — stop admissions, run what's queued under a drain
//                   deadline, cancel stragglers through the fork-join
//                   cancellation protocol, leave the pool quiescent and
//                   reusable.
//
// Every decision (admit / reject / shed / trip / probe / cancel / drain)
// is taken under one mutex, in submission order, and recorded in an event
// trace with an FNV-1a hash — run the same decision-relevant inputs (same
// seed, manual mode) twice and the traces are identical, which is how
// tests/test_service.cpp replays overload interleavings (docs/TESTING.md).
//
// Threading modes:
//   dispatchers = 0  — *manual*: nothing runs until the owner calls
//                      run_one() / drain(); fully deterministic, used by
//                      the replay tests.
//   dispatchers > 0  — that many service threads pull jobs. Dispatchers
//                      enroll as scheduler guests (sched::guest_worker) so
//                      the pipelines they run fork real stealable work
//                      instead of degrading to the sequential fast path.
//
// Lock order: service mutex before any job_record mutex; never the
// reverse. Control operations (drain, destruction) belong to one owner
// thread; submit/ticket APIs are thread-safe.
#pragma once

#include <atomic>
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
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/env.hpp"
#include "memory/budget.hpp"
#include "recovery/resumable.hpp"
#include "sched/cancellation.hpp"
#include "sched/exec_policy.hpp"
#include "sched/scheduler.hpp"
#include "service/admission_queue.hpp"
#include "service/circuit_breaker.hpp"
#include "service/overloaded.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace pbds::service {

// Per-job resource envelope. Non-positive budget/deadline means "no
// constraint"; negative retry fields mean "use the service default".
struct job_limits {
  std::int64_t budget_bytes = 0;      // budget_scope for the job's pipelines
  long deadline_ms = 0;               // per-attempt region deadline
  int max_retries = -1;               // retries of budget_exceeded/stall
  std::int64_t retry_backoff_us = -1; // base of the jittered backoff ladder
};

struct service_config {
  std::size_t queue_capacity = 64;
  backpressure policy = backpressure::block;
  unsigned dispatchers = 0;       // 0 = manual mode (owner calls run_one)
  int breaker_threshold = 4;      // K consecutive failures trip a class
  int breaker_cooldown = 8;       // refusals while open before a probe
  int default_retries = 2;
  std::int64_t default_backoff_us = 100;
  std::uint64_t seed = 0x5eedull; // salts the per-job retry jitter
  // Newest trace entries retained for trace(); older ones are dropped
  // (counted in trace_dropped()). trace_hash() stays incremental over the
  // *full* event sequence, so replay fingerprints survive the bound.
  std::size_t trace_capacity = 1 << 16;
  // Most resumable jobs drain() will park for readmission into a later
  // service; beyond this, drain-cancelled checkpoints are discarded.
  std::size_t max_parked = 256;

  // PBDS_SERVICE_* knobs, parsed strictly (core/env.hpp): malformed
  // values warn once and keep the default. POLICY is numeric:
  // 0 = block, 1 = reject, 2 = shed_oldest.
  [[nodiscard]] static service_config from_env() {
    namespace de = pbds::detail;
    service_config c;
    c.queue_capacity = static_cast<std::size_t>(de::env_integer(
        "PBDS_SERVICE_QUEUE_CAP", 1, 1 << 20,
        static_cast<long long>(c.queue_capacity)));
    c.policy = static_cast<backpressure>(de::env_integer(
        "PBDS_SERVICE_POLICY", 0, 2, static_cast<long long>(c.policy)));
    c.dispatchers = static_cast<unsigned>(de::env_integer(
        "PBDS_SERVICE_DISPATCHERS", 0, 64, c.dispatchers));
    c.breaker_threshold = static_cast<int>(de::env_integer(
        "PBDS_SERVICE_BREAKER_K", 1, 1000000, c.breaker_threshold));
    c.breaker_cooldown = static_cast<int>(de::env_integer(
        "PBDS_SERVICE_BREAKER_COOLDOWN", 1, 1000000, c.breaker_cooldown));
    c.default_retries = static_cast<int>(
        de::env_integer("PBDS_SERVICE_RETRIES", 0, 100, c.default_retries));
    c.default_backoff_us = de::env_integer("PBDS_SERVICE_BACKOFF_US", 0,
                                           10000000, c.default_backoff_us);
    c.trace_capacity = static_cast<std::size_t>(de::env_integer(
        "PBDS_SERVICE_TRACE_CAP", 0, 1 << 24,
        static_cast<long long>(c.trace_capacity)));
    c.max_parked = static_cast<std::size_t>(de::env_integer(
        "PBDS_RESUME_MAX_PARKED", 0, 1 << 20,
        static_cast<long long>(c.max_parked)));
    return c;
  }
};

enum class job_status : unsigned char {
  queued,
  running,
  done,
  failed,     // thunk failed after the retry ladder
  shed,       // evicted by the shed_oldest policy
  cancelled,  // drain deadline cancelled it (queued or in flight)
};

[[nodiscard]] constexpr bool is_terminal(job_status s) noexcept {
  return s != job_status::queued && s != job_status::running;
}

// Service decisions, in the order they are taken; the trace of
// (event, job_class) pairs is the replay artifact.
enum class event : unsigned char {
  admit,
  reject_full,      // reject policy, queue at capacity
  shed,             // shed_oldest evicted this class's oldest queued job
  reject_open,      // circuit breaker refused the class
  probe,            // breaker admitted a half-open probe
  reject_draining,  // submitted after drain began
  complete,
  fail,
  retry,
  trip,   // breaker closed -> open
  close,  // probe succeeded, breaker open -> closed
  cancel, // drain cancelled a queued or in-flight job
  drain_begin,
  drain_end,
  resume,   // a retry of a checkpointed job (aux = blocks already complete)
  park,     // drain parked a cancelled resumable job's checkpoint
  readmit,  // a parked checkpoint was resubmitted (aux = blocks salvageable)
};

[[nodiscard]] constexpr const char* to_string(event e) noexcept {
  switch (e) {
    case event::admit: return "admit";
    case event::reject_full: return "reject_full";
    case event::shed: return "shed";
    case event::reject_open: return "reject_open";
    case event::probe: return "probe";
    case event::reject_draining: return "reject_draining";
    case event::complete: return "complete";
    case event::fail: return "fail";
    case event::retry: return "retry";
    case event::trip: return "trip";
    case event::close: return "close";
    case event::cancel: return "cancel";
    case event::drain_begin: return "drain_begin";
    case event::drain_end: return "drain_end";
    case event::resume: return "resume";
    case event::park: return "park";
    case event::readmit: return "readmit";
  }
  return "unknown";
}

struct trace_entry {
  event ev;
  unsigned job_class;
  // Event-specific payload: resumed/salvageable block counts for
  // resume/park/readmit, 0 elsewhere. Folded into trace_hash(), so replay
  // fingerprints cover *how much* progress recovery preserved, not just
  // that it happened.
  std::uint32_t aux = 0;
  friend bool operator==(const trace_entry&, const trace_entry&) = default;
};

struct service_stats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;  // queue_full + circuit_open + draining
  std::uint64_t shed = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t retries = 0;
  std::uint64_t breaker_trips = 0;
  std::uint64_t breaker_probes = 0;
  // Recovery accounting (checkpointed jobs only).
  std::uint64_t resumed = 0;                // retries that resumed a ledger
  std::uint64_t parked = 0;                 // checkpoints parked by drain
  std::uint64_t readmitted = 0;             // parked checkpoints resubmitted
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
  // survives failed attempts (retry resumes it) and drain (parked for
  // readmission into a later service).
  resumable_fn rthunk;
  std::shared_ptr<recovery::job_checkpoint> checkpoint;
  bool readmitted = false;  // admitted with a previously-run checkpoint
  unsigned job_class = 0;
  job_limits limits;
  std::uint64_t id = 0;
  bool probe = false;  // this admission is the class's half-open probe
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

// A drain-cancelled resumable job, extracted via take_parked(): everything
// needed to resubmit it (resubmit()) into this or a fresh service, with
// its partial progress intact.
struct parked_job {
  unsigned job_class = 0;
  job_limits limits;
  resumable_fn thunk;
  std::shared_ptr<recovery::job_checkpoint> checkpoint;
};

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

  // Wait, then rethrow the job's failure (overloaded for shed/cancelled,
  // the thunk's own exception for failed). Returns normally iff done.
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
  explicit pipeline_service(service_config cfg = {})
      : cfg_(cfg), queue_(cfg.queue_capacity) {
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
  // refuses it (reject policy with a full queue, open circuit for the
  // class, or draining); under the block policy a full queue blocks the
  // caller until space frees or drain begins.
  job_ticket submit(unsigned job_class, std::function<void()> thunk,
                    job_limits limits = {}) {
    auto rec = std::make_shared<detail::job_record>();
    rec->thunk = std::move(thunk);
    rec->job_class = job_class;
    rec->limits = resolve(limits);
    return admit(std::move(rec));
  }

  // Submit a checkpointed job: `fn` receives the job's checkpoint and
  // binds resumable slots for the checkpointed ops it runs. Retries resume
  // from the checkpoint instead of restarting, and a drain parks it for
  // readmission. Pass an existing checkpoint (e.g. from a parked job) to
  // continue its progress; a fresh one is created otherwise.
  job_ticket submit_resumable(
      unsigned job_class, resumable_fn fn, job_limits limits = {},
      std::shared_ptr<recovery::job_checkpoint> checkpoint = nullptr) {
    auto rec = std::make_shared<detail::job_record>();
    rec->readmitted = checkpoint != nullptr && checkpoint->attempts() > 0;
    rec->checkpoint = checkpoint ? std::move(checkpoint)
                                 : std::make_shared<recovery::job_checkpoint>();
    rec->rthunk = std::move(fn);
    rec->job_class = job_class;
    rec->limits = resolve(limits);
    return admit(std::move(rec));
  }

  // Resubmit a job parked by a drain (possibly into a different service),
  // resuming from its parked checkpoint.
  job_ticket resubmit(parked_job&& pj) {
    return submit_resumable(pj.job_class, std::move(pj.thunk), pj.limits,
                            std::move(pj.checkpoint));
  }

  // Extract the jobs drain() parked (resumable jobs it had to cancel).
  [[nodiscard]] std::vector<parked_job> take_parked() {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<parked_job> out;
    out.reserve(parked_.size());
    for (auto& pj : parked_) out.push_back(std::move(pj));
    parked_.clear();
    return out;
  }

 private:
  job_ticket admit(std::shared_ptr<detail::job_record> rec) {
    const unsigned job_class = rec->job_class;
    std::unique_lock<std::mutex> lk(mutex_);
    rec->id = next_job_id_++;
    ++stats_.submitted;
    if (draining_) return refuse(rec, event::reject_draining,
                                 overload_reason::draining);
    // Breaker first: a refused class must not consume queue space or
    // evict anyone else's queued work.
    auto& brk = breaker_for(job_class);
    switch (brk.on_submit()) {
      case circuit_breaker::decision::refuse:
        return refuse(rec, event::reject_open, overload_reason::circuit_open);
      case circuit_breaker::decision::probe:
        rec->probe = true;
        ++stats_.breaker_probes;
        record(event::probe, job_class);
        break;
      case circuit_breaker::decision::admit:
        break;
    }
    while (queue_.full()) {
      if (draining_) {
        if (rec->probe) brk.abort_probe();
        return refuse(rec, event::reject_draining, overload_reason::draining);
      }
      switch (cfg_.policy) {
        case backpressure::reject:
          if (rec->probe) brk.abort_probe();
          return refuse(rec, event::reject_full,
                        overload_reason::queue_full);
        case backpressure::shed_oldest: {
          auto victim = queue_.evict_oldest();
          record(event::shed, victim->job_class);
          ++stats_.shed;
          finish(std::move(victim), job_status::shed,
                 std::make_exception_ptr(overloaded(overload_reason::shed)));
          break;
        }
        case backpressure::block:
          cv_space_.wait(lk, [&] { return draining_ || !queue_.full(); });
          break;
      }
    }
    // A blocked submitter can wake to a queue that drain just emptied
    // (take_all frees space and sets draining_ in one step); admitting
    // here would enqueue a job nothing will ever run. Drain wins.
    if (draining_) {
      if (rec->probe) brk.abort_probe();
      return refuse(rec, event::reject_draining, overload_reason::draining);
    }
    queue_.push(rec);
    record(event::admit, job_class);
    ++stats_.admitted;
    if (rec->readmitted) {
      record(event::readmit, job_class,
             static_cast<std::uint32_t>(
                 rec->checkpoint->aggregate().blocks_complete));
      ++stats_.readmitted;
    }
    lk.unlock();
    cv_work_.notify_one();
    return job_ticket(std::move(rec));
  }

 public:
  // Manual mode: run the next queued job on the calling thread. Returns
  // false when the queue is empty. Must be called outside any fork-join
  // region.
  bool run_one() {
    std::shared_ptr<detail::job_record> rec;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      rec = queue_.pop();
      if (!rec) return false;
      ++running_;
    }
    cv_space_.notify_one();
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
        record(event::drain_begin, 0);
      }
    }
    cv_space_.notify_all();  // blocked submitters observe draining_
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
      for (auto& rec : queue_.take_all()) {
        record(event::cancel, rec->job_class);
        ++stats_.cancelled;
        // A cancelled probe never reports on_result; re-open the breaker
        // (with cooldown credit) so the class isn't stranded half_open.
        if (rec->probe) breaker_for(rec->job_class).abort_probe();
        park_locked(*rec);
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
      record(event::drain_end, 0);
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
    return queue_.capacity();
  }

  [[nodiscard]] service_stats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
  }

  // The retained tail of the event trace — at most cfg.trace_capacity
  // entries; trace_dropped() counts what aged out of the window.
  [[nodiscard]] std::vector<trace_entry> trace() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::vector<trace_entry>(trace_.begin(), trace_.end());
  }

  [[nodiscard]] std::uint64_t trace_dropped() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return trace_dropped_;
  }

  // FNV-1a over the full (event, job_class) sequence — the replay
  // fingerprint: two runs that made identical decisions in identical
  // order hash equal. Folded incrementally in record(), so it covers
  // every event ever taken even after old entries age out of trace().
  [[nodiscard]] std::uint64_t trace_hash() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return trace_hash_;
  }

  [[nodiscard]] circuit_breaker::state breaker_state(unsigned job_class) const {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = breakers_.find(job_class);
    return it == breakers_.end() ? circuit_breaker::state::closed
                                 : it->second.current_state();
  }

 private:
  job_limits resolve(job_limits l) const noexcept {
    if (l.max_retries < 0) l.max_retries = cfg_.default_retries;
    if (l.retry_backoff_us < 0) l.retry_backoff_us = cfg_.default_backoff_us;
    return l;
  }

  // Record + finish + throw for every submission-time refusal. Called
  // with the service mutex held. The record was never queued and submit
  // throws before returning a ticket, but it still gets a terminal status
  // so any future caller that stashed the record can't wait forever.
  job_ticket refuse(std::shared_ptr<detail::job_record> rec, event ev,
                    overload_reason reason) {
    record(ev, rec->job_class);
    ++stats_.rejected;
    finish(std::move(rec), job_status::failed,
           std::make_exception_ptr(overloaded(reason)));
    throw overloaded(reason);
  }

  circuit_breaker& breaker_for(unsigned job_class) {
    auto it = breakers_.find(job_class);
    if (it == breakers_.end())
      it = breakers_
               .emplace(job_class,
                        circuit_breaker(cfg_.breaker_threshold,
                                        cfg_.breaker_cooldown))
               .first;
    return it->second;
  }

  void record(event ev, unsigned job_class, std::uint32_t aux = 0) {
    // Mirror every decision into the process-wide metrics registry (and
    // the trace timeline) — the per-class admit/shed/retry/breaker rows a
    // dashboard reads without holding this service's mutex. Rejections of
    // any flavor count as shed load; readmissions count as admissions.
    {
      using tc = telemetry::counter;
      using cc = telemetry::class_counter;
      switch (ev) {
        case event::admit:
        case event::readmit:
          telemetry::count(tc::jobs_admitted);
          telemetry::count_class(cc::admitted, job_class);
          break;
        case event::shed:
        case event::reject_full:
        case event::reject_open:
        case event::reject_draining:
          telemetry::count(tc::jobs_shed);
          telemetry::count_class(cc::shed, job_class);
          break;
        case event::retry:
        case event::resume:
          telemetry::count(tc::jobs_retried);
          telemetry::count_class(cc::retried, job_class);
          break;
        case event::complete:
          telemetry::count(tc::jobs_completed);
          break;
        case event::fail:
          telemetry::count(tc::jobs_failed);
          break;
        case event::trip:
          telemetry::count(tc::breaker_trips);
          telemetry::count_class(cc::breaker_trips, job_class);
          break;
        case event::probe:
          telemetry::count(tc::breaker_probes);
          break;
        case event::close:
          telemetry::count(tc::breaker_closes);
          break;
        default:
          break;
      }
      if (telemetry::trace_enabled())
        telemetry::trace_instant(telemetry::trace_kind::job, to_string(ev),
                                 static_cast<std::int64_t>(job_class));
    }
    auto mix = [this](std::uint8_t b) {
      trace_hash_ ^= b;
      trace_hash_ *= 1099511628211ull;
    };
    mix(static_cast<std::uint8_t>(ev));
    mix(static_cast<std::uint8_t>(job_class));
    mix(static_cast<std::uint8_t>(job_class >> 8));
    mix(static_cast<std::uint8_t>(aux));
    mix(static_cast<std::uint8_t>(aux >> 8));
    mix(static_cast<std::uint8_t>(aux >> 16));
    mix(static_cast<std::uint8_t>(aux >> 24));
    trace_.push_back({ev, job_class, aux});
    while (trace_.size() > cfg_.trace_capacity) {
      trace_.pop_front();
      ++trace_dropped_;
    }
  }

  // Park a drain-cancelled resumable job's checkpoint for readmission.
  // Called with the service mutex held. Bounded by cfg_.max_parked;
  // overflow discards the checkpoint (the job is still reported
  // cancelled either way).
  void park_locked(detail::job_record& rec) {
    if (!rec.checkpoint || !rec.rthunk) return;
    if (parked_.size() >= cfg_.max_parked) return;
    auto p = rec.checkpoint->aggregate();
    parked_.push_back(parked_job{rec.job_class, rec.limits,
                                 std::move(rec.rthunk), rec.checkpoint});
    record(event::park, rec.job_class,
           static_cast<std::uint32_t>(p.blocks_complete));
    ++stats_.parked;
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
        rec = queue_.pop();
        ++running_;
      }
      cv_space_.notify_one();
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
    bool success = false;
    for (int attempt = 0;; ++attempt) {
      err = run_attempt(*rec);
      if (!err) {
        success = true;
        break;
      }
      if (!retryable(err) || attempt >= lim.max_retries) break;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (draining_) break;  // honor the drain deadline over retries
        // A retry is pointless while the class's breaker is open (other
        // executions of the class tripped it since this job was
        // admitted): fail fast *without* burning a checkpoint attempt or
        // counting a retry — the job never re-executes, so its ledger
        // budget must stay intact for a later readmission.
        auto it = breakers_.find(rec->job_class);
        if (it != breakers_.end() &&
            it->second.current_state() == circuit_breaker::state::open) {
          record(event::reject_open, rec->job_class);
          err = std::make_exception_ptr(
              overloaded(overload_reason::circuit_open));
          break;
        }
        if (rec->checkpoint) {
          record(event::resume, rec->job_class,
                 static_cast<std::uint32_t>(
                     rec->checkpoint->aggregate().blocks_complete));
          ++stats_.resumed;
        } else {
          record(event::retry, rec->job_class);
        }
        ++stats_.retries;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(
          memory::jittered_backoff_us(attempt, lim.retry_backoff_us,
                                      cfg_.seed ^ rec->id)));
    }
    finalize(std::move(rec), success, err);
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
        // thunk execution (the breaker-open fast path above never gets
        // here, so it burns no attempt).
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

  void finalize(std::shared_ptr<detail::job_record> rec, bool success,
                std::exception_ptr err) {
    job_status st;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      const bool cancelled = !success && drain_cancelled(err);
      if (success) {
        st = job_status::done;
        record(event::complete, rec->job_class);
        ++stats_.completed;
        if (rec->checkpoint) {
          auto p = rec->checkpoint->aggregate();
          stats_.blocks_salvaged += p.salvaged;
          stats_.blocks_redone += p.redone;
          if (rec->checkpoint->attempts() > 1 || rec->readmitted)
            ++stats_.completed_after_resume;
        }
      } else if (cancelled) {
        st = job_status::cancelled;
        record(event::cancel, rec->job_class);
        ++stats_.cancelled;
        // Preserve the partial progress of a drain-cancelled in-flight
        // job for readmission into a post-drain service.
        if (draining_) park_locked(*rec);
      } else {
        st = job_status::failed;
        record(event::fail, rec->job_class);
        ++stats_.failed;
      }
      if (!cancelled) {
        // A drain cancellation says nothing about the class's health; it
        // must not trip (or probe-close) the breaker.
        auto& brk = breaker_for(rec->job_class);
        if (brk.on_result(success, rec->probe)) {
          record(event::trip, rec->job_class);
          ++stats_.breaker_trips;
        } else if (rec->probe && success) {
          record(event::close, rec->job_class);
        }
      } else if (rec->probe) {
        // The cancelled probe will never report on_result; re-open the
        // breaker (with cooldown credit) instead of stranding the class
        // half_open with no probe in flight.
        breaker_for(rec->job_class).abort_probe();
      }
      --running_;
    }
    cv_idle_.notify_all();
    finish(std::move(rec), st, std::move(err));
  }

  service_config cfg_;
  mutable std::mutex mutex_;
  std::condition_variable cv_work_;   // dispatchers: work available / stop
  std::condition_variable cv_space_;  // block-policy submitters: space freed
  std::condition_variable cv_idle_;   // drain: backlog finished
  admission_queue<detail::job_record> queue_;
  std::deque<parked_job> parked_;
  std::unordered_map<unsigned, circuit_breaker> breakers_;
  std::vector<sched::cancel_state*> inflight_;
  std::deque<trace_entry> trace_;
  std::uint64_t trace_hash_ = 1469598103934665603ull;  // FNV-1a offset basis
  std::uint64_t trace_dropped_ = 0;
  service_stats stats_;
  std::vector<std::thread> dispatchers_;
  std::uint64_t next_job_id_ = 0;
  std::size_t running_ = 0;
  bool draining_ = false;
  bool drained_ = false;
  bool stop_dispatch_ = false;
};

}  // namespace pbds::service
