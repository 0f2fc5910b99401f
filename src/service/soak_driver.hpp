// Closed-loop soak driver for the pipeline service.
//
// `producers` threads each submit `jobs_per_producer` delayed-pipeline
// jobs (class chosen per-job from a seeded splitmix64 stream) and wait
// for each ticket before submitting the next — a classic closed loop, so
// offered load is controlled by the producer count, not a rate parameter.
// Run with more producers than dispatchers and a queue smaller than the
// producer count (the CI soak uses 8 producers, 2 dispatchers and a 4-slot
// queue) and the full queue refuses work, the retry ladder runs (pair
// with a budget), and a poisoned class fails its jobs, all under real
// threads. Every completed job is checked against a per-class oracle.
//
// Results feed bench/service_soak.cpp and `pbdsbench --metrics-overhead`:
// throughput, shed rate, latency percentiles and oracle mismatches for the
// json_report; soak_error() says whether a run is wrong.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "array/parray.hpp"
#include "core/delayed.hpp"
#include "recovery/checkpoint_ops.hpp"
#include "service/pipeline_service.hpp"
#include "telemetry/trace.hpp"

namespace pbds::service {

struct soak_config {
  unsigned producers = 4;
  std::size_t jobs_per_producer = 64;
  std::size_t n = std::size_t{1} << 14;  // elements per pipeline
  std::uint64_t seed = 42;
  int poison_class = -1;  // jobs of this class throw (and fail)
  job_limits job;         // every job's budget, deadline and retry ladder
  bool resumable = false;  // submit checkpointed jobs (block-granular resume)
  service_config service;
};

struct soak_result {
  service_stats stats;
  double seconds = 0;  // first submit to drained; the oracle is not timed
  double throughput_jobs_per_s = 0;  // completed jobs per wall second
  double shed_rate = 0;  // (rejected + cancelled) / submitted
  double p50_ms = 0;     // completed-job latency percentiles
  double p99_ms = 0;
  // Completed jobs whose result differs from the per-class oracle: a
  // resumed or retried job that did not finish bit-identical (must be 0).
  std::uint64_t result_mismatches = 0;
};

// The four job classes, each a different shape of delayed pipeline (same
// idioms as the §6 benchmarks): 0 map+reduce, 1 filter+scan+reduce,
// 2 scan_inclusive, 3 map-to-inners+flatten+to_array (allocation-heavy —
// the class that feels a budget first).
inline std::uint64_t soak_pipeline(unsigned job_class, std::size_t n) {
  auto plus = [](std::uint64_t a, std::uint64_t b) { return a + b; };
  switch (job_class & 3u) {
    case 0: {
      auto sq = delayed::map(
          [](std::size_t i) {
            return static_cast<std::uint64_t>(i) * (i ^ 0x9e37u);
          },
          delayed::iota(n));
      return delayed::reduce(plus, std::uint64_t{0}, sq);
    }
    case 1: {
      auto input = parray<std::uint64_t>::tabulate(
          n, [](std::size_t i) { return static_cast<std::uint64_t>(i); });
      auto thirds =
          delayed::filter([](std::uint64_t v) { return v % 3 == 0; }, input);
      auto prefix = delayed::scan(plus, std::uint64_t{0}, thirds).first;
      return delayed::reduce(plus, std::uint64_t{0}, prefix);
    }
    case 2: {
      auto [inc, total] = delayed::scan_inclusive(
          plus, std::uint64_t{0},
          delayed::tabulate(n, [](std::size_t i) {
            return static_cast<std::uint64_t>(i * 2654435761u);
          }));
      (void)inc;
      return total;
    }
    default: {
      std::size_t outers = n / 64 + 1;
      auto heads = parray<std::uint64_t>::tabulate(
          outers, [](std::size_t i) { return static_cast<std::uint64_t>(i); });
      auto inners = delayed::map(
          [](std::uint64_t v) {
            return parray<std::uint64_t>::tabulate(
                64, [v](std::size_t j) { return v + j; });
          },
          delayed::view(heads));
      auto flat = delayed::to_array(delayed::flatten(inners));
      return delayed::reduce(plus, std::uint64_t{0}, delayed::view(flat));
    }
  }
}

// Checkpointed twin of soak_pipeline: the same four pipeline shapes with
// their blockwise terminal passes routed through recovery:: ops bound to
// stable slots of the job's checkpoint, so a retried job redoes only the
// blocks its failed attempts never finished. Eager pipeline
// *construction* (class 1's filter pack, class 3's flatten) is rebuilt
// per attempt — recovery is block-granular over the checkpointed passes,
// not a full continuation snapshot.
inline std::uint64_t soak_pipeline_resumable(unsigned job_class,
                                             std::size_t n,
                                             recovery::job_checkpoint& ck) {
  auto plus = [](std::uint64_t a, std::uint64_t b) { return a + b; };
  switch (job_class & 3u) {
    case 0: {
      auto sq = delayed::map(
          [](std::size_t i) {
            return static_cast<std::uint64_t>(i) * (i ^ 0x9e37u);
          },
          delayed::iota(n));
      return recovery::reduce(plus, std::uint64_t{0}, sq,
                              ck.slot<std::uint64_t>(0));
    }
    case 1: {
      auto input = parray<std::uint64_t>::tabulate(
          n, [](std::size_t i) { return static_cast<std::uint64_t>(i); });
      auto thirds =
          delayed::filter([](std::uint64_t v) { return v % 3 == 0; }, input);
      auto prefix = recovery::scan(plus, std::uint64_t{0}, thirds,
                                   ck.slot<std::uint64_t>(0))
                        .first;
      return recovery::reduce(plus, std::uint64_t{0}, prefix,
                              ck.slot<std::uint64_t>(1));
    }
    case 2: {
      auto [inc, total] = recovery::scan_inclusive(
          plus, std::uint64_t{0},
          delayed::tabulate(n,
                            [](std::size_t i) {
                              return static_cast<std::uint64_t>(i *
                                                                2654435761u);
                            }),
          ck.slot<std::uint64_t>(0));
      (void)inc;
      return total;
    }
    default: {
      std::size_t outers = n / 64 + 1;
      auto heads = parray<std::uint64_t>::tabulate(
          outers, [](std::size_t i) { return static_cast<std::uint64_t>(i); });
      auto inners = delayed::map(
          [](std::uint64_t v) {
            return parray<std::uint64_t>::tabulate(
                64, [v](std::size_t j) { return v + j; });
          },
          delayed::view(heads));
      const auto& flat = recovery::to_array(delayed::flatten(inners),
                                            ck.slot<std::uint64_t>(0));
      return delayed::reduce(plus, std::uint64_t{0}, delayed::view(flat));
    }
  }
}

inline soak_result run_soak(soak_config cfg) {
  // A closed loop needs someone to run the jobs the producers wait on;
  // manual mode would deadlock them.
  if (cfg.service.dispatchers == 0) cfg.service.dispatchers = 2;
  pipeline_service svc(cfg.service);
  std::mutex merge_mutex;
  std::vector<double> latencies_ms;
  std::vector<std::pair<unsigned, std::uint64_t>> results;  // (class, value)

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> producers;
  producers.reserve(cfg.producers);
  for (unsigned p = 0; p < cfg.producers; ++p) {
    producers.emplace_back([&, p] {
      std::uint64_t state =
          cfg.seed ^ (0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(p) + 1));
      std::vector<double> local;
      std::vector<std::pair<unsigned, std::uint64_t>> local_results;
      local.reserve(cfg.jobs_per_producer);
      for (std::size_t j = 0; j < cfg.jobs_per_producer; ++j) {
        state += 0x9e3779b97f4a7c15ull;
        std::uint64_t z = state;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        z ^= z >> 31;
        const unsigned cls = static_cast<unsigned>(z & 3);
        const bool poisoned =
            cfg.poison_class >= 0 &&
            cls == static_cast<unsigned>(cfg.poison_class);
        const auto start = std::chrono::steady_clock::now();
        // Written by whichever attempt runs last; read only once the
        // ticket reports done (the ticket's mutex orders the two). An
        // attempt collapsed by a deadline or drain may return a partial
        // value, but the service then retries or fails the job.
        std::uint64_t got = 0;
        try {
          const std::size_t n = cfg.n;
          job_ticket ticket;
          if (cfg.resumable) {
            ticket = svc.submit_resumable(
                cls,
                [cls, n, poisoned, &got](recovery::job_checkpoint& ck) {
                  if (poisoned)
                    throw std::runtime_error("soak: poisoned job class");
                  got = soak_pipeline_resumable(cls, n, ck);
                },
                cfg.job);
          } else {
            ticket = svc.submit(
                cls,
                [cls, n, poisoned, &got] {
                  if (poisoned)
                    throw std::runtime_error("soak: poisoned job class");
                  got = soak_pipeline(cls, n);
                },
                cfg.job);
          }
          ticket.wait();
          if (ticket.status() == job_status::done) {
            local.push_back(std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count());
            local_results.emplace_back(cls, got);
          }
        } catch (const overloaded&) {
          // Refused at admission — expected under overload; keep offering.
        }
      }
      std::lock_guard<std::mutex> lock(merge_mutex);
      latencies_ms.insert(latencies_ms.end(), local.begin(), local.end());
      results.insert(results.end(), local_results.begin(),
                     local_results.end());
    });
  }
  for (auto& t : producers) t.join();
  svc.drain();
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();

  // Per-class oracle: each pipeline's result depends only on (class, n),
  // so one clean evaluation per class is the ground truth every completed
  // job is checked against — retried and resumed jobs included. It runs
  // after the drain so its allocations do not warm the soak's.
  std::uint64_t expected[4];
  for (unsigned c = 0; c < 4; ++c) expected[c] = soak_pipeline(c, cfg.n);

  soak_result r;
  for (const auto& [cls, got] : results)
    if (got != expected[cls]) ++r.result_mismatches;
  r.stats = svc.stats();
  r.seconds = seconds;
  r.throughput_jobs_per_s =
      seconds > 0 ? static_cast<double>(r.stats.completed) / seconds : 0;
  r.shed_rate =
      r.stats.submitted == 0
          ? 0
          : static_cast<double>(r.stats.rejected + r.stats.cancelled) /
                static_cast<double>(r.stats.submitted);
  if (!latencies_ms.empty()) {
    std::sort(latencies_ms.begin(), latencies_ms.end());
    auto at = [&](double q) {
      std::size_t i = static_cast<std::size_t>(
          q * static_cast<double>(latencies_ms.size() - 1));
      return latencies_ms[i];
    };
    r.p50_ms = at(0.50);
    r.p99_ms = at(0.99);
  }
  // End of run: if PBDS_TRACE_FILE is exported, persist the timeline the
  // service/scheduler recorded during the soak (the CI artifact).
  telemetry::flush_trace_from_env();
  return r;
}

// Empty when a soak run is right; otherwise what is wrong with it. A run
// is right when every completed job matched the per-class oracle and
// every submission reached exactly one outcome.
inline std::string soak_error(const soak_result& r) {
  const service_stats& s = r.stats;
  if (r.result_mismatches > 0)
    return std::to_string(r.result_mismatches) +
           " completed jobs differ from the oracle";
  const std::uint64_t outcomes =
      s.completed + s.failed + s.rejected + s.cancelled;
  if (outcomes != s.submitted)
    return std::to_string(outcomes) + " outcomes (completed + failed + "
           "rejected + cancelled) for " + std::to_string(s.submitted) +
           " submissions";
  return {};
}

}  // namespace pbds::service
