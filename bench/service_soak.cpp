// service_soak — closed-loop overload soak for the pipeline service.
//
// Drives pipeline_service with more producers than it can absorb and
// reports throughput, shed rate, and completed-job latency percentiles
// (p50/p99). The CI soak job runs this at 2× capacity with a constrained
// PBDS_BUDGET_BYTES and the watchdog armed. The run fails (exit 1) when a
// completed job differs from the per-class oracle or when the outcomes do
// not add up to the submissions; the json_report row records how it
// degraded.
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "bench_common/harness.hpp"
#include "service/soak_driver.hpp"

int main(int argc, char** argv) {
  namespace bd = pbds::bench_common::detail;
  using namespace pbds::service;  // NOLINT
  soak_config cfg;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    auto is = [&](const char* f) { return std::strcmp(argv[i], f) == 0; };
    if (is("--producers")) {
      cfg.producers = static_cast<unsigned>(bd::parse_long_arg(
          "--producers", bd::require_value("--producers", i, argc, argv), 1,
          1024));
    } else if (is("--jobs")) {
      cfg.jobs_per_producer = static_cast<std::size_t>(bd::parse_long_arg(
          "--jobs", bd::require_value("--jobs", i, argc, argv), 1,
          std::numeric_limits<long>::max()));
    } else if (is("-n")) {
      cfg.n = static_cast<std::size_t>(
          bd::parse_long_arg("-n", bd::require_value("-n", i, argc, argv), 1,
                             std::numeric_limits<long>::max()));
    } else if (is("--seed")) {
      cfg.seed = static_cast<std::uint64_t>(bd::parse_long_arg(
          "--seed", bd::require_value("--seed", i, argc, argv), 0,
          std::numeric_limits<long>::max()));
    } else if (is("--poison")) {
      cfg.poison_class = static_cast<int>(bd::parse_long_arg(
          "--poison", bd::require_value("--poison", i, argc, argv), 0, 3));
    } else if (is("--budget")) {
      cfg.job.budget_bytes = bd::parse_long_arg(
          "--budget", bd::require_value("--budget", i, argc, argv), 1,
          std::numeric_limits<long>::max());
    } else if (is("--deadline-ms")) {
      cfg.job.deadline_ms = bd::parse_long_arg(
          "--deadline-ms", bd::require_value("--deadline-ms", i, argc, argv),
          1, 3600000);
    } else if (is("--queue-cap")) {
      cfg.service.queue_capacity = static_cast<std::size_t>(bd::parse_long_arg(
          "--queue-cap", bd::require_value("--queue-cap", i, argc, argv), 1,
          1 << 20));
    } else if (is("--dispatchers")) {
      cfg.service.dispatchers = static_cast<unsigned>(bd::parse_long_arg(
          "--dispatchers", bd::require_value("--dispatchers", i, argc, argv),
          1, 64));
    } else if (is("--resumable")) {
      cfg.resumable = true;
    } else if (is("--json")) {
      json_path = bd::require_value("--json", i, argc, argv);
    } else if (is("--help") || is("-h")) {
      std::printf(
          "usage: %s [--producers P] [--jobs J] [-n SIZE] [--seed S]\n"
          "          [--poison CLASS] [--budget BYTES] [--deadline-ms MS]\n"
          "          [--queue-cap Q] [--dispatchers D] [--resumable]\n"
          "          [--json PATH]\n"
          "A full queue refuses the submission (counted as rejected).\n"
          "--resumable: submit checkpointed jobs; retries resume at block\n"
          "             granularity instead of restarting\n"
          "Every completed job is checked against a per-class oracle\n"
          "computed after the drain; the run exits 1 on any mismatch or\n"
          "when the outcomes do not add up to the submissions.\n",
          argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag '%s' (try --help)\n", argv[i]);
      return 2;
    }
  }

  auto r = run_soak(cfg);
  std::printf(
      "service-soak: %llu submitted, %llu completed, %llu rejected, "
      "%llu cancelled, %llu failed\n"
      "  throughput %.1f jobs/s, shed rate %.3f, p50 %.2f ms, p99 %.2f ms, "
      "retries %llu, %llu result mismatches\n",
      static_cast<unsigned long long>(r.stats.submitted),
      static_cast<unsigned long long>(r.stats.completed),
      static_cast<unsigned long long>(r.stats.rejected),
      static_cast<unsigned long long>(r.stats.cancelled),
      static_cast<unsigned long long>(r.stats.failed),
      r.throughput_jobs_per_s, r.shed_rate, r.p50_ms, r.p99_ms,
      static_cast<unsigned long long>(r.stats.retries),
      static_cast<unsigned long long>(r.result_mismatches));
  if (cfg.resumable) {
    std::printf(
        "  resume: %llu resumed, %llu completed-after-resume, "
        "%llu blocks salvaged, %llu blocks redone\n",
        static_cast<unsigned long long>(r.stats.resumed),
        static_cast<unsigned long long>(r.stats.completed_after_resume),
        static_cast<unsigned long long>(r.stats.blocks_salvaged),
        static_cast<unsigned long long>(r.stats.blocks_redone));
  }

  if (!json_path.empty()) {
    using pbds::bench_common::json_report;
    using pbds::bench_common::measurement;
    using pbds::bench_common::run_status;
    json_report report(json_path);
    measurement m{};
    m.seconds = r.seconds;
    report.add({"service-soak",
                "delay",
                run_status::ok,
                1,
                m,
                {{"throughput_jobs_per_s", r.throughput_jobs_per_s},
                 {"shed_rate", r.shed_rate},
                 {"p50_ms", r.p50_ms},
                 {"p99_ms", r.p99_ms},
                 {"completed", static_cast<double>(r.stats.completed)},
                 {"rejected", static_cast<double>(r.stats.rejected)},
                 {"cancelled", static_cast<double>(r.stats.cancelled)},
                 {"failed", static_cast<double>(r.stats.failed)},
                 {"retries", static_cast<double>(r.stats.retries)},
                 {"resumed", static_cast<double>(r.stats.resumed)},
                 {"completed_after_resume",
                  static_cast<double>(r.stats.completed_after_resume)},
                 {"blocks_salvaged",
                  static_cast<double>(r.stats.blocks_salvaged)},
                 {"blocks_redone",
                  static_cast<double>(r.stats.blocks_redone)},
                 {"result_mismatches",
                  static_cast<double>(r.result_mismatches)}}});
    if (!report.ok()) {
      std::fprintf(stderr, "service-soak: report not persisted: %s\n",
                   report.last_error().c_str());
      return 1;
    }
  }
  if (const std::string err = soak_error(r); !err.empty()) {
    std::fprintf(stderr, "service-soak: FAILED: %s\n", err.c_str());
    return 1;
  }
  return 0;
}
