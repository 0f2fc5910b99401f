// pbdsbench — artifact-style benchmark runner (Appendix A.7).
//
// The paper's artifact builds one binary per BENCHMARK.VERSION and runs
//     bin/linefit.delay.cpp.bin -n 500000000 -repeat 10 -warmup 3
// This single dispatcher reproduces that interface:
//     pbdsbench --bench linefit --impl delay -n 500000 -repeat 10 -warmup 3
// printing one line per timed configuration: time (mean over repeats),
// peak space, and bytes allocated per run.
//
// `--bench all` and `--impl all` sweep; `--list` enumerates benchmarks.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_common/baseline.hpp"
#include "bench_common/harness.hpp"
#include "benchmarks/bestcut.hpp"
#include "benchmarks/bfs.hpp"
#include "benchmarks/bignum_add.hpp"
#include "benchmarks/grep.hpp"
#include "benchmarks/integrate.hpp"
#include "benchmarks/inverted_index.hpp"
#include "benchmarks/linearrec.hpp"
#include "benchmarks/linefit.hpp"
#include "benchmarks/mcss.hpp"
#include "benchmarks/policies.hpp"
#include "benchmarks/primes.hpp"
#include "benchmarks/quickhull.hpp"
#include "benchmarks/raycast.hpp"
#include "benchmarks/spmv.hpp"
#include "benchmarks/tokens.hpp"
#include "benchmarks/wc.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace {

using namespace pbds;                // NOLINT
using namespace pbds::bench;         // NOLINT
using namespace pbds::bench_common;  // NOLINT

struct cli {
  std::string bench = "all";
  std::string impl = "all";
  std::size_t n = 0;  // 0 = per-benchmark default
  options opt;
  std::string json_path;    // empty = no JSON report
  bool metrics = false;          // dump the telemetry registry after the run
  bool metrics_overhead = false; // A/B the metrics-recording cost instead
  bool isolate = false;     // fork one subprocess per configuration
  double timeout_sec = 60;  // per-configuration wall clock (isolated mode)

  // Perf-regression mode: replay the configurations recorded in a
  // committed `--json` report and fail (exit 1) when the fresh medians
  // regress past the thresholds. --inject-slowdown multiplies the fresh
  // medians before comparison — the self-test hook proving the comparator
  // actually fails when things get slower.
  std::string baseline_path;     // empty = normal measurement mode
  double threshold = 0.10;       // relative median-seconds threshold
  double bytes_threshold = 0.02; // relative allocated-bytes threshold (<0 off)
  double inject_slowdown = 1.0;
};

// One benchmark = a factory that captures the generated input and returns
// a thunk per policy.
struct entry {
  std::size_t default_n;
  // run(policy_name, n, opt) -> measurement
  std::function<measurement(const std::string&, std::size_t,
                            const options&)> run;
};

template <typename MakeRunner>
measurement dispatch_impl(const std::string& impl, const options& opt,
                          const MakeRunner& make) {
  if (impl == "array") return measure(make(array_policy{}), opt);
  if (impl == "rad") return measure(make(rad_policy{}), opt);
  if (impl == "delay") return measure(make(delay_policy{}), opt);
  std::fprintf(stderr, "unknown --impl '%s' (array|rad|delay|all)\n",
               impl.c_str());
  std::exit(2);
}

std::map<std::string, entry> registry() {
  std::map<std::string, entry> r;
  r["bestcut"] = {4'000'000, [](const std::string& impl, std::size_t n,
                                const options& opt) {
                    auto events = bestcut_input(n);
                    return dispatch_impl(impl, opt, [&](auto p) {
                      using P = decltype(p);
                      return [&] { do_not_optimize(bestcut<P>(events)); };
                    });
                  }};
  r["bfs"] = {3'000'000, [](const std::string& impl, std::size_t n,
                            const options& opt) {
                auto g = graph::rmat(18, n);
                return dispatch_impl(impl, opt, [&](auto p) {
                  using P = decltype(p);
                  return [&] { do_not_optimize(bfs<P>(g, 0).size()); };
                });
              }};
  r["bignum-add"] = {8'000'000, [](const std::string& impl, std::size_t n,
                                   const options& opt) {
                       auto a = bignum::random_bignum(n, 1);
                       auto b = bignum::random_bignum(n, 2);
                       return dispatch_impl(impl, opt, [&](auto p) {
                         using P = decltype(p);
                         return [&] {
                           do_not_optimize(bignum_add<P>(a, b).carry_out);
                         };
                       });
                     }};
  r["primes"] = {4'000'000, [](const std::string& impl, std::size_t n,
                               const options& opt) {
                   return dispatch_impl(impl, opt, [&, n](auto p) {
                     using P = decltype(p);
                     return [n] {
                       do_not_optimize(
                           primes<P>(static_cast<std::int64_t>(n)).size());
                     };
                   });
                 }};
  r["tokens"] = {16'000'000, [](const std::string& impl, std::size_t n,
                                const options& opt) {
                   auto t = text::random_words(n, 7.0);
                   return dispatch_impl(impl, opt, [&](auto p) {
                     using P = decltype(p);
                     return [&] { do_not_optimize(tokens<P>(t).count); };
                   });
                 }};
  r["grep"] = {16'000'000, [](const std::string& impl, std::size_t n,
                              const options& opt) {
                 auto t = text::random_lines(n);
                 return dispatch_impl(impl, opt, [&](auto p) {
                   using P = decltype(p);
                   return [&] {
                     do_not_optimize(grep<P>(t, "ab").matching_lines);
                   };
                 });
               }};
  r["integrate"] = {16'000'000, [](const std::string& impl, std::size_t n,
                                   const options& opt) {
                      return dispatch_impl(impl, opt, [n](auto p) {
                        using P = decltype(p);
                        return [n] { do_not_optimize(integrate<P>(n)); };
                      });
                    }};
  r["linearrec"] = {8'000'000, [](const std::string& impl, std::size_t n,
                                  const options& opt) {
                      auto coefs = linearrec_input(n);
                      return dispatch_impl(impl, opt, [&](auto p) {
                        using P = decltype(p);
                        return [&] {
                          do_not_optimize(linearrec<P>(coefs).size());
                        };
                      });
                    }};
  r["linefit"] = {8'000'000, [](const std::string& impl, std::size_t n,
                                const options& opt) {
                    auto pts = linefit_input(n);
                    return dispatch_impl(impl, opt, [&](auto p) {
                      using P = decltype(p);
                      return [&] {
                        do_not_optimize(linefit<P>(pts).slope);
                      };
                    });
                  }};
  r["mcss"] = {16'000'000, [](const std::string& impl, std::size_t n,
                              const options& opt) {
                 auto a = mcss_input(n);
                 return dispatch_impl(impl, opt, [&](auto p) {
                   using P = decltype(p);
                   return [&] { do_not_optimize(mcss<P>(a)); };
                 });
               }};
  r["quickhull"] = {1'000'000, [](const std::string& impl, std::size_t n,
                                  const options& opt) {
                      auto pts = geom::points_in_disk(n);
                      return dispatch_impl(impl, opt, [&](auto p) {
                        using P = decltype(p);
                        return [&] { do_not_optimize(quickhull<P>(pts)); };
                      });
                    }};
  r["sparse-mxv"] = {8'000'000, [](const std::string& impl, std::size_t n,
                                   const options& opt) {
                       std::size_t rows = n / 100 + 1;
                       auto m = spmv_input(rows, 100);
                       auto x = spmv_vector(rows);
                       return dispatch_impl(impl, opt, [&](auto p) {
                         using P = decltype(p);
                         return [&] {
                           do_not_optimize(spmv<P>(m, x).size());
                         };
                       });
                     }};
  r["wc"] = {16'000'000, [](const std::string& impl, std::size_t n,
                            const options& opt) {
               auto t = text::random_lines(n);
               return dispatch_impl(impl, opt, [&](auto p) {
                 using P = decltype(p);
                 return [&] { do_not_optimize(wc<P>(t).words); };
               });
             }};
  r["inv-index"] = {16'000'000, [](const std::string& impl, std::size_t n,
                                   const options& opt) {
                      auto t = text::random_lines(n, 60.0, 8.0);
                      return dispatch_impl(impl, opt, [&](auto p) {
                        using P = decltype(p);
                        return [&] {
                          do_not_optimize(build_index<P>(t)[0].postings);
                        };
                      });
                    }};
  r["raycast"] = {20'000, [](const std::string& impl, std::size_t n,
                             const options& opt) {
                    auto tris = geom::random_triangles(2'000);
                    auto rays = geom::random_rays(n);
                    return dispatch_impl(impl, opt, [&](auto p) {
                      using P = decltype(p);
                      return [&] {
                        do_not_optimize(raycast<P>(rays, tris).size());
                      };
                    });
                  }};
  return r;
}

cli parse_cli(int argc, char** argv) {
  cli c;
  namespace bd = pbds::bench_common::detail;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  // The artifact-style -repeat/-warmup aliases are collected here and
  // applied *after* options::parse builds c.opt from the passthrough
  // flags, so they are not overwritten.
  int repeat_override = -1;
  double warmup_override = -1;
  for (int i = 1; i < argc; ++i) {
    auto is = [&](const char* f) { return std::strcmp(argv[i], f) == 0; };
    if (is("--bench")) {
      c.bench = bd::require_value("--bench", i, argc, argv);
    } else if (is("--impl")) {
      c.impl = bd::require_value("--impl", i, argc, argv);
    } else if (is("-n")) {
      c.n = static_cast<std::size_t>(bd::parse_long_arg(
          "-n", bd::require_value("-n", i, argc, argv), 1,
          std::numeric_limits<long>::max()));
    } else if (is("-repeat")) {
      repeat_override = static_cast<int>(bd::parse_long_arg(
          "-repeat", bd::require_value("-repeat", i, argc, argv), 1,
          1000000));
    } else if (is("-warmup")) {
      warmup_override = bd::parse_double_arg(
          "-warmup", bd::require_value("-warmup", i, argc, argv), 0.0,
          /*inclusive=*/true);
    } else if (is("--json")) {
      c.json_path = bd::require_value("--json", i, argc, argv);
    } else if (is("--metrics")) {
      c.metrics = true;
    } else if (is("--metrics-overhead")) {
      c.metrics_overhead = true;
    } else if (is("--isolate")) {
      c.isolate = true;
    } else if (is("--timeout")) {
      c.timeout_sec = bd::parse_double_arg(
          "--timeout", bd::require_value("--timeout", i, argc, argv), 0.0,
          /*inclusive=*/false);
    } else if (is("--baseline")) {
      c.baseline_path = bd::require_value("--baseline", i, argc, argv);
    } else if (is("--threshold")) {
      c.threshold = bd::parse_double_arg(
          "--threshold", bd::require_value("--threshold", i, argc, argv),
          0.0, /*inclusive=*/true);
    } else if (is("--bytes-threshold")) {
      // Any negative value disables the bytes rail; parse by hand since
      // parse_double_arg only does lower bounds.
      const char* text =
          bd::require_value("--bytes-threshold", i, argc, argv);
      char* end = nullptr;
      errno = 0;
      c.bytes_threshold = std::strtod(text, &end);
      if (end == text || *end != '\0' || errno == ERANGE ||
          c.bytes_threshold != c.bytes_threshold) {
        std::fprintf(stderr,
                     "error: invalid value '%s' for --bytes-threshold\n",
                     text);
        std::exit(2);
      }
    } else if (is("--inject-slowdown")) {
      c.inject_slowdown = bd::parse_double_arg(
          "--inject-slowdown",
          bd::require_value("--inject-slowdown", i, argc, argv), 0.0,
          /*inclusive=*/false);
    } else if (is("--list")) {
      for (const auto& [name, e] : registry()) {
        std::printf("%-12s (default n = %zu)\n", name.c_str(), e.default_n);
      }
      std::exit(0);
    } else if (is("--help") || is("-h")) {
      std::printf(
          "usage: %s [--bench NAME|all] [--impl array|rad|delay|all]\n"
          "          [-n SIZE] [-repeat R] [-warmup SECONDS] [--list]\n"
          "          [--json PATH] [--isolate] [--timeout SECONDS]\n"
          "          [--metrics] [--metrics-overhead]\n"
          "          [--baseline REPORT.json] [--threshold X]\n"
          "          [--bytes-threshold X] [--inject-slowdown F]\n"
          "--metrics dumps the telemetry registry's counters after the\n"
          "run, into the --json extras when set\n"
          "--metrics-overhead A/Bs the metrics-recording cost (registry\n"
          "on vs off) on a fused-reduce kernel and records\n"
          "overhead_ratio (CI gates it at 1.05)\n"
          "--baseline replays every ok row of a committed --json report at\n"
          "its recorded n and exits 1 if any fresh median exceeds\n"
          "baseline*(1+--threshold) or allocated bytes exceed\n"
          "baseline*(1+--bytes-threshold); negative --bytes-threshold\n"
          "disables the bytes check. --inject-slowdown F multiplies the\n"
          "fresh medians first (comparator self-test: 2 must fail).\n",
          argv[0]);
      std::exit(0);
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  // Remaining flags (e.g. --scale) go to the common parser.
  c.opt = options::parse(static_cast<int>(passthrough.size()),
                         passthrough.data());
  if (repeat_override >= 0) c.opt.repeat = repeat_override;
  if (warmup_override >= 0) c.opt.warmup = warmup_override;
  return c;
}

// --- perf-regression mode (--baseline) ----------------------------------------

// Replay every ok configuration recorded in the baseline report (at its
// recorded n, honoring --bench/--impl filters), always in forked children
// (the parent never starts the pool), and compare the fresh medians and
// allocated bytes under the thresholds. Exit codes: 0 no regression, 1
// regression, 3 baseline unreadable or a replay failed to produce a
// measurement.
int run_baseline_mode(const cli& c) {
  std::vector<baseline_entry> base;
  std::string err;
  if (!load_report(c.baseline_path, base, err)) {
    std::fprintf(stderr, "pbdsbench: %s\n", err.c_str());
    return 3;
  }
  auto reg = registry();
  std::vector<regression> regs;
  int replayed = 0;
  int skipped = 0;
  int failed = 0;
  std::printf("comparing against %s (threshold %.0f%%, bytes %s)\n",
              c.baseline_path.c_str(), c.threshold * 100,
              c.bytes_threshold < 0
                  ? "off"
                  : (std::to_string(c.bytes_threshold * 100) + "%").c_str());
  if (c.inject_slowdown != 1.0)
    std::printf("inject-slowdown: fresh medians multiplied by %.3g\n",
                c.inject_slowdown);
  std::printf("%-12s %-6s %12s %12s %12s %7s\n", "benchmark", "impl", "n",
              "base med(s)", "fresh med(s)", "ratio");
  for (const auto& b : base) {
    bool known_impl =
        b.config == "array" || b.config == "rad" || b.config == "delay";
    if (b.status != "ok" || !reg.count(b.name) || !known_impl ||
        (c.bench != "all" && b.name != c.bench) ||
        (c.impl != "all" && b.config != c.impl)) {
      ++skipped;
      continue;
    }
    std::size_t n = b.has("n") ? static_cast<std::size_t>(b.num("n"))
                               : reg.at(b.name).default_n;
    auto r = run_isolated([&] { return reg.at(b.name).run(b.config, n,
                                                          c.opt); },
                          c.timeout_sec);
    if (r.status != run_status::ok) {
      std::printf("%-12s %-6s %12zu %12s (%s)\n", b.name.c_str(),
                  b.config.c_str(), n, "-", to_string(r.status));
      ++failed;
      continue;
    }
    double fresh = r.m.median_seconds * c.inject_slowdown;
    std::size_t before = regs.size();
    compare_against_baseline(b, fresh,
                             static_cast<double>(r.m.allocated_bytes),
                             c.threshold, c.bytes_threshold, regs);
    double base_med = b.median_seconds();
    std::printf("%-12s %-6s %12zu %12.4f %12.4f %7.2f%s\n", b.name.c_str(),
                b.config.c_str(), n, base_med, fresh,
                base_med == 0 ? 0 : fresh / base_med,
                regs.size() > before ? "  REGRESSION" : "");
    std::fflush(stdout);
    ++replayed;
  }
  for (const auto& g : regs) {
    std::fprintf(stderr,
                 "REGRESSION %s/%s %s: %.6g vs baseline %.6g "
                 "(%.2fx, threshold +%.0f%%)\n",
                 g.name.c_str(), g.config.c_str(), g.metric.c_str(),
                 g.current, g.baseline, g.ratio(), g.threshold * 100);
  }
  std::printf("replayed %d, skipped %d, failed %d, regressions %zu\n",
              replayed, skipped, failed, regs.size());
  if (failed > 0) return 3;
  if (replayed == 0) {
    std::fprintf(stderr,
                 "pbdsbench: baseline contained no replayable rows\n");
    return 3;
  }
  return regs.empty() ? 0 : 1;
}

// --- telemetry dump (--metrics) ------------------------------------------------

// Print every non-zero registry counter and (when a --json report is
// open) append one "telemetry" row whose extras carry the full counter
// set — the CI artifact a dashboard can scrape without parsing stdout.
void dump_metrics(json_report* report) {
  auto snap = telemetry::snapshot();
  std::printf("-- telemetry registry --\n");
  std::vector<std::pair<std::string, double>> extra;
  for (std::size_t i = 0; i < telemetry::kNumCounters; ++i) {
    auto cnt = static_cast<telemetry::counter>(i);
    std::uint64_t v = snap.get(cnt);
    if (v != 0)
      std::printf("%-22s %14llu\n", telemetry::counter_name(cnt),
                  static_cast<unsigned long long>(v));
    extra.emplace_back(std::string("metrics.") + telemetry::counter_name(cnt),
                       static_cast<double>(v));
  }
  std::fflush(stdout);
  if (report) {
    measurement m{};
    report->add({"telemetry", "delay", run_status::ok, m, extra});
  }
}

// --- metrics-overhead mode (--metrics-overhead) --------------------------------

// Times identical kernels with the metrics registry enabled vs disabled,
// interleaving on/off runs (alternating order each pair) rather than
// timing two separate batches, so machine-load drift cancels. The kernel
// is a fused delayed map|reduce — the paper's hot path, where any
// per-block bookkeeping shows up directly. CI gates the ratio at 1.05.
// Each kernel returns the seconds it timed.
//
// One fused reduce at CI's -n 4194304 lasts only a few milliseconds, where
// scheduling noise swamps a 5% gate, so a fused-reduce sample runs a fixed
// number of reduces, calibrated once from the fastest of three single
// reduces to last about kSampleSeconds. Each row reports its shortest
// sample (min_sample_s), which should stay above 50 ms.
constexpr double kSampleSeconds = 0.25;

int run_metrics_overhead(const cli& c) {
  const std::size_t n = c.n ? c.n : c.opt.scaled(std::size_t{1} << 24);
  struct shape {
    const char* name;
    std::function<double()> run;
  };
  using clock = std::chrono::steady_clock;
  auto seconds_since = [](clock::time_point t0) {
    return std::chrono::duration<double>(clock::now() - t0).count();
  };
  auto fused_reduce = [n] {
    auto xs = delayed::map(
        [](std::size_t i) {
          std::uint64_t z = i + 0x9e3779b97f4a7c15ull;
          z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
          return z ^ (z >> 27);
        },
        delayed::iota(n));
    do_not_optimize(delayed::reduce(
        [](std::uint64_t a, std::uint64_t b) { return a + b; },
        std::uint64_t{0}, xs));
  };
  double one = std::numeric_limits<double>::infinity();
  for (int k = 0; k < 3; ++k) {
    auto t0 = clock::now();
    fused_reduce();
    one = std::min(one, seconds_since(t0));
  }
  const int reduces_per_sample = static_cast<int>(
      std::max(1.0, std::ceil(kSampleSeconds / std::max(one, 1e-9))));
  std::printf("fused-reduce: %d reduces per sample (one: %.2f ms)\n",
              reduces_per_sample, one * 1e3);
  std::vector<shape> shapes;
  shapes.push_back({"fused-reduce", [=] {
                      auto t0 = clock::now();
                      for (int r = 0; r < reduces_per_sample; ++r)
                        fused_reduce();
                      return seconds_since(t0);
                    }});
  std::unique_ptr<json_report> report;
  if (!c.json_path.empty())
    report = std::make_unique<json_report>(c.json_path);
  std::printf("%-24s %12s %12s %12s %9s\n", "kernel", "n", "metrics(s)",
              "nometrics(s)", "overhead");
  for (const auto& s : shapes) {
    auto time_one = [&](bool on) {
      telemetry::scoped_metrics g(on);
      return s.run();
    };
    auto deadline =
        clock::now() + std::chrono::duration<double>(c.opt.warmup);
    do {
      (void)time_one(true);
      (void)time_one(false);
    } while (clock::now() < deadline);
    std::vector<double> ons, offs;
    for (int r = 0; r < c.opt.repeat; ++r) {
      if (r % 2 == 0) {
        ons.push_back(time_one(true));
        offs.push_back(time_one(false));
      } else {
        offs.push_back(time_one(false));
        ons.push_back(time_one(true));
      }
    }
    auto median = [](std::vector<double>& xs) {
      std::sort(xs.begin(), xs.end());
      std::size_t mid = xs.size() / 2;
      return xs.size() % 2 == 1 ? xs[mid] : (xs[mid - 1] + xs[mid]) / 2.0;
    };
    double on_med = median(ons);
    double off_med = median(offs);
    double r = off_med > 0 ? on_med / off_med : 0.0;
    std::printf("%-24s %12zu %12.4f %12.4f %+8.2f%%\n", s.name, n, on_med,
                off_med, (r - 1.0) * 100);
    if (report) {
      measurement m{};
      m.seconds = on_med;
      m.median_seconds = on_med;
      report->add({std::string("metrics-overhead.") + s.name, "delay",
                   run_status::ok, m,
                   {{"n", static_cast<double>(n)},
                    {"metrics_median_s", on_med},
                    {"nometrics_median_s", off_med},
                    {"min_sample_s", std::min(ons.front(), offs.front())},
                    {"overhead_ratio", r}}});
    }
    std::fflush(stdout);
  }
  return report && !report->ok() ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  cli c = parse_cli(argc, argv);

  if (!c.baseline_path.empty()) return run_baseline_mode(c);

  if (c.metrics_overhead) return run_metrics_overhead(c);

  auto reg = registry();
  std::vector<std::string> benches;
  if (c.bench == "all") {
    for (const auto& [name, e] : reg) benches.push_back(name);
  } else if (reg.count(c.bench)) {
    benches.push_back(c.bench);
  } else {
    std::fprintf(stderr, "unknown --bench '%s' (try --list)\n",
                 c.bench.c_str());
    return 2;
  }
  std::vector<std::string> impls =
      c.impl == "all" ? std::vector<std::string>{"array", "rad", "delay"}
                      : std::vector<std::string>{c.impl};

  std::unique_ptr<json_report> report;
  if (!c.json_path.empty())
    report = std::make_unique<json_report>(c.json_path);

  std::printf("%-12s %-6s %12s %10s %12s %12s\n", "benchmark", "impl", "n",
              "time(s)", "peak MB", "alloc MB/run");
  for (const auto& name : benches) {
    const auto& e = reg.at(name);
    std::size_t n = c.n ? c.n : c.opt.scaled(e.default_n);
    for (const auto& impl : impls) {
      if (c.isolate) {
        // One subprocess per configuration: input generation, warmup, and
        // timed runs all happen in the child, so this parent process never
        // starts the scheduler pool — the precondition for fork safety
        // (run_isolated's contract) — and a configuration that wedges,
        // crashes, or blows past the budget costs only its own row.
        auto r = run_isolated([&] { return e.run(impl, n, c.opt); },
                              c.timeout_sec);
        if (r.status == run_status::ok) {
          std::printf("%-12s %-6s %12zu %10.4f %12.1f %12.1f\n",
                      name.c_str(), impl.c_str(), n, r.m.seconds,
                      mb(r.m.peak_bytes), mb(r.m.allocated_bytes));
        } else {
          std::printf("%-12s %-6s %12zu %10s (%s)\n", name.c_str(),
                      impl.c_str(), n, "-", to_string(r.status));
        }
        // Record n so a later --baseline run replays this exact
        // configuration regardless of its own --scale/-n flags.
        if (report)
          report->add({name, impl, r.status, r.m,
                       {{"n", static_cast<double>(n)}}});
      } else {
        auto m = e.run(impl, n, c.opt);
        std::printf("%-12s %-6s %12zu %10.4f %12.1f %12.1f\n", name.c_str(),
                    impl.c_str(), n, m.seconds, mb(m.peak_bytes),
                    mb(m.allocated_bytes));
        if (report)
          report->add({name, impl, run_status::ok, m,
                       {{"n", static_cast<double>(n)}}});
      }
      std::fflush(stdout);
    }
  }
  if (c.metrics) dump_metrics(report.get());
  telemetry::flush_trace_from_env();
  return 0;
}
