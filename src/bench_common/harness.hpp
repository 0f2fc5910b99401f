// Benchmark harness: the artifact's measurement protocol (Appendix A.7)
// and table formatting in the layout of Figs. 13/14.
//
// Protocol per configuration: run the kernel back-to-back until the warmup
// period has expired, then time `repeat` back-to-back runs and report the
// average. Space is the peak of the byte-exact allocation accounting
// (pbds::memory) across the timed runs — the deterministic analogue of the
// paper's max-residency measurement (see DESIGN.md §1).
//
// Resilience layer (DESIGN.md §"Resource governance"): run_isolated
// executes one configuration once, in a forked child with a wall-clock
// timeout, classifying the outcome (ok / timeout / crash / budget refusal)
// instead of letting one pathological configuration take down the whole
// suite; json_report persists partial results after every configuration so
// a later death loses nothing.
#pragma once

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "memory/budget.hpp"
#include "memory/tracking.hpp"
#include "sched/scheduler.hpp"

namespace pbds::bench_common {

// Keep a computed value alive past the optimizer.
template <typename T>
inline void do_not_optimize(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

namespace detail {
// Strict CLI numeric parsing, matching the treatment of PBDS_NUM_THREADS
// in scheduler.hpp: full-string match, range check, and a clear error on
// stderr instead of atoi/atof's silent zero.
inline long parse_long_arg(const char* flag, const char* text, long lo,
                           long hi) {
  char* end = nullptr;
  errno = 0;
  long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || v < lo || v > hi) {
    std::fprintf(stderr,
                 "error: invalid value '%s' for %s (expected an integer in "
                 "[%ld, %ld])\n",
                 text, flag, lo, hi);
    std::exit(2);
  }
  return v;
}

inline double parse_double_arg(const char* flag, const char* text, double lo,
                              bool inclusive) {
  char* end = nullptr;
  errno = 0;
  double v = std::strtod(text, &end);
  bool in_range = inclusive ? (v >= lo) : (v > lo);  // NaN fails both
  if (end == text || *end != '\0' || errno == ERANGE || !in_range) {
    std::fprintf(stderr,
                 "error: invalid value '%s' for %s (expected a number %s "
                 "%g)\n",
                 text, flag, inclusive ? ">=" : ">", lo);
    std::exit(2);
  }
  return v;
}

inline const char* require_value(const char* flag, int& i, int argc,
                                 char** argv) {
  if (i + 1 >= argc) {
    std::fprintf(stderr, "error: %s requires a value\n", flag);
    std::exit(2);
  }
  return argv[++i];
}
}  // namespace detail

struct options {
  double scale = 1.0;   // multiply default problem sizes
  int repeat = 3;       // timed repetitions
  double warmup = 0.25; // seconds of back-to-back warmup
  std::vector<unsigned> procs;  // worker counts to sweep (fig15)

  // Unrecognized arguments are ignored (benchmark mains layer their own
  // flags on top); recognized flags have their values validated strictly
  // and exit(2) with a message on malformed input.
  static options parse(int argc, char** argv) {
    options o;
    for (int i = 1; i < argc; ++i) {
      auto is = [&](const char* f) { return std::strcmp(argv[i], f) == 0; };
      if (is("--scale")) {
        o.scale = detail::parse_double_arg(
            "--scale", detail::require_value("--scale", i, argc, argv), 0.0,
            /*inclusive=*/false);
      } else if (is("--repeat")) {
        o.repeat = static_cast<int>(detail::parse_long_arg(
            "--repeat", detail::require_value("--repeat", i, argc, argv), 1,
            1000000));
      } else if (is("--warmup")) {
        o.warmup = detail::parse_double_arg(
            "--warmup", detail::require_value("--warmup", i, argc, argv), 0.0,
            /*inclusive=*/true);
      } else if (is("--procs")) {
        const char* text = detail::require_value("--procs", i, argc, argv);
        o.procs.clear();
        const char* p = text;
        for (;;) {
          char* end = nullptr;
          errno = 0;
          long v = std::strtol(p, &end, 10);
          if (end == p || errno == ERANGE || v < 1 ||
              v > sched::detail::kMaxWorkers) {
            std::fprintf(stderr,
                         "error: invalid --procs list '%s' (expected "
                         "comma-separated integers in [1, %ld])\n",
                         text, sched::detail::kMaxWorkers);
            std::exit(2);
          }
          o.procs.push_back(static_cast<unsigned>(v));
          if (*end == '\0') break;
          if (*end != ',') {
            std::fprintf(stderr,
                         "error: invalid --procs list '%s' (expected "
                         "comma-separated integers)\n",
                         text);
            std::exit(2);
          }
          p = end + 1;
        }
      } else if (is("--help") || is("-h")) {
        std::printf(
            "usage: %s [--scale S] [--repeat R] [--warmup SECONDS] "
            "[--procs P1,P2,...]\n",
            argv[0]);
        std::exit(0);
      }
    }
    return o;
  }

  [[nodiscard]] std::size_t scaled(std::size_t n) const {
    auto s = static_cast<std::size_t>(static_cast<double>(n) * scale);
    return s == 0 ? 1 : s;
  }
};

struct measurement {
  double seconds = 0;          // mean over timed runs
  std::int64_t peak_bytes = 0; // max residency during timed runs
  std::int64_t allocated_bytes = 0;  // per run
  // Median over the timed runs — the statistic the perf-regression
  // baseline compares (robust to a one-off scheduler hiccup inflating the
  // mean). Declared after allocated_bytes so three-field aggregate
  // initializers keep compiling.
  double median_seconds = 0;
};

// Run `f` under the warmup+repeat protocol.
template <typename F>
measurement measure(const F& f, const options& opt) {
  using clock = std::chrono::steady_clock;
  auto deadline =
      clock::now() + std::chrono::duration<double>(opt.warmup);
  do {
    f();
  } while (clock::now() < deadline);
  // Quiesce before space_meter resets the peak: the joins above guarantee
  // the warmup's *work* is done, but a worker that lost the race to its
  // joiner may still be in a job epilogue whose trailing note_free would
  // otherwise land between reset_peak and the timed runs and skew the
  // accounting baseline.
  sched::quiesce();
  memory::space_meter meter;
  // Time each repetition individually: the per-rep samples give a median
  // (for baseline comparison) on top of the mean, at the cost of one extra
  // clock read per rep.
  std::vector<double> reps(static_cast<std::size_t>(opt.repeat));
  auto t0 = clock::now();
  auto prev = t0;
  for (int r = 0; r < opt.repeat; ++r) {
    f();
    auto now = clock::now();
    reps[static_cast<std::size_t>(r)] =
        std::chrono::duration<double>(now - prev).count();
    prev = now;
  }
  auto t1 = clock::now();
  measurement m;
  m.seconds = std::chrono::duration<double>(t1 - t0).count() / opt.repeat;
  m.peak_bytes = meter.peak_bytes();
  m.allocated_bytes = meter.allocated_bytes() / opt.repeat;
  std::sort(reps.begin(), reps.end());
  std::size_t mid = reps.size() / 2;
  m.median_seconds = reps.size() % 2 == 1
                         ? reps[mid]
                         : (reps[mid - 1] + reps[mid]) / 2.0;
  return m;
}

inline double mb(std::int64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

inline double ratio(double a, double b) { return b == 0 ? 0 : a / b; }

// --- Fig. 13-style row: A / R / Ours with R/Ours ratios ------------------------

inline void print_bid_header() {
  std::printf("%-12s | %9s %9s %9s %7s | %9s %9s %9s %7s\n", "benchmark",
              "A(s)", "R(s)", "Ours(s)", "R/Ours", "A(MB)", "R(MB)",
              "Ours(MB)", "R/Ours");
  std::printf("%.*s\n", 100,
              "--------------------------------------------------------------"
              "----------------------------------------");
}

inline void print_bid_row(const std::string& name, const measurement& a,
                          const measurement& r, const measurement& ours) {
  std::printf(
      "%-12s | %9.4f %9.4f %9.4f %7.2f | %9.1f %9.1f %9.1f %7.2f\n",
      name.c_str(), a.seconds, r.seconds, ours.seconds,
      ratio(r.seconds, ours.seconds), mb(a.peak_bytes), mb(r.peak_bytes),
      mb(ours.peak_bytes),
      ratio(static_cast<double>(r.peak_bytes),
            static_cast<double>(ours.peak_bytes)));
}

// --- Fig. 14-style row: A vs Ours with A/Ours ratios ---------------------------

inline void print_rad_header() {
  std::printf("%-12s | %9s %9s %7s | %9s %9s %7s\n", "benchmark", "A(s)",
              "Ours(s)", "A/Ours", "A(MB)", "Ours(MB)", "A/Ours");
  std::printf("%.*s\n", 80,
              "--------------------------------------------------------------"
              "------------------");
}

inline void print_rad_row(const std::string& name, const measurement& a,
                          const measurement& ours) {
  std::printf("%-12s | %9.4f %9.4f %7.2f | %9.1f %9.1f %7.2f\n", name.c_str(),
              a.seconds, ours.seconds, ratio(a.seconds, ours.seconds),
              mb(a.peak_bytes), mb(ours.peak_bytes),
              ratio(static_cast<double>(a.peak_bytes),
                    static_cast<double>(ours.peak_bytes)));
}

// --- subprocess isolation ------------------------------------------------------

enum class run_status {
  ok,               // child completed and reported a measurement
  timeout,          // child exceeded the wall-clock limit and was killed
  crashed,          // child died on a signal (OOM kill, segfault, abort)
  budget_exceeded,  // child refused by the memory budget (deterministic)
  error,            // child exited nonzero for any other reason
};

[[nodiscard]] inline const char* to_string(run_status s) {
  switch (s) {
    case run_status::ok: return "ok";
    case run_status::timeout: return "timeout";
    case run_status::crashed: return "crashed";
    case run_status::budget_exceeded: return "budget_exceeded";
    case run_status::error: return "error";
  }
  return "unknown";
}

struct isolated_result {
  run_status status = run_status::error;
  measurement m;  // valid only when status == ok
};

namespace detail {
// Reserved child exit codes (distinct from exit(2) usage errors and the
// usual small codes a benchmark main might use).
inline constexpr int kBudgetExitCode = 97;
inline constexpr int kErrorExitCode = 98;
}  // namespace detail

// Run one benchmark configuration once, in a forked subprocess with a
// wall-clock timeout, and classify how it ended. `f` must return a
// `measurement` and is invoked only in the child, which reports it over a
// pipe and _exits without running static destructors — the parent's state
// must not be torn down twice. A crash or timeout is reported as such, not
// rerun: the row shows what the configuration did.
//
// fork(2) safety: call this only from a process that has NOT started the
// scheduler pool — a forked copy of a multithreaded process may hold
// another thread's allocator lock forever. The child drops inherited
// handles via sched::reinit_in_child() and builds its own pool; the
// isolating parent must stay single-threaded and leave all parallel work
// to children (see bench/pbdsbench.cpp --isolate).
template <typename F>
isolated_result run_isolated(const F& f, double timeout_sec) {
  isolated_result r;
  int fds[2];
  if (pipe(fds) != 0) {
    std::fprintf(stderr, "harness: pipe failed: %s\n", std::strerror(errno));
    return r;
  }
  pid_t pid = fork();
  if (pid < 0) {
    std::fprintf(stderr, "harness: fork failed: %s\n", std::strerror(errno));
    close(fds[0]);
    close(fds[1]);
    return r;
  }
  if (pid == 0) {
    // Child. The parent's worker threads do not exist here; drop the
    // inherited handles before any parallel work.
    close(fds[0]);
    sched::reinit_in_child();
    int code = detail::kErrorExitCode;
    char line[128];
    int len = 0;
    try {
      measurement m = f();
      len = std::snprintf(line, sizeof line, "%.9g %lld %lld %.9g\n",
                          m.seconds,
                          static_cast<long long>(m.peak_bytes),
                          static_cast<long long>(m.allocated_bytes),
                          m.median_seconds);
      code = 0;
    } catch (const budget_exceeded&) {
      code = detail::kBudgetExitCode;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "harness(child): %s\n", e.what());
    } catch (...) {
      std::fprintf(stderr, "harness(child): unknown exception\n");
    }
    if (code == 0 && len > 0) {
      ssize_t unused = write(fds[1], line, static_cast<std::size_t>(len));
      (void)unused;
    }
    close(fds[1]);
    _exit(code);  // skip static destructors; the parent owns process state
  }
  // Parent: poll for exit, SIGKILL on timeout.
  close(fds[1]);
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::duration<double>(timeout_sec);
  int wstatus = 0;
  bool timed_out = false;
  for (;;) {
    pid_t done = waitpid(pid, &wstatus, WNOHANG);
    if (done == pid) break;
    if (done < 0 && errno != EINTR) {
      close(fds[0]);
      return r;
    }
    if (!timed_out && std::chrono::steady_clock::now() >= deadline) {
      kill(pid, SIGKILL);
      timed_out = true;  // keep polling until the kill is reaped
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (timed_out) {
    r.status = run_status::timeout;
  } else if (WIFSIGNALED(wstatus)) {
    r.status = run_status::crashed;
  } else if (WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0) {
    char buf[128] = {0};
    ssize_t got = read(fds[0], buf, sizeof buf - 1);
    long long peak = 0;
    long long alloc = 0;
    double median = 0;
    // The median field is a PR-6 addition; accept three fields too so a
    // mixed-version parent/child pairing degrades to median == mean.
    int parsed = got > 0 ? std::sscanf(buf, "%lf %lld %lld %lf",
                                       &r.m.seconds, &peak, &alloc, &median)
                         : 0;
    if (parsed >= 3) {
      r.m.peak_bytes = peak;
      r.m.allocated_bytes = alloc;
      r.m.median_seconds = parsed == 4 ? median : r.m.seconds;
      r.status = run_status::ok;
    }
  } else if (WIFEXITED(wstatus) &&
             WEXITSTATUS(wstatus) == detail::kBudgetExitCode) {
    r.status = run_status::budget_exceeded;
  }
  close(fds[0]);
  return r;
}

// --- partial-results JSON report ----------------------------------------------
//
// Appending a record rewrites the whole file (tmp + rename, so readers
// never see a torn write): the report on disk is complete and valid JSON
// after every configuration, and a crash mid-suite loses only the
// configuration that crashed — which is itself recorded with its failure
// status before the next one starts.
class json_report {
 public:
  explicit json_report(std::string path) : path_(std::move(path)) {}

  struct record {
    std::string name;      // benchmark name
    std::string config;    // library / policy variant
    run_status status = run_status::ok;
    measurement m;
    // Free-form numeric metrics appended to the JSON object (n,
    // overhead_ratio, metrics.* counters, ...). Last field so existing
    // four-element aggregate initializers keep compiling.
    std::vector<std::pair<std::string, double>> extra = {};
  };

  void add(record rec) {
    records_.push_back(std::move(rec));
    flush();
  }

  [[nodiscard]] const std::vector<record>& records() const {
    return records_;
  }

  // False when the last flush could not be fully persisted (open, write,
  // close, or rename failed — e.g. ENOSPC/EIO); the previous complete
  // report file, if any, is left in place rather than a truncated one.
  [[nodiscard]] bool ok() const noexcept { return last_error_.empty(); }
  [[nodiscard]] const std::string& last_error() const noexcept {
    return last_error_;
  }

 private:
  static void write_escaped(std::FILE* out, const std::string& s) {
    for (char c : s) {
      if (c == '"' || c == '\\') std::fputc('\\', out);
      if (static_cast<unsigned char>(c) < 0x20) {
        std::fprintf(out, "\\u%04x", c);
        continue;
      }
      std::fputc(c, out);
    }
  }

  void fail(const char* what, const std::string& path) const {
    last_error_ = std::string(what) + " " + path + ": " + std::strerror(errno);
    std::fprintf(stderr, "harness: %s\n", last_error_.c_str());
  }

  void flush() const {
    last_error_.clear();
    std::string tmp = path_ + ".tmp";
    std::FILE* out = std::fopen(tmp.c_str(), "w");
    if (out == nullptr) {
      fail("cannot open", tmp);
      return;
    }
    std::fprintf(out, "[\n");
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const record& r = records_[i];
      std::fprintf(out, "  {\"name\": \"");
      write_escaped(out, r.name);
      std::fprintf(out, "\", \"config\": \"");
      write_escaped(out, r.config);
      std::fprintf(out,
                   "\", \"status\": \"%s\", "
                   "\"seconds\": %.9g, \"median_seconds\": %.9g, "
                   "\"peak_bytes\": %lld, "
                   "\"allocated_bytes\": %lld",
                   to_string(r.status), r.m.seconds,
                   r.m.median_seconds,
                   static_cast<long long>(r.m.peak_bytes),
                   static_cast<long long>(r.m.allocated_bytes));
      for (const auto& [key, value] : r.extra) {
        std::fprintf(out, ", \"");
        write_escaped(out, key);
        std::fprintf(out, "\": %.9g", value);
      }
      std::fprintf(out, "}%s\n", i + 1 < records_.size() ? "," : "");
    }
    std::fprintf(out, "]\n");
    // A short write (ENOSPC, EIO) sets the stream error flag; fflush and
    // fclose surface anything still buffered. On any failure, discard the
    // tmp file and keep the previous complete report — publishing
    // truncated JSON via the rename would defeat the whole tmp+rename
    // scheme.
    bool write_error = std::ferror(out) != 0;
    if (std::fflush(out) != 0) write_error = true;
    if (std::fclose(out) != 0) write_error = true;
    if (write_error) {
      fail("write failed for", tmp);
      std::remove(tmp.c_str());
      return;
    }
    if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
      fail("cannot rename", tmp);
      std::remove(tmp.c_str());
    }
  }

  std::string path_;
  std::vector<record> records_;
  mutable std::string last_error_;
};

}  // namespace pbds::bench_common
