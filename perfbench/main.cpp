// perfbench: one workload, one seed, one run.
//
//   perfbench --workload rad-stream --seed 1 --seconds 20 --trace 0
//             --cpus 0,1,2,3
//
// Set-up generates every input from the seed on a P=4 pool (timed several
// times, median reported) and computes each kernel's reference output with
// the array policy. The run then times passes of the delay policy, each
// pass being the workload's kernels back to back, first at P=4 (the
// calling thread plus three workers, pinned to the --cpus set) and then at
// P=1 (pinned to the first of them). Every pass's outputs are checked
// bit-exactly against the references.
//
// --trace 0 prints the end-to-end metrics. --trace 1 is a separate run
// that prints the per-layer metrics: traced passes (traced_policy) are
// interleaved with plain ones, P=1 passes alternate telemetry on and off,
// rad-stream also times the hand-written loops, and a read of a 4x-L3
// array measures this host's memory bandwidth.
//
// The last line of stdout is the JSON result; the line before it records
// the environment and sample counts.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "memory/tracking.hpp"
#include "perfbench.hpp"
#include "sched/parallel.hpp"
#include "sched/scheduler.hpp"
#include "telemetry/metrics.hpp"

namespace {

using namespace perfbench;  // NOLINT

constexpr int kSetupReps = 3;
constexpr int kMaxSetupReps = 25;
constexpr int kMinPasses = 3;
constexpr const char* kAllKernels[] = {
    "mcss",    "linefit", "sparse-mxv", "bestcut",   "bignum-add",
    "primes",  "tokens",  "bfs",        "quickhull", "inv-index"};

struct cli {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::vector<int> cpus;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "rad-stream|bid-pipeline|irregular --seed N --seconds S "
               "--trace 0|1 --cpus C0,C1,...\n",
               why);
  std::exit(2);
}

cli parse(int argc, char** argv) {
  cli c;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      c.workload = v;
    } else if (flag == "--seed") {
      c.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || v.empty()) usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      c.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(c.seconds > 0)) usage("bad --seconds");
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("bad --trace");
      c.trace = v == "1";
    } else if (flag == "--cpus") {
      for (const char* p = v.c_str(); *p != '\0';) {
        long cpu = std::strtol(p, &end, 10);
        if (end == p || cpu < 0 || cpu >= CPU_SETSIZE) usage("bad --cpus");
        c.cpus.push_back(static_cast<int>(cpu));
        p = *end == ',' ? end + 1 : end;
        if (*end != ',' && *end != '\0') usage("bad --cpus");
      }
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (c.workload.empty() || !have_seed || c.seconds <= 0 || c.cpus.empty())
    usage("--workload, --seed, --seconds and --cpus are required");
  return c;
}

// --- environment --------------------------------------------------------------

std::int64_t l3_bytes() {
  for (int idx = 0; idx < 16; ++idx) {
    std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx);
    std::ifstream level(dir + "/level");
    int lv = 0;
    if (!(level >> lv) || lv != 3) continue;
    std::ifstream size(dir + "/size");
    std::int64_t v = 0;
    std::string unit;
    if (!(size >> v)) return 0;
    std::getline(size, unit);
    if (!unit.empty() && (unit[0] == 'K' || unit[0] == 'k')) v <<= 10;
    if (!unit.empty() && unit[0] == 'M') v <<= 20;
    return v;
  }
  return 0;
}

void pin(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) {
    std::perror("perfbench: sched_setaffinity");
    std::exit(3);
  }
}

// Rebuild the pool with p workers. The calling thread is worker 0; the
// workers inherit its affinity, so pin first.
void use_pool(unsigned p, const std::vector<int>& cpus) {
  pbds::sched::quiesce();
  pin(cpus);
  pbds::sched::set_num_workers(p);
}

// --- statistics -----------------------------------------------------------------

double median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  std::size_t m = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[m] : (xs[m - 1] + xs[m]) / 2;
}

// The samples in run order, their count, and the highest percentile with
// at least ten samples beyond it (pct and value null below 11 samples).
std::string samples_json(const std::vector<double>& xs) {
  std::string out = "{\"samples\": " + std::to_string(xs.size());
  std::vector<double> sorted = xs;
  std::sort(sorted.begin(), sorted.end());
  char buf[96];
  if (sorted.size() < 11) {
    out += ", \"pct\": null, \"value\": null";
  } else {
    std::size_t r = sorted.size() - 11;
    std::snprintf(buf, sizeof buf, ", \"pct\": %.1f, \"value\": %.9g",
                  100.0 * static_cast<double>(r + 1) /
                      static_cast<double>(sorted.size()),
                  sorted[r]);
    out += buf;
  }
  out += ", \"seconds\": [";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.6g", i ? ", " : "", xs[i]);
    out += buf;
  }
  return out + "]}";
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr double kMiB = 1024.0 * 1024.0;

// --- passes -----------------------------------------------------------------------

struct kernel_sample {
  double seconds = 0;
  double peak_mb = 0;   // peak live tracked bytes above what was live before
  double alloc_mb = 0;  // tracked bytes allocated
  double allocs = 0;    // tracked allocation count
  double forks = 0, steals = 0, failed_steals = 0;
  trace::attribution attr;  // traced passes only
  double calls = 0;         // traced passes only
};

struct pass {
  double seconds = 0;
  std::vector<kernel_sample> k;
  [[nodiscard]] double sum(double kernel_sample::*field) const {
    double s = 0;
    for (const auto& x : k) s += x.*field;
    return s;
  }
};

struct runner {
  kernel_list& ks;
  std::vector<digest> refs;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  // One pass of every kernel. A wrong output or an exception fails the
  // pass; the caller still gets its timings.
  pass run_pass(impl which, bool sched_counters) {
    pass p;
    bool ok = true;
    for (std::size_t i = 0; i < ks.size(); ++i) {
      kernel& k = *ks[i];
      kernel_sample s;
      pbds::sched::quiesce();
      pbds::telemetry::metrics_snapshot before;
      if (sched_counters) before = pbds::telemetry::snapshot();
      if (which == impl::traced) (void)trace::drain();
      pbds::memory::space_meter meter;
      std::int64_t t0 = trace::now_ns();
      try {
        k.run(which);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s threw: %s\n", k.name().c_str(),
                     e.what());
        ok = false;
      }
      std::int64_t t1 = trace::now_ns();
      pbds::sched::quiesce();
      s.seconds = static_cast<double>(t1 - t0) * 1e-9;
      s.peak_mb = static_cast<double>(meter.peak_delta_bytes()) / kMiB;
      s.alloc_mb = static_cast<double>(meter.allocated_bytes()) / kMiB;
      s.allocs = static_cast<double>(meter.alloc_count());
      if (sched_counters) {
        auto after = pbds::telemetry::snapshot();
        using pbds::telemetry::counter;
        auto delta = [&](counter c) {
          return static_cast<double>(after.get(c) - before.get(c));
        };
        s.forks = delta(counter::forks);
        s.steals = delta(counter::steals);
        s.failed_steals = delta(counter::failed_steals);
      }
      if (which == impl::traced) {
        trace::drained d = trace::drain();
        s.attr = trace::attribute(std::move(d.spans), t0, t1);
        s.calls = static_cast<double>(d.calls);
      }
      if (ok && k.output_digest() != refs[i]) {
        std::fprintf(stderr, "perfbench: %s output differs from reference\n",
                     k.name().c_str());
        ok = false;
      }
      k.drop_output();
      p.seconds += s.seconds;
      p.k.push_back(s);
    }
    ++attempted;
    if (!ok) ++failed;
    return p;
  }
};

// Run `round` until `budget` seconds have passed and at least kMinPasses
// rounds are done.
template <typename F>
void for_budget(double budget, const F& round) {
  double start = now_s();
  for (int n = 0; n < kMinPasses || now_s() - start < budget; ++n) round();
}

template <typename Get>
double median_of(const std::vector<pass>& ps, const Get& get) {
  std::vector<double> xs;
  for (const auto& p : ps) xs.push_back(get(p));
  return median(xs);
}

// Seconds for one parallel read of every word of `a` (a sum, so nothing
// is written back).
double time_read(const pbds::parray<std::uint64_t>& a) {
  constexpr std::size_t kBlock = 1 << 16;
  std::size_t nb = (a.size() + kBlock - 1) / kBlock;
  std::vector<std::uint64_t> part(nb);
  const std::uint64_t* p = a.data();
  double t0 = now_s();
  pbds::parallel_for(
      0, nb,
      [&](std::size_t j) {
        std::size_t lo = j * kBlock, hi = std::min(a.size(), lo + kBlock);
        std::uint64_t s = 0;
        for (std::size_t i = lo; i < hi; ++i) s += p[i];
        part[j] = s;
      },
      1);
  double t = now_s() - t0;
  std::uint64_t total = 0;
  for (auto s : part) total += s;
  asm volatile("" : : "r"(total) : "memory");
  return t;
}

// --- output -----------------------------------------------------------------------

struct metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<metric>& ms) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < ms.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", ms[i].name.c_str(), ms[i].value, ms[i].unit);
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  cli c = parse(argc, argv);
  kernel_list ks;
  if (c.workload == "rad-stream")
    ks = make_rad_stream();
  else if (c.workload == "bid-pipeline")
    ks = make_bid_pipeline();
  else if (c.workload == "irregular")
    ks = make_irregular();
  else
    usage(("unknown workload " + c.workload).c_str());

  const std::vector<int> cpus4 = c.cpus;
  const std::vector<int> cpus1 = {c.cpus[0]};
  const auto p4 = static_cast<unsigned>(cpus4.size());
  const std::int64_t l3 = l3_bytes();

  // --- set-up: pool start and input generation, each timed at least
  // kSetupReps times. The first generation of each kernel is followed by its
  // reference run (array policy) and, in a traced run, one rad run: the
  // fusion comparator rows. These run one kernel at a time with only that
  // kernel's input live, because the array policy's intermediates are
  // several times the input, and are not part of setup_s.
  runner r{ks, {}};
  std::vector<double> pool_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    double t0 = now_s();
    use_pool(p4, cpus4);
    pool_s.push_back(now_s() - t0);
  }
  double setup_start = now_s();
  struct comparator {
    double array_s = 0, rad_s = 0, array_peak = 0;
  };
  std::vector<comparator> comp(ks.size());
  std::vector<std::vector<double>> gen_s(ks.size());
  auto generate = [&](std::size_t i) {
    ks[i]->release();
    pbds::sched::quiesce();
    double t0 = now_s();
    ks[i]->generate(kernel_seed(c.seed, i));
    gen_s[i].push_back(now_s() - t0);
  };
  for (std::size_t i = 0; i < ks.size(); ++i) {
    kernel& k = *ks[i];
    generate(i);
    pbds::sched::quiesce();
    pbds::memory::space_meter m;
    double t0 = now_s();
    k.run(impl::array);
    comp[i].array_s = now_s() - t0;
    pbds::sched::quiesce();
    comp[i].array_peak = static_cast<double>(m.peak_delta_bytes());
    r.refs.push_back(k.output_digest());
    if (c.trace) {
      t0 = now_s();
      k.run(impl::rad);
      comp[i].rad_s = now_s() - t0;
      ++r.attempted;
      if (k.output_digest() != r.refs[i]) {
        std::fprintf(stderr, "perfbench: %s(rad) differs from reference\n",
                     k.name().c_str());
        ++r.failed;
      }
    }
    k.release();
  }
  // The remaining generations; the last one's inputs are the ones timed.
  // Small inputs generate in milliseconds, so repeat until the set-up has
  // run for a second, for a steady median.
  for (int rep = 1; rep < kSetupReps ||
                    (rep < kMaxSetupReps && now_s() - setup_start < 1.0);
       ++rep)
    for (std::size_t i = 0; i < ks.size(); ++i) generate(i);
  double setup_s = median(pool_s);
  for (const auto& g : gen_s) setup_s += median(g);

  // Warm-up pass at P=4 (checked, not timed).
  (void)r.run_pass(impl::delay, false);

  std::vector<metric> out;
  std::vector<pass> p4_plain, p4_traced, p1_on, p1_off;
  std::map<std::string, std::vector<double>> hand_s, hand_delay_s;
  double read_p1 = 0, read_p4 = 0;

  if (!c.trace) {
    for_budget(0.4 * c.seconds,
               [&] { p4_plain.push_back(r.run_pass(impl::delay, false)); });
    use_pool(1, cpus1);
    for_budget(0.6 * c.seconds,
               [&] { p1_on.push_back(r.run_pass(impl::delay, false)); });
  } else {
    // A/B pairs alternate which side runs first.
    bool flip = false;
    for_budget(0.5 * c.seconds, [&] {
      for (int side = 0; side < 2; ++side) {
        if ((side == 0) != flip)
          p4_plain.push_back(r.run_pass(impl::delay, true));
        else
          p4_traced.push_back(r.run_pass(impl::traced, false));
      }
      flip = !flip;
    });
    use_pool(1, cpus1);
    for_budget(0.5 * c.seconds, [&] {
      for (int side = 0; side < 2; ++side) {
        bool on = (side == 0) != flip;
        pbds::telemetry::scoped_metrics m(on);
        (on ? p1_on : p1_off).push_back(r.run_pass(impl::delay, false));
      }
      flip = !flip;
      for (std::size_t i = 0; i < ks.size(); ++i) {
        if (!ks[i]->has_hand()) continue;
        double t0 = now_s();
        ks[i]->run(impl::hand);
        hand_s[ks[i]->name()].push_back(now_s() - t0);
        ks[i]->drop_output();
        hand_delay_s[ks[i]->name()].push_back(p1_on.back().k[i].seconds);
      }
    });
  }

  std::vector<std::int64_t> input_bytes;
  for (auto& k : ks) input_bytes.push_back(k->input_bytes());

  if (c.trace) {
    // Bandwidth reference: a parallel read of a 4x-L3 array.
    for (auto& k : ks) k->release();
    std::size_t words =
        static_cast<std::size_t>(std::max<std::int64_t>(4 * l3, 1280000000)) /
        8;
    use_pool(p4, cpus4);
    auto a = pbds::parray<std::uint64_t>::tabulate(
        words, [](std::size_t i) { return i * 0x9e3779b97f4a7c15ull; });
    double bytes = static_cast<double>(words * 8);
    std::vector<double> t4, t1;
    (void)time_read(a);
    for (int rep = 0; rep < 5; ++rep) t4.push_back(time_read(a));
    use_pool(1, cpus1);
    for (int rep = 0; rep < 3; ++rep) t1.push_back(time_read(a));
    read_p4 = bytes / median(t4) / 1e9;
    read_p1 = bytes / median(t1) / 1e9;
  }

  double time_p4 = median_of(p4_plain, [](const pass& p) { return p.seconds; });
  double time_p1 = median_of(p1_on, [](const pass& p) { return p.seconds; });
  double total_input = 0;
  for (auto b : input_bytes) total_input += static_cast<double>(b);

  if (!c.trace) {
    out.push_back({"time_p4_s", time_p4, "s"});
    out.push_back({"time_p1_s", time_p1, "s"});
    out.push_back({"peak_mb", median_of(p4_plain, [](const pass& p) {
                     return p.sum(&kernel_sample::peak_mb);
                   }),
                   "MiB"});
    out.push_back({"alloc_mb", median_of(p4_plain, [](const pass& p) {
                     return p.sum(&kernel_sample::alloc_mb);
                   }),
                   "MiB"});
    out.push_back({"setup_s", setup_s, "s"});
    out.push_back({"ok_frac",
                   1.0 - static_cast<double>(r.failed) /
                             static_cast<double>(r.attempted),
                   "frac"});
  } else {
    // core: wall time owned by each operation, per traced pass.
    for (int o = 0; o < trace::kNumOps; ++o) {
      out.push_back({std::string("core.") + trace::kOpNames[o] + "_s",
                     median_of(p4_traced,
                               [o](const pass& p) {
                                 double s = 0;
                                 for (const auto& k : p.k) s += k.attr.op_s[o];
                                 return s;
                               }),
                     "s"});
    }
    out.push_back({"core.calls", median_of(p4_traced, [](const pass& p) {
                     return p.sum(&kernel_sample::calls);
                   }),
                   "count"});
    // stream
    double hand_ratio = 0;
    if (!hand_s.empty()) {
      double lib = 0, hand = 0;
      for (const auto& [name, xs] : hand_s) {
        hand += median(xs);
        lib += median(hand_delay_s[name]);
      }
      hand_ratio = lib / hand;
    }
    out.push_back({"stream.hand_ratio_p1", hand_ratio, "ratio"});
    double gbps = total_input / time_p4 / 1e9;
    out.push_back({"stream.gb_per_s_p4", gbps, "GB/s"});
    // memory
    out.push_back({"memory.bw_frac_p4", gbps / read_p4, "ratio"});
    out.push_back({"memory.read_gb_per_s_p4", read_p4, "GB/s"});
    out.push_back({"memory.read_gb_per_s_p1", read_p1, "GB/s"});
    out.push_back({"memory.allocs", median_of(p4_plain, [](const pass& p) {
                     return p.sum(&kernel_sample::allocs);
                   }),
                   "count"});
    // sched
    double steals = 0, failed_steals = 0;
    for (const auto& p : p4_plain) {
      steals += p.sum(&kernel_sample::steals);
      failed_steals += p.sum(&kernel_sample::failed_steals);
    }
    out.push_back({"sched.forks", median_of(p4_plain, [](const pass& p) {
                     return p.sum(&kernel_sample::forks);
                   }),
                   "count"});
    out.push_back({"sched.steals", median_of(p4_plain, [](const pass& p) {
                     return p.sum(&kernel_sample::steals);
                   }),
                   "count"});
    out.push_back({"sched.failed_steals", median_of(p4_plain, [](const pass& p) {
                     return p.sum(&kernel_sample::failed_steals);
                   }),
                   "count"});
    out.push_back({"sched.steal_success",
                   steals + failed_steals > 0
                       ? steals / (steals + failed_steals)
                       : 0,
                   "ratio"});
    out.push_back({"sched.efficiency_p4", time_p1 / (p4 * time_p4), "ratio"});
    // telemetry and trace overheads
    out.push_back({"telemetry.overhead_p1",
                   time_p1 / median_of(p1_off,
                                       [](const pass& p) { return p.seconds; }),
                   "ratio"});
    out.push_back({"trace.overhead",
                   median_of(p4_traced,
                             [](const pass& p) { return p.seconds; }) /
                       time_p4,
                   "ratio"});
    // Per kernel; kernels of other workloads read 0.
    for (const char* name : kAllKernels) {
      std::size_t i = 0;
      while (i < ks.size() && ks[i]->name() != name) ++i;
      bool here = i < ks.size();
      auto per = [&](const std::vector<pass>& ps, auto field) {
        return here ? median_of(ps, [&](const pass& p) { return field(p.k[i]); })
                    : 0.0;
      };
      std::string pre = std::string("kernel.") + name + ".";
      double d4 = per(p4_plain, [](const kernel_sample& s) { return s.seconds; });
      double dpeak =
          per(p4_plain, [](const kernel_sample& s) { return s.peak_mb; });
      out.push_back({pre + "p4_s", d4, "s"});
      out.push_back({pre + "p1_s",
                     per(p1_on, [](const kernel_sample& s) { return s.seconds; }),
                     "s"});
      out.push_back(
          {pre + "self_s",
           per(p4_traced, [](const kernel_sample& s) { return s.attr.self_s; }),
           "s"});
      out.push_back(
          {pre + "alloc_mb",
           per(p4_plain, [](const kernel_sample& s) { return s.alloc_mb; }),
           "MiB"});
      out.push_back({pre + "peak_mb", dpeak, "MiB"});
      std::string fpre = std::string("fusion.") + name + ".";
      double in_mb = here ? static_cast<double>(input_bytes[i]) / kMiB : 0;
      out.push_back({fpre + "array_over_delay_p4",
                     here ? comp[i].array_s / d4 : 0, "ratio"});
      out.push_back({fpre + "rad_over_delay_p4", here ? comp[i].rad_s / d4 : 0,
                     "ratio"});
      out.push_back({fpre + "space_array_over_delay",
                     here ? (in_mb + comp[i].array_peak / kMiB) /
                                (in_mb + dpeak)
                          : 0,
                     "ratio"});
    }
  }

  // Environment and sample record.
  std::printf("{\"perfbench\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"trace\": %d, \"nproc\": %ld, \"l3_bytes\": %lld, "
              "\"p4\": %u, \"p1\": 1, \"cpus_p4\": [",
              c.workload.c_str(), static_cast<unsigned long long>(c.seed),
              c.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
              static_cast<long long>(l3), p4);
  for (std::size_t i = 0; i < cpus4.size(); ++i)
    std::printf("%s%d", i ? ", " : "", cpus4[i]);
  std::printf("], \"cpus_p1\": [%d], \"setup_reps\": %zu, \"kernels\": [",
              cpus1[0], gen_s[0].size());
  for (std::size_t i = 0; i < ks.size(); ++i)
    std::printf("%s{\"name\": \"%s\", \"input_bytes\": %lld, "
                "\"below_4x_l3\": %s}",
                i ? ", " : "", ks[i]->name().c_str(),
                static_cast<long long>(input_bytes[i]),
                c.workload != "irregular" && input_bytes[i] < 4 * l3
                    ? "true"
                    : "false");
  std::printf("], \"kernel_median_s\": {");
  for (std::size_t i = 0; i < ks.size(); ++i) {
    auto med = [i](const std::vector<pass>& ps) {
      return median_of(ps, [i](const pass& p) { return p.k[i].seconds; });
    };
    std::printf("%s\"%s\": {\"p4\": %.6g, \"p1\": %.6g}", i ? ", " : "",
                ks[i]->name().c_str(), med(p4_plain), med(p1_on));
  }
  std::vector<double> t4, t1;
  for (const auto& p : p4_plain) t4.push_back(p.seconds);
  for (const auto& p : p1_on) t1.push_back(p.seconds);
  std::printf("}, \"pass_p4_s\": %s, \"pass_p1_s\": %s}}\n",
              samples_json(t4).c_str(), samples_json(t1).c_str());

  print_result(r.failed == 0, r.attempted, r.failed, out);
  return r.failed == 0 ? 0 : 1;
}
