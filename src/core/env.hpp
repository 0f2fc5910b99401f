// Strict environment-variable parsing, shared by every PBDS_* knob.
//
// PBDS_NUM_THREADS, PBDS_WATCHDOG_MS, PBDS_BUDGET_BYTES and the other
// integer knobs all follow the same contract: a knob is either a
// full-string integer inside its documented range, or it is *ignored* with
// a single warning on stderr — a malformed value must never silently
// misconfigure the pool, the watchdog, or the budget. This header is the
// one implementation of that contract (it used to be hand-rolled
// strtol+range-check+warn-once at each call site).
#pragma once

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#if __has_include(<unistd.h>)
#include <unistd.h>  // environ
#endif

namespace pbds::detail {

// True the first time `name` is passed, false afterwards: each knob warns
// about a malformed value once per process, not once per read.
inline bool first_warning_for(const char* name) {
  static std::mutex m;
  static std::vector<std::string> warned;
  std::lock_guard<std::mutex> lock(m);
  for (const auto& w : warned)
    if (w == name) return false;
  warned.emplace_back(name);
  return true;
}

// Read environment integer `name`. Returns `fallback` when the variable is
// unset; returns the parsed value when it is a full-string integer in
// [lo, hi]; otherwise warns once on stderr and returns `fallback`.
inline long long env_integer(const char* name, long long lo, long long hi,
                             long long fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  long long v = std::strtoll(env, &end, 10);
  if (end != env && *end == '\0' && errno != ERANGE && v >= lo && v <= hi) {
    return v;
  }
  if (first_warning_for(name)) {
    std::fprintf(stderr,
                 "pbds: ignoring malformed %s='%s' (expected an integer in "
                 "[%lld, %lld]); using %lld\n",
                 name, env, lo, hi, fallback);
  }
  return fallback;
}

// The authoritative PBDS_* knob table — every knob any layer reads. The
// consolidated table in docs/TESTING.md mirrors this list; a new knob is
// added in both places or the unknown-variable warning below flags it
// (tests/check_knobs.py checks the two against each other and the code).
inline constexpr const char* kKnownEnvKnobs[] = {
    "PBDS_NUM_THREADS",
    "PBDS_SEED",
    "PBDS_BUDGET_BYTES",
    "PBDS_WATCHDOG_MS",
    "PBDS_METRICS",
    "PBDS_TRACE_FILE",
    "PBDS_TRACE_CAP",
};

// Warn once per process about PBDS_-prefixed environment variables that
// match no knob in the table: a typo'd knob (PBDS_WATCHDOG_SM) must not
// silently no-op. Called at scheduler init — early enough to precede any
// knob-dependent behavior the user meant to configure, late enough that
// tests mutating the environment before first pool touch are seen.
inline void warn_unknown_pbds_env() {
#if __has_include(<unistd.h>)
  if (environ == nullptr) return;
  for (char** e = environ; *e != nullptr; ++e) {
    const char* kv = *e;
    if (std::strncmp(kv, "PBDS_", 5) != 0) continue;
    const char* eq = std::strchr(kv, '=');
    std::string name = eq ? std::string(kv, static_cast<std::size_t>(eq - kv))
                          : std::string(kv);
    bool known = false;
    for (const char* k : kKnownEnvKnobs) {
      if (name == k) {
        known = true;
        break;
      }
    }
    if (!known && first_warning_for(name.c_str())) {
      std::fprintf(stderr,
                   "pbds: unrecognized environment variable %s is not a "
                   "known PBDS_* knob and has no effect (see the knob "
                   "table in docs/TESTING.md)\n",
                   name.c_str());
    }
  }
#endif
}

}  // namespace pbds::detail
