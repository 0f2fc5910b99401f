// Trace timeline: bounded per-thread ring buffers of timestamped spans,
// flushed on demand to Chrome-trace JSON (DESIGN.md §8).
//
// Load `chrome://tracing` (or https://ui.perfetto.dev) and open the file
// PBDS_TRACE_FILE points at to see what the runtime actually did: one
// track per recording thread, "X" (complete) events for spans — region /
// job / block — and "i" (instant) events for point happenings
// such as deterministic-scheduler fork/steal decisions.
// Because the deterministic scheduler emits into the same rings, a
// replayed (seed, nth) failure produces a viewable timeline of the
// failure, not just a trace hash.
//
// Design constraints, in order:
//   * zero cost when off: one relaxed load per record call, nothing
//     persisted, no allocation (rings allocate lazily on a thread's FIRST
//     recorded event only);
//   * bounded: each thread's ring holds PBDS_TRACE_CAP events (default
//     4096); on overflow the oldest events are overwritten and a dropped
//     counter is kept — a long run cannot OOM the tracer;
//   * lock-free recording: a thread writes only its own ring; the only
//     shared write is the one-time ring-slot assignment.
//
// flush_trace() is the only synchronization point: call it while the
// process is quiescent (end of run / after a failure replay). Event names
// must be string literals (or otherwise immortal) — the ring stores the
// pointer, not a copy.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/env.hpp"

namespace pbds::telemetry {

enum class trace_kind : std::uint8_t {
  region,
  job,
  block,
  sched,  // scheduler decisions (det fork/steal, deadline expiries)
};

[[nodiscard]] inline const char* trace_kind_name(trace_kind k) {
  static constexpr const char* kNames[] = {"region", "job", "block",
                                           "sched"};
  return kNames[static_cast<std::size_t>(k)];
}

namespace detail {

struct trace_event {
  const char* name;      // immortal string
  std::uint64_t ts_ns;   // since trace epoch
  std::uint64_t dur_ns;  // 0 for instants
  std::int64_t arg;
  trace_kind kind;
  char ph;  // 'X' complete span, 'i' instant
};

inline constexpr std::size_t kMaxTraceThreads = 64;

struct trace_ring {
  std::vector<trace_event> events;  // sized on first record
  std::atomic<std::uint64_t> head{0};
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<bool> in_use{false};
};

struct trace_state {
  trace_ring rings[kMaxTraceThreads];
  std::atomic<unsigned> next_ring{0};
  // -1 = unset (consult env), 0 = off, 1 = on.
  std::atomic<int> enabled{-1};
  std::atomic<std::int64_t> cap{-1};
};

inline trace_state& tstate() {
  static trace_state s;
  return s;
}

inline std::uint64_t trace_now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

inline std::size_t trace_cap() {
  std::int64_t c = tstate().cap.load(std::memory_order_relaxed);
  if (c < 0) {
    c = pbds::detail::env_integer("PBDS_TRACE_CAP", 16, 1 << 22, 4096);
    tstate().cap.store(c, std::memory_order_relaxed);
  }
  return static_cast<std::size_t>(c);
}

inline trace_ring& ring_of_thread() {
  thread_local trace_ring* r = [] {
    auto& s = tstate();
    unsigned idx = s.next_ring.fetch_add(1, std::memory_order_relaxed) %
                   kMaxTraceThreads;
    return &s.rings[idx];
  }();
  if (r->events.empty()) {
    r->events.resize(trace_cap());
    r->in_use.store(true, std::memory_order_release);
  }
  return *r;
}

inline void push_event(const char* name, trace_kind kind, char ph,
                       std::uint64_t ts_ns, std::uint64_t dur_ns,
                       std::int64_t arg) {
  auto& r = ring_of_thread();
  std::uint64_t h = r.head.fetch_add(1, std::memory_order_relaxed);
  if (h >= r.events.size())
    r.dropped.fetch_add(1, std::memory_order_relaxed);
  r.events[h % r.events.size()] = {name, ts_ns, dur_ns, arg, kind, ph};
}

}  // namespace detail

// True when spans/instants are being recorded. Defaults to "is
// PBDS_TRACE_FILE set"; overridable via scoped_trace below.
[[nodiscard]] inline bool trace_enabled() {
  auto& s = detail::tstate();
  int v = s.enabled.load(std::memory_order_relaxed);
  if (v >= 0) return v != 0;
  const char* f = std::getenv("PBDS_TRACE_FILE");
  v = (f != nullptr && *f != '\0') ? 1 : 0;
  s.enabled.store(v, std::memory_order_relaxed);
  return v != 0;
}

// Forget cached PBDS_TRACE_FILE / PBDS_TRACE_CAP decisions (scoped_env).
// Already-sized rings keep their capacity; a changed cap applies to
// threads that record their first event afterwards.
inline void reload_trace_from_env() {
  detail::tstate().enabled.store(-1, std::memory_order_relaxed);
  detail::tstate().cap.store(-1, std::memory_order_relaxed);
}

// RAII tracing override for tests and failure replays that want a
// timeline without exporting PBDS_TRACE_FILE.
class scoped_trace {
 public:
  explicit scoped_trace(bool on)
      : saved_(detail::tstate().enabled.load(std::memory_order_relaxed)) {
    detail::tstate().enabled.store(on ? 1 : 0, std::memory_order_relaxed);
  }
  ~scoped_trace() {
    detail::tstate().enabled.store(saved_, std::memory_order_relaxed);
  }
  scoped_trace(const scoped_trace&) = delete;
  scoped_trace& operator=(const scoped_trace&) = delete;

 private:
  int saved_;
};

// Record an instant ("i") event.
inline void trace_instant(trace_kind kind, const char* name,
                          std::int64_t arg = 0) {
  if (!trace_enabled()) return;
  detail::push_event(name, kind, 'i', detail::trace_now_ns(), 0, arg);
}

// RAII span: times construction..destruction, records one complete ("X")
// event on destruction. Cheap enough to leave in hot-ish paths — when
// tracing is off the constructor is one relaxed load.
class trace_span {
 public:
  trace_span(trace_kind kind, const char* name, std::int64_t arg = 0)
      : kind_(kind), name_(name), arg_(arg),
        armed_(trace_enabled()),
        start_ns_(armed_ ? detail::trace_now_ns() : 0) {}

  ~trace_span() {
    if (!armed_) return;
    std::uint64_t end = detail::trace_now_ns();
    detail::push_event(name_, kind_, 'X', start_ns_,
                       end - start_ns_, arg_);
  }

  trace_span(const trace_span&) = delete;
  trace_span& operator=(const trace_span&) = delete;

 private:
  trace_kind kind_;
  const char* name_;
  std::int64_t arg_;
  bool armed_;
  std::uint64_t start_ns_;
};

// Total events overwritten after their ring filled (diagnostic: a large
// value means raise PBDS_TRACE_CAP).
[[nodiscard]] inline std::uint64_t trace_dropped() {
  std::uint64_t d = 0;
  for (auto& r : detail::tstate().rings)
    d += r.dropped.load(std::memory_order_relaxed);
  return d;
}

// Flush every ring to `path` as Chrome-trace JSON ("JSON Object Format":
// displayTimeUnit + traceEvents with pid/tid/ts/ph). Returns the number
// of events written, or 0 on I/O failure (a diagnostics path must not
// throw). Written tmp+rename so a crash mid-flush never leaves a torn
// file. Call while quiescent; racing recorders can tear an in-place
// overwrite of a wrapped slot (documented, detectable as garbage dur).
inline std::size_t flush_trace(const char* path) {
  auto& s = detail::tstate();
  std::string tmp = std::string(path) + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return 0;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
  std::size_t written = 0;
  for (std::size_t tid = 0; tid < detail::kMaxTraceThreads; ++tid) {
    auto& r = s.rings[tid];
    if (!r.in_use.load(std::memory_order_acquire)) continue;
    std::uint64_t head = r.head.load(std::memory_order_relaxed);
    std::uint64_t n = head < r.events.size() ? head : r.events.size();
    for (std::uint64_t i = 0; i < n; ++i) {
      const auto& e = r.events[i];
      if (e.name == nullptr) continue;
      // ts/dur in microseconds, as chrome://tracing expects.
      double ts_us = static_cast<double>(e.ts_ns) / 1000.0;
      double dur_us = static_cast<double>(e.dur_ns) / 1000.0;
      if (written != 0) std::fputc(',', f);
      if (e.ph == 'X') {
        std::fprintf(f,
                     "\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                     "\"pid\":1,\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"arg\":%lld}}",
                     e.name, trace_kind_name(e.kind), tid, ts_us, dur_us,
                     static_cast<long long>(e.arg));
      } else {
        std::fprintf(f,
                     "\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\","
                     "\"s\":\"t\",\"pid\":1,\"tid\":%zu,\"ts\":%.3f,"
                     "\"args\":{\"arg\":%lld}}",
                     e.name, trace_kind_name(e.kind), tid, ts_us,
                     static_cast<long long>(e.arg));
      }
      ++written;
    }
  }
  std::fputs("\n]}\n", f);
  bool ok = std::fflush(f) == 0;
  ok = (std::fclose(f) == 0) && ok;
  if (!ok || std::rename(tmp.c_str(), path) != 0) {
    std::remove(tmp.c_str());
    return 0;
  }
  return written;
}

// Flush to PBDS_TRACE_FILE if it is set; returns events written (0 when
// unset). pbdsbench calls this at end of run.
inline std::size_t flush_trace_from_env() {
  const char* f = std::getenv("PBDS_TRACE_FILE");
  if (f == nullptr || *f == '\0') return 0;
  return flush_trace(f);
}

}  // namespace pbds::telemetry
