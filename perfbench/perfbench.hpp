// perfbench — the repository benchmark. Shared pieces: the kernel interface
// the workload files implement, output digests for the correctness check,
// and traced_policy, which times every terminal or eager delay_policy call
// from outside the library.
#pragma once

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "benchmarks/policies.hpp"

namespace perfbench {

// --- output digests -----------------------------------------------------------
//
// Bit-exact summary of a kernel's output: scalars are stored as their bit
// patterns, arrays as their length plus an order-dependent 64-bit hash of
// every element's bits. Two digests are equal exactly when the outputs are
// (up to hash collisions of whole arrays).
using digest = std::vector<std::uint64_t>;

template <typename T>
std::uint64_t bits_of(const T& v) {
  if constexpr (std::is_floating_point_v<T>)
    return std::bit_cast<std::uint64_t>(static_cast<double>(v));
  else
    return static_cast<std::uint64_t>(v);
}

inline std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h = (std::rotl(h, 23) ^ v) * 0x9e3779b97f4a7c15ull;
  return h ^ (h >> 29);
}

template <typename Seq, typename Bits>
void put_array(digest& d, const Seq& xs, Bits bits) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  std::size_t n = 0;
  for (const auto& x : xs) {
    h = mix(h, bits(x));
    ++n;
  }
  d.push_back(n);
  d.push_back(h);
}

// --- kernels --------------------------------------------------------------------

// Which implementation of a kernel to run: the delay policy (what users
// call), the same under traced_policy, the two comparator libraries, or a
// hand-written loop.
enum class impl { delay, traced, array, rad, hand };

class kernel {
 public:
  virtual ~kernel() = default;
  [[nodiscard]] virtual const std::string& name() const = 0;
  // Build the input from `seed`, replacing (and first freeing) any previous
  // one. Runs on the current pool.
  virtual void generate(std::uint64_t seed) = 0;
  // Free the input and any kept output.
  virtual void release() = 0;
  [[nodiscard]] virtual std::int64_t input_bytes() const = 0;
  [[nodiscard]] virtual bool has_hand() const = 0;
  // Run once and keep the output for output_digest(); the previous output
  // is freed first, outside the caller's timed region.
  virtual void run(impl which) = 0;
  // Digest of the last output; frees it.
  virtual digest output_digest() = 0;
  // Free the kept output without digesting it.
  virtual void drop_output() = 0;
};

using kernel_list = std::vector<std::unique_ptr<kernel>>;

// --- traced policy ------------------------------------------------------------
//
// Every call through traced_policy records a span: its operation, start and
// end. Only calls that are outermost on their thread are timed; nested ones
// (spmv's per-row reduce inside its outer to_array, say) are only counted.
// A call a worker makes inside another thread's call still gets a span;
// attribute() resolves that overlap.
namespace trace {

enum op : int { scan, filter, flatten, reduce, to_array, kNumOps };
inline constexpr const char* kOpNames[kNumOps] = {"scan", "filter", "flatten",
                                                  "reduce", "to_array"};

struct span {
  std::int64_t t0, t1;
  int op;
};

struct thread_log {
  std::vector<span> spans;
  std::uint64_t calls = 0;
  int depth = 0;
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace detail {
inline std::mutex& logs_mutex() {
  static std::mutex m;
  return m;
}
// Logs outlive their threads: the pool is rebuilt when P changes.
inline std::vector<std::unique_ptr<thread_log>>& logs() {
  static std::vector<std::unique_ptr<thread_log>> l;
  return l;
}
}  // namespace detail

inline thread_log& local_log() {
  thread_local thread_log* log = [] {
    std::lock_guard<std::mutex> lock(detail::logs_mutex());
    detail::logs().push_back(std::make_unique<thread_log>());
    return detail::logs().back().get();
  }();
  return *log;
}

class call {
 public:
  explicit call(op o) : log_(local_log()), op_(o) {
    ++log_.calls;
    if (log_.depth++ == 0) t0_ = now_ns();
  }
  ~call() {
    if (--log_.depth == 0) log_.spans.push_back({t0_, now_ns(), op_});
  }
  call(const call&) = delete;
  call& operator=(const call&) = delete;

 private:
  thread_log& log_;
  int op_;
  std::int64_t t0_ = 0;
};

// Everything recorded since the last drain, from every thread. Call only
// between parallel regions (after sched::quiesce()).
struct drained {
  std::vector<span> spans;
  std::uint64_t calls = 0;
};

inline drained drain() {
  drained out;
  std::lock_guard<std::mutex> lock(detail::logs_mutex());
  for (auto& log : detail::logs()) {
    out.spans.insert(out.spans.end(), log->spans.begin(), log->spans.end());
    out.calls += log->calls;
    log->spans.clear();
    log->calls = 0;
  }
  return out;
}

// Split the wall time [k0, k1) of one kernel run between the operations
// and the kernel's own code. At each instant the earliest-started active
// span owns the time, so fused work nested inside an outer call counts
// once, for the outer call. self_s is what no span covers.
struct attribution {
  double op_s[kNumOps] = {};
  double self_s = 0;
};

inline attribution attribute(std::vector<span> spans, std::int64_t k0,
                             std::int64_t k1) {
  std::sort(spans.begin(), spans.end(),
            [](const span& a, const span& b) { return a.t0 < b.t0; });
  attribution a;
  // A span that ends before the latest end seen so far lies inside the
  // span that set it; the survivors have increasing starts and ends, so
  // each owns the stretch from the previous survivor's end to its own.
  std::int64_t end = k0;
  std::int64_t covered = 0;
  for (const span& s : spans) {
    if (s.t1 <= end) continue;
    std::int64_t from = std::max(s.t0, end);
    a.op_s[s.op] += static_cast<double>(s.t1 - from) * 1e-9;
    covered += s.t1 - from;
    end = s.t1;
  }
  a.self_s = static_cast<double>(k1 - k0 - covered) * 1e-9;
  return a;
}

}  // namespace trace

template <typename Base>
struct traced_policy : Base {
  template <typename F, typename T, typename Seq>
  static T reduce(F f, T z, const Seq& s) {
    trace::call c(trace::reduce);
    return Base::reduce(std::move(f), std::move(z), s);
  }
  template <typename F, typename T, typename Seq>
  static auto scan(F f, T z, const Seq& s) {
    trace::call c(trace::scan);
    return Base::scan(std::move(f), std::move(z), s);
  }
  template <typename F, typename T, typename Seq>
  static auto scan_inclusive(F f, T z, const Seq& s) {
    trace::call c(trace::scan);
    return Base::scan_inclusive(std::move(f), std::move(z), s);
  }
  template <typename Pred, typename Seq>
  static auto filter(Pred p, const Seq& s) {
    trace::call c(trace::filter);
    return Base::filter(std::move(p), s);
  }
  template <typename F, typename Seq>
  static auto filter_op(F f, const Seq& s) {
    trace::call c(trace::filter);
    return Base::filter_op(std::move(f), s);
  }
  template <typename Seq>
  static auto flatten(const Seq& s) {
    trace::call c(trace::flatten);
    return Base::flatten(s);
  }
  template <typename Seq>
  static auto to_array(Seq&& s) {
    trace::call c(trace::to_array);
    return Base::to_array(std::forward<Seq>(s));
  }
};

// --- the generic kernel -----------------------------------------------------------
//
// Gen:    (seed) -> Input
// Bytes:  (const Input&) -> input bytes
// Run:    []<typename P>(const Input&) -> Output, written once over the policy
// Digest: (const Input&, const Output&) -> digest
// Hand:   (const Input&) -> Output, or std::nullptr_t for none
template <typename Gen, typename Bytes, typename Run, typename Digest,
          typename Hand = std::nullptr_t>
class kernel_impl final : public kernel {
  using input_t = std::invoke_result_t<Gen, std::uint64_t>;
  using output_t = decltype(std::declval<const Run&>()
                                .template operator()<pbds::delay_policy>(
                                    std::declval<const input_t&>()));

 public:
  kernel_impl(std::string name, Gen gen, Bytes bytes, Run run, Digest dig,
              Hand hand = nullptr)
      : name_(std::move(name)),
        gen_(std::move(gen)),
        bytes_(std::move(bytes)),
        run_(std::move(run)),
        digest_(std::move(dig)),
        hand_(std::move(hand)) {}

  [[nodiscard]] const std::string& name() const override { return name_; }

  void generate(std::uint64_t seed) override {
    release();
    in_.emplace(gen_(seed));
  }

  void release() override {
    out_.reset();
    in_.reset();
  }

  [[nodiscard]] std::int64_t input_bytes() const override {
    return static_cast<std::int64_t>(bytes_(*in_));
  }

  [[nodiscard]] bool has_hand() const override {
    return !std::is_same_v<Hand, std::nullptr_t>;
  }

  void run(impl which) override {
    out_.reset();
    const input_t& in = *in_;
    switch (which) {
      case impl::delay:
        out_.emplace(run_.template operator()<pbds::delay_policy>(in));
        break;
      case impl::traced:
        out_.emplace(
            run_.template operator()<traced_policy<pbds::delay_policy>>(in));
        break;
      case impl::array:
        out_.emplace(run_.template operator()<pbds::array_policy>(in));
        break;
      case impl::rad:
        out_.emplace(run_.template operator()<pbds::rad_policy>(in));
        break;
      case impl::hand:
        if constexpr (!std::is_same_v<Hand, std::nullptr_t>)
          out_.emplace(hand_(in));
        break;
    }
  }

  digest output_digest() override {
    digest d = out_ ? digest_(*in_, *out_) : digest{};
    out_.reset();
    return d;
  }

  void drop_output() override { out_.reset(); }

 private:
  std::string name_;
  Gen gen_;
  Bytes bytes_;
  Run run_;
  Digest digest_;
  Hand hand_;
  std::optional<input_t> in_;
  std::optional<output_t> out_;
};

template <typename Gen, typename Bytes, typename Run, typename Digest,
          typename Hand = std::nullptr_t>
std::unique_ptr<kernel> make_kernel(std::string name, Gen gen, Bytes bytes,
                                    Run run, Digest dig, Hand hand = nullptr) {
  return std::make_unique<kernel_impl<Gen, Bytes, Run, Digest, Hand>>(
      std::move(name), std::move(gen), std::move(bytes), std::move(run),
      std::move(dig), std::move(hand));
}

// Per-kernel seed derived from the run's seed.
inline std::uint64_t kernel_seed(std::uint64_t seed, std::uint64_t index) {
  return mix(mix(0x243f6a8885a308d3ull, seed), index + 1);
}

// The three workloads. Each returns its kernels in pass order, sized so
// they take roughly equal shares of a pass at P=4.
kernel_list make_rad_stream();
kernel_list make_bid_pipeline();
kernel_list make_irregular();

}  // namespace perfbench
