// Delayed streams — the paper's Fig. 8 (`s.*` functions).
//
// A *stream* is a cheap, single-use, sequentially-iterable producer of
// elements. The concept required of a stream S here is:
//
//   typename S::value_type;
//   S::value_type S::next();     // called exactly `len` times by consumers
//
// Streams compose by *template nesting* (a map_stream physically contains
// its source stream), so a whole fused pipeline is one concrete type whose
// next() the compiler inlines end-to-end — this is the §4.4
// forward-iterator design, and it is why BID fusion costs no per-element
// function calls.
//
// Construction of every stream is O(1). Streams do not know their own
// length; the enclosing BID tracks block lengths and consumers take an
// explicit count (the paper's streams carry s.length; here the length
// lives one level up to keep stream objects to bare state).
//
// Streams are single-use: a BID's *block function* may be invoked many
// times (e.g. scan reads its input in phase 1 and again in phase 3), and
// each invocation manufactures a fresh stream, so block functions must be
// pure.
//
// --- bulk advance (next_n / drain_into) --------------------------------------
//
// On top of next(), streams may implement a *bulk* protocol:
//
//   void S::next_n(value_type* dst, std::size_t n);
//
// constructing exactly n elements into the uninitialized slots dst[0..n)
// and leaving the stream positioned so a later next()/next_n continues
// where the bulk call stopped. The payoff (cf. indexed/bulk iterator
// interfaces in stream-fusion work): contiguous sources lower to
// memcpy/uninitialized_copy per block, and stateful shapes (map, zip,
// scan) run tight raw-pointer loops over a small stack staging buffer
// instead of threading per-element state through `this`. Consumers go
// through the gated free functions stream::next_n / stream::drain_into,
// which fall back to an element-at-a-time loop whenever a stream has no
// native bulk path or bulk execution is disabled (below).
//
// Bulk paths batch the *evaluation order* of source elements within a
// block (e.g. zip pulls a chunk of its left side, then a chunk of its
// right). Block functions are pure by the BID contract, so the
// interleaving is unobservable — except through exceptions, which is why
// the gate forces the element-at-a-time fallback whenever the allocation
// fault injector is armed: the guarded construction paths attribute a
// mid-block throw to a single slot, and they must see the exact
// per-element evaluation order they were written for.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <iterator>
#include <memory>
#include <new>
#include <optional>
#include <type_traits>
#include <utility>

#include "core/env.hpp"
#include "memory/counting_allocator.hpp"
#include "memory/tracking.hpp"

namespace pbds::stream {

// --- bulk gate ---------------------------------------------------------------

namespace detail {
// Default on; PBDS_NO_BULK=1 disables for A/B runs and CI ablations.
inline bool& bulk_flag() {
  static bool enabled =
      pbds::detail::env_integer("PBDS_NO_BULK", 0, 1, 0) == 0;
  return enabled;
}
}  // namespace detail

// Re-read PBDS_NO_BULK from the current environment (not thread-safe;
// call only while no parallel work is in flight — the scoped_env
// contract in tests/differential.hpp).
inline void reload_bulk_from_env() {
  detail::bulk_flag() =
      pbds::detail::env_integer("PBDS_NO_BULK", 0, 1, 0) == 0;
}

// True when specialized bulk paths may run. The fault injector arms the
// exception-tolerance machinery, which requires per-element evaluation
// (see header comment), so arming it forces the generic fallback.
[[nodiscard]] inline bool bulk_enabled() {
  return detail::bulk_flag() && !memory::fault_injection_armed();
}

// RAII forcing of the element-at-a-time fallback; the differential
// fast-vs-generic oracle (tests/differential.hpp) runs every kernel under
// this guard and asserts results and bytes-accounting are identical.
// Not thread-safe to toggle while parallel work is in flight.
class scoped_bulk_disable {
 public:
  scoped_bulk_disable() : saved_(detail::bulk_flag()) {
    detail::bulk_flag() = false;
  }
  ~scoped_bulk_disable() { detail::bulk_flag() = saved_; }
  scoped_bulk_disable(const scoped_bulk_disable&) = delete;
  scoped_bulk_disable& operator=(const scoped_bulk_disable&) = delete;

 private:
  bool saved_;
};

// Streams with a native bulk path.
template <typename S>
concept bulk_source =
    requires(S& s, typename S::value_type* dst, std::size_t n) {
      s.next_n(dst, n);
    };

// Element types that may be staged through a raw stack buffer and batch-
// copied: trivially copyable implies no lifetime bookkeeping is needed.
template <typename T>
inline constexpr bool stageable_v = std::is_trivially_copyable_v<T>;

// Streams whose next_n is pure data *movement* (memcpy of contiguous
// memory or of materialized runs) rather than a staged recomputation.
// Consumers and adapters only profit from bulk-advancing these: staging a
// compute stream (tabulate/map/zip/scan) through a buffer adds a memory
// round-trip the fused element-at-a-time loop does not have, and measures
// up to 1.6x *slower* on reduce-heavy kernels. Producers opt in with
// `static constexpr bool direct_bulk = true;`.
template <typename S>
inline constexpr bool direct_bulk_v = requires {
  requires bool(S::direct_bulk);
};

// The subset of direct_bulk sources whose per-element next() carries real
// overhead that next_n removes (piece-bound checks in region walks, run
// materialization in flatten). Staging such a source through a stack
// buffer beats pulling it element-at-a-time, so adapters over it may
// advertise direct_bulk themselves, extending the staged path up the
// pipeline. pointer_stream is deliberately NOT in this set: its next() is
// already a raw load, so propagation through adapters would reintroduce
// the compute-staging slowdown on fused register loops.
template <typename S>
inline constexpr bool staging_wins_v = requires {
  requires bool(S::staging_profitable);
};

// --- stack staging buffer ----------------------------------------------------

// Fixed-size buffer of uninitialized T slots on the stack, not space-
// accounted; sized in bytes so a chunk always fits comfortably on the
// stack regardless of the configured block size. It destroys nothing:
// bulk paths stage only trivially copyable source elements in it
// (kStageBytes), and pack destroys the survivors it stages
// (kPackStageBytes).
inline constexpr std::size_t kStageBytes = 4096;

// Size of pack's survivor stage: the survivors of one input chunk. 32 KiB
// holds a default 2048-element block of elements up to 16 bytes, so such
// a block packs as one chunk.
inline constexpr std::size_t kPackStageBytes = 32768;

template <typename T, std::size_t Bytes = kStageBytes>
struct stage_buffer {
  static constexpr std::size_t capacity =
      Bytes / sizeof(T) == 0 ? 1 : Bytes / sizeof(T);

  alignas(T) unsigned char raw[capacity * sizeof(T)];

  [[nodiscard]] T* data() { return reinterpret_cast<T*>(raw); }
};

// --- producers / adapters (all O(1) to construct) -------------------------

// Elements f(i), f(i+1), ... — the stream form of tabulate (s.tabulate).
template <typename F>
struct tabulate_stream {
  using value_type =
      std::decay_t<std::invoke_result_t<F&, std::size_t>>;
  F f;
  std::size_t i;

  value_type next() { return f(i++); }

  // Linear indexing with the cursor in a register: for affine/pointer-
  // reading f this is the loop the vectorizer wants.
  void next_n(value_type* dst, std::size_t n) {
    std::size_t base = i;
    for (std::size_t k = 0; k < n; ++k)
      ::new (static_cast<void*>(dst + k)) value_type(f(base + k));
    i = base + n;
  }
};

template <typename F>
tabulate_stream(F, std::size_t) -> tabulate_stream<F>;

// Elements read from contiguous memory.
template <typename T>
struct pointer_stream {
  using value_type = T;
  static constexpr bool direct_bulk = true;
  const T* p;

  value_type next() { return *p++; }

  // The memcpy fast path: a block of a contiguous trivially-copyable
  // source materializes as one bulk copy.
  void next_n(T* dst, std::size_t n) {
    if constexpr (stageable_v<T>) {
      if (n > 0) std::memcpy(static_cast<void*>(dst), p, n * sizeof(T));
    } else {
      std::uninitialized_copy_n(p, n, dst);
    }
    p += n;
  }
};

// Contiguous sources admit consumer loops over the raw pointer itself —
// no staging copy at all.
template <typename S>
struct is_pointer_stream : std::false_type {};
template <typename T>
struct is_pointer_stream<pointer_stream<T>> : std::true_type {};
template <typename S>
inline constexpr bool is_pointer_stream_v = is_pointer_stream<S>::value;

// s.map
template <typename S, typename G>
struct map_stream {
  using value_type =
      std::decay_t<std::invoke_result_t<G&, typename S::value_type>>;
  // A map over a source that wins by staging wins by staging itself:
  // next_n runs the source's bulk path and applies g out of the stage
  // buffer, so consumers may in turn stage the map.
  static constexpr bool direct_bulk =
      bulk_source<S> && stageable_v<typename S::value_type> &&
      staging_wins_v<S>;
  static constexpr bool staging_profitable = direct_bulk;
  S s;
  G g;

  value_type next() { return g(s.next()); }

  void next_n(value_type* dst, std::size_t n) {
    using src_t = typename S::value_type;
    if constexpr (is_pointer_stream_v<S>) {
      // Contiguous source: map straight out of memory, no staging.
      const src_t* in = s.p;
      for (std::size_t k = 0; k < n; ++k)
        ::new (static_cast<void*>(dst + k)) value_type(g(in[k]));
      s.p += n;
    } else if constexpr (bulk_source<S> && stageable_v<src_t> &&
                         direct_bulk_v<S>) {
      // Data-movement source (region/flatten runs): stage chunks, then
      // map with a tight two-pointer loop.
      stage_buffer<src_t> buf;
      while (n > 0) {
        std::size_t c = n < buf.capacity ? n : buf.capacity;
        s.next_n(buf.data(), c);
        const src_t* in = buf.data();
        for (std::size_t k = 0; k < c; ++k)
          ::new (static_cast<void*>(dst + k)) value_type(g(in[k]));
        dst += c;
        n -= c;
      }
    } else {
      // Compute source: the fused per-element loop already keeps
      // everything in registers; staging would only add traffic.
      for (std::size_t k = 0; k < n; ++k)
        ::new (static_cast<void*>(dst + k)) value_type(g(s.next()));
    }
  }
};

template <typename S, typename G>
map_stream(S, G) -> map_stream<S, G>;

// s.zip
template <typename S1, typename S2>
struct zip_stream {
  using value_type =
      std::pair<typename S1::value_type, typename S2::value_type>;
  // A zip propagates the staged path only when at least one side actually
  // wins by staging (both must still be bulk-capable and stageable). A
  // zip of two pointer streams stays on the fused per-element loop —
  // staging it measured up to 1.3x slower on reduce-heavy kernels.
  static constexpr bool direct_bulk =
      bulk_source<S1> && bulk_source<S2> &&
      stageable_v<typename S1::value_type> &&
      stageable_v<typename S2::value_type> && direct_bulk_v<S1> &&
      direct_bulk_v<S2> &&
      (staging_wins_v<S1> || staging_wins_v<S2>);
  static constexpr bool staging_profitable = direct_bulk;
  S1 a;
  S2 b;

  value_type next() {
    auto x = a.next();  // sequence the two pulls deterministically
    auto y = b.next();
    return value_type(std::move(x), std::move(y));
  }

  void next_n(value_type* dst, std::size_t n) {
    using at = typename S1::value_type;
    using bt = typename S2::value_type;
    if constexpr (bulk_source<S1> && bulk_source<S2> && stageable_v<at> &&
                  stageable_v<bt> && direct_bulk_v<S1> &&
                  direct_bulk_v<S2>) {
      stage_buffer<at> abuf;
      stage_buffer<bt> bbuf;
      constexpr std::size_t cap =
          stage_buffer<at>::capacity < stage_buffer<bt>::capacity
              ? stage_buffer<at>::capacity
              : stage_buffer<bt>::capacity;
      while (n > 0) {
        std::size_t c = n < cap ? n : cap;
        a.next_n(abuf.data(), c);
        b.next_n(bbuf.data(), c);
        const at* pa = abuf.data();
        const bt* pb = bbuf.data();
        for (std::size_t k = 0; k < c; ++k)
          ::new (static_cast<void*>(dst + k)) value_type(pa[k], pb[k]);
        dst += c;
        n -= c;
      }
    } else {
      for (std::size_t k = 0; k < n; ++k) {
        auto x = a.next();
        auto y = b.next();
        ::new (static_cast<void*>(dst + k))
            value_type(std::move(x), std::move(y));
      }
    }
  }
};

template <typename S1, typename S2>
zip_stream(S1, S2) -> zip_stream<S1, S2>;

// s.scan — *exclusive* running fold: emits acc before folding in the next
// input element. Seeding acc with the block's prefix (phase 2 of the
// blocked scan) turns a per-block scan into a global one.
template <typename S, typename F>
struct scan_stream {
  using value_type = typename S::value_type;
  S s;
  F f;
  value_type acc;

  value_type next() {
    value_type out = acc;
    acc = f(acc, s.next());
    return out;
  }

  void next_n(value_type* dst, std::size_t n) {
    value_type a = std::move(acc);  // keep the accumulator in a register
    if constexpr (is_pointer_stream_v<S>) {
      const value_type* in = s.p;
      for (std::size_t k = 0; k < n; ++k) {
        ::new (static_cast<void*>(dst + k)) value_type(a);
        a = f(a, in[k]);
      }
      s.p += n;
    } else if constexpr (bulk_source<S> && stageable_v<value_type> &&
                         direct_bulk_v<S>) {
      stage_buffer<value_type> buf;
      while (n > 0) {
        std::size_t c = n < buf.capacity ? n : buf.capacity;
        s.next_n(buf.data(), c);
        const value_type* in = buf.data();
        for (std::size_t k = 0; k < c; ++k) {
          ::new (static_cast<void*>(dst + k)) value_type(a);
          a = f(a, in[k]);
        }
        dst += c;
        n -= c;
      }
    } else {
      for (std::size_t k = 0; k < n; ++k) {
        ::new (static_cast<void*>(dst + k)) value_type(a);
        a = f(a, s.next());
      }
    }
    acc = std::move(a);
  }
};

template <typename S, typename F, typename T>
scan_stream(S, F, T) -> scan_stream<S, F>;

// Inclusive variant: emits the fold *including* the current element.
template <typename S, typename F>
struct scan_inclusive_stream {
  using value_type = typename S::value_type;
  S s;
  F f;
  value_type acc;

  value_type next() {
    acc = f(acc, s.next());
    return acc;
  }

  void next_n(value_type* dst, std::size_t n) {
    value_type a = std::move(acc);
    if constexpr (is_pointer_stream_v<S>) {
      const value_type* in = s.p;
      for (std::size_t k = 0; k < n; ++k) {
        a = f(a, in[k]);
        ::new (static_cast<void*>(dst + k)) value_type(a);
      }
      s.p += n;
    } else if constexpr (bulk_source<S> && stageable_v<value_type> &&
                         direct_bulk_v<S>) {
      stage_buffer<value_type> buf;
      while (n > 0) {
        std::size_t c = n < buf.capacity ? n : buf.capacity;
        s.next_n(buf.data(), c);
        const value_type* in = buf.data();
        for (std::size_t k = 0; k < c; ++k) {
          a = f(a, in[k]);
          ::new (static_cast<void*>(dst + k)) value_type(a);
        }
        dst += c;
        n -= c;
      }
    } else {
      for (std::size_t k = 0; k < n; ++k) {
        a = f(a, s.next());
        ::new (static_cast<void*>(dst + k)) value_type(a);
      }
    }
    acc = std::move(a);
  }
};

template <typename S, typename F, typename T>
scan_inclusive_stream(S, F, T) -> scan_inclusive_stream<S, F>;

// --- gated bulk entry points -------------------------------------------------

// Construct exactly n elements of s into the uninitialized slots
// dst[0..n): the stream's native bulk path when it has one and the gate
// allows, the element-at-a-time fallback otherwise. The fallback IS the
// reference semantics — every native path must be observationally
// identical to it (the fast-vs-generic oracle enforces this).
template <typename S>
inline void next_n(S& s, typename S::value_type* dst, std::size_t n) {
  using T = typename S::value_type;
  if constexpr (bulk_source<S>) {
    if (bulk_enabled()) {
      s.next_n(dst, n);
      return;
    }
  }
  for (std::size_t k = 0; k < n; ++k)
    ::new (static_cast<void*>(dst + k)) T(s.next());
}

// Whole-block variant: streams do not know their length (it lives in the
// enclosing BID), so the caller passes the block length explicitly.
template <typename S>
inline void drain_into(S& s, typename S::value_type* dst, std::size_t len) {
  next_n(s, dst, len);
}

// --- consumers (linear work) ----------------------------------------------

// s.reduce: fold n elements with z as the leftmost operand. Bulk paths
// only fire for data-movement sources: a contiguous block folds straight
// over the raw pointer, a region/flatten block stages memcpy runs and
// folds over the buffer. Compute streams (tabulate/map/zip/scan) stay on
// the fused per-element loop, which is already register-resident.
template <typename S, typename F, typename T>
T reduce(S s, std::size_t n, const F& f, T z) {
  using src_t = typename S::value_type;
  if constexpr (is_pointer_stream_v<S>) {
    if (bulk_enabled()) {
      const src_t* in = s.p;
      for (std::size_t k = 0; k < n; ++k) z = f(z, in[k]);
      return z;
    }
  } else if constexpr (bulk_source<S> && stageable_v<src_t> &&
                       direct_bulk_v<S>) {
    if (bulk_enabled()) {
      stage_buffer<src_t> buf;
      while (n > 0) {
        std::size_t c = n < buf.capacity ? n : buf.capacity;
        s.next_n(buf.data(), c);
        const src_t* in = buf.data();
        for (std::size_t k = 0; k < c; ++k) z = f(z, in[k]);
        n -= c;
      }
      return z;
    }
  }
  for (std::size_t k = 0; k < n; ++k) z = f(z, s.next());
  return z;
}

// s.applyStream: run g on each of the n elements, for effect. Same
// gating as reduce: fast paths are for data movement only.
template <typename S, typename G>
void apply(S s, std::size_t n, const G& g) {
  using src_t = typename S::value_type;
  if constexpr (is_pointer_stream_v<S>) {
    if (bulk_enabled()) {
      const src_t* in = s.p;
      for (std::size_t k = 0; k < n; ++k) g(in[k]);
      return;
    }
  } else if constexpr (bulk_source<S> && stageable_v<src_t> &&
                       direct_bulk_v<S>) {
    if (bulk_enabled()) {
      stage_buffer<src_t> buf;
      while (n > 0) {
        std::size_t c = n < buf.capacity ? n : buf.capacity;
        s.next_n(buf.data(), c);
        const src_t* in = buf.data();
        for (std::size_t k = 0; k < c; ++k) g(in[k]);
        n -= c;
      }
      return;
    }
  }
  for (std::size_t k = 0; k < n; ++k) g(s.next());
}

// --- pack (s.packToArray) -------------------------------------------------

namespace detail {

// Destroys the staged survivors [first, last) when the chunk ends, also
// on unwind; they are moved-from by then unless something threw.
template <typename U>
struct staged_range {
  U* first;
  U*& last;
  ~staged_range() { std::destroy(first, last); }
};

// The one pack loop (filter and filter_op in A, R and Ours). The block is
// consumed in chunks of at most the stage's capacity: keep(x, dst)
// constructs x's survivor at dst and returns true, or returns false, and
// each chunk's survivors are then moved to the end of out. A block that
// fits one chunk therefore allocates once, exactly its survivor count,
// and a block with no survivors not at all; later chunks grow out at
// least geometrically. The stream and the write cursor stay locals of
// the loop. Source access follows reduce: raw pointer reads for a
// contiguous block, staged input runs for a data-movement source, next()
// otherwise and whenever the bulk gate is off. keep sees the elements in
// the same order, once each, and out makes the same allocations on every
// path (the fast-vs-generic oracle checks both).
template <typename S, typename U, typename Keep>
void pack_into(S s, std::size_t n, const Keep& keep,
               memory::tracked_vector<U>& out) {
  using T = typename S::value_type;
  stage_buffer<U, kPackStageBytes> stage;
  U* const first = stage.data();
  [[maybe_unused]] const bool bulk = bulk_enabled();
  while (n > 0) {
    const std::size_t c = n < stage.capacity ? n : stage.capacity;
    U* cur = first;
    staged_range<U> staged{first, cur};
    bool pulled = false;
    if constexpr (is_pointer_stream_v<S>) {
      if (bulk) {
        const T* in = s.p;
        for (std::size_t k = 0; k < c; ++k)
          if (keep(in[k], cur)) ++cur;
        s.p += c;
        pulled = true;
      }
    } else if constexpr (bulk_source<S> && stageable_v<T> &&
                         direct_bulk_v<S>) {
      if (bulk) {
        stage_buffer<T> buf;
        for (std::size_t left = c; left > 0;) {
          std::size_t r = left < buf.capacity ? left : buf.capacity;
          s.next_n(buf.data(), r);
          const T* in = buf.data();
          for (std::size_t k = 0; k < r; ++k)
            if (keep(in[k], cur)) ++cur;
          left -= r;
        }
        pulled = true;
      }
    }
    if (!pulled)
      for (std::size_t k = 0; k < c; ++k)
        if (keep(s.next(), cur)) ++cur;
    if (cur != first) {
      const auto kept = static_cast<std::size_t>(cur - first);
      if (out.capacity() - out.size() < kept)
        out.reserve(out.empty() ? kept
                                : std::max(out.size() + kept,
                                           2 * out.size()));
      out.insert(out.end(), std::make_move_iterator(first),
                 std::make_move_iterator(cur));
    }
    n -= c;
  }
}

}  // namespace detail

// s.packToArray: append the elements of s that satisfy p to out.
template <typename S, typename P>
void pack(S s, std::size_t n, const P& p,
          memory::tracked_vector<typename S::value_type>& out) {
  using T = typename S::value_type;
  detail::pack_into(
      std::move(s), n,
      [&p](auto&& x, T* dst) {
        if (!p(x)) return false;
        ::new (static_cast<void*>(dst)) T(std::forward<decltype(x)>(x));
        return true;
      },
      out);
}

// packToArray for filterOp / mapMaybe: f returns std::optional<U>; append
// the engaged values to out. f runs exactly once per element (filter_op's
// predicates may be effectful — BFS's compare-and-swap).
template <typename S, typename F, typename U>
void pack_op(S s, std::size_t n, const F& f,
             memory::tracked_vector<U>& out) {
  detail::pack_into(
      std::move(s), n,
      [&f](auto&& x, U* dst) {
        auto r = f(std::forward<decltype(x)>(x));
        if (!r) return false;
        ::new (static_cast<void*>(dst)) U(std::move(*r));
        return true;
      },
      out);
}

}  // namespace pbds::stream
