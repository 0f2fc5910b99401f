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
// --- bulk advance (next_n) and the element loop ----------------------------
//
// On top of next(), streams may implement a *bulk* protocol:
//
//   void S::next_n(value_type* dst, std::size_t n);
//
// constructing exactly n elements into the uninitialized slots dst[0..n)
// and leaving the stream positioned so a later next()/next_n continues
// where the bulk call stopped. The payoff (cf. indexed/bulk iterator
// interfaces in stream-fusion work): contiguous sources lower to
// memcpy/uninitialized_copy per block, and materialized runs (region
// streams) copy run by run instead of re-checking piece bounds per
// element. Code that materializes blocks goes through the gated free
// function stream::next_n, which falls back to an element-at-a-time loop
// whenever a stream has no native bulk path or bulk execution is disabled
// (below).
//
// Everything that reads a stream element by element — the consumers
// reduce, apply and pack, and the next_n of map and of the two scans —
// runs one loop, detail::each: raw pointer reads for a contiguous source,
// staged runs for a data-movement source, next() otherwise and whenever
// the gate is off. Only its two fast-path branches read the gate.
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

#include "memory/counting_allocator.hpp"
#include "memory/tracking.hpp"

namespace pbds::stream {

// --- bulk gate ---------------------------------------------------------------

namespace detail {
// On unless a scoped_bulk_disable is live. A plain global, so reading the
// gate is one load: an environment-initialized function-local static here
// made loops that read it spill their accumulators to the stack.
inline bool g_bulk_enabled = true;
}  // namespace detail

// True when specialized bulk paths may run. The fault injector arms the
// exception-tolerance machinery, which requires per-element evaluation
// (see header comment), so arming it forces the generic fallback.
[[nodiscard]] inline bool bulk_enabled() {
  return detail::g_bulk_enabled && !memory::fault_injection_armed();
}

// RAII forcing of the element-at-a-time fallback; the differential
// fast-vs-generic oracle (tests/differential.hpp) runs every kernel under
// this guard and asserts results and bytes-accounting are identical.
// Not thread-safe to toggle while parallel work is in flight.
class scoped_bulk_disable {
 public:
  scoped_bulk_disable() : saved_(detail::g_bulk_enabled) {
    detail::g_bulk_enabled = false;
  }
  ~scoped_bulk_disable() { detail::g_bulk_enabled = saved_; }
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

// Data-movement sources whose per-element next() carries real overhead
// that next_n removes (piece-bound checks in region walks). Staging such
// a source through a stack buffer beats pulling it element-at-a-time, so
// adapters over it may declare the trait themselves, extending the staged
// path up the pipeline. Producers opt in with
// `static constexpr bool staging_profitable = true;`. pointer_stream is
// deliberately NOT in this set: its next() is already a raw load, so
// propagation through adapters would reintroduce the compute-staging
// slowdown on fused register loops (direct_bulk_v, below).
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

// Streams whose next_n is pure data *movement* (memcpy of contiguous
// memory or of materialized runs) rather than a staged recomputation.
// Consumers and adapters only profit from bulk-advancing these: staging a
// compute stream (tabulate/map/zip/scan) through a buffer adds a memory
// round-trip the fused element-at-a-time loop does not have, and measures
// up to 1.6x *slower* on reduce-heavy kernels.
template <typename S>
inline constexpr bool direct_bulk_v =
    is_pointer_stream_v<S> || staging_wins_v<S>;

namespace detail {

// The one element loop: for the next n elements x of s, in order,
// a = step(a, x); returns the final a and leaves s positioned after those
// elements. The loop-carried state travels by value (an accumulator, a
// write cursor) so it stays in registers; a consumer with no state passes
// a dummy. A contiguous block is read straight from memory and a
// data-movement source in staged runs of kStageBytes; a compute source
// (tabulate/map/zip/scan) is pulled with next(), the fused per-element
// loop that already keeps everything in registers, and so is every
// source while the gate is off. Only the two fast paths read the gate.
template <typename S, typename A, typename Step>
A each(S& s, std::size_t n, A a, const Step& step) {
  using T = typename S::value_type;
  if constexpr (is_pointer_stream_v<S>) {
    if (bulk_enabled()) {
      const T* in = s.p;
      for (std::size_t k = 0; k < n; ++k) a = step(a, in[k]);
      s.p += n;
      return a;
    }
  } else if constexpr (bulk_source<S> && stageable_v<T> &&
                       direct_bulk_v<S>) {
    if (bulk_enabled()) {
      stage_buffer<T> buf;
      while (n > 0) {
        std::size_t c = n < buf.capacity ? n : buf.capacity;
        s.next_n(buf.data(), c);
        const T* in = buf.data();
        for (std::size_t k = 0; k < c; ++k) a = step(a, in[k]);
        n -= c;
      }
      return a;
    }
  }
  for (std::size_t k = 0; k < n; ++k) a = step(a, s.next());
  return a;
}

}  // namespace detail

// s.map
template <typename S, typename G>
struct map_stream {
  using value_type =
      std::decay_t<std::invoke_result_t<G&, typename S::value_type>>;
  // A map over a source that wins by staging wins by staging itself:
  // next_n runs the source's bulk path and applies g out of the stage
  // buffer, so consumers may in turn stage the map.
  static constexpr bool staging_profitable =
      bulk_source<S> && stageable_v<typename S::value_type> &&
      staging_wins_v<S>;
  S s;
  G g;

  value_type next() { return g(s.next()); }

  void next_n(value_type* dst, std::size_t n) {
    detail::each(s, n, dst, [this](value_type* d, auto&& x) {
      ::new (static_cast<void*>(d))
          value_type(g(std::forward<decltype(x)>(x)));
      return d + 1;
    });
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
  static constexpr bool staging_profitable =
      bulk_source<S1> && bulk_source<S2> &&
      stageable_v<typename S1::value_type> &&
      stageable_v<typename S2::value_type> && direct_bulk_v<S1> &&
      direct_bulk_v<S2> &&
      (staging_wins_v<S1> || staging_wins_v<S2>);
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
    // The accumulator travels through the loop by value, in a register.
    acc = detail::each(s, n, std::move(acc),
                       [&dst, this](const value_type& a, auto&& x) {
                         ::new (static_cast<void*>(dst++)) value_type(a);
                         return f(a, std::forward<decltype(x)>(x));
                       });
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
    acc = detail::each(s, n, std::move(acc),
                       [&dst, this](const value_type& a, auto&& x) {
                         value_type b = f(a, std::forward<decltype(x)>(x));
                         ::new (static_cast<void*>(dst++)) value_type(b);
                         return b;
                       });
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

// --- consumers (linear work) ----------------------------------------------

// s.reduce: fold n elements with z as the leftmost operand, as the value
// chain z = f(z, x).
template <typename S, typename F, typename T>
T reduce(S s, std::size_t n, const F& f, T z) {
  return detail::each(s, n, std::move(z), [&f](const T& a, auto&& x) {
    return f(a, std::forward<decltype(x)>(x));
  });
}

// s.applyStream: run g on each of the n elements, for effect.
template <typename S, typename G>
void apply(S s, std::size_t n, const G& g) {
  detail::each(s, n, 0, [&g](int, auto&& x) {
    g(std::forward<decltype(x)>(x));
    return 0;
  });
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

// The one pack loop (filter and filter_op in A, R and Ours, through
// blocked::pack_blocks). The block is consumed in chunks of at most the
// stage's capacity: keep(x, dst) constructs x's survivor at dst and
// returns true, or returns false, and each chunk's survivors are then
// moved to the end of out. The cursor advances by keep's result, so a
// keep for a trivially destructible U may also construct every candidate
// at dst and return whether it survives: an unkept one is overwritten by
// the next and needs no destructor. A block that fits one chunk therefore
// allocates once, exactly its survivor count, and a block with no
// survivors not at all; later chunks grow out at least geometrically.
// The stream and the write cursor stay locals of the loop. Each chunk is
// read through the element loop, so keep sees the elements in the same
// order, once each, and out makes the same allocations on every path
// (the fast-vs-generic oracle checks both).
template <typename S, typename U, typename Keep>
void pack_into(S s, std::size_t n, const Keep& keep,
               memory::tracked_vector<U>& out) {
  stage_buffer<U, kPackStageBytes> stage;
  U* const first = stage.data();
  while (n > 0) {
    const std::size_t c = n < stage.capacity ? n : stage.capacity;
    U* cur = first;
    staged_range<U> staged{first, cur};
    // cur stays a variable the unwinder sees (staged_range), not loop
    // state.
    each(s, c, 0, [&keep, &cur](int, auto&& x) {
      cur += keep(std::forward<decltype(x)>(x), cur);
      return 0;
    });
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

// s.packToArray: append the elements of s that satisfy p to out. An
// element type with a trivial copy and a trivial destructor packs without
// a branch on p, which is a coin flip when about half the elements
// survive (quickhull's splits): every candidate is copied into the stage
// and the cursor advances by p's result. Other types are constructed only
// when p keeps them.
template <typename S, typename P>
void pack(S s, std::size_t n, const P& p,
          memory::tracked_vector<typename S::value_type>& out) {
  using T = typename S::value_type;
  if constexpr (std::is_trivially_copy_constructible_v<T> &&
                std::is_trivially_destructible_v<T>) {
    detail::pack_into(
        std::move(s), n,
        [&p](const T& x, T* dst) {
          const bool keep = static_cast<bool>(p(x));
          ::new (static_cast<void*>(dst)) T(x);
          return keep;
        },
        out);
  } else {
    detail::pack_into(
        std::move(s), n,
        [&p](auto&& x, T* dst) {
          if (!p(x)) return false;
          ::new (static_cast<void*>(dst)) T(std::forward<decltype(x)>(x));
          return true;
        },
        out);
  }
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
