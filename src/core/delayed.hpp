// Block-delayed sequences — the paper's contribution (Figs. 9 & 10).
//
// The `delay` (Ours) library of the evaluation: RAD + BID fusion. A
// pipeline like
//
//     reduce(h, z, map(g, scan(f, z, map(q, view(a))).first))
//
// evaluates with two passes over `a` and O(#blocks) intermediate space: the
// first map fuses into phase 1 of the scan, and phase 3 of the scan fuses
// through the second map into the reduce (Fig. 5). No compiler support is
// needed: RAD composition is function composition and BID composition is
// template-nested streams, both of which GCC inlines at -O3 (§4.4).
//
// Conventions, mirroring Fig. 10:
//  * every operation accepts a RAD, a BID, or a parray (auto-viewed);
//  * index and block functions must be pure — scan re-reads its input in
//    phases 1 and 3, which is the deliberate recompute-vs-force tradeoff
//    the cost semantics (§5) exposes;
//  * materialized intermediates (scan partials, filter's packed blocks,
//    flatten's forced inner sequences, and the offsets of both) are held
//    by shared_ptr inside the returned BID's block function, so delayed
//    sequences are self-contained values.
#pragma once

#include <cassert>
#include <cstddef>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>

#include "array/array_ops.hpp"
#include "array/parray.hpp"
#include "core/bid.hpp"
#include "core/block.hpp"
#include "core/blocked.hpp"
#include "core/rad.hpp"
#include "core/region.hpp"
#include "memory/counting_allocator.hpp"
#include "memory/tracking.hpp"
#include "sched/parallel.hpp"
#include "stream/streams.hpp"

namespace pbds::delayed {

// --- sequence adaptation ----------------------------------------------------

// Lift a parray into a non-owning RAD view; pass delayed sequences through.
template <typename T>
[[nodiscard]] auto as_seq(const parray<T>& a) {
  return rad_view(a);
}
template <typename F>
[[nodiscard]] auto as_seq(rad_t<F> r) {
  return r;
}
template <typename B>
[[nodiscard]] auto as_seq(bid_t<B> b) {
  return b;
}

template <typename T>
[[nodiscard]] auto view(const parray<T>& a) {
  return rad_view(a);
}

template <typename Seq>
[[nodiscard]] std::size_t length(const Seq& s) {
  return s.size();
}

// --- fully delayed constructors (O(1) work) ---------------------------------

template <typename F>
[[nodiscard]] auto tabulate(std::size_t n, F f) {
  return rad_tabulate(n, std::move(f));
}

[[nodiscard]] inline auto iota(std::size_t n) { return rad_iota(n); }

// --- BIDfromSeq (Fig. 9 lines 1-4) -------------------------------------------

// A BID is returned unchanged; a RAD is blockified by reindexing: block j
// is the stream <f(i + j*B), ..., f(i + j*B + len-1)>.
template <typename B>
[[nodiscard]] auto bid_of(bid_t<B> s) {
  return s;
}

template <typename F>
[[nodiscard]] auto bid_of(const rad_t<F>& s) {
  std::size_t blk = block_size();
  if constexpr (contiguous_index_fn<F>) {
    // Contiguous RAD (rad_view / rad_shared): block j reads straight from
    // memory, so downstream bulk consumers hit the memcpy fast path. The
    // functor is captured by value, so a shared-owning view keeps its
    // array alive for as long as the BID exists.
    auto block_fn = [f = s.f, off = s.offset, blk](std::size_t j) {
      return stream::pointer_stream<typename rad_t<F>::value_type>{
          f.contiguous_data() + off + j * blk};
    };
    return make_bid(s.n, blk, std::move(block_fn));
  } else {
    auto block_fn = [f = s.f, off = s.offset, blk](std::size_t j) {
      return stream::tabulate_stream<F>{f, off + j * blk};
    };
    return make_bid(s.n, blk, std::move(block_fn));
  }
}

template <typename T>
[[nodiscard]] auto bid_of(const parray<T>& a) {
  return bid_of(as_seq(a));
}

// --- map (Fig. 10 lines 20-21) -----------------------------------------------

// O(1): composes the index function (RAD) or wraps every block stream in a
// map_stream (BID).
template <typename G, typename F>
[[nodiscard]] auto map(G g, const rad_t<F>& s) {
  auto composed = [g = std::move(g), f = s.f](std::size_t i) {
    return g(f(i));
  };
  return rad_t<decltype(composed)>{s.offset, s.n, std::move(composed)};
}

template <typename G, typename B>
[[nodiscard]] auto map(G g, const bid_t<B>& s) {
  auto block_fn = [g = std::move(g), b = s.b](std::size_t j) {
    return stream::map_stream{b(j), g};
  };
  return make_bid(s.n, s.block_size, std::move(block_fn));
}

template <typename G, typename T>
[[nodiscard]] auto map(G g, const parray<T>& a) {
  return map(std::move(g), as_seq(a));
}

// --- zip (Fig. 10 lines 22-27) -----------------------------------------------

// RAD x RAD stays RAD; if either side is a BID, both sides are blockified
// and zipped stream-wise. Lengths must match so blocks align.
template <typename F, typename G>
[[nodiscard]] auto zip(const rad_t<F>& a, const rad_t<G>& b) {
  assert(a.n == b.n);
  auto paired = [fa = a.f, ia = a.offset, fb = b.f,
                 ib = b.offset](std::size_t k) {
    return std::pair<typename rad_t<F>::value_type,
                     typename rad_t<G>::value_type>(fa(ia + k), fb(ib + k));
  };
  return rad_t<decltype(paired)>{0, a.n, std::move(paired)};
}

template <typename S1, typename S2>
[[nodiscard]] auto zip(const S1& s1, const S2& s2) {
  auto a = bid_of(as_seq(s1));
  auto b = bid_of(as_seq(s2));
  assert(a.n == b.n);
  assert(a.block_size == b.block_size);
  auto block_fn = [ba = a.b, bb = b.b](std::size_t j) {
    return stream::zip_stream{ba(j), bb(j)};
  };
  return make_bid(a.n, a.block_size, std::move(block_fn));
}

// --- terminal traversals -----------------------------------------------------

// applySeq (Fig. 9 lines 5-8): run g on every element, in parallel across
// blocks, streaming within each block.
template <typename Seq, typename G>
void apply_each(const Seq& s, const G& g) {
  auto bd = bid_of(as_seq(s));
  apply(bd.num_blocks(), [&](std::size_t j) {
    stream::apply(bd.block(j), bd.block_length(j), g);
  });
}

// toArray (Fig. 9 lines 9-14): materialize into a fresh array, through
// the one blocked construction loop (blocked::fill_blocks).
template <typename Seq>
[[nodiscard]] auto to_array(const Seq& s) {
  return blocked::materialize(bid_of(as_seq(s)));
}

// force (Fig. 9 line 16): evaluate everything now; the result is a RAD
// backed by (shared ownership of) a real array. Use to avoid re-evaluating
// a delayed sequence consumed more than once.
template <typename Seq>
[[nodiscard]] auto force(const Seq& s) {
  using T = typename std::decay_t<decltype(as_seq(s))>::value_type;
  auto arr = std::make_shared<parray<T>>(to_array(s));
  return rad_shared(std::move(arr));
}

// --- reduce, fold and scan (Fig. 10 lines 28-40) ----------------------------
//
// The blocked skeleton A and R run too (core/blocked.hpp), on the BID of
// the input, so the input fuses into phase 1.

// reduce: phase 1 eagerly folds each block; phase 2 folds the partials.
template <typename F, typename T, typename Seq>
[[nodiscard]] T reduce(const F& f, T z, const Seq& s) {
  return blocked::reduce_blocks(bid_of(as_seq(s)), f, z);
}

// fold: reduce with an accumulator type T that may differ from the
// element type (see blocked::fold); blocking, the empty and one-block
// cases and the nb-partials allocation are reduce's.
template <typename Step, typename C, typename T, typename Seq>
[[nodiscard]] T fold(const Step& step, const C& combine, T z,
                     const Seq& s) {
  return blocked::fold_blocks(bid_of(as_seq(s)), step, combine, z);
}

// scan — the showpiece: phases 1-2 are eager but touch only O(#blocks)
// memory beyond re-reading the (fused) input; phase 3 is delayed.
// Exclusive scan; returns (sequence, total).
template <typename F, typename T, typename Seq>
[[nodiscard]] auto scan(const F& f, T z, const Seq& s) {
  return blocked::scan_blocks<stream::scan_stream>(bid_of(as_seq(s)), f, z,
                                                   std::identity{});
}

// Inclusive variant (out[i] includes element i).
template <typename F, typename T, typename Seq>
[[nodiscard]] auto scan_inclusive(const F& f, T z, const Seq& s) {
  return blocked::scan_blocks<stream::scan_inclusive_stream>(
      bid_of(as_seq(s)), f, z, std::identity{});
}

// --- filter / filterOp (Fig. 10 lines 48-53) -----------------------------------

namespace detail {
// The result of filter, filter_op and flatten: ragged pieces (packed
// blocks or forced inner sequences) and their offsets, the exclusive
// scan-plus of the piece sizes, as a BID of blk-sized blocks walking the
// pieces via getRegion.
template <typename Piece>
[[nodiscard]] auto region_of(parray<Piece> pieces, std::size_t blk) {
  auto owned = std::make_shared<parray<Piece>>(std::move(pieces));
  auto [offsets, m] = array_ops::size_offsets(
      owned->size(), [&](std::size_t k) { return (*owned)[k].size(); });
  return region_bid(std::move(owned),
                    std::make_shared<parray<std::size_t>>(std::move(offsets)),
                    m, blk);
}
}  // namespace detail

// Pack survivors within each block (eager, fused with the input), then
// expose the ragged packed blocks as a BID via getRegion — the survivors
// are *never* copied into one contiguous array unless the consumer forces.
template <typename P, typename Seq>
[[nodiscard]] auto filter(const P& p, const Seq& s) {
  auto bd = bid_of(as_seq(s));
  return detail::region_of(
      blocked::pack_blocks<typename decltype(bd)::value_type>(
          bd,
          [&p](auto st, std::size_t len, auto& out) {
            stream::pack(std::move(st), len, p, out);
          }),
      bd.block_size);
}

// filterOp / mapMaybe: f : T -> optional<U>; keeps and unwraps the engaged
// results. Implemented directly (not as map-then-filter) so effectful
// predicates — BFS's compare-and-swap tryVisit (Fig. 6) — run exactly once
// per element.
template <typename F, typename Seq>
[[nodiscard]] auto filter_op(const F& f, const Seq& s) {
  auto bd = bid_of(as_seq(s));
  using T = typename decltype(bd)::value_type;
  using U = typename std::invoke_result_t<const F&, T>::value_type;
  return detail::region_of(
      blocked::pack_blocks<U>(bd,
                              [&f](auto st, std::size_t len, auto& out) {
                                stream::pack_op(std::move(st), len, f, out);
                              }),
      bd.block_size);
}

// --- flatten (Fig. 10 lines 44-47) ---------------------------------------------

// Force the outer sequence to an array of random-access inner sequences,
// scan the lengths for offsets, and expose the concatenation as a BID
// walking the inner sequences via getRegion (Fig. 3), as filter does.
// Eager work is proportional to the *outer* length only; the per-block
// binary searches and all element evaluation are delayed. The result
// holds the inners and their offsets, not the outer sequence.
template <typename Seq>
[[nodiscard]] auto flatten(const Seq& s) {
  auto outer = as_seq(s);
  using inner_type = typename decltype(outer)::value_type;
  if constexpr (is_bid_v<inner_type>) {
    // Inner sequences must be random-access (Fig. 10 line 45 forces them).
    return flatten(map([](const inner_type& b) { return force(b); }, outer));
  } else {
    return detail::region_of(to_array(outer), block_size());
  }
}

// --- derived constructors and slices --------------------------------------------

// One-element sequence.
template <typename T>
[[nodiscard]] auto singleton(T x) {
  return rad_tabulate(1, [x = std::move(x)](std::size_t) { return x; });
}

// Pair each element with its index: <(0, x0), (1, x1), ...>.
template <typename Seq>
[[nodiscard]] auto enumerate(const Seq& s) {
  auto inner = as_seq(s);
  return zip(iota(inner.size()), inner);
}

// First min(k, |s|) elements. O(1) for both representations: a BID keeps
// its block function and truncates the length — block boundaries are
// unchanged, and the (now partial) last block is simply consumed for fewer
// elements.
template <typename F>
[[nodiscard]] auto take(const rad_t<F>& s, std::size_t k) {
  return rad_t<F>{s.offset, k < s.n ? k : s.n, s.f};
}
template <typename B>
[[nodiscard]] auto take(const bid_t<B>& s, std::size_t k) {
  return bid_t<B>{k < s.n ? k : s.n, s.block_size, s.b};
}
template <typename T>
[[nodiscard]] auto take(const parray<T>& a, std::size_t k) {
  return take(as_seq(a), k);
}

// All but the first min(k, |s|) elements. O(1) for RADs (an offset shift).
// For BIDs a drop would misalign every block boundary, so the sequence is
// forced first — the cost semantics makes this an explicit O(n) choice
// rather than a silent one.
template <typename F>
[[nodiscard]] auto drop(const rad_t<F>& s, std::size_t k) {
  std::size_t d = k < s.n ? k : s.n;
  return rad_t<F>{s.offset + d, s.n - d, s.f};
}
template <typename B>
[[nodiscard]] auto drop(const bid_t<B>& s, std::size_t k) {
  return drop(force(s), k);
}
template <typename T>
[[nodiscard]] auto drop(const parray<T>& a, std::size_t k) {
  return drop(as_seq(a), k);
}

// Reversed view; O(1), RAD only (reversal is inherently random-access).
template <typename F>
[[nodiscard]] auto reverse(const rad_t<F>& s) {
  auto rev = [f = s.f, off = s.offset, n = s.n](std::size_t i) {
    return f(off + (n - 1 - i));
  };
  return rad_t<decltype(rev)>{0, s.n, std::move(rev)};
}
template <typename T>
[[nodiscard]] auto reverse(const parray<T>& a) {
  return reverse(as_seq(a));
}

// Concatenation of two RADs; O(1), with one branch per element access.
// (For bulk concatenation of many or blocked sequences, use flatten.)
template <typename F, typename G>
[[nodiscard]] auto append(const rad_t<F>& a, const rad_t<G>& b) {
  static_assert(std::is_same_v<typename rad_t<F>::value_type,
                               typename rad_t<G>::value_type>,
                "append requires equal element types");
  auto pick = [fa = a.f, ia = a.offset, na = a.n, fb = b.f,
               ib = b.offset](std::size_t i) {
    return i < na ? fa(ia + i) : fb(ib + (i - na));
  };
  return rad_t<decltype(pick)>{0, a.n + b.n, std::move(pick)};
}

// --- conveniences built on the core ops ----------------------------------------

template <typename Seq>
[[nodiscard]] auto sum(const Seq& s) {
  using T = typename std::decay_t<decltype(as_seq(s))>::value_type;
  return reduce([](T a, T b) { return a + b; }, T{}, s);
}

template <typename P, typename Seq>
[[nodiscard]] std::size_t count_if(const P& p, const Seq& s) {
  return reduce([](std::size_t a, std::size_t b) { return a + b; },
                std::size_t{0},
                map([p](const auto& x) -> std::size_t { return p(x) ? 1 : 0; },
                    as_seq(s)));
}

template <typename P, typename Seq>
[[nodiscard]] bool all_of(const P& p, const Seq& s) {
  return count_if(p, s) == length(as_seq(s));
}

template <typename P, typename Seq>
[[nodiscard]] bool any_of(const P& p, const Seq& s) {
  return count_if(p, s) > 0;
}

// Minimum / maximum element value. Undefined on empty sequences (asserted).
template <typename Seq>
[[nodiscard]] auto min_value(const Seq& s) {
  auto inner = as_seq(s);
  using T = typename decltype(inner)::value_type;
  assert(inner.size() > 0);
  // Seed with element 0 via take/drop-free trick: fold with a flagged
  // accumulator would cost a branch per element; instead use the first
  // element as identity, which is valid because min is idempotent.
  T first = [&] {
    auto bd = bid_of(inner);
    auto st = bd.block(0);
    return st.next();
  }();
  return reduce([](T a, T b) { return b < a ? b : a; }, first, inner);
}

template <typename Seq>
[[nodiscard]] auto max_value(const Seq& s) {
  auto inner = as_seq(s);
  using T = typename decltype(inner)::value_type;
  assert(inner.size() > 0);
  T first = [&] {
    auto bd = bid_of(inner);
    auto st = bd.block(0);
    return st.next();
  }();
  return reduce([](T a, T b) { return a < b ? b : a; }, first, inner);
}

}  // namespace pbds::delayed
