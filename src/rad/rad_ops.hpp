// RAD-only library — the `rad` (R) baseline of the evaluation (Fig. 12):
// "extends A with RAD fusion (for tabulate, map, reduce, etc.)".
//
// tabulate / map / zip are delayed exactly as in the full library (index
// fusion à la Repa), and reduce consumes a RAD without materializing it.
// The difference from the full library is the *absence of BIDs*: scan,
// filter, filter_op and flatten still fuse their inputs (they read through
// the RAD's index function), but their **outputs are materialized arrays**
// — an O(n) allocation and an O(n) write pass that block-delayed sequences
// avoid. Comparing `delay` against this baseline isolates the benefit of
// the BID representation (§6.1).
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <optional>
#include <utility>

#include "array/array_ops.hpp"
#include "array/parray.hpp"
#include "core/block.hpp"
#include "core/delayed.hpp"
#include "core/rad.hpp"
#include "memory/counting_allocator.hpp"
#include "sched/parallel.hpp"
#include "stream/streams.hpp"

namespace pbds::radlib {

// --- adaptation -------------------------------------------------------------

template <typename T>
[[nodiscard]] auto as_seq(const parray<T>& a) {
  return rad_view(a);
}
template <typename F>
[[nodiscard]] auto as_seq(rad_t<F> r) {
  return r;
}

template <typename T>
[[nodiscard]] auto view(const parray<T>& a) {
  return rad_view(a);
}

template <typename Seq>
[[nodiscard]] std::size_t length(const Seq& s) {
  return s.size();
}

// --- delayed ops (same index fusion as the full library) ---------------------

template <typename F>
[[nodiscard]] auto tabulate(std::size_t n, F f) {
  return rad_tabulate(n, std::move(f));
}

[[nodiscard]] inline auto iota(std::size_t n) { return rad_iota(n); }

template <typename G, typename Seq>
[[nodiscard]] auto map(G g, const Seq& s) {
  auto r = as_seq(s);
  auto composed = [g = std::move(g), f = r.f](std::size_t i) {
    return g(f(i));
  };
  return rad_t<decltype(composed)>{r.offset, r.n, std::move(composed)};
}

template <typename S1, typename S2>
[[nodiscard]] auto zip(const S1& s1, const S2& s2) {
  auto a = as_seq(s1);
  auto b = as_seq(s2);
  assert(a.n == b.n);
  auto paired = [fa = a.f, ia = a.offset, fb = b.f,
                 ib = b.offset](std::size_t k) {
    return std::pair<typename decltype(a)::value_type,
                     typename decltype(b)::value_type>(fa(ia + k),
                                                       fb(ib + k));
  };
  return rad_t<decltype(paired)>{0, a.n, std::move(paired)};
}

// --- materializing ops --------------------------------------------------------

// toArray: evaluate the index function across uniform blocks. Already
// materialized arrays pass through by move (or deep-copy if borrowed).
template <typename T>
[[nodiscard]] parray<T> to_array(parray<T>&& a) {
  return std::move(a);
}
template <typename T>
[[nodiscard]] parray<T> to_array(const parray<T>& a) {
  return a.clone();
}
template <typename Seq>
[[nodiscard]] auto to_array(const Seq& s) {
  auto r = as_seq(s);
  using T = typename decltype(r)::value_type;
  using index_fn = typename decltype(r)::index_fn_type;
  // Bulk fast path: for trivially-destructible elements with the fault
  // injector disarmed, parray::tabulate would run its unguarded loop
  // anyway, so materialize blockwise through the stream bulk protocol
  // instead — a contiguous RAD (view/force result) lowers to one memcpy
  // per block, and composed map/zip index functions run a raw-pointer
  // tabulate loop. Semantics match the unguarded tabulate exactly.
  if constexpr (std::is_nothrow_default_constructible_v<T> &&
                std::is_trivially_destructible_v<T>) {
    // Budget-active runs keep the tabulate route for its retry ladder.
    if (stream::bulk_enabled() && !memory::budget_active()) {
      auto out = parray<T>::uninitialized(r.n);
      T* q = out.data();
      std::size_t blk = block_size();
      std::size_t nb = num_blocks_for(r.n, blk);
      std::size_t n = r.n;
      apply(nb, [&, q](std::size_t j) {
        std::size_t lo = j * blk;
        std::size_t len = (lo + blk < n ? lo + blk : n) - lo;
        if constexpr (contiguous_index_fn<index_fn>) {
          stream::pointer_stream<T> st{r.f.contiguous_data() + r.offset +
                                       lo};
          st.next_n(q + lo, len);
        } else {
          stream::tabulate_stream st{
              [&r](std::size_t i) -> T { return r[i]; }, lo};
          st.next_n(q + lo, len);
        }
      });
      return out;
    }
  }
  // Route through tabulate so materialization inherits its exception
  // tolerance: an injected or real bad_alloc (or a throwing index
  // function) is captured per slot, never unwinds through a fork, and is
  // rethrown leak-free on the calling thread (see parray::tabulate and
  // DESIGN.md §"Failure semantics").
  return parray<T>::tabulate(r.n, [&r](std::size_t i) -> T { return r[i]; });
}

// force: materialize, hand back an array-backed RAD.
template <typename Seq>
[[nodiscard]] auto force(const Seq& s) {
  using T = typename std::decay_t<decltype(as_seq(s))>::value_type;
  auto arr = std::make_shared<parray<T>>(to_array(s));
  return rad_shared(std::move(arr));
}

// reduce and fold: the full library's, on the blocks the full library's
// bid_of reads the RAD through (as filter below), so the input is fused
// and blocked exactly as in A and Ours, and never materialized.
template <typename F, typename T, typename Seq>
[[nodiscard]] T reduce(const F& f, T z, const Seq& s) {
  return delayed::reduce(f, std::move(z), delayed::bid_of(as_seq(s)));
}

template <typename Step, typename C, typename T, typename Seq>
[[nodiscard]] T fold(const Step& step, const C& combine, T z,
                     const Seq& s) {
  return delayed::fold(step, combine, std::move(z),
                       delayed::bid_of(as_seq(s)));
}

// scan: three-phase blocked; input fused, output MATERIALIZED (no BID).
// Returns (array-backed RAD, total).
template <typename F, typename T, typename Seq>
[[nodiscard]] auto scan(const F& f, T z, const Seq& s) {
  auto r = as_seq(s);
  std::size_t n = r.n;
  std::size_t blk = block_size();
  std::size_t nb = num_blocks_for(n, blk);
  auto sums = parray<T>::tabulate(
      nb,
      [&](std::size_t j) {
        std::size_t lo = j * blk;
        std::size_t hi = lo + blk < n ? lo + blk : n;
        T acc = z;
        for (std::size_t i = lo; i < hi; ++i) acc = f(acc, r[i]);
        return acc;
      },
      1);
  auto partials = parray<T>::uninitialized(nb);
  T acc = z;
  for (std::size_t j = 0; j < nb; ++j) {
    ::new (partials.data() + j) T(acc);
    acc = f(acc, sums[j]);
  }
  auto out = std::make_shared<parray<T>>(parray<T>::uninitialized(n));
  T* q = out->data();
  apply(nb, [&, q](std::size_t j) {
    std::size_t lo = j * blk;
    std::size_t hi = lo + blk < n ? lo + blk : n;
    T a2 = partials[j];
    for (std::size_t i = lo; i < hi; ++i) {
      ::new (q + i) T(a2);
      a2 = f(a2, r[i]);
    }
  });
  return std::pair(rad_shared(std::move(out)), acc);
}

template <typename F, typename T, typename Seq>
[[nodiscard]] auto scan_inclusive(const F& f, T z, const Seq& s) {
  auto r = as_seq(s);
  std::size_t n = r.n;
  std::size_t blk = block_size();
  std::size_t nb = num_blocks_for(n, blk);
  auto sums = parray<T>::tabulate(
      nb,
      [&](std::size_t j) {
        std::size_t lo = j * blk;
        std::size_t hi = lo + blk < n ? lo + blk : n;
        T acc = z;
        for (std::size_t i = lo; i < hi; ++i) acc = f(acc, r[i]);
        return acc;
      },
      1);
  auto partials = parray<T>::uninitialized(nb);
  T acc = z;
  for (std::size_t j = 0; j < nb; ++j) {
    ::new (partials.data() + j) T(acc);
    acc = f(acc, sums[j]);
  }
  auto out = std::make_shared<parray<T>>(parray<T>::uninitialized(n));
  T* q = out->data();
  apply(nb, [&, q](std::size_t j) {
    std::size_t lo = j * blk;
    std::size_t hi = lo + blk < n ? lo + blk : n;
    T a2 = partials[j];
    for (std::size_t i = lo; i < hi; ++i) {
      a2 = f(a2, r[i]);
      ::new (q + i) T(a2);
    }
  });
  return std::pair(rad_shared(std::move(out)), acc);
}

namespace detail {
// Copy ragged packed pieces into one contiguous array (the R versions of
// filter/flatten must return materialized random-access results — that is
// precisely the O(n) write pass BIDs avoid).
template <typename Pieces>
[[nodiscard]] auto concat_eager(const Pieces& pieces) {
  auto [offsets, m] = array_ops::size_offsets(
      pieces.size(), [&](std::size_t k) { return pieces[k].size(); });
  return array_ops::detail::concat_pieces(pieces, offsets, m);
}
}  // namespace detail

// filter: blocked pack (input fused: each block is the stream the full
// library's bid_of reads the RAD through) + eager concatenation of
// survivors.
template <typename P, typename Seq>
[[nodiscard]] auto filter(const P& p, const Seq& s) {
  auto bd = delayed::bid_of(as_seq(s));
  using buffer = memory::tracked_vector<typename decltype(bd)::value_type>;
  auto packed = parray<buffer>::tabulate(
      bd.num_blocks(),
      [&](std::size_t j) {
        buffer out;
        stream::pack(bd.block(j), bd.block_length(j), p, out);
        return out;
      },
      1);
  return detail::concat_eager(packed);
}

template <typename F, typename Seq>
[[nodiscard]] auto filter_op(const F& f, const Seq& s) {
  auto bd = delayed::bid_of(as_seq(s));
  using T = typename decltype(bd)::value_type;
  using U = typename std::invoke_result_t<const F&, T>::value_type;
  using buffer = memory::tracked_vector<U>;
  auto packed = parray<buffer>::tabulate(
      bd.num_blocks(),
      [&](std::size_t j) {
        buffer out;
        stream::pack_op(bd.block(j), bd.block_length(j), f, out);
        return out;
      },
      1);
  return detail::concat_eager(packed);
}

// flatten: force the outer sequence, then eagerly concatenate the inner
// sequences into one contiguous array.
template <typename Seq>
[[nodiscard]] auto flatten(const Seq& s) {
  auto inners = to_array(as_seq(s));
  return detail::concat_eager(inners);
}

// Effectful traversal, input fused.
template <typename Seq, typename G>
void apply_each(const Seq& s, const G& g) {
  auto r = as_seq(s);
  parallel_for(0, r.n, [&](std::size_t i) { g(r[i]); });
}

}  // namespace pbds::radlib
