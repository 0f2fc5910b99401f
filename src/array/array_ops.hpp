// Eager parallel array library — Fig. 7's `a.*` functions, and the `array`
// (A) baseline of the evaluation (Fig. 12): "highly optimized parallel
// arrays", *no fusion* — every operation materializes its result.
//
// This layer serves two roles, exactly as in the paper:
//  1. the no-fusion baseline the delayed library is compared against, and
//  2. the internal array substrate of the delayed library itself (filter
//     and flatten offsets, forced intermediates).
//
// The blocked operations (reduce, fold, scan, filter, filter_op) run the
// skeleton the delayed library and R run (core/blocked.hpp), on the
// array's own blocks read through pointer streams: the same global block
// size, fork trees, allocations and combination order, so the evaluation
// compares the libraries under identical blocking and granularity and
// their results agree bit for bit.
#pragma once

#include <cassert>
#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "array/parray.hpp"
#include "core/bid.hpp"
#include "core/block.hpp"
#include "core/blocked.hpp"
#include "core/region.hpp"
#include "memory/counting_allocator.hpp"
#include "sched/parallel.hpp"
#include "stream/streams.hpp"

namespace pbds::array_ops {

// a.tabulate — materialize <f(0), ..., f(n-1)>.
template <typename F>
[[nodiscard]] auto tabulate(std::size_t n, F&& f) {
  using T = std::decay_t<std::invoke_result_t<F&, std::size_t>>;
  return parray<T>::tabulate(n, std::forward<F>(f));
}

[[nodiscard]] inline parray<std::size_t> iota(std::size_t n) {
  return tabulate(n, [](std::size_t i) { return i; });
}

// a.map — materializes the output (this is the whole point of the
// baseline: no fusion, a full intermediate array per operation).
template <typename F, typename T>
[[nodiscard]] auto map(F f, const parray<T>& a) {
  const T* p = a.data();
  return tabulate(a.size(), [f = std::move(f), p](std::size_t i) {
    return f(p[i]);
  });
}

template <typename T, typename U>
[[nodiscard]] auto zip(const parray<T>& a, const parray<U>& b) {
  assert(a.size() == b.size());
  const T* pa = a.data();
  const U* pb = b.data();
  return tabulate(a.size(), [pa, pb](std::size_t i) {
    return std::pair<T, U>(pa[i], pb[i]);
  });
}

namespace detail {
// The array's blocks as a BID of pointer streams: the input A hands to
// the blocked skeleton. The array outlives every use (A is eager), so the
// block function holds a raw pointer.
template <typename T>
[[nodiscard]] auto blocks(const parray<T>& a) {
  std::size_t blk = block_size();
  const T* p = a.data();
  return make_bid(a.size(), blk, [p, blk](std::size_t j) {
    return stream::pointer_stream<T>{p + j * blk};
  });
}
}  // namespace detail

// a.reduce — two-phase blocked reduction: `f` must be associative with
// identity z.
template <typename F, typename T>
[[nodiscard]] T reduce(const F& f, T z, const parray<T>& a) {
  return blocked::reduce_blocks(detail::blocks(a), f, z);
}

// a.fold — reduce with an accumulator type T that may differ from the
// element type: each block copies z and runs step(acc, x) in place on its
// elements in order; the partials are combined left to right with
// combine(acc, partial), associative with identity z.
template <typename Step, typename C, typename T, typename U>
[[nodiscard]] T fold(const Step& step, const C& combine, T z,
                     const parray<U>& a) {
  return blocked::fold_blocks(detail::blocks(a), step, combine, z);
}

// a.scan — exclusive scan via the three-phase blocked algorithm
// [Chatterjee et al. 1990], Fig. 2, with phase 3 materialized. Returns
// (prefix array, total).
template <typename F, typename T>
[[nodiscard]] std::pair<parray<T>, T> scan(const F& f, T z,
                                           const parray<T>& a) {
  return blocked::scan_blocks<stream::scan_stream>(detail::blocks(a), f, z,
                                                   blocked::materialized);
}

// Inclusive variant: out[i] = f(...f(f(z, a[0]), a[1])..., a[i]).
template <typename F, typename T>
[[nodiscard]] std::pair<parray<T>, T> scan_inclusive(const F& f, T z,
                                                     const parray<T>& a) {
  return blocked::scan_blocks<stream::scan_inclusive_stream>(
      detail::blocks(a), f, z, blocked::materialized);
}

namespace detail {
// Shared tail of filter/filter_op/flatten: given ragged pieces and their
// flat offsets, materialize the contiguous output by copying uniform
// output blocks in parallel (Fig. 3's blocking of the *output* space).
template <typename Pieces>
[[nodiscard]] auto concat_pieces(const Pieces& pieces,
                                 const parray<std::size_t>& offsets,
                                 std::size_t m) {
  using piece_type =
      std::decay_t<decltype(std::declval<const Pieces&>()[0])>;
  using T = std::decay_t<decltype(std::declval<const piece_type&>()[0])>;
  std::size_t blk = block_size();
  std::size_t nb = num_blocks_for(m, blk);
  auto out = parray<T>::uninitialized(m);
  T* q = out.data();
  const std::size_t* base = offsets.data();
  apply(nb, [&, q, base](std::size_t j) {
    std::size_t start = j * blk;
    std::size_t len = start + blk < m ? blk : m - start;
    std::size_t k = static_cast<std::size_t>(
        std::upper_bound(base, base + offsets.size(), start) - base - 1);
    region_stream<Pieces> s{&pieces, k, start - base[k]};
    // Gated bulk copy: contiguous pieces become one memcpy per run.
    stream::next_n(s, q + start, len);
  });
  return out;
}

}  // namespace detail

// Exclusive scan-plus over piece sizes; offsets[k] = flat start of piece k,
// offsets[count] = total. Shared by filter/filter_op/flatten here and by
// the delayed library's filter/flatten. The sizes are a tabulate stream
// fused into the blocked scan (count can be large for flatten), whose
// output blocks are written straight into the offsets: no sizes or
// prefix array, and no copy.
template <typename SizeFn>
[[nodiscard]] std::pair<parray<std::size_t>, std::size_t> size_offsets(
    std::size_t count, const SizeFn& size_of) {
  auto offsets = parray<std::size_t>::uninitialized(count + 1);
  auto size_at = [&size_of](std::size_t k) -> std::size_t {
    return size_of(k);
  };
  std::size_t blk = block_size();
  auto sizes = make_bid(count, blk, [size_at, blk](std::size_t j) {
    return stream::tabulate_stream{size_at, j * blk};
  });
  // scan_blocks returns (finish's result, total); only the total is used.
  std::size_t total =
      blocked::scan_blocks<stream::scan_stream>(
          sizes, std::plus<std::size_t>{}, std::size_t{0},
          [&offsets](const auto& bd) {
            blocked::fill_blocks(bd, offsets.data());
            return bd.n;
          })
          .second;
  offsets[count] = total;
  return {std::move(offsets), total};
}

namespace detail {
// Ragged pieces copied into one contiguous array: offsets by a scan of
// the piece sizes, then uniform output blocks copied in parallel.
template <typename Pieces>
[[nodiscard]] auto concat(const Pieces& pieces) {
  auto [offsets, m] = size_offsets(
      pieces.size(), [&](std::size_t k) { return pieces[k].size(); });
  return concat_pieces(pieces, offsets, m);
}
}  // namespace detail

// a.filter — blocked two-phase filter (§2.2): pack survivors within each
// block, then flatten the packed blocks into a contiguous output array.
template <typename P, typename T>
[[nodiscard]] parray<T> filter(const P& p, const parray<T>& a) {
  return detail::concat(blocked::pack_blocks<T>(
      detail::blocks(a), [&p](auto st, std::size_t len, auto& out) {
        stream::pack(std::move(st), len, p, out);
      }));
}

// a.filterOp / mapMaybe — filter and transform in one pass; f returns
// std::optional<U>.
template <typename F, typename T>
[[nodiscard]] auto filter_op(const F& f, const parray<T>& a) {
  using U = typename std::invoke_result_t<const F&, const T&>::value_type;
  return detail::concat(blocked::pack_blocks<U>(
      detail::blocks(a), [&f](auto st, std::size_t len, auto& out) {
        stream::pack_op(std::move(st), len, f, out);
      }));
}

// a.flatten — scan the inner lengths for offsets, then copy uniform output
// blocks in parallel (Fig. 3). `Inner` needs size() and operator[].
template <typename Inner>
[[nodiscard]] auto flatten(const parray<Inner>& nested) {
  return detail::concat(nested);
}

// Effectful traversal.
template <typename T, typename G>
void apply_each(const parray<T>& a, const G& g) {
  const T* p = a.data();
  parallel_for(0, a.size(), [&, p](std::size_t i) { g(p[i]); });
}

}  // namespace pbds::array_ops
