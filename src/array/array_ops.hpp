// Eager parallel array library — Fig. 7's `a.*` functions, and the `array`
// (A) baseline of the evaluation (Fig. 12): "highly optimized parallel
// arrays", *no fusion* — every operation materializes its result.
//
// This layer serves two roles, exactly as in the paper:
//  1. the no-fusion baseline the delayed library is compared against, and
//  2. the internal array substrate of the delayed library itself (scan
//     partials, filter offsets, forced intermediates).
//
// All blocked operations (reduce/scan/filter/flatten) use the same global
// block size as the delayed library so that the evaluation compares the
// libraries under identical blocking and granularity.
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <optional>
#include <utility>

#include "array/parray.hpp"
#include "core/block.hpp"
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
// The two-phase blocked skeleton of reduce and fold (§2.2): block(lo, hi)
// folds a[lo, hi) sequentially, in parallel across blocks; the nb
// partials are then combined left to right from z. No partials array for
// zero blocks or one.
template <typename T, typename Block, typename C>
[[nodiscard]] T combine_blocks(std::size_t n, const Block& block,
                               const C& combine, const T& z) {
  if (n == 0) return z;
  std::size_t blk = block_size();
  std::size_t nb = num_blocks_for(n, blk);
  auto block_j = [&](std::size_t j) {
    std::size_t lo = j * blk;
    return block(lo, lo + blk < n ? lo + blk : n);
  };
  if (nb == 1) return block_j(0);
  parray<T> sums = parray<T>::tabulate(nb, block_j, /*granularity=*/1);
  T acc = z;
  for (std::size_t j = 0; j < nb; ++j) acc = combine(acc, sums[j]);
  return acc;
}
}  // namespace detail

// a.reduce — two-phase blocked reduction: `f` must be associative with
// identity z.
template <typename F, typename T>
[[nodiscard]] T reduce(const F& f, T z, const parray<T>& a) {
  const T* p = a.data();
  auto block = [&](std::size_t lo, std::size_t hi) {
    T acc = z;
    for (std::size_t i = lo; i < hi; ++i) acc = f(acc, p[i]);
    return acc;
  };
  return detail::combine_blocks(a.size(), block, f, z);
}

// a.fold — reduce with an accumulator type T that may differ from the
// element type: each block copies z and runs step(acc, x) in place on its
// elements in order; the partials are combined left to right with
// combine(acc, partial), associative with identity z.
template <typename Step, typename C, typename T, typename U>
[[nodiscard]] T fold(const Step& step, const C& combine, T z,
                     const parray<U>& a) {
  const U* p = a.data();
  auto block = [&](std::size_t lo, std::size_t hi) {
    T acc = z;
    for (std::size_t i = lo; i < hi; ++i) step(acc, p[i]);
    return acc;
  };
  return detail::combine_blocks(a.size(), block, combine, z);
}

namespace detail {
// Exclusive scan of the (small) per-block sums array, done sequentially
// since the number of blocks is proportional to parallelism, not n.
template <typename F, typename T>
std::pair<parray<T>, T> scan_partials(const F& f, T z, parray<T>& sums) {
  std::size_t nb = sums.size();
  T acc = z;
  parray<T> partials = parray<T>::uninitialized(nb);
  for (std::size_t j = 0; j < nb; ++j) {
    ::new (partials.data() + j) T(acc);
    acc = f(acc, sums[j]);
  }
  return {std::move(partials), acc};
}
}  // namespace detail

// a.scan — exclusive scan via the three-phase blocked algorithm
// [Chatterjee et al. 1990], Fig. 2. Returns (prefix array, total).
template <typename F, typename T>
[[nodiscard]] std::pair<parray<T>, T> scan(const F& f, T z,
                                           const parray<T>& a) {
  std::size_t n = a.size();
  if (n == 0) return {parray<T>(), z};
  std::size_t blk = block_size();
  std::size_t nb = num_blocks_for(n, blk);
  const T* p = a.data();
  // Phase 1: per-block sums.
  parray<T> sums = parray<T>::tabulate(
      nb,
      [&](std::size_t j) {
        std::size_t lo = j * blk;
        std::size_t hi = lo + blk < n ? lo + blk : n;
        T acc = z;
        for (std::size_t i = lo; i < hi; ++i) acc = f(acc, p[i]);
        return acc;
      },
      1);
  // Phase 2: scan the sums.
  auto [partials, total] = detail::scan_partials(f, z, sums);
  // Phase 3: re-read input, scan within blocks from the block offsets.
  parray<T> out = parray<T>::uninitialized(n);
  T* q = out.data();
  const T* off = partials.data();
  apply(nb, [&, q, off](std::size_t j) {
    std::size_t lo = j * blk;
    std::size_t hi = lo + blk < n ? lo + blk : n;
    T acc = off[j];
    for (std::size_t i = lo; i < hi; ++i) {
      ::new (q + i) T(acc);
      acc = f(acc, p[i]);
    }
  });
  return {std::move(out), total};
}

// Inclusive variant: out[i] = f(...f(f(z, a[0]), a[1])..., a[i]).
template <typename F, typename T>
[[nodiscard]] std::pair<parray<T>, T> scan_inclusive(const F& f, T z,
                                                     const parray<T>& a) {
  std::size_t n = a.size();
  if (n == 0) return {parray<T>(), z};
  std::size_t blk = block_size();
  std::size_t nb = num_blocks_for(n, blk);
  const T* p = a.data();
  parray<T> sums = parray<T>::tabulate(
      nb,
      [&](std::size_t j) {
        std::size_t lo = j * blk;
        std::size_t hi = lo + blk < n ? lo + blk : n;
        T acc = z;
        for (std::size_t i = lo; i < hi; ++i) acc = f(acc, p[i]);
        return acc;
      },
      1);
  auto [partials, total] = detail::scan_partials(f, z, sums);
  parray<T> out = parray<T>::uninitialized(n);
  T* q = out.data();
  const T* off = partials.data();
  apply(nb, [&, q, off](std::size_t j) {
    std::size_t lo = j * blk;
    std::size_t hi = lo + blk < n ? lo + blk : n;
    T acc = off[j];
    for (std::size_t i = lo; i < hi; ++i) {
      acc = f(acc, p[i]);
      ::new (q + i) T(acc);
    }
  });
  return {std::move(out), total};
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
// the delayed library's filter/flatten.
template <typename SizeFn>
[[nodiscard]] std::pair<parray<std::size_t>, std::size_t> size_offsets(
    std::size_t count, const SizeFn& size_of) {
  auto sizes = parray<std::size_t>::tabulate(count, size_of);
  auto offsets = parray<std::size_t>::uninitialized(count + 1);
  // Blocked parallel scan over the sizes (count can be large for flatten).
  auto [pre, total] =
      scan([](std::size_t x, std::size_t y) { return x + y; },
           std::size_t{0}, sizes);
  std::size_t* q = offsets.data();
  const std::size_t* p = pre.data();
  parallel_for(0, count, [q, p](std::size_t i) { q[i] = p[i]; });
  q[count] = total;
  return {std::move(offsets), total};
}

// a.filter — blocked two-phase filter (§2.2): pack survivors within each
// block (stream::pack over the block's memory), then flatten the packed
// blocks into a contiguous output array.
template <typename P, typename T>
[[nodiscard]] parray<T> filter(const P& p, const parray<T>& a) {
  std::size_t n = a.size();
  std::size_t blk = block_size();
  std::size_t nb = num_blocks_for(n, blk);
  const T* src = a.data();
  using buffer = memory::tracked_vector<T>;
  auto packed = parray<buffer>::tabulate(
      nb,
      [&](std::size_t j) {
        std::size_t lo = j * blk;
        buffer out;
        stream::pack(stream::pointer_stream<T>{src + lo},
                     lo + blk < n ? blk : n - lo, p, out);
        return out;
      },
      1);
  auto [offsets, m] =
      size_offsets(nb, [&](std::size_t j) { return packed[j].size(); });
  return detail::concat_pieces(packed, offsets, m);
}

// a.filterOp / mapMaybe — filter and transform in one pass; f returns
// std::optional<U>.
template <typename F, typename T>
[[nodiscard]] auto filter_op(const F& f, const parray<T>& a) {
  using U = typename std::invoke_result_t<const F&, const T&>::value_type;
  std::size_t n = a.size();
  std::size_t blk = block_size();
  std::size_t nb = num_blocks_for(n, blk);
  const T* src = a.data();
  using buffer = memory::tracked_vector<U>;
  auto packed = parray<buffer>::tabulate(
      nb,
      [&](std::size_t j) {
        std::size_t lo = j * blk;
        buffer out;
        stream::pack_op(stream::pointer_stream<T>{src + lo},
                        lo + blk < n ? blk : n - lo, f, out);
        return out;
      },
      1);
  auto [offsets, m] =
      size_offsets(nb, [&](std::size_t j) { return packed[j].size(); });
  return detail::concat_pieces(packed, offsets, m);
}

// a.flatten — scan the inner lengths for offsets, then copy uniform output
// blocks in parallel (Fig. 3). `Inner` needs size() and operator[].
template <typename Inner>
[[nodiscard]] auto flatten(const parray<Inner>& nested) {
  auto [offsets, m] = size_offsets(
      nested.size(), [&](std::size_t k) { return nested[k].size(); });
  return detail::concat_pieces(nested, offsets, m);
}

// Effectful traversal.
template <typename T, typename G>
void apply_each(const parray<T>& a, const G& g) {
  const T* p = a.data();
  parallel_for(0, a.size(), [&, p](std::size_t i) { g(p[i]); });
}

}  // namespace pbds::array_ops
