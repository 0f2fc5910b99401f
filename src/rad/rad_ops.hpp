// RAD-only library — the `rad` (R) baseline of the evaluation (Fig. 12):
// "extends A with RAD fusion (for tabulate, map, reduce, etc.)".
//
// tabulate / map / zip are delayed exactly as in the full library (index
// fusion à la Repa), and reduce and fold consume a RAD without
// materializing it. The difference from the full library is the
// *absence of BIDs*: scan, filter, filter_op and flatten still fuse their
// inputs (they read through the RAD's index function), but their
// **outputs are materialized arrays** — an O(n) allocation and an O(n)
// write pass that block-delayed sequences avoid. Comparing `delay`
// against this baseline isolates the benefit of the BID representation
// (§6.1).
//
// Every materializing and blocked op runs the skeleton A and the full
// library run (core/blocked.hpp) on the blocks the full library's bid_of
// reads the RAD through, so the input is fused and blocked exactly as in
// A and Ours.
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <optional>
#include <utility>

#include "array/array_ops.hpp"
#include "array/parray.hpp"
#include "core/blocked.hpp"
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

// toArray: materialize the RAD block by block. Already materialized
// arrays pass through by move (or deep-copy if borrowed).
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
  return blocked::materialize(delayed::bid_of(as_seq(s)));
}

// force: materialize, hand back an array-backed RAD.
template <typename Seq>
[[nodiscard]] auto force(const Seq& s) {
  using T = typename std::decay_t<decltype(as_seq(s))>::value_type;
  auto arr = std::make_shared<parray<T>>(to_array(s));
  return rad_shared(std::move(arr));
}

template <typename F, typename T, typename Seq>
[[nodiscard]] T reduce(const F& f, T z, const Seq& s) {
  return blocked::reduce_blocks(delayed::bid_of(as_seq(s)), f, z);
}

template <typename Step, typename C, typename T, typename Seq>
[[nodiscard]] T fold(const Step& step, const C& combine, T z,
                     const Seq& s) {
  return blocked::fold_blocks(delayed::bid_of(as_seq(s)), step, combine, z);
}

// scan: three-phase blocked; input fused, output MATERIALIZED (no BID).
// Returns (array-backed RAD, total).
template <typename F, typename T, typename Seq>
[[nodiscard]] auto scan(const F& f, T z, const Seq& s) {
  auto [out, total] = blocked::scan_blocks<stream::scan_stream>(
      delayed::bid_of(as_seq(s)), f, z, blocked::materialized);
  return std::pair(rad_shared(std::make_shared<parray<T>>(std::move(out))),
                   total);
}

template <typename F, typename T, typename Seq>
[[nodiscard]] auto scan_inclusive(const F& f, T z, const Seq& s) {
  auto [out, total] = blocked::scan_blocks<stream::scan_inclusive_stream>(
      delayed::bid_of(as_seq(s)), f, z, blocked::materialized);
  return std::pair(rad_shared(std::make_shared<parray<T>>(std::move(out))),
                   total);
}

// filter: blocked pack (input fused) + eager concatenation of survivors
// (the O(n) write pass BIDs avoid).
template <typename P, typename Seq>
[[nodiscard]] auto filter(const P& p, const Seq& s) {
  auto bd = delayed::bid_of(as_seq(s));
  return array_ops::detail::concat(
      blocked::pack_blocks<typename decltype(bd)::value_type>(
          bd, [&p](auto st, std::size_t len, auto& out) {
            stream::pack(std::move(st), len, p, out);
          }));
}

template <typename F, typename Seq>
[[nodiscard]] auto filter_op(const F& f, const Seq& s) {
  auto bd = delayed::bid_of(as_seq(s));
  using T = typename decltype(bd)::value_type;
  using U = typename std::invoke_result_t<const F&, T>::value_type;
  return array_ops::detail::concat(blocked::pack_blocks<U>(
      bd, [&f](auto st, std::size_t len, auto& out) {
        stream::pack_op(std::move(st), len, f, out);
      }));
}

// flatten: force the outer sequence, then eagerly concatenate the inner
// sequences into one contiguous array.
template <typename Seq>
[[nodiscard]] auto flatten(const Seq& s) {
  return array_ops::detail::concat(to_array(as_seq(s)));
}

// Effectful traversal, input fused.
template <typename Seq, typename G>
void apply_each(const Seq& s, const G& g) {
  auto r = as_seq(s);
  parallel_for(0, r.n, [&](std::size_t i) { g(r[i]); });
}

}  // namespace pbds::radlib
