// The blocked skeleton of the three libraries (Fig. 12): the one place
// A, R and Ours materialize blocks, reduce and fold them, scan them and
// pack them. Each operation takes a BID. Ours passes its own, R the
// blocks delayed::bid_of reads its RAD through, and A the pointer-stream
// blocks of its array (array_ops::detail::blocks). So the three libraries
// differ only in what they fuse into the block streams. Their blocking,
// fork trees, allocations and the order in which partials combine are
// the same, and so are their results, bit for bit.
//
// Every loop here reads a block through the stream layer (stream::next_n,
// stream::reduce, stream::apply, stream::pack / pack_op), so the bulk
// fast paths and their gate apply to all three libraries alike.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "array/parray.hpp"
#include "core/bid.hpp"
#include "memory/counting_allocator.hpp"
#include "memory/tracking.hpp"
#include "sched/cancellation.hpp"
#include "sched/parallel.hpp"
#include "stream/streams.hpp"

namespace pbds::blocked {

// --- construction ------------------------------------------------------------

// The one blocked construction loop: construct every block of `bd` into
// the uninitialized slots dst[0, bd.n), in parallel across blocks.
//
// The loop is exception tolerant under the same gate and discipline as
// parray::tabulate (an injector armed, or T has a real destructor): a
// throw from the block function or an element evaluation is captured
// inside the block body, the rest of the block is default-constructed so
// the storage stays uniformly destructible, and the first exception is
// rethrown after the join — so a bad_alloc (injected or real) propagates
// without leaking. The guarded loop runs under a cancel_shield — the
// region-level bail-out would skip whole blocks and leave slots
// unconstructed — and once `err` triggers, remaining blocks skip stream
// evaluation. Otherwise each block is one gated stream::next_n
// (contiguous sources lower to one memcpy), and a throw unwinds through
// the region cancellation protocol, leaving trivially destructible slots
// that need no repair.
template <typename Bid>
void fill_blocks(const Bid& bd, typename Bid::value_type* dst) {
  using T = typename Bid::value_type;
  const std::size_t blk = bd.block_size;
  if constexpr (std::is_nothrow_default_constructible_v<T>) {
    if (!std::is_trivially_destructible_v<T> ||
        memory::fault_injection_armed()) {
      sched::cancel_shield shield;
      memory::first_exception err;
      apply(bd.num_blocks(), [&, dst](std::size_t j) {
        T* out = dst + j * blk;
        std::size_t len = bd.block_length(j);
        std::size_t k = 0;
        if (!err.triggered()) {
          try {
            auto st = bd.block(j);
            for (; k < len; ++k) ::new (out + k) T(st.next());
            return;
          } catch (...) {
            err.capture();
          }
        }
        for (; k < len; ++k) ::new (out + k) T();
      });
      err.rethrow_if_set();
      return;
    }
  }
  apply(bd.num_blocks(), [&, dst](std::size_t j) {
    auto st = bd.block(j);
    stream::next_n(st, dst + j * blk, bd.block_length(j));
  });
}

// toArray (Fig. 9 lines 9-14): materialize `bd` into a fresh array. Rather
// than zipping with an index RAD as in the figure, each block writes at
// its own offset — the same traversal without manufacturing index pairs.
// A budget refusal, of the array or inside a block, propagates once.
template <typename Bid>
[[nodiscard]] auto materialize(const Bid& bd) {
  auto out = parray<typename Bid::value_type>::uninitialized(bd.n);
  fill_blocks(bd, out.data());
  return out;
}

// materialize as a function object (scan_blocks' finish for A and R).
inline constexpr auto materialized = [](const auto& bd) {
  return materialize(bd);
};

// --- reduce, fold and scan (Fig. 10 lines 28-40) ----------------------------

// Phase 1: the block sums as a BID of nb one-element blocks, element j
// being body(input block j's stream, its length) — block j folded, fused
// with whatever produced the input. Materializing it runs the
// parallel_for(0, nb, ·, 1) tree of tabulating the sums.
template <typename Bid, typename Body>
[[nodiscard]] auto block_sums(const Bid& bd, Body body) {
  auto sum = [&bd, body](std::size_t j) {
    return body(bd.block(j), bd.block_length(j));
  };
  return make_bid(bd.num_blocks(), 1, [sum](std::size_t j) {
    return stream::tabulate_stream<decltype(sum)>{sum, j};
  });
}

// The block body of reduce and of scan's phase 1: stream::reduce's value
// chain, z = f(z, x), which keeps the accumulator in registers.
template <typename F, typename T>
[[nodiscard]] auto reduce_body(const F& f, const T& z) {
  return [&f, &z](auto st, std::size_t len) {
    return stream::reduce(std::move(st), len, f, z);
  };
}

// The skeleton of reduce and fold: phase 1 folds each block with `body`,
// phase 2 combines the nb partials left to right from z. No blocks: z.
// One block: its fold, with no partials array — this matters for nested
// parallelism (e.g. sparse-mxv's per-row reduces), where the delayed
// version must not allocate per row.
template <typename Bid, typename Body, typename C, typename T>
[[nodiscard]] T combine_blocks(const Bid& bd, const Body& body,
                               const C& combine, const T& z) {
  std::size_t nb = bd.num_blocks();
  if (nb == 0) return z;
  if (nb == 1) return body(bd.block(0), bd.block_length(0));
  T acc = z;
  for (const T& x : materialize(block_sums(bd, body))) acc = combine(acc, x);
  return acc;
}

// reduce: `f` associative with identity z.
template <typename Bid, typename F, typename T>
[[nodiscard]] T reduce_blocks(const Bid& bd, const F& f, const T& z) {
  return combine_blocks(bd, reduce_body(f, z), f, z);
}

// fold: reduce with an accumulator type T that may differ from the
// element type. Each block starts from a copy of z and runs the in-place
// step(acc, x) on its elements in order; the block partials are then
// combined left to right with combine(acc, partial), which must be
// associative with identity z.
template <typename Bid, typename Step, typename C, typename T>
[[nodiscard]] T fold_blocks(const Bid& bd, const Step& step,
                            const C& combine, const T& z) {
  auto body = [&step, &z](auto st, std::size_t len) {
    T acc = z;
    stream::apply(std::move(st), len,
                  [&acc, &step](const auto& x) { step(acc, x); });
    return acc;
  };
  return combine_blocks(bd, body, combine, z);
}

// The three-phase blocked scan [Chatterjee et al. 1990] (Fig. 2), with
// `f` associative with identity z; the two scans differ only in the
// output Stream (stream::scan_stream or stream::scan_inclusive_stream).
// Phase 1 is the block sums. Phase 2 is their exclusive scan: one
// sequential block (nb is small) through fill_blocks, so a throwing f or
// copy leaves placeholders, not holes. Phase 3 is *delayed*: output
// block j is a Stream over a fresh copy of input block j seeded with
// partial P[j], and the partials are held by the output BID. Returns
// (finish(output BID), total), with finish run while the sums are live:
// Ours passes std::identity and returns the BID; A and R pass
// `materialized`, so their arrays are allocated in the order, and live
// as long as, a hand-written three-phase scan's; array_ops::size_offsets
// fills the offsets array it already holds.
template <template <typename, typename> class Stream, typename Bid,
          typename F, typename T, typename Finish>
[[nodiscard]] auto scan_blocks(const Bid& bd, const F& f, const T& z,
                               const Finish& finish) {
  const parray<T> sums = materialize(block_sums(bd, reduce_body(f, z)));
  std::size_t nb = sums.size();
  auto offsets = make_bid(nb, nb == 0 ? 1 : nb, [&](std::size_t) {
    return stream::scan_stream{stream::pointer_stream<T>{sums.data()}, f, z};
  });
  auto partials = std::make_shared<parray<T>>(parray<T>::uninitialized(nb));
  fill_blocks(offsets, partials->data());
  T total = z;
  if (nb > 0) total = f((*partials)[nb - 1], sums[nb - 1]);
  auto block_fn = [b = bd.b, partials, f](std::size_t j) {
    return Stream<typename Bid::stream_type, std::decay_t<F>>{
        b(j), f, (*partials)[j]};
  };
  return std::pair(finish(make_bid(bd.n, bd.block_size, std::move(block_fn))),
                   total);
}

// --- filter / filter_op (Fig. 10 lines 48-53) -------------------------------

// The per-block pack of filter and filter_op: block j's survivors, as
// pack(block j's stream, its length, out) appends them (stream::pack or
// stream::pack_op), in block j's own exact-size buffer, in parallel
// across blocks. The buffers are tabulated, so a throw from a predicate
// or an allocation leaves every buffer destructible.
template <typename U, typename Bid, typename Pack>
[[nodiscard]] auto pack_blocks(const Bid& bd, const Pack& pack) {
  using buffer = memory::tracked_vector<U>;
  return parray<buffer>::tabulate(
      bd.num_blocks(),
      [&](std::size_t j) {
        buffer out;
        pack(bd.block(j), bd.block_length(j), out);
        return out;
      },
      1);
}

}  // namespace pbds::blocked
