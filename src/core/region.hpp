// getRegion (Fig. 10 lines 41-43): streaming a uniform output block out of
// a ragged array-of-sequences.
//
// filter, filter_op and flatten all end up with a collection of
// variable-length random-access pieces (packed per-block survivor
// buffers, or the forced inner sequences of a nested sequence) plus an
// offsets array saying where each piece starts in the flat output. To
// expose the result as a BID, block j of the output is a stream that (1)
// binary-searches the offsets for the piece containing position j*B, then
// (2) walks left-to-right across adjacent pieces (Fig. 3). The binary
// search is *delayed* — it happens only if/when the block is actually
// demanded downstream. region_stream is the library's one stream over
// ragged pieces.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>

#include "array/parray.hpp"
#include "core/bid.hpp"

namespace pbds {

// Stream walking across a ragged array of random-access pieces.
// `Pieces` must support operator[](size_t) yielding something with size()
// and operator[](size_t). Raw pointers are used because the enclosing
// block function owns the shared_ptrs and outlives the stream.
template <typename Pieces>
struct region_stream {
  using piece_type = std::decay_t<decltype(std::declval<const Pieces&>()[0])>;
  using value_type =
      std::decay_t<decltype(std::declval<const piece_type&>()[0])>;
  // next_n copies materialized runs — data movement, so consumers profit
  // from staging it (stream::staging_wins_v). Per-element next() pays a
  // piece-bound check per pull, so staging wins outright.
  static constexpr bool staging_profitable = true;

  const Pieces* pieces;
  std::size_t outer;  // current piece
  std::size_t inner;  // position within the current piece

  value_type next() {
    // Skip exhausted (or empty) pieces. Termination is guaranteed because
    // consumers pull exactly block_length elements and the offsets sum to
    // the total element count.
    while (inner >= (*pieces)[outer].size()) {
      ++outer;
      inner = 0;
    }
    return (*pieces)[outer][inner++];
  }

  // Bulk path: copy maximal runs out of each piece instead of re-checking
  // piece bounds per element. Contiguous trivially-copyable pieces (the
  // common case — packed survivor buffers, parray rows) lower each run to
  // one memcpy.
  void next_n(value_type* dst, std::size_t n) {
    while (n > 0) {
      const auto& piece = (*pieces)[outer];
      std::size_t avail = piece.size() - std::min(inner, piece.size());
      if (avail == 0) {
        ++outer;
        inner = 0;
        continue;
      }
      std::size_t c = n < avail ? n : avail;
      if constexpr (requires(const piece_type& p) { p.data(); } &&
                    std::is_trivially_copyable_v<value_type>) {
        std::memcpy(static_cast<void*>(dst), piece.data() + inner,
                    c * sizeof(value_type));
      } else {
        for (std::size_t k = 0; k < c; ++k)
          ::new (static_cast<void*>(dst + k)) value_type(piece[inner + k]);
      }
      dst += c;
      inner += c;
      n -= c;
    }
  }
};

// Package ragged pieces + offsets into a BID of m total elements.
//
// `offsets` has pieces->size() + 1 entries: offsets[k] is the flat start of
// piece k, offsets[last] == m. Shared ownership keeps the pieces alive for
// as long as any copy of the resulting BID exists.
template <typename Pieces>
[[nodiscard]] auto region_bid(std::shared_ptr<Pieces> pieces,
                              std::shared_ptr<parray<std::size_t>> offsets,
                              std::size_t m, std::size_t blk) {
  auto block_fn = [pieces = std::move(pieces), offsets = std::move(offsets),
                   blk](std::size_t j) {
    std::size_t start = j * blk;
    const std::size_t* base = offsets->data();
    // Largest k with offsets[k] <= start. Because start < m == offsets
    // back, the found piece satisfies offsets[k] <= start < offsets[k+1],
    // so `inner` is in range even when empty pieces create ties.
    std::size_t k = static_cast<std::size_t>(
        std::upper_bound(base, base + offsets->size(), start) - base - 1);
    return region_stream<Pieces>{pieces.get(), k, start - base[k]};
  };
  return make_bid(m, blk, std::move(block_fn));
}

}  // namespace pbds
