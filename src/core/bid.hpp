// Block-iterable delayed (BID) sequences — §4's BID(n, b).
//
// A BID partitions the index space of an n-element sequence into
// ceil(n / block_size) uniform blocks and represents each block as a
// *delayed stream* (src/stream). b(j) manufactures the stream for block j;
// because streams are single-use, b must be pure — operations like scan
// legitimately re-invoke it (phase 1 and phase 3 both read the input).
//
// BIDs are what make scan / filter / flatten fusable: the blocked
// implementations of those operations have sequential inner loops, and a
// sequential inner loop over a block is exactly a stream, so the inner
// loops of adjacent operations compose into one (§3). Parallelism is
// *across* blocks — the inverse of the stream-of-blocks approach (§2.1,
// src/sob), which is what makes this work at multicore granularity.
#pragma once

#include <cassert>
#include <cstddef>
#include <type_traits>

#include "core/block.hpp"
#include "stream/streams.hpp"

namespace pbds {

template <typename B>
struct bid_t {
  using block_fn_type = B;
  using stream_type = std::decay_t<std::invoke_result_t<const B&, std::size_t>>;
  using value_type = typename stream_type::value_type;

  std::size_t n;           // total number of elements
  std::size_t block_size;  // B_n; uniform across the pipeline
  B b;                     // block index -> stream (pure)

  [[nodiscard]] std::size_t size() const noexcept { return n; }

  [[nodiscard]] std::size_t num_blocks() const noexcept {
    return num_blocks_for(n, block_size);
  }

  // All blocks are full except possibly the last.
  [[nodiscard]] std::size_t block_length(std::size_t j) const noexcept {
    assert(j < num_blocks());
    std::size_t start = j * block_size;
    std::size_t rem = n - start;
    return rem < block_size ? rem : block_size;
  }

  // Manufacture a fresh stream for block j.
  [[nodiscard]] stream_type block(std::size_t j) const { return b(j); }
};

template <typename B>
[[nodiscard]] auto make_bid(std::size_t n, std::size_t blk, B b) {
  return bid_t<B>{n, blk, std::move(b)};
}

template <typename T>
struct is_bid : std::false_type {};
template <typename B>
struct is_bid<bid_t<B>> : std::true_type {};
template <typename T>
inline constexpr bool is_bid_v = is_bid<std::decay_t<T>>::value;

}  // namespace pbds
