// inverted-index — building an inverted index, one of the workloads the
// paper reports improving inside PBBS with block-delayed sequences (§1:
// "applied to improve ... inverted indices").
//
// Each newline-terminated line of the corpus is a document. The kernel:
//   1. computes each position's document id with an exclusive scan of the
//      newline indicator (BID),
//   2. zips the ids with positions and filterOps the word starts into
//      (first-letter bucket, document id) postings — the flattened
//      postings stream is never materialized,
//   3. folds the postings into per-bucket posting counts and checksums:
//      each block accumulates its own partial index, and the partials are
//      summed bucket by bucket, so no two workers write the same counter.
//
// The whole thing is scan -> zip -> filterOp -> fold, i.e. every fusion
// feature at once on a realistic text-indexing workload.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <utility>

#include "array/parray.hpp"
#include "text/text.hpp"

namespace pbds::bench {

struct index_bucket {
  std::uint64_t postings = 0;  // number of (word, doc) postings
  std::uint64_t doc_hash = 0;  // order-independent checksum of doc ids
  friend bool operator==(const index_bucket&, const index_bucket&) = default;
};

using inverted_index = std::array<index_bucket, 26>;

template <typename P>
inverted_index build_index(const parray<char>& corpus) {
  std::size_t n = corpus.size();
  const char* s = corpus.data();
  // Document id of position i = number of newlines at positions < i, which
  // is the EXCLUSIVE scan of the newline indicator.
  auto is_nl = P::map(
      [s](std::size_t i) -> std::uint32_t { return s[i] == '\n' ? 1 : 0; },
      P::iota(n));
  auto [docids, num_docs] = P::scan(
      [](std::uint32_t a, std::uint32_t b) { return a + b; },
      std::uint32_t{0}, is_nl);
  (void)num_docs;
  // (bucket, doc) postings at word starts.
  auto postings = P::filter_op(
      [s, n](const std::pair<std::size_t, std::uint32_t>& pos_doc)
          -> std::optional<std::pair<std::uint8_t, std::uint32_t>> {
        std::size_t i = pos_doc.first;
        char c = s[i];
        bool start = !text::is_space(c) &&
                     (i == 0 || text::is_space(s[i - 1]));
        if (!start || c < 'a' || c > 'z') return std::nullopt;
        return std::pair<std::uint8_t, std::uint32_t>(
            static_cast<std::uint8_t>(c - 'a'), pos_doc.second);
      },
      P::zip(P::iota(n), docids));
  // Accumulate the index in one fused traversal. The doc hash is a sum,
  // so the result does not depend on how the postings are blocked.
  auto add_posting = [](inverted_index& idx,
                        const std::pair<std::uint8_t, std::uint32_t>& bd) {
    index_bucket& b = idx[bd.first];
    b.postings += 1;
    b.doc_hash += (bd.second + 1) * 0x9e3779b97f4a7c15ull;
  };
  auto merge = [](inverted_index a, const inverted_index& b) {
    for (std::size_t k = 0; k < a.size(); ++k) {
      a[k].postings += b[k].postings;
      a[k].doc_hash += b[k].doc_hash;
    }
    return a;
  };
  return P::fold(add_posting, merge, inverted_index{}, postings);
}

inline inverted_index index_reference(const parray<char>& corpus) {
  inverted_index out{};
  std::size_t n = corpus.size();
  std::uint32_t doc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    char c = corpus[i];
    bool start = !text::is_space(c) &&
                 (i == 0 || text::is_space(corpus[i - 1]));
    if (start && c >= 'a' && c <= 'z') {
      auto b = static_cast<std::size_t>(c - 'a');
      out[b].postings += 1;
      out[b].doc_hash += (doc + 1) * 0x9e3779b97f4a7c15ull;
    }
    if (c == '\n') ++doc;
  }
  return out;
}

}  // namespace pbds::bench
