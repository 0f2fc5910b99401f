// Unit tests for the stream layer (Fig. 8's s.* functions): each adapter
// in isolation, deep compositions, and laziness (O(1) construction).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "geom/geom.hpp"
#include "memory/tracking.hpp"
#include "stream/streams.hpp"

namespace {

namespace st = pbds::stream;

template <typename S>
std::vector<typename S::value_type> drain(S s, std::size_t n) {
  std::vector<typename S::value_type> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(s.next());
  return out;
}

TEST(Streams, TabulateProducesIndexedValues) {
  auto s = st::tabulate_stream{[](std::size_t i) { return 3 * i; },
                               std::size_t{10}};
  auto v = drain(s, 4);
  EXPECT_EQ(v, (std::vector<std::size_t>{30, 33, 36, 39}));
}

TEST(Streams, PointerStreamReadsMemory) {
  int data[] = {5, 6, 7};
  st::pointer_stream<int> s{data};
  EXPECT_EQ(drain(s, 3), (std::vector<int>{5, 6, 7}));
}

TEST(Streams, MapTransforms) {
  auto base = st::tabulate_stream{[](std::size_t i) { return (int)i; },
                                  std::size_t{0}};
  auto s = st::map_stream{base, [](int x) { return x * x; }};
  EXPECT_EQ(drain(s, 5), (std::vector<int>{0, 1, 4, 9, 16}));
}

TEST(Streams, ZipPairsInLockstep) {
  auto a = st::tabulate_stream{[](std::size_t i) { return (int)i; },
                               std::size_t{0}};
  auto b = st::tabulate_stream{[](std::size_t i) { return (int)(10 * i); },
                               std::size_t{0}};
  auto s = st::zip_stream{a, b};
  auto v = drain(s, 3);
  EXPECT_EQ(v[2], (std::pair<int, int>(2, 20)));
}

TEST(Streams, ScanIsExclusive) {
  auto base = st::tabulate_stream{[](std::size_t i) { return (int)i + 1; },
                                  std::size_t{0}};
  auto s = st::scan_stream{base, [](int a, int b) { return a + b; }, 100};
  EXPECT_EQ(drain(s, 4), (std::vector<int>{100, 101, 103, 106}));
}

TEST(Streams, ScanInclusiveIncludesCurrent) {
  auto base = st::tabulate_stream{[](std::size_t i) { return (int)i + 1; },
                                  std::size_t{0}};
  auto s = st::scan_inclusive_stream{base,
                                     [](int a, int b) { return a + b; }, 100};
  EXPECT_EQ(drain(s, 4), (std::vector<int>{101, 103, 106, 110}));
}

TEST(Streams, ReduceFoldsLeft) {
  auto base = st::tabulate_stream{[](std::size_t i) { return (int)i; },
                                  std::size_t{0}};
  // Non-commutative op to pin the fold direction: f(acc, x) = 2*acc + x.
  int got = st::reduce(base, 4, [](int a, int b) { return 2 * a + b; }, 1);
  // ((((1*2+0)*2+1)*2+2)*2+3) = 27
  EXPECT_EQ(got, 27);
}

TEST(Streams, ApplyVisitsEachOnce) {
  auto base = st::tabulate_stream{[](std::size_t i) { return (int)i; },
                                  std::size_t{0}};
  std::vector<int> seen;
  st::apply(base, 5, [&](int x) { seen.push_back(x); });
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Streams, PackKeepsSurvivorsInOrder) {
  auto base = st::tabulate_stream{[](std::size_t i) { return (int)i; },
                                  std::size_t{0}};
  pbds::memory::tracked_vector<int> out;
  st::pack(base, 10, [](int x) { return x % 3 == 0; }, out);
  EXPECT_EQ(std::vector<int>(out.begin(), out.end()),
            (std::vector<int>{0, 3, 6, 9}));
}

TEST(Streams, PackOpTransformsAndFilters) {
  auto base = st::tabulate_stream{[](std::size_t i) { return (int)i; },
                                  std::size_t{0}};
  pbds::memory::tracked_vector<double> out;
  st::pack_op(
      base, 6,
      [](int x) -> std::optional<double> {
        if (x % 2 == 0) return x * 0.5;
        return std::nullopt;
      },
      out);
  EXPECT_EQ(std::vector<double>(out.begin(), out.end()),
            (std::vector<double>{0.0, 1.0, 2.0}));
}

TEST(Streams, DeepCompositionFusesCorrectly) {
  // map . scan . map . zip . tabulate, all in one nested type.
  auto t1 = st::tabulate_stream{[](std::size_t i) { return (int)i; },
                                std::size_t{0}};
  auto t2 = st::tabulate_stream{[](std::size_t i) { return (int)(i * i); },
                                std::size_t{0}};
  auto z = st::zip_stream{t1, t2};
  auto m1 = st::map_stream{z, [](const std::pair<int, int>& p) {
                             return p.first + p.second;
                           }};
  auto sc = st::scan_inclusive_stream{m1, [](int a, int b) { return a + b; },
                                      0};
  auto m2 = st::map_stream{sc, [](int x) { return x * 10; }};
  // inputs: i + i^2 = 0, 2, 6, 12; inclusive sums: 0, 2, 8, 20; x10.
  EXPECT_EQ(drain(m2, 4), (std::vector<int>{0, 20, 80, 200}));
}

TEST(Streams, ConstructionDoesNotEvaluate) {
  // Building a pipeline must not call the element function (O(1) cost,
  // Fig. 8's "these operations require only O(1) work").
  int calls = 0;
  auto t = st::tabulate_stream{[&calls](std::size_t i) {
                                 ++calls;
                                 return (int)i;
                               },
                               std::size_t{0}};
  auto m = st::map_stream{t, [](int x) { return x + 1; }};
  auto s = st::scan_stream{m, [](int a, int b) { return a + b; }, 0};
  EXPECT_EQ(calls, 0);
  (void)s.next();
  EXPECT_EQ(calls, 1);
}

TEST(Streams, MoveOnlyValuesFlowThroughPack) {
  auto base = st::tabulate_stream{
      [](std::size_t i) { return std::make_unique<int>((int)i); },
      std::size_t{0}};
  pbds::memory::tracked_vector<std::unique_ptr<int>> out;
  st::pack(base, 5, [](const std::unique_ptr<int>& p) { return *p > 2; },
           out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(*out[0], 3);
  EXPECT_EQ(*out[1], 4);
}

// --- exact-size packing ---------------------------------------------------

// Element i of a test block, and the index it was made from.
template <typename T>
T make_elem(std::size_t i) {
  if constexpr (std::is_same_v<T, std::unique_ptr<int>>)
    return std::make_unique<int>(static_cast<int>(i));
  else if constexpr (std::is_same_v<T, std::int64_t>)
    return static_cast<std::int64_t>(i);
  else if constexpr (std::is_same_v<T, pbds::geom::point2d>)
    return T{static_cast<double>(i), -static_cast<double>(i)};
  else
    return T(static_cast<std::uint8_t>(i), static_cast<std::uint32_t>(i));
}

std::size_t index_of(const std::unique_ptr<int>& x) {
  return static_cast<std::size_t>(*x);
}
std::size_t index_of(std::int64_t x) { return static_cast<std::size_t>(x); }
std::size_t index_of(const std::pair<std::uint8_t, std::uint32_t>& x) {
  return x.second;
}
std::size_t index_of(const pbds::geom::point2d& x) {
  return static_cast<std::size_t>(x.x);
}

// i * 37 permutes 0..2047 modulo 2048, so exactly 1000 of every 2048
// consecutive indices survive.
bool survives(std::size_t i) { return (i * 37) % 2048 < 1000; }

// Packs n elements of a tabulated block (and, for copyable T, of the same
// block read from memory, with the bulk gate on and off) through both
// pack and pack_op, checking the survivors against the expected indices,
// that the predicate ran once per element, and the block's allocations
// against `check`.
template <typename T, typename Check>
void pack_every_way(std::size_t n, bool (*keep)(std::size_t),
                    const Check& check) {
  std::vector<std::size_t> want;
  for (std::size_t i = 0; i < n; ++i)
    if (keep(i)) want.push_back(i);
  std::size_t calls = 0;
  auto pred = [keep, &calls](const T& x) {
    ++calls;
    return keep(index_of(x));
  };
  auto op = [keep, &calls](auto&& x) -> std::optional<T> {
    ++calls;
    if (!keep(index_of(x))) return std::nullopt;
    return std::optional<T>(std::forward<decltype(x)>(x));
  };
  auto run = [&](const char* how, auto s) {
    SCOPED_TRACE(how);
    for (int use_op = 0; use_op < 2; ++use_op) {
      SCOPED_TRACE(use_op ? "pack_op" : "pack");
      std::int64_t live = pbds::memory::bytes_live();
      {
        pbds::memory::tracked_vector<T> out;
        pbds::memory::space_meter m;
        calls = 0;
        if (use_op)
          st::pack_op(s, n, op, out);
        else
          st::pack(s, n, pred, out);
        EXPECT_EQ(calls, n);
        check(m);
        ASSERT_EQ(out.size(), want.size());
        for (std::size_t k = 0; k < want.size(); ++k)
          ASSERT_EQ(index_of(out[k]), want[k]) << "survivor " << k;
      }
      EXPECT_EQ(pbds::memory::bytes_live(), live);
    }
  };
  run("tabulate_stream",
      st::tabulate_stream{[](std::size_t i) { return make_elem<T>(i); },
                          std::size_t{0}});
  if constexpr (std::is_copy_constructible_v<T>) {
    std::vector<T> mem;
    for (std::size_t i = 0; i < n; ++i) mem.push_back(make_elem<T>(i));
    run("pointer_stream", st::pointer_stream<T>{mem.data()});
    st::scoped_bulk_disable off;
    run("pointer_stream, bulk off", st::pointer_stream<T>{mem.data()});
  }
}

template <typename T>
void pack_allocates_once_per_block() {
  SCOPED_TRACE(sizeof(T));
  // One 2048-element block: exactly one allocation of exactly the 1000
  // survivors, not a doubling sequence.
  pack_every_way<T>(2048, survives,
                    [](const pbds::memory::space_meter& m) {
                      EXPECT_EQ(m.alloc_count(), 1);
                      EXPECT_EQ(m.allocated_bytes(),
                                static_cast<std::int64_t>(1000 * sizeof(T)));
                    });
  // No survivors, no allocation.
  pack_every_way<T>(
      2048, [](std::size_t) { return false; },
      [](const pbds::memory::space_meter& m) {
        EXPECT_EQ(m.alloc_count(), 0);
        EXPECT_EQ(m.allocated_bytes(), 0);
      });
  // A block many times the stage: every survivor, in order, and
  // everything freed (checked by pack_every_way).
  pack_every_way<T>(std::size_t{1} << 16, survives,
                    [](const pbds::memory::space_meter& m) {
                      EXPECT_GE(m.alloc_count(), 1);
                    });
}

TEST(Streams, PackAllocatesOncePerBlock) {
  pack_allocates_once_per_block<std::int64_t>();
  pack_allocates_once_per_block<std::pair<std::uint8_t, std::uint32_t>>();
  pack_allocates_once_per_block<pbds::geom::point2d>();
  pack_allocates_once_per_block<std::unique_ptr<int>>();
}

}  // namespace
