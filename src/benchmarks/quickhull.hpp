// quickhull — 2D convex hull of points in a disk (§6: 20M points).
//
// Classic parallel quickhull: find the x-extremes, then recursively (in
// parallel, via fork2join) pick the farthest point from the dividing line
// and keep only the points outside each new edge. filter + reduce dominate;
// with fusion the distance computations feed the reduce/filter directly
// instead of materializing per-level distance arrays.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "array/parray.hpp"
#include "geom/geom.hpp"
#include "sched/parallel.hpp"

namespace pbds::bench {

using geom::point2d;

namespace detail {

// Index of the extreme point under `better` (strict), resolved by a
// reduce over (index, key) pairs. Ties break toward the lower index so all
// three libraries agree exactly.
template <typename P, typename Seq, typename Key>
std::size_t arg_extreme(const Seq& pts_seq, std::size_t n, Key key) {
  using pair_t = std::pair<std::size_t, double>;
  auto pairs = P::map(
      [key](const std::pair<std::size_t, point2d>& ip) {
        return pair_t(ip.first, key(ip.second));
      },
      P::zip(P::iota(n), pts_seq));
  auto best = P::reduce(
      [](const pair_t& a, const pair_t& b) {
        if (a.second != b.second) return a.second > b.second ? a : b;
        return a.first <= b.first ? a : b;  // deterministic ties
      },
      pair_t(static_cast<std::size_t>(-1),
             -std::numeric_limits<double>::infinity()),
      pairs);
  return best.first;
}

// Count hull points strictly outside segment l->r among `pts` (all of
// which lie on the outside half-plane of l->r), excluding l and r.
template <typename P>
std::size_t hull_rec(const parray<point2d>& pts, point2d l, point2d r) {
  if (pts.size() == 0) return 0;
  std::size_t mid = arg_extreme<P>(P::view(pts), pts.size(),
                                   [l, r](const point2d& p) {
                                     return geom::line_distance(l, r, p);
                                   });
  point2d m = pts[mid];
  auto left = P::to_array(P::filter(
      [l, m](const point2d& p) { return geom::line_distance(l, m, p) > 0; },
      P::view(pts)));
  auto right = P::to_array(P::filter(
      [m, r](const point2d& p) { return geom::line_distance(m, r, p) > 0; },
      P::view(pts)));
  std::size_t cl = 0, cr = 0;
  fork2join([&] { cl = hull_rec<P>(left, l, m); },
            [&] { cr = hull_rec<P>(right, m, r); });
  return 1 + cl + cr;
}

}  // namespace detail

// Number of points on the convex hull.
template <typename P>
std::size_t quickhull(const parray<point2d>& pts) {
  std::size_t n = pts.size();
  if (n < 3) return n;
  std::size_t imin = detail::arg_extreme<P>(
      P::view(pts), n, [](const point2d& p) { return -p.x; });
  std::size_t imax = detail::arg_extreme<P>(
      P::view(pts), n, [](const point2d& p) { return p.x; });
  point2d l = pts[imin], r = pts[imax];
  auto upper = P::to_array(P::filter(
      [l, r](const point2d& p) { return geom::line_distance(l, r, p) > 0; },
      P::view(pts)));
  auto lower = P::to_array(P::filter(
      [l, r](const point2d& p) { return geom::line_distance(r, l, p) > 0; },
      P::view(pts)));
  std::size_t cu = 0, cd = 0;
  fork2join([&] { cu = detail::hull_rec<P>(upper, l, r); },
            [&] { cd = detail::hull_rec<P>(lower, r, l); });
  return 2 + cu + cd;
}

// Reference: Andrew's monotone chain, O(n log n), strict turns (collinear
// points excluded, matching quickhull's strict > 0 tests).
inline std::size_t quickhull_reference(const parray<point2d>& pts) {
  std::size_t n = pts.size();
  if (n < 3) return n;
  std::vector<point2d> p(pts.begin(), pts.end());
  std::sort(p.begin(), p.end(), [](const point2d& a, const point2d& b) {
    return a.x != b.x ? a.x < b.x : a.y < b.y;
  });
  std::vector<point2d> hull(2 * n);
  std::size_t k = 0;
  for (std::size_t i = 0; i < n; ++i) {  // lower
    while (k >= 2 && geom::cross(hull[k - 2], hull[k - 1], p[i]) <= 0) --k;
    hull[k++] = p[i];
  }
  for (std::size_t i = n - 1, t = k + 1; i-- > 0;) {  // upper
    while (k >= t && geom::cross(hull[k - 2], hull[k - 1], p[i]) <= 0) --k;
    hull[k++] = p[i];
  }
  return k - 1;
}

}  // namespace pbds::bench
