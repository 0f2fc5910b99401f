// Library policies — the evaluation's three library versions (Fig. 12)
// behind one compile-time interface.
//
// Every benchmark kernel in src/benchmarks/ is written once as a template
// over a policy P and instantiated three times:
//
//   array_policy  (A)    — eager arrays, no fusion        (src/array)
//   rad_policy    (R)    — RAD-only fusion                (src/rad)
//   delay_policy  (Ours) — full RAD + BID fusion          (src/core)
//
// This mirrors the paper artifact's BENCHMARK.{array,rad,delay}.cpp files
// while guaranteeing the three versions differ *only* in the sequence
// library — the comparison measures the library, not incidental coding
// differences.
//
// The policy surface is the paper's Fig. 1 interface plus the conversion
// functions of Fig. 9 (`to_array`, `force`), `apply_each`, and `fold`, a
// reduce whose accumulator type may differ from the element type.
#pragma once

#include <cstddef>
#include <utility>

#include "array/array_ops.hpp"
#include "array/parray.hpp"
#include "core/delayed.hpp"
#include "rad/rad_ops.hpp"

namespace pbds {

// --- A: eager arrays, no fusion ---------------------------------------------

struct array_policy {
  static constexpr const char* name = "array";
  static constexpr const char* abbr = "A";

  template <typename T>
  static const parray<T>& view(const parray<T>& a) {
    return a;
  }
  template <typename Seq>
  static std::size_t length(const Seq& s) {
    return s.size();
  }
  template <typename F>
  static auto tabulate(std::size_t n, F f) {
    return array_ops::tabulate(n, std::move(f));
  }
  static auto iota(std::size_t n) { return array_ops::iota(n); }
  template <typename F, typename Seq>
  static auto map(F f, const Seq& s) {
    return array_ops::map(std::move(f), s);
  }
  template <typename S1, typename S2>
  static auto zip(const S1& a, const S2& b) {
    return array_ops::zip(a, b);
  }
  template <typename F, typename T, typename Seq>
  static T reduce(F f, T z, const Seq& s) {
    return array_ops::reduce(f, z, s);
  }
  template <typename Step, typename C, typename T, typename Seq>
  static T fold(Step step, C combine, T z, const Seq& s) {
    return array_ops::fold(step, combine, std::move(z), s);
  }
  template <typename F, typename T, typename Seq>
  static auto scan(F f, T z, const Seq& s) {
    return array_ops::scan(f, z, s);
  }
  template <typename F, typename T, typename Seq>
  static auto scan_inclusive(F f, T z, const Seq& s) {
    return array_ops::scan_inclusive(f, z, s);
  }
  template <typename P, typename Seq>
  static auto filter(P p, const Seq& s) {
    return array_ops::filter(p, s);
  }
  template <typename F, typename Seq>
  static auto filter_op(F f, const Seq& s) {
    return array_ops::filter_op(f, s);
  }
  template <typename Seq>
  static auto flatten(const Seq& s) {
    return array_ops::flatten(s);
  }
  template <typename Seq, typename G>
  static void apply_each(const Seq& s, const G& g) {
    array_ops::apply_each(s, g);
  }
  // Already materialized: move through (rvalues) or deep-copy (lvalues).
  template <typename T>
  static parray<T> to_array(parray<T>&& a) {
    return std::move(a);
  }
  template <typename T>
  static parray<T> to_array(const parray<T>& a) {
    return a.clone();
  }
};

// --- R: RAD-only fusion -------------------------------------------------------

struct rad_policy {
  static constexpr const char* name = "rad";
  static constexpr const char* abbr = "R";

  template <typename T>
  static auto view(const parray<T>& a) {
    return radlib::view(a);
  }
  template <typename Seq>
  static std::size_t length(const Seq& s) {
    return radlib::length(s);
  }
  template <typename F>
  static auto tabulate(std::size_t n, F f) {
    return radlib::tabulate(n, std::move(f));
  }
  static auto iota(std::size_t n) { return radlib::iota(n); }
  template <typename F, typename Seq>
  static auto map(F f, const Seq& s) {
    return radlib::map(std::move(f), s);
  }
  template <typename S1, typename S2>
  static auto zip(const S1& a, const S2& b) {
    return radlib::zip(a, b);
  }
  template <typename F, typename T, typename Seq>
  static T reduce(F f, T z, const Seq& s) {
    return radlib::reduce(f, z, s);
  }
  template <typename Step, typename C, typename T, typename Seq>
  static T fold(Step step, C combine, T z, const Seq& s) {
    return radlib::fold(step, combine, std::move(z), s);
  }
  template <typename F, typename T, typename Seq>
  static auto scan(F f, T z, const Seq& s) {
    return radlib::scan(f, z, s);
  }
  template <typename F, typename T, typename Seq>
  static auto scan_inclusive(F f, T z, const Seq& s) {
    return radlib::scan_inclusive(f, z, s);
  }
  template <typename P, typename Seq>
  static auto filter(P p, const Seq& s) {
    return radlib::filter(p, s);
  }
  template <typename F, typename Seq>
  static auto filter_op(F f, const Seq& s) {
    return radlib::filter_op(f, s);
  }
  template <typename Seq>
  static auto flatten(const Seq& s) {
    return radlib::flatten(s);
  }
  template <typename Seq, typename G>
  static void apply_each(const Seq& s, const G& g) {
    radlib::apply_each(s, g);
  }
  template <typename Seq>
  static auto to_array(Seq&& s) {
    return radlib::to_array(s);
  }
};

// --- Ours: full RAD + BID fusion ------------------------------------------------

struct delay_policy {
  static constexpr const char* name = "delay";
  static constexpr const char* abbr = "Ours";

  template <typename T>
  static auto view(const parray<T>& a) {
    return delayed::view(a);
  }
  template <typename Seq>
  static std::size_t length(const Seq& s) {
    return delayed::length(s);
  }
  template <typename F>
  static auto tabulate(std::size_t n, F f) {
    return delayed::tabulate(n, std::move(f));
  }
  static auto iota(std::size_t n) { return delayed::iota(n); }
  template <typename F, typename Seq>
  static auto map(F f, const Seq& s) {
    return delayed::map(std::move(f), s);
  }
  template <typename S1, typename S2>
  static auto zip(const S1& a, const S2& b) {
    return delayed::zip(a, b);
  }
  template <typename F, typename T, typename Seq>
  static T reduce(F f, T z, const Seq& s) {
    return delayed::reduce(f, z, s);
  }
  template <typename Step, typename C, typename T, typename Seq>
  static T fold(Step step, C combine, T z, const Seq& s) {
    return delayed::fold(step, combine, std::move(z), s);
  }
  template <typename F, typename T, typename Seq>
  static auto scan(F f, T z, const Seq& s) {
    return delayed::scan(f, z, s);
  }
  template <typename F, typename T, typename Seq>
  static auto scan_inclusive(F f, T z, const Seq& s) {
    return delayed::scan_inclusive(f, z, s);
  }
  template <typename P, typename Seq>
  static auto filter(P p, const Seq& s) {
    return delayed::filter(p, s);
  }
  template <typename F, typename Seq>
  static auto filter_op(F f, const Seq& s) {
    return delayed::filter_op(f, s);
  }
  template <typename Seq>
  static auto flatten(const Seq& s) {
    return delayed::flatten(s);
  }
  template <typename Seq, typename G>
  static void apply_each(const Seq& s, const G& g) {
    delayed::apply_each(s, g);
  }
  template <typename Seq>
  static auto to_array(Seq&& s) {
    return delayed::to_array(s);
  }
};

}  // namespace pbds
