#pragma once

/// @file algebra.hpp
/// The algebraic building blocks of GraphBLAS: unary operators, binary
/// operators, monoids (binary op + identity), and semirings (additive monoid
/// + multiplicative binary op). Graph algorithms select their semantics by
/// choosing a semiring: plus-times is linear algebra, min-plus is shortest
/// paths, or-and is reachability, min-select2nd propagates parent ids, ...
///
/// All functors are stateless value types so they can be freely copied into
/// simulated device kernels.

#include <algorithm>
#include <cmath>
#include <concepts>
#include <limits>
#include <type_traits>

#include "gbtl/types.hpp"

namespace grb {

// ---------------------------------------------------------------------------
// Unary operators
// ---------------------------------------------------------------------------

template <typename T>
struct Identity {
  using result_type = T;
  constexpr T operator()(const T& v) const { return v; }
};

template <typename T>
struct AdditiveInverse {
  using result_type = T;
  constexpr T operator()(const T& v) const { return -v; }
};

template <typename T>
struct MultiplicativeInverse {
  using result_type = T;
  constexpr T operator()(const T& v) const { return T{1} / v; }
};

template <typename T>
struct LogicalNot {
  using result_type = T;
  constexpr T operator()(const T& v) const { return static_cast<T>(!v); }
};

template <typename T>
struct Abs {
  using result_type = T;
  constexpr T operator()(const T& v) const { return v < T{0} ? -v : v; }
};

/// apply()-style "bind second argument" adapters, used pervasively by the
/// algorithms (e.g. scale a vector by a constant).
template <typename T, typename BinaryOp>
struct BindSecond {
  using result_type = T;
  BinaryOp op{};
  T rhs{};
  constexpr BindSecond() = default;
  constexpr explicit BindSecond(T rhs_value) : rhs(rhs_value) {}
  constexpr T operator()(const T& lhs) const { return op(lhs, rhs); }
};

template <typename T, typename BinaryOp>
struct BindFirst {
  using result_type = T;
  BinaryOp op{};
  T lhs{};
  constexpr BindFirst() = default;
  constexpr explicit BindFirst(T lhs_value) : lhs(lhs_value) {}
  constexpr T operator()(const T& rhs) const { return op(lhs, rhs); }
};

// ---------------------------------------------------------------------------
// Binary operators
// ---------------------------------------------------------------------------

template <typename T>
struct Plus {
  using result_type = T;
  constexpr T operator()(const T& a, const T& b) const { return a + b; }
};

template <typename T>
struct Minus {
  using result_type = T;
  constexpr T operator()(const T& a, const T& b) const { return a - b; }
};

template <typename T>
struct Times {
  using result_type = T;
  constexpr T operator()(const T& a, const T& b) const { return a * b; }
};

template <typename T>
struct Div {
  using result_type = T;
  constexpr T operator()(const T& a, const T& b) const { return a / b; }
};

template <typename T>
struct Min {
  using result_type = T;
  constexpr T operator()(const T& a, const T& b) const {
    return b < a ? b : a;
  }
};

template <typename T>
struct Max {
  using result_type = T;
  constexpr T operator()(const T& a, const T& b) const {
    return a < b ? b : a;
  }
};

/// first(a, b) = a — with min/max monoids this builds "select" semirings
/// that propagate ids instead of combining values.
template <typename T>
struct First {
  using result_type = T;
  constexpr T operator()(const T& a, const T&) const { return a; }
};

template <typename T>
struct Second {
  using result_type = T;
  constexpr T operator()(const T&, const T& b) const { return b; }
};

template <typename T>
struct LogicalOr {
  using result_type = T;
  constexpr T operator()(const T& a, const T& b) const {
    return static_cast<T>(a || b);
  }
};

template <typename T>
struct LogicalAnd {
  using result_type = T;
  constexpr T operator()(const T& a, const T& b) const {
    return static_cast<T>(a && b);
  }
};

template <typename T>
struct LogicalXor {
  using result_type = T;
  constexpr T operator()(const T& a, const T& b) const {
    return static_cast<T>(static_cast<bool>(a) != static_cast<bool>(b));
  }
};

template <typename T>
struct Equal {
  using result_type = T;
  constexpr T operator()(const T& a, const T& b) const {
    return static_cast<T>(a == b);
  }
};

template <typename T>
struct NotEqual {
  using result_type = T;
  constexpr T operator()(const T& a, const T& b) const {
    return static_cast<T>(a != b);
  }
};

template <typename T>
struct GreaterThan {
  using result_type = T;
  constexpr T operator()(const T& a, const T& b) const {
    return static_cast<T>(a > b);
  }
};

template <typename T>
struct LessThan {
  using result_type = T;
  constexpr T operator()(const T& a, const T& b) const {
    return static_cast<T>(a < b);
  }
};

// ---------------------------------------------------------------------------
// Monoids: associative binary op with identity
// ---------------------------------------------------------------------------

template <typename T>
struct PlusMonoid {
  using result_type = T;
  constexpr T identity() const { return T{0}; }
  constexpr T operator()(const T& a, const T& b) const { return a + b; }
};

template <typename T>
struct TimesMonoid {
  using result_type = T;
  constexpr T identity() const { return T{1}; }
  constexpr T operator()(const T& a, const T& b) const { return a * b; }
};

/// Some monoids also carry an *annihilator* a with op(a, x) == a for all x:
/// once a fold reaches it no further input can change the result. Kernels
/// exploit this to stop early (a pull-direction BFS row can quit on the
/// first frontier hit). Monoids advertise it via an `annihilator()` member;
/// absence of the member means "no early exit is sound". Min/max only claim
/// one for non-floating-point types: with IEEE values, lowest()/max() are
/// reachable-but-not-absorbing relative to infinities and NaN propagation,
/// so floating min/max folds must always run to completion.

template <typename T>
struct MinMonoid {
  using result_type = T;
  constexpr T identity() const {
    if constexpr (std::numeric_limits<T>::has_infinity)
      return std::numeric_limits<T>::infinity();
    else
      return std::numeric_limits<T>::max();
  }
  constexpr T annihilator() const
    requires(!std::is_floating_point_v<T>)
  {
    return std::numeric_limits<T>::lowest();
  }
  constexpr T operator()(const T& a, const T& b) const {
    return b < a ? b : a;
  }
};

template <typename T>
struct MaxMonoid {
  using result_type = T;
  constexpr T identity() const {
    if constexpr (std::numeric_limits<T>::has_infinity)
      return -std::numeric_limits<T>::infinity();
    else
      return std::numeric_limits<T>::lowest();
  }
  constexpr T annihilator() const
    requires(!std::is_floating_point_v<T>)
  {
    return std::numeric_limits<T>::max();
  }
  constexpr T operator()(const T& a, const T& b) const {
    return a < b ? b : a;
  }
};

template <typename T>
struct LogicalOrMonoid {
  using result_type = T;
  constexpr T identity() const { return static_cast<T>(false); }
  constexpr T annihilator() const { return static_cast<T>(true); }
  constexpr T operator()(const T& a, const T& b) const {
    return static_cast<T>(a || b);
  }
};

template <typename T>
struct LogicalAndMonoid {
  using result_type = T;
  constexpr T identity() const { return static_cast<T>(true); }
  constexpr T annihilator() const { return static_cast<T>(false); }
  constexpr T operator()(const T& a, const T& b) const {
    return static_cast<T>(a && b);
  }
};

// ---------------------------------------------------------------------------
// Semirings
// ---------------------------------------------------------------------------

/// Generic semiring assembled from an additive monoid and a multiplicative
/// binary operator. `zero()` is the additive identity, i.e. the implicit
/// value of missing sparse entries.
template <typename AddMonoid, typename MultOp>
struct Semiring {
  using result_type = typename AddMonoid::result_type;
  AddMonoid add_monoid{};
  MultOp mult_op{};

  constexpr result_type zero() const { return add_monoid.identity(); }
  constexpr result_type add(const result_type& a, const result_type& b) const {
    return add_monoid(a, b);
  }
  /// Forwarded additive annihilator, present only when the monoid has one
  /// (see the monoid section) — the license for pull-side early exit.
  constexpr result_type annihilator() const
    requires requires(const AddMonoid m) { m.annihilator(); }
  {
    return add_monoid.annihilator();
  }
  template <typename A, typename B>
  constexpr result_type mult(const A& a, const B& b) const {
    return mult_op(static_cast<result_type>(a), static_cast<result_type>(b));
  }
};

/// (+, *): ordinary linear algebra; counts paths, accumulates ranks.
template <typename T>
using ArithmeticSemiring = Semiring<PlusMonoid<T>, Times<T>>;

/// (min, +): shortest paths / tropical algebra.
template <typename T>
using MinPlusSemiring = Semiring<MinMonoid<T>, Plus<T>>;

/// (max, +): longest (critical) paths over DAG relaxations.
template <typename T>
using MaxPlusSemiring = Semiring<MaxMonoid<T>, Plus<T>>;

/// (min, *): widest-ratio style compositions.
template <typename T>
using MinTimesSemiring = Semiring<MinMonoid<T>, Times<T>>;

/// (max, *) with values in [0,1]: most-probable path.
template <typename T>
using MaxTimesSemiring = Semiring<MaxMonoid<T>, Times<T>>;

/// (or, and): boolean reachability — one BFS step is vxm over this.
template <typename T>
using LogicalSemiring = Semiring<LogicalOrMonoid<T>, LogicalAnd<T>>;

/// (min, select2nd): frontier expansion that propagates the *destination*
/// side value (e.g. candidate parent ids or tentative distances).
template <typename T>
using MinSelect2ndSemiring = Semiring<MinMonoid<T>, Second<T>>;

/// (max, select2nd): like above with max reduction — BFS parent selection.
template <typename T>
using MaxSelect2ndSemiring = Semiring<MaxMonoid<T>, Second<T>>;

/// (min, select1st): propagate the *source* side value.
template <typename T>
using MinSelect1stSemiring = Semiring<MinMonoid<T>, First<T>>;

/// (+, select1st): vxm sums the vector entry of every stored edge, whatever
/// the edge's value — PageRank pushes pre-scaled ranks through the graph.
template <typename T>
using PlusSelect1stSemiring = Semiring<PlusMonoid<T>, First<T>>;

/// (+, select2nd): mxv against a vector of ones counts each row's stored
/// entries, whatever their values — the out-degree.
template <typename T>
using PlusSelect2ndSemiring = Semiring<PlusMonoid<T>, Second<T>>;

/// (+, min): capacity-style aggregation (sum of bottlenecks).
template <typename T>
using PlusMinSemiring = Semiring<PlusMonoid<T>, Min<T>>;

// ---------------------------------------------------------------------------
// Concepts (compile-time validation of algebra arguments)
// ---------------------------------------------------------------------------

template <typename Op, typename T>
concept UnaryOpFor = requires(const Op op, const T v) {
  { op(v) } -> std::convertible_to<T>;
};

template <typename Op, typename T>
concept BinaryOpFor = requires(const Op op, const T a, const T b) {
  { op(a, b) } -> std::convertible_to<T>;
};

template <typename M, typename T>
concept MonoidFor = BinaryOpFor<M, T> && requires(const M m) {
  { m.identity() } -> std::convertible_to<T>;
};

template <typename S, typename T>
concept SemiringFor = requires(const S s, const T a, const T b) {
  { s.zero() } -> std::convertible_to<T>;
  { s.add(a, b) } -> std::convertible_to<T>;
  { s.mult(a, b) } -> std::convertible_to<T>;
};

/// Either NoAccumulate or a binary operator over T.
template <typename A, typename T>
concept AccumulatorFor = std::same_as<A, NoAccumulate> || BinaryOpFor<A, T>;

/// A semiring whose additive monoid saturates at a known annihilator —
/// folds may stop as soon as the accumulator equals it.
template <typename S>
concept SaturatingSemiring = requires(const S s) { s.annihilator(); };

template <typename S>
constexpr bool has_annihilator_v = SaturatingSemiring<S>;

}  // namespace grb
