#pragma once

/// @file triangle_count.hpp
/// Triangle counting — the showcase for masked mxm (Abl. B). Three
/// formulations over an undirected (symmetric) graph:
///   - masked "Sandia": C<L> = L·L, count = sum(C). The mask prunes the
///     SpGEMM to wedge closures that can actually be triangles.
///   - unmasked-then-filter: C = L·L, then C .* L — computes the same
///     number while paying for the full product (the ablation baseline).
///   - Burkhardt: trace-style count = sum(A·A .* A) / 6.
///
/// Why L·L and not L·Lᵀ: both count each triangle exactly once, but a
/// product's cost is its wedge count. Let lo(k) and hi(k) be the numbers of
/// neighbours of k with a smaller and a larger id. L·L pairs each larger
/// neighbour of k with each smaller one, Σ_k lo(k)·hi(k) products; L·Lᵀ
/// pairs the larger neighbours with each other, Σ_k hi(k)². Graph500 R-MAT
/// puts its hubs at low ids, where hi(k) is large: on the symmetric scale-14
/// edge-factor-8 graph that is 6.2 M products against 32.0 M. L·L also
/// takes no transpose operand, so no backend builds one.
///
/// Every backend drops the wedge products outside L before they reach the
/// output: the GPU hash engine seeds its tables from the mask and ESC
/// filters before its sort (docs/spgemm_adaptive.md); the CPU backends'
/// mask-seeded Gustavson skips them before multiplying.

#include "gbtl/gbtl.hpp"

namespace algorithms {

/// Strict lower triangle of @p graph as a pattern (1-valued) matrix.
template <typename T, typename Tag>
grb::Matrix<T, Tag> lower_triangle(const grb::Matrix<T, Tag>& graph) {
  grb::Matrix<T, Tag> L(graph.nrows(), graph.ncols());
  grb::select(L, grb::NoMask{}, grb::NoAccumulate{},
              [](grb::IndexType i, grb::IndexType j, const T&) {
                return j < i;
              },
              graph);
  return L;
}

/// Masked (Sandia) triangle count; input must be symmetric with an empty
/// diagonal. This is the formulation whose cost the masked-mxm fast path
/// determines.
template <typename T, typename Tag>
std::uint64_t triangle_count_masked(const grb::Matrix<T, Tag>& graph,
                                    const grb::ExecutionPolicy& policy = {}) {
  using CountT = std::uint64_t;
  if (graph.nrows() != graph.ncols())
    throw grb::DimensionException("triangle_count: graph must be square");
  // Not iterative, but the one masked SpGEMM dominates the cost: check the
  // policy once up front so an already-expired query never launches it.
  policy.checkpoint("triangle_count_masked");
  grb::Matrix<CountT, Tag> L(graph.nrows(), graph.ncols());
  grb::apply(L, grb::NoMask{}, grb::NoAccumulate{},
             [](const T&) { return CountT{1}; }, lower_triangle(graph));
  grb::Matrix<CountT, Tag> C(graph.nrows(), graph.ncols());
  grb::mxm(C, grb::structure(L), grb::NoAccumulate{},
           grb::ArithmeticSemiring<CountT>{}, L, L, grb::Replace);
  CountT total = 0;
  grb::reduce(total, grb::NoAccumulate{}, grb::PlusMonoid<CountT>{}, C);
  return total;
}

/// Ablation baseline: same count via the full (unmasked) product followed
/// by an elementwise filter.
template <typename T, typename Tag>
std::uint64_t triangle_count_unmasked(const grb::Matrix<T, Tag>& graph) {
  using CountT = std::uint64_t;
  if (graph.nrows() != graph.ncols())
    throw grb::DimensionException("triangle_count: graph must be square");
  grb::Matrix<CountT, Tag> L(graph.nrows(), graph.ncols());
  grb::apply(L, grb::NoMask{}, grb::NoAccumulate{},
             [](const T&) { return CountT{1}; }, lower_triangle(graph));
  grb::Matrix<CountT, Tag> C(graph.nrows(), graph.ncols());
  grb::mxm(C, grb::NoMask{}, grb::NoAccumulate{},
           grb::ArithmeticSemiring<CountT>{}, L, L);
  grb::Matrix<CountT, Tag> filtered(graph.nrows(), graph.ncols());
  grb::eWiseMult(filtered, grb::NoMask{}, grb::NoAccumulate{},
                 grb::First<CountT>{}, C, L);
  CountT total = 0;
  grb::reduce(total, grb::NoAccumulate{}, grb::PlusMonoid<CountT>{},
              filtered);
  return total;
}

/// Burkhardt formulation: sum(A·A .* A) / 6 on the full symmetric matrix.
template <typename T, typename Tag>
std::uint64_t triangle_count_burkhardt(const grb::Matrix<T, Tag>& graph) {
  using CountT = std::uint64_t;
  if (graph.nrows() != graph.ncols())
    throw grb::DimensionException("triangle_count: graph must be square");
  grb::Matrix<CountT, Tag> A(graph.nrows(), graph.ncols());
  grb::apply(A, grb::NoMask{}, grb::NoAccumulate{},
             [](const T&) { return CountT{1}; }, graph);
  grb::Matrix<CountT, Tag> C(graph.nrows(), graph.ncols());
  grb::mxm(C, grb::structure(A), grb::NoAccumulate{},
           grb::ArithmeticSemiring<CountT>{}, A, A, grb::Replace);
  CountT total = 0;
  grb::reduce(total, grb::NoAccumulate{}, grb::PlusMonoid<CountT>{}, C);
  return total / 6;
}

/// Per-vertex triangle counts (for clustering coefficients): t[i] =
/// number of triangles through i. Input must be symmetric, empty diagonal.
template <typename T, typename Tag>
grb::Vector<std::uint64_t, Tag> triangles_per_vertex(
    const grb::Matrix<T, Tag>& graph) {
  using CountT = std::uint64_t;
  grb::Matrix<CountT, Tag> A(graph.nrows(), graph.ncols());
  grb::apply(A, grb::NoMask{}, grb::NoAccumulate{},
             [](const T&) { return CountT{1}; }, graph);
  grb::Matrix<CountT, Tag> C(graph.nrows(), graph.ncols());
  grb::mxm(C, grb::structure(A), grb::NoAccumulate{},
           grb::ArithmeticSemiring<CountT>{}, A, A, grb::Replace);
  grb::Vector<CountT, Tag> t(graph.nrows());
  grb::reduce(t, grb::NoMask{}, grb::NoAccumulate{},
              grb::PlusMonoid<CountT>{}, C);
  grb::apply(t, grb::NoMask{}, grb::NoAccumulate{},
             grb::BindSecond<CountT, grb::Div<CountT>>{2}, t);
  return t;
}

}  // namespace algorithms
