#pragma once

/// @file kcore.hpp
/// k-core decomposition by repeated peeling, in GraphBLAS form: degrees of
/// the remaining subgraph are one mxv over plus-times against the indicator
/// of remaining vertices; vertices at or below the current k peel off and
/// inherit core number k.

#include "gbtl/gbtl.hpp"

namespace algorithms {

/// Core number of every vertex of an undirected graph (isolated vertices
/// get 0). Returns the degeneracy (maximum core number).
template <typename T, typename Tag>
grb::IndexType kcore_decomposition(const grb::Matrix<T, Tag>& graph,
                                   grb::Vector<grb::IndexType, Tag>& core,
                                   const grb::ExecutionPolicy& policy = {}) {
  using grb::IndexType;
  const IndexType n = graph.nrows();
  if (graph.ncols() != n)
    throw grb::DimensionException("kcore: graph must be square");
  if (core.size() != n)
    throw grb::DimensionException("kcore: core size mismatch");

  // Pattern matrix with 1-weights so degrees come out of plus-times.
  grb::Matrix<IndexType, Tag> P(n, n);
  grb::apply(P, grb::NoMask{}, grb::NoAccumulate{},
             [](const T&) { return IndexType{1}; }, graph);

  // remaining[v] = 1 while v is unpeeled.
  grb::Vector<IndexType, Tag> remaining(n);
  grb::assign(remaining, grb::NoMask{}, grb::NoAccumulate{}, IndexType{1},
              grb::GrB_ALL);

  core.clear();
  grb::assign(core, grb::NoMask{}, grb::NoAccumulate{}, IndexType{0},
              grb::GrB_ALL);

  grb::Vector<IndexType, Tag> degree(n), peel(n);
  IndexType k = 0;
  IndexType degeneracy = 0;

  while (remaining.nvals() > 0) {
    policy.checkpoint("kcore_decomposition");
    // Degrees within the remaining subgraph. Remaining vertices with no
    // remaining neighbour produce no entry; they are collected as
    // `isolated` below.
    grb::mxv(degree, grb::structure(remaining), grb::NoAccumulate{},
             grb::ArithmeticSemiring<IndexType>{}, P, remaining,
             grb::Replace);

    // peel = remaining vertices with degree <= k (including degree-less).
    grb::Vector<IndexType, Tag> low(n);
    grb::select(low, grb::NoMask{}, grb::NoAccumulate{},
                [k](IndexType, IndexType d) { return d <= k; }, degree,
                grb::Replace);
    // Vertices with no degree entry at all (isolated within remainder).
    grb::Vector<IndexType, Tag> isolated(n);
    grb::eWiseMult(isolated, grb::complement(grb::structure(degree)),
                   grb::NoAccumulate{}, grb::First<IndexType>{}, remaining,
                   remaining, grb::Replace);
    grb::eWiseAdd(peel, grb::NoMask{}, grb::NoAccumulate{},
                  grb::First<IndexType>{}, low, isolated, grb::Replace);

    if (peel.nvals() == 0) {
      ++k;
      continue;
    }
    degeneracy = k;
    // Record core number k for peeled vertices, remove them.
    grb::assign(core, grb::structure(peel), grb::NoAccumulate{}, k,
                grb::GrB_ALL, grb::Merge);
    grb::assign(remaining, grb::structure(peel), grb::NoAccumulate{},
                IndexType{0}, grb::GrB_ALL, grb::Merge);
    grb::select(remaining, grb::NoMask{}, grb::NoAccumulate{},
                [](IndexType, IndexType v) { return v != 0; }, remaining,
                grb::Replace);
  }
  return degeneracy;
}

/// Vertices of the k-core (indicator vector): the maximal subgraph where
/// every vertex has degree >= k.
template <typename T, typename Tag>
grb::Vector<bool, Tag> kcore_vertices(const grb::Matrix<T, Tag>& graph,
                                      grb::IndexType k) {
  grb::Vector<grb::IndexType, Tag> core(graph.nrows());
  kcore_decomposition(graph, core);
  grb::Vector<bool, Tag> members(graph.nrows());
  grb::select(members, grb::NoMask{}, grb::NoAccumulate{},
              [k](grb::IndexType, grb::IndexType c) { return c >= k; },
              core, grb::Replace);
  grb::apply(members, grb::NoMask{}, grb::NoAccumulate{},
             [](grb::IndexType) { return true; }, members);
  return members;
}

}  // namespace algorithms
