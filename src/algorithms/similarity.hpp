#pragma once

/// @file similarity.hpp
/// Neighbourhood-similarity measures for link prediction:
///   - common neighbours / Jaccard scores over all wedge-connected pairs,
///     computed as one (masked) SpGEMM plus an index-aware rescale;
///   - bipartiteness check via 2-coloring with BFS parity.

#include <algorithm>
#include <memory>
#include <tuple>
#include <vector>

#include "algorithms/bfs.hpp"
#include "algorithms/connected_components.hpp"
#include "gbtl/gbtl.hpp"

namespace algorithms {

/// Common-neighbour counts: C(i,j) = |N(i) ∩ N(j)| for every pair reachable
/// by a wedge (2-hop). Input must be symmetric with an empty diagonal.
/// Self-pairs are dropped; with @p exclude_edges, directly-connected pairs
/// are dropped too (the link-prediction convention: score only *candidate*
/// links).
template <typename T, typename Tag>
grb::Matrix<double, Tag> common_neighbors(const grb::Matrix<T, Tag>& graph,
                                          bool exclude_edges = true) {
  using grb::IndexType;
  const IndexType n = graph.nrows();
  if (graph.ncols() != n)
    throw grb::DimensionException("similarity: graph must be square");

  grb::Matrix<double, Tag> A(n, n);
  grb::apply(A, grb::NoMask{}, grb::NoAccumulate{},
             [](const T&) { return 1.0; }, graph);
  grb::Matrix<double, Tag> C(n, n);
  if (exclude_edges) {
    // Score only non-adjacent pairs: complement-structure mask prunes the
    // SpGEMM output to candidate links.
    grb::mxm(C, grb::complement(grb::structure(A)), grb::NoAccumulate{},
             grb::ArithmeticSemiring<double>{}, A, A, grb::Replace);
  } else {
    grb::mxm(C, grb::NoMask{}, grb::NoAccumulate{},
             grb::ArithmeticSemiring<double>{}, A, A, grb::Replace);
  }
  // Drop the diagonal (|N(i) ∩ N(i)| = deg(i), not a candidate link).
  grb::Matrix<double, Tag> off_diag(n, n);
  grb::select(off_diag, grb::NoMask{}, grb::NoAccumulate{},
              [](IndexType i, IndexType j, double) { return i != j; }, C,
              grb::Replace);
  return off_diag;
}

/// Jaccard similarity J(i,j) = |N(i)∩N(j)| / |N(i)∪N(j)| over the same
/// pair set as common_neighbors().
template <typename T, typename Tag>
grb::Matrix<double, Tag> jaccard_similarity(const grb::Matrix<T, Tag>& graph,
                                            bool exclude_edges = true) {
  using grb::IndexType;
  const IndexType n = graph.nrows();
  auto C = common_neighbors(graph, exclude_edges);

  // Degrees, downloaded once and captured by the rescale functor (degree
  // lookup per entry — a gather in a real device kernel).
  grb::Matrix<double, Tag> A(n, n);
  grb::apply(A, grb::NoMask{}, grb::NoAccumulate{},
             [](const T&) { return 1.0; }, graph);
  grb::Vector<double, Tag> deg_vec(n);
  grb::reduce(deg_vec, grb::NoMask{}, grb::NoAccumulate{},
              grb::PlusMonoid<double>{}, A);
  auto deg = std::make_shared<std::vector<double>>(n, 0.0);
  {
    grb::IndexArrayType idx;
    std::vector<double> vals;
    deg_vec.extractTuples(idx, vals);
    for (IndexType k = 0; k < idx.size(); ++k) (*deg)[idx[k]] = vals[k];
  }

  grb::Matrix<double, Tag> J(n, n);
  grb::applyIndexed(J, grb::NoMask{}, grb::NoAccumulate{},
                    [deg](IndexType i, IndexType j, double common) {
                      const double uni = (*deg)[i] + (*deg)[j] - common;
                      return uni > 0.0 ? common / uni : 0.0;
                    },
                    C, grb::Replace);
  return J;
}

/// Top-k candidate links by Jaccard score (host-side selection over the
/// scored pairs; unordered pairs reported once with i < j).
template <typename T, typename Tag>
std::vector<std::tuple<grb::IndexType, grb::IndexType, double>>
top_link_predictions(const grb::Matrix<T, Tag>& graph, std::size_t k) {
  auto J = jaccard_similarity(graph, /*exclude_edges=*/true);
  grb::IndexArrayType rows, cols;
  std::vector<double> scores;
  J.extractTuples(rows, cols, scores);
  std::vector<std::tuple<grb::IndexType, grb::IndexType, double>> pairs;
  for (grb::IndexType e = 0; e < rows.size(); ++e)
    if (rows[e] < cols[e])
      pairs.emplace_back(rows[e], cols[e], scores[e]);
  std::sort(pairs.begin(), pairs.end(), [](const auto& a, const auto& b) {
    return std::get<2>(a) > std::get<2>(b);
  });
  if (pairs.size() > k) pairs.resize(k);
  return pairs;
}

/// Is the (symmetric) graph bipartite? BFS parity per component: an edge
/// between two vertices at the same level is an odd cycle.
template <typename T, typename Tag>
bool is_bipartite(const grb::Matrix<T, Tag>& graph) {
  using grb::IndexType;
  const IndexType n = graph.nrows();
  if (graph.ncols() != n)
    throw grb::DimensionException("bipartite: graph must be square");

  // One BFS for every component at once, rooted at each component's
  // smallest vertex (the vertices that keep their own label), so a graph
  // of many components pays one level loop and one bulk read.
  grb::Vector<IndexType, Tag> labels(n), roots(n), levels(n);
  connected_components(graph, labels);
  grb::select(roots, grb::NoMask{}, grb::NoAccumulate{},
              [](IndexType i, IndexType label) { return i == label; },
              labels);
  grb::Vector<bool, Tag> frontier(n);
  grb::assign(frontier, grb::structure(roots), grb::NoAccumulate{}, true,
              grb::GrB_ALL);
  detail::bfs_levels_from(graph, frontier, levels, grb::ExecutionPolicy{});
  std::vector<IndexType> level(n, 0);
  grb::IndexArrayType idx;
  std::vector<IndexType> lvls;
  levels.extractTuples(idx, lvls);
  for (std::size_t k = 0; k < idx.size(); ++k) level[idx[k]] = lvls[k];
  // Parity: side[v] = level % 2. A same-side edge breaks bipartiteness.
  grb::IndexArrayType rows, cols;
  std::vector<T> vals;
  graph.extractTuples(rows, cols, vals);
  for (IndexType e = 0; e < rows.size(); ++e) {
    if (rows[e] == cols[e]) return false;  // self loop = odd cycle
    if (level[rows[e]] % 2 == level[cols[e]] % 2) return false;
  }
  return true;
}

}  // namespace algorithms
