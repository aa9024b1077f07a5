#pragma once

/// @file bfs.hpp
/// Breadth-first search expressed in GraphBLAS primitives: each level is one
/// vxm over the boolean (or, and) semiring, with the set of already-visited
/// vertices masked out — the canonical example of the paper's programming
/// model (one line of linear algebra per BFS level, backend-agnostic).

#include "gbtl/gbtl.hpp"

namespace algorithms {

namespace detail {

/// The level loop behind bfs_level and is_bipartite: from the vertices of
/// @p frontier, stamp depth 1, 2, ... on the (cleared) @p levels until a
/// level reaches no new vertex.
template <typename T, typename Tag>
void bfs_levels_from(const grb::Matrix<T, Tag>& graph,
                     grb::Vector<bool, Tag>& frontier,
                     grb::Vector<grb::IndexType, Tag>& levels,
                     const grb::ExecutionPolicy& policy) {
  const grb::IndexType n = graph.nrows();
  grb::IndexType depth = 0;
  grb::IndexType visited = 0;
  while (frontier.nvals() > 0 && depth < n) {
    policy.checkpoint("bfs_level");
    ++depth;
    // Stamp the current depth on the frontier.
    grb::assign(levels, frontier, grb::NoAccumulate{}, depth, grb::GrB_ALL);
    // If the assign marked no vertex the frontier was entirely
    // already-visited (empty graph / isolated source / a frontier dying on
    // back-edges) — expanding it again could only spin until depth == n.
    const grb::IndexType now_visited = levels.nvals();
    if (now_visited == visited) break;
    visited = now_visited;
    // Expand: neighbours of the frontier that have no level yet.
    grb::vxm(frontier, grb::complement(grb::structure(levels)),
             grb::NoAccumulate{}, grb::LogicalSemiring<bool>{}, frontier,
             graph, grb::Replace);
  }
}

}  // namespace detail

/// Level-BFS. On return levels[v] = hop distance from @p source + 1
/// (source gets 1; unreachable vertices hold no value).
///
/// @param graph  n x n adjacency matrix; any scalar type, entries are
///               interpreted structurally.
/// @param source starting vertex.
/// @param levels output vector of size n.
/// @param policy deadline / cancellation checkpoint, polled once per level;
///               on cancellation levels holds depths 1..k of the k levels
///               that completed (see gbtl/execution_policy.hpp).
template <typename T, typename Tag>
void bfs_level(const grb::Matrix<T, Tag>& graph, grb::IndexType source,
               grb::Vector<grb::IndexType, Tag>& levels,
               const grb::ExecutionPolicy& policy = {}) {
  const grb::IndexType n = graph.nrows();
  if (graph.ncols() != n)
    throw grb::DimensionException("bfs_level: graph must be square");
  if (levels.size() != n)
    throw grb::DimensionException("bfs_level: levels size mismatch");
  if (source >= n)
    throw grb::IndexOutOfBoundsException("bfs_level: source");

  levels.clear();
  grb::Vector<bool, Tag> frontier(n);
  frontier.setElement(source, true);
  detail::bfs_levels_from(graph, frontier, levels, policy);
}

/// Parent-BFS. On return parents[v] = BFS-tree parent of v (the source is
/// its own parent); unreachable vertices hold no value.
template <typename T, typename Tag>
void bfs_parent(const grb::Matrix<T, Tag>& graph, grb::IndexType source,
                grb::Vector<grb::IndexType, Tag>& parents,
                const grb::ExecutionPolicy& policy = {}) {
  using grb::IndexType;
  const IndexType n = graph.nrows();
  if (graph.ncols() != n)
    throw grb::DimensionException("bfs_parent: graph must be square");
  if (parents.size() != n)
    throw grb::DimensionException("bfs_parent: parents size mismatch");
  if (source >= n)
    throw grb::IndexOutOfBoundsException("bfs_parent: source");

  parents.clear();
  parents.setElement(source, source);
  // Wavefront values are each frontier vertex's own id — the id it proposes
  // as parent to its undiscovered neighbours.
  grb::Vector<IndexType, Tag> wavefront(n);
  wavefront.setElement(source, source);
  grb::Vector<IndexType, Tag> next(n);

  while (wavefront.nvals() > 0) {
    policy.checkpoint("bfs_parent");
    // Propose parents to undiscovered neighbours: next[j] = min over
    // frontier i with (i,j) edge of i (min-select1st carries the source id).
    grb::vxm(next, grb::complement(grb::structure(parents)),
             grb::NoAccumulate{}, grb::MinSelect1stSemiring<IndexType>{},
             wavefront, graph, grb::Replace);
    // Record the winning proposals as parents.
    grb::assign(parents, grb::structure(next), grb::NoAccumulate{}, next,
                grb::GrB_ALL);
    // The discovered vertices form the new frontier, each proposing its own
    // id in the next round.
    grb::applyIndexed(wavefront, grb::NoMask{}, grb::NoAccumulate{},
                      [](IndexType i, IndexType) { return i; }, next,
                      grb::Replace);
  }
}

/// Batched multi-source BFS: one boolean mxm advances every search a level
/// at once (row s of @p levels = levels from sources[s]). This is the
/// "batch your traversals into matrix ops" idiom the paper's evaluation
/// leans on: one big SpGEMM amortizes launch overhead that per-source
/// vxm loops pay per level per source.
template <typename T, typename Tag>
void batch_bfs_level(const grb::Matrix<T, Tag>& graph,
                     const grb::IndexArrayType& sources,
                     grb::Matrix<grb::IndexType, Tag>& levels,
                     const grb::ExecutionPolicy& policy = {}) {
  using grb::IndexType;
  const IndexType n = graph.nrows();
  if (graph.ncols() != n)
    throw grb::DimensionException("batch_bfs: graph must be square");
  if (levels.nrows() != sources.size() || levels.ncols() != n)
    throw grb::DimensionException("batch_bfs: levels shape mismatch");

  levels.clear();
  grb::Matrix<bool, Tag> frontier(sources.size(), n);
  {
    grb::IndexArrayType rows;
    std::vector<bool> ones;
    for (IndexType s = 0; s < sources.size(); ++s) {
      if (sources[s] >= n)
        throw grb::IndexOutOfBoundsException("batch_bfs: source");
      rows.push_back(s);
      ones.push_back(true);
    }
    frontier.build(rows, sources, ones, grb::LogicalOr<bool>{});
  }

  IndexType depth = 0;
  while (frontier.nvals() > 0 && depth < n) {
    policy.checkpoint("batch_bfs_level");
    ++depth;
    grb::assign(levels, grb::structure(frontier), grb::NoAccumulate{}, depth,
                grb::GrB_ALL, grb::GrB_ALL, grb::Merge);
    grb::mxm(frontier, grb::complement(grb::structure(levels)),
             grb::NoAccumulate{}, grb::LogicalSemiring<bool>{}, frontier,
             graph, grb::Replace);
  }
}

/// Convenience: hop distance (0-based) of every reachable vertex.
template <typename T, typename Tag>
grb::Vector<grb::IndexType, Tag> bfs_distance(
    const grb::Matrix<T, Tag>& graph, grb::IndexType source,
    const grb::ExecutionPolicy& policy = {}) {
  grb::Vector<grb::IndexType, Tag> levels(graph.nrows());
  bfs_level(graph, source, levels, policy);
  grb::Vector<grb::IndexType, Tag> dist(graph.nrows());
  grb::apply(dist, grb::NoMask{}, grb::NoAccumulate{},
             grb::BindSecond<grb::IndexType, grb::Minus<grb::IndexType>>{1},
             levels);
  return dist;
}

}  // namespace algorithms
