#pragma once

/// @file topological.hpp
/// DAG utilities via in-degree peeling, GraphBLAS-style: each round removes
/// every vertex whose in-degree within the remaining subgraph is zero and
/// stamps it with the current level. If the peel ever stalls with vertices
/// remaining, the leftover subgraph contains a cycle.

#include "gbtl/gbtl.hpp"

namespace algorithms {

struct TopoResult {
  /// True iff the graph is acyclic (levels is only fully valid then).
  bool is_dag = false;
  /// Number of levels assigned (the DAG's longest-path length + 1).
  grb::IndexType levels_used = 0;
};

/// Topological levels of a directed graph. levels[v] = 1 + the length of
/// the longest path ending at v (sources get 1). Vertices on or downstream
/// of a cycle hold no value.
template <typename T, typename Tag>
TopoResult topological_levels(const grb::Matrix<T, Tag>& graph,
                              grb::Vector<grb::IndexType, Tag>& levels,
                              const grb::ExecutionPolicy& policy = {}) {
  using grb::IndexType;
  const IndexType n = graph.nrows();
  if (graph.ncols() != n)
    throw grb::DimensionException("topo: graph must be square");
  if (levels.size() != n)
    throw grb::DimensionException("topo: levels size mismatch");

  grb::Matrix<IndexType, Tag> P(n, n);
  grb::apply(P, grb::NoMask{}, grb::NoAccumulate{},
             [](const T&) { return IndexType{1}; }, graph);

  grb::Vector<IndexType, Tag> remaining(n);
  grb::assign(remaining, grb::NoMask{}, grb::NoAccumulate{}, IndexType{1},
              grb::GrB_ALL);
  levels.clear();

  TopoResult result;
  while (remaining.nvals() > 0) {
    policy.checkpoint("topological_levels");
    // In-degree within the remaining subgraph: pull across transposed
    // edges — indeg[v] = sum over remaining u with (u,v).
    grb::Vector<IndexType, Tag> indeg(n);
    grb::vxm(indeg, grb::structure(remaining), grb::NoAccumulate{},
             grb::ArithmeticSemiring<IndexType>{}, remaining, P,
             grb::Replace);
    // Sources: remaining vertices with no indeg entry.
    grb::Vector<IndexType, Tag> sources(n);
    grb::eWiseMult(sources, grb::complement(grb::structure(indeg)),
                   grb::NoAccumulate{}, grb::First<IndexType>{}, remaining,
                   remaining, grb::Replace);
    if (sources.nvals() == 0) return result;  // cycle: is_dag stays false

    ++result.levels_used;
    grb::assign(levels, grb::structure(sources), grb::NoAccumulate{},
                result.levels_used, grb::GrB_ALL, grb::Merge);
    grb::assign(remaining, grb::structure(sources), grb::NoAccumulate{},
                IndexType{0}, grb::GrB_ALL, grb::Merge);
    grb::select(remaining, grb::NoMask{}, grb::NoAccumulate{},
                [](IndexType, IndexType v) { return v != 0; }, remaining,
                grb::Replace);
  }
  result.is_dag = true;
  return result;
}

/// Is the directed graph acyclic?
template <typename T, typename Tag>
bool is_dag(const grb::Matrix<T, Tag>& graph) {
  grb::Vector<grb::IndexType, Tag> levels(graph.nrows());
  return topological_levels(graph, levels).is_dag;
}

/// A topological order (host array) of a DAG; throws on cyclic input.
/// Within a level, vertices come out in index order.
template <typename T, typename Tag>
grb::IndexArrayType topological_order(const grb::Matrix<T, Tag>& graph) {
  grb::Vector<grb::IndexType, Tag> levels(graph.nrows());
  const auto res = topological_levels(graph, levels);
  if (!res.is_dag)
    throw grb::InvalidValueException("topological_order: graph has a cycle");
  grb::IndexArrayType order;
  order.reserve(graph.nrows());
  for (grb::IndexType lvl = 1; lvl <= res.levels_used; ++lvl) {
    grb::IndexArrayType idx;
    std::vector<grb::IndexType> vals;
    levels.extractTuples(idx, vals);
    for (grb::IndexType k = 0; k < idx.size(); ++k)
      if (vals[k] == lvl) order.push_back(idx[k]);
  }
  return order;
}

}  // namespace algorithms
