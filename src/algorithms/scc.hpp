#pragma once

/// @file scc.hpp
/// Strongly connected components by the Forward-Backward (FW-BW) method —
/// the data-parallel SCC algorithm: pick a pivot in an unassigned region,
/// compute its forward and backward reachable sets with boolean
/// vxm-based BFS restricted to the region, intersect them into one SCC,
/// and recurse on the three leftover partitions.

#include <vector>

#include "gbtl/gbtl.hpp"

namespace algorithms {

namespace detail_scc {

/// Indicator of vertices reachable from @p pivot inside the @p region
/// (pivot included), following the edge direction of @p A.
template <typename T, typename Tag>
grb::Vector<bool, Tag> reachable_within(const grb::Matrix<T, Tag>& A,
                                        const grb::Vector<bool, Tag>& region,
                                        grb::IndexType pivot) {
  const grb::IndexType n = A.nrows();
  grb::Vector<bool, Tag> visited(n), frontier(n);
  frontier.setElement(pivot, true);
  while (frontier.nvals() > 0) {
    grb::eWiseAdd(visited, grb::NoMask{}, grb::NoAccumulate{},
                  grb::LogicalOr<bool>{}, visited, frontier);
    // Expand, then keep only unvisited region members.
    grb::Vector<bool, Tag> next(n);
    grb::vxm(next, grb::complement(grb::structure(visited)),
             grb::NoAccumulate{}, grb::LogicalSemiring<bool>{}, frontier, A,
             grb::Replace);
    grb::eWiseMult(frontier, grb::NoMask{}, grb::NoAccumulate{},
                   grb::LogicalAnd<bool>{}, next, region, grb::Replace);
    grb::select(frontier, grb::NoMask{}, grb::NoAccumulate{},
                [](grb::IndexType, bool b) { return b; }, frontier,
                grb::Replace);
  }
  return visited;
}

}  // namespace detail_scc

/// Label the strongly connected components of a directed graph:
/// labels[v] = the pivot vertex id of v's SCC (dense on return).
/// @returns the number of components.
template <typename T, typename Tag>
grb::IndexType strongly_connected_components(
    const grb::Matrix<T, Tag>& graph, grb::Vector<grb::IndexType, Tag>& labels,
    const grb::ExecutionPolicy& policy = {}) {
  using grb::IndexType;
  const IndexType n = graph.nrows();
  if (graph.ncols() != n)
    throw grb::DimensionException("scc: graph must be square");
  if (labels.size() != n)
    throw grb::DimensionException("scc: labels size mismatch");

  // Transpose once for backward reachability.
  grb::Matrix<T, Tag> At(n, n);
  grb::transpose(At, grb::NoMask{}, grb::NoAccumulate{}, graph);

  labels.clear();
  IndexType component_count = 0;

  // Worklist of regions, each an indicator vector (host-held handles).
  std::vector<grb::Vector<bool, Tag>> worklist;
  {
    grb::Vector<bool, Tag> all(n);
    grb::assign(all, grb::NoMask{}, grb::NoAccumulate{}, true,
                grb::GrB_ALL);
    worklist.push_back(std::move(all));
  }

  while (!worklist.empty()) {
    policy.checkpoint("strongly_connected_components");
    grb::Vector<bool, Tag> region = std::move(worklist.back());
    worklist.pop_back();
    if (region.nvals() == 0) continue;

    // Pivot: first member of the region.
    grb::IndexArrayType idx;
    std::vector<bool> vals;
    region.extractTuples(idx, vals);
    const IndexType pivot = idx.front();

    auto fwd = detail_scc::reachable_within(graph, region, pivot);
    auto bwd = detail_scc::reachable_within(At, region, pivot);
    // fwd/bwd may stray outside region only at the pivot's own expansion
    // frontier filter — both include pivot and are region-filtered.

    grb::Vector<bool, Tag> scc(n);
    grb::eWiseMult(scc, grb::NoMask{}, grb::NoAccumulate{},
                   grb::LogicalAnd<bool>{}, fwd, bwd, grb::Replace);
    ++component_count;
    grb::assign(labels, grb::structure(scc), grb::NoAccumulate{}, pivot,
                grb::GrB_ALL, grb::Merge);

    // Partition the remainder: region∩fwd\scc, region∩bwd\scc,
    // region\(fwd∪bwd).
    auto subtract = [&](const grb::Vector<bool, Tag>& a,
                        const grb::Vector<bool, Tag>& b) {
      grb::Vector<bool, Tag> out(n);
      grb::eWiseMult(out, grb::complement(grb::structure(b)),
                     grb::NoAccumulate{}, grb::LogicalAnd<bool>{}, a, a,
                     grb::Replace);
      return out;
    };
    grb::Vector<bool, Tag> fwd_rest = subtract(fwd, scc);
    grb::Vector<bool, Tag> bwd_rest = subtract(bwd, scc);
    grb::Vector<bool, Tag> reached(n);
    grb::eWiseAdd(reached, grb::NoMask{}, grb::NoAccumulate{},
                  grb::LogicalOr<bool>{}, fwd, bwd, grb::Replace);
    grb::Vector<bool, Tag> rest = subtract(region, reached);

    if (fwd_rest.nvals() > 0) worklist.push_back(std::move(fwd_rest));
    if (bwd_rest.nvals() > 0) worklist.push_back(std::move(bwd_rest));
    if (rest.nvals() > 0) worklist.push_back(std::move(rest));
  }
  return component_count;
}

/// Number of SCCs (convenience).
template <typename T, typename Tag>
grb::IndexType scc_count(const grb::Matrix<T, Tag>& graph) {
  grb::Vector<grb::IndexType, Tag> labels(graph.nrows());
  return strongly_connected_components(graph, labels);
}

}  // namespace algorithms
