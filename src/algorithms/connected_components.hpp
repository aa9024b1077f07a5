#pragma once

/// @file connected_components.hpp
/// Connected components by min-label propagation: every vertex repeatedly
/// adopts the smallest label in its closed neighbourhood (one mxv over the
/// (min, select2nd) semiring per round) until a fixed point. The labels
/// rotate by swap between two vectors and the fixed-point test runs on the
/// device, so a round moves no vector between memories.

#include <utility>

#include "gbtl/gbtl.hpp"

namespace algorithms {

/// Label the components of an *undirected* (symmetric) graph. On return,
/// labels[v] = smallest vertex id in v's component (dense).
/// @returns the number of propagation rounds.
template <typename T, typename Tag>
grb::IndexType connected_components(const grb::Matrix<T, Tag>& graph,
                                    grb::Vector<grb::IndexType, Tag>& labels,
                                    const grb::ExecutionPolicy& policy = {}) {
  using grb::IndexType;
  const IndexType n = graph.nrows();
  if (graph.ncols() != n)
    throw grb::DimensionException(
        "connected_components: graph must be square");
  if (labels.size() != n)
    throw grb::DimensionException(
        "connected_components: labels size mismatch");

  // labels = iota: every position's own index, written on the device.
  grb::assign(labels, grb::NoMask{}, grb::NoAccumulate{}, IndexType{0},
              grb::GrB_ALL);
  grb::applyIndexed(labels, grb::NoMask{}, grb::NoAccumulate{},
                    [](IndexType i, IndexType) { return i; }, labels);

  grb::Vector<IndexType, Tag> neighbour_min(n), next(n);
  IndexType rounds = 0;
  for (IndexType k = 0; k < n; ++k) {
    policy.checkpoint("connected_components");
    // neighbour_min[v] = min label among v's neighbours.
    grb::mxv(neighbour_min, grb::NoMask{}, grb::NoAccumulate{},
             grb::MinSelect2ndSemiring<IndexType>{}, graph, labels,
             grb::Replace);
    // Adopt the smaller of own and neighbourhood label.
    grb::eWiseAdd(next, grb::NoMask{}, grb::NoAccumulate{},
                  grb::Min<IndexType>{}, labels, neighbour_min);
    ++rounds;
    std::swap(labels, next);
    if (labels == next) break;
  }
  return rounds;
}

/// Number of distinct components (host-side count over the label vector).
template <typename T, typename Tag>
grb::IndexType component_count(const grb::Matrix<T, Tag>& graph) {
  grb::Vector<grb::IndexType, Tag> labels(graph.nrows());
  connected_components(graph, labels);
  grb::IndexArrayType idx;
  std::vector<grb::IndexType> vals;
  labels.extractTuples(idx, vals);
  grb::IndexType count = 0;
  for (grb::IndexType i = 0; i < idx.size(); ++i)
    if (vals[i] == idx[i]) ++count;  // component roots label themselves
  return count;
}

}  // namespace algorithms
