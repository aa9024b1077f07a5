#pragma once

/// @file sssp.hpp
/// Single-source shortest paths over the (min, +) tropical semiring:
/// Bellman-Ford as a repeated vxm whose result is min-merged with the
/// previous distances, plus a batched multi-source variant (one row per
/// source) that maps the same recurrence onto mxm — the formulation the
/// paper uses to show algorithm/primitive separation.
///
/// Each round relaxes into a second vector and the two rotate by swap; the
/// convergence test `==` runs on the device (one kernel, a host bool), so a
/// round moves no vector between memories.

#include <utility>

#include "gbtl/gbtl.hpp"

namespace algorithms {

/// Bellman-Ford SSSP. On return dist[v] = weight of the lightest
/// source->v path (source gets 0); unreachable vertices hold no value.
/// Negative edge weights are supported (n-1 relaxation rounds); negative
/// *cycles* reachable from the source make the result undefined, as usual.
///
/// @returns number of relaxation rounds executed (handy for benches).
template <typename T, typename Tag>
grb::IndexType sssp(const grb::Matrix<T, Tag>& graph, grb::IndexType source,
                    grb::Vector<T, Tag>& dist,
                    const grb::ExecutionPolicy& policy = {}) {
  const grb::IndexType n = graph.nrows();
  if (graph.ncols() != n)
    throw grb::DimensionException("sssp: graph must be square");
  if (dist.size() != n)
    throw grb::DimensionException("sssp: dist size mismatch");
  if (source >= n) throw grb::IndexOutOfBoundsException("sssp: source");

  dist.clear();
  dist.setElement(source, T{0});

  grb::Vector<T, Tag> next(n);
  grb::IndexType rounds = 0;
  for (grb::IndexType k = 0; k + 1 < n; ++k) {
    policy.checkpoint("sssp");
    // next = min(dist, dist min.+ A): the Min accumulator's merge, with its
    // arguments in the same order.
    grb::vxm(next, grb::NoMask{}, grb::NoAccumulate{},
             grb::MinPlusSemiring<T>{}, dist, graph, grb::Replace);
    grb::eWiseAdd(next, grb::NoMask{}, grb::NoAccumulate{}, grb::Min<T>{},
                  dist, next);
    ++rounds;
    std::swap(dist, next);
    if (dist == next) break;  // converged early
  }
  return rounds;
}

/// Batched multi-source SSSP: row s of @p dists holds the distance vector
/// of sources[s]. One mxm per relaxation round relaxes every source at
/// once.
template <typename T, typename Tag>
grb::IndexType batch_sssp(const grb::Matrix<T, Tag>& graph,
                          const grb::IndexArrayType& sources,
                          grb::Matrix<T, Tag>& dists,
                          const grb::ExecutionPolicy& policy = {}) {
  const grb::IndexType n = graph.nrows();
  if (graph.ncols() != n)
    throw grb::DimensionException("batch_sssp: graph must be square");
  if (dists.nrows() != sources.size() || dists.ncols() != n)
    throw grb::DimensionException("batch_sssp: dists shape mismatch");

  dists.clear();
  {
    grb::IndexArrayType rows;
    std::vector<T> zeros;
    for (grb::IndexType s = 0; s < sources.size(); ++s) {
      if (sources[s] >= n)
        throw grb::IndexOutOfBoundsException("batch_sssp: source");
      rows.push_back(s);
      zeros.push_back(T{0});
    }
    dists.build(rows, sources, zeros);
  }

  grb::Matrix<T, Tag> prev(dists.nrows(), n);
  grb::IndexType rounds = 0;
  for (grb::IndexType k = 0; k + 1 < n; ++k) {
    policy.checkpoint("batch_sssp");
    prev = dists;
    grb::mxm(dists, grb::NoMask{}, grb::Min<T>{}, grb::MinPlusSemiring<T>{},
             prev, graph);
    ++rounds;
    if (dists == prev) break;
  }
  return rounds;
}

/// All-pairs shortest paths: batched SSSP from every vertex.
template <typename T, typename Tag>
grb::Matrix<T, Tag> apsp(const grb::Matrix<T, Tag>& graph,
                         const grb::ExecutionPolicy& policy = {}) {
  grb::Matrix<T, Tag> dists(graph.nrows(), graph.ncols());
  batch_sssp(graph, grb::all_indices(graph.nrows()), dists, policy);
  return dists;
}

}  // namespace algorithms
