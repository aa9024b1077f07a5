#pragma once

/// @file incremental.hpp
/// Incremental recompute over delta-overlaid graphs (docs/streaming.md):
///
///  - connected_components_incremental: warm-starts min-label propagation
///    from the previous version's labels and pushes only from the
///    affected-vertex frontier through the overlay-aware vxm. Valid for
///    edge ADDITIONS on a symmetric graph (old labels stay upper bounds);
///    the result is the unique fixpoint of min-label propagation, so the
///    labels are bit-identical to a cold solve on the merged graph. Round
///    counts differ — only the labels are the contract.
///
///  - pagerank_warm: restarts the damped power iteration from the previous
///    version's rank vector. Converges to the same stationary point as a
///    cold solve but along a different (shorter) trajectory, so the ranks
///    agree to solver tolerance, NOT bitwise — the honest limit of
///    incremental PageRank, and why the serving layer bit-checks warm
///    results against a warm serial oracle and only tolerance-checks
///    against cold solves.
///
/// Eligibility (cached previous result for the parent version, no
/// structural removals, small affected set) is the caller's job — the
/// executor falls back to a cold solve when any precondition fails.

#include <vector>

#include "algorithms/pagerank.hpp"
#include "gbtl/gbtl.hpp"
#include "gbtl/overlay_ops.hpp"

namespace algorithms {

/// Re-label components after an edge-addition batch. @p labels carries the
/// previous version's labels in (dense, size n) and the new version's
/// labels out. @p affected lists the endpoints the batch touched; @p ov
/// replaces dirty rows of @p base (pass an empty overlay for a compacted
/// snapshot). @returns the number of push rounds (0 when nothing changed).
template <typename T, typename Tag>
grb::IndexType connected_components_incremental(
    const grb::Matrix<T, Tag>& base, const grb::MatrixOverlay<T>& ov,
    const grb::IndexArrayType& affected,
    grb::Vector<grb::IndexType, Tag>& labels,
    const grb::ExecutionPolicy& policy = {}) {
  using grb::IndexType;
  const IndexType n = base.nrows();
  if (base.ncols() != n)
    throw grb::DimensionException(
        "connected_components_incremental: graph must be square");
  if (labels.size() != n)
    throw grb::DimensionException(
        "connected_components_incremental: labels size mismatch");
  if (labels.nvals() != n)
    throw grb::InvalidValueException(
        "connected_components_incremental: labels must be dense "
        "(previous version's result)");

  // Seed the frontier with the affected vertices carrying their current
  // labels: an added edge (u, v) must let u's and v's labels flow even
  // when neither label improved yet.
  grb::Vector<IndexType, Tag> f(n);
  {
    grb::IndexArrayType idx;
    std::vector<IndexType> vals;
    labels.extractTuples(idx, vals);  // dense: idx[i] == i
    std::vector<IndexType> seed;
    seed.reserve(affected.size());
    for (const IndexType v : affected) seed.push_back(vals[v]);
    grb::IndexArrayType seed_idx(affected.begin(), affected.end());
    f.build(seed_idx, seed);
  }

  grb::Vector<IndexType, Tag> cand(n);
  grb::Vector<bool, Tag> improved(n);
  IndexType rounds = 0;
  for (IndexType k = 0; k < n && f.nvals() > 0; ++k) {
    policy.checkpoint("connected_components_incremental");
    // cand[j] = min label pushed from the frontier into j.
    grb::vxm_overlay(cand, grb::NoMask{}, grb::NoAccumulate{},
                     grb::MinSelect1stSemiring<IndexType>{}, f, base, ov,
                     grb::Replace);
    // Keep only strict improvements; they form the next frontier.
    grb::eWiseMult(improved, grb::NoMask{}, grb::NoAccumulate{},
                   grb::LessThan<IndexType>{}, cand, labels, grb::Replace);
    grb::apply(f, improved, grb::NoAccumulate{},
               grb::Identity<IndexType>{}, cand, grb::Replace);
    // Fold the improvements into the labels.
    grb::eWiseAdd(labels, grb::NoMask{}, grb::NoAccumulate{},
                  grb::Min<IndexType>{}, labels, f);
    ++rounds;
  }
  return rounds;
}

/// PageRank warm-started from @p rank (the previous version's ranks, dense).
template <typename T, typename Tag>
PageRankResult pagerank_warm(const grb::Matrix<T, Tag>& graph,
                             grb::Vector<double, Tag>& rank,
                             double damping = 0.85, double tol = 1e-9,
                             grb::IndexType max_iterations = 100,
                             const grb::ExecutionPolicy& policy = {}) {
  if (rank.nvals() != rank.size())
    throw grb::InvalidValueException(
        "pagerank_warm: rank must be dense (previous version's result)");
  return detail::pagerank_run(graph, nullptr, /*warm=*/true, rank, damping,
                              tol, max_iterations, policy);
}

}  // namespace algorithms
