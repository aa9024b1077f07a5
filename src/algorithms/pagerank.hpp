#pragma once

/// @file pagerank.hpp
/// PageRank as iterated vxm, with teleport and dangling-mass
/// redistribution. One pipeline (detail::pagerank_run) serves the cold
/// solve, personalized PageRank, and the warm-started variant
/// (algorithms::pagerank_warm in incremental.hpp); they differ only in how
/// `rank` is seeded and where the teleport lands.
///
/// The graph is never normalized. The textbook step multiplies `rank` by
/// the transition matrix M = D⁻¹A (A the edge pattern, D its out-degree
/// diagonal), whose entry M[k,j] = inv_degree[k]·1.0 is exactly
/// inv_degree[k]. Every product that vxm folds into next[j] is therefore
/// rank[k]·inv_degree[k]. Scaling the vector first, scaled = rank ⊙
/// inv_degree, forms exactly those products. A vxm over the graph itself
/// under (+, select1st) then folds them over the same k in the same order,
/// because A and M store the same entries. The ranks are bit-identical to
/// the matrix formulation on every backend, edge values (stored zeros
/// included) never enter, and no n×n temporary, diagonal or SpGEMM is
/// built. Dangling vertices have no inv_degree entry, so they drop out of
/// `scaled` just as their empty rows of M contributed nothing.
///
/// Each iteration takes the dangling mass before the vxm: it and the
/// teleport read only `rank`. On GpuSim an iteration then runs as two
/// dataflow chains, each charged as one composite launch (docs/fusion.md):
/// scale → dangling rank → Σ, then vxm → damping → teleport assign → diff →
/// |·| → Σ. The teleport assigns over GrB_ALL, so it is one epilogue kernel
/// with no index upload: a personalized teleport lands under a seed mask
/// built once per call. `rank` and `next` rotate by swap, so an iteration
/// copies no vector.

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "gbtl/gbtl.hpp"

namespace algorithms {

struct PageRankResult {
  grb::IndexType iterations = 0;
  double final_delta = 0.0;
};

namespace detail {

/// The damped power iteration behind every entry point. The teleport and
/// the dangling mass land uniformly on @p seeds (sorted, distinct), or on
/// every vertex when @p seeds is null. @p warm keeps the incoming @p rank
/// as the start; otherwise the start is uniform over the same set. Stops
/// when the L1 delta drops under @p tol.
template <typename T, typename Tag>
PageRankResult pagerank_run(const grb::Matrix<T, Tag>& graph,
                            const grb::IndexArrayType* seeds, bool warm,
                            grb::Vector<double, Tag>& rank, double damping,
                            double tol, grb::IndexType max_iterations,
                            const grb::ExecutionPolicy& policy) {
  using grb::IndexType;
  const IndexType n = graph.nrows();
  if (graph.ncols() != n)
    throw grb::DimensionException("pagerank: graph must be square");
  if (rank.size() != n)
    throw grb::DimensionException("pagerank: rank size mismatch");

  const double share =
      1.0 / static_cast<double>(seeds != nullptr ? seeds->size() : n);
  // The teleport's targets: every vertex, or the seeds as a mask over
  // GrB_ALL, uploaded once per call rather than once per assign.
  std::optional<grb::Vector<bool, Tag>> seed_mask;
  if (seeds != nullptr) {
    seed_mask.emplace(n);
    seed_mask->build(*seeds, std::vector<bool>(seeds->size(), true));
  }
  const auto assign_targets = [&](grb::Vector<double, Tag>& w, auto accum,
                                  double value) {
    if (seed_mask)
      grb::assign(w, grb::structure(*seed_mask), accum, value, grb::GrB_ALL);
    else
      grb::assign(w, grb::NoMask{}, accum, value, grb::GrB_ALL);
  };

  // 1 / out-degree, where the out-degree counts stored entries whatever
  // their values. Dangling vertices get no entry.
  grb::Vector<double, Tag> ones(n), inv_degree(n);
  grb::assign(ones, grb::NoMask{}, grb::NoAccumulate{}, 1.0, grb::GrB_ALL);
  grb::mxv(inv_degree, grb::NoMask{}, grb::NoAccumulate{},
           grb::PlusSelect2ndSemiring<double>{}, graph, ones);
  grb::apply(inv_degree, grb::NoMask{}, grb::NoAccumulate{},
             grb::MultiplicativeInverse<double>{}, inv_degree);

  if (!warm) {
    rank.clear();
    assign_targets(rank, grb::NoAccumulate{}, share);
  }

  PageRankResult result;
  grb::Vector<double, Tag> scaled(n), next(n), diff(n), dangling_rank(n);
  for (IndexType it = 0; it < max_iterations; ++it) {
    policy.checkpoint("pagerank");
    grb::eWiseMult(scaled, grb::NoMask{}, grb::NoAccumulate{},
                   grb::Times<double>{}, rank, inv_degree, grb::Replace);
    // Dangling vertices (no out-edges) have no inv_degree entry, so the
    // ranked vertices missing from `scaled` are exactly the dangling ones.
    // Masking by `scaled` also chains this op to the scaling above.
    double dangling_mass = 0.0;
    grb::eWiseMult(dangling_rank, grb::complement(grb::structure(scaled)),
                   grb::NoAccumulate{}, grb::First<double>{}, rank, rank,
                   grb::Replace);
    grb::reduce(dangling_mass, grb::NoAccumulate{},
                grb::PlusMonoid<double>{}, dangling_rank);
    // The uniform teleport divides by n and the personalized one multiplies
    // by its share; the two round differently, and each keeps its bits.
    const double mass = 1.0 - damping + damping * dangling_mass;
    const double teleport =
        seeds != nullptr ? mass * share : mass / static_cast<double>(n);

    // next = damping * (scaled · graph) + teleport
    grb::vxm(next, grb::NoMask{}, grb::NoAccumulate{},
             grb::PlusSelect1stSemiring<double>{}, scaled, graph,
             grb::Replace);
    grb::apply(next, grb::NoMask{}, grb::NoAccumulate{},
               grb::BindSecond<double, grb::Times<double>>{damping}, next);
    assign_targets(next, grb::Plus<double>{}, teleport);

    // delta = ||next - rank||_1
    grb::eWiseAdd(diff, grb::NoMask{}, grb::NoAccumulate{},
                  grb::Minus<double>{}, next, rank, grb::Replace);
    grb::apply(diff, grb::NoMask{}, grb::NoAccumulate{},
               grb::Abs<double>{}, diff);
    double delta = 0.0;
    grb::reduce(delta, grb::NoAccumulate{}, grb::PlusMonoid<double>{}, diff);

    std::swap(rank, next);
    result.iterations = it + 1;
    result.final_delta = delta;
    if (delta < tol) break;
  }
  return result;
}

}  // namespace detail

/// Compute PageRank into @p rank (dense on return, sums to 1).
///
/// @param graph          n x n adjacency matrix (edge weights ignored
///                       beyond structure).
/// @param rank           output vector of size n.
/// @param damping        damping factor (paper-standard 0.85).
/// @param tol            L1 convergence threshold.
/// @param max_iterations safety cap.
template <typename T, typename Tag>
PageRankResult pagerank(const grb::Matrix<T, Tag>& graph,
                        grb::Vector<double, Tag>& rank,
                        double damping = 0.85, double tol = 1e-9,
                        grb::IndexType max_iterations = 100,
                        const grb::ExecutionPolicy& policy = {}) {
  return detail::pagerank_run(graph, nullptr, /*warm=*/false, rank, damping,
                              tol, max_iterations, policy);
}

/// Personalized PageRank: teleport lands on the @p seeds set (uniformly)
/// instead of all vertices — the local-ranking variant used for
/// recommendation ("related users of X"). Dangling mass also returns to the
/// seeds. A seed listed twice counts once. Same convergence machinery as
/// pagerank().
template <typename T, typename Tag>
PageRankResult personalized_pagerank(const grb::Matrix<T, Tag>& graph,
                                     const grb::IndexArrayType& seeds,
                                     grb::Vector<double, Tag>& rank,
                                     double damping = 0.85,
                                     double tol = 1e-9,
                                     grb::IndexType max_iterations = 100,
                                     const grb::ExecutionPolicy& policy = {}) {
  if (seeds.empty()) throw grb::InvalidValueException("ppr: no seeds");
  for (grb::IndexType s : seeds)
    if (s >= graph.nrows()) throw grb::IndexOutOfBoundsException("ppr: seed");
  grb::IndexArrayType seed_set(seeds);
  std::sort(seed_set.begin(), seed_set.end());
  seed_set.erase(std::unique(seed_set.begin(), seed_set.end()),
                 seed_set.end());
  return detail::pagerank_run(graph, &seed_set, /*warm=*/false, rank, damping,
                              tol, max_iterations, policy);
}

}  // namespace algorithms
