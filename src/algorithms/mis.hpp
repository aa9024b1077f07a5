#pragma once

/// @file mis.hpp
/// Luby's randomized maximal independent set, GraphBLAS-style: each round,
/// every live candidate draws a score biased by 1/(degree+1); candidates
/// that beat every live neighbour join the set, and they and their
/// neighbours leave the candidate pool. Deterministic given the seed.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "gbtl/gbtl.hpp"

namespace algorithms {

namespace detail {

/// SplitMix64 — a cheap, high-quality hash usable inside kernels, so score
/// draws are reproducible on every backend.
inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace detail

/// Compute a maximal independent set of an undirected (symmetric) graph
/// with an empty diagonal. On return iset[v] == true for members (others
/// hold no value). @returns the number of rounds.
template <typename T, typename Tag>
grb::IndexType mis(const grb::Matrix<T, Tag>& graph,
                   grb::Vector<bool, Tag>& iset, std::uint64_t seed = 1,
                   const grb::ExecutionPolicy& policy = {}) {
  using grb::IndexType;
  const IndexType n = graph.nrows();
  if (graph.ncols() != n)
    throw grb::DimensionException("mis: graph must be square");
  if (iset.size() != n)
    throw grb::DimensionException("mis: iset size mismatch");

  // Degrees (dense; isolated vertices get 0).
  grb::Vector<double, Tag> degree(n);
  {
    grb::Matrix<double, Tag> pattern(n, n);
    grb::apply(pattern, grb::NoMask{}, grb::NoAccumulate{},
               [](const T&) { return 1.0; }, graph);
    grb::reduce(degree, grb::NoMask{}, grb::NoAccumulate{},
                grb::PlusMonoid<double>{}, pattern);
    grb::assign(degree, grb::complement(grb::structure(degree)),
                grb::NoAccumulate{}, 0.0, grb::GrB_ALL);
  }

  // Candidate scores carry (index) so draws can be vertex-specific.
  grb::Vector<double, Tag> index_of(n);
  grb::assign(index_of, grb::NoMask{}, grb::NoAccumulate{}, 0.0,
              grb::GrB_ALL);
  grb::applyIndexed(index_of, grb::NoMask{}, grb::NoAccumulate{},
                    [](IndexType i, double) { return static_cast<double>(i); },
                    index_of);

  iset.clear();
  grb::Vector<bool, Tag> candidates(n);
  grb::assign(candidates, grb::NoMask{}, grb::NoAccumulate{}, true,
              grb::GrB_ALL);

  grb::Vector<double, Tag> score(n), neighbour_max(n);
  grb::Vector<bool, Tag> winners(n), losers(n);

  IndexType rounds = 0;
  while (candidates.nvals() > 0) {
    policy.checkpoint("mis");
    ++rounds;
    const std::uint64_t round_salt =
        detail::splitmix64(seed * 0x51ed2701 + rounds);

    // score[v] = U(0,1) hash / (deg[v] + 1), only for live candidates.
    grb::eWiseMult(score, grb::NoMask{}, grb::NoAccumulate{},
                   [round_salt](double vid, double deg) {
                     const std::uint64_t h = detail::splitmix64(
                         round_salt ^ static_cast<std::uint64_t>(vid));
                     const double u =
                         static_cast<double>(h >> 11) * 0x1.0p-53 + 0x1.0p-54;
                     return u / (deg + 1.0);
                   },
                   index_of, degree);
    grb::Vector<double, Tag> live_score(n);
    grb::eWiseMult(live_score, grb::structure(candidates),
                   grb::NoAccumulate{}, grb::First<double>{}, score, score,
                   grb::Replace);

    // Max live-neighbour score.
    grb::mxv(neighbour_max, grb::structure(candidates), grb::NoAccumulate{},
             grb::MaxSelect2ndSemiring<double>{}, graph, live_score,
             grb::Replace);

    // Winners: candidates whose score beats all live neighbours (vertices
    // with no live neighbour have no neighbour_max entry and win outright).
    grb::eWiseMult(winners, grb::NoMask{}, grb::NoAccumulate{},
                   grb::GreaterThan<double>{}, live_score, neighbour_max,
                   grb::Replace);
    grb::select(winners, grb::NoMask{}, grb::NoAccumulate{},
                [](grb::IndexType, bool win) { return win; }, winners,
                grb::Replace);
    grb::Vector<bool, Tag> lonely(n);
    grb::eWiseMult(lonely, grb::complement(grb::structure(neighbour_max)),
                   grb::NoAccumulate{}, grb::First<bool>{}, candidates,
                   candidates, grb::Replace);
    grb::eWiseAdd(winners, grb::NoMask{}, grb::NoAccumulate{},
                  grb::LogicalOr<bool>{}, winners, lonely);

    if (winners.nvals() == 0) continue;  // rare tie round; redraw

    // Add winners to the set.
    grb::eWiseAdd(iset, grb::NoMask{}, grb::NoAccumulate{},
                  grb::LogicalOr<bool>{}, iset, winners);

    // losers = winners' neighbours; remove winners and losers from pool.
    grb::mxv(losers, grb::structure(candidates), grb::NoAccumulate{},
             grb::LogicalSemiring<bool>{}, graph, winners, grb::Replace);
    grb::assign(candidates, grb::structure(winners), grb::NoAccumulate{},
                false, grb::GrB_ALL, grb::Merge);
    grb::assign(candidates, grb::structure(losers), grb::NoAccumulate{},
                false, grb::GrB_ALL, grb::Merge);
    grb::select(candidates, grb::NoMask{}, grb::NoAccumulate{},
                [](grb::IndexType, bool live) { return live; }, candidates,
                grb::Replace);
  }
  return rounds;
}

/// Verify independence + maximality (test helper, exposed for reuse).
template <typename T, typename Tag>
bool is_maximal_independent_set(const grb::Matrix<T, Tag>& graph,
                                const grb::Vector<bool, Tag>& iset) {
  const grb::IndexType n = graph.nrows();
  // Independence: no member may have a member neighbour.
  grb::Vector<bool, Tag> member_neighbours(n);
  grb::mxv(member_neighbours, grb::NoMask{}, grb::NoAccumulate{},
           grb::LogicalSemiring<bool>{}, graph, iset);
  grb::Vector<bool, Tag> conflict(n);
  grb::eWiseMult(conflict, grb::NoMask{}, grb::NoAccumulate{},
                 grb::LogicalAnd<bool>{}, member_neighbours, iset);
  bool any_conflict = false;
  grb::reduce(any_conflict, grb::NoAccumulate{},
              grb::LogicalOrMonoid<bool>{}, conflict);
  if (any_conflict) return false;
  // Maximality: every non-member must have a member neighbour. One bulk
  // read per vector; a device backend pays a round trip per read.
  std::vector<bool> covered(n, false);
  const auto cover = [&](const grb::Vector<bool, Tag>& v) {
    grb::IndexArrayType idx;
    std::vector<bool> vals;
    v.extractTuples(idx, vals);
    for (std::size_t k = 0; k < idx.size(); ++k)
      if (vals[k]) covered[idx[k]] = true;
  };
  cover(iset);
  cover(member_neighbours);
  return std::find(covered.begin(), covered.end(), false) == covered.end();
}

}  // namespace algorithms
