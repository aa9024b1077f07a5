#pragma once

/// @file coloring.hpp
/// Greedy parallel graph coloring (Jones–Plassmann / Luby style): each
/// round, vertices whose random priority beats all uncolored neighbours
/// take the smallest color unused in their neighbourhood. Rounds are a few
/// GraphBLAS ops; the per-winner color choice probes the winner's
/// neighbourhood colors.

#include <cstdint>
#include <vector>

#include "algorithms/mis.hpp"  // splitmix64
#include "gbtl/gbtl.hpp"

namespace algorithms {

struct ColoringResult {
  grb::IndexType colors_used = 0;
  grb::IndexType rounds = 0;
};

/// Color an undirected (symmetric, loop-free) graph so that no edge is
/// monochromatic. Colors are 1-based; colors[v] is dense on return.
template <typename T, typename Tag>
ColoringResult greedy_coloring(const grb::Matrix<T, Tag>& graph,
                               grb::Vector<grb::IndexType, Tag>& colors,
                               std::uint64_t seed = 1,
                               const grb::ExecutionPolicy& policy = {}) {
  using grb::IndexType;
  const IndexType n = graph.nrows();
  if (graph.ncols() != n)
    throw grb::DimensionException("coloring: graph must be square");
  if (colors.size() != n)
    throw grb::DimensionException("coloring: colors size mismatch");

  colors.clear();
  grb::Vector<bool, Tag> uncolored(n);
  grb::assign(uncolored, grb::NoMask{}, grb::NoAccumulate{}, true,
              grb::GrB_ALL);

  grb::Vector<double, Tag> priority(n), neighbour_max(n);
  grb::Vector<bool, Tag> winners(n), lonely(n);

  ColoringResult result;
  while (uncolored.nvals() > 0) {
    policy.checkpoint("greedy_coloring");
    ++result.rounds;
    const std::uint64_t salt = detail::splitmix64(seed ^ result.rounds);

    // Random priorities for still-uncolored vertices.
    grb::applyIndexed(priority, grb::NoMask{}, grb::NoAccumulate{},
                      [salt](IndexType i, bool) {
                        const std::uint64_t h =
                            detail::splitmix64(salt + i * 0x9e3779b9ull);
                        return static_cast<double>(h >> 11) * 0x1.0p-53;
                      },
                      uncolored, grb::Replace);

    // Max priority among uncolored neighbours.
    grb::mxv(neighbour_max, grb::structure(uncolored), grb::NoAccumulate{},
             grb::MaxSelect2ndSemiring<double>{}, graph, priority,
             grb::Replace);

    // Winners beat every uncolored neighbour, or have none left.
    grb::eWiseMult(winners, grb::NoMask{}, grb::NoAccumulate{},
                   grb::GreaterThan<double>{}, priority, neighbour_max,
                   grb::Replace);
    grb::select(winners, grb::NoMask{}, grb::NoAccumulate{},
                [](IndexType, bool w) { return w; }, winners, grb::Replace);
    grb::eWiseMult(lonely, grb::complement(grb::structure(neighbour_max)),
                   grb::NoAccumulate{}, grb::First<bool>{}, uncolored,
                   uncolored, grb::Replace);
    grb::eWiseAdd(winners, grb::NoMask{}, grb::NoAccumulate{},
                  grb::LogicalOr<bool>{}, winners, lonely, grb::Replace);
    if (winners.nvals() == 0) continue;  // tie round, redraw

    // Each winner takes the smallest color absent from its neighbourhood.
    // Winners form an independent set among the uncolored, so their choices
    // cannot conflict with each other: their neighbours' colors are frozen
    // this round. (Host loop over winners; each probe is GraphBLAS.)
    grb::IndexArrayType win_idx;
    std::vector<bool> win_vals;
    winners.extractTuples(win_idx, win_vals);
    grb::Vector<IndexType, Tag> row(n);
    for (IndexType w : win_idx) {
      // Colors present among w's neighbours: gather row w of the adjacency
      // against the color vector.
      grb::extract(row, grb::NoMask{}, grb::NoAccumulate{},
                   grb::transpose(graph), grb::GrB_ALL, w, grb::Replace);
      grb::Vector<IndexType, Tag> neigh_colors(n);
      grb::eWiseMult(neigh_colors, grb::NoMask{}, grb::NoAccumulate{},
                     grb::Second<IndexType>{}, row, colors, grb::Replace);
      grb::IndexArrayType cidx;
      std::vector<IndexType> cvals;
      neigh_colors.extractTuples(cidx, cvals);
      std::vector<bool> used(cvals.size() + 2, false);
      for (IndexType c : cvals)
        if (c < used.size()) used[c] = true;
      IndexType color = 1;
      while (color < used.size() && used[color]) ++color;
      colors.setElement(w, color);
      if (color > result.colors_used) result.colors_used = color;
    }

    // Remove winners from the uncolored pool.
    grb::assign(uncolored, grb::structure(winners), grb::NoAccumulate{},
                false, grb::GrB_ALL, grb::Merge);
    grb::select(uncolored, grb::NoMask{}, grb::NoAccumulate{},
                [](IndexType, bool live) { return live; }, uncolored,
                grb::Replace);
  }
  return result;
}

/// Validate a coloring: dense, 1-based, and proper (no monochromatic edge).
template <typename T, typename Tag>
bool is_proper_coloring(const grb::Matrix<T, Tag>& graph,
                        const grb::Vector<grb::IndexType, Tag>& colors) {
  if (colors.nvals() != graph.nrows()) return false;
  // Dense, so the tuples come back in vertex order: color[v] is v's color.
  grb::IndexArrayType idx;
  std::vector<grb::IndexType> color;
  colors.extractTuples(idx, color);
  grb::IndexArrayType rows, cols;
  std::vector<T> vals;
  graph.extractTuples(rows, cols, vals);
  for (grb::IndexType e = 0; e < rows.size(); ++e) {
    if (rows[e] == cols[e]) continue;
    if (color[rows[e]] == color[cols[e]]) return false;
  }
  return true;
}

}  // namespace algorithms
