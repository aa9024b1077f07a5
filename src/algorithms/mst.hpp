#pragma once

/// @file mst.hpp
/// Prim's minimum spanning tree in GraphBLAS form: grow a tree from a root,
/// maintaining d = lightest edge from the tree to each outside vertex
/// (updated by one eWiseAdd(min) with the newly added vertex's adjacency
/// row per step). The argmin step extracts the masked candidate vector —
/// the inherently sequential part of Prim, as in GBTL's reference mst.

#include <limits>
#include <vector>

#include "gbtl/gbtl.hpp"

namespace algorithms {

struct MstResult {
  /// Sum of tree edge weights (forest weight if the graph is disconnected).
  double weight = 0.0;
  /// Number of tree edges (n - #components).
  grb::IndexType edges = 0;
};

/// Compute an MST (minimum spanning forest on disconnected graphs) of an
/// undirected graph with positive weights. parents[v] = tree parent of v;
/// roots hold their own id.
template <typename T, typename Tag>
MstResult mst(const grb::Matrix<T, Tag>& graph,
              grb::Vector<grb::IndexType, Tag>& parents) {
  using grb::IndexType;
  const IndexType n = graph.nrows();
  if (graph.ncols() != n)
    throw grb::DimensionException("mst: graph must be square");
  if (parents.size() != n)
    throw grb::DimensionException("mst: parents size mismatch");

  MstResult result;
  parents.clear();

  std::vector<bool> in_tree(n, false);
  grb::Vector<T, Tag> d(n);          // lightest edge into the tree
  grb::Vector<IndexType, Tag> via(n);  // tree endpoint of that edge
  grb::Vector<T, Tag> row(n);

  IndexType remaining = n;
  while (remaining > 0) {
    // Pick a fresh root for the next component.
    IndexType root = 0;
    while (root < n && in_tree[root]) ++root;
    in_tree[root] = true;
    --remaining;
    parents.setElement(root, root);
    d.clear();
    via.clear();

    // Seed candidates from the root's row.
    grb::extract(row, grb::NoMask{}, grb::NoAccumulate{},
                 grb::transpose(graph), grb::GrB_ALL, root, grb::Replace);
    d = row;
    grb::assign(via, grb::structure(row), grb::NoAccumulate{}, root,
                grb::GrB_ALL);

    for (;;) {
      // Host-side argmin over candidates not yet in the tree.
      grb::IndexArrayType idx;
      std::vector<T> vals;
      d.extractTuples(idx, vals);
      IndexType best = n;
      T best_w = std::numeric_limits<T>::max();
      for (IndexType k = 0; k < idx.size(); ++k) {
        if (in_tree[idx[k]]) continue;
        if (vals[k] < best_w) {
          best_w = vals[k];
          best = idx[k];
        }
      }
      if (best == n) break;  // component exhausted

      in_tree[best] = true;
      --remaining;
      result.weight += static_cast<double>(best_w);
      ++result.edges;
      parents.setElement(best, via.extractElement(best));
      d.removeElement(best);

      // Relax: d = min(d, weights of best's row), tracking the endpoint.
      grb::extract(row, grb::NoMask{}, grb::NoAccumulate{},
                   grb::transpose(graph), grb::GrB_ALL, best, grb::Replace);
      // Where the new row improves d (or d has no entry), update via.
      grb::Vector<bool, Tag> improved(n);
      grb::eWiseMult(improved, grb::NoMask{}, grb::NoAccumulate{},
                     grb::LessThan<T>{}, row, d, grb::Replace);
      grb::select(improved, grb::NoMask{}, grb::NoAccumulate{},
                  [](grb::IndexType, bool b) { return b; }, improved,
                  grb::Replace);
      grb::Vector<bool, Tag> fresh(n);
      grb::eWiseMult(fresh, grb::complement(grb::structure(d)),
                     grb::NoAccumulate{}, grb::LogicalOr<bool>{},
                     grb::Vector<bool, Tag>(std::vector<bool>(n, true), false),
                     grb::Vector<bool, Tag>(std::vector<bool>(n, true), false),
                     grb::Replace);
      grb::Vector<bool, Tag> row_mask(n);
      grb::eWiseMult(row_mask, grb::structure(row), grb::NoAccumulate{},
                     grb::LogicalOr<bool>{}, fresh, fresh, grb::Replace);
      grb::eWiseAdd(improved, grb::NoMask{}, grb::NoAccumulate{},
                    grb::LogicalOr<bool>{}, improved, row_mask);
      grb::assign(via, grb::structure(improved), grb::NoAccumulate{}, best,
                  grb::GrB_ALL);
      grb::eWiseAdd(d, grb::NoMask{}, grb::NoAccumulate{}, grb::Min<T>{}, d,
                    row);
    }
  }
  return result;
}

}  // namespace algorithms
