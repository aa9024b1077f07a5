#pragma once

/// @file metrics.hpp
/// Vertex and graph metrics: degrees, density, clustering coefficients,
/// closeness centrality, and batch-Brandes betweenness centrality — the
/// "metrics" algorithm family of GBTL.

#include <vector>

#include "algorithms/bfs.hpp"
#include "algorithms/triangle_count.hpp"
#include "gbtl/gbtl.hpp"

namespace algorithms {

/// Out-degree of every vertex (vertices with no out edges hold no value).
template <typename T, typename Tag>
grb::Vector<grb::IndexType, Tag> out_degree(const grb::Matrix<T, Tag>& graph) {
  grb::Matrix<grb::IndexType, Tag> pattern(graph.nrows(), graph.ncols());
  grb::apply(pattern, grb::NoMask{}, grb::NoAccumulate{},
             [](const T&) { return grb::IndexType{1}; }, graph);
  grb::Vector<grb::IndexType, Tag> deg(graph.nrows());
  grb::reduce(deg, grb::NoMask{}, grb::NoAccumulate{},
              grb::PlusMonoid<grb::IndexType>{}, pattern);
  return deg;
}

/// In-degree: out-degree of the transpose.
template <typename T, typename Tag>
grb::Vector<grb::IndexType, Tag> in_degree(const grb::Matrix<T, Tag>& graph) {
  grb::Matrix<T, Tag> at(graph.ncols(), graph.nrows());
  grb::transpose(at, grb::NoMask{}, grb::NoAccumulate{}, graph);
  return out_degree(at);
}

/// Edge count / (n * (n-1)) for a directed graph.
template <typename T, typename Tag>
double graph_density(const grb::Matrix<T, Tag>& graph) {
  const double n = static_cast<double>(graph.nrows());
  if (n < 2) return 0.0;
  return static_cast<double>(graph.nvals()) / (n * (n - 1.0));
}

/// Local clustering coefficient of every vertex of an undirected graph:
/// triangles(v) / (deg(v) choose 2). Degree-<2 vertices get 0.
template <typename T, typename Tag>
grb::Vector<double, Tag> clustering_coefficient(
    const grb::Matrix<T, Tag>& graph) {
  const grb::IndexType n = graph.nrows();
  auto tri = triangles_per_vertex(graph);
  auto deg = out_degree(graph);

  grb::Vector<double, Tag> tri_d(n), deg_d(n), cc(n);
  grb::apply(tri_d, grb::NoMask{}, grb::NoAccumulate{},
             [](std::uint64_t t) { return static_cast<double>(t); }, tri);
  grb::apply(deg_d, grb::NoMask{}, grb::NoAccumulate{},
             [](grb::IndexType d) { return static_cast<double>(d); }, deg);
  grb::eWiseMult(cc, grb::NoMask{}, grb::NoAccumulate{},
                 [](double t, double d) {
                   return d < 2.0 ? 0.0 : 2.0 * t / (d * (d - 1.0));
                 },
                 tri_d, deg_d);
  // Densify: vertices without entries (isolated) get 0.
  grb::assign(cc, grb::complement(grb::structure(cc)), grb::NoAccumulate{},
              0.0, grb::GrB_ALL);
  return cc;
}

/// Global clustering coefficient: 3 * triangles / open wedges.
template <typename T, typename Tag>
double global_clustering_coefficient(const grb::Matrix<T, Tag>& graph) {
  const auto tri = triangle_count_masked(graph);
  auto deg = out_degree(graph);
  grb::IndexArrayType idx;
  std::vector<grb::IndexType> d;
  deg.extractTuples(idx, d);
  double wedges = 0.0;
  for (auto dv : d)
    wedges += static_cast<double>(dv) * static_cast<double>(dv - 1) / 2.0;
  if (wedges == 0.0) return 0.0;
  return 3.0 * static_cast<double>(tri) / wedges;
}

/// Closeness centrality of @p v: (reachable - 1) / sum of hop distances.
template <typename T, typename Tag>
double closeness_centrality(const grb::Matrix<T, Tag>& graph,
                            grb::IndexType v) {
  auto dist = bfs_distance(graph, v);
  grb::IndexType total = 0;
  grb::reduce(total, grb::NoAccumulate{}, grb::PlusMonoid<grb::IndexType>{},
              dist);
  const grb::IndexType reachable = dist.nvals();
  if (reachable <= 1 || total == 0) return 0.0;
  return static_cast<double>(reachable - 1) / static_cast<double>(total);
}

/// Batch-Brandes betweenness centrality (unweighted): exact BC scores for
/// all vertices, accumulated over the given sources (pass all vertices for
/// exact BC, a sample for approximate BC). Endpoint vertices excluded, no
/// normalization — raw Brandes deltas over directed shortest paths.
template <typename T, typename Tag>
grb::Vector<double, Tag> betweenness_centrality(
    const grb::Matrix<T, Tag>& graph, const grb::IndexArrayType& sources) {
  using grb::IndexType;
  const IndexType n = graph.nrows();
  if (graph.ncols() != n)
    throw grb::DimensionException("bc: graph must be square");

  grb::Vector<double, Tag> bc(n);
  grb::assign(bc, grb::NoMask{}, grb::NoAccumulate{}, 0.0,
              grb::GrB_ALL);

  for (IndexType s : sources) {
    if (s >= n) throw grb::IndexOutOfBoundsException("bc: source");

    // --- Forward phase: sigma per BFS level. ---------------------------
    // sigmas[d][v] = number of shortest s->v paths, for v at depth d.
    std::vector<grb::Vector<double, Tag>> sigmas;
    grb::Vector<double, Tag> seen(n);   // all discovered vertices (sigma)
    grb::Vector<double, Tag> frontier(n);
    frontier.setElement(s, 1.0);
    seen = frontier;
    sigmas.push_back(frontier);

    while (true) {
      grb::Vector<double, Tag> next(n);
      grb::vxm(next, grb::complement(grb::structure(seen)),
               grb::NoAccumulate{}, grb::ArithmeticSemiring<double>{},
               sigmas.back(), graph, grb::Replace);
      if (next.nvals() == 0) break;
      grb::eWiseAdd(seen, grb::NoMask{}, grb::NoAccumulate{},
                    grb::Plus<double>{}, seen, next);
      sigmas.push_back(next);
    }

    // --- Backward phase: delta accumulation. ---------------------------
    grb::Vector<double, Tag> delta(n);
    grb::assign(delta, grb::NoMask{}, grb::NoAccumulate{}, 0.0,
                grb::GrB_ALL);
    for (std::size_t d = sigmas.size(); d-- > 1;) {
      // w = (1 + delta) / sigma on the depth-d frontier.
      grb::Vector<double, Tag> w(n);
      grb::eWiseMult(w, grb::NoMask{}, grb::NoAccumulate{},
                     [](double sig, double del) {
                       return (1.0 + del) / sig;
                     },
                     sigmas[d], delta, grb::Replace);
      // Pull across edges into depth d-1: t = A * w.
      grb::Vector<double, Tag> t(n);
      grb::mxv(t, grb::structure(sigmas[d - 1]), grb::NoAccumulate{},
               grb::ArithmeticSemiring<double>{}, graph, w, grb::Replace);
      // delta += t .* sigma at depth d-1.
      grb::Vector<double, Tag> contrib(n);
      grb::eWiseMult(contrib, grb::NoMask{}, grb::NoAccumulate{},
                     grb::Times<double>{}, t, sigmas[d - 1], grb::Replace);
      grb::eWiseAdd(delta, grb::NoMask{}, grb::NoAccumulate{},
                    grb::Plus<double>{}, delta, contrib);
    }

    // bc += delta (source excluded).
    grb::Vector<double, Tag> delta_no_s = delta;
    delta_no_s.setElement(s, 0.0);
    grb::eWiseAdd(bc, grb::NoMask{}, grb::NoAccumulate{},
                  grb::Plus<double>{}, bc, delta_no_s);
  }
  return bc;
}

/// Exact betweenness centrality from all sources.
template <typename T, typename Tag>
grb::Vector<double, Tag> betweenness_centrality(
    const grb::Matrix<T, Tag>& graph) {
  return betweenness_centrality(graph, grb::all_indices(graph.nrows()));
}

}  // namespace algorithms
