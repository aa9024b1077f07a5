/// Oracle tests: every algorithm validated against an independent,
/// straightforward host implementation (adjacency lists + textbook code)
/// on randomized graphs. These catch semantic bugs that backend-equivalence
/// tests cannot (both backends being wrong identically).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <numeric>
#include <queue>
#include <random>
#include <vector>

#include "algorithms/algorithms.hpp"
#include "algorithms/incremental.hpp"
#include "backend_cpupar/pool.hpp"
#include "gpu_sim/placement.hpp"
#include "gpu_sim/thread_pool.hpp"
#include "graph/generators.hpp"
#include "graph/graph_matrix.hpp"
#include "pagerank_reference.hpp"
#include "sparse/shard_plan.hpp"
#include "spgemm_pin.hpp"

namespace {

using gbtl_graph::EdgeList;
using gbtl_graph::Index;
using grb::IndexType;

constexpr double kInf = std::numeric_limits<double>::infinity();

struct HostGraph {
  Index n = 0;
  std::vector<std::vector<std::pair<Index, double>>> adj;

  explicit HostGraph(const EdgeList& g) : n(g.num_vertices), adj(n) {
    for (Index e = 0; e < g.num_edges(); ++e)
      adj[g.src[e]].emplace_back(g.dst[e],
                                 g.weighted() ? g.weight[e] : 1.0);
  }
};

std::vector<long long> host_bfs(const HostGraph& g, Index s) {
  std::vector<long long> dist(g.n, -1);
  std::queue<Index> q;
  dist[s] = 0;
  q.push(s);
  while (!q.empty()) {
    Index u = q.front();
    q.pop();
    for (auto [v, w] : g.adj[u])
      if (dist[v] < 0) {
        dist[v] = dist[u] + 1;
        q.push(v);
      }
  }
  return dist;
}

std::vector<double> host_bellman_ford(const HostGraph& g, Index s) {
  std::vector<double> dist(g.n, kInf);
  dist[s] = 0;
  for (Index round = 0; round + 1 < g.n; ++round) {
    bool changed = false;
    for (Index u = 0; u < g.n; ++u) {
      if (dist[u] == kInf) continue;
      for (auto [v, w] : g.adj[u])
        if (dist[u] + w < dist[v]) {
          dist[v] = dist[u] + w;
          changed = true;
        }
    }
    if (!changed) break;
  }
  return dist;
}

std::uint64_t host_triangles(const EdgeList& g) {
  std::vector<std::vector<bool>> m(g.num_vertices,
                                   std::vector<bool>(g.num_vertices, false));
  for (Index e = 0; e < g.num_edges(); ++e) m[g.src[e]][g.dst[e]] = true;
  std::uint64_t t = 0;
  for (Index i = 0; i < g.num_vertices; ++i)
    for (Index j = i + 1; j < g.num_vertices; ++j)
      if (m[i][j])
        for (Index k = j + 1; k < g.num_vertices; ++k)
          if (m[i][k] && m[j][k]) ++t;
  return t;
}

struct UnionFind {
  std::vector<Index> parent;
  explicit UnionFind(Index n) : parent(n) {
    std::iota(parent.begin(), parent.end(), Index{0});
  }
  Index find(Index x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  }
  bool unite(Index a, Index b) {
    a = find(a), b = find(b);
    if (a == b) return false;
    parent[a] = b;
    return true;
  }
};

double host_kruskal_weight(const EdgeList& g) {
  std::vector<Index> order(g.num_edges());
  std::iota(order.begin(), order.end(), Index{0});
  std::sort(order.begin(), order.end(), [&](Index a, Index b) {
    return g.weight[a] < g.weight[b];
  });
  UnionFind uf(g.num_vertices);
  double total = 0;
  for (Index e : order)
    if (uf.unite(g.src[e], g.dst[e])) total += g.weight[e];
  return total;
}

double host_maxflow(std::vector<std::vector<double>> cap, Index s, Index t) {
  const Index n = cap.size();
  double flow = 0;
  for (;;) {
    std::vector<Index> parent(n, n);
    std::queue<Index> q;
    q.push(s);
    parent[s] = s;
    while (!q.empty() && parent[t] == n) {
      Index u = q.front();
      q.pop();
      for (Index v = 0; v < n; ++v)
        if (parent[v] == n && cap[u][v] > 1e-12) {
          parent[v] = u;
          q.push(v);
        }
    }
    if (parent[t] == n) return flow;
    double aug = kInf;
    for (Index v = t; v != s; v = parent[v])
      aug = std::min(aug, cap[parent[v]][v]);
    for (Index v = t; v != s; v = parent[v]) {
      cap[parent[v]][v] -= aug;
      cap[v][parent[v]] += aug;
    }
    flow += aug;
  }
}

std::vector<Index> host_kcore(const EdgeList& g) {
  const Index n = g.num_vertices;
  std::vector<std::vector<Index>> adj(n);
  for (Index e = 0; e < g.num_edges(); ++e)
    adj[g.src[e]].push_back(g.dst[e]);
  std::vector<Index> deg(n), core(n, 0);
  for (Index v = 0; v < n; ++v) deg[v] = adj[v].size();
  std::vector<bool> removed(n, false);
  for (Index k = 0;; ++k) {
    bool any_left = false;
    bool peeled = true;
    while (peeled) {
      peeled = false;
      for (Index v = 0; v < n; ++v) {
        if (removed[v] || deg[v] > k) continue;
        removed[v] = true;
        core[v] = k;
        peeled = true;
        for (Index u : adj[v])
          if (!removed[u]) --deg[u];
      }
    }
    for (Index v = 0; v < n; ++v) any_left |= !removed[v];
    if (!any_left) break;
  }
  return core;
}

EdgeList random_graph(Index n, Index m, unsigned seed, bool symmetric,
                      bool weighted) {
  auto g = gbtl_graph::deduplicate(
      gbtl_graph::remove_self_loops(gbtl_graph::erdos_renyi(n, m, seed)));
  if (symmetric) g = gbtl_graph::symmetrize(g);
  if (weighted) g = gbtl_graph::with_random_weights(g, 1.0, 9.0, seed + 1);
  return g;
}

class Oracles : public ::testing::TestWithParam<unsigned> {};

TEST_P(Oracles, BfsMatchesHostBfs) {
  auto g = random_graph(60, 200, GetParam(), false, false);
  HostGraph h(g);
  auto a = gbtl_graph::to_matrix<double, grb::Sequential>(g);
  grb::Vector<IndexType, grb::Sequential> levels(g.num_vertices);
  algorithms::bfs_level(a, 0, levels);
  const auto ref = host_bfs(h, 0);
  for (Index v = 0; v < g.num_vertices; ++v) {
    if (ref[v] < 0) {
      EXPECT_FALSE(levels.hasElement(v)) << v;
    } else {
      ASSERT_TRUE(levels.hasElement(v)) << v;
      EXPECT_EQ(levels.extractElement(v),
                static_cast<IndexType>(ref[v] + 1))
          << v;
    }
  }
}

TEST_P(Oracles, BfsParentDistancesMatch) {
  auto g = random_graph(50, 170, GetParam() + 50, false, false);
  HostGraph h(g);
  auto a = gbtl_graph::to_matrix<double, grb::Sequential>(g);
  grb::Vector<IndexType, grb::Sequential> parents(g.num_vertices);
  algorithms::bfs_parent(a, 0, parents);
  const auto ref = host_bfs(h, 0);
  for (Index v = 0; v < g.num_vertices; ++v)
    EXPECT_EQ(parents.hasElement(v), ref[v] >= 0) << v;
  // Walking parents from any reachable vertex must take exactly ref[v]
  // hops to the source.
  for (Index v = 0; v < g.num_vertices; ++v) {
    if (ref[v] <= 0) continue;
    Index cur = v;
    long long hops = 0;
    while (cur != 0 && hops <= ref[v]) {
      cur = parents.extractElement(cur);
      ++hops;
    }
    EXPECT_EQ(cur, 0u) << v;
    EXPECT_EQ(hops, ref[v]) << v;
  }
}

TEST_P(Oracles, SsspMatchesBellmanFord) {
  auto g = random_graph(50, 180, GetParam() + 100, false, true);
  HostGraph h(g);
  auto a = gbtl_graph::to_matrix<double, grb::Sequential>(g);
  grb::Vector<double, grb::Sequential> dist(g.num_vertices);
  algorithms::sssp(a, 0, dist);
  const auto ref = host_bellman_ford(h, 0);
  for (Index v = 0; v < g.num_vertices; ++v) {
    if (ref[v] == kInf) {
      EXPECT_FALSE(dist.hasElement(v)) << v;
    } else {
      ASSERT_TRUE(dist.hasElement(v)) << v;
      EXPECT_NEAR(dist.extractElement(v), ref[v], 1e-9) << v;
    }
  }
}

TEST_P(Oracles, TriangleCountsMatchBruteForce) {
  auto g = random_graph(36, 150, GetParam() + 200, true, false);
  auto a = gbtl_graph::to_matrix<double, grb::Sequential>(g);
  const auto ref = host_triangles(g);
  EXPECT_EQ(algorithms::triangle_count_masked(a), ref);
  EXPECT_EQ(algorithms::triangle_count_unmasked(a), ref);
  EXPECT_EQ(algorithms::triangle_count_burkhardt(a), ref);
  // The device leg: select on the device, then the masked L·L through
  // whichever SpGEMM engine (or the word path) GBTL_SPGEMM_MODE and
  // GBTL_BIT_MODE pick.
  sparse::SpgemmModeGuard pin(
      spgemm_pin_from_env().value_or(sparse::spgemm_mode()));
  auto ag = gbtl_graph::to_matrix<double, grb::GpuSim>(g);
  EXPECT_EQ(algorithms::triangle_count_masked(ag), ref);
  EXPECT_EQ(algorithms::triangle_count_unmasked(ag), ref);
}

TEST_P(Oracles, ComponentsMatchUnionFind) {
  auto g = random_graph(70, 80, GetParam() + 300, true, false);
  auto a = gbtl_graph::to_matrix<double, grb::Sequential>(g);
  grb::Vector<IndexType, grb::Sequential> labels(g.num_vertices);
  algorithms::connected_components(a, labels);
  UnionFind uf(g.num_vertices);
  for (Index e = 0; e < g.num_edges(); ++e) uf.unite(g.src[e], g.dst[e]);
  for (Index u = 0; u < g.num_vertices; ++u)
    for (Index v = u + 1; v < g.num_vertices; ++v)
      EXPECT_EQ(labels.extractElement(u) == labels.extractElement(v),
                uf.find(u) == uf.find(v))
          << u << "," << v;
}

TEST_P(Oracles, MstWeightMatchesKruskal) {
  auto g = random_graph(40, 140, GetParam() + 400, true, true);
  // Make weights symmetric (symmetrize happened before weighting).
  for (Index e = 0; e < g.num_edges(); ++e) {
    // enforce w(u,v) == w(v,u) by keying on the unordered pair
    const Index u = std::min(g.src[e], g.dst[e]);
    const Index v = std::max(g.src[e], g.dst[e]);
    std::mt19937_64 h(u * 1000003 + v);
    g.weight[e] = 1.0 + static_cast<double>(h() % 1000) / 100.0;
  }
  auto a = gbtl_graph::to_matrix<double, grb::Sequential>(g);
  grb::Vector<IndexType, grb::Sequential> parents(g.num_vertices);
  const auto res = algorithms::mst(a, parents);
  EXPECT_NEAR(res.weight, host_kruskal_weight(g), 1e-9);
}

TEST_P(Oracles, MaxflowMatchesHostEdmondsKarp) {
  const Index n = 14;
  std::mt19937 rng(GetParam() + 500);
  std::uniform_real_distribution<double> cap(1.0, 20.0);
  std::bernoulli_distribution keep(0.3);
  std::vector<std::vector<double>> c(n, std::vector<double>(n, 0.0));
  grb::IndexArrayType rows, cols;
  std::vector<double> vals;
  for (Index u = 0; u < n; ++u)
    for (Index v = 0; v < n; ++v)
      if (u != v && keep(rng)) {
        c[u][v] = cap(rng);
        rows.push_back(u);
        cols.push_back(v);
        vals.push_back(c[u][v]);
      }
  grb::Matrix<double, grb::Sequential> a(n, n);
  a.build(rows, cols, vals);
  EXPECT_NEAR(algorithms::maxflow(a, 0, n - 1), host_maxflow(c, 0, n - 1),
              1e-9);
}

TEST_P(Oracles, KcoreMatchesHostPeeling) {
  auto g = random_graph(50, 240, GetParam() + 600, true, false);
  auto a = gbtl_graph::to_matrix<double, grb::Sequential>(g);
  grb::Vector<IndexType, grb::Sequential> core(g.num_vertices);
  algorithms::kcore_decomposition(a, core);
  const auto ref = host_kcore(g);
  for (Index v = 0; v < g.num_vertices; ++v)
    EXPECT_EQ(core.extractElement(v), ref[v]) << "vertex " << v;
}

TEST_P(Oracles, PagerankMatchesDensePowerIteration) {
  auto g = random_graph(30, 120, GetParam() + 700, false, false);
  const Index n = g.num_vertices;
  // Dense host power iteration with dangling handling.
  std::vector<std::vector<double>> M(n, std::vector<double>(n, 0.0));
  std::vector<double> outdeg(n, 0.0);
  for (Index e = 0; e < g.num_edges(); ++e) outdeg[g.src[e]] += 1.0;
  for (Index e = 0; e < g.num_edges(); ++e)
    M[g.src[e]][g.dst[e]] = 1.0 / outdeg[g.src[e]];
  std::vector<double> r(n, 1.0 / n), next(n);
  const double d = 0.85;
  for (int it = 0; it < 200; ++it) {
    double dangling = 0.0;
    for (Index u = 0; u < n; ++u)
      if (outdeg[u] == 0.0) dangling += r[u];
    std::fill(next.begin(), next.end(),
              (1.0 - d + d * dangling) / static_cast<double>(n));
    for (Index u = 0; u < n; ++u)
      for (Index v = 0; v < n; ++v) next[v] += d * r[u] * M[u][v];
    r = next;
  }
  auto a = gbtl_graph::to_matrix<double, grb::Sequential>(g);
  grb::Vector<double, grb::Sequential> rank(n);
  algorithms::pagerank(a, rank, d, 1e-14, 200);
  for (Index v = 0; v < n; ++v)
    EXPECT_NEAR(rank.extractElement(v), r[v], 1e-8) << v;
}

TEST_P(Oracles, BetweennessMatchesBruteForce) {
  auto g = random_graph(16, 50, GetParam() + 800, false, false);
  const Index n = g.num_vertices;
  HostGraph h(g);
  // Brute force: enumerate all shortest paths via BFS DAG counting.
  std::vector<double> ref(n, 0.0);
  for (Index s = 0; s < n; ++s) {
    auto dist = host_bfs(h, s);
    // sigma counts
    std::vector<double> sigma(n, 0.0);
    sigma[s] = 1.0;
    std::vector<Index> order;
    for (long long level = 0;; ++level) {
      bool any = false;
      for (Index v = 0; v < n; ++v)
        if (dist[v] == level) {
          order.push_back(v);
          any = true;
        }
      if (!any) break;
    }
    for (Index v : order) {
      if (v == s) continue;
      for (Index u = 0; u < n; ++u)
        if (dist[u] + 1 == dist[v]) {
          for (auto [w, _] : h.adj[u])
            if (w == v) sigma[v] += sigma[u];
        }
    }
    std::vector<double> delta(n, 0.0);
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      Index w = *it;
      for (Index u = 0; u < n; ++u) {
        if (dist[u] + 1 != dist[w]) continue;
        bool edge = false;
        for (auto [x, _] : h.adj[u])
          if (x == w) edge = true;
        if (edge && sigma[w] > 0)
          delta[u] += sigma[u] / sigma[w] * (1.0 + delta[w]);
      }
    }
    for (Index v = 0; v < n; ++v)
      if (v != s) ref[v] += delta[v];
  }
  auto a = gbtl_graph::to_matrix<double, grb::Sequential>(g);
  auto bc = algorithms::betweenness_centrality(a);
  for (Index v = 0; v < n; ++v)
    EXPECT_NEAR(bc.extractElement(v), ref[v], 1e-6) << "vertex " << v;
}

INSTANTIATE_TEST_SUITE_P(Sweep, Oracles, ::testing::Range(1u, 7u));

// --- PageRank formulation pin ----------------------------------------------
// PageRank multiplies (rank ⊙ 1/out-degree) by the graph itself instead of
// rank by D⁻¹A. Every product and fold order is the same, so every entry
// point must match the transition-matrix formulation bit for bit on every
// backend (scripts/ci.sh also replays these with fusion off and forced).

constexpr double kPinDamping = 0.85;
constexpr double kPinTol = 1e-9;
constexpr IndexType kPinMaxIterations = 100;

/// A graph on which a wrong PageRank semiring shows: real-valued non-unit
/// weights, explicitly stored zeros, every 9th vertex dangling, and
/// vertex 1 whose only out-edge is a stored zero (out-degree 1).
template <typename Tag>
grb::Matrix<double, Tag> pin_graph(unsigned seed) {
  constexpr IndexType n = 240;
  std::mt19937 rng(seed);
  std::uniform_int_distribution<IndexType> vertex(0, n - 1);
  std::uniform_real_distribution<double> weight(0.1, 3.0);
  std::bernoulli_distribution stored_zero(0.1);
  grb::IndexArrayType rows{1}, cols{2};
  std::vector<double> vals{0.0};
  for (IndexType i = 2; i < n; ++i) {
    if (i % 9 == 0) continue;
    for (int e = 0; e < 6; ++e) {
      rows.push_back(i);
      cols.push_back(vertex(rng));
      vals.push_back(stored_zero(rng) ? 0.0 : weight(rng));
    }
  }
  grb::Matrix<double, Tag> a(n, n);
  a.build(rows, cols, vals, grb::Plus<double>{});
  return a;
}

template <typename Tag>
void expect_same_bytes(const grb::Vector<double, Tag>& got,
                       const grb::Vector<double, Tag>& want,
                       const char* what) {
  grb::IndexArrayType gi, wi;
  std::vector<double> gv, wv;
  got.extractTuples(gi, gv);
  want.extractTuples(wi, wv);
  ASSERT_EQ(gi, wi) << what;
  ASSERT_EQ(gv.size(), wv.size()) << what;
  EXPECT_EQ(std::memcmp(gv.data(), wv.data(), gv.size() * sizeof(double)), 0)
      << what;
}

/// pagerank, pagerank_warm and personalized_pagerank against the
/// transition-matrix formulation; then the seed list as a set.
template <typename Tag>
void expect_pagerank_pinned(unsigned seed) {
  const auto a = pin_graph<Tag>(seed);
  const IndexType n = a.nrows();
  grb::Vector<double, Tag> want(n), got(n);

  const IndexType iterations = transition_matrix_pagerank(
      a, nullptr, false, want, kPinDamping, kPinTol, kPinMaxIterations);
  const auto cold = algorithms::pagerank(a, got, kPinDamping, kPinTol,
                                         kPinMaxIterations);
  EXPECT_GT(iterations, 10u);
  EXPECT_EQ(cold.iterations, iterations);
  expect_same_bytes(got, want, "pagerank");

  // Warm: both restart from one dense, non-uniform vector.
  std::vector<double> start(n);
  for (IndexType v = 0; v < n; ++v) start[v] = (1.0 + v % 7) / (4.0 * n);
  want.clear();
  got.clear();
  want.build(grb::all_indices(n), start);
  got.build(grb::all_indices(n), start);
  transition_matrix_pagerank(a, nullptr, true, want, kPinDamping, kPinTol,
                             kPinMaxIterations);
  algorithms::pagerank_warm(a, got, kPinDamping, kPinTol, kPinMaxIterations);
  expect_same_bytes(got, want, "pagerank_warm");

  // Personalized, with a dangling seed; the reference takes the sorted set.
  const grb::IndexArrayType set{3, 5, 17, 18};
  transition_matrix_pagerank(a, &set, false, want, kPinDamping, kPinTol,
                             kPinMaxIterations);
  algorithms::personalized_pagerank(a, {17, 3, 18, 5}, got, kPinDamping,
                                    kPinTol, kPinMaxIterations);
  expect_same_bytes(got, want, "personalized_pagerank");

  // A repeated seed counts once, and seed order does not matter.
  auto ppr = [&](const grb::IndexArrayType& seeds) {
    grb::Vector<double, Tag> rank(n);
    algorithms::personalized_pagerank(a, seeds, rank);
    return rank;
  };
  const auto repeated = ppr({3, 3});
  expect_same_bytes(repeated, ppr({3}), "seeds {3, 3} vs {3}");
  expect_same_bytes(ppr({5, 3}), ppr({3, 5}), "seeds {5, 3} vs {3, 5}");
  double total = 0.0;
  grb::reduce(total, grb::NoAccumulate{}, grb::PlusMonoid<double>{},
              repeated);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(PageRankPin, Sequential) {
  for (const unsigned seed : {11u, 12u})
    expect_pagerank_pinned<grb::Sequential>(seed);
}

TEST(PageRankPin, CpuParAtOneAndFourWorkers) {
  for (const std::size_t workers : {1u, 4u}) {
    SCOPED_TRACE(workers);
    gpu_sim::ThreadPool pool(workers);
    grb::cpupar_backend::ScopedPool bind(pool);
    for (const unsigned seed : {11u, 12u})
      expect_pagerank_pinned<grb::CpuPar>(seed);
  }
}

TEST(PageRankPin, GpuSim) {
  for (const unsigned seed : {11u, 12u})
    expect_pagerank_pinned<grb::GpuSim>(seed);
}

TEST(PageRankPin, GpuShardAtTwoAndFourShards) {
  gpu_sim::Context extra[3];
  gpu_sim::ScopedPlacement placement(
      {&gpu_sim::device(), &extra[0], &extra[1], &extra[2]});
  for (const std::size_t shards : {2u, 4u}) {
    SCOPED_TRACE(shards);
    sparse::ShardCountGuard pin(shards);
    for (const unsigned seed : {11u, 12u})
      expect_pagerank_pinned<grb::GpuShard>(seed);
  }
}

}  // namespace
