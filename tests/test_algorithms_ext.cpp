/// Tests for the extension algorithms (k-core, k-truss, coloring,
/// personalized PageRank) and the applyIndexed primitive, typed across
/// both backends.

#include <gtest/gtest.h>

#include "algorithms/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/graph_matrix.hpp"

namespace {

using grb::IndexType;
using grb::NoAccumulate;
using grb::NoMask;

template <typename Tag>
struct AlgoExt : public ::testing::Test {};

using Backends = ::testing::Types<grb::Sequential, grb::GpuSim>;
TYPED_TEST_SUITE(AlgoExt, Backends);

TYPED_TEST(AlgoExt, ApplyIndexedVector) {
  grb::Vector<double, TypeParam> u(4);
  u.setElement(1, 10.0);
  u.setElement(3, 20.0);
  grb::Vector<double, TypeParam> w(4);
  grb::applyIndexed(w, NoMask{}, NoAccumulate{},
                    [](IndexType i, double v) { return v + i; }, u);
  EXPECT_DOUBLE_EQ(w.extractElement(1), 11.0);
  EXPECT_DOUBLE_EQ(w.extractElement(3), 23.0);
  EXPECT_FALSE(w.hasElement(0));
}

TYPED_TEST(AlgoExt, ApplyIndexedMatrix) {
  grb::Matrix<double, TypeParam> a(3, 3);
  a.build({0, 1, 2}, {2, 0, 1}, {1.0, 1.0, 1.0});
  grb::Matrix<double, TypeParam> c(3, 3);
  grb::applyIndexed(c, NoMask{}, NoAccumulate{},
                    [](IndexType i, IndexType j, double v) {
                      return v * 100 + static_cast<double>(i * 10 + j);
                    },
                    a);
  EXPECT_DOUBLE_EQ(c.extractElement(0, 2), 102.0);
  EXPECT_DOUBLE_EQ(c.extractElement(1, 0), 110.0);
  EXPECT_DOUBLE_EQ(c.extractElement(2, 1), 121.0);
}

TYPED_TEST(AlgoExt, ApplyIndexedRespectsMaskAndAccum) {
  grb::Vector<double, TypeParam> u(3);
  u.setElement(0, 1.0);
  u.setElement(1, 1.0);
  grb::Vector<double, TypeParam> w(3);
  w.setElement(0, 5.0);
  grb::Vector<bool, TypeParam> mask(3);
  mask.setElement(0, true);
  grb::applyIndexed(w, mask, grb::Plus<double>{},
                    [](IndexType i, double v) { return v + i; }, u,
                    grb::Replace);
  EXPECT_DOUBLE_EQ(w.extractElement(0), 6.0);  // 5 + (1+0)
  EXPECT_FALSE(w.hasElement(1));               // masked out + replace
}

// --- k-core ---------------------------------------------------------------

TYPED_TEST(AlgoExt, KcoreOnCliquePlusTail) {
  // K4 (vertices 0-3) with a path 3-4-5 hanging off.
  gbtl_graph::EdgeList g = gbtl_graph::complete(4);
  g.num_vertices = 6;
  g.src.insert(g.src.end(), {3, 4, 4, 5});
  g.dst.insert(g.dst.end(), {4, 3, 5, 4});
  auto a = gbtl_graph::to_matrix<double, TypeParam>(g);
  grb::Vector<IndexType, TypeParam> core(6);
  const auto degeneracy = algorithms::kcore_decomposition(a, core);
  EXPECT_EQ(degeneracy, 3u);
  for (IndexType v = 0; v < 4; ++v) EXPECT_EQ(core.extractElement(v), 3u);
  EXPECT_EQ(core.extractElement(4), 1u);
  EXPECT_EQ(core.extractElement(5), 1u);
}

TYPED_TEST(AlgoExt, KcoreIsolatedVerticesAreZero) {
  grb::Matrix<double, TypeParam> a(3, 3);
  a.build({0, 1}, {1, 0}, {1.0, 1.0});
  grb::Vector<IndexType, TypeParam> core(3);
  algorithms::kcore_decomposition(a, core);
  EXPECT_EQ(core.extractElement(0), 1u);
  EXPECT_EQ(core.extractElement(1), 1u);
  EXPECT_EQ(core.extractElement(2), 0u);
}

TYPED_TEST(AlgoExt, KcoreVerticesSelectsSubgraph) {
  auto g = gbtl_graph::complete(5);  // every vertex in the 4-core
  auto a = gbtl_graph::to_matrix<double, TypeParam>(g);
  auto members = algorithms::kcore_vertices(a, 4);
  EXPECT_EQ(members.nvals(), 5u);
  auto none = algorithms::kcore_vertices(a, 5);
  EXPECT_EQ(none.nvals(), 0u);
}

// --- k-truss ---------------------------------------------------------------

TYPED_TEST(AlgoExt, KtrussOnCliqueSurvivesWhole) {
  auto g = gbtl_graph::complete(5);
  auto a = gbtl_graph::to_matrix<double, TypeParam>(g);
  grb::Matrix<IndexType, TypeParam> t(5, 5);
  // Every edge of K5 is in 3 triangles: the 5-truss (support >= 3) is K5.
  auto r = algorithms::ktruss(a, 5, t);
  EXPECT_EQ(r.edges, 20u);
  // 6-truss would need support 4: empty.
  auto r6 = algorithms::ktruss(a, 6, t);
  EXPECT_EQ(r6.edges, 0u);
}

TYPED_TEST(AlgoExt, KtrussPeelsTailEdges) {
  // K4 plus a pendant path: the 3-truss keeps exactly the K4 edges.
  gbtl_graph::EdgeList g = gbtl_graph::complete(4);
  g.num_vertices = 6;
  g.src.insert(g.src.end(), {3, 4, 4, 5});
  g.dst.insert(g.dst.end(), {4, 3, 5, 4});
  auto a = gbtl_graph::to_matrix<double, TypeParam>(g);
  grb::Matrix<IndexType, TypeParam> t(6, 6);
  auto r = algorithms::ktruss(a, 3, t);
  EXPECT_EQ(r.edges, 12u);  // K4's directed edges
  EXPECT_TRUE(t.hasElement(0, 1));
  EXPECT_FALSE(t.hasElement(3, 4));
  EXPECT_FALSE(t.hasElement(4, 5));
}

TYPED_TEST(AlgoExt, MaxTrussOfBowtieIsThree) {
  gbtl_graph::EdgeList bowtie;
  bowtie.num_vertices = 5;
  bowtie.src = {0, 1, 0, 2, 1, 2, 2, 3, 2, 4, 3, 4};
  bowtie.dst = {1, 0, 2, 0, 2, 1, 3, 2, 4, 2, 4, 3};
  auto a = gbtl_graph::to_matrix<double, TypeParam>(bowtie);
  EXPECT_EQ(algorithms::max_truss(a), 3u);
}

// --- coloring ---------------------------------------------------------------

TYPED_TEST(AlgoExt, ColoringIsProperOnRandomGraph) {
  auto g = gbtl_graph::symmetrize(gbtl_graph::remove_self_loops(
      gbtl_graph::erdos_renyi(40, 160, 17)));
  auto a = gbtl_graph::to_matrix<double, TypeParam>(g);
  grb::Vector<IndexType, TypeParam> colors(40);
  auto r = algorithms::greedy_coloring(a, colors, 5);
  EXPECT_TRUE(algorithms::is_proper_coloring(a, colors));
  EXPECT_GT(r.colors_used, 0u);
  // Greedy bound: colors <= max degree + 1.
  auto deg = algorithms::out_degree(a);
  grb::IndexType max_deg = 0;
  grb::reduce(max_deg, NoAccumulate{}, grb::MaxMonoid<IndexType>{}, deg);
  EXPECT_LE(r.colors_used, max_deg + 1);
}

TYPED_TEST(AlgoExt, ColoringBipartiteUsesTwoColors) {
  // Even cycle = bipartite: exactly 2 colors.
  auto g = gbtl_graph::symmetrize(gbtl_graph::cycle(8));
  auto a = gbtl_graph::to_matrix<double, TypeParam>(g);
  grb::Vector<IndexType, TypeParam> colors(8);
  auto r = algorithms::greedy_coloring(a, colors, 3);
  EXPECT_TRUE(algorithms::is_proper_coloring(a, colors));
  EXPECT_LE(r.colors_used, 3u);  // JP-greedy may use 3 on a cycle, never more
}

TYPED_TEST(AlgoExt, ColoringCompleteGraphNeedsNColors) {
  auto g = gbtl_graph::complete(5);
  auto a = gbtl_graph::to_matrix<double, TypeParam>(g);
  grb::Vector<IndexType, TypeParam> colors(5);
  auto r = algorithms::greedy_coloring(a, colors, 11);
  EXPECT_TRUE(algorithms::is_proper_coloring(a, colors));
  EXPECT_EQ(r.colors_used, 5u);
}

// --- validators ----------------------------------------------------------------

TYPED_TEST(AlgoExt, ValidatorsRejectBrokenAnswers) {
  constexpr IndexType kSide = 4, n = kSide * kSide;
  auto a = gbtl_graph::to_matrix<double, TypeParam>(
      gbtl_graph::grid2d(kSide, kSide));
  grb::Vector<bool, TypeParam> iset(n);
  algorithms::mis(a, iset, 3);
  ASSERT_TRUE(algorithms::is_maximal_independent_set(a, iset));
  // A member dropped from the set has no member neighbour: not maximal.
  grb::IndexArrayType members;
  std::vector<bool> flags;
  iset.extractTuples(members, flags);
  grb::Vector<bool, TypeParam> fewer(iset);
  fewer.removeElement(members[0]);
  EXPECT_FALSE(algorithms::is_maximal_independent_set(a, fewer));
  // Every vertex in the set: not independent.
  grb::Vector<bool, TypeParam> all(n);
  grb::Vector<IndexType, TypeParam> same(n), checker(n);
  for (IndexType v = 0; v < n; ++v) {
    all.setElement(v, true);
    same.setElement(v, 1);
    checker.setElement(v, 1 + (v / kSide + v % kSide) % 2);
  }
  EXPECT_FALSE(algorithms::is_maximal_independent_set(a, all));
  EXPECT_FALSE(algorithms::is_proper_coloring(a, same));
  EXPECT_TRUE(algorithms::is_proper_coloring(a, checker));
  EXPECT_TRUE(algorithms::is_bipartite(a));
}

// On a device each element read is one transfer. The validators read each
// vector in bulk, so checking an n-vertex graph costs fewer than n d2h
// transfers; a per-vertex or per-edge read costs at least n.
TEST(ValidatorReadback, DeviceTransfersStayBelowVertexCount) {
  constexpr IndexType kSide = 16, n = kSide * kSide;
  gpu_sim::Context ctx;
  gpu_sim::ScopedDevice bind(ctx);
  auto a = gbtl_graph::to_matrix<double, grb::GpuSim>(
      gbtl_graph::grid2d(kSide, kSide));
  grb::Vector<bool, grb::GpuSim> iset(n);
  algorithms::mis(a, iset, 3);
  grb::Vector<IndexType, grb::GpuSim> colors(n);
  algorithms::greedy_coloring(a, colors, 5);
  const auto d2h = [&](auto&& check) {
    const std::uint64_t before = ctx.stats().d2h_transfers;
    EXPECT_TRUE(check());
    return ctx.stats().d2h_transfers - before;
  };
  EXPECT_LT(d2h([&] { return algorithms::is_maximal_independent_set(a, iset); }),
            n);
  EXPECT_LT(d2h([&] { return algorithms::is_proper_coloring(a, colors); }), n);
  EXPECT_LT(d2h([&] { return algorithms::is_bipartite(a); }), n);
  // Many components cost no more than one: one BFS runs from every
  // component's root and its levels are read once.
  gbtl_graph::EdgeList pairs;
  pairs.num_vertices = n;
  for (IndexType v = 0; v < n; v += 2) {
    pairs.src.insert(pairs.src.end(), {v, v + 1});
    pairs.dst.insert(pairs.dst.end(), {v + 1, v});
  }
  auto matching = gbtl_graph::to_matrix<double, grb::GpuSim>(pairs);
  EXPECT_LE(d2h([&] { return algorithms::is_bipartite(matching); }), 8u);
}

// --- personalized pagerank ---------------------------------------------------

TYPED_TEST(AlgoExt, PersonalizedPagerankLocalizesAroundSeed) {
  // Two triangles joined by one long path; seed in the left triangle.
  gbtl_graph::EdgeList g;
  g.num_vertices = 9;
  auto add = [&](gbtl_graph::Index s, gbtl_graph::Index d) {
    g.src.push_back(s);
    g.dst.push_back(d);
    g.src.push_back(d);
    g.dst.push_back(s);
  };
  add(0, 1), add(1, 2), add(2, 0);          // left triangle
  add(2, 3), add(3, 4), add(4, 5), add(5, 6);  // path
  add(6, 7), add(7, 8), add(8, 6);          // right triangle
  auto a = gbtl_graph::to_matrix<double, TypeParam>(g);

  grb::Vector<double, TypeParam> rank(9);
  algorithms::personalized_pagerank(a, {0}, rank);
  double total = 0.0;
  grb::reduce(total, NoAccumulate{}, grb::PlusMonoid<double>{}, rank);
  EXPECT_NEAR(total, 1.0, 1e-6);
  // Mass concentrates near the seed.
  EXPECT_GT(rank.extractElement(0), rank.extractElement(8));
  EXPECT_GT(rank.extractElement(1), rank.extractElement(7));
  EXPECT_GT(rank.extractElement(0), 0.15);
}

TYPED_TEST(AlgoExt, PersonalizedPagerankValidatesArguments) {
  grb::Matrix<double, TypeParam> a(3, 3);
  a.build({0}, {1}, {1.0});
  grb::Vector<double, TypeParam> rank(3);
  EXPECT_THROW(algorithms::personalized_pagerank(a, {}, rank),
               grb::InvalidValueException);
  EXPECT_THROW(algorithms::personalized_pagerank(a, {9}, rank),
               grb::IndexOutOfBoundsException);
}

}  // namespace
