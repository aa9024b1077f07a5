/// GPU-backend behavioural tests: device residency (steady-state primitives
/// must not touch PCIe), transfer accounting of the documented host
/// fallbacks, cost-model shape (crossover, masked-mxm pruning, transfer
/// penalty), and device-memory lifecycle through GraphBLAS objects.

#include <gtest/gtest.h>

#include <limits>

#include "algorithms/bfs.hpp"
#include "algorithms/connected_components.hpp"
#include "algorithms/pagerank.hpp"
#include "algorithms/sssp.hpp"
#include "algorithms/triangle_count.hpp"
#include "gbtl/gbtl.hpp"
#include "gpu_sim/context.hpp"
#include "graph/generators.hpp"
#include "graph/graph_matrix.hpp"
#include "pagerank_reference.hpp"
#include "sparse/bitmap.hpp"
#include "sparse/fusion_plan.hpp"
#include "sparse/spgemm_select.hpp"
#include "sparse/spmv_select.hpp"

namespace {

using grb::IndexType;
using grb::NoAccumulate;
using grb::NoMask;

gpu_sim::DeviceStats run_and_measure(const std::function<void()>& work) {
  auto& dev = gpu_sim::device();
  const auto before = dev.stats();
  work();
  return dev.stats() - before;
}

TEST(GpuResidency, MxvSteadyStateHasNoTransfers) {
  grb::Matrix<double, grb::GpuSim> a(64, 64);
  {
    auto g = gbtl_graph::deduplicate(gbtl_graph::erdos_renyi(64, 400, 1));
    a = gbtl_graph::to_matrix<double, grb::GpuSim>(g);
  }
  grb::Vector<double, grb::GpuSim> u(std::vector<double>(64, 1.0), 0.0);
  grb::Vector<double, grb::GpuSim> w(64);

  const auto delta = run_and_measure([&] {
    grb::mxv(w, NoMask{}, NoAccumulate{}, grb::ArithmeticSemiring<double>{},
             a, u, grb::Replace);
  });
  EXPECT_EQ(delta.h2d_transfers, 0u);
  EXPECT_EQ(delta.d2h_transfers, 0u);
  EXPECT_GT(delta.kernel_launches, 0u);
}

TEST(GpuResidency, MxmSteadyStateHasNoTransfers) {
  auto g = gbtl_graph::deduplicate(gbtl_graph::erdos_renyi(32, 128, 2));
  auto a = gbtl_graph::to_matrix<double, grb::GpuSim>(g);
  grb::Matrix<double, grb::GpuSim> c(32, 32);
  const auto delta = run_and_measure([&] {
    grb::mxm(c, NoMask{}, NoAccumulate{}, grb::ArithmeticSemiring<double>{},
             a, a, grb::Replace);
  });
  EXPECT_EQ(delta.h2d_transfers, 0u);
  EXPECT_EQ(delta.d2h_transfers, 0u);
}

TEST(GpuResidency, HostFallbackOpsAccountTransfers) {
  auto g = gbtl_graph::deduplicate(gbtl_graph::erdos_renyi(16, 64, 3));
  auto a = gbtl_graph::to_matrix<double, grb::GpuSim>(g);
  grb::Matrix<double, grb::GpuSim> k(256, 256);
  // kronecker is documented as a host fallback: it must pay D2H + H2D.
  const auto delta = run_and_measure([&] {
    grb::kronecker(k, NoMask{}, NoAccumulate{}, grb::Times<double>{}, a, a);
  });
  EXPECT_GT(delta.d2h_transfers, 0u);
  EXPECT_GT(delta.h2d_transfers, 0u);
}

TEST(GpuResidency, ExtractElementIsATransfer) {
  grb::Matrix<double, grb::GpuSim> a(4, 4);
  a.build({1}, {2}, {5.0});
  const auto delta =
      run_and_measure([&] { EXPECT_DOUBLE_EQ(a.extractElement(1, 2), 5.0); });
  EXPECT_GT(delta.d2h_transfers, 0u);
}

// operator== is a convergence test: it must run on the device, and answer
// exactly as the Sequential backend's does.
TEST(GpuResidency, EqualityRunsOnDeviceAndAgreesWithSequential) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  struct Tuples {
    grb::IndexArrayType rows, cols;
    std::vector<double> vals;
  };
  const auto compare = [](const char* name, const auto& seq_a,
                          const auto& seq_b, const auto& gpu_a,
                          const auto& gpu_b) {
    bool gpu_equal = false;
    const auto delta = run_and_measure([&] { gpu_equal = gpu_a == gpu_b; });
    EXPECT_EQ(gpu_equal, seq_a == seq_b) << name;
    EXPECT_EQ(delta.d2h_transfers, 0u) << name;
  };

  const std::pair<const char*, std::pair<Tuples, Tuples>> vector_cases[] = {
      {"equal", {{{0, 3}, {}, {1.0, 2.0}}, {{0, 3}, {}, {1.0, 2.0}}}},
      {"presence only",
       {{{0, 3}, {}, {1.0, 0.0}}, {{0, 3, 5}, {}, {1.0, 0.0, 0.0}}}},
      {"one value", {{{0, 3}, {}, {1.0, 2.0}}, {{0, 3}, {}, {1.0, 2.5}}}},
      {"NaN", {{{0, 3}, {}, {nan, 2.0}}, {{0, 3}, {}, {nan, 2.0}}}},
      {"signed zero", {{{0, 3}, {}, {-0.0, 2.0}}, {{0, 3}, {}, {0.0, 2.0}}}},
  };
  for (const auto& [name, ab] : vector_cases) {
    grb::Vector<double, grb::Sequential> sa(6), sb(6);
    grb::Vector<double, grb::GpuSim> ga(6), gb(6);
    sa.build(ab.first.rows, ab.first.vals);
    sb.build(ab.second.rows, ab.second.vals);
    ga.build(ab.first.rows, ab.first.vals);
    gb.build(ab.second.rows, ab.second.vals);
    compare(name, sa, sb, ga, gb);
  }

  const std::pair<const char*, std::pair<Tuples, Tuples>> matrix_cases[] = {
      {"equal",
       {{{0, 2}, {1, 3}, {1.0, 2.0}}, {{0, 2}, {1, 3}, {1.0, 2.0}}}},
      {"structure only",
       {{{0, 2}, {1, 3}, {1.0, 2.0}}, {{0, 3}, {1, 2}, {1.0, 2.0}}}},
      {"one entry more",
       {{{0, 2}, {1, 3}, {1.0, 2.0}}, {{0, 2, 3}, {1, 3, 0}, {1.0, 2.0, 0.0}}}},
      {"one value",
       {{{0, 2}, {1, 3}, {1.0, 2.0}}, {{0, 2}, {1, 3}, {1.0, 2.5}}}},
      {"NaN", {{{0, 2}, {1, 3}, {nan, 2.0}}, {{0, 2}, {1, 3}, {nan, 2.0}}}},
      {"signed zero",
       {{{0, 2}, {1, 3}, {-0.0, 2.0}}, {{0, 2}, {1, 3}, {0.0, 2.0}}}},
  };
  for (const auto& [name, ab] : matrix_cases) {
    grb::Matrix<double, grb::Sequential> sa(4, 4), sb(4, 4);
    grb::Matrix<double, grb::GpuSim> ga(4, 4), gb(4, 4);
    sa.build(ab.first.rows, ab.first.cols, ab.first.vals);
    sb.build(ab.second.rows, ab.second.cols, ab.second.vals);
    ga.build(ab.first.rows, ab.first.cols, ab.first.vals);
    gb.build(ab.second.rows, ab.second.cols, ab.second.vals);
    compare(name, sa, sb, ga, gb);
  }
}

TEST(GpuCostShape, LoopControlCostsNoTransfer) {
  // Convergence tests, iterate rotation and whole-vector assigns stay on
  // the device: a traversal or relaxation pays only its seed's setElement
  // (value and presence), and PageRank uploads and copies nothing.
  gpu_sim::Context ctx;
  gpu_sim::ScopedDevice bind(ctx);
  auto a = gbtl_graph::to_matrix<double, grb::GpuSim>(
      gbtl_graph::deduplicate(gbtl_graph::symmetrize(
          gbtl_graph::remove_self_loops(gbtl_graph::rmat(10, 16, 13)))));
  const IndexType n = a.nrows();
  const auto measure = [&](const std::function<void()>& work) {
    const auto before = ctx.stats();
    work();
    return ctx.stats() - before;
  };
  grb::Vector<IndexType, grb::GpuSim> levels(n), labels(n);
  grb::Vector<double, grb::GpuSim> dist(n), rank(n);
  const std::pair<const char*, gpu_sim::DeviceStats> seeded[] = {
      {"bfs_level", measure([&] { algorithms::bfs_level(a, 0, levels); })},
      {"sssp", measure([&] { algorithms::sssp(a, 0, dist); })},
      {"connected_components",
       measure([&] { algorithms::connected_components(a, labels); })},
  };
  for (const auto& [name, d] : seeded) {
    EXPECT_EQ(d.d2h_transfers, 0u) << name;
    EXPECT_EQ(d.d2d_copies, 0u) << name;
    EXPECT_LE(d.h2d_transfers, 2u) << name;
  }
  const auto pr = measure(
      [&] { algorithms::pagerank(a, rank, 0.85, /*tol=*/0.0, 10); });
  EXPECT_EQ(pr.h2d_transfers, 0u);
  EXPECT_EQ(pr.d2d_copies, 0u);
}

TEST(GpuCostShape, LargeMxvBeatsManySmallOnes) {
  // Launch overhead amortization: 1 mxv over 4096 rows must cost less
  // simulated time than 64 mxvs over 64-row matrices with the same total
  // nnz — the "batch your primitives" architectural claim.
  auto big_g = gbtl_graph::deduplicate(
      gbtl_graph::erdos_renyi(4096, 64 * 640, 4));
  auto small_g = gbtl_graph::deduplicate(gbtl_graph::erdos_renyi(64, 640, 5));

  auto big = gbtl_graph::to_matrix<double, grb::GpuSim>(big_g);
  grb::Vector<double, grb::GpuSim> ub(std::vector<double>(4096, 1.0), 0.0);
  grb::Vector<double, grb::GpuSim> wb(4096);
  const auto one_big = run_and_measure([&] {
    grb::mxv(wb, NoMask{}, NoAccumulate{}, grb::ArithmeticSemiring<double>{},
             big, ub, grb::Replace);
  });

  auto small = gbtl_graph::to_matrix<double, grb::GpuSim>(small_g);
  grb::Vector<double, grb::GpuSim> us(std::vector<double>(64, 1.0), 0.0);
  grb::Vector<double, grb::GpuSim> ws(64);
  const auto many_small = run_and_measure([&] {
    for (int rep = 0; rep < 64; ++rep)
      grb::mxv(ws, NoMask{}, NoAccumulate{},
               grb::ArithmeticSemiring<double>{}, small, us, grb::Replace);
  });
  EXPECT_LT(one_big.simulated_kernel_time_s,
            many_small.simulated_kernel_time_s);
}

TEST(GpuCostShape, MaskedMxmCheaperThanUnmaskedOnSparseMask) {
  auto g = gbtl_graph::symmetrize(gbtl_graph::deduplicate(
      gbtl_graph::remove_self_loops(gbtl_graph::rmat(9, 8, 6))));
  auto a = gbtl_graph::to_matrix<double, grb::GpuSim>(g);
  grb::Matrix<double, grb::GpuSim> c(a.nrows(), a.ncols());

  const auto unmasked = run_and_measure([&] {
    grb::mxm(c, NoMask{}, NoAccumulate{}, grb::ArithmeticSemiring<double>{},
             a, a, grb::Replace);
  });
  const auto masked = run_and_measure([&] {
    grb::mxm(c, grb::structure(a), NoAccumulate{},
             grb::ArithmeticSemiring<double>{}, a, a, grb::Replace);
  });
  EXPECT_LT(masked.simulated_kernel_time_s, unmasked.simulated_kernel_time_s);
}

TEST(GpuCostShape, MaskedTriangleCountPaysOnlyForWedges) {
  // C<L> = L·L expands exactly the wedges j < k < i through their middle
  // vertex k: Σ_k lo(k)·hi(k) products, lo/hi counting k's neighbours with
  // a smaller/larger id. Each product the mask keeps closes one triangle,
  // so kept + avoided must equal that sum under both numeric engines.
  auto g = gbtl_graph::deduplicate(gbtl_graph::symmetrize(
      gbtl_graph::deduplicate(gbtl_graph::remove_self_loops(
          gbtl_graph::rmat(10, 8, 12)))));
  std::vector<std::uint64_t> lo(g.num_vertices, 0), hi(g.num_vertices, 0);
  for (IndexType e = 0; e < g.num_edges(); ++e)
    ++(g.dst[e] < g.src[e] ? lo : hi)[g.src[e]];
  std::uint64_t wedges = 0;
  for (IndexType k = 0; k < g.num_vertices; ++k) wedges += lo[k] * hi[k];
  auto a = gbtl_graph::to_matrix<double, grb::GpuSim>(g);

  sparse::BitModeGuard words_off(sparse::BitMode::Off);
  for (const auto mode : {sparse::SpgemmMode::Esc, sparse::SpgemmMode::Hash}) {
    sparse::SpgemmModeGuard pin(mode);
    std::uint64_t triangles = 0;
    const auto d = run_and_measure(
        [&] { triangles = algorithms::triangle_count_masked(a); });
    EXPECT_GT(triangles, 0u);
    EXPECT_EQ(d.spgemm_masked_products_avoided + triangles, wedges)
        << "mode " << static_cast<int>(mode);
  }

  // The strict lower triangle is a device select: no host round trip.
  const auto d = run_and_measure([&] { algorithms::lower_triangle(a); });
  EXPECT_EQ(d.h2d_transfers, 0u);
  EXPECT_EQ(d.d2h_transfers, 0u);
  EXPECT_GT(d.kernel_launches, 0u);
}

TEST(GpuCostShape, PageRankBuildsNoTransitionMatrix) {
  // PageRank scales the rank vector by 1/out-degree and multiplies by the
  // graph itself. Compared with the D⁻¹A formulation of
  // pagerank_reference.hpp: no SpGEMM, no grb::diag round trip through the
  // host, a transient below the graph's own device footprint, and no more
  // launches paid.
  gpu_sim::Context ctx;
  gpu_sim::ScopedDevice bind(ctx);
  sparse::FusionGuard fusion(sparse::FusionMode::Auto);
  auto g = gbtl_graph::deduplicate(
      gbtl_graph::remove_self_loops(gbtl_graph::rmat(10, 16, 13)));
  const std::size_t before_graph = ctx.stats().bytes_in_use;
  auto a = gbtl_graph::to_matrix<double, grb::GpuSim>(g);
  const std::size_t graph_bytes = ctx.stats().bytes_in_use - before_graph;
  grb::Vector<double, grb::GpuSim> rank(a.nrows());

  // One call's counters, and its peak device bytes above those at entry.
  auto measure = [&](const std::function<void()>& work) {
    ctx.reset_stats();  // the peak restarts from the bytes in use
    const std::size_t entry = ctx.stats().bytes_in_use;
    work();
    const auto d = ctx.stats();
    return std::pair{d, d.peak_bytes_in_use - entry};
  };
  const auto [now, now_peak] = measure(
      [&] { algorithms::pagerank(a, rank, 0.85, /*tol=*/0.0, 10); });
  const auto [old, old_peak] = measure([&] {
    transition_matrix_pagerank(a, nullptr, false, rank, 0.85, 0.0, 10);
  });

  EXPECT_EQ(now.spgemm_selections_total(), 0u);
  EXPECT_EQ(now.d2h_transfers, 0u);
  EXPECT_LT(now_peak, graph_bytes);
  EXPECT_LE(now.kernel_launches - now.launches_elided,
            old.kernel_launches - old.launches_elided);
  // The D⁻¹A formulation pays each of these, so the checks above can fail.
  EXPECT_GT(old.spgemm_selections_total(), 0u);
  EXPECT_GT(old.d2h_transfers, 0u);
  EXPECT_GT(old_peak, graph_bytes);
}

TEST(GpuCostShape, TransferPenaltyDominatesSmallWork) {
  // Uploading a matrix costs more simulated time than multiplying it once:
  // the Fig. 6 claim in miniature.
  auto g = gbtl_graph::deduplicate(gbtl_graph::erdos_renyi(256, 4096, 7));
  grb::IndexArrayType rows(g.src.begin(), g.src.end());
  grb::IndexArrayType cols(g.dst.begin(), g.dst.end());
  std::vector<double> vals(g.num_edges(), 1.0);

  auto& dev = gpu_sim::device();
  const auto s0 = dev.stats();
  grb::Matrix<double, grb::GpuSim> a(256, 256);
  a.build(rows, cols, vals);
  const auto after_build = dev.stats() - s0;

  grb::Vector<double, grb::GpuSim> u(std::vector<double>(256, 1.0), 0.0);
  grb::Vector<double, grb::GpuSim> w(256);
  const auto spmv_delta = run_and_measure([&] {
    grb::mxv(w, NoMask{}, NoAccumulate{}, grb::ArithmeticSemiring<double>{},
             a, u, grb::Replace);
  });
  EXPECT_GT(after_build.simulated_transfer_time_s,
            spmv_delta.simulated_total_time_s());
}

TEST(GpuCostShape, BfsSimulatedTimeScalesSubquadratically) {
  // Doubling the graph should not quadruple simulated BFS time (frontier
  // work is edge-proportional plus per-level overhead).
  auto time_bfs = [](unsigned scale) {
    auto g = gbtl_graph::deduplicate(gbtl_graph::remove_self_loops(
        gbtl_graph::rmat(scale, 16, 1000 + scale)));
    auto a = gbtl_graph::to_matrix<double, grb::GpuSim>(g);
    grb::Vector<IndexType, grb::GpuSim> levels(a.nrows());
    auto& dev = gpu_sim::device();
    const double t0 = dev.simulated_time_s();
    algorithms::bfs_level(a, 0, levels);
    return dev.simulated_time_s() - t0;
  };
  const double t10 = time_bfs(10);
  const double t11 = time_bfs(11);
  EXPECT_LT(t11, 4.0 * t10);
  EXPECT_GT(t11, t10);  // but it must grow
}

TEST(GpuMemory, ObjectsReleaseDeviceMemory) {
  auto& dev = gpu_sim::device();
  const std::size_t before = dev.stats().bytes_in_use;
  {
    grb::Matrix<double, grb::GpuSim> a(128, 128);
    a.build({0, 1, 2}, {1, 2, 3}, {1.0, 2.0, 3.0});
    grb::Vector<double, grb::GpuSim> v(1024);
    EXPECT_GT(dev.stats().bytes_in_use, before);
  }
  EXPECT_EQ(dev.stats().bytes_in_use, before);
}

TEST(GpuMemory, CopySemanticsAreDeep) {
  grb::Matrix<double, grb::GpuSim> a(4, 4);
  a.build({0}, {0}, {1.0});
  grb::Matrix<double, grb::GpuSim> b = a;
  b.setElement(0, 0, 99.0);
  EXPECT_DOUBLE_EQ(a.extractElement(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(b.extractElement(0, 0), 99.0);
}

TEST(GpuDeterminism, SimulatedTimeIsReproducible) {
  auto run_once = [] {
    auto g = gbtl_graph::deduplicate(gbtl_graph::erdos_renyi(128, 1024, 9));
    auto a = gbtl_graph::to_matrix<double, grb::GpuSim>(g);
    grb::Vector<IndexType, grb::GpuSim> levels(a.nrows());
    auto& dev = gpu_sim::device();
    const double t0 = dev.simulated_time_s();
    algorithms::bfs_level(a, 0, levels);
    return dev.simulated_time_s() - t0;
  };
  // The clock is cumulative, so the two deltas differ by at most the
  // rounding of (big + delta) - big: picoseconds on a microsecond quantity.
  const double first = run_once();
  const double second = run_once();
  EXPECT_NEAR(first, second, 1e-12);
}

TEST(GpuVectorCache, NvalsRecountsOncePerDirtyEpoch) {
  grb::Vector<double, grb::GpuSim> v(256);
  v.build({3, 17, 99}, {1.0, 2.0, 3.0});

  // First nvals() after a structural write runs the count kernel; repeats
  // within the same epoch are served from the cache.
  auto d = run_and_measure([&] {
    EXPECT_EQ(v.nvals(), 3u);
    EXPECT_EQ(v.nvals(), 3u);
    EXPECT_EQ(v.nvals(), 3u);
  });
  EXPECT_LE(d.nvals_recounts, 1u);

  // A write opens a new dirty epoch: exactly one recount, however many
  // queries follow.
  v.setElement(5, 9.0);
  d = run_and_measure([&] {
    EXPECT_EQ(v.nvals(), 4u);
    EXPECT_EQ(v.nvals(), 4u);
  });
  EXPECT_EQ(d.nvals_recounts, 1u);

  // Value-preserving queries must not invalidate: still zero recounts.
  d = run_and_measure([&] { EXPECT_EQ(v.nvals(), 4u); });
  EXPECT_EQ(d.nvals_recounts, 0u);

  // removeElement dirties again.
  v.removeElement(17);
  d = run_and_measure([&] {
    EXPECT_EQ(v.nvals(), 3u);
    EXPECT_EQ(v.nvals(), 3u);
  });
  EXPECT_EQ(d.nvals_recounts, 1u);
}

TEST(GpuTraversal, DirectionCountersTrackForcedModes) {
  auto g = gbtl_graph::deduplicate(gbtl_graph::remove_self_loops(
      gbtl_graph::rmat(8, 8, 77)));
  auto a = gbtl_graph::to_matrix<double, grb::GpuSim>(g);
  grb::Vector<IndexType, grb::GpuSim> levels(a.nrows());
  using gpu_sim::TraversalDirection;
  constexpr auto kPush = static_cast<std::size_t>(TraversalDirection::kPush);
  constexpr auto kPull = static_cast<std::size_t>(TraversalDirection::kPull);

  {
    sparse::DirectionModeGuard guard(sparse::DirectionMode::ForcePush);
    const auto d = run_and_measure([&] { algorithms::bfs_level(a, 0, levels); });
    EXPECT_GT(d.direction_selections[kPush], 0u);
    EXPECT_EQ(d.direction_selections[kPull], 0u);
    EXPECT_EQ(d.pull_early_exit_rows, 0u);
    // Push levels compact the frontier into its sparse index list.
    EXPECT_GT(d.frontier_compactions, 0u);
  }
  {
    sparse::DirectionModeGuard guard(sparse::DirectionMode::ForcePull);
    const auto d = run_and_measure([&] { algorithms::bfs_level(a, 0, levels); });
    EXPECT_GT(d.direction_selections[kPull], 0u);
    // The boolean or-and semiring saturates at true, so on a connected
    // R-MAT at least one pulled row must have early-exited.
    EXPECT_GT(d.pull_early_exit_rows, 0u);
  }
}

TEST(GpuBuild, DuplicatesCombineWithDupOp) {
  grb::Matrix<double, grb::GpuSim> a(3, 3);
  a.build({1, 1, 1}, {2, 2, 2}, {1.0, 2.0, 3.0}, grb::Plus<double>{});
  EXPECT_EQ(a.nvals(), 1u);
  EXPECT_DOUBLE_EQ(a.extractElement(1, 2), 6.0);

  grb::Matrix<double, grb::GpuSim> b(3, 3);
  b.build({1, 1}, {2, 2}, {1.0, 7.0}, grb::Max<double>{});
  EXPECT_DOUBLE_EQ(b.extractElement(1, 2), 7.0);
}

TEST(GpuBuild, OutOfBoundsTupleThrows) {
  grb::Matrix<double, grb::GpuSim> a(3, 3);
  EXPECT_THROW(a.build({5}, {0}, {1.0}), grb::IndexOutOfBoundsException);
  grb::Vector<double, grb::GpuSim> v(3);
  EXPECT_THROW(v.build({9}, {1.0}), grb::IndexOutOfBoundsException);
}

}  // namespace
