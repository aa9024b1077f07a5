/// Unit tests for the composite-launch chain rule (sparse/fusion_plan.hpp):
/// fusion legality, launch-overhead elision and the head credit, what ends
/// a chain, and bit-exactness of chained ops against unchained ones.

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "algorithms/pagerank.hpp"
#include "gbtl/gbtl.hpp"
#include "gpu_sim/context.hpp"
#include "graph/generators.hpp"
#include "graph/graph_matrix.hpp"
#include "sparse/fusion_plan.hpp"

namespace {

using grb::GpuSim;
using grb::IndexArrayType;
using grb::IndexType;
using sparse::FusionGuard;
using sparse::FusionMode;

/// A small directed test graph: ring + stride-3 chords (every vertex has
/// out-degree 2, no dangling corner cases unless asked for).
grb::Matrix<double, GpuSim> ring_graph(IndexType n) {
  IndexArrayType rows, cols;
  std::vector<double> vals;
  for (IndexType i = 0; i < n; ++i) {
    rows.push_back(i);
    cols.push_back((i + 1) % n);
    vals.push_back(1.0);
    rows.push_back(i);
    cols.push_back((i + 3) % n);
    vals.push_back(2.0);
  }
  grb::Matrix<double, GpuSim> a(n, n);
  a.build(rows, cols, vals);
  return a;
}

grb::Vector<double, GpuSim> ones_vector(IndexType n) {
  return grb::Vector<double, GpuSim>(std::vector<double>(n, 1.0), 0.0);
}

/// mxv → apply → eWiseAdd into one output: the canonical fusable chain.
void run_chain(grb::Matrix<double, GpuSim>& a,
               grb::Vector<double, GpuSim>& u,
               grb::Vector<double, GpuSim>& w) {
  grb::mxv(w, grb::NoMask{}, grb::NoAccumulate{},
           grb::ArithmeticSemiring<double>{}, a, u, grb::Replace);
  grb::apply(w, grb::NoMask{}, grb::NoAccumulate{},
             [](double x) { return x * 0.5 + 1.0; }, w);
  grb::eWiseAdd(w, grb::NoMask{}, grb::NoAccumulate{}, grb::Plus<double>{},
                w, u, grb::Replace);
}

TEST(Fusion, GuardPinsAndRestoresMode) {
  const FusionMode before = sparse::fusion_mode();
  {
    FusionGuard guard(FusionMode::Off);
    EXPECT_EQ(sparse::fusion_mode(), FusionMode::Off);
    {
      FusionGuard inner(FusionMode::Fuse);
      EXPECT_EQ(sparse::fusion_mode(), FusionMode::Fuse);
    }
    EXPECT_EQ(sparse::fusion_mode(), FusionMode::Off);
  }
  EXPECT_EQ(sparse::fusion_mode(), before);
}

TEST(Fusion, FusedChainElidesLaunchOverhead) {
  gpu_sim::Context ctx{gpu_sim::DeviceProperties{}, 1};
  gpu_sim::ScopedDevice bind(ctx);
  auto a = ring_graph(64);
  auto u = ones_vector(64);
  grb::Vector<double, GpuSim> w(64);

  FusionGuard guard(FusionMode::Fuse);
  const auto before = ctx.stats();
  run_chain(a, u, w);
  grb::wait();
  const auto delta = ctx.stats() - before;

  EXPECT_GT(delta.fused_launches, 0u);
  EXPECT_GT(delta.launches_elided, 0u);
  // Elision removes overhead, never launches: every op still runs.
  EXPECT_GT(delta.kernel_launches, delta.launches_elided);
  // Each elided launch saves exactly the fixed overhead on the clock.
  EXPECT_GT(delta.launches_elided * ctx.properties().kernel_launch_overhead_s,
            0.0);
}

TEST(Fusion, OffModeRecordsNothingAndElidesNothing) {
  gpu_sim::Context ctx{gpu_sim::DeviceProperties{}, 1};
  gpu_sim::ScopedDevice bind(ctx);
  auto a = ring_graph(64);
  auto u = ones_vector(64);
  grb::Vector<double, GpuSim> w(64);

  FusionGuard guard(FusionMode::Off);
  const auto before = ctx.stats();
  run_chain(a, u, w);
  const auto delta = ctx.stats() - before;

  EXPECT_EQ(delta.fused_launches, 0u);
  EXPECT_EQ(delta.launches_elided, 0u);
}

TEST(Fusion, FusedReplayIsBitExact) {
  gpu_sim::Context ctx{gpu_sim::DeviceProperties{}, 1};
  gpu_sim::ScopedDevice bind(ctx);
  auto a = ring_graph(128);
  auto u = ones_vector(128);

  auto run_mode = [&](FusionMode mode) {
    FusionGuard guard(mode);
    grb::Vector<double, GpuSim> w(128);
    run_chain(a, u, w);
    IndexArrayType idx;
    std::vector<double> vals;
    w.extractTuples(idx, vals);
    return std::make_pair(idx, vals);
  };

  const auto eager = run_mode(FusionMode::Off);
  const auto fused = run_mode(FusionMode::Fuse);
  const auto autod = run_mode(FusionMode::Auto);
  EXPECT_EQ(eager.first, fused.first);
  EXPECT_EQ(eager.first, autod.first);
  ASSERT_EQ(eager.second.size(), fused.second.size());
  for (std::size_t i = 0; i < eager.second.size(); ++i) {
    // Bitwise equality, not tolerance: every mode runs the same op bodies.
    EXPECT_EQ(eager.second[i], fused.second[i]) << "i=" << i;
    EXPECT_EQ(eager.second[i], autod.second[i]) << "i=" << i;
  }
}

TEST(Fusion, AutoModeSizeGateSkipsLargeOperands) {
  gpu_sim::Context ctx{gpu_sim::DeviceProperties{}, 1};
  gpu_sim::ScopedDevice bind(ctx);
  const IndexType n =
      static_cast<IndexType>(sparse::kAutoFuseMaxItems) + 1;
  auto u = ones_vector(n);
  grb::Vector<double, GpuSim> w(n);

  FusionGuard guard(FusionMode::Auto);
  const auto before = ctx.stats();
  grb::apply(w, grb::NoMask{}, grb::NoAccumulate{},
             [](double x) { return x + 1.0; }, u);
  grb::apply(w, grb::NoMask{}, grb::NoAccumulate{},
             [](double x) { return x * 2.0; }, w);
  grb::wait();
  const auto delta = ctx.stats() - before;
  // Past the size gate the launch overhead is noise against the work time:
  // Auto must leave the chain unfused.
  EXPECT_EQ(delta.fused_launches, 0u);
  EXPECT_EQ(delta.launches_elided, 0u);
}

TEST(Fusion, HostReadsMaterializePendingOps) {
  gpu_sim::Context ctx{gpu_sim::DeviceProperties{}, 1};
  gpu_sim::ScopedDevice bind(ctx);
  auto u = ones_vector(32);
  grb::Vector<double, GpuSim> w(32);

  FusionGuard guard(FusionMode::Fuse);
  grb::apply(w, grb::NoMask{}, grb::NoAccumulate{},
             [](double x) { return x + 41.0; }, u);
  EXPECT_EQ(w.extractElement(7), 42.0);

  grb::apply(w, grb::NoMask{}, grb::NoAccumulate{},
             [](double x) { return x + 1.0; }, w);
  EXPECT_EQ(w.nvals(), 32u);

  grb::apply(w, grb::NoMask{}, grb::NoAccumulate{},
             [](double x) { return x + 1.0; }, w);
  grb::wait();
  EXPECT_EQ(w.extractElement(0), 44.0);
}

TEST(Fusion, PagerankElidesLaunchesUnderAuto) {
  gpu_sim::Context ctx{gpu_sim::DeviceProperties{}, 1};
  gpu_sim::ScopedDevice bind(ctx);
  auto a = ring_graph(256);
  grb::Vector<double, GpuSim> rank(256);

  FusionGuard guard(FusionMode::Auto);
  const auto before = ctx.stats();
  algorithms::pagerank(a, rank, 0.85, /*tol=*/0.0, /*max_iterations=*/5);
  const auto delta = ctx.stats() - before;

  // A real iterative algorithm sheds launch overheads without any change
  // to its own code.
  EXPECT_GT(delta.launches_elided, 0u);
  EXPECT_GT(delta.fused_launches, 0u);

  // And the ranks it produces are bit-identical to the eager ones.
  grb::Vector<double, GpuSim> eager_rank(256);
  {
    FusionGuard off(FusionMode::Off);
    algorithms::pagerank(a, eager_rank, 0.85, 0.0, 5);
  }
  IndexArrayType ia, ib;
  std::vector<double> va, vb;
  rank.extractTuples(ia, va);
  eager_rank.extractTuples(ib, vb);
  EXPECT_EQ(ia, ib);
  ASSERT_EQ(va.size(), vb.size());
  for (std::size_t i = 0; i < va.size(); ++i)
    EXPECT_EQ(va[i], vb[i]) << "i=" << i;
}

TEST(Fusion, ProducerProducerChainsNeverFuse) {
  gpu_sim::Context ctx{gpu_sim::DeviceProperties{}, 1};
  gpu_sim::ScopedDevice bind(ctx);
  auto a = ring_graph(64);
  auto u = ones_vector(64);
  grb::Vector<double, GpuSim> w(64);

  FusionGuard guard(FusionMode::Fuse);
  const auto before = ctx.stats();
  // w = A·u; w = A·w — dependent, but producer→producer is not a legal
  // composite launch (each SpMV keeps its own overhead).
  grb::mxv(w, grb::NoMask{}, grb::NoAccumulate{},
           grb::ArithmeticSemiring<double>{}, a, u, grb::Replace);
  grb::mxv(w, grb::NoMask{}, grb::NoAccumulate{},
           grb::ArithmeticSemiring<double>{}, a, w, grb::Replace);
  grb::wait();
  const auto delta = ctx.stats() - before;
  EXPECT_EQ(delta.fused_launches, 0u);
  EXPECT_EQ(delta.launches_elided, 0u);
}

TEST(Fusion, IndependentAdjacentOpsDoNotFuse) {
  gpu_sim::Context ctx{gpu_sim::DeviceProperties{}, 1};
  gpu_sim::ScopedDevice bind(ctx);
  auto u = ones_vector(64);
  grb::Vector<double, GpuSim> w1(64), w2(64);

  FusionGuard guard(FusionMode::Fuse);
  const auto before = ctx.stats();
  // Adjacent in program order but no dataflow edge: grouping them would
  // claim a fusion the hardware could not have performed.
  grb::apply(w1, grb::NoMask{}, grb::NoAccumulate{},
             [](double x) { return x + 1.0; }, u);
  grb::apply(w2, grb::NoMask{}, grb::NoAccumulate{},
             [](double x) { return x + 2.0; }, u);
  grb::wait();
  const auto delta = ctx.stats() - before;
  EXPECT_EQ(delta.fused_launches, 0u);
  EXPECT_EQ(delta.launches_elided, 0u);
  EXPECT_EQ(w1.extractElement(3), 2.0);
  EXPECT_EQ(w2.extractElement(3), 3.0);
}

TEST(Fusion, ScalarReductionFusesWithItsProducer) {
  gpu_sim::Context ctx{gpu_sim::DeviceProperties{}, 1};
  gpu_sim::ScopedDevice bind(ctx);
  auto u = ones_vector(64);
  auto v = ones_vector(64);
  grb::Vector<double, GpuSim> w(64);

  FusionGuard guard(FusionMode::Fuse);
  const auto before = ctx.stats();
  grb::eWiseMult(w, grb::NoMask{}, grb::NoAccumulate{}, grb::Times<double>{},
                 u, v, grb::Replace);
  double s = 0.0;
  grb::reduce(s, grb::NoAccumulate{}, grb::PlusMonoid<double>{}, w);
  const auto delta = ctx.stats() - before;
  EXPECT_EQ(s, 64.0);  // the scalar is valid immediately on return
  EXPECT_GT(delta.fused_launches, 0u);
  EXPECT_GT(delta.launches_elided, 0u);
}

// The chain rule charges what the lazy op-DAG's grouped replay charged:
// the head's own launches after its first are credited when a second op
// joins. Pinned on the replaying design; dropping the head credit lowers
// both elision counts and raises both times.
TEST(Fusion, ChainsChargeLikeTheRecordedGroups) {
  FusionGuard guard(FusionMode::Auto);
  {
    gpu_sim::Context ctx{gpu_sim::DeviceProperties{}, 1};
    gpu_sim::ScopedDevice bind(ctx);
    auto a = gbtl_graph::to_matrix<double, GpuSim>(gbtl_graph::rmat(8, 16, 1));
    grb::Vector<double, GpuSim> rank(a.nrows());
    const auto before = ctx.stats();
    const double t0 = ctx.simulated_time_s();
    algorithms::pagerank(a, rank, 0.85, /*tol=*/0.0, /*max_iterations=*/10);
    const auto delta = ctx.stats() - before;
    EXPECT_EQ(delta.launches_elided, 194u);
    EXPECT_EQ(delta.fused_launches, 21u);
    EXPECT_NEAR(ctx.simulated_time_s() - t0, 241.49714782608787e-6, 1e-15);
  }
  {
    gpu_sim::Context ctx{gpu_sim::DeviceProperties{}, 1};
    gpu_sim::ScopedDevice bind(ctx);
    auto a = ring_graph(64);
    auto u = ones_vector(64);
    grb::Vector<double, GpuSim> w(64);
    const auto before = ctx.stats();
    const double t0 = ctx.simulated_time_s();
    run_chain(a, u, w);
    const auto delta = ctx.stats() - before;
    EXPECT_EQ(delta.launches_elided, 6u);
    EXPECT_EQ(delta.fused_launches, 1u);
    EXPECT_NEAR(ctx.simulated_time_s() - t0, 6.0487652173912224e-6, 1e-15);
  }
}

// A composite kernel cannot straddle another kernel: a vector constructed
// between two dependent ops runs its fill kernels in between.
TEST(Fusion, ForeignLaunchEndsChain) {
  gpu_sim::Context ctx{gpu_sim::DeviceProperties{}, 1};
  gpu_sim::ScopedDevice bind(ctx);
  auto u = ones_vector(32);
  grb::Vector<double, GpuSim> w(32);

  FusionGuard guard(FusionMode::Fuse);
  const auto before = ctx.stats();
  grb::apply(w, grb::NoMask{}, grb::NoAccumulate{},
             [](double x) { return x + 1.0; }, u);
  grb::Vector<double, GpuSim> foreign(32);
  grb::apply(w, grb::NoMask{}, grb::NoAccumulate{},
             [](double x) { return x * 2.0; }, w);
  const auto delta = ctx.stats() - before;
  EXPECT_EQ(delta.fused_launches, 0u);
  EXPECT_EQ(delta.launches_elided, 0u);
  EXPECT_EQ(w.extractElement(5), 4.0);
}

/// Launches elided over two dependent applies onto one output, fusion
/// forced on, with @p between(ctx) run between them on the calling thread.
template <typename Between>
std::uint64_t elided_across(Between between) {
  gpu_sim::Context ctx{gpu_sim::DeviceProperties{}, 1};
  gpu_sim::ScopedDevice bind(ctx);
  auto u = ones_vector(32);
  grb::Vector<double, GpuSim> w(32);

  FusionGuard guard(FusionMode::Fuse);
  const auto before = ctx.stats();
  grb::apply(w, grb::NoMask{}, grb::NoAccumulate{},
             [](double x) { return x + 1.0; }, u);
  between(ctx);
  grb::apply(w, grb::NoMask{}, grb::NoAccumulate{},
             [](double x) { return x * 2.0; }, w);
  const auto elided = (ctx.stats() - before).launches_elided;
  EXPECT_EQ(w.extractElement(5), 4.0);
  return elided;
}

TEST(Fusion, CheckpointEndsChain) {
  EXPECT_GT(elided_across([](gpu_sim::Context&) {}), 0u);
  EXPECT_EQ(elided_across([](gpu_sim::Context&) {
              grb::ExecutionPolicy{}.checkpoint("test");
            }),
            0u);
}

// grb::wait() alone, without the stream alignment a checkpoint also does.
TEST(Fusion, WaitEndsChain) {
  EXPECT_EQ(elided_across([](gpu_sim::Context&) { grb::wait(); }), 0u);
}

// The per-context barrier alone, without the thread's epoch changing.
TEST(Fusion, AlignStreamsEndsChain) {
  EXPECT_EQ(elided_across([](gpu_sim::Context& ctx) { ctx.align_streams(); }),
            0u);
}

// Barrier epochs are per thread: an op never continues the chain another
// thread's op left on the same context, though nothing ran in between.
TEST(Fusion, ChainsNeverCrossThreads) {
  gpu_sim::Context ctx{gpu_sim::DeviceProperties{}, 1};
  gpu_sim::ScopedDevice bind(ctx);
  auto u = ones_vector(32);
  grb::Vector<double, GpuSim> w(32);

  FusionGuard guard(FusionMode::Fuse);
  const auto before = ctx.stats();
  grb::apply(w, grb::NoMask{}, grb::NoAccumulate{},
             [](double x) { return x + 1.0; }, u);
  std::thread other([&] {
    gpu_sim::ScopedDevice bind_other(ctx);
    grb::apply(w, grb::NoMask{}, grb::NoAccumulate{},
               [](double x) { return x * 2.0; }, w);
  });
  other.join();
  const auto delta = ctx.stats() - before;
  EXPECT_EQ(delta.fused_launches, 0u);
  EXPECT_EQ(delta.launches_elided, 0u);
  EXPECT_EQ(w.extractElement(5), 4.0);
}

}  // namespace
