/// Unit tests for the lazy op-DAG (sparse/fusion_plan.hpp): recording,
/// fusion legality, launch-overhead elision, transfer/compute overlap, the
/// materialization points, and bit-exactness of fused replay against the
/// eager path.

#include <gtest/gtest.h>

#include <future>
#include <thread>
#include <vector>

#include "algorithms/pagerank.hpp"
#include "gbtl/gbtl.hpp"
#include "gpu_sim/context.hpp"
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

// The mode is process-wide: another thread's guard can switch fusion off
// while this thread holds a recorded op. The next op this thread runs
// eagerly must run the pending one first, or it reads a stale output.
TEST(Fusion, OffFromAnotherThreadRunsPendingOpsFirst) {
  gpu_sim::Context ctx{gpu_sim::DeviceProperties{}, 1};
  gpu_sim::ScopedDevice bind(ctx);
  FusionGuard fuse(FusionMode::Fuse);
  grb::Vector<double, GpuSim> u(4), w(4), z(4);
  u.setElement(1, 2.0);
  grb::apply(w, grb::NoMask{}, grb::NoAccumulate{},
             [](double x) { return x + 1.0; }, u);
  ASSERT_FALSE(sparse::op_dag().nodes.empty());  // w is pending

  std::promise<void> off, done;
  std::thread other([&] {
    FusionGuard guard(FusionMode::Off);
    off.set_value();
    done.get_future().wait();
  });
  off.get_future().wait();
  grb::apply(z, grb::NoMask{}, grb::NoAccumulate{},
             [](double x) { return 2.0 * x; }, w);
  done.set_value();
  other.join();
  ASSERT_TRUE(z.hasElement(1));
  EXPECT_EQ(z.extractElement(1), 6.0);
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
  // Elision removes overhead, never launches: every recorded op still runs.
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
  EXPECT_TRUE(sparse::op_dag().nodes.empty());
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
    // Bitwise equality, not tolerance: replay runs the identical eager body.
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
  EXPECT_FALSE(sparse::op_dag().nodes.empty());  // recorded, not launched
  // The host read is a materialization point: the value must be current.
  EXPECT_EQ(w.extractElement(7), 42.0);
  EXPECT_TRUE(sparse::op_dag().nodes.empty());

  grb::apply(w, grb::NoMask{}, grb::NoAccumulate{},
             [](double x) { return x + 1.0; }, w);
  EXPECT_FALSE(sparse::op_dag().nodes.empty());
  EXPECT_EQ(w.nvals(), 32u);  // nvals() is a materialization point too
  EXPECT_TRUE(sparse::op_dag().nodes.empty());

  grb::apply(w, grb::NoMask{}, grb::NoAccumulate{},
             [](double x) { return x + 1.0; }, w);
  grb::wait();  // the explicit materialization point
  EXPECT_TRUE(sparse::op_dag().nodes.empty());
  EXPECT_EQ(w.extractElement(0), 44.0);
}

TEST(Fusion, UnrelatedTemporaryDeathKeepsChainPending) {
  gpu_sim::Context ctx{gpu_sim::DeviceProperties{}, 1};
  gpu_sim::ScopedDevice bind(ctx);
  auto u = ones_vector(32);
  grb::Vector<double, GpuSim> w(32);

  FusionGuard guard(FusionMode::Fuse);
  grb::apply(w, grb::NoMask{}, grb::NoAccumulate{},
             [](double x) { return x + 1.0; }, u);
  {
    grb::Vector<double, GpuSim> unrelated(8);  // never touches the chain
  }
  // The touch filter must not have drained the pending apply.
  EXPECT_FALSE(sparse::op_dag().nodes.empty());
  grb::wait();
}

TEST(Fusion, PrefetchedIndexUploadHidesTransferTime) {
  gpu_sim::Context ctx{gpu_sim::DeviceProperties{}, 1};
  gpu_sim::ScopedDevice bind(ctx);
  const IndexType n = 8192;
  auto a = ring_graph(n);
  auto u = ones_vector(n);
  grb::Vector<double, GpuSim> w(n), z(n);
  const IndexArrayType all = grb::all_indices(n);

  FusionGuard guard(FusionMode::Fuse);
  const auto before = ctx.stats();
  // The mxv keeps the compute stream busy while the planner stages the
  // assign's index upload on the transfer stream.
  grb::mxv(w, grb::NoMask{}, grb::NoAccumulate{},
           grb::ArithmeticSemiring<double>{}, a, u, grb::Replace);
  grb::assign(z, grb::NoMask{}, grb::NoAccumulate{}, 1.5, all);
  grb::wait();
  const auto delta = ctx.stats() - before;

  EXPECT_GT(delta.overlap_seconds_hidden, 0.0);
  // The multi-stream makespan is what overlap saves against the serial sum.
  EXPECT_LE(ctx.makespan_s(), ctx.simulated_time_s());
  EXPECT_EQ(z.extractElement(0), 1.5);
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

  // The acceptance bar for the op-DAG: a real iterative algorithm sheds
  // launch overheads without any change to its own code.
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

}  // namespace
