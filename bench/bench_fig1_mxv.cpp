/// Fig. 1 — mxv (SpMV over plus-times) vs graph scale, sequential backend
/// (wall time) against GPU backend (simulated device time, data resident).
///
/// Paper-shape expectation: the GPU loses at small scales (launch overhead
/// dominates the handful of microseconds of useful work) and wins by one to
/// two orders of magnitude once the matrix no longer fits in the picture of
/// a single CPU core's cache-friendly sweep.
///
/// The second table (BM_mxv_gpu_baseline / BM_mxv_gpu_adaptive) isolates the
/// adaptive SpMV engine: the same mxv with kernel selection pinned to the
/// row-parallel baseline vs. free to choose, on a regular banded family
/// (2-D grid stencil) and a power-law family (R-MAT). Adaptive must never
/// lose to the baseline: it *is* the baseline on regular shapes and beats it
/// on skewed ones by dodging warp-granular padding.

#include "bench_common.hpp"
#include "sparse/fusion_plan.hpp"
#include "sparse/spmv_select.hpp"

namespace {

enum class Family { Banded, Rmat };

const gbtl_graph::EdgeList& family_graph(Family family, unsigned scale) {
  if (family == Family::Banded) {
    static std::map<unsigned, gbtl_graph::EdgeList> cache;
    auto it = cache.find(scale);
    if (it == cache.end()) {
      const auto side = static_cast<gbtl_graph::Index>(1u << (scale / 2));
      it = cache.emplace(scale, gbtl_graph::grid2d(side, side)).first;
    }
    return it->second;
  }
  return benchx::rmat_graph(scale, 16);
}

void run_mxv_gpu_mode(benchmark::State& state, sparse::SpmvMode mode) {
  const auto family = static_cast<Family>(state.range(1));
  const unsigned scale = static_cast<unsigned>(state.range(0));
  const auto& g = family_graph(family, scale);
  auto a = gbtl_graph::to_matrix<double, grb::GpuSim>(g);
  grb::Vector<double, grb::GpuSim> u(std::vector<double>(a.ncols(), 1.0),
                                     0.0);
  grb::Vector<double, grb::GpuSim> w(a.nrows());
  sparse::SpmvModeGuard guard(mode);
  const auto delta = benchx::run_simulated(state, [&] {
    grb::mxv(w, grb::NoMask{}, grb::NoAccumulate{},
             grb::ArithmeticSemiring<double>{}, a, u, grb::Replace);
  });
  benchx::annotate(state, a.nrows(), a.nvals());
  benchx::report_teps(state, a.nvals());
  state.counters["lb_selected"] = benchmark::Counter(
      static_cast<double>(delta.kernel_selections[static_cast<std::size_t>(
          gpu_sim::SpmvKernelKind::kCsrLoadBalanced)]));
  state.counters["bytes_saved"] = benchmark::Counter(
      static_cast<double>(delta.spmv_bytes_saved_vs_baseline));
}

void BM_mxv_gpu_baseline(benchmark::State& state) {
  run_mxv_gpu_mode(state, sparse::SpmvMode::ForceCsrScalar);
}

void BM_mxv_gpu_adaptive(benchmark::State& state) {
  run_mxv_gpu_mode(state, sparse::SpmvMode::Adaptive);
}

void add_family_args(benchmark::internal::Benchmark* b) {
  for (int scale = 10; scale <= 16; scale += 2) {
    b->Args({scale, static_cast<int>(Family::Banded)});
    b->Args({scale, static_cast<int>(Family::Rmat)});
  }
  b->Iterations(3)->UseManualTime();
}

void BM_mxv_sequential(benchmark::State& state) {
  const unsigned scale = static_cast<unsigned>(state.range(0));
  const auto& g = benchx::rmat_graph(scale, 16);
  auto a = gbtl_graph::to_matrix<double, grb::Sequential>(g);
  grb::Vector<double, grb::Sequential> u(
      std::vector<double>(a.ncols(), 1.0), 0.0);
  grb::Vector<double, grb::Sequential> w(a.nrows());
  for (auto _ : state) {
    grb::mxv(w, grb::NoMask{}, grb::NoAccumulate{},
             grb::ArithmeticSemiring<double>{}, a, u, grb::Replace);
    benchmark::DoNotOptimize(w);
  }
  benchx::annotate(state, a.nrows(), a.nvals());
  benchx::report_teps(state, a.nvals());
}

void BM_mxv_gpu(benchmark::State& state) {
  const unsigned scale = static_cast<unsigned>(state.range(0));
  const auto& g = benchx::rmat_graph(scale, 16);
  auto a = gbtl_graph::to_matrix<double, grb::GpuSim>(g);
  grb::Vector<double, grb::GpuSim> u(std::vector<double>(a.ncols(), 1.0),
                                     0.0);
  grb::Vector<double, grb::GpuSim> w(a.nrows());
  benchx::run_simulated(state, [&] {
    grb::mxv(w, grb::NoMask{}, grb::NoAccumulate{},
             grb::ArithmeticSemiring<double>{}, a, u, grb::Replace);
  });
  benchx::annotate(state, a.nrows(), a.nvals());
  benchx::report_teps(state, a.nvals());
}

// --- Fused-chain rows -------------------------------------------------------
// The third table measures the iterative-refinement step every solver inner
// loop looks like — w = (A·u)·0.5 + u as mxv → apply → eWiseAdd — with the
// chain rule pinned off (each op pays its own launch) vs Auto (the chain
// is charged as one composite launch). At small scales launch overhead is most
// of the chain, so fusion moves the CPU/GPU crossover left by roughly the
// two elided overheads per step.

void run_mxv_chain_gpu(benchmark::State& state, sparse::FusionMode fmode) {
  const unsigned scale = static_cast<unsigned>(state.range(0));
  const auto& g = benchx::rmat_graph(scale, 16);
  auto a = gbtl_graph::to_matrix<double, grb::GpuSim>(g);
  grb::Vector<double, grb::GpuSim> u(std::vector<double>(a.ncols(), 1.0),
                                     0.0);
  grb::Vector<double, grb::GpuSim> w(a.nrows());
  sparse::FusionGuard guard(fmode);
  const auto delta = benchx::run_simulated(state, [&] {
    grb::mxv(w, grb::NoMask{}, grb::NoAccumulate{},
             grb::ArithmeticSemiring<double>{}, a, u, grb::Replace);
    grb::apply(w, grb::NoMask{}, grb::NoAccumulate{},
               [](double x) { return x * 0.5; }, w);
    grb::eWiseAdd(w, grb::NoMask{}, grb::NoAccumulate{}, grb::Plus<double>{},
                  w, u, grb::Replace);
    grb::wait();
  });
  benchx::annotate(state, a.nrows(), a.nvals());
  benchx::report_teps(state, a.nvals());
  state.counters["elided"] =
      benchmark::Counter(static_cast<double>(delta.launches_elided));
}

void BM_mxv_chain_gpu_eager(benchmark::State& state) {
  run_mxv_chain_gpu(state, sparse::FusionMode::Off);
}

void BM_mxv_chain_gpu_fused(benchmark::State& state) {
  run_mxv_chain_gpu(state, sparse::FusionMode::Auto);
}

void BM_mxv_chain_sequential(benchmark::State& state) {
  const unsigned scale = static_cast<unsigned>(state.range(0));
  const auto& g = benchx::rmat_graph(scale, 16);
  auto a = gbtl_graph::to_matrix<double, grb::Sequential>(g);
  grb::Vector<double, grb::Sequential> u(
      std::vector<double>(a.ncols(), 1.0), 0.0);
  grb::Vector<double, grb::Sequential> w(a.nrows());
  for (auto _ : state) {
    grb::mxv(w, grb::NoMask{}, grb::NoAccumulate{},
             grb::ArithmeticSemiring<double>{}, a, u, grb::Replace);
    grb::apply(w, grb::NoMask{}, grb::NoAccumulate{},
               [](double x) { return x * 0.5; }, w);
    grb::eWiseAdd(w, grb::NoMask{}, grb::NoAccumulate{}, grb::Plus<double>{},
                  w, u, grb::Replace);
    benchmark::DoNotOptimize(w);
  }
  benchx::annotate(state, a.nrows(), a.nvals());
  benchx::report_teps(state, a.nvals());
}

}  // namespace

BENCHMARK(BM_mxv_sequential)->DenseRange(8, 16, 2)->Iterations(3);
BENCHMARK(BM_mxv_gpu)->DenseRange(8, 16, 2)->Iterations(3)->UseManualTime();
BENCHMARK(BM_mxv_gpu_baseline)->Apply(add_family_args);
BENCHMARK(BM_mxv_gpu_adaptive)->Apply(add_family_args);
BENCHMARK(BM_mxv_chain_sequential)->DenseRange(8, 16, 2)->Iterations(3);
BENCHMARK(BM_mxv_chain_gpu_eager)
    ->DenseRange(8, 16, 2)
    ->Iterations(3)
    ->UseManualTime();
BENCHMARK(BM_mxv_chain_gpu_fused)
    ->DenseRange(8, 16, 2)
    ->Iterations(3)
    ->UseManualTime();

BENCHMARK_MAIN();
