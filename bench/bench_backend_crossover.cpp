/// Backend crossover — PageRank (fixed 10 iterations, d = 0.85) on the same
/// R-MAT graphs under all three registered backends, so one table shows
/// where the serving layer's size-based backend selection should flip:
///
///   BM_crossover_sequential  host wall time (the baseline convention)
///   BM_crossover_cpupar      host wall time on a pool of W real threads
///   BM_crossover_gpusim      simulated device seconds (bench_common.hpp)
///
/// The CpuPar rows hold 4 workers across scales and sweep {1, 2} at the
/// largest scale. The wall rows are only as parallel as the host's free
/// cores allow.

#include "bench_common.hpp"

#include "algorithms/pagerank.hpp"
#include "backend_cpupar/pool.hpp"
#include "gpu_sim/thread_pool.hpp"

namespace {

constexpr grb::IndexType kIters = 10;
constexpr grb::IndexType kEdgeFactor = 16;

void BM_crossover_sequential(benchmark::State& state) {
  const auto& g = benchx::rmat_graph(static_cast<unsigned>(state.range(0)),
                                     kEdgeFactor);
  auto a = gbtl_graph::to_matrix<double, grb::Sequential>(g);
  grb::Vector<double, grb::Sequential> rank(a.nrows());
  for (auto _ : state) {
    algorithms::pagerank(a, rank, 0.85, /*tol=*/0.0, kIters);
    benchmark::DoNotOptimize(rank);
  }
  benchx::annotate(state, a.nrows(), a.nvals());
  state.counters["iters"] = benchmark::Counter(static_cast<double>(kIters));
}

void BM_crossover_cpupar(benchmark::State& state) {
  const auto& g = benchx::rmat_graph(static_cast<unsigned>(state.range(0)),
                                     kEdgeFactor);
  auto a = gbtl_graph::to_matrix<double, grb::CpuPar>(g);
  grb::Vector<double, grb::CpuPar> rank(a.nrows());
  const auto workers = static_cast<std::size_t>(state.range(1));
  gpu_sim::ThreadPool pool(workers);
  grb::cpupar_backend::ScopedPool bind(pool);
  // Untimed warm-up: the measured iterations see steady-state allocator and
  // cache behaviour.
  algorithms::pagerank(a, rank, 0.85, 0.0, kIters);
  for (auto _ : state) {
    algorithms::pagerank(a, rank, 0.85, 0.0, kIters);
    benchmark::DoNotOptimize(rank);
  }
  benchx::annotate(state, a.nrows(), a.nvals());
  state.counters["iters"] = benchmark::Counter(static_cast<double>(kIters));
  state.counters["workers"] = benchmark::Counter(static_cast<double>(workers));
}

void BM_crossover_gpusim(benchmark::State& state) {
  const auto& g = benchx::rmat_graph(static_cast<unsigned>(state.range(0)),
                                     kEdgeFactor);
  auto a = gbtl_graph::to_matrix<double, grb::GpuSim>(g);
  grb::Vector<double, grb::GpuSim> rank(a.nrows());
  benchx::run_simulated(
      state, [&] { algorithms::pagerank(a, rank, 0.85, 0.0, kIters); });
  benchx::annotate(state, a.nrows(), a.nvals());
  state.counters["iters"] = benchmark::Counter(static_cast<double>(kIters));
}

}  // namespace

BENCHMARK(BM_crossover_sequential)->DenseRange(8, 14, 1)->Iterations(1);
BENCHMARK(BM_crossover_cpupar)
    ->ArgsProduct({benchmark::CreateDenseRange(8, 14, /*step=*/1), {4}})
    ->Args({14, 1})
    ->Args({14, 2})
    ->Iterations(1)
    ->UseRealTime();
BENCHMARK(BM_crossover_gpusim)
    ->DenseRange(8, 14, 1)
    ->Iterations(1)
    ->UseManualTime();

BENCHMARK_MAIN();
