/// Fig. 3 — PageRank per-iteration time vs scale per backend (d = 0.85).
/// Measures a fixed 10 iterations (tol = 0) so rows are comparable, and
/// reports time/iteration.
///
/// The eager/fused pair ablates composite launches on the same workload:
/// eager pins GBTL_FUSION_MODE=off semantics (every primitive pays its own
/// launch overhead), fused is the shipping Auto default (per-iteration
/// chains are charged as composite launches; see docs/fusion.md). The gap
/// is pure launch-overhead elision — counters `fused`/`elided` report the
/// chains.

#include "bench_common.hpp"

#include "algorithms/pagerank.hpp"
#include "sparse/fusion_plan.hpp"

namespace {

constexpr grb::IndexType kIters = 10;

void BM_pagerank_sequential(benchmark::State& state) {
  const auto& g = benchx::rmat_graph(static_cast<unsigned>(state.range(0)),
                                     16);
  auto a = gbtl_graph::to_matrix<double, grb::Sequential>(g);
  grb::Vector<double, grb::Sequential> rank(a.nrows());
  for (auto _ : state) {
    algorithms::pagerank(a, rank, 0.85, /*tol=*/0.0, kIters);
    benchmark::DoNotOptimize(rank);
  }
  benchx::annotate(state, a.nrows(), a.nvals());
  state.counters["iters"] = benchmark::Counter(static_cast<double>(kIters));
}

void BM_pagerank_gpu(benchmark::State& state) {
  const auto& g = benchx::rmat_graph(static_cast<unsigned>(state.range(0)),
                                     16);
  auto a = gbtl_graph::to_matrix<double, grb::GpuSim>(g);
  grb::Vector<double, grb::GpuSim> rank(a.nrows());
  benchx::run_simulated(
      state, [&] { algorithms::pagerank(a, rank, 0.85, 0.0, kIters); });
  benchx::annotate(state, a.nrows(), a.nvals());
  state.counters["iters"] = benchmark::Counter(static_cast<double>(kIters));
}

void run_pagerank_gpu_mode(benchmark::State& state,
                           sparse::FusionMode mode) {
  const auto& g = benchx::rmat_graph(static_cast<unsigned>(state.range(0)),
                                     16);
  auto a = gbtl_graph::to_matrix<double, grb::GpuSim>(g);
  grb::Vector<double, grb::GpuSim> rank(a.nrows());
  sparse::FusionGuard guard(mode);
  const auto delta = benchx::run_simulated(
      state, [&] { algorithms::pagerank(a, rank, 0.85, 0.0, kIters); });
  benchx::annotate(state, a.nrows(), a.nvals());
  state.counters["iters"] = benchmark::Counter(static_cast<double>(kIters));
  state.counters["fused"] =
      benchmark::Counter(static_cast<double>(delta.fused_launches));
  state.counters["elided"] =
      benchmark::Counter(static_cast<double>(delta.launches_elided));
}

void BM_pagerank_gpu_eager(benchmark::State& state) {
  run_pagerank_gpu_mode(state, sparse::FusionMode::Off);
}

void BM_pagerank_gpu_fused(benchmark::State& state) {
  run_pagerank_gpu_mode(state, sparse::FusionMode::Auto);
}

}  // namespace

BENCHMARK(BM_pagerank_sequential)->DenseRange(8, 13, 1)->Iterations(1);
BENCHMARK(BM_pagerank_gpu)
    ->DenseRange(8, 13, 1)
    ->Iterations(1)
    ->UseManualTime();
BENCHMARK(BM_pagerank_gpu_eager)
    ->DenseRange(8, 13, 1)
    ->Iterations(1)
    ->UseManualTime();
BENCHMARK(BM_pagerank_gpu_fused)
    ->DenseRange(8, 13, 1)
    ->Iterations(1)
    ->UseManualTime();

BENCHMARK_MAIN();
