/// Fig. 2 — mxm (SpGEMM, C = A·A over plus-times) vs scale, sequential
/// against GPU, plus the masked variant on each backend.
///
/// Paper-shape expectation: the masked product wins on both backends — the
/// sequential backend seeds each Gustavson row from the mask and skips the
/// products outside it, the GPU backend prunes the expansion before paying
/// for the contraction (Abl. B).
///
/// The gpu_esc / gpu_hash / gpu_auto rows pin the SpGEMM strategy so the
/// adaptive selector can be audited: on the high-compression upper scales
/// Auto must track the hash row (and beat forced ESC in simulated time);
/// on the small launch-bound scales it must track ESC. Each GPU row reports
/// the selection counters and the hash path's collision/table-byte totals.

#include "bench_common.hpp"
#include "sparse/spgemm_select.hpp"

namespace {

void report_spgemm_counters(benchmark::State& state,
                            const gpu_sim::DeviceStats& delta) {
  state.counters["sel_esc"] = benchmark::Counter(static_cast<double>(
      delta.spgemm_selections[static_cast<std::size_t>(
          gpu_sim::SpgemmStrategy::kEsc)]));
  state.counters["sel_hash"] = benchmark::Counter(static_cast<double>(
      delta.spgemm_selections[static_cast<std::size_t>(
          gpu_sim::SpgemmStrategy::kHash)]));
  state.counters["hash_collisions"] = benchmark::Counter(
      static_cast<double>(delta.spgemm_hash_collisions));
  state.counters["hash_table_bytes"] = benchmark::Counter(
      static_cast<double>(delta.spgemm_hash_table_bytes));
  state.counters["masked_avoided"] = benchmark::Counter(
      static_cast<double>(delta.spgemm_masked_products_avoided));
}

template <typename Tag>
auto pattern_matrix(unsigned scale) {
  const auto& g = benchx::rmat_graph_sym(scale, 8);
  return gbtl_graph::to_matrix<double, Tag>(g);
}

void BM_mxm_sequential(benchmark::State& state) {
  auto a = pattern_matrix<grb::Sequential>(
      static_cast<unsigned>(state.range(0)));
  grb::Matrix<double, grb::Sequential> c(a.nrows(), a.ncols());
  for (auto _ : state) {
    grb::mxm(c, grb::NoMask{}, grb::NoAccumulate{},
             grb::ArithmeticSemiring<double>{}, a, a, grb::Replace);
    benchmark::DoNotOptimize(c);
  }
  benchx::annotate(state, a.nrows(), a.nvals());
  state.counters["out_nnz"] =
      benchmark::Counter(static_cast<double>(c.nvals()));
}

void BM_mxm_sequential_masked(benchmark::State& state) {
  auto a = pattern_matrix<grb::Sequential>(
      static_cast<unsigned>(state.range(0)));
  grb::Matrix<double, grb::Sequential> c(a.nrows(), a.ncols());
  for (auto _ : state) {
    grb::mxm(c, grb::structure(a), grb::NoAccumulate{},
             grb::ArithmeticSemiring<double>{}, a, a, grb::Replace);
    benchmark::DoNotOptimize(c);
  }
  benchx::annotate(state, a.nrows(), a.nvals());
  state.counters["out_nnz"] =
      benchmark::Counter(static_cast<double>(c.nvals()));
}

void run_gpu_mxm(benchmark::State& state, sparse::SpgemmMode mode,
                 bool masked) {
  sparse::SpgemmModeGuard guard(mode);
  auto a = pattern_matrix<grb::GpuSim>(static_cast<unsigned>(state.range(0)));
  grb::Matrix<double, grb::GpuSim> c(a.nrows(), a.ncols());
  const auto delta = benchx::run_simulated(state, [&] {
    if (masked) {
      grb::mxm(c, grb::structure(a), grb::NoAccumulate{},
               grb::ArithmeticSemiring<double>{}, a, a, grb::Replace);
    } else {
      grb::mxm(c, grb::NoMask{}, grb::NoAccumulate{},
               grb::ArithmeticSemiring<double>{}, a, a, grb::Replace);
    }
  });
  benchx::annotate(state, a.nrows(), a.nvals());
  report_spgemm_counters(state, delta);
  state.counters["out_nnz"] =
      benchmark::Counter(static_cast<double>(c.nvals()));
}

void BM_mxm_gpu_esc(benchmark::State& state) {
  run_gpu_mxm(state, sparse::SpgemmMode::Esc, /*masked=*/false);
}

void BM_mxm_gpu_hash(benchmark::State& state) {
  run_gpu_mxm(state, sparse::SpgemmMode::Hash, /*masked=*/false);
}

void BM_mxm_gpu_auto(benchmark::State& state) {
  run_gpu_mxm(state, sparse::SpgemmMode::Auto, /*masked=*/false);
}

void BM_mxm_gpu_masked_esc(benchmark::State& state) {
  run_gpu_mxm(state, sparse::SpgemmMode::Esc, /*masked=*/true);
}

void BM_mxm_gpu_masked_hash(benchmark::State& state) {
  run_gpu_mxm(state, sparse::SpgemmMode::Hash, /*masked=*/true);
}

void BM_mxm_gpu_masked_auto(benchmark::State& state) {
  run_gpu_mxm(state, sparse::SpgemmMode::Auto, /*masked=*/true);
}

}  // namespace

BENCHMARK(BM_mxm_sequential)->DenseRange(6, 11, 1)->Iterations(1);
BENCHMARK(BM_mxm_sequential_masked)->DenseRange(6, 11, 1)->Iterations(1);
BENCHMARK(BM_mxm_gpu_esc)
    ->DenseRange(6, 11, 1)
    ->Iterations(1)
    ->UseManualTime();
BENCHMARK(BM_mxm_gpu_hash)
    ->DenseRange(6, 11, 1)
    ->Iterations(1)
    ->UseManualTime();
BENCHMARK(BM_mxm_gpu_auto)
    ->DenseRange(6, 11, 1)
    ->Iterations(1)
    ->UseManualTime();
BENCHMARK(BM_mxm_gpu_masked_esc)
    ->DenseRange(6, 11, 1)
    ->Iterations(1)
    ->UseManualTime();
BENCHMARK(BM_mxm_gpu_masked_hash)
    ->DenseRange(6, 11, 1)
    ->Iterations(1)
    ->UseManualTime();
BENCHMARK(BM_mxm_gpu_masked_auto)
    ->DenseRange(6, 11, 1)
    ->Iterations(1)
    ->UseManualTime();

BENCHMARK_MAIN();
