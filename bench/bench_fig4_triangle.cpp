/// Fig. 4 — triangle counting formulation ablation per backend:
/// masked (Sandia) vs unmasked-then-filter vs Burkhardt. This is the
/// headline masked-mxm experiment (Abl. B): the masked formulation prunes
/// the SpGEMM on both backends, and the gap widens with scale.

#include "bench_common.hpp"

#include "algorithms/triangle_count.hpp"
#include "sparse/bitmap.hpp"

namespace {

template <typename Tag>
auto graph_at(unsigned scale) {
  return gbtl_graph::to_matrix<double, Tag>(benchx::rmat_graph_sym(scale, 8));
}

void BM_tc_seq_masked(benchmark::State& state) {
  auto a = graph_at<grb::Sequential>(static_cast<unsigned>(state.range(0)));
  std::uint64_t tri = 0;
  for (auto _ : state) {
    tri = algorithms::triangle_count_masked(a);
    benchmark::DoNotOptimize(tri);
  }
  benchx::annotate(state, a.nrows(), a.nvals());
  state.counters["triangles"] = benchmark::Counter(static_cast<double>(tri));
}

void BM_tc_seq_unmasked(benchmark::State& state) {
  auto a = graph_at<grb::Sequential>(static_cast<unsigned>(state.range(0)));
  std::uint64_t tri = 0;
  for (auto _ : state) {
    tri = algorithms::triangle_count_unmasked(a);
    benchmark::DoNotOptimize(tri);
  }
  benchx::annotate(state, a.nrows(), a.nvals());
  state.counters["triangles"] = benchmark::Counter(static_cast<double>(tri));
}

void BM_tc_seq_burkhardt(benchmark::State& state) {
  auto a = graph_at<grb::Sequential>(static_cast<unsigned>(state.range(0)));
  std::uint64_t tri = 0;
  for (auto _ : state) {
    tri = algorithms::triangle_count_burkhardt(a);
    benchmark::DoNotOptimize(tri);
  }
  benchx::annotate(state, a.nrows(), a.nvals());
  state.counters["triangles"] = benchmark::Counter(static_cast<double>(tri));
}

void BM_tc_gpu_masked(benchmark::State& state) {
  auto a = graph_at<grb::GpuSim>(static_cast<unsigned>(state.range(0)));
  std::uint64_t tri = 0;
  benchx::run_simulated(state,
                        [&] { tri = algorithms::triangle_count_masked(a); });
  benchx::annotate(state, a.nrows(), a.nvals());
  state.counters["triangles"] = benchmark::Counter(static_cast<double>(tri));
}

void BM_tc_gpu_unmasked(benchmark::State& state) {
  auto a = graph_at<grb::GpuSim>(static_cast<unsigned>(state.range(0)));
  std::uint64_t tri = 0;
  benchx::run_simulated(
      state, [&] { tri = algorithms::triangle_count_unmasked(a); });
  benchx::annotate(state, a.nrows(), a.nvals());
  state.counters["triangles"] = benchmark::Counter(static_cast<double>(tri));
}

void BM_tc_gpu_burkhardt(benchmark::State& state) {
  auto a = graph_at<grb::GpuSim>(static_cast<unsigned>(state.range(0)));
  std::uint64_t tri = 0;
  benchx::run_simulated(
      state, [&] { tri = algorithms::triangle_count_burkhardt(a); });
  benchx::annotate(state, a.nrows(), a.nvals());
  state.counters["triangles"] = benchmark::Counter(static_cast<double>(tri));
}

/// Word-format row: the masked Sandia mxm once through the SpGEMM engines
/// (Bit off) and once forced onto the AND-popcount word path. The counts
/// must agree exactly or the row is voided. Unlike the BFS rows, the bit
/// views here (the row and column views of C<L> = L·L) live on L only — a
/// per-call temporary — so the forced pass pays its view builds inside the
/// timed region; bytes_ratio therefore reports the honest all-in cost.
void BM_tc_gpu_bit_vs_csr(benchmark::State& state) {
  auto a = graph_at<grb::GpuSim>(static_cast<unsigned>(state.range(0)));
  auto& dev = gpu_sim::device();
  std::uint64_t tri_csr = 0, tri = 0;
  std::uint64_t csr_bytes = 0;
  {
    sparse::BitModeGuard off(sparse::BitMode::Off);
    tri_csr = algorithms::triangle_count_masked(a);  // warm-up
    const auto before = dev.stats();
    tri_csr = algorithms::triangle_count_masked(a);
    const auto d = dev.stats() - before;
    csr_bytes = d.kernel_bytes_read + d.kernel_bytes_written;
  }
  gpu_sim::DeviceStats delta;
  {
    sparse::BitModeGuard force(sparse::BitMode::Force);
    delta = benchx::run_simulated(
        state, [&] { tri = algorithms::triangle_count_masked(a); });
  }
  if (tri != tri_csr) {
    state.SkipWithError("bit triangle count diverged from CSR");
    return;
  }
  const std::uint64_t bit_bytes =
      delta.kernel_bytes_read + delta.kernel_bytes_written;
  benchx::annotate(state, a.nrows(), a.nvals());
  state.counters["triangles"] = benchmark::Counter(static_cast<double>(tri));
  state.counters["csr_bytes"] =
      benchmark::Counter(static_cast<double>(csr_bytes));
  state.counters["bit_bytes"] =
      benchmark::Counter(static_cast<double>(bit_bytes));
  state.counters["bytes_ratio"] = benchmark::Counter(
      bit_bytes > 0 ? static_cast<double>(csr_bytes) /
                          static_cast<double>(bit_bytes)
                    : 0.0);
  state.counters["bit_words_touched"] =
      benchmark::Counter(static_cast<double>(delta.bit_words_touched));
}

/// Selector's own call on the same workload: `bit_selections` records
/// whether Auto judged the edgefactor-8 operands dense enough (at these
/// scales L's density sits near the 1/128 floor, so refusals are expected
/// and correct — the row documents the boundary rather than forcing it).
void BM_tc_gpu_bit_auto(benchmark::State& state) {
  auto a = graph_at<grb::GpuSim>(static_cast<unsigned>(state.range(0)));
  std::uint64_t tri = 0;
  sparse::BitModeGuard mode(sparse::BitMode::Auto);
  const auto delta = benchx::run_simulated(
      state, [&] { tri = algorithms::triangle_count_masked(a); });
  benchx::annotate(state, a.nrows(), a.nvals());
  state.counters["triangles"] = benchmark::Counter(static_cast<double>(tri));
  state.counters["bit_selections"] =
      benchmark::Counter(static_cast<double>(delta.bit_selections));
  state.counters["bit_words_touched"] =
      benchmark::Counter(static_cast<double>(delta.bit_words_touched));
}

}  // namespace

BENCHMARK(BM_tc_seq_masked)->DenseRange(7, 10, 1)->Iterations(1);
BENCHMARK(BM_tc_seq_unmasked)->DenseRange(7, 10, 1)->Iterations(1);
BENCHMARK(BM_tc_seq_burkhardt)->DenseRange(7, 10, 1)->Iterations(1);
BENCHMARK(BM_tc_gpu_masked)
    ->DenseRange(7, 10, 1)
    ->Iterations(1)
    ->UseManualTime();
BENCHMARK(BM_tc_gpu_unmasked)
    ->DenseRange(7, 10, 1)
    ->Iterations(1)
    ->UseManualTime();
BENCHMARK(BM_tc_gpu_burkhardt)
    ->DenseRange(7, 10, 1)
    ->Iterations(1)
    ->UseManualTime();
BENCHMARK(BM_tc_gpu_bit_vs_csr)
    ->DenseRange(7, 10, 1)
    ->Iterations(1)
    ->UseManualTime();
BENCHMARK(BM_tc_gpu_bit_auto)
    ->DenseRange(7, 10, 1)
    ->Iterations(1)
    ->UseManualTime();

BENCHMARK_MAIN();
