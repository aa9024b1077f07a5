/// Fig. 6 — host<->device transfer overhead: the same mxv measured
/// (a) with device-resident data (steady-state inner loop of an algorithm),
/// (b) with a per-call upload of matrix + vector and download of the result
///     (the naive "offload one primitive" usage).
///
/// Paper-shape expectation: per-call transfers dominate at every scale and
/// push the CPU/GPU crossover up by 1-2 scales — the architectural argument
/// for GBTL keeping GraphBLAS objects device-resident across primitives.

#include "bench_common.hpp"

namespace {

void BM_mxv_resident(benchmark::State& state) {
  const auto& g = benchx::rmat_graph(static_cast<unsigned>(state.range(0)),
                                     16);
  auto a = gbtl_graph::to_matrix<double, grb::GpuSim>(g);
  grb::Vector<double, grb::GpuSim> u(std::vector<double>(a.ncols(), 1.0),
                                     0.0);
  grb::Vector<double, grb::GpuSim> w(a.nrows());
  benchx::run_simulated(state, [&] {
    grb::mxv(w, grb::NoMask{}, grb::NoAccumulate{},
             grb::ArithmeticSemiring<double>{}, a, u, grb::Replace);
  });
  benchx::annotate(state, a.nrows(), a.nvals());
}

void BM_mxv_per_call_transfer(benchmark::State& state) {
  const auto& g = benchx::rmat_graph(static_cast<unsigned>(state.range(0)),
                                     16);
  // Host-side golden copies, re-uploaded every call.
  auto host = gbtl_graph::to_matrix<double, grb::Sequential>(g);
  grb::IndexArrayType rows, cols;
  std::vector<double> vals;
  host.extractTuples(rows, cols, vals);
  const std::vector<double> ones(host.ncols(), 1.0);

  benchx::run_simulated(state, [&] {
    grb::Matrix<double, grb::GpuSim> a(host.nrows(), host.ncols());
    a.build(rows, cols, vals);  // H2D
    grb::Vector<double, grb::GpuSim> u(ones, 0.0);  // H2D
    grb::Vector<double, grb::GpuSim> w(a.nrows());
    grb::mxv(w, grb::NoMask{}, grb::NoAccumulate{},
             grb::ArithmeticSemiring<double>{}, a, u, grb::Replace);
    grb::IndexArrayType out_idx;
    std::vector<double> out_vals;
    w.extractTuples(out_idx, out_vals);  // D2H
    benchmark::DoNotOptimize(out_vals);
  });
  benchx::annotate(state, host.nrows(), host.nvals());
}

}  // namespace

BENCHMARK(BM_mxv_resident)->DenseRange(8, 16, 2)->Iterations(1)->UseManualTime();
BENCHMARK(BM_mxv_per_call_transfer)
    ->DenseRange(8, 16, 2)
    ->Iterations(1)
    ->UseManualTime();

BENCHMARK_MAIN();
