#pragma once

/// @file backend_cpupar/ops.hpp
/// The one operation the CpuPar backend implements itself: vxm. Every other
/// CpuPar op is the Sequential body (backend_sequential/ops.hpp) run under
/// the pool policy, PoolExec (gbtl/backend.hpp forwards them). The
/// Sequential vxm is a row scatter — two source rows may add into one
/// output slot — so it cannot be split by output; CpuPar pulls by column
/// instead, over a cached CSC layout whose per-column order is the
/// scatter's visit order.
///
/// Bit-exactness: each output slot folds its contributions in exactly the
/// order the Sequential scatter applied them. The three-way differential
/// fuzz suite and test_cpupar_determinism.cpp hold this backend to
/// byte-identical results at any worker count.

#include <memory>
#include <vector>

#include "backend_cpupar/pool.hpp"
#include "backend_sequential/matrix.hpp"
#include "backend_sequential/vector.hpp"
#include "gbtl/types.hpp"
#include "sparse/output_pipeline.hpp"

namespace grb::cpupar_backend {

// Same container types as the Sequential backend (backend_traits<CpuPar>
// maps to these): only the execution strategy differs.
using seq_backend::Matrix;
using seq_backend::Vector;

namespace detail {

/// CSC view of a Matrix, built once per matrix mutation epoch and cached on
/// the container (Matrix::cached_aux): entries of each column contiguous in
/// ascending source-row order — exactly the order the Sequential vxm
/// scatter visits them, which is what keeps the pull below bit-exact.
template <typename AT>
struct CscLayout {
  std::vector<IndexType> col_ptr;   // ncols + 1 offsets into the arrays
  std::vector<IndexType> src_rows;  // source row of each entry
  std::unique_ptr<AT[]> vals;       // raw array: AT may be bool, and two
                                    // chunks must never share a packed word
};

/// Deterministic chunked counting sort (layout independent of the worker
/// count: chunk boundaries are fixed kRowChunk multiples).
template <typename AT>
std::shared_ptr<const CscLayout<AT>> csc_of(const Matrix<AT>& A) {
  return A.template cached_aux<CscLayout<AT>>([&] {
    auto csc = std::make_shared<CscLayout<AT>>();
    const IndexType nrows = A.nrows();
    const IndexType ncols = A.ncols();
    const std::size_t nchunks = (nrows + kRowChunk - 1) / kRowChunk;

    // Pass 1 (parallel over row chunks): per-(column, chunk) entry counts.
    // Layout counts[j * nchunks + c]: each slot belongs to exactly one
    // chunk.
    std::vector<IndexType> counts(ncols * nchunks, 0);
    parallel_ranges(nrows, kRowChunk,
                    [&](std::size_t begin, std::size_t end) {
      const std::size_t c = begin / kRowChunk;
      for (std::size_t k = begin; k < end; ++k)
        for (const auto& [j, av] : A.row(k)) {
          (void)av;
          ++counts[j * nchunks + c];
        }
    });

    // Pass 2 (serial scan): turn counts into placement cursors, columns
    // outer and chunks inner, so each column's entries land contiguously
    // with chunk segments in ascending source-row order.
    csc->col_ptr.assign(ncols + 1, 0);
    IndexType total = 0;
    for (IndexType j = 0; j < ncols; ++j) {
      csc->col_ptr[j] = total;
      for (std::size_t c = 0; c < nchunks; ++c) {
        const IndexType n = counts[j * nchunks + c];
        counts[j * nchunks + c] = total;
        total += n;
      }
    }
    csc->col_ptr[ncols] = total;

    // Pass 3 (parallel over row chunks): place (source row, value) pairs
    // at the cursors.
    csc->src_rows.resize(total);
    csc->vals.reset(new AT[total]);
    parallel_ranges(nrows, kRowChunk,
                    [&](std::size_t begin, std::size_t end) {
      const std::size_t c = begin / kRowChunk;
      for (std::size_t k = begin; k < end; ++k)
        for (const auto& [j, av] : A.row(k)) {
          const IndexType pos = counts[j * nchunks + c]++;
          csc->src_rows[pos] = k;
          csc->vals[pos] = av;
        }
    });
    return std::shared_ptr<const CscLayout<AT>>(std::move(csc));
  });
}

}  // namespace detail

/// Column-parallel pull over the cached CSC layout (detail::csc_of — built
/// on first use, reused until the matrix mutates, so iterated vxm pays it
/// once): each output slot folds its contributions in exactly the order the
/// Sequential scatter applied them (first contribution assigns, later ones
/// fold through sr.add), so the result is bit-identical.
template <typename WT, typename MObj, typename Accum, typename SR,
          typename UT, typename AT>
void vxm(Vector<WT>& w, const OutputDescriptor<MObj>& out, Accum accum, SR sr,
         const Vector<UT>& u, const Matrix<AT>& A) {
  using ZT = typename SR::result_type;
  Vector<ZT> T(w.size());
  const auto csc = detail::csc_of(A);
  parallel_ranges(A.ncols(), kVectorChunk,
                  [&](std::size_t begin, std::size_t end) {
    for (std::size_t j = begin; j < end; ++j) {
      ZT acc{};
      bool any = false;
      for (IndexType p = csc->col_ptr[j]; p < csc->col_ptr[j + 1]; ++p) {
        const IndexType k = csc->src_rows[p];
        if (!u.present_unchecked(k)) continue;
        const ZT prod = sr.mult(u.value_unchecked(k), csc->vals[p]);
        if (any) {
          acc = sr.add(acc, prod);
        } else {
          acc = prod;
          any = true;
        }
      }
      if (any) T.set_unchecked(j, acc);
    }
  });
  pipeline::write_vector<PoolExec>(w, T, out, accum);
}

}  // namespace grb::cpupar_backend
