#pragma once

/// @file backend_cpupar/overlay_ops.hpp
/// CpuPar vxm over (base matrix, replacement-row overlay). (CpuPar's
/// mxv_overlay is the Sequential body under PoolExec.)
///
/// vxm keeps the column-parallel pull, but each output column merges two
/// ascending-source streams: the base's cached CSC with dirty source rows
/// masked out, and a per-call CSC of the overlay rows. A source row is in
/// exactly one stream, and the merge visits sources in ascending order with
/// a bare first product — the Sequential scatter's combination order — so
/// results are bit-identical to a monolithic rebuild. The per-call overlay
/// CSC costs O(ncols + overlay nnz): delta-sized, not graph-sized.

#include <cstdint>
#include <vector>

#include "backend_cpupar/ops.hpp"
#include "gbtl/overlay.hpp"
#include "gbtl/types.hpp"
#include "sparse/output_pipeline.hpp"

namespace grb::cpupar_backend {

namespace detail {

/// Column-major view of an overlay's replacement rows: within each column,
/// source rows ascend (the fill loop walks dirty rows in ascending order).
template <typename AT>
struct OverlayCsc {
  IndexArrayType col_ptr;
  IndexArrayType src_rows;
  std::vector<AT> vals;
};

template <typename AT>
OverlayCsc<AT> overlay_csc(const MatrixOverlay<AT>& ov, IndexType ncols) {
  OverlayCsc<AT> csc;
  csc.col_ptr.assign(ncols + 1, 0);
  for (const IndexType c : ov.cols) ++csc.col_ptr[c + 1];
  for (IndexType j = 0; j < ncols; ++j) csc.col_ptr[j + 1] += csc.col_ptr[j];
  csc.src_rows.resize(ov.nnz());
  csc.vals.resize(ov.nnz());
  IndexArrayType cursor(csc.col_ptr.begin(), csc.col_ptr.end() - 1);
  for (std::size_t s = 0; s < ov.dirty_rows(); ++s) {
    for (IndexType k = ov.offsets[s]; k < ov.offsets[s + 1]; ++k) {
      const IndexType c = ov.cols[k];
      csc.src_rows[cursor[c]] = ov.rows[s];
      csc.vals[cursor[c]] = ov.vals[k];
      ++cursor[c];
    }
  }
  return csc;
}

}  // namespace detail

template <typename WT, typename MObj, typename Accum, typename SR,
          typename UT, typename AT>
void vxm_overlay(Vector<WT>& w, const OutputDescriptor<MObj>& out,
                 Accum accum, SR sr, const Vector<UT>& u,
                 const Matrix<AT>& A, const MatrixOverlay<AT>& ov) {
  using ZT = typename SR::result_type;
  Vector<ZT> T(w.size());
  const auto csc = detail::csc_of(A);
  const auto ocsc = detail::overlay_csc(ov, A.ncols());
  std::vector<std::uint8_t> dirty(A.nrows(), 0);
  for (const IndexType r : ov.rows) dirty[r] = 1;

  parallel_ranges(A.ncols(), kVectorChunk,
                  [&](std::size_t begin, std::size_t end) {
    for (std::size_t j = begin; j < end; ++j) {
      ZT acc{};
      bool any = false;
      IndexType p = csc->col_ptr[j];
      const IndexType p_end = csc->col_ptr[j + 1];
      IndexType q = ocsc.col_ptr[j];
      const IndexType q_end = ocsc.col_ptr[j + 1];
      while (true) {
        while (p < p_end && dirty[csc->src_rows[p]]) ++p;
        IndexType k;
        AT av;
        if (p < p_end &&
            (q >= q_end || csc->src_rows[p] < ocsc.src_rows[q])) {
          k = csc->src_rows[p];
          av = csc->vals[p];
          ++p;
        } else if (q < q_end) {
          k = ocsc.src_rows[q];
          av = ocsc.vals[q];
          ++q;
        } else {
          break;
        }
        if (!u.present_unchecked(k)) continue;
        const ZT prod = sr.mult(u.value_unchecked(k), av);
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
