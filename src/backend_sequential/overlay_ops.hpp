#pragma once

/// @file backend_sequential/overlay_ops.hpp
/// Sequential mxv/vxm over (base matrix, replacement-row overlay). The
/// overlay substitutes whole rows, so these are the monolithic loops from
/// ops.hpp with one extra branch per row: a dirty row streams its entries
/// from the overlay arrays instead of the LIL row. Combination order is
/// untouched — per-row zero-seeded fold in ascending column order for mxv,
/// ascending-source scatter with a bare first product for vxm — so results
/// are bit-identical to the same op on a monolithically rebuilt matrix.
///
/// mxv_overlay takes an execution policy like the ops.hpp bodies, and
/// CpuPar runs it under PoolExec. vxm_overlay's scatter cannot split by
/// output; CpuPar has its own (backend_cpupar/overlay_ops.hpp).

#include "backend_sequential/matrix.hpp"
#include "backend_sequential/ops.hpp"
#include "backend_sequential/vector.hpp"
#include "gbtl/overlay.hpp"
#include "gbtl/types.hpp"
#include "gbtl/write_rules.hpp"
#include "sparse/output_pipeline.hpp"

namespace grb::seq_backend {

template <typename Exec = SerialExec, typename WT, typename MObj,
          typename Accum, typename SR, typename AT, typename UT>
void mxv_overlay(Vector<WT>& w, const OutputDescriptor<MObj>& out,
                 Accum accum, SR sr, const Matrix<AT>& A,
                 const MatrixOverlay<AT>& ov, const Vector<UT>& u) {
  using ZT = typename SR::result_type;
  Vector<ZT> T(w.size());
  Exec::ranges(A.nrows(), kVectorChunk,
               [&](std::size_t begin, std::size_t end) {
    for (IndexType i = begin; i < end; ++i) {
      ZT acc = sr.zero();
      bool any = false;
      const std::size_t slot = ov.find_row(i);
      if (slot < ov.dirty_rows()) {
        for (IndexType k = ov.offsets[slot]; k < ov.offsets[slot + 1]; ++k) {
          const IndexType col = ov.cols[k];
          if (u.present_unchecked(col)) {
            acc = sr.add(acc, sr.mult(ov.vals[k], u.value_unchecked(col)));
            any = true;
          }
        }
      } else {
        for (const auto& [k, av] : A.row(i)) {
          if (u.present_unchecked(k)) {
            acc = sr.add(acc, sr.mult(av, u.value_unchecked(k)));
            any = true;
          }
        }
      }
      if (any) T.set_unchecked(i, acc);
    }
  });
  pipeline::write_vector<Exec>(w, T, out, accum);
}

template <typename WT, typename MObj, typename Accum, typename SR,
          typename UT, typename AT>
void vxm_overlay(Vector<WT>& w, const OutputDescriptor<MObj>& out,
                 Accum accum, SR sr, const Vector<UT>& u,
                 const Matrix<AT>& A, const MatrixOverlay<AT>& ov) {
  using ZT = typename SR::result_type;
  Vector<ZT> T(w.size());
  std::vector<std::uint8_t> occupied(w.size(), 0);
  auto scatter = [&](const UT uv, IndexType j, const AT av) {
    const ZT prod = sr.mult(uv, av);
    if (!occupied[j]) {
      occupied[j] = 1;
      T.set_unchecked(j, prod);
    } else {
      T.set_unchecked(j, sr.add(T.value_unchecked(j), prod));
    }
  };
  for (IndexType k = 0; k < A.nrows(); ++k) {
    if (!u.present_unchecked(k)) continue;
    const UT uv = u.value_unchecked(k);
    const std::size_t slot = ov.find_row(k);
    if (slot < ov.dirty_rows()) {
      for (IndexType q = ov.offsets[slot]; q < ov.offsets[slot + 1]; ++q)
        scatter(uv, ov.cols[q], ov.vals[q]);
    } else {
      for (const auto& [j, av] : A.row(k)) scatter(uv, j, av);
    }
  }
  pipeline::write_vector(w, T, out, accum);
}

}  // namespace grb::seq_backend
