#pragma once

/// @file gbtl/overlay_ops.hpp
/// Frontend entry points for the overlay-aware SpMV pair:
///
///   mxv_overlay(w, mask, accum, semiring, A, overlay, u, outp)
///   vxm_overlay(w, mask, accum, semiring, u, A, overlay, outp)
///
/// `A` is the matrix built from the BASE CSR; `overlay` replaces whole rows
/// of it (grb::MatrixOverlay). Results are bit-identical to running the
/// plain op on a monolithically rebuilt matrix, for any semiring / mask /
/// accumulator — the property tests and the differential-fuzz Overlay leg
/// enforce this across Sequential, CpuPar, and GpuSim.
///
/// These are deliberately NOT in backend_ops: GpuShard has no overlay
/// kernels (a sharded graph compacts before upload instead), and the GpuSim
/// implementations are charged their own launches (they join no
/// composite-launch chain).
///
/// The backends index their buffers by the overlay's rows and columns
/// unchecked, so both entry points validate the overlay against `A` before
/// dispatch: O(overlay), over the arrays every call reads anyway.

#include <string>
#include <type_traits>

#include "backend_cpupar/overlay_ops.hpp"
#include "backend_gpu/overlay_ops.hpp"
#include "backend_sequential/overlay_ops.hpp"
#include "gbtl/operations.hpp"
#include "gbtl/overlay.hpp"

namespace grb {

namespace detail {

/// Throws unless @p ov is a well-formed overlay of an nrows x ncols matrix:
/// dirty rows strictly ascending and in range, offsets a non-decreasing
/// 0..cols.size() walk with one entry per row plus one, one value per
/// column, every column in range.
template <typename AT>
void check_overlay(const MatrixOverlay<AT>& ov, IndexType nrows,
                   IndexType ncols, const char* op) {
  const std::string name(op);
  if (ov.offsets.size() != ov.rows.size() + 1)
    throw InvalidValueException(name + ": overlay has " +
                                std::to_string(ov.offsets.size()) +
                                " offsets for " +
                                std::to_string(ov.rows.size()) + " rows");
  if (ov.vals.size() != ov.cols.size())
    throw InvalidValueException(name + ": overlay has " +
                                std::to_string(ov.vals.size()) +
                                " values for " +
                                std::to_string(ov.cols.size()) + " columns");
  if (ov.offsets.front() != 0 || ov.offsets.back() != ov.cols.size())
    throw InvalidValueException(name +
                                ": overlay offsets must run from 0 to the "
                                "column count");
  for (std::size_t s = 0; s < ov.rows.size(); ++s) {
    if (ov.rows[s] >= nrows)
      throw IndexOutOfBoundsException(name + ": overlay row " +
                                      std::to_string(ov.rows[s]) +
                                      " >= A.nrows (" +
                                      std::to_string(nrows) + ")");
    if (s > 0 && ov.rows[s] <= ov.rows[s - 1])
      throw InvalidValueException(name +
                                  ": overlay rows must be strictly ascending");
    if (ov.offsets[s + 1] < ov.offsets[s])
      throw InvalidValueException(name +
                                  ": overlay offsets must not decrease");
  }
  for (const IndexType c : ov.cols)
    if (c >= ncols)
      throw IndexOutOfBoundsException(name + ": overlay column " +
                                      std::to_string(c) + " >= A.ncols (" +
                                      std::to_string(ncols) + ")");
}

}  // namespace detail

template <typename WT, typename Tag, typename MaskT, typename Accum,
          typename SR, typename AT, typename UT>
void mxv_overlay(Vector<WT, Tag>& w, const MaskT& mask, const Accum& accum,
                 const SR& semiring, const Matrix<AT, Tag>& A,
                 const MatrixOverlay<AT>& overlay, const Vector<UT, Tag>& u,
                 OutputControl outp = Merge) {
  detail::check_dims(A.nrows() == w.size(), "mxv_overlay",
                     "w.size != A.nrows", w.size(), A.nrows());
  detail::check_dims(A.ncols() == u.size(), "mxv_overlay",
                     "u.size != A.ncols", u.size(), A.ncols());
  detail::check_mask_size(detail::mask_size_ok(mask, w.size()), "mxv_overlay",
                          w.size());
  detail::check_overlay(overlay, A.nrows(), A.ncols(), "mxv_overlay");
  if constexpr (std::is_same_v<Tag, Sequential>) {
    seq_backend::mxv_overlay(w.impl(), detail::lower_output(mask, outp),
                             accum, semiring, A.impl(), overlay, u.impl());
  } else if constexpr (std::is_same_v<Tag, CpuPar>) {
    seq_backend::mxv_overlay<cpupar_backend::PoolExec>(
        w.impl(), detail::lower_output(mask, outp), accum, semiring, A.impl(),
        overlay, u.impl());
  } else if constexpr (std::is_same_v<Tag, GpuSim>) {
    gpu_backend::mxv_overlay(w.impl(), detail::lower_output(mask, outp),
                             accum, semiring, A.impl(), overlay, u.impl());
  } else {
    static_assert(!sizeof(Tag*),
                  "mxv_overlay: no overlay kernels for this backend");
  }
}

template <typename WT, typename Tag, typename MaskT, typename Accum,
          typename SR, typename UT, typename AT>
void vxm_overlay(Vector<WT, Tag>& w, const MaskT& mask, const Accum& accum,
                 const SR& semiring, const Vector<UT, Tag>& u,
                 const Matrix<AT, Tag>& A, const MatrixOverlay<AT>& overlay,
                 OutputControl outp = Merge) {
  detail::check_dims(A.ncols() == w.size(), "vxm_overlay",
                     "w.size != A.ncols", w.size(), A.ncols());
  detail::check_dims(A.nrows() == u.size(), "vxm_overlay",
                     "u.size != A.nrows", u.size(), A.nrows());
  detail::check_mask_size(detail::mask_size_ok(mask, w.size()), "vxm_overlay",
                          w.size());
  detail::check_overlay(overlay, A.nrows(), A.ncols(), "vxm_overlay");
  if constexpr (std::is_same_v<Tag, Sequential>) {
    seq_backend::vxm_overlay(w.impl(), detail::lower_output(mask, outp),
                             accum, semiring, u.impl(), A.impl(), overlay);
  } else if constexpr (std::is_same_v<Tag, CpuPar>) {
    cpupar_backend::vxm_overlay(w.impl(), detail::lower_output(mask, outp),
                                accum, semiring, u.impl(), A.impl(), overlay);
  } else if constexpr (std::is_same_v<Tag, GpuSim>) {
    gpu_backend::vxm_overlay(w.impl(), detail::lower_output(mask, outp),
                             accum, semiring, u.impl(), A.impl(), overlay);
  } else {
    static_assert(!sizeof(Tag*),
                  "vxm_overlay: no overlay kernels for this backend");
  }
}

}  // namespace grb
