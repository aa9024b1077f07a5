#pragma once

/// @file backend_gpu/overlay_ops.hpp
/// GpuSim mxv/vxm over (base matrix, replacement-row overlay): the ISSUE's
/// "base pass + delta pass" feeding the shared output pipeline.
///
/// The overlay's four host arrays are uploaded per call (O(delta) H2D,
/// accounted by the device_vector upload ctor) — the base CSR stays
/// resident and untouched.
///
/// mxv: a row-parallel CSR pass over the base seeds t, then a delta kernel
/// OVERWRITES every dirty row's slot from its replacement row (presence
/// included — a dirty row whose fold is empty clears the base pass's bit).
/// Both passes fold zero-seeded in ascending column order, so the final t
/// matches the monolithic kernel bit for bit no matter which schedule the
/// monolithic selector would have picked.
///
/// vxm: one scatter over the frontier in ascending source order with row
/// substitution (binary search in the uploaded dirty-row list) and a bare
/// first product per output — the Sequential scatter's combination order.
///
/// Neither op is in the composite-launch legality table: each is charged
/// its own launches.

#include <algorithm>
#include <cstdint>

#include "backend_gpu/matrix.hpp"
#include "backend_gpu/ops.hpp"
#include "backend_gpu/vector.hpp"
#include "gbtl/overlay.hpp"
#include "gbtl/types.hpp"
#include "gbtl/write_rules.hpp"
#include "sparse/output_pipeline.hpp"

namespace grb::gpu_backend {

template <typename WT, typename MObj, typename Accum, typename SR,
          typename AT, typename UT>
void mxv_overlay(Vector<WT>& w, const OutputDescriptor<MObj>& out,
                 Accum accum, SR sr, const Matrix<AT>& A,
                 const MatrixOverlay<AT>& ov, const Vector<UT>& u) {
  using detail::LaunchStats;
  using ZT = typename SR::result_type;
  gpu_sim::Context& ctx = w.context();
  const IndexType n = A.nrows();
  const IndexType nnz = A.nvals();

  gpu_sim::device_vector<ZT> t_vals(n, ctx);
  gpu_sim::device_vector<std::uint8_t> t_pres(n, ctx);
  gpu_sim::fill(t_pres, std::uint8_t{0});

  gpu_sim::device_vector<IndexType> d_rows(ov.rows, ctx);
  gpu_sim::device_vector<IndexType> d_offs(ov.offsets, ctx);
  gpu_sim::device_vector<IndexType> d_cols(ov.cols, ctx);
  gpu_sim::device_vector<AT> d_vals(ov.vals, ctx);

  const IndexType* offs = A.row_offsets().data();
  const IndexType* cols = A.col_indices().data();
  const AT* avals = A.values().data();
  const UT* uv = u.values().data();
  const std::uint8_t* up = u.present().data();
  ZT* tv = t_vals.data();
  std::uint8_t* tp = t_pres.data();
  const IndexType dirty = static_cast<IndexType>(ov.dirty_rows());
  const IndexType* drows = d_rows.data();
  const IndexType* doffs = d_offs.data();
  const IndexType* dcols = d_cols.data();
  const AT* dvals = d_vals.data();
  const SR sem = sr;

  const std::uint64_t entry =
      sizeof(IndexType) + sizeof(AT) + sizeof(UT) + 1;

  // Base pass: row-parallel CSR gather over every base row (dirty rows'
  // results are provisional — the delta pass replaces them).
  ctx.launch_n(n,
               LaunchStats{2 * nnz,
                           nnz * entry + (n + 1) * sizeof(IndexType),
                           n * (sizeof(ZT) + 1)},
               [=](std::size_t i) {
                 ZT acc = sem.zero();
                 bool any = false;
                 for (IndexType k = offs[i]; k < offs[i + 1]; ++k) {
                   const IndexType col = cols[k];
                   if (up[col]) {
                     acc = sem.add(acc, sem.mult(avals[k], uv[col]));
                     any = true;
                   }
                 }
                 if (any) {
                   tv[i] = acc;
                   tp[i] = 1;
                 }
               });

  // Delta pass: overwrite each dirty row's slot from its replacement row,
  // presence bit included.
  if (dirty > 0) {
    ctx.launch_n(
        dirty,
        LaunchStats{2 * ov.nnz(),
                    ov.nnz() * entry + dirty * 3 * sizeof(IndexType),
                    dirty * (sizeof(ZT) + 1)},
        [=](std::size_t s) {
          const IndexType i = drows[s];
          ZT acc = sem.zero();
          bool any = false;
          for (IndexType k = doffs[s]; k < doffs[s + 1]; ++k) {
            const IndexType col = dcols[k];
            if (up[col]) {
              acc = sem.add(acc, sem.mult(dvals[k], uv[col]));
              any = true;
            }
          }
          tv[i] = acc;
          tp[i] = any ? 1 : 0;
        });
  }

  pipeline::write_vector(w, t_vals, t_pres, out, accum);
}

template <typename WT, typename MObj, typename Accum, typename SR,
          typename UT, typename AT>
void vxm_overlay(Vector<WT>& w, const OutputDescriptor<MObj>& out,
                 Accum accum, SR sr, const Vector<UT>& u,
                 const Matrix<AT>& A, const MatrixOverlay<AT>& ov) {
  using detail::LaunchStats;
  using ZT = typename SR::result_type;
  gpu_sim::Context& ctx = w.context();

  gpu_sim::device_vector<ZT> t_vals(w.size(), ctx);
  gpu_sim::device_vector<std::uint8_t> t_pres(w.size(), ctx);
  gpu_sim::fill(t_pres, std::uint8_t{0});

  gpu_sim::device_vector<IndexType> d_rows(ov.rows, ctx);
  gpu_sim::device_vector<IndexType> d_offs(ov.offsets, ctx);
  gpu_sim::device_vector<IndexType> d_cols(ov.cols, ctx);
  gpu_sim::device_vector<AT> d_vals(ov.vals, ctx);

  const IndexType* offs = A.row_offsets().data();
  const IndexType* cols = A.col_indices().data();
  const AT* avals = A.values().data();
  const UT* uv = u.values().data();
  ZT* tv = t_vals.data();
  std::uint8_t* tp = t_pres.data();
  const IndexType dirty = static_cast<IndexType>(ov.dirty_rows());
  const IndexType* drows = d_rows.data();
  const IndexType* doffs = d_offs.data();
  const IndexType* dcols = d_cols.data();
  const AT* dvals = d_vals.data();
  const SR sem = sr;

  // Frontier inspector with row substitution: each present source row
  // expands either its replacement row or its base row.
  const auto& frontier = u.sparse_indices();
  const IndexType frontier_rows = static_cast<IndexType>(frontier.size());
  const IndexType* fidx = frontier.data();
  std::uint64_t items = 0;
  for (IndexType r = 0; r < frontier_rows; ++r) {
    const IndexType k = fidx[r];
    const std::size_t slot = ov.find_row(k);
    items += slot < ov.dirty_rows()
                 ? ov.offsets[slot + 1] - ov.offsets[slot]
                 : offs[k + 1] - offs[k];
  }
  ctx.account_kernel(
      LaunchStats{frontier_rows, frontier_rows * 3 * sizeof(IndexType), 64});

  // Push scatter (atomics on real hardware, simulated serially): frontier
  // rows ascend, so contributions land in the Sequential scatter's order —
  // bare first product, then sr.add folds.
  const std::uint64_t entry =
      sizeof(IndexType) + sizeof(AT) + sizeof(ZT) + 1;
  detail::serial_kernel(
      ctx,
      LaunchStats{2 * items + frontier_rows * 8,
                  frontier_rows * (3 * sizeof(IndexType) + sizeof(UT)) +
                      items * entry,
                  items * (sizeof(ZT) + 1)},
      [&] {
        for (IndexType r = 0; r < frontier_rows; ++r) {
          const IndexType k = fidx[r];
          const UT uval = uv[k];
          // Binary search the dirty-row list (the 8-op term above).
          IndexType lo = 0, hi = dirty;
          while (lo < hi) {
            const IndexType mid = (lo + hi) / 2;
            if (drows[mid] < k)
              lo = mid + 1;
            else
              hi = mid;
          }
          const bool is_dirty = lo < dirty && drows[lo] == k;
          const IndexType q0 = is_dirty ? doffs[lo] : offs[k];
          const IndexType q1 = is_dirty ? doffs[lo + 1] : offs[k + 1];
          for (IndexType q = q0; q < q1; ++q) {
            const IndexType j = is_dirty ? dcols[q] : cols[q];
            const ZT prod = sem.mult(uval, is_dirty ? dvals[q] : avals[q]);
            if (tp[j]) {
              tv[j] = sem.add(tv[j], prod);
            } else {
              tv[j] = prod;
              tp[j] = 1;
            }
          }
        }
      });

  pipeline::write_vector(w, t_vals, t_pres, out, accum);
}

}  // namespace grb::gpu_backend
