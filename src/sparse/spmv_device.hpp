#pragma once

/// @file spmv_device.hpp
/// Device-modeled SpMV kernels, one per sparse format, for the format
/// ablation (Abl. A). Each kernel executes functionally through the
/// simulated launch API and charges the cost model with its real traffic
/// pattern:
///   - CSR (scalar): one thread per row. Under SIMT lockstep a warp moves at
///     the pace of its heaviest row, so the model charges warp-granular
///     padded traffic (gpu_sim::warp_padded_items) — mild on banded inputs,
///     ruinous on power-law degree distributions;
///   - CSR (load-balanced): merge-path / nnz-chunked (Merrill & Garland);
///     flat traffic in nnz regardless of skew, at the price of a partition
///     search and a partial-row fixup pass;
///   - COO: scalar kernel over nonzeros with atomic accumulation into y
///     (atomics modeled as a 4x op surcharge);
///   - CSC: push-style with atomics on y;
///   - ELL: reads the *padded* slab — width * nrows slots — which is
///     exactly why it collapses on power-law degree distributions.

#include "gpu_sim/algorithms.hpp"
#include "gpu_sim/context.hpp"
#include "gpu_sim/device_vector.hpp"
#include "gpu_sim/knob.hpp"
#include "sparse/formats.hpp"

namespace sparse {

/// Effective (warp-padded) slot count of the row-parallel CSR kernel over
/// @p a: what the SIMT lanes actually stream through the memory pipeline.
template <typename T>
std::uint64_t csr_scalar_padded_slots(const Csr<T>& a,
                                      std::uint32_t warp_size) {
  return gpu_sim::warp_padded_items(a.nrows, warp_size, [&](std::size_t i) {
    return a.row_offsets[i + 1] - a.row_offsets[i];
  });
}

/// y = A * x on the simulated device, row-parallel CSR. Returns y; simulated
/// time is read from the context's stats delta by the caller.
template <typename T>
std::vector<T> spmv_device(const Csr<T>& a, const std::vector<T>& x,
                           gpu_sim::Context& ctx) {
  gpu_sim::device_vector<Index> offs(a.row_offsets, ctx);
  gpu_sim::device_vector<Index> cols(a.col_indices, ctx);
  gpu_sim::device_vector<T> vals(a.values, ctx);
  gpu_sim::device_vector<T> dx(x, ctx);
  gpu_sim::device_vector<T> dy(a.nrows, ctx);
  const Index* o = offs.data();
  const Index* c = cols.data();
  const T* v = vals.data();
  const T* px = dx.data();
  T* py = dy.data();
  const std::uint64_t slots =
      csr_scalar_padded_slots(a, ctx.properties().warp_size);
  ctx.launch_n(a.nrows,
               gpu_sim::LaunchStats{
                   2 * slots,
                   slots * (sizeof(Index) + 2 * sizeof(T)) +
                       (a.nrows + 1) * sizeof(Index),
                   a.nrows * sizeof(T)},
               [=](std::size_t i) {
                 T acc{};
                 for (Index k = o[i]; k < o[i + 1]; ++k)
                   acc += v[k] * px[c[k]];
                 py[i] = acc;
               });
  return dy.to_host();
}

/// Default nnz-per-team chunk of the load-balanced kernel. A knob so tests
/// can shrink it to force multi-team partial-row coverage on tiny matrices.
inline gpu_sim::Knob<Index>& spmv_lb_chunk_knob() {
  static gpu_sim::Knob<Index> knob{256};
  return knob;
}
inline Index spmv_lb_chunk() { return spmv_lb_chunk_knob().get(); }

/// y = A * x on the simulated device, merge-path load-balanced CSR.
///
/// The nonzero range is cut into fixed-size chunks ("teams" — one warp's
/// worth of work each). Each team binary-searches its starting row in the
/// offsets array, streams its chunk, writes rows fully contained in the
/// chunk directly, and spills at most two partial row sums (its first and
/// last row) to a per-team buffer. A second, serial fixup kernel combines
/// the partials with atomic adds. Cost is flat in nnz — no warp-padding
/// term — plus the partition search and the fixup pass.
template <typename T>
std::vector<T> spmv_device_lb(const Csr<T>& a, const std::vector<T>& x,
                              gpu_sim::Context& ctx, Index chunk = 0) {
  if (chunk == 0) chunk = spmv_lb_chunk();
  if (chunk == 0) chunk = 1;
  const std::uint64_t nnz = a.nnz();
  const Index nteams = static_cast<Index>((nnz + chunk - 1) / chunk);

  gpu_sim::device_vector<Index> offs(a.row_offsets, ctx);
  gpu_sim::device_vector<Index> cols(a.col_indices, ctx);
  gpu_sim::device_vector<T> vals(a.values, ctx);
  gpu_sim::device_vector<T> dx(x, ctx);
  gpu_sim::device_vector<T> dy(a.nrows, ctx);

  // Per-team spill buffers: slot 2t = first (possibly preceding-chunk) row,
  // slot 2t+1 = last row running past the chunk boundary.
  gpu_sim::device_vector<Index> partial_row(2 * nteams, ctx);
  gpu_sim::device_vector<T> partial_val(2 * nteams, ctx);
  gpu_sim::device_vector<std::uint8_t> partial_has(2 * nteams, ctx);

  // y-init and spill-flag init are fused into the team kernel (merge-path
  // coordinates cover row items too): zeroed functionally here, the write
  // traffic is charged in the team launch below.
  std::fill_n(dy.data(), a.nrows, T{});
  std::fill_n(partial_has.data(), 2 * nteams, std::uint8_t{0});

  const Index* o = offs.data();
  const Index* c = cols.data();
  const T* v = vals.data();
  const T* px = dx.data();
  T* py = dy.data();
  Index* prow = partial_row.data();
  T* pval = partial_val.data();
  std::uint8_t* phas = partial_has.data();
  const Index nrows = a.nrows;

  const std::uint64_t search_ops =
      nteams * 8;  // ~log2 of any practical nrows
  ctx.launch_n(
      nteams,
      gpu_sim::LaunchStats{
          2 * nnz + search_ops,
          nnz * (sizeof(Index) + 2 * sizeof(T)) +
              (a.nrows + 1) * sizeof(Index) + search_ops * sizeof(Index),
          nrows * sizeof(T) + 2 * nteams * (sizeof(Index) + sizeof(T) + 1)},
      [=](std::size_t t) {
        const Index k0 = static_cast<Index>(t) * chunk;
        const Index k1 = std::min<Index>(k0 + chunk, nnz);
        if (k0 >= k1) return;
        // Start row: last r with o[r] <= k0 (skips empty rows at k0).
        Index lo = 0, hi = nrows;
        while (lo < hi) {  // upper_bound on o[0..nrows]
          const Index mid = (lo + hi) / 2;
          if (o[mid] <= k0)
            lo = mid + 1;
          else
            hi = mid;
        }
        Index r = lo - 1;
        Index k = k0;
        while (k < k1) {
          const Index row_end = std::min<Index>(o[r + 1], k1);
          T acc{};
          for (; k < row_end; ++k) acc += v[k] * px[c[k]];
          const bool starts_inside = o[r] >= k0;
          const bool ends_inside = o[r + 1] <= k1;
          if (starts_inside && ends_inside) {
            py[r] = acc;  // row fully owned by this team: direct write
          } else {
            const Index slot =
                2 * static_cast<Index>(t) + (starts_inside ? 1 : 0);
            prow[slot] = r;
            pval[slot] = acc;
            phas[slot] = 1;
          }
          ++r;
        }
      });

  // Fixup: combine spilled partial sums. Serial over 2*nteams slots in slot
  // order — deterministic; atomics surcharge as elsewhere in the model.
  ctx.launch(gpu_sim::Dim3{1}, gpu_sim::Dim3{1},
             gpu_sim::LaunchStats{
                 8 * 2 * nteams,
                 2 * nteams * (sizeof(Index) + sizeof(T) + 1),
                 2 * nteams * sizeof(T)},
             [&](const gpu_sim::ThreadId&) {
               for (Index s = 0; s < 2 * nteams; ++s)
                 if (phas[s]) py[prow[s]] += pval[s];
             });
  return dy.to_host();
}

template <typename T>
std::vector<T> spmv_device(const Coo<T>& a, const std::vector<T>& x,
                           gpu_sim::Context& ctx) {
  gpu_sim::device_vector<Index> rows(a.row, ctx);
  gpu_sim::device_vector<Index> cols(a.col, ctx);
  gpu_sim::device_vector<T> vals(a.val, ctx);
  gpu_sim::device_vector<T> dx(x, ctx);
  gpu_sim::device_vector<T> dy(a.nrows, ctx);
  gpu_sim::fill(dy, T{});
  const Index* r = rows.data();
  const Index* c = cols.data();
  const T* v = vals.data();
  const T* px = dx.data();
  T* py = dy.data();
  const std::uint64_t nnz = a.nnz();
  // Atomic adds into y: 4x op surcharge for contention/retry.
  gpu_sim::LaunchStats stats{8 * nnz,
                             nnz * (2 * sizeof(Index) + 2 * sizeof(T)),
                             nnz * sizeof(T)};
  gpu_sim::Context& c2 = ctx;
  c2.launch(gpu_sim::Dim3{1}, gpu_sim::Dim3{1}, stats,
            [&](const gpu_sim::ThreadId&) {
              for (Index k = 0; k < nnz; ++k) py[r[k]] += v[k] * px[c[k]];
            });
  return dy.to_host();
}

template <typename T>
std::vector<T> spmv_device(const Csc<T>& a, const std::vector<T>& x,
                           gpu_sim::Context& ctx) {
  gpu_sim::device_vector<Index> offs(a.col_offsets, ctx);
  gpu_sim::device_vector<Index> rows(a.row_indices, ctx);
  gpu_sim::device_vector<T> vals(a.values, ctx);
  gpu_sim::device_vector<T> dx(x, ctx);
  gpu_sim::device_vector<T> dy(a.nrows, ctx);
  gpu_sim::fill(dy, T{});
  const Index* o = offs.data();
  const Index* r = rows.data();
  const T* v = vals.data();
  const T* px = dx.data();
  T* py = dy.data();
  const std::uint64_t nnz = a.nnz();
  const Index ncols = a.ncols;
  // Column-parallel with atomics on y (same surcharge as COO).
  gpu_sim::LaunchStats stats{8 * nnz,
                             nnz * (sizeof(Index) + 2 * sizeof(T)) +
                                 (ncols + 1) * sizeof(Index),
                             nnz * sizeof(T)};
  ctx.launch(gpu_sim::Dim3{1}, gpu_sim::Dim3{1}, stats,
             [&](const gpu_sim::ThreadId&) {
               for (Index j = 0; j < ncols; ++j)
                 for (Index k = o[j]; k < o[j + 1]; ++k)
                   py[r[k]] += v[k] * px[j];
             });
  return dy.to_host();
}

template <typename T>
std::vector<T> spmv_device(const Ell<T>& a, const std::vector<T>& x,
                           gpu_sim::Context& ctx) {
  gpu_sim::device_vector<Index> cols(a.col_indices, ctx);
  gpu_sim::device_vector<T> vals(a.values, ctx);
  gpu_sim::device_vector<T> dx(x, ctx);
  gpu_sim::device_vector<T> dy(a.nrows, ctx);
  const Index* c = cols.data();
  const T* v = vals.data();
  const T* px = dx.data();
  T* py = dy.data();
  const Index nrows = a.nrows;
  const Index width = a.width;
  // The slab is read wholesale, padding included.
  const std::uint64_t slots = width * nrows;
  ctx.launch_n(nrows,
               gpu_sim::LaunchStats{
                   2 * slots, slots * (sizeof(Index) + 2 * sizeof(T)),
                   nrows * sizeof(T)},
               [=](std::size_t i) {
                 T acc{};
                 for (Index s = 0; s < width; ++s) {
                   const Index col = c[s * nrows + i];
                   if (col != Ell<T>::kPad) acc += v[s * nrows + i] * px[col];
                 }
                 py[i] = acc;
               });
  return dy.to_host();
}

/// HYB: the ELL kernel over the bounded slab plus the COO atomic tail —
/// two launches, the CUSP approach. The slab is width-capped, so the
/// padded traffic stays proportional to the mean degree even on power-law
/// inputs (the fix for pure ELL's collapse).
template <typename T>
std::vector<T> spmv_device(const Hyb<T>& a, const std::vector<T>& x,
                           gpu_sim::Context& ctx) {
  // ELL part.
  gpu_sim::device_vector<Index> cols(a.ell.col_indices, ctx);
  gpu_sim::device_vector<T> vals(a.ell.values, ctx);
  gpu_sim::device_vector<T> dx(x, ctx);
  gpu_sim::device_vector<T> dy(a.nrows(), ctx);
  const Index* c = cols.data();
  const T* v = vals.data();
  const T* px = dx.data();
  T* py = dy.data();
  const Index nrows = a.nrows();
  const Index width = a.ell.width;
  const std::uint64_t slots = width * nrows;
  ctx.launch_n(nrows,
               gpu_sim::LaunchStats{
                   2 * slots, slots * (sizeof(Index) + 2 * sizeof(T)),
                   nrows * sizeof(T)},
               [=](std::size_t i) {
                 T acc{};
                 for (Index s = 0; s < width; ++s) {
                   const Index col = c[s * nrows + i];
                   if (col != Ell<T>::kPad) acc += v[s * nrows + i] * px[col];
                 }
                 py[i] = acc;
               });

  // COO tail with atomic adds.
  const std::uint64_t tail_nnz = a.tail.nnz();
  if (tail_nnz > 0) {
    gpu_sim::device_vector<Index> trow(a.tail.row, ctx);
    gpu_sim::device_vector<Index> tcol(a.tail.col, ctx);
    gpu_sim::device_vector<T> tval(a.tail.val, ctx);
    const Index* r = trow.data();
    const Index* tc = tcol.data();
    const T* tv = tval.data();
    gpu_sim::LaunchStats stats{
        8 * tail_nnz, tail_nnz * (2 * sizeof(Index) + 2 * sizeof(T)),
        tail_nnz * sizeof(T)};
    ctx.launch(gpu_sim::Dim3{1}, gpu_sim::Dim3{1}, stats,
               [&](const gpu_sim::ThreadId&) {
                 for (Index k = 0; k < tail_nnz; ++k)
                   py[r[k]] += tv[k] * px[tc[k]];
               });
  }
  return dy.to_host();
}

}  // namespace sparse
