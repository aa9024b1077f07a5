#pragma once

/// @file backend_gpu/sharded_ops.hpp
/// Operation entry points of the GpuShard backend (namespace
/// grb::gpu_shard). Three tiers:
///
///  1. mxv / vxm — genuinely sharded: the op walks the row blocks in plan
///     order, broadcasts each shard's slice of the input vector (the halo)
///     to that shard's context on its transfer stream while the previous
///     shard's kernel is still running, gathers per-shard outputs back to
///     the home device, and hands the full unmasked T̃ to the shared
///     pipeline::write_vector epilogue — so mask/accum/replace semantics
///     are byte-for-byte the single-device ones. Shards resident on the
///     home context compute in place: no self-halo, no staging, keeping
///     the home arena free for the op working set.
///  2. pure vector ops — re-exported from gpu_backend unchanged (GpuShard
///     vectors ARE gpu_backend vectors on the home context, composite-launch
///     chains and all).
///  3. the long matrix-op tail (mxm, apply_mat, kronecker, ...) — delegated
///     to the single-device pipelines through the matrix's monolithic
///     home() view, with the host CSR re-synced afterwards. These ops have
///     no sharded path, which is why oversized-graph serving is restricted
///     to algorithms that only need tiers 1+2 (bfs / sssp / cc).
///
/// Bit-exactness. Under the row-block partition every output row of mxv is
/// computed whole inside one shard with the monolithic kernel's ascending-k
/// zero-seeded fold, so per-shard results concatenate exactly. vxm is the
/// subtle one: the push scatter stores the FIRST product into t directly
/// (not folded into sem.zero()), so pre-folding per-shard partials and
/// merging them would re-associate floating-point adds. Instead each shard
/// emits its raw (column, product) pairs in emission order and the home
/// context left-folds them shard-by-shard in plan order — reproducing the
/// monolithic scatter's combination order product for product.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "backend_gpu/matrix.hpp"
#include "backend_gpu/ops.hpp"
#include "backend_gpu/sharded_matrix.hpp"
#include "backend_gpu/vector.hpp"
#include "gbtl/types.hpp"
#include "gbtl/write_rules.hpp"
#include "gpu_sim/context.hpp"
#include "gpu_sim/device_properties.hpp"
#include "gpu_sim/placement.hpp"
#include "sparse/output_pipeline.hpp"
#include "sparse/shard_plan.hpp"

namespace grb::gpu_shard {

using gpu_backend::Matrix;
using gpu_backend::ShardedMatrix;
using gpu_backend::Vector;

namespace detail {

using gpu_sim::LaunchStats;

/// Cross-device halo-exchange timeline, accumulated per sharded op. The
/// per-shard contexts each keep honest stream timelines (uploads ride their
/// transfer streams, kernels their compute streams), but those clocks are
/// not comparable across contexts — so the op also tracks one op-local
/// timeline: uploads serialize on the shared host link; a shard's kernel
/// starts when its upload lands and its context's previous kernel is done;
/// and every second an upload spends underneath an earlier shard's running
/// kernel is exchange time hidden by the pipeline.
class HaloTimeline {
 public:
  /// Account one shard's exchange+compute leg. @p up_s is the modeled
  /// duration of its halo transfers, @p kernel_s of its kernel.
  void add_shard(gpu_sim::Context* ctx, double up_s, double kernel_s) {
    const double up_start = up_end_;
    up_end_ = up_start + up_s;
    // Hidden = overlap of this upload with already-running kernels.
    for (const auto& [k_start, k_end] : kernels_) {
      const double lo = std::max(up_start, k_start);
      const double hi = std::min(up_end_, k_end);
      if (hi > lo) hidden_ += hi - lo;
    }
    double k_start = up_end_;
    for (const auto& [c, k_end] : ctx_busy_until_)
      if (c == ctx) k_start = std::max(k_start, k_end);
    const double k_end = k_start + kernel_s;
    kernels_.emplace_back(k_start, k_end);
    bool found = false;
    for (auto& [c, busy] : ctx_busy_until_)
      if (c == ctx) {
        busy = k_end;
        found = true;
      }
    if (!found) ctx_busy_until_.emplace_back(ctx, k_end);
  }

  double hidden_s() const { return hidden_; }

 private:
  double up_end_ = 0.0;
  double hidden_ = 0.0;
  std::vector<std::pair<double, double>> kernels_;
  std::vector<std::pair<gpu_sim::Context*, double>> ctx_busy_until_;
};

/// Lowering helpers for the delegated tier: ShardedMatrix operands become
/// their monolithic home views, sharded matrix masks are re-described over
/// the mask's home view, everything else passes through untouched. The
/// pass-through is constrained rather than a plain catch-all: an unconstrained
/// `X&&` would beat the const& overloads for non-const and rvalue sharded
/// operands (less cv-qualified reference binding) and leak ShardedMatrix
/// straight into the single-device pipelines.
template <typename X>
struct is_sharded_operand : std::false_type {};
template <typename T>
struct is_sharded_operand<ShardedMatrix<T>> : std::true_type {};
template <typename MT>
struct is_sharded_operand<OutputDescriptor<ShardedMatrix<MT>>>
    : std::true_type {};

template <typename T>
const Matrix<T>& lower(const ShardedMatrix<T>& m) {
  return m.home();
}

template <typename MT>
OutputDescriptor<Matrix<MT>> lower(
    const OutputDescriptor<ShardedMatrix<MT>>& out) {
  const Matrix<MT>* mask =
      out.mask.mask != nullptr ? &out.mask.mask->home() : nullptr;
  return {{mask, out.mask.complement, out.mask.structural}, out.replace};
}

template <typename X>
  requires(!is_sharded_operand<std::remove_cvref_t<X>>::value)
decltype(auto) lower(X&& x) {
  return std::forward<X>(x);
}

}  // namespace detail

// ===========================================================================
// Tier 2: pure vector ops — the single-device implementations verbatim.
// ===========================================================================

using gpu_backend::apply_indexed_vec;
using gpu_backend::apply_vec;
using gpu_backend::assign_vec;
using gpu_backend::assign_vec_constant;
using gpu_backend::ewise_add_vec;
using gpu_backend::ewise_mult_vec;
using gpu_backend::extract_vec;
using gpu_backend::reduce_vec_to_scalar;
using gpu_backend::select_vec;

// ===========================================================================
// Tier 1: sharded mxv
// ===========================================================================

template <typename WT, typename MObj, typename Accum, typename SR,
          typename AT, typename UT>
void mxv(Vector<WT>& w, const OutputDescriptor<MObj>& out, Accum accum, SR sr,
         const ShardedMatrix<AT>& A, const Vector<UT>& u) {
  // A barrier on the home context: no halo leg is credited overlap with
  // kernels issued before this op.
  w.context().align_streams();
  const auto& shards = A.shards();
  if (shards.size() <= 1) {
    // Single-shard passthrough: the exact GpuSim pipeline (adaptive kernel
    // selection, direction engine, chain rule) on the home view.
    gpu_backend::mxv(w, out, accum, sr, A.home(), u);
    return;
  }

  using detail::LaunchStats;
  using ZT = typename SR::result_type;
  gpu_sim::Context& home = w.context();
  const IndexType n = A.nrows();
  const std::uint64_t idx = sizeof(IndexType);

  gpu_sim::device_vector<ZT> t_vals(n, home);
  gpu_sim::device_vector<std::uint8_t> t_pres(n, home);
  gpu_sim::fill(t_pres, std::uint8_t{0});

  const UT* uv = u.values().data();
  const std::uint8_t* up = u.present().data();
  ZT* tv = t_vals.data();
  std::uint8_t* tp = t_pres.data();
  const SR sem = sr;

  detail::HaloTimeline timeline;
  std::uint64_t halo_bytes = 0;
  const std::size_t home_ts = home.transfer_stream();

  for (const auto& sv : shards) {
    if (!sv.mat || sv.meta.nnz == 0) continue;  // rows stay absent in T̃
    gpu_sim::Context& sc = *sv.ctx;
    const IndexType r0 = sv.meta.row_begin;
    const IndexType rows = sv.meta.rows();
    const IndexType c0 = sv.meta.col_begin;
    const IndexType hc = sv.meta.halo_cols();
    const std::uint64_t snnz = sv.meta.nnz;

    if (&sc == &home) {
      // Home-resident shard: its slice and the input vector share a device,
      // so there is no halo to exchange — the kernel reads u and writes its
      // T̃ rows in place. Besides skipping the self-broadcast, this keeps
      // the home arena free of staging buffers, which matters because home
      // also holds the op working set the other contexts don't carry.
      const IndexType* soffs = sv.mat->row_offsets().data();
      const IndexType* scols = sv.mat->col_indices().data();
      const AT* savals = sv.mat->values().data();
      ZT* stv = tv + r0;
      std::uint8_t* stp = tp + r0;
      const std::uint64_t entry = idx + sizeof(AT) + sizeof(UT) + 1;
      const double k_before = sc.stats().simulated_kernel_time_s;
      sc.launch_n(rows,
                  LaunchStats{2 * snnz, snnz * entry + (rows + 1) * idx,
                              rows * (sizeof(ZT) + 1)},
                  [=](std::size_t i) {
                    ZT acc = sem.zero();
                    bool any = false;
                    for (IndexType k = soffs[i]; k < soffs[i + 1]; ++k) {
                      const IndexType c = scols[k];
                      if (up[c]) {
                        acc = sem.add(acc, sem.mult(savals[k], uv[c]));
                        any = true;
                      }
                    }
                    if (any) {
                      stv[i] = acc;
                      stp[i] = 1;
                    }
                  });
      timeline.add_shard(&sc, 0.0,
                         sc.stats().simulated_kernel_time_s - k_before);
      continue;
    }

    // --- Halo broadcast: u[c0, c1) values+presence, home -> host staging
    // -> shard, each leg on its context's transfer stream so the copy rides
    // under whatever kernel is running.
    const std::size_t in_bytes = hc * (sizeof(UT) + 1);
    const std::unique_ptr<UT[]> h_uv(new UT[hc]);
    std::vector<std::uint8_t> h_up(hc);
    home.copy_d2h_async(h_uv.get(), uv + c0, hc * sizeof(UT), home_ts);
    home.copy_d2h_async(h_up.data(), up + c0, hc, home_ts);
    gpu_sim::device_vector<UT> d_uv(hc, sc);
    gpu_sim::device_vector<std::uint8_t> d_up(hc, sc);
    const std::size_t sc_ts = sc.transfer_stream();
    sc.copy_h2d_async(d_uv.data(), h_uv.get(), hc * sizeof(UT), sc_ts);
    sc.copy_h2d_async(d_up.data(), h_up.data(), hc, sc_ts);
    sc.stream_wait(0, sc.stream_clock_s(sc_ts));  // kernel waits for halo
    halo_bytes += 2 * in_bytes;

    // --- Per-shard row-parallel gather: the monolithic CSR kernel's
    // ascending-k zero-seeded fold, rows renumbered to the block, columns
    // offset into the halo slice. Each output row is computed whole here,
    // so concatenation is bit-exact.
    gpu_sim::device_vector<ZT> s_vals(rows, sc);
    gpu_sim::device_vector<std::uint8_t> s_pres(rows, sc);
    gpu_sim::fill(s_pres, std::uint8_t{0});
    const IndexType* soffs = sv.mat->row_offsets().data();
    const IndexType* scols = sv.mat->col_indices().data();
    const AT* savals = sv.mat->values().data();
    const UT* huv = d_uv.data();
    const std::uint8_t* hup = d_up.data();
    ZT* stv = s_vals.data();
    std::uint8_t* stp = s_pres.data();
    const std::uint64_t entry = idx + sizeof(AT) + sizeof(UT) + 1;
    const double k_before = sc.stats().simulated_kernel_time_s;
    sc.launch_n(rows,
                LaunchStats{2 * snnz, snnz * entry + (rows + 1) * idx,
                            rows * (sizeof(ZT) + 1)},
                [=](std::size_t i) {
                  ZT acc = sem.zero();
                  bool any = false;
                  for (IndexType k = soffs[i]; k < soffs[i + 1]; ++k) {
                    const IndexType lc = scols[k] - c0;
                    if (hup[lc]) {
                      acc = sem.add(acc, sem.mult(savals[k], huv[lc]));
                      any = true;
                    }
                  }
                  if (any) {
                    stv[i] = acc;
                    stp[i] = 1;
                  }
                });
    const double kernel_s = sc.stats().simulated_kernel_time_s - k_before;

    // --- Gather the block's output rows back to the home T̃ slice.
    const std::size_t out_bytes = rows * (sizeof(ZT) + 1);
    sc.stream_wait(sc_ts, sc.stream_clock_s(0));  // download after kernel
    const std::unique_ptr<ZT[]> h_tv(new ZT[rows]);
    std::vector<std::uint8_t> h_tp(rows);
    sc.copy_d2h_async(h_tv.get(), stv, rows * sizeof(ZT), sc_ts);
    sc.copy_d2h_async(h_tp.data(), stp, rows, sc_ts);
    home.copy_h2d_async(tv + r0, h_tv.get(), rows * sizeof(ZT), home_ts);
    home.copy_h2d_async(tp + r0, h_tp.data(), rows, home_ts);
    halo_bytes += 2 * out_bytes;

    const auto& hp = home.properties();
    const auto& sp = sc.properties();
    timeline.add_shard(&sc,
                       gpu_sim::modeled_transfer_time(hp, in_bytes) +
                           gpu_sim::modeled_transfer_time(sp, in_bytes),
                       kernel_s);
  }

  // The epilogue reads T̃ on the compute stream; make it wait for the last
  // returned block.
  home.stream_wait(0, home.stream_clock_s(home_ts));
  home.raise(&gpu_sim::DeviceStats::shards_active, shards.size(),
             &gpu_sim::DeviceStats::halo_bytes_exchanged, halo_bytes,
             &gpu_sim::DeviceStats::halo_seconds_hidden, timeline.hidden_s());

  pipeline::write_vector(w, t_vals, t_pres, out, accum);
}

// ===========================================================================
// Tier 1: sharded vxm
// ===========================================================================

template <typename WT, typename MObj, typename Accum, typename SR,
          typename UT, typename AT>
void vxm(Vector<WT>& w, const OutputDescriptor<MObj>& out, Accum accum, SR sr,
         const Vector<UT>& u, const ShardedMatrix<AT>& A) {
  // A barrier on the home context: no halo leg is credited overlap with
  // kernels issued before this op.
  w.context().align_streams();
  const auto& shards = A.shards();
  if (shards.size() <= 1) {
    gpu_backend::vxm(w, out, accum, sr, u, A.home());
    return;
  }

  using detail::LaunchStats;
  using ZT = typename SR::result_type;
  gpu_sim::Context& home = w.context();
  const std::uint64_t idx = sizeof(IndexType);

  gpu_sim::device_vector<ZT> t_vals(w.size(), home);
  gpu_sim::device_vector<std::uint8_t> t_pres(w.size(), home);
  gpu_sim::fill(t_pres, std::uint8_t{0});

  const UT* uv = u.values().data();
  ZT* tv = t_vals.data();
  std::uint8_t* tp = t_pres.data();
  const SR sem = sr;

  // Sparse frontier on the home vector (cached compaction, ascending).
  const auto& frontier = u.sparse_indices();
  const IndexType frontier_rows = static_cast<IndexType>(frontier.size());
  const IndexType* fidx = frontier.data();

  detail::HaloTimeline timeline;
  std::uint64_t halo_bytes = 0;
  const std::size_t home_ts = home.transfer_stream();

  // Home-side merge staging, fixed size: the pair return is folded into T̃
  // in bounded chunks so the home context's transient footprint stays O(1)
  // in shard nnz. This matters precisely in the oversized regime sharding
  // exists for — home must hold its own row-block slice, the op's vectors,
  // AND this staging at the same time, inside an arena the whole graph
  // already does not fit.
  constexpr std::uint64_t kMergeChunk = 256;
  gpu_sim::device_vector<IndexType> m_j(kMergeChunk, home);
  gpu_sim::device_vector<ZT> m_v(kMergeChunk, home);
  IndexType* const mj = m_j.data();
  ZT* const mv = m_v.data();

  for (const auto& sv : shards) {
    if (!sv.mat || sv.meta.nnz == 0) continue;
    gpu_sim::Context& sc = *sv.ctx;
    const IndexType r0 = sv.meta.row_begin;
    const IndexType r1 = sv.meta.row_end;

    // Frontier slice owned by this row block (frontier is sorted).
    const IndexType* f_lo = std::lower_bound(fidx, fidx + frontier_rows, r0);
    const IndexType* f_hi = std::lower_bound(f_lo, fidx + frontier_rows, r1);
    const IndexType fcount = static_cast<IndexType>(f_hi - f_lo);
    if (fcount == 0) continue;
    const IndexType f_off = static_cast<IndexType>(f_lo - fidx);

    const IndexType* soffs = sv.mat->row_offsets().data();

    if (&sc == &home) {
      // Home-resident shard: scatter straight into T̃ — no pack, no
      // self-halo, no pair staging. The combination order is untouched:
      // this shard's products are exactly the monolithic scatter's leading
      // run for these frontier rows (ascending frontier, ascending q), and
      // direct first-store/left-fold reproduces it product for product.
      const IndexType* scols = sv.mat->col_indices().data();
      const AT* savals = sv.mat->values().data();
      std::uint64_t ecount = 0;
      for (const IndexType* p = f_lo; p != f_hi; ++p) {
        const IndexType lr = *p - r0;
        ecount += soffs[lr + 1] - soffs[lr];
      }
      sc.account_kernel(LaunchStats{fcount, fcount * 3 * idx, 64});
      if (ecount == 0) continue;
      const IndexType* f = fidx;
      const double k_before = sc.stats().simulated_kernel_time_s;
      gpu_backend::detail::serial_kernel(
          sc,
          LaunchStats{2 * ecount,
                      fcount * (3 * idx + sizeof(UT)) +
                          ecount * (idx + sizeof(AT)),
                      ecount * (sizeof(ZT) + 1)},
          [&] {
            for (IndexType p = 0; p < fcount; ++p) {
              const IndexType r = f[f_off + p];
              const IndexType lr = r - r0;
              const UT uval = uv[r];
              for (IndexType q = soffs[lr]; q < soffs[lr + 1]; ++q) {
                const IndexType j = scols[q];
                const ZT prod = sem.mult(uval, savals[q]);
                if (tp[j]) {
                  tv[j] = sem.add(tv[j], prod);
                } else {
                  tv[j] = prod;
                  tp[j] = 1;
                }
              }
            }
          });
      timeline.add_shard(&sc, 0.0,
                         sc.stats().simulated_kernel_time_s - k_before);
      continue;
    }

    // --- Halo broadcast: pack (local frontier row, u value) pairs on the
    // home device, then ship them host -> shard on the transfer streams.
    gpu_sim::device_vector<IndexType> pk_rows(fcount, home);
    gpu_sim::device_vector<UT> pk_vals(fcount, home);
    {
      IndexType* pr = pk_rows.data();
      UT* pvv = pk_vals.data();
      const IndexType* f = fidx;
      const UT* uvp = uv;
      home.launch_n(fcount,
                    LaunchStats{2 * fcount,
                                fcount * (idx + sizeof(UT)),
                                fcount * (idx + sizeof(UT))},
                    [=](std::size_t p) {
                      pr[p] = f[f_off + p] - r0;
                      pvv[p] = uvp[f[f_off + p]];
                    });
    }
    const std::size_t in_bytes = fcount * (idx + sizeof(UT));
    std::vector<IndexType> h_f(fcount);
    const std::unique_ptr<UT[]> h_uv(new UT[fcount]);
    home.copy_d2h_async(h_f.data(), pk_rows.data(), fcount * idx, home_ts);
    home.copy_d2h_async(h_uv.get(), pk_vals.data(), fcount * sizeof(UT),
                        home_ts);
    gpu_sim::device_vector<IndexType> d_f(fcount, sc);
    gpu_sim::device_vector<UT> d_uv(fcount, sc);
    const std::size_t sc_ts = sc.transfer_stream();
    sc.copy_h2d_async(d_f.data(), h_f.data(), fcount * idx, sc_ts);
    sc.copy_h2d_async(d_uv.data(), h_uv.get(), fcount * sizeof(UT), sc_ts);
    sc.stream_wait(0, sc.stream_clock_s(sc_ts));
    halo_bytes += 2 * in_bytes;

    // Emission count: flat out-edges of the shard-local frontier.
    std::uint64_t ecount = 0;
    for (IndexType p = 0; p < fcount; ++p) {
      const IndexType lr = h_f[p];
      ecount += soffs[lr + 1] - soffs[lr];
    }
    sc.account_kernel(LaunchStats{fcount, fcount * 3 * idx, 64});
    if (ecount == 0) continue;

    // --- Per-shard scatter, de-fanged: instead of folding into a local t
    // (which would re-associate the monolithic first-store-direct order),
    // emit the raw (column, product) pairs in scatter order.
    gpu_sim::device_vector<IndexType> pair_j(ecount, sc);
    gpu_sim::device_vector<ZT> pair_v(ecount, sc);
    const IndexType* scols = sv.mat->col_indices().data();
    const AT* savals = sv.mat->values().data();
    const IndexType* sfr = d_f.data();
    const UT* suv = d_uv.data();
    IndexType* pj = pair_j.data();
    ZT* pv = pair_v.data();
    const double k_before = sc.stats().simulated_kernel_time_s;
    gpu_backend::detail::serial_kernel(
        sc,
        LaunchStats{2 * ecount,
                    fcount * (3 * idx + sizeof(UT)) +
                        ecount * (idx + sizeof(AT)),
                    ecount * (idx + sizeof(ZT))},
        [&] {
          std::uint64_t e = 0;
          for (IndexType p = 0; p < fcount; ++p) {
            const IndexType lr = sfr[p];
            const UT uval = suv[p];
            for (IndexType q = soffs[lr]; q < soffs[lr + 1]; ++q) {
              pj[e] = scols[q];
              pv[e] = sem.mult(uval, savals[q]);
              ++e;
            }
          }
        });
    const double kernel_s = sc.stats().simulated_kernel_time_s - k_before;

    // --- Return the pair list and left-fold it into T̃ on the home device,
    // in plan order: first product lands direct, later ones fold — the
    // monolithic scatter's exact combination order.
    const std::size_t out_bytes = ecount * (idx + sizeof(ZT));
    sc.stream_wait(sc_ts, sc.stream_clock_s(0));
    std::vector<IndexType> h_pj(ecount);
    const std::unique_ptr<ZT[]> h_pv(new ZT[ecount]);
    sc.copy_d2h_async(h_pj.data(), pj, ecount * idx, sc_ts);
    sc.copy_d2h_async(h_pv.get(), pv, ecount * sizeof(ZT), sc_ts);
    halo_bytes += 2 * out_bytes;
    for (std::uint64_t base = 0; base < ecount; base += kMergeChunk) {
      const std::uint64_t len =
          std::min<std::uint64_t>(kMergeChunk, ecount - base);
      home.copy_h2d_async(mj, h_pj.data() + base, len * idx, home_ts);
      home.copy_h2d_async(mv, h_pv.get() + base, len * sizeof(ZT), home_ts);
      home.stream_wait(0, home.stream_clock_s(home_ts));
      // Chunks arrive in emission order, so the left-fold below still
      // combines products in the monolithic scatter's exact order.
      gpu_backend::detail::serial_kernel(
          home,
          LaunchStats{2 * len, len * (idx + sizeof(ZT) + 1),
                      len * (sizeof(ZT) + 1)},
          [&] {
            for (std::uint64_t e = 0; e < len; ++e) {
              const IndexType j = mj[e];
              if (tp[j]) {
                tv[j] = sem.add(tv[j], mv[e]);
              } else {
                tv[j] = mv[e];
                tp[j] = 1;
              }
            }
          });
    }

    const auto& hp = home.properties();
    const auto& sp = sc.properties();
    timeline.add_shard(&sc,
                       gpu_sim::modeled_transfer_time(hp, in_bytes) +
                           gpu_sim::modeled_transfer_time(sp, in_bytes),
                       kernel_s);
  }

  home.stream_wait(0, home.stream_clock_s(home_ts));
  home.raise(&gpu_sim::DeviceStats::shards_active, shards.size(),
             &gpu_sim::DeviceStats::halo_bytes_exchanged, halo_bytes,
             &gpu_sim::DeviceStats::halo_seconds_hidden, timeline.hidden_s());

  pipeline::write_vector(w, t_vals, t_pres, out, accum);
}

// ===========================================================================
// Tier 3: delegated matrix ops (monolithic home view, host CSR re-synced)
// ===========================================================================

#define GBTL_SHARD_MAT_OUT(op_name)                                        \
  template <typename CT, typename... Rest>                                 \
  void op_name(ShardedMatrix<CT>& C, Rest&&... rest) {                     \
    {                                                                      \
      gpu_sim::ScopedDevice bind_home(C.context());                        \
      gpu_backend::op_name(C.mutable_home(),                               \
                           detail::lower(std::forward<Rest>(rest))...);    \
    }                                                                      \
    C.sync_host_from_home();                                               \
  }

GBTL_SHARD_MAT_OUT(mxm)
GBTL_SHARD_MAT_OUT(ewise_add_mat)
GBTL_SHARD_MAT_OUT(ewise_mult_mat)
GBTL_SHARD_MAT_OUT(apply_mat)
GBTL_SHARD_MAT_OUT(apply_indexed_mat)
GBTL_SHARD_MAT_OUT(transpose_op)
GBTL_SHARD_MAT_OUT(extract_mat)
GBTL_SHARD_MAT_OUT(assign_mat)
GBTL_SHARD_MAT_OUT(assign_mat_constant)
GBTL_SHARD_MAT_OUT(kronecker)
GBTL_SHARD_MAT_OUT(select_mat)

#undef GBTL_SHARD_MAT_OUT

template <typename WT, typename MObj, typename Accum, typename Monoid,
          typename AT>
void reduce_mat_to_vec(Vector<WT>& w, const OutputDescriptor<MObj>& out,
                       Accum accum, Monoid monoid,
                       const ShardedMatrix<AT>& A) {
  gpu_backend::reduce_mat_to_vec(w, out, accum, monoid, A.home());
}

template <typename ST, typename Accum, typename Monoid, typename AT>
void reduce_mat_to_scalar(ST& s, Accum accum, Monoid monoid,
                          const ShardedMatrix<AT>& A) {
  gpu_backend::reduce_mat_to_scalar(s, accum, monoid, A.home());
}

template <typename WT, typename MObj, typename Accum, typename AT>
void extract_col(Vector<WT>& w, const OutputDescriptor<MObj>& out,
                 Accum accum, const ShardedMatrix<AT>& A,
                 IndexView row_indices, IndexType col) {
  gpu_backend::extract_col(w, out, accum, A.home(), row_indices, col);
}

/// Materialized transpose — a pure host-CSR permutation (tuples re-sorted
/// column-major), so it never needs a monolithic device image and stays
/// legal for oversized graphs.
template <typename T>
ShardedMatrix<T> transposed(const ShardedMatrix<T>& A) {
  IndexArrayType r, c;
  std::vector<T> v;
  A.extract_tuples(r, c, v);
  ShardedMatrix<T> At(A.ncols(), A.nrows());
  At.build(c, r, v.begin(), static_cast<IndexType>(v.size()),
           [](const T&, const T& b) { return b; });
  return At;
}

}  // namespace grb::gpu_shard
