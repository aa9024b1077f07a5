#pragma once

/// @file backend_gpu/ops.hpp
/// GPU-backend implementations of the GraphBLAS operations as simulated
/// device pipelines, mirroring how the paper's CUDA backend composed
/// Thrust/CUSP primitives:
///   - mxm is an adaptive SpGEMM engine (sparse/spgemm_select.hpp): ESC
///     (Expansion, Sorting, Contraction) with an optional pre-sort mask
///     filter (the masked early-exit of Abl. B), or a row-wise
///     hash-Gustavson accumulate with mask-seeded tables, chosen per call
///     from the symbolic pass's compression/skew summary;
///   - mxv is a row-parallel CSR SpMV kernel;
///   - vxm is an atomic-scatter push kernel (simulated serially, modeled at
///     full throughput);
///   - element-wise ops and matrix select are search+compact pipelines over
///     sorted COO keys;
///   - rare structural ops (extract/assign on matrices, kronecker) fall back
///     to the host with fully accounted transfers — the documented
///     GBTL-CUDA practice for operations without device kernels.

#include <algorithm>
#include <type_traits>
#include <vector>

#include "backend_gpu/bit_ops.hpp"
#include "backend_gpu/matrix.hpp"
#include "backend_gpu/vector.hpp"
#include "backend_sequential/ops.hpp"
#include "gbtl/algebra.hpp"
#include "gbtl/mask.hpp"
#include "gbtl/types.hpp"
#include "gbtl/write_rules.hpp"
#include "gpu_sim/algorithms.hpp"
#include "sparse/fusion_plan.hpp"
#include "sparse/output_pipeline.hpp"
#include "sparse/spgemm_select.hpp"
#include "sparse/spmv_select.hpp"

namespace grb::gpu_backend {

namespace detail {

using gpu_sim::Context;
using gpu_sim::device_vector;
using gpu_sim::Dim3;
using gpu_sim::LaunchStats;

/// Run a body as a single-thread kernel: the stand-in for kernels whose
/// real-CUDA form relies on atomics or merge-path partitioning that the
/// functional simulation runs serially. The declared stats still model the
/// parallel device cost.
template <typename Body>
void serial_kernel(Context& ctx, const LaunchStats& stats, Body&& body) {
  ctx.launch(Dim3{1}, Dim3{1}, stats,
             [&](const gpu_sim::ThreadId&) { body(); });
}

// Mask plumbing, COO key expansion, and the masked-accumulate write-back
// epilogues all live in the shared output pipeline (grb::pipeline in
// sparse/output_pipeline.hpp); the op bodies below only compute T̃.

// --------------------------------------------------------------------------
// Host fallback plumbing (for ops without device pipelines)
// --------------------------------------------------------------------------

template <typename T>
seq_backend::Matrix<T> download(const Matrix<T>& A) {
  seq_backend::Matrix<T> out(A.nrows(), A.ncols());
  IndexArrayType r, c;
  std::vector<T> v;
  A.extract_tuples(r, c, v);  // accounted D2H
  out.build(r, c, v.begin(), static_cast<IndexType>(v.size()),
            [](const T&, const T& b) { return b; });
  return out;
}

template <typename T>
void upload(Matrix<T>& dst, const seq_backend::Matrix<T>& src) {
  IndexArrayType r, c;
  std::vector<T> v;
  src.extract_tuples(r, c, v);
  dst.build(r, c, v.begin(), static_cast<IndexType>(v.size()),
            [](const T&, const T& b) { return b; });  // accounted H2D
}

template <typename T>
seq_backend::Vector<T> download(const Vector<T>& u) {
  seq_backend::Vector<T> out(u.size());
  IndexArrayType idx;
  std::vector<T> v;
  u.extract_tuples(idx, v);
  out.build(idx, v.begin(), static_cast<IndexType>(v.size()),
            [](const T&, const T& b) { return b; });
  return out;
}

template <typename T>
void upload(Vector<T>& dst, const seq_backend::Vector<T>& src) {
  IndexArrayType idx;
  std::vector<T> v;
  src.extract_tuples(idx, v);
  dst.clear();
  dst.build(idx, v.begin(), static_cast<IndexType>(v.size()),
            [](const T&, const T& b) { return b; });
}

/// Lower a GPU output descriptor to a sequential one for fallback
/// execution: the (matrix) mask is downloaded to the host, the
/// complement/structural/replace flags carry over unchanged.
template <typename MObj, typename Fn>
decltype(auto) with_seq_output(const OutputDescriptor<MObj>& out, Fn&& fn) {
  if constexpr (std::is_same_v<MObj, EmptyMaskObj>) {
    return fn(NoMaskOutputDesc{{}, out.replace});
  } else {
    using MV = typename MObj::ScalarType;
    if (out.mask.mask == nullptr) return fn(NoMaskOutputDesc{{}, out.replace});
    seq_backend::Matrix<MV> host_mask = download(*out.mask.mask);
    OutputDescriptor<seq_backend::Matrix<MV>> desc{
        {&host_mask, out.mask.complement, out.mask.structural}, out.replace};
    return fn(desc);
  }
}

// --------------------------------------------------------------------------
// Composite-launch chains (sparse/fusion_plan.hpp)
// --------------------------------------------------------------------------
//
// Each vector op in the legality table opens a sparse::FusedOpScope at the
// top of its body, after its bounds checks, naming what it writes and
// reads. Every other op is charged as it runs.

/// Container address of a vector/matrix mask for the chain rule's
/// dependency test (nullptr when unmasked).
template <typename MObj>
const void* mask_addr(const OutputDescriptor<MObj>& out) {
  if constexpr (std::is_same_v<MObj, EmptyMaskObj>)
    return nullptr;
  else
    return static_cast<const void*>(out.mask.mask);
}

}  // namespace detail

// ===========================================================================
// mxm — adaptive SpGEMM: ESC (expansion / sorting / contraction) vs.
// row-wise hash-Gustavson, selected per call by sparse/spgemm_select.hpp
// ===========================================================================

namespace detail {

/// ESC numeric phase: materialize every (key, product) pair, optionally
/// pre-filter against a non-complemented mask before paying for the sort
/// (the masked early-exit of Abl. B), then radix-sort and contract.
template <typename ZT, typename MObj, typename SR, typename AT, typename BT,
          typename AMat, typename BMat>
void mxm_esc(Context& ctx, const AMat& A, const BMat& B, IndexType c_ncols,
             const OutputDescriptor<MObj>& out, SR sr,
             const device_vector<IndexType>& expand_offsets,
             IndexType total_products, device_vector<IndexType>& u_keys,
             device_vector<ZT>& u_vals) {
  const IndexType nnz_a = A.nvals();

  // --- Expansion: emit (key, product) pairs. ------------------------------
  device_vector<IndexType> keys(total_products, ctx);
  device_vector<ZT> vals(total_products, ctx);
  {
    auto a_keys = pipeline::coo_keys(A);
    const IndexType* ak = a_keys.data();
    const AT* avals = A.values().data();
    const IndexType* acols = A.col_indices().data();
    const IndexType* boffs = B.row_offsets().data();
    const IndexType* bcols = B.col_indices().data();
    const BT* bvals = B.values().data();
    const IndexType* eoffs = expand_offsets.data();
    IndexType* ok = keys.data();
    ZT* ov = vals.data();
    const IndexType a_ncols = A.ncols();
    const SR sem = sr;
    const std::uint64_t traffic =
        total_products * (sizeof(IndexType) + sizeof(ZT) + sizeof(BT)) +
        nnz_a * (2 * sizeof(IndexType) + sizeof(AT));
    ctx.launch_n(nnz_a, LaunchStats{2 * total_products, traffic,
                                    total_products *
                                        (sizeof(IndexType) + sizeof(ZT))},
                 [=](std::size_t p) {
                   const IndexType i = ak[p] / a_ncols;
                   const IndexType k = acols[p];
                   const AT av = avals[p];
                   IndexType slot = eoffs[p];
                   for (IndexType q = boffs[k]; q < boffs[k + 1]; ++q) {
                     ok[slot] = i * c_ncols + bcols[q];
                     ov[slot] = sem.mult(av, bvals[q]);
                     ++slot;
                   }
                 });
  }

  // --- Masked early exit (Abl. B): drop products outside the mask before
  // paying for the sort. Only valid for non-complemented masks.
  if constexpr (!std::is_same_v<MObj, EmptyMaskObj>) {
    if (out.mask.mask != nullptr && !out.mask.complement) {
      auto probe = pipeline::matrix_mask_probe(out.mask);
      device_vector<std::uint8_t> flags(total_products, ctx);
      const IndexType* kk = keys.data();
      std::uint8_t* fl = flags.data();
      // ~log(row nnz) search per product.
      ctx.launch_n(total_products,
                   LaunchStats{8 * total_products,
                               total_products * 8 * sizeof(IndexType),
                               total_products},
                   [=](std::size_t p) {
                     fl[p] = probe(kk[p] / c_ncols, kk[p] % c_ncols) ? 1 : 0;
                   });
      device_vector<IndexType> kept_keys(ctx);
      device_vector<ZT> kept_vals(ctx);
      const std::uint64_t kept =
          gpu_sim::copy_flagged(keys, flags, kept_keys);
      gpu_sim::copy_flagged(vals, flags, kept_vals);
      keys = std::move(kept_keys);
      vals = std::move(kept_vals);
      ctx.count(&gpu_sim::DeviceStats::spgemm_masked_products_avoided,
                total_products - kept);
    }
  }

  // --- Sorting + contraction. ---------------------------------------------
  gpu_sim::sort_by_key(keys, vals);
  const SR sem = sr;
  gpu_sim::reduce_by_key(keys, vals, u_keys, u_vals,
                         [sem](ZT a, ZT b) { return sem.add(a, b); });
}

/// Hash-Gustavson numeric phase: per output row an open-addressing table
/// sized by the symbolic pass absorbs the partial products as they are
/// produced — no materialized expansion, no sort. Rows are binned by FLOP
/// count (short / medium / long, long rows split into fixed-FLOP chunks
/// across virtual workers) so SIMT lockstep is charged per bin, not across
/// the whole skewed row distribution. Under a non-complemented mask the
/// tables are pre-seeded with the rows' allowed columns and a product whose
/// key is absent is dropped at probe time — disallowed entries are never
/// inserted.
///
/// Bit-exactness: products of one output slot arrive in ascending A-column
/// order (p ascending, then q ascending) and fold left with the first
/// product stored directly — the exact combination order of ESC's stable
/// sort + reduce_by_key, so the strategies agree bit-for-bit.
template <typename ZT, typename MObj, typename SR, typename AT, typename BT,
          typename AMat, typename BMat>
void mxm_hash(Context& ctx, const AMat& A, const BMat& B, IndexType c_ncols,
              const OutputDescriptor<MObj>& out, SR sr,
              const device_vector<IndexType>& row_flops,
              const device_vector<IndexType>& row_caps, bool seeded,
              device_vector<IndexType>& u_keys, device_vector<ZT>& u_vals) {
  const IndexType nrows = A.nrows();
  constexpr std::uint64_t kHashMult = 0x9E3779B97F4A7C15ull;
  const std::uint64_t slot_bytes = sizeof(IndexType) + sizeof(ZT) + 1;

  // --- Table sizing from the symbolic bounds. -----------------------------
  device_vector<IndexType> slot_counts(nrows, ctx);
  {
    const IndexType* rf = row_flops.data();
    const IndexType* rc = row_caps.data();
    IndexType* sc = slot_counts.data();
    ctx.launch_n(nrows,
                 LaunchStats{4 * nrows, 2 * nrows * sizeof(IndexType),
                             nrows * sizeof(IndexType)},
                 [=](std::size_t i) {
                   sc[i] = rf[i] > 0 ? sparse::hash_table_slots(rc[i]) : 0;
                 });
  }
  device_vector<IndexType> table_offsets(ctx);
  const IndexType total_slots =
      gpu_sim::exclusive_scan(slot_counts, table_offsets);

  device_vector<IndexType> tkeys(total_slots, ctx);
  device_vector<ZT> tvals(total_slots, ctx);
  // Slot state: 0 = empty, 1 = mask seed (no value yet), 2 = filled.
  device_vector<std::uint8_t> tstate(total_slots, ctx);
  gpu_sim::fill(tstate, std::uint8_t{0});

  const IndexType* sc = slot_counts.data();
  const IndexType* toffs = table_offsets.data();
  IndexType* tk = tkeys.data();
  ZT* tv = tvals.data();
  std::uint8_t* ts = tstate.data();

  // --- Mask seeding: insert each row's allowed columns as empty-valued
  // seeds. Seeds are distinct, so insertion always lands within cap probes.
  if constexpr (!std::is_same_v<MObj, EmptyMaskObj>) {
    if (seeded && out.mask.mask != nullptr) {
      using MV = typename MObj::ScalarType;
      const IndexType* moffs = out.mask.mask->row_offsets().data();
      const IndexType* mcols = out.mask.mask->col_indices().data();
      const MV* mvals = out.mask.mask->values().data();
      const bool structural = out.mask.structural;
      const IndexType m_nnz = out.mask.mask->nvals();
      ctx.launch_n(
          nrows,
          LaunchStats{2 * m_nnz,
                      nrows * 3 * sizeof(IndexType) +
                          m_nnz * (sizeof(IndexType) + sizeof(MV)),
                      m_nnz * (sizeof(IndexType) + 1)},
          [=](std::size_t i) {
            const IndexType cap = sc[i];
            if (cap == 0) return;
            const IndexType base = toffs[i];
            for (IndexType q = moffs[i]; q < moffs[i + 1]; ++q) {
              if (!structural && !static_cast<bool>(mvals[q])) continue;
              const IndexType j = mcols[q];
              IndexType slot =
                  static_cast<IndexType>((j * kHashMult) & (cap - 1));
              while (ts[base + slot] != 0)
                slot = (slot + 1) & (cap - 1);
              tk[base + slot] = j;
              ts[base + slot] = 1;
            }
          });
    }
  }

  // --- Row binning by FLOP count. The bin lists are built by one streaming
  // pass over the per-row bounds (read in place, charged below); per-bin
  // work sums feed the bin launches' declared stats.
  std::vector<IndexType> short_bin, medium_bin, long_bin;
  std::uint64_t medium_work = 0, long_work = 0, long_chunks = 0;
  std::uint64_t spilled_products = 0;
  {
    const IndexType* rf = row_flops.data();
    for (IndexType i = 0; i < nrows; ++i) {
      const IndexType f = rf[i];
      if (f == 0) continue;
      if (f <= sparse::kShortRowMaxFlops) {
        short_bin.push_back(i);
      } else if (f <= sparse::kMediumRowMaxFlops) {
        medium_bin.push_back(i);
        medium_work += ((f + 31) / 32) * 32;
      } else {
        long_bin.push_back(i);
        long_work += f;
        long_chunks += (f + sparse::kLongRowChunkFlops - 1) /
                       sparse::kLongRowChunkFlops;
      }
      if (sc[i] > sparse::kOnChipTableSlots) spilled_products += f;
    }
    ctx.account_kernel(LaunchStats{
        2 * nrows, 2 * nrows * sizeof(IndexType), 6 * nrows});
  }

  // --- Numeric pass: per-row produced/collision/avoided tallies. ----------
  device_vector<IndexType> produced(nrows, ctx);
  device_vector<IndexType> collisions(nrows, ctx);
  device_vector<IndexType> avoided(nrows, ctx);
  gpu_sim::fill(produced, IndexType{0});
  gpu_sim::fill(collisions, IndexType{0});
  gpu_sim::fill(avoided, IndexType{0});

  const IndexType* aoffs = A.row_offsets().data();
  const IndexType* acols = A.col_indices().data();
  const AT* avals = A.values().data();
  const IndexType* boffs = B.row_offsets().data();
  const IndexType* bcols = B.col_indices().data();
  const BT* bvals = B.values().data();
  IndexType* prod_n = produced.data();
  IndexType* coll_n = collisions.data();
  IndexType* avoid_n = avoided.data();
  const SR sem = sr;
  const bool drop_unseeded = seeded;

  const auto process_row = [=](IndexType i) {
    const IndexType cap = sc[i];
    const IndexType base = toffs[i];
    IndexType n_prod = 0, n_coll = 0, n_avoid = 0;
    for (IndexType p = aoffs[i]; p < aoffs[i + 1]; ++p) {
      const IndexType k = acols[p];
      const AT av = avals[p];
      for (IndexType q = boffs[k]; q < boffs[k + 1]; ++q) {
        if (cap == 0) {  // masked row with no allowed columns
          ++n_avoid;
          continue;
        }
        const IndexType j = bcols[q];
        const ZT prod = sem.mult(av, bvals[q]);
        IndexType slot =
            static_cast<IndexType>((j * kHashMult) & (cap - 1));
        bool placed = false;
        for (IndexType step = 0; step < cap; ++step) {
          const std::uint8_t state = ts[base + slot];
          if (state == 0) {
            if (drop_unseeded) break;  // key not among the mask's seeds
            tk[base + slot] = j;
            tv[base + slot] = prod;
            ts[base + slot] = 2;
            ++n_prod;
            placed = true;
            break;
          }
          if (tk[base + slot] == j) {
            if (state == 1) {
              tv[base + slot] = prod;
              ts[base + slot] = 2;
              ++n_prod;
            } else {
              tv[base + slot] = sem.add(tv[base + slot], prod);
            }
            placed = true;
            break;
          }
          ++n_coll;
          slot = (slot + 1) & (cap - 1);
        }
        if (!placed && drop_unseeded) ++n_avoid;
      }
    }
    prod_n[i] += n_prod;
    coll_n[i] += n_coll;
    avoid_n[i] += n_avoid;
  };

  const std::uint64_t row_side = 4 * sizeof(IndexType) + sizeof(AT);
  const std::uint64_t product_side =
      sizeof(IndexType) + sizeof(BT) + sizeof(ZT) + 1;
  if (!short_bin.empty()) {
    // One thread per row; a warp retires at its heaviest row's pace.
    const IndexType* rf = row_flops.data();
    const IndexType* bin = short_bin.data();
    const std::uint64_t slots = gpu_sim::warp_padded_items(
        short_bin.size(), ctx.properties().warp_size,
        [&](std::size_t t) { return rf[bin[t]]; });
    ctx.launch_n(short_bin.size(),
                 LaunchStats{4 * slots,
                             short_bin.size() * row_side +
                                 slots * product_side,
                             slots * (sizeof(ZT) + 1)},
                 [=](std::size_t t) { process_row(bin[t]); });
  }
  if (!medium_bin.empty()) {
    // One warp per row: work rounds up to warp granules, no cross-row pad.
    const IndexType* bin = medium_bin.data();
    ctx.launch_n(medium_bin.size(),
                 LaunchStats{4 * medium_work,
                             medium_bin.size() * row_side +
                                 medium_work * product_side,
                             medium_work * (sizeof(ZT) + 1)},
                 [=](std::size_t t) { process_row(bin[t]); });
  }
  if (!long_bin.empty()) {
    // Virtual workers: fixed-FLOP chunks, flat traffic plus per-chunk
    // scheduling arithmetic; spilled tables pay global probe sectors.
    const IndexType* bin = long_bin.data();
    ctx.launch_n(long_bin.size(),
                 LaunchStats{4 * long_work + 16 * long_chunks,
                             long_bin.size() * row_side +
                                 long_work * product_side +
                                 2 * spilled_products *
                                     sparse::kProbeSectorBytes,
                             long_work * (sizeof(ZT) + 1)},
                 [=](std::size_t t) { process_row(bin[t]); });
  }

  // --- Extraction: gather each row's filled slots in column order. Rows
  // are emitted in ascending order, so the output keys are globally sorted
  // — the same contract the ESC contraction hands to write_matrix.
  device_vector<IndexType> out_offsets(ctx);
  const IndexType total_out = gpu_sim::exclusive_scan(produced, out_offsets);
  u_keys.resize(total_out);
  u_vals.resize(total_out);
  {
    const IndexType* ooffs = out_offsets.data();
    IndexType* ok = u_keys.data();
    ZT* ov = u_vals.data();
    ctx.launch_n(
        nrows,
        LaunchStats{4 * total_out + total_slots,
                    total_slots * slot_bytes,
                    total_out * (sizeof(IndexType) + sizeof(ZT))},
        [=](std::size_t i) {
          const IndexType cap = sc[i];
          if (cap == 0) return;
          const IndexType base = toffs[i];
          std::vector<IndexType> cols_found;
          cols_found.reserve(prod_n[i]);
          for (IndexType s = 0; s < cap; ++s)
            if (ts[base + s] == 2) cols_found.push_back(s);
          std::sort(cols_found.begin(), cols_found.end(),
                    [&](IndexType a, IndexType b) {
                      return tk[base + a] < tk[base + b];
                    });
          IndexType o = ooffs[i];
          for (const IndexType s : cols_found) {
            ok[o] = static_cast<IndexType>(i) * c_ncols + tk[base + s];
            ov[o] = tv[base + s];
            ++o;
          }
        });
  }

  ctx.count(&gpu_sim::DeviceStats::spgemm_hash_collisions,
            gpu_sim::reduce_sum(collisions),
            &gpu_sim::DeviceStats::spgemm_hash_table_bytes,
            total_slots * slot_bytes);
  if (seeded)
    ctx.count(&gpu_sim::DeviceStats::spgemm_masked_products_avoided,
              gpu_sim::reduce_sum(avoided));
}

}  // namespace detail

template <typename CT, typename MObj, typename Accum, typename SR,
          typename AT, typename BT>
void mxm(Matrix<CT>& C, const OutputDescriptor<MObj>& out, Accum accum, SR sr,
         const Matrix<AT>& A, const Matrix<BT>& B) {
  using detail::LaunchStats;
  using ZT = typename SR::result_type;
  gpu_sim::Context& ctx = C.context();

  const IndexType nnz_a = A.nvals();
  const IndexType nrows = A.nrows();
  const IndexType c_ncols = C.ncols();

  // --- Symbolic pass (shared by both strategies). -------------------------
  // Expansion sizing: products contributed by each A-nonzero.
  gpu_sim::device_vector<IndexType> expand_counts(nnz_a, ctx);
  {
    const IndexType* acols = A.col_indices().data();
    const IndexType* boffs = B.row_offsets().data();
    IndexType* cnt = expand_counts.data();
    ctx.launch_n(nnz_a,
                 LaunchStats{nnz_a, nnz_a * 3 * sizeof(IndexType),
                             nnz_a * sizeof(IndexType)},
                 [=](std::size_t p) {
                   const IndexType k = acols[p];
                   cnt[p] = boffs[k + 1] - boffs[k];
                 });
  }
  // Overflow guard: the grand total is accumulated in 64 bits and checked
  // against IndexType before the scan's result is used to address buffers.
  sparse::checked_product_total<IndexType>(expand_counts.data(), nnz_a,
                                           "mxm");
  gpu_sim::device_vector<IndexType> expand_offsets(ctx);
  const IndexType total_products =
      gpu_sim::exclusive_scan(expand_counts, expand_offsets);

  // Per-row FLOP bounds, recovered from the exclusive expansion offsets.
  gpu_sim::device_vector<IndexType> row_flops(nrows, ctx);
  {
    const IndexType* aoffs = A.row_offsets().data();
    const IndexType* eoffs = expand_offsets.data();
    IndexType* rf = row_flops.data();
    const IndexType na = nnz_a;
    const IndexType total = total_products;
    ctx.launch_n(nrows,
                 LaunchStats{2 * nrows, nrows * 4 * sizeof(IndexType),
                             nrows * sizeof(IndexType)},
                 [=](std::size_t i) {
                   const IndexType b = aoffs[i], e = aoffs[i + 1];
                   const IndexType lo = b < na ? eoffs[b] : total;
                   const IndexType hi = e < na ? eoffs[e] : total;
                   rf[i] = hi - lo;
                 });
  }

  // Per-row output-nnz caps: the column count unmasked; the allowed-entry
  // count of the mask row when a non-complemented mask can seed the hash
  // tables (a complemented mask cannot bound the output, so it only acts at
  // write-back).
  bool seeded = false;
  gpu_sim::device_vector<IndexType> row_caps(nrows, ctx);
  if constexpr (!std::is_same_v<MObj, EmptyMaskObj>) {
    if (out.mask.mask != nullptr && !out.mask.complement) {
      seeded = true;
      using MV = typename MObj::ScalarType;
      const IndexType* moffs = out.mask.mask->row_offsets().data();
      const MV* mvals = out.mask.mask->values().data();
      const bool structural = out.mask.structural;
      const IndexType m_nnz = out.mask.mask->nvals();
      IndexType* rc = row_caps.data();
      ctx.launch_n(nrows,
                   LaunchStats{m_nnz + nrows,
                               nrows * 2 * sizeof(IndexType) +
                                   m_nnz * sizeof(MV),
                               nrows * sizeof(IndexType)},
                   [=](std::size_t i) {
                     IndexType allowed = 0;
                     for (IndexType q = moffs[i]; q < moffs[i + 1]; ++q)
                       if (structural || static_cast<bool>(mvals[q]))
                         ++allowed;
                     rc[i] = allowed;
                   });
    }
  }
  if (!seeded) {
    const IndexType* rf = row_flops.data();
    IndexType* rc = row_caps.data();
    const IndexType nc = c_ncols;
    ctx.launch_n(nrows,
                 LaunchStats{nrows, nrows * sizeof(IndexType),
                             nrows * sizeof(IndexType)},
                 [=](std::size_t i) {
                   rc[i] = std::min<IndexType>(rf[i], nc);
                 });
  }

  // --- Selection: fold the per-row bounds into the symbolic summary (read
  // in place, charged as one streaming pass) and let the selector propose /
  // the roofline model ratify.
  ctx.account_kernel(
      LaunchStats{2 * nrows, 2 * nrows * sizeof(IndexType), 64});
  const sparse::AdaptiveSpgemm sel(row_flops.data(), row_caps.data(), nrows,
                                   c_ncols, seeded, sizeof(ZT),
                                   &ctx.properties());
  ctx.count(&gpu_sim::DeviceStats::spgemm_selections, sel.strategy());

  gpu_sim::device_vector<IndexType> u_keys(ctx);
  gpu_sim::device_vector<ZT> u_vals(ctx);

  // Bit-format bypass: when a non-complemented mask seeds the output, both
  // operands carry only 1-valued entries (the structure-only case — charged
  // inspector below) and the semiring is plus-times, every allowed C(i, j)
  // is exactly popcount(rowbits_A(i) & rowbits_Bᵀ(j)). The masked-triangle
  // workload (L·L under mask L, L = tril(A)) hits this shape. The strategy
  // selection above still runs and is still counted — the Bit path competes
  // against (and is ratified by) its estimate.
  bool bit_done = false;
  if constexpr (std::is_same_v<SR, grb::ArithmeticSemiring<ZT>> &&
                !std::is_same_v<MObj, EmptyMaskObj>) {
    const auto bmode = sparse::bit_mode();
    if (bmode != sparse::BitMode::Off && seeded && nnz_a > 0 &&
        B.nvals() > 0) {
      const IndexType nnz_b = B.nvals();
      // All-values-one inspector over both operands: one streaming pass
      // each, same charging as the selector's symbolic fold.
      bool all_one = true;
      const AT* av = A.values().data();
      for (IndexType k = 0; k < nnz_a && all_one; ++k)
        if (av[k] != AT(1)) all_one = false;
      const BT* bv = B.values().data();
      for (IndexType k = 0; k < nnz_b && all_one; ++k)
        if (bv[k] != BT(1)) all_one = false;
      ctx.account_kernel(LaunchStats{
          nnz_a + nnz_b, nnz_a * sizeof(AT) + nnz_b * sizeof(BT), 64});
      if (all_one) {
        const std::uint64_t allowed = gpu_sim::reduce_sum(row_caps);
        const bool views_cached =
            A.bit_cached(/*transpose=*/false) && B.bit_cached(/*transpose=*/true);
        const double csr_time = sparse::estimated_spgemm_time(
            sel.strategy(), sel.symbolic(), sizeof(ZT), ctx.properties());
        if (sparse::select_bit_mxm(bmode, allowed, A.ncols(), nnz_a, nnz_b,
                                   nrows, c_ncols, views_cached, csr_time,
                                   ctx.properties())) {
          const auto& aview = A.bit_row_view();
          const auto& bview = B.bit_col_view();
          using MV = typename MObj::ScalarType;
          detail::bit_mxm_popcount<ZT, MV>(
              ctx, aview.structure.data(), aview.stride,
              bview.structure.data(), bview.stride, A.ncols(),
              out.mask.mask->row_offsets().data(),
              out.mask.mask->col_indices().data(),
              out.mask.mask->values().data(), out.mask.structural, nrows,
              c_ncols, u_keys, u_vals);
          bit_done = true;
        }
      }
    }
  }

  if (bit_done) {
    // handled above
  } else if (sel.strategy() == gpu_sim::SpgemmStrategy::kHash) {
    detail::mxm_hash<ZT, MObj, SR, AT, BT>(ctx, A, B, c_ncols, out, sr,
                                           row_flops, row_caps, seeded,
                                           u_keys, u_vals);
  } else {
    detail::mxm_esc<ZT, MObj, SR, AT, BT>(ctx, A, B, c_ncols, out, sr,
                                          expand_offsets, total_products,
                                          u_keys, u_vals);
  }

  pipeline::write_matrix(C, u_keys, u_vals, out, accum);
}

// ===========================================================================
// mxv / vxm
// ===========================================================================

template <typename WT, typename MObj, typename Accum, typename SR,
          typename AT, typename UT>
void mxv(Vector<WT>& w, const OutputDescriptor<MObj>& out, Accum accum, SR sr,
         const Matrix<AT>& A, const Vector<UT>& u) {
  sparse::FusedOpScope scope(sparse::FusedOpKind::kMxv, &w,
                             {&A, &u, detail::mask_addr(out)}, A.nvals(),
                             w.context());
  using detail::LaunchStats;
  using ZT = typename SR::result_type;
  gpu_sim::Context& ctx = w.context();
  const IndexType n = A.nrows();
  const IndexType nnz = A.nvals();

  gpu_sim::device_vector<ZT> t_vals(n, ctx);
  gpu_sim::device_vector<std::uint8_t> t_pres(n, ctx);
  gpu_sim::fill(t_pres, std::uint8_t{0});

  const IndexType* offs = A.row_offsets().data();
  const IndexType* cols = A.col_indices().data();
  const AT* avals = A.values().data();
  const UT* uv = u.values().data();
  const std::uint8_t* up = u.present().data();
  ZT* tv = t_vals.data();
  std::uint8_t* tp = t_pres.data();
  const SR sem = sr;

  // Inspector: one streaming pass over the offsets array summarizes the
  // degree distribution and drives kernel selection. The matrix is locked
  // to its device-resident CSR, so only the two CSR schedules compete
  // (allow_format_change = false). Reads device memory in place — no
  // transfers in steady state.
  const auto deg = sparse::analyze_offsets(offs, n, A.ncols(),
                                           ctx.properties().warp_size);
  ctx.account_kernel(
      LaunchStats{n + 1, (n + 1) * sizeof(IndexType), 64});
  const auto kind =
      sparse::select_kernel(deg, /*allow_format_change=*/false,
                            sparse::spmv_mode(), &ctx.properties(),
                            sizeof(ZT));
  const std::uint64_t entry =
      sizeof(IndexType) + sizeof(AT) + sizeof(UT) + 1;

  // Direction selection: the row-parallel gather IS the pull direction for
  // mxv (every output row folds its inputs); the push alternative scatters
  // the sparse u entries through the CSC columns, paying frontier-sized
  // work when u is nearly empty. Auto proposes push only for genuinely
  // sparse inputs (the inverse Beamer test) and the PR-1 roofline model
  // ratifies it against the gather kernel the selector would run.
  auto direction = gpu_sim::TraversalDirection::kPull;
  const auto dmode = sparse::direction_mode();
  const double gather_time =
      sparse::estimated_spmv_time(kind, deg, sizeof(ZT), ctx.properties());
  double csr_time = gather_time;  // whichever CSR engine the dispatch runs
  if (dmode == sparse::DirectionMode::ForcePush) {
    direction = gpu_sim::TraversalDirection::kPush;
  } else if (dmode == sparse::DirectionMode::Auto && nnz > 0) {
    // Probing u's sparsity may cost a (cached) presence recount, so only
    // consider push at all when the gather is heavy enough that a
    // frontier-sized alternative could amortize those fixed launches.
    if (gather_time > 8 * ctx.properties().kernel_launch_overhead_s) {
      sparse::TraversalShape shape;
      shape.frontier_rows = u.nvals();
      shape.frontier_edges =
          A.ncols() > 0 ? shape.frontier_rows * nnz / A.ncols() : 0;
      shape.dest_rows = n;
      shape.dest_edges = nnz;
      shape.n = n;
      shape.nnz = nnz;
      // mxv's push scatters down CSC columns, so here the *push* side owes
      // the transpose build when the cached view is cold.
      double push_time = sparse::estimated_traversal_time(
          gpu_sim::TraversalDirection::kPush, shape, sizeof(ZT),
          ctx.properties());
      if (!A.csc_cached())
        push_time += sparse::estimated_transpose_build_time(
            n, nnz, sizeof(ZT), ctx.properties());
      if (static_cast<double>(shape.frontier_edges) * sparse::kPullAlpha <
              static_cast<double>(nnz) &&
          push_time < gather_time) {
        direction = gpu_sim::TraversalDirection::kPush;
        csr_time = push_time;
      }
    }
  }
  ctx.count(&gpu_sim::DeviceStats::direction_selections, direction);

  // Bit-format bypass: on the logical semiring the whole fold is a word
  // AND/OR over the row bit view against the input's presence/truth
  // bitmaps — exact for every mask/accum combination because it produces
  // the same T̃ (present iff any stored entry meets a present u entry,
  // valued by whether any *truthy* pair met) and hands it to the same
  // write_vector epilogue. Auto prices it against the CSR engine chosen
  // above; Force takes it wherever it is exact.
  if constexpr (detail::is_logical_semiring_v<SR>) {
    const auto bmode = sparse::bit_mode();
    if (bmode != sparse::BitMode::Off) {
      sparse::BitTraversalShape bshape;
      bshape.dest_rows = n;  // the gather computes every row, mask at write
      bshape.n = A.ncols();
      bshape.nnz = nnz;
      bshape.frontier_rows = u.nvals();
      bshape.view_cached = A.bit_cached(/*transpose=*/false);
      bshape.planes =
          bshape.view_cached && A.bit_row_view().all_truthy ? 1 : 2;
      if (sparse::select_bit_traversal(bmode, bshape, csr_time,
                                       ctx.properties())) {
        const auto& view = A.bit_row_view();
        gpu_sim::device_vector<std::uint64_t> upres(ctx), utruth(ctx);
        detail::build_vector_bits(ctx, u, upres, utruth);
        detail::bit_gather<ZT>(
            ctx, view.structure.data(),
            view.all_truthy ? view.structure.data() : view.truth.data(),
            view.stride, view.all_truthy, n, A.ncols(), upres.data(),
            utruth.data(), /*dwords=*/nullptr, tv, tp);
        pipeline::write_vector(w, t_vals, t_pres, out, accum);
        return;
      }
    }
  }

  if (direction == gpu_sim::TraversalDirection::kPush) {
    // Push: scatter each present u entry down its CSC column. Contributions
    // reach row i in ascending column order with a zero-seeded first fold —
    // exactly the gather kernel's combination order, so both directions are
    // bit-identical.
    const auto& frontier = u.sparse_indices();
    const IndexType frontier_rows =
        static_cast<IndexType>(frontier.size());
    const IndexType* fidx = frontier.data();
    const IndexType* coffs = A.col_offsets().data();  // lazy CSC build
    const IndexType* crows = A.csc_row_indices().data();
    const AT* cvals = A.csc_values().data();
    // Frontier-degree inspector over the column offsets.
    std::uint64_t edges = 0;
    for (IndexType r = 0; r < frontier_rows; ++r) {
      const IndexType k = fidx[r];
      edges += coffs[k + 1] - coffs[k];
    }
    ctx.account_kernel(LaunchStats{
        frontier_rows, frontier_rows * 3 * sizeof(IndexType), 64});
    detail::serial_kernel(
        ctx,
        LaunchStats{2 * edges,
                    frontier_rows * (3 * sizeof(IndexType) + sizeof(UT)) +
                        edges * (sizeof(IndexType) + sizeof(AT) +
                                 sizeof(ZT) + 1),
                    edges * (sizeof(ZT) + 1)},
        [&] {
          for (IndexType r = 0; r < frontier_rows; ++r) {
            const IndexType k = fidx[r];
            const UT uval = uv[k];
            for (IndexType q = coffs[k]; q < coffs[k + 1]; ++q) {
              const IndexType i = crows[q];
              const ZT prod = sem.mult(cvals[q], uval);
              if (tp[i]) {
                tv[i] = sem.add(tv[i], prod);
              } else {
                tv[i] = sem.add(sem.zero(), prod);
                tp[i] = 1;
              }
            }
          }
        });
  } else if (kind == gpu_sim::SpmvKernelKind::kCsrLoadBalanced) {
    // Merge-path load-balanced schedule: fixed nnz chunks per team, direct
    // writes for rows owned by one team, spilled partials + serial fixup
    // for boundary rows. Flat traffic in nnz — no warp-padding term.
    const IndexType chunk =
        std::max<IndexType>(sparse::spmv_lb_chunk(), 1);
    const IndexType nteams = (nnz + chunk - 1) / chunk;
    gpu_sim::device_vector<IndexType> partial_row(2 * nteams, ctx);
    gpu_sim::device_vector<ZT> partial_val(2 * nteams, ctx);
    gpu_sim::device_vector<std::uint8_t> partial_any(2 * nteams, ctx);
    // Spill-flag init is fused into the team kernel (its write bytes are in
    // the team LaunchStats); zeroed functionally, no separate launch.
    std::fill_n(partial_any.data(), 2 * nteams, std::uint8_t{0});
    IndexType* prow = partial_row.data();
    ZT* pval = partial_val.data();
    std::uint8_t* pany = partial_any.data();

    const std::uint64_t search_ops = nteams * 8;
    ctx.launch_n(
        nteams,
        LaunchStats{2 * nnz + search_ops,
                    nnz * entry + (n + 1) * sizeof(IndexType) +
                        search_ops * sizeof(IndexType),
                    n * (sizeof(ZT) + 1) +
                        2 * nteams * (sizeof(IndexType) + sizeof(ZT) + 1)},
        [=](std::size_t t) {
          const IndexType k0 = static_cast<IndexType>(t) * chunk;
          const IndexType k1 = std::min<IndexType>(k0 + chunk, nnz);
          if (k0 >= k1) return;
          IndexType lo = 0, hi = n;
          while (lo < hi) {  // last row r with offs[r] <= k0
            const IndexType mid = (lo + hi) / 2;
            if (offs[mid] <= k0)
              lo = mid + 1;
            else
              hi = mid;
          }
          IndexType r = lo - 1;
          IndexType k = k0;
          while (k < k1) {
            const IndexType row_end = std::min<IndexType>(offs[r + 1], k1);
            ZT acc = sem.zero();
            bool any = false;
            for (; k < row_end; ++k) {
              const IndexType col = cols[k];
              if (up[col]) {
                acc = sem.add(acc, sem.mult(avals[k], uv[col]));
                any = true;
              }
            }
            const bool starts_inside = offs[r] >= k0;
            const bool ends_inside = offs[r + 1] <= k1;
            if (starts_inside && ends_inside) {
              if (any) {
                tv[r] = acc;
                tp[r] = 1;
              }
            } else if (any) {
              const IndexType slot =
                  2 * static_cast<IndexType>(t) + (starts_inside ? 1 : 0);
              prow[slot] = r;
              pval[slot] = acc;
              pany[slot] = 1;
            }
            ++r;
          }
        });
    // Fixup pass: combine boundary-row partials in team order (slot order
    // is deterministic, so results are reproducible run to run).
    detail::serial_kernel(
        ctx,
        LaunchStats{8 * 2 * nteams,
                    2 * nteams * (sizeof(IndexType) + sizeof(ZT) + 1),
                    2 * nteams * (sizeof(ZT) + 1)},
        [&] {
          for (IndexType s = 0; s < 2 * nteams; ++s) {
            if (!pany[s]) continue;
            const IndexType r = prow[s];
            if (tp[r]) {
              tv[r] = sem.add(tv[r], pval[s]);
            } else {
              tv[r] = pval[s];
              tp[r] = 1;
            }
          }
        });
    ctx.count(&gpu_sim::DeviceStats::kernel_selections,
              gpu_sim::SpmvKernelKind::kCsrLoadBalanced,
              &gpu_sim::DeviceStats::spmv_bytes_saved_vs_baseline,
              deg.warp_padded_slots > nnz
                  ? (deg.warp_padded_slots - nnz) * entry
                  : 0);
  } else {
    // Row-parallel CSR SpMV. Warp-granular padding: a warp streams at the
    // pace of its heaviest row, so traffic is charged in effective slots.
    const std::uint64_t slots = deg.warp_padded_slots;
    const std::uint64_t read =
        slots * entry + (n + 1) * sizeof(IndexType);
    ctx.launch_n(n, LaunchStats{2 * slots, read, n * (sizeof(ZT) + 1)},
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
    ctx.count(&gpu_sim::DeviceStats::kernel_selections,
              gpu_sim::SpmvKernelKind::kCsrScalar);
  }

  pipeline::write_vector(w, t_vals, t_pres, out, accum);
}

template <typename WT, typename MObj, typename Accum, typename SR,
          typename UT, typename AT>
void vxm(Vector<WT>& w, const OutputDescriptor<MObj>& out, Accum accum, SR sr,
         const Vector<UT>& u, const Matrix<AT>& A) {
  sparse::FusedOpScope scope(sparse::FusedOpKind::kVxm, &w,
                             {&u, &A, detail::mask_addr(out)}, A.nvals(),
                             w.context());
  using detail::LaunchStats;
  using ZT = typename SR::result_type;
  gpu_sim::Context& ctx = w.context();
  const IndexType nnz = A.nvals();

  gpu_sim::device_vector<ZT> t_vals(w.size(), ctx);
  gpu_sim::device_vector<std::uint8_t> t_pres(w.size(), ctx);
  gpu_sim::fill(t_pres, std::uint8_t{0});

  const IndexType* offs = A.row_offsets().data();
  const IndexType* cols = A.col_indices().data();
  const AT* avals = A.values().data();
  const UT* uv = u.values().data();
  const std::uint8_t* up = u.present().data();
  ZT* tv = t_vals.data();
  std::uint8_t* tp = t_pres.data();
  const SR sem = sr;

  // Sparse frontier: the compacted index list of u's present entries,
  // cached on the vector (materialize-on-demand, invalidate-on-write).
  const auto& frontier = u.sparse_indices();
  const IndexType frontier_rows =
      static_cast<IndexType>(frontier.size());
  const IndexType* fidx = frontier.data();

  // Inspector over the *frontier*: frontier-sized, not n-sized — only rows
  // with a present u entry are expanded, so both work and the
  // warp-imbalance penalty are functions of the frontier's degree
  // distribution, not the whole matrix. Reads device memory in place — no
  // transfers in steady state.
  std::uint64_t items = 0;       // flat frontier nnz
  std::uint64_t max_deg = 0;
  double sum_sq = 0.0;
  std::vector<IndexType> fdeg;
  fdeg.reserve(frontier_rows);
  for (IndexType r = 0; r < frontier_rows; ++r) {
    const IndexType k = fidx[r];
    const IndexType d = offs[k + 1] - offs[k];
    items += d;
    max_deg = std::max<std::uint64_t>(max_deg, d);
    sum_sq += static_cast<double>(d) * static_cast<double>(d);
    fdeg.push_back(d);
  }
  ctx.account_kernel(
      LaunchStats{frontier_rows, frontier_rows * 3 * sizeof(IndexType), 64});
  sparse::DegreeStats fstats;
  fstats.nrows = frontier_rows;
  fstats.ncols = A.ncols();
  fstats.nnz = items;
  fstats.max_degree = max_deg;
  fstats.mean_degree =
      frontier_rows > 0
          ? static_cast<double>(items) / static_cast<double>(frontier_rows)
          : 0.0;
  if (frontier_rows > 0) {
    const double var = sum_sq / static_cast<double>(frontier_rows) -
                       fstats.mean_degree * fstats.mean_degree;
    fstats.degree_stddev = var > 0.0 ? std::sqrt(var) : 0.0;
  }
  // Push kernels compact the frontier first, so warps run over the packed
  // present rows.
  fstats.warp_padded_slots = gpu_sim::warp_padded_items(
      fdeg.size(), ctx.properties().warp_size,
      [&](std::size_t i) { return fdeg[i]; });

  // Direction selection (Beamer-style): push scatters frontier out-edges,
  // pull gathers into the mask-allowed destinations from the CSC side and
  // early-exits each row at the additive annihilator. The destination side
  // is estimated from the (cached) mask nvals and the mean in-degree — an
  // O(1) probe, so push-direction levels pay nothing for the choice.
  sparse::TraversalShape shape;
  shape.frontier_rows = frontier_rows;
  shape.frontier_edges = items;
  shape.n = w.size();
  shape.nnz = nnz;
  shape.can_early_exit = grb::has_annihilator_v<SR>;
  shape.dest_rows = w.size();
  if constexpr (!std::is_same_v<MObj, EmptyMaskObj>) {
    if (out.mask.mask != nullptr) {
      const std::uint64_t m_nvals = out.mask.mask->nvals();
      shape.dest_rows = out.mask.complement
                            ? (shape.n >= m_nvals ? shape.n - m_nvals : 0)
                            : m_nvals;
    }
  }
  shape.dest_edges =
      A.ncols() > 0 ? shape.dest_rows * nnz / A.ncols() : 0;
  shape.transpose_cached = A.csc_cached();
  const auto direction = sparse::select_direction(
      shape, sparse::direction_mode(), &ctx.properties(), sizeof(ZT));
  ctx.count(&gpu_sim::DeviceStats::direction_selections, direction);

  // Bit-format bypass: vxm on the logical semiring is the pull gather with
  // words for edges — each mask-allowed destination ANDs its transpose bit
  // row against the frontier's presence/truth bitmaps, early-exiting on the
  // first truthy hit exactly where the CSR pull's annihilator exit fires.
  // T̃ is identical to both CSR directions', so any mask/accum epilogue
  // composes unchanged. Auto prices it against the direction chosen above
  // (including that direction's cold-transpose bill); Force always takes it.
  if constexpr (detail::is_logical_semiring_v<SR>) {
    const auto bmode = sparse::bit_mode();
    if (bmode != sparse::BitMode::Off) {
      const double csr_time = sparse::estimated_traversal_time(
          direction, shape, sizeof(ZT), ctx.properties());
      sparse::BitTraversalShape bshape;
      bshape.dest_rows = shape.dest_rows;
      bshape.n = A.nrows();
      bshape.nnz = nnz;
      bshape.frontier_rows = frontier_rows;
      bshape.view_cached = A.bit_cached(/*transpose=*/true);
      bshape.planes =
          bshape.view_cached && A.bit_col_view().all_truthy ? 1 : 2;
      if (sparse::select_bit_traversal(bmode, bshape, csr_time,
                                       ctx.properties())) {
        const auto& view = A.bit_col_view();
        gpu_sim::device_vector<std::uint64_t> upres(ctx), utruth(ctx);
        detail::build_vector_bits(ctx, u, upres, utruth);
        auto dwords = detail::build_mask_bits(ctx, out, w.size());
        detail::bit_gather<ZT>(
            ctx, view.structure.data(),
            view.all_truthy ? view.structure.data() : view.truth.data(),
            view.stride, view.all_truthy, w.size(), A.nrows(), upres.data(),
            utruth.data(), dwords.data(), tv, tp);
        pipeline::write_vector(w, t_vals, t_pres, out, accum);
        return;
      }
    }
  }

  if (direction == gpu_sim::TraversalDirection::kPush) {
    // Push-style scatter with atomics on real hardware; simulated serially.
    // The SpMV selector still chooses the schedule whose cost is declared:
    // warp-padded effective slots for the scalar row-per-thread kernel,
    // flat items (+ partition search and fixup traffic) for merge-path.
    const auto kind =
        sparse::select_kernel(fstats, /*allow_format_change=*/false,
                              sparse::spmv_mode(), &ctx.properties(),
                              sizeof(ZT));
    const std::uint64_t entry =
        sizeof(IndexType) + sizeof(AT) + sizeof(ZT) + 1;
    std::uint64_t work_slots = fstats.warp_padded_slots;
    std::uint64_t extra_ops = 0;
    std::uint64_t extra_bytes = 0;
    std::uint64_t saved = 0;
    if (kind == gpu_sim::SpmvKernelKind::kCsrLoadBalanced) {
      const IndexType chunk =
          std::max<IndexType>(sparse::spmv_lb_chunk(), 1);
      const std::uint64_t nteams = (items + chunk - 1) / chunk;
      work_slots = items;
      extra_ops = nteams * 8 + 8 * 2 * nteams;
      extra_bytes = 2 * nteams * (sizeof(IndexType) + sizeof(ZT) + 1) * 2;
      saved = fstats.warp_padded_slots > items
                  ? (fstats.warp_padded_slots - items) * entry
                  : 0;
    }
    ctx.count(&gpu_sim::DeviceStats::kernel_selections, kind,
              &gpu_sim::DeviceStats::spmv_bytes_saved_vs_baseline, saved);
    const std::uint64_t read =
        frontier_rows * (3 * sizeof(IndexType) + sizeof(UT)) +
        work_slots * entry + extra_bytes;
    detail::serial_kernel(ctx, LaunchStats{2 * work_slots + extra_ops, read,
                                           items * (sizeof(ZT) + 1)},
                          [&] {
                            for (IndexType r = 0; r < frontier_rows; ++r) {
                              const IndexType k = fidx[r];
                              const UT uval = uv[k];
                              for (IndexType q = offs[k]; q < offs[k + 1];
                                   ++q) {
                                const IndexType j = cols[q];
                                const ZT prod = sem.mult(uval, avals[q]);
                                if (tp[j]) {
                                  tv[j] = sem.add(tv[j], prod);
                                } else {
                                  tv[j] = prod;
                                  tp[j] = 1;
                                }
                              }
                            }
                          });
  } else {
    // Pull-style gather: iterate the mask-allowed destinations and fold
    // their in-edges (CSC column) in ascending source order — the same
    // combination order as the push scatter, so the two directions are
    // bit-identical. With an annihilating additive monoid each row stops
    // at its first saturating hit (the Beamer early exit). Restricting t
    // to mask-allowed destinations is semantics-preserving: write_vector
    // re-applies the same mask, so disallowed positions never read t.
    auto dflags = pipeline::vector_mask_flags(ctx, out.mask, w.size());
    gpu_sim::device_vector<IndexType> dests(ctx);
    const std::uint64_t dest_count = gpu_sim::flagged_indices(dflags, dests);
    const IndexType* didx = dests.data();
    const IndexType* coffs = A.col_offsets().data();  // lazy CSC build
    const IndexType* crows = A.csc_row_indices().data();
    const AT* cvals = A.csc_values().data();
    std::uint64_t scanned = 0;     // in-edges actually touched
    std::uint64_t early_rows = 0;  // rows abandoned before exhaustion
    std::uint64_t wrote = 0;
    for (std::uint64_t r = 0; r < dest_count; ++r) {
      const IndexType j = didx[r];
      ZT acc{};
      bool any = false;
      IndexType q = coffs[j];
      const IndexType q_end = coffs[j + 1];
      for (; q < q_end; ++q) {
        const IndexType i = crows[q];
        if (!up[i]) continue;
        const ZT prod = sem.mult(uv[i], cvals[q]);
        acc = any ? sem.add(acc, prod) : prod;
        any = true;
        if constexpr (grb::SaturatingSemiring<SR>) {
          if (acc == sem.annihilator()) {
            ++q;
            break;
          }
        }
      }
      scanned += q - coffs[j];
      if (q < q_end) ++early_rows;
      if (any) {
        tv[j] = acc;
        tp[j] = 1;
        ++wrote;
      }
    }
    // Exact post-hoc accounting (the count_if/reduce precedent): per
    // destination the index + two offsets, per touched in-edge the source
    // row index, matrix value, and source presence/value probes.
    ctx.account_kernel(LaunchStats{
        2 * scanned + dest_count,
        dest_count * 3 * sizeof(IndexType) +
            scanned * (sizeof(IndexType) + sizeof(AT) + sizeof(UT) + 1),
        wrote * (sizeof(ZT) + 1)});
    ctx.count(&gpu_sim::DeviceStats::pull_early_exit_rows, early_rows);
  }

  pipeline::write_vector(w, t_vals, t_pres, out, accum);
}

// ===========================================================================
// eWiseAdd / eWiseMult (vectors: elementwise kernels; matrices: key search)
// ===========================================================================

template <typename WT, typename MObj, typename Accum, typename Op,
          typename UT, typename VT>
void ewise_add_vec(Vector<WT>& w, const OutputDescriptor<MObj>& out,
                   Accum accum, Op op, const Vector<UT>& u,
                   const Vector<VT>& v) {
  sparse::FusedOpScope scope(sparse::FusedOpKind::kEWiseAdd, &w,
                             {&u, &v, detail::mask_addr(out)}, w.size(),
                             w.context());
  using detail::LaunchStats;
  using ZT = std::common_type_t<UT, VT>;
  gpu_sim::Context& ctx = w.context();
  const IndexType n = w.size();
  gpu_sim::device_vector<ZT> t_vals(n, ctx);
  gpu_sim::device_vector<std::uint8_t> t_pres(n, ctx);
  const UT* uvv = u.values().data();
  const std::uint8_t* uvp = u.present().data();
  const VT* vvv = v.values().data();
  const std::uint8_t* vvp = v.present().data();
  ZT* tv = t_vals.data();
  std::uint8_t* tp = t_pres.data();
  const Op f = op;
  ctx.launch_n(n,
               LaunchStats{n, n * (sizeof(UT) + sizeof(VT) + 2),
                           n * (sizeof(ZT) + 1)},
               [=](std::size_t i) {
                 const bool hu = uvp[i], hv = vvp[i];
                 if (hu && hv) {
                   tv[i] = static_cast<ZT>(f(static_cast<ZT>(uvv[i]),
                                             static_cast<ZT>(vvv[i])));
                   tp[i] = 1;
                 } else if (hu) {
                   tv[i] = static_cast<ZT>(uvv[i]);
                   tp[i] = 1;
                 } else if (hv) {
                   tv[i] = static_cast<ZT>(vvv[i]);
                   tp[i] = 1;
                 } else {
                   tp[i] = 0;
                 }
               });
  pipeline::write_vector(w, t_vals, t_pres, out, accum);
}

template <typename WT, typename MObj, typename Accum, typename Op,
          typename UT, typename VT>
void ewise_mult_vec(Vector<WT>& w, const OutputDescriptor<MObj>& out,
                    Accum accum, Op op, const Vector<UT>& u,
                    const Vector<VT>& v) {
  sparse::FusedOpScope scope(sparse::FusedOpKind::kEWiseMult, &w,
                             {&u, &v, detail::mask_addr(out)}, w.size(),
                             w.context());
  using detail::LaunchStats;
  using ZT = std::common_type_t<UT, VT>;
  gpu_sim::Context& ctx = w.context();
  const IndexType n = w.size();
  gpu_sim::device_vector<ZT> t_vals(n, ctx);
  gpu_sim::device_vector<std::uint8_t> t_pres(n, ctx);
  const UT* uvv = u.values().data();
  const std::uint8_t* uvp = u.present().data();
  const VT* vvv = v.values().data();
  const std::uint8_t* vvp = v.present().data();
  ZT* tv = t_vals.data();
  std::uint8_t* tp = t_pres.data();
  const Op f = op;
  ctx.launch_n(n,
               LaunchStats{n, n * (sizeof(UT) + sizeof(VT) + 2),
                           n * (sizeof(ZT) + 1)},
               [=](std::size_t i) {
                 if (uvp[i] && vvp[i]) {
                   tv[i] = static_cast<ZT>(f(static_cast<ZT>(uvv[i]),
                                             static_cast<ZT>(vvv[i])));
                   tp[i] = 1;
                 } else {
                   tp[i] = 0;
                 }
               });
  pipeline::write_vector(w, t_vals, t_pres, out, accum);
}

namespace detail {

/// Shared machinery for matrix eWise ops: produces T's sorted keys/values.
/// Mode: union (eWiseAdd) or intersection (eWiseMult).
template <bool kUnion, typename ZT, typename Op, typename AT, typename BT>
void ewise_mat_compute(const Matrix<AT>& A, const Matrix<BT>& B, Op op,
                       device_vector<IndexType>& out_keys,
                       device_vector<ZT>& out_vals) {
  Context& ctx = A.context();
  auto a_keys = pipeline::coo_keys(A);
  auto b_keys = pipeline::coo_keys(B);
  const IndexType na = a_keys.size();
  const IndexType nb = b_keys.size();

  // Pass 1 over A: combine with matching B entry (binary search) or keep
  // (union mode).
  device_vector<ZT> a_out(na, ctx);
  device_vector<std::uint8_t> a_flag(na, ctx);
  {
    const IndexType* ak = a_keys.data();
    const AT* av = A.values().data();
    const IndexType* bk = b_keys.data();
    const BT* bv = B.values().data();
    ZT* ov = a_out.data();
    std::uint8_t* fl = a_flag.data();
    const Op f = op;
    ctx.launch_n(na,
                 LaunchStats{16 * na,
                             na * (16 * sizeof(IndexType) + sizeof(AT) +
                                   sizeof(BT)),
                             na * (sizeof(ZT) + 1)},
                 [=](std::size_t p) {
                   const IndexType key = ak[p];
                   IndexType lo = 0, hi = nb;
                   while (lo < hi) {
                     const IndexType mid = lo + (hi - lo) / 2;
                     if (bk[mid] < key)
                       lo = mid + 1;
                     else
                       hi = mid;
                   }
                   const bool in_b = lo < nb && bk[lo] == key;
                   if (in_b) {
                     ov[p] = static_cast<ZT>(f(static_cast<ZT>(av[p]),
                                               static_cast<ZT>(bv[lo])));
                     fl[p] = 1;
                   } else if (kUnion) {
                     ov[p] = static_cast<ZT>(av[p]);
                     fl[p] = 1;
                   } else {
                     fl[p] = 0;
                   }
                 });
  }

  if constexpr (!kUnion) {
    gpu_sim::copy_flagged(a_keys, a_flag, out_keys);
    gpu_sim::copy_flagged(a_out, a_flag, out_vals);
    return;
  }

  // Pass 2 over B: keep entries absent from A.
  device_vector<std::uint8_t> b_flag(nb, ctx);
  {
    const IndexType* bk = b_keys.data();
    const IndexType* ak = a_keys.data();
    std::uint8_t* fl = b_flag.data();
    ctx.launch_n(nb,
                 LaunchStats{16 * nb, nb * 16 * sizeof(IndexType), nb},
                 [=](std::size_t p) {
                   const IndexType key = bk[p];
                   IndexType lo = 0, hi = na;
                   while (lo < hi) {
                     const IndexType mid = lo + (hi - lo) / 2;
                     if (ak[mid] < key)
                       lo = mid + 1;
                     else
                       hi = mid;
                   }
                   fl[p] = (lo < na && ak[lo] == key) ? 0 : 1;
                 });
  }
  device_vector<IndexType> b_only_keys(ctx);
  device_vector<ZT> b_vals_z(ctx);
  gpu_sim::transform(B.values(), b_vals_z,
                     [](BT x) { return static_cast<ZT>(x); });
  device_vector<ZT> b_only_vals(ctx);
  gpu_sim::copy_flagged(b_keys, b_flag, b_only_keys);
  gpu_sim::copy_flagged(b_vals_z, b_flag, b_only_vals);

  // Concatenate the two disjoint sorted streams and sort once.
  device_vector<IndexType> all_keys(ctx);
  gpu_sim::copy_flagged(a_keys, a_flag, all_keys);
  device_vector<ZT> all_vals(ctx);
  gpu_sim::copy_flagged(a_out, a_flag, all_vals);
  const IndexType ka = all_keys.size();
  const IndexType kb = b_only_keys.size();
  all_keys.resize(ka + kb);
  all_vals.resize(ka + kb);
  if (kb > 0) {
    ctx.copy_d2d(all_keys.data() + ka, b_only_keys.data(),
                 kb * sizeof(IndexType));
    ctx.copy_d2d(all_vals.data() + ka, b_only_vals.data(), kb * sizeof(ZT));
  }
  gpu_sim::sort_by_key(all_keys, all_vals);
  out_keys = std::move(all_keys);
  out_vals = std::move(all_vals);
}

}  // namespace detail

template <typename CT, typename MObj, typename Accum, typename Op,
          typename AT, typename BT>
void ewise_add_mat(Matrix<CT>& C, const OutputDescriptor<MObj>& out,
                   Accum accum, Op op, const Matrix<AT>& A,
                   const Matrix<BT>& B) {
  using ZT = std::common_type_t<AT, BT>;
  gpu_sim::device_vector<IndexType> keys(C.context());
  gpu_sim::device_vector<ZT> vals(C.context());
  detail::ewise_mat_compute<true, ZT>(A, B, op, keys, vals);
  pipeline::write_matrix(C, keys, vals, out, accum);
}

template <typename CT, typename MObj, typename Accum, typename Op,
          typename AT, typename BT>
void ewise_mult_mat(Matrix<CT>& C, const OutputDescriptor<MObj>& out,
                    Accum accum, Op op, const Matrix<AT>& A,
                    const Matrix<BT>& B) {
  using ZT = std::common_type_t<AT, BT>;
  gpu_sim::device_vector<IndexType> keys(C.context());
  gpu_sim::device_vector<ZT> vals(C.context());
  detail::ewise_mat_compute<false, ZT>(A, B, op, keys, vals);
  pipeline::write_matrix(C, keys, vals, out, accum);
}

// ===========================================================================
// apply
// ===========================================================================

template <typename WT, typename MObj, typename Accum, typename UnaryOp,
          typename UT>
void apply_vec(Vector<WT>& w, const OutputDescriptor<MObj>& out, Accum accum,
               UnaryOp f, const Vector<UT>& u) {
  using detail::LaunchStats;
  sparse::FusedOpScope scope(sparse::FusedOpKind::kApply, &w,
                             {&u, detail::mask_addr(out)}, u.size(),
                             w.context());
  gpu_sim::Context& ctx = w.context();
  // In place (w ≡ u, no mask, no accum) T̃'s presence equals w's own, so a
  // chain member runs as one kernel rewriting w's storage directly — no
  // temp allocation, no write_vector epilogue. Bit-identical: per-element
  // read-then-write with no cross-element deps.
  if constexpr (std::is_same_v<WT, UT> &&
                std::is_same_v<MObj, EmptyMaskObj> &&
                std::is_same_v<Accum, NoAccumulate>) {
    if (scope.joined() &&
        static_cast<const void*>(&w) == static_cast<const void*>(&u)) {
      const IndexType n = w.size();
      WT* wv = w.values().data();
      const std::uint8_t* wp = w.present().data();
      const UnaryOp fn = f;
      ctx.launch_n(n, LaunchStats{n, n * (sizeof(WT) + 1), n * sizeof(WT)},
                   [=](std::size_t i) {
                     if (wp[i]) wv[i] = static_cast<WT>(fn(wv[i]));
                   });
      return;
    }
  }
  const IndexType n = u.size();
  gpu_sim::device_vector<WT> t_vals(n, ctx);
  gpu_sim::device_vector<std::uint8_t> t_pres(n, ctx);
  const UT* uvv = u.values().data();
  const std::uint8_t* uvp = u.present().data();
  WT* tv = t_vals.data();
  std::uint8_t* tp = t_pres.data();
  const UnaryOp fn = f;
  ctx.launch_n(n,
               LaunchStats{n, n * (sizeof(UT) + 1), n * (sizeof(WT) + 1)},
               [=](std::size_t i) {
                 if (uvp[i]) {
                   tv[i] = static_cast<WT>(fn(uvv[i]));
                   tp[i] = 1;
                 } else {
                   tp[i] = 0;
                 }
               });
  pipeline::write_vector(w, t_vals, t_pres, out, accum);
}

template <typename CT, typename MObj, typename Accum, typename UnaryOp,
          typename AT>
void apply_mat(Matrix<CT>& C, const OutputDescriptor<MObj>& out, Accum accum,
               UnaryOp f, const Matrix<AT>& A) {
  gpu_sim::Context& ctx = C.context();
  auto keys = pipeline::coo_keys(A);
  gpu_sim::device_vector<CT> vals(ctx);
  const UnaryOp fn = f;
  gpu_sim::transform(A.values(), vals,
                     [fn](AT x) { return static_cast<CT>(fn(x)); });
  pipeline::write_matrix(C, keys, vals, out, accum);
}

/// Index-aware apply (IndexUnaryOp extension): one elementwise kernel.
template <typename WT, typename MObj, typename Accum, typename IdxOp,
          typename UT>
void apply_indexed_vec(Vector<WT>& w, const OutputDescriptor<MObj>& out,
                       Accum accum, IdxOp f, const Vector<UT>& u) {
  using detail::LaunchStats;
  sparse::FusedOpScope scope(sparse::FusedOpKind::kApplyIndexed, &w,
                             {&u, detail::mask_addr(out)}, u.size(),
                             w.context());
  gpu_sim::Context& ctx = w.context();
  const IndexType n = u.size();
  gpu_sim::device_vector<WT> t_vals(n, ctx);
  gpu_sim::device_vector<std::uint8_t> t_pres(n, ctx);
  const UT* uvv = u.values().data();
  const std::uint8_t* uvp = u.present().data();
  WT* tv = t_vals.data();
  std::uint8_t* tp = t_pres.data();
  const IdxOp fn = f;
  ctx.launch_n(n,
               LaunchStats{2 * n, n * (sizeof(UT) + 1),
                           n * (sizeof(WT) + 1)},
               [=](std::size_t i) {
                 if (uvp[i]) {
                   tv[i] = static_cast<WT>(
                       fn(static_cast<IndexType>(i), uvv[i]));
                   tp[i] = 1;
                 } else {
                   tp[i] = 0;
                 }
               });
  pipeline::write_vector(w, t_vals, t_pres, out, accum);
}

/// Matrix form: transform over the COO expansion.
template <typename CT, typename MObj, typename Accum, typename IdxOp,
          typename AT>
void apply_indexed_mat(Matrix<CT>& C, const OutputDescriptor<MObj>& out,
                       Accum accum, IdxOp f, const Matrix<AT>& A) {
  using detail::LaunchStats;
  gpu_sim::Context& ctx = C.context();
  auto keys = pipeline::coo_keys(A);
  const IndexType nnz = A.nvals();
  gpu_sim::device_vector<CT> vals(nnz, ctx);
  const IndexType* k = keys.data();
  const AT* av = A.values().data();
  CT* ov = vals.data();
  const IndexType ncols = A.ncols();
  const IdxOp fn = f;
  ctx.launch_n(nnz,
               LaunchStats{3 * nnz,
                           nnz * (sizeof(IndexType) + sizeof(AT)),
                           nnz * sizeof(CT)},
               [=](std::size_t p) {
                 ov[p] = static_cast<CT>(
                     fn(k[p] / ncols, k[p] % ncols, av[p]));
               });
  pipeline::write_matrix(C, keys, vals, out, accum);
}

// ===========================================================================
// reduce
// ===========================================================================

template <typename WT, typename MObj, typename Accum, typename Monoid,
          typename AT>
void reduce_mat_to_vec(Vector<WT>& w, const OutputDescriptor<MObj>& out,
                       Accum accum, Monoid monoid, const Matrix<AT>& A) {
  sparse::FusedOpScope scope(sparse::FusedOpKind::kReduceMatToVec, &w,
                             {&A, detail::mask_addr(out)}, A.nvals(),
                             w.context());
  using detail::LaunchStats;
  using ZT = typename Monoid::result_type;
  gpu_sim::Context& ctx = w.context();
  const IndexType n = A.nrows();
  const IndexType nnz = A.nvals();
  gpu_sim::device_vector<ZT> t_vals(n, ctx);
  gpu_sim::device_vector<std::uint8_t> t_pres(n, ctx);
  const IndexType* offs = A.row_offsets().data();
  const AT* avals = A.values().data();
  ZT* tv = t_vals.data();
  std::uint8_t* tp = t_pres.data();
  const Monoid m = monoid;
  ctx.launch_n(n,
               LaunchStats{nnz, nnz * sizeof(AT) + n * sizeof(IndexType),
                           n * (sizeof(ZT) + 1)},
               [=](std::size_t i) {
                 if (offs[i] == offs[i + 1]) {
                   tp[i] = 0;
                   return;
                 }
                 ZT acc = m.identity();
                 for (IndexType k = offs[i]; k < offs[i + 1]; ++k)
                   acc = m(acc, static_cast<ZT>(avals[k]));
                 tv[i] = acc;
                 tp[i] = 1;
               });
  pipeline::write_vector(w, t_vals, t_pres, out, accum);
}

template <typename ST, typename Accum, typename Monoid, typename UT>
void reduce_vec_to_scalar(ST& s, Accum accum, Monoid monoid,
                          const Vector<UT>& u) {
  // Joins its producer's chain (an eWiseMult→reduce chain is one composite
  // launch); its host output ends the chain.
  sparse::FusedOpScope scope(sparse::FusedOpKind::kReduceToScalar, nullptr,
                             {&u}, u.size(), u.context());
  using detail::LaunchStats;
  using ZT = typename Monoid::result_type;
  gpu_sim::Context& ctx = u.context();
  const IndexType n = u.size();
  gpu_sim::device_vector<ZT> masked(n, ctx);
  const UT* uv = u.values().data();
  const std::uint8_t* up = u.present().data();
  ZT* mv = masked.data();
  const Monoid m = monoid;
  ctx.launch_n(n, LaunchStats{n, n * (sizeof(UT) + 1), n * sizeof(ZT)},
               [=](std::size_t i) {
                 mv[i] = up[i] ? static_cast<ZT>(uv[i]) : m.identity();
               });
  const ZT acc = gpu_sim::reduce(masked, monoid.identity(),
                                 [m](ZT a, ZT b) { return m(a, b); });
  if constexpr (std::is_same_v<Accum, NoAccumulate>)
    s = static_cast<ST>(acc);
  else
    s = static_cast<ST>(accum(s, static_cast<ST>(acc)));
}

template <typename ST, typename Accum, typename Monoid, typename AT>
void reduce_mat_to_scalar(ST& s, Accum accum, Monoid monoid,
                          const Matrix<AT>& A) {
  using ZT = typename Monoid::result_type;
  const Monoid m = monoid;
  const ZT acc = gpu_sim::reduce(A.values(), monoid.identity(),
                                 [m](ZT a, AT b) {
                                   return m(a, static_cast<ZT>(b));
                                 });
  if constexpr (std::is_same_v<Accum, NoAccumulate>)
    s = static_cast<ST>(acc);
  else
    s = static_cast<ST>(accum(s, static_cast<ST>(acc)));
}

// ===========================================================================
// transpose
// ===========================================================================

template <typename CT, typename MObj, typename Accum, typename AT>
void transpose_op(Matrix<CT>& C, const OutputDescriptor<MObj>& out,
                  Accum accum, const Matrix<AT>& A) {
  using detail::LaunchStats;
  gpu_sim::Context& ctx = C.context();
  const IndexType nnz = A.nvals();
  auto keys = pipeline::coo_keys(A);
  // Swap (i, j): key' = j * A.nrows + i.
  gpu_sim::device_vector<IndexType> t_keys(nnz, ctx);
  {
    const IndexType* k = keys.data();
    IndexType* o = t_keys.data();
    const IndexType an = A.ncols();
    const IndexType cn = C.ncols();
    ctx.launch_n(nnz,
                 LaunchStats{3 * nnz, nnz * sizeof(IndexType),
                             nnz * sizeof(IndexType)},
                 [=](std::size_t p) {
                   const IndexType i = k[p] / an;
                   const IndexType j = k[p] % an;
                   o[p] = j * cn + i;
                 });
  }
  gpu_sim::device_vector<CT> t_vals(ctx);
  gpu_sim::transform(A.values(), t_vals,
                     [](AT x) { return static_cast<CT>(x); });
  gpu_sim::sort_by_key(t_keys, t_vals);
  pipeline::write_matrix(C, t_keys, t_vals, out, accum);
}

/// Materialized plain transpose (TransposeView lowering helper).
template <typename T>
Matrix<T> transposed(const Matrix<T>& A) {
  Matrix<T> At(A.ncols(), A.nrows(), A.context());
  transpose_op(At, NoMaskOutputDesc{{}, true}, NoAccumulate{}, A);
  return At;
}

// ===========================================================================
// extract / assign — vectors device-native, matrices via host fallback
// ===========================================================================

template <typename WT, typename MObj, typename Accum, typename UT>
void extract_vec(Vector<WT>& w, const OutputDescriptor<MObj>& out,
                 Accum accum, const Vector<UT>& u, IndexView indices) {
  using detail::LaunchStats;
  gpu_sim::Context& ctx = w.context();
  indices.check_bounds(u.size(), "extract: source index");
  sparse::FusedOpScope scope(sparse::FusedOpKind::kExtract, &w,
                             {&u, detail::mask_addr(out)}, w.size(), ctx);
  if (indices.is_all()) {
    // Every position is indexed, so T̃ is u itself: the epilogue alone
    // reads it in place, with no index array and no copy of w.
    pipeline::write_vector(w, u.values(), u.present(), out, accum);
    return;
  }
  const IndexType n = w.size();
  gpu_sim::device_vector<IndexType> d_idx(indices.array(), ctx);
  gpu_sim::device_vector<WT> t_vals(n, ctx);
  gpu_sim::device_vector<std::uint8_t> t_pres(n, ctx);
  gpu_sim::fill(t_pres, std::uint8_t{0});
  const IndexType* ix = d_idx.data();
  const UT* uvv = u.values().data();
  const std::uint8_t* uvp = u.present().data();
  WT* tv = t_vals.data();
  std::uint8_t* tp = t_pres.data();
  const IndexType m = d_idx.size();
  ctx.launch_n(m,
               LaunchStats{m, m * (sizeof(IndexType) + sizeof(UT) + 1),
                           m * (sizeof(WT) + 1)},
               [=](std::size_t k) {
                 const IndexType src = ix[k];
                 if (uvp[src]) {
                   tv[k] = static_cast<WT>(uvv[src]);
                   tp[k] = 1;
                 }
               });
  pipeline::write_vector(w, t_vals, t_pres, out, accum);
}

template <typename WT, typename MObj, typename Accum, typename UT>
void assign_vec(Vector<WT>& w, const OutputDescriptor<MObj>& out, Accum accum,
                const Vector<UT>& u, IndexView indices) {
  using detail::LaunchStats;
  gpu_sim::Context& ctx = w.context();
  indices.check_bounds(w.size(), "assign: destination index");
  sparse::FusedOpScope scope(sparse::FusedOpKind::kAssign, &w,
                             {&u, detail::mask_addr(out)}, w.size(), ctx);
  if (indices.is_all()) {
    // Every position is indexed, so T̃ is u itself: the epilogue alone
    // reads it in place, with no index array and no copy of w.
    pipeline::write_vector(w, u.values(), u.present(), out, accum);
    return;
  }
  constexpr bool kAccum = !std::is_same_v<Accum, NoAccumulate>;
  // Z starts as w (device copies), subrange overwritten by scatter.
  gpu_sim::device_vector<WT> t_vals = w.values();
  gpu_sim::device_vector<std::uint8_t> t_pres = w.present();
  gpu_sim::device_vector<IndexType> d_idx(indices.array(), ctx);
  const IndexType* ix = d_idx.data();
  const UT* uvv = u.values().data();
  const std::uint8_t* uvp = u.present().data();
  WT* tv = t_vals.data();
  std::uint8_t* tp = t_pres.data();
  const IndexType m = d_idx.size();
  const Accum acc_op = accum;
  ctx.launch_n(m,
               LaunchStats{m,
                           m * (sizeof(IndexType) + sizeof(UT) + sizeof(WT) +
                                2),
                           m * (sizeof(WT) + 1)},
               [=](std::size_t k) {
                 const IndexType dst = ix[k];
                 if (uvp[k]) {
                   const WT uv = static_cast<WT>(uvv[k]);
                   if constexpr (kAccum) {
                     if (tp[dst]) {
                       tv[dst] = static_cast<WT>(acc_op(tv[dst], uv));
                     } else {
                       tv[dst] = uv;
                       tp[dst] = 1;
                     }
                   } else {
                     tv[dst] = uv;
                     tp[dst] = 1;
                   }
                 } else {
                   if constexpr (!kAccum) {
                     tp[dst] = 0;
                     tv[dst] = WT{};
                   }
                 }
               });
  pipeline::write_vector(w, t_vals, t_pres, out, NoAccumulate{});
}

template <typename WT, typename MObj, typename Accum>
void assign_vec_constant(Vector<WT>& w, const OutputDescriptor<MObj>& out,
                         Accum accum, const WT& value, IndexView indices) {
  using detail::LaunchStats;
  gpu_sim::Context& ctx = w.context();
  indices.check_bounds(w.size(), "assign: destination index");
  sparse::FusedOpScope scope(sparse::FusedOpKind::kAssignConstant, &w,
                             {detail::mask_addr(out)}, w.size(), ctx);
  if (indices.is_all()) {
    // The epilogue alone, with T̃ the constant at every position.
    pipeline::write_vector_constant(w, value, out, accum);
    return;
  }
  constexpr bool kAccum = !std::is_same_v<Accum, NoAccumulate>;
  gpu_sim::device_vector<WT> t_vals = w.values();
  gpu_sim::device_vector<std::uint8_t> t_pres = w.present();
  gpu_sim::device_vector<IndexType> d_idx(indices.array(), ctx);
  const IndexType* ix = d_idx.data();
  WT* tv = t_vals.data();
  std::uint8_t* tp = t_pres.data();
  const IndexType m = d_idx.size();
  const WT val = value;
  const Accum acc_op = accum;
  ctx.launch_n(m,
               LaunchStats{m, m * (sizeof(IndexType) + sizeof(WT) + 1),
                           m * (sizeof(WT) + 1)},
               [=](std::size_t k) {
                 const IndexType dst = ix[k];
                 if constexpr (kAccum) {
                   if (tp[dst]) {
                     tv[dst] = static_cast<WT>(acc_op(tv[dst], val));
                     return;
                   }
                 }
                 tv[dst] = val;
                 tp[dst] = 1;
               });
  pipeline::write_vector(w, t_vals, t_pres, out, NoAccumulate{});
}

template <typename WT, typename MObj, typename Accum, typename Pred,
          typename UT>
void select_vec(Vector<WT>& w, const OutputDescriptor<MObj>& out, Accum accum,
                Pred pred, const Vector<UT>& u) {
  using detail::LaunchStats;
  sparse::FusedOpScope scope(sparse::FusedOpKind::kSelect, &w,
                             {&u, detail::mask_addr(out)}, u.size(),
                             w.context());
  gpu_sim::Context& ctx = w.context();
  const IndexType n = u.size();
  gpu_sim::device_vector<UT> t_vals(n, ctx);
  gpu_sim::device_vector<std::uint8_t> t_pres(n, ctx);
  const UT* uvv = u.values().data();
  const std::uint8_t* uvp = u.present().data();
  UT* tv = t_vals.data();
  std::uint8_t* tp = t_pres.data();
  const Pred p = pred;
  ctx.launch_n(n,
               LaunchStats{2 * n, n * (sizeof(UT) + 1),
                           n * (sizeof(UT) + 1)},
               [=](std::size_t i) {
                 if (uvp[i] && p(static_cast<IndexType>(i), uvv[i])) {
                   tv[i] = uvv[i];
                   tp[i] = 1;
                 } else {
                   tp[i] = 0;
                 }
               });
  pipeline::write_vector(w, t_vals, t_pres, out, accum);
}

/// Matrix select: one predicate kernel over the COO expansion, then the
/// kept keys and values are compacted, still sorted, for the write-back.
template <typename CT, typename MObj, typename Accum, typename Pred,
          typename AT>
void select_mat(Matrix<CT>& C, const OutputDescriptor<MObj>& out, Accum accum,
                Pred pred, const Matrix<AT>& A) {
  using detail::LaunchStats;
  gpu_sim::Context& ctx = C.context();
  auto keys = pipeline::coo_keys(A);
  const IndexType nnz = A.nvals();
  gpu_sim::device_vector<std::uint8_t> flags(nnz, ctx);
  const IndexType* k = keys.data();
  const AT* av = A.values().data();
  std::uint8_t* fl = flags.data();
  const IndexType ncols = A.ncols();
  const Pred p = pred;
  ctx.launch_n(nnz,
               LaunchStats{3 * nnz,
                           nnz * (sizeof(IndexType) + sizeof(AT)), nnz},
               [=](std::size_t q) {
                 fl[q] = p(k[q] / ncols, k[q] % ncols, av[q]) ? 1 : 0;
               });
  gpu_sim::device_vector<IndexType> kept_keys(ctx);
  gpu_sim::device_vector<AT> kept_vals(ctx);
  gpu_sim::copy_flagged(keys, flags, kept_keys);
  gpu_sim::copy_flagged(A.values(), flags, kept_vals);
  pipeline::write_matrix(C, kept_keys, kept_vals, out, accum);
}

// --- Host fallbacks (documented substitution: GBTL-CUDA routed rare
// structural ops through the host; every byte of transfer is accounted). ---

template <typename CT, typename MObj, typename Accum, typename AT>
void extract_mat(Matrix<CT>& C, const OutputDescriptor<MObj>& out,
                 Accum accum, const Matrix<AT>& A, IndexView row_indices,
                 IndexView col_indices) {
  auto host_c = detail::download(C);
  const auto host_a = detail::download(A);
  detail::with_seq_output(out, [&](const auto& seq_out) {
    seq_backend::extract_mat(host_c, seq_out, accum, host_a, row_indices,
                             col_indices);
  });
  detail::upload(C, host_c);
}

/// Device-native column gather: one kernel binary-searches @p col within
/// each selected row's CSR segment. (Row gathers via transpose(A) lower to
/// this after the frontend materializes the transpose.) An explicit row
/// list is uploaded; GrB_ALL gathers row k into position k.
template <typename WT, typename MObj, typename Accum, typename AT>
void extract_col(Vector<WT>& w, const OutputDescriptor<MObj>& out,
                 Accum accum, const Matrix<AT>& A, IndexView row_indices,
                 IndexType col) {
  using detail::LaunchStats;
  gpu_sim::Context& ctx = w.context();
  if (col >= A.ncols())
    throw IndexOutOfBoundsException("extract: column index");
  row_indices.check_bounds(A.nrows(), "extract: row index");

  const IndexType m = row_indices.size();
  const bool all = row_indices.is_all();
  gpu_sim::device_vector<IndexType> d_rows =
      all ? gpu_sim::device_vector<IndexType>(ctx)
          : gpu_sim::device_vector<IndexType>(row_indices.array(), ctx);
  gpu_sim::device_vector<WT> t_vals(w.size(), ctx);
  gpu_sim::device_vector<std::uint8_t> t_pres(w.size(), ctx);
  gpu_sim::fill(t_pres, std::uint8_t{0});

  const IndexType* rsel = all ? nullptr : d_rows.data();
  const IndexType* offs = A.row_offsets().data();
  const IndexType* cols = A.col_indices().data();
  const AT* vals = A.values().data();
  WT* tv = t_vals.data();
  std::uint8_t* tp = t_pres.data();
  const std::uint64_t index_reads = all ? 7 : 8;
  ctx.launch_n(m,
               LaunchStats{8 * m,
                           m * (index_reads * sizeof(IndexType) + sizeof(AT)),
                           m * (sizeof(WT) + 1)},
               [=](std::size_t k) {
                 const IndexType r = rsel != nullptr ? rsel[k] : k;
                 IndexType lo = offs[r], hi = offs[r + 1];
                 while (lo < hi) {
                   const IndexType mid = lo + (hi - lo) / 2;
                   if (cols[mid] < col)
                     lo = mid + 1;
                   else
                     hi = mid;
                 }
                 if (lo < offs[r + 1] && cols[lo] == col) {
                   tv[k] = static_cast<WT>(vals[lo]);
                   tp[k] = 1;
                 }
               });
  pipeline::write_vector(w, t_vals, t_pres, out, accum);
}

template <typename CT, typename MObj, typename Accum, typename AT>
void assign_mat(Matrix<CT>& C, const OutputDescriptor<MObj>& out, Accum accum,
                const Matrix<AT>& A, IndexView row_indices,
                IndexView col_indices) {
  auto host_c = detail::download(C);
  const auto host_a = detail::download(A);
  detail::with_seq_output(out, [&](const auto& seq_out) {
    seq_backend::assign_mat(host_c, seq_out, accum, host_a, row_indices,
                            col_indices);
  });
  detail::upload(C, host_c);
}

template <typename CT, typename MObj, typename Accum>
void assign_mat_constant(Matrix<CT>& C, const OutputDescriptor<MObj>& out,
                         Accum accum, const CT& value, IndexView row_indices,
                         IndexView col_indices) {
  // Device fast path for the dominant idiom (e.g. level stamping in
  // batched BFS): constant assign over GrB_ALL × GrB_ALL under a
  // non-complemented mask.
  // The allowed positions are exactly the mask's (truthy) entries, so T̃'s
  // keys come straight off the mask's structure — no host round-trip.
  if constexpr (!std::is_same_v<MObj, EmptyMaskObj> &&
                std::is_same_v<Accum, NoAccumulate>) {
    if (out.mask.mask != nullptr && !out.mask.complement &&
        row_indices.is_all() && col_indices.is_all()) {
      gpu_sim::Context& ctx = C.context();
      auto keys = pipeline::coo_keys(*out.mask.mask);
      if (!out.mask.structural) {
        using MV = typename MObj::ScalarType;
        gpu_sim::device_vector<std::uint8_t> flags(ctx);
        gpu_sim::transform(out.mask.mask->values(), flags, [](MV v) {
          return static_cast<std::uint8_t>(static_cast<bool>(v));
        });
        gpu_sim::device_vector<IndexType> kept(ctx);
        gpu_sim::copy_flagged(keys, flags, kept);
        keys = std::move(kept);
      }
      gpu_sim::device_vector<CT> vals(keys.size(), ctx);
      gpu_sim::fill(vals, value);
      pipeline::write_matrix(C, keys, vals, out, NoAccumulate{});
      return;
    }
  }
  auto host_c = detail::download(C);
  detail::with_seq_output(out, [&](const auto& seq_out) {
    seq_backend::assign_mat_constant(host_c, seq_out, accum, value,
                                     row_indices, col_indices);
  });
  detail::upload(C, host_c);
}

template <typename CT, typename MObj, typename Accum, typename Op,
          typename AT, typename BT>
void kronecker(Matrix<CT>& C, const OutputDescriptor<MObj>& out, Accum accum,
               Op op, const Matrix<AT>& A, const Matrix<BT>& B) {
  auto host_c = detail::download(C);
  const auto host_a = detail::download(A);
  const auto host_b = detail::download(B);
  detail::with_seq_output(out, [&](const auto& seq_out) {
    seq_backend::kronecker(host_c, seq_out, accum, op, host_a, host_b);
  });
  detail::upload(C, host_c);
}

}  // namespace grb::gpu_backend
