#pragma once

/// @file backend_gpu/bit_ops.hpp
/// Word-granularity device kernels over the Bit format
/// (sparse/bitmap.hpp): bitmap packing for vectors and masks, the
/// AND/OR gather that serves mxv and pull-direction vxm on
/// `LogicalSemiring`, and the AND-popcount masked-mxm path feeding
/// triangle counting. All kernels traffic in 64-bit words — the declared
/// LaunchStats charge `8 · words` bytes per plane, and the gathers account
/// post hoc for the words they actually touched (the CSR pull kernel's
/// exact-accounting precedent). The CPU backends have no Bit path;
/// tests/test_bitmap.cpp checks these kernels against the CSR engine.

#include <cstdint>

#include "backend_gpu/matrix.hpp"
#include "backend_gpu/vector.hpp"
#include "gbtl/algebra.hpp"
#include "sparse/bitmap.hpp"
#include "sparse/output_pipeline.hpp"

namespace grb::gpu_backend::detail {

/// The Bit traversal path is exact only for the boolean or-and semiring:
/// its fold is order-independent (OR), its products are truthiness tests
/// (AND), and its stored output values are confined to {0, 1} — precisely
/// what the two bitplanes encode.
template <typename SR>
inline constexpr bool is_logical_semiring_v =
    std::is_same_v<SR, grb::LogicalSemiring<typename SR::result_type>>;

/// Pack a vector's presence flags and value truthiness into two word
/// bitmaps (truth ⊆ presence). One launch over the word count; each word
/// gathers its 64 lanes.
template <typename UT>
void build_vector_bits(gpu_sim::Context& ctx, const Vector<UT>& u,
                       gpu_sim::device_vector<std::uint64_t>& pres_words,
                       gpu_sim::device_vector<std::uint64_t>& truth_words) {
  const IndexType n = u.size();
  const IndexType nwords = static_cast<IndexType>(sparse::bit_words(n));
  pres_words = gpu_sim::device_vector<std::uint64_t>(nwords, ctx);
  truth_words = gpu_sim::device_vector<std::uint64_t>(nwords, ctx);
  const std::uint8_t* up = u.present().data();
  const UT* uv = u.values().data();
  std::uint64_t* pw = pres_words.data();
  std::uint64_t* tw = truth_words.data();
  ctx.launch_n(nwords,
               gpu_sim::LaunchStats{2 * n, n * (1 + sizeof(UT)), nwords * 16},
               [=](std::size_t w) {
                 std::uint64_t pword = 0, tword = 0;
                 const IndexType base =
                     static_cast<IndexType>(w) * sparse::kBitWordBits;
                 const IndexType end =
                     std::min<IndexType>(base + sparse::kBitWordBits, n);
                 for (IndexType i = base; i < end; ++i) {
                   if (!up[i]) continue;
                   const std::uint64_t bit = std::uint64_t{1} << (i - base);
                   pword |= bit;
                   if (uv[i] != UT{}) tword |= bit;
                 }
                 pw[w] = pword;
                 tw[w] = tword;
               });
}

/// Pack mask-allowed destinations into a word bitmap — the masked apply as
/// a word op. Reuses the byte-flag lowering (complement / structural /
/// no-mask handling) and packs 64 flags per word.
template <typename MObj>
gpu_sim::device_vector<std::uint64_t> build_mask_bits(
    gpu_sim::Context& ctx, const OutputDescriptor<MObj>& out, IndexType n) {
  auto flags = pipeline::vector_mask_flags(ctx, out.mask, n);
  const IndexType nwords = static_cast<IndexType>(sparse::bit_words(n));
  gpu_sim::device_vector<std::uint64_t> words(nwords, ctx);
  const std::uint8_t* f = flags.data();
  std::uint64_t* wv = words.data();
  ctx.launch_n(nwords, gpu_sim::LaunchStats{n, n, nwords * 8},
               [=](std::size_t w) {
                 std::uint64_t word = 0;
                 const IndexType base =
                     static_cast<IndexType>(w) * sparse::kBitWordBits;
                 const IndexType end =
                     std::min<IndexType>(base + sparse::kBitWordBits, n);
                 for (IndexType i = base; i < end; ++i)
                   if (f[i]) word |= std::uint64_t{1} << (i - base);
                 wv[w] = word;
               });
  return words;
}

/// The word gather at the heart of the Bit traversal: for each destination
/// row (extracted from the destination bitmap by ffs, or all rows when
/// dwords is null), AND the view's word row against the frontier's
/// presence/truth bitmaps. Zero frontier words are skipped without reading
/// the matrix row at all — `srow & 0` can contribute to neither plane, and
/// the frontier bitmap is block-shared on real hardware (a few hundred
/// words serving every row), so a thin frontier costs each row only its
/// populated words, not the full width. A truth hit saturates the OR
/// fold — truth ⊆ structure, so presence is implied and the scan exits the
/// row early (counted with the pull kernel's early-exit rows). A
/// structure-only hit cannot exit: a later word may still carry a truth
/// hit that flips the output value from stored-false to true.
///
/// Runs serially in the simulation (one thread per destination row on real
/// hardware) and accounts post hoc for the words actually touched:
/// per read matrix word the view planes, once overall the frontier bitmaps
/// (shared), per destination its bitmap word, per written output the
/// value + presence.
template <typename ZT>
void bit_gather(gpu_sim::Context& ctx,
                const std::uint64_t* view_structure,
                const std::uint64_t* view_truth, IndexType stride,
                bool view_all_truthy, IndexType dest_rows, IndexType width,
                const std::uint64_t* upres, const std::uint64_t* utruth,
                const std::uint64_t* dwords, ZT* tv, std::uint8_t* tp) {
  const IndexType wwords = static_cast<IndexType>(sparse::bit_words(width));
  const std::uint64_t planes = view_all_truthy ? 1 : 2;
  std::uint64_t words_touched = 0, wrote = 0, early_rows = 0, visited = 0;
  const IndexType dest_words =
      static_cast<IndexType>(sparse::bit_words(dest_rows));
  for (IndexType dw = 0; dw < dest_words; ++dw) {
    std::uint64_t dword =
        dwords ? dwords[dw] : (dw + 1 < dest_words
                                   ? ~std::uint64_t{0}
                                   : sparse::bit_tail_mask(dest_rows));
    while (dword) {
      const IndexType j = dw * sparse::kBitWordBits + sparse::bit_ffs(dword);
      dword &= dword - 1;
      ++visited;
      const std::uint64_t* srow = view_structure + j * stride;
      const std::uint64_t* trow = view_truth + j * stride;
      bool pres = false, truth = false;
      IndexType w = 0;
      for (; w < wwords; ++w) {
        const std::uint64_t uw = upres[w];
        if (uw == 0) continue;  // empty frontier word: matrix row unread
        ++words_touched;
        if (srow[w] & uw) pres = true;
        if (trow[w] & utruth[w]) {
          truth = true;
          ++w;
          break;
        }
      }
      if (w < wwords) ++early_rows;
      if (pres) {
        tv[j] = static_cast<ZT>(truth ? 1 : 0);
        tp[j] = 1;
        ++wrote;
      }
    }
  }
  ctx.account_kernel(gpu_sim::LaunchStats{
      2 * words_touched + visited,
      dest_words * 8 + wwords * 16 + words_touched * 8 * planes,
      wrote * (sizeof(ZT) + 1)});
  ctx.note_bit_selection(words_touched);
  ctx.note_pull_early_exit_rows(early_rows);
}

/// Word-wise AND-popcount masked mxm: for each mask-allowed (i, j),
/// C(i, j) = popcount(rowbits_A(i) & rowbits_Bᵀ(j)) — the number of shared
/// inner-dimension neighbours, which equals the arithmetic-semiring sum of
/// products when every stored value is 1 (the caller's exactness gate).
/// Zero counts are dropped: no overlapping pair means no product, so the
/// entry is absent by GraphBLAS semantics, matching the CSR engines.
/// Emits (flattened key, value) pairs in ascending (i, j) order, ready for
/// pipeline::write_matrix.
template <typename ZT, typename MV>
void bit_mxm_popcount(gpu_sim::Context& ctx, const std::uint64_t* arows,
                      IndexType astride, const std::uint64_t* btrows,
                      IndexType bstride, IndexType inner_dim,
                      const IndexType* moffs, const IndexType* mcols,
                      const MV* mvals, bool structural, IndexType nrows,
                      IndexType c_ncols,
                      gpu_sim::device_vector<IndexType>& u_keys,
                      gpu_sim::device_vector<ZT>& u_vals) {
  const IndexType kwords =
      static_cast<IndexType>(sparse::bit_words(inner_dim));
  const IndexType m_nnz = moffs[nrows];
  u_keys = gpu_sim::device_vector<IndexType>(m_nnz, ctx);
  u_vals = gpu_sim::device_vector<ZT>(m_nnz, ctx);
  IndexType* ok = u_keys.data();
  ZT* ov = u_vals.data();
  std::uint64_t out = 0, allowed = 0;
  for (IndexType i = 0; i < nrows; ++i) {
    const std::uint64_t* arow = arows + i * astride;
    for (IndexType q = moffs[i]; q < moffs[i + 1]; ++q) {
      if (!(structural || static_cast<bool>(mvals[q]))) continue;
      ++allowed;
      const IndexType j = mcols[q];
      const std::uint64_t* brow = btrows + j * bstride;
      std::uint64_t count = 0;
      for (IndexType w = 0; w < kwords; ++w)
        count += sparse::bit_popcount(arow[w] & brow[w]);
      if (count == 0) continue;
      ok[out] = i * c_ncols + j;
      ov[out] = static_cast<ZT>(count);
      ++out;
    }
  }
  u_keys.resize(static_cast<IndexType>(out));
  u_vals.resize(static_cast<IndexType>(out));
  const std::uint64_t words_touched = allowed * 2 * kwords;
  ctx.account_kernel(gpu_sim::LaunchStats{
      2 * words_touched + m_nnz,
      m_nnz * (sizeof(IndexType) + sizeof(MV)) +
          (nrows + 1) * sizeof(IndexType) + words_touched * 8,
      out * (sizeof(IndexType) + sizeof(ZT))});
  ctx.note_bit_selection(words_touched);
}

}  // namespace grb::gpu_backend::detail
