#pragma once

/// @file bitmap.hpp
/// Bit-packed boolean storage: `BitMatrix` (row-major 64-bit-word bitmap
/// adjacency, one cache-line-aligned word row per vertex block) and
/// `BitVector` (dense word bitmap with a cached popcount). The Bit format
/// stores *structure-only* boolean data — every stored entry is one bit —
/// which is exactly the payload of boolean-semiring workloads: BFS
/// frontiers, visited masks, and the 1-valued lower triangle fed to
/// triangle counting (Bit-GraphBLAS's observation; see PAPERS.md).
///
/// Semantics carry TWO bitplanes per matrix/vector:
///   - the *structure* plane: one bit per stored entry, and
///   - the *truth* plane: one bit per stored entry whose value is truthy.
/// GraphBLAS distinguishes "stored false" from "absent" — a CSR matrix can
/// hold explicit zeros, and `LogicalSemiring` folds over them must yield a
/// present-but-false output. Truth is a subset of structure, so a truth hit
/// implies a structure hit (the license for word-scan early exit). When
/// every stored value is truthy (`all_truthy`, the common case for graphs
/// built from 1-valued edges) the truth plane aliases the structure plane
/// and the footprint halves.
///
/// Word kernels over these planes (AND/OR + popcount/ffs) live in
/// backend_gpu/bit_ops.hpp, the only backend that selects the Bit format;
/// this header owns the formats, CSR conversions, the `GBTL_BIT_MODE` knob,
/// and the cost model the selectors use to propose/ratify the Bit format.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "gpu_sim/device_properties.hpp"
#include "sparse/formats.hpp"

namespace sparse {

// ---------------------------------------------------------------------------
// Word geometry
// ---------------------------------------------------------------------------

inline constexpr std::uint64_t kBitWordBits = 64;

/// Words per logical row, before alignment.
inline constexpr Index bit_words(Index n) {
  return (n + kBitWordBits - 1) / kBitWordBits;
}

/// Row stride in words, rounded up to a 64-byte cache line (8 words) so
/// every vertex block's word row starts cache-line-aligned and two
/// consecutive rows never share a line (also the invariant the CpuPar
/// kernels lean on: word chunks on 8-word boundaries never split a row's
/// cache line between workers).
inline constexpr Index kBitRowAlignWords = 8;
inline constexpr Index bit_row_stride(Index n) {
  const Index w = bit_words(n);
  return ((w + kBitRowAlignWords - 1) / kBitRowAlignWords) * kBitRowAlignWords;
}

inline int bit_popcount(std::uint64_t w) {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_popcountll(w);
#else
  int c = 0;
  while (w) {
    w &= w - 1;
    ++c;
  }
  return c;
#endif
}

/// Index of the lowest set bit (w must be nonzero) — the "ffs" half of the
/// frontier-extraction idiom: AND two word rows, then peel set bits.
inline unsigned bit_ffs(std::uint64_t w) {
#if defined(__GNUC__) || defined(__clang__)
  return static_cast<unsigned>(__builtin_ctzll(w));
#else
  unsigned i = 0;
  while (!(w & 1)) {
    w >>= 1;
    ++i;
  }
  return i;
#endif
}

/// Mask keeping only the first n%64 bits of the last word of an n-bit row
/// (all-ones when n is a word multiple). Planes maintain the invariant that
/// bits past n are zero, so AND/OR/popcount never see phantom columns.
inline constexpr std::uint64_t bit_tail_mask(Index n) {
  const Index r = n % kBitWordBits;
  return r == 0 ? ~std::uint64_t{0} : ((std::uint64_t{1} << r) - 1);
}

// ---------------------------------------------------------------------------
// BitVector: dense word bitmap with cached popcount
// ---------------------------------------------------------------------------

/// Dense bitmap over [0, n): one bit per index, plus a popcount cached per
/// dirty epoch exactly like backend_gpu::Vector's nvals cache — any
/// mutating access invalidates, the next popcount() recounts once.
class BitVector {
 public:
  BitVector() = default;
  explicit BitVector(Index n) : n_(n), words_(bit_words(n), 0) {}

  Index size() const { return n_; }
  Index word_count() const { return static_cast<Index>(words_.size()); }

  const std::uint64_t* words() const { return words_.data(); }
  /// Mutable word access is a structural write: the popcount cache drops.
  std::uint64_t* mutable_words() {
    count_valid_ = false;
    return words_.data();
  }

  bool test(Index i) const {
    return (words_[i / kBitWordBits] >> (i % kBitWordBits)) & 1;
  }
  void set(Index i) {
    count_valid_ = false;
    words_[i / kBitWordBits] |= std::uint64_t{1} << (i % kBitWordBits);
  }
  void reset(Index i) {
    count_valid_ = false;
    words_[i / kBitWordBits] &= ~(std::uint64_t{1} << (i % kBitWordBits));
  }
  void clear() {
    std::fill(words_.begin(), words_.end(), 0);
    count_ = 0;
    count_valid_ = true;
  }

  /// Set-bit count, cached until the next mutating access.
  Index popcount() const {
    if (!count_valid_) {
      Index c = 0;
      for (const std::uint64_t w : words_) c += bit_popcount(w);
      count_ = c;
      count_valid_ = true;
    }
    return count_;
  }
  bool popcount_cached() const { return count_valid_; }

 private:
  Index n_ = 0;
  std::vector<std::uint64_t> words_;
  mutable Index count_ = 0;
  mutable bool count_valid_ = true;  // a fresh all-zero bitmap has count 0
};

// ---------------------------------------------------------------------------
// BitMatrix: row-major word bitmap adjacency, two planes
// ---------------------------------------------------------------------------

class BitMatrix {
 public:
  BitMatrix() = default;
  BitMatrix(Index nrows, Index ncols, bool all_truthy = true)
      : nrows_(nrows),
        ncols_(ncols),
        stride_(bit_row_stride(ncols)),
        all_truthy_(all_truthy),
        structure_(nrows * bit_row_stride(ncols), 0),
        truth_(all_truthy ? 0 : nrows * bit_row_stride(ncols), 0) {}

  Index nrows() const { return nrows_; }
  Index ncols() const { return ncols_; }
  Index stride() const { return stride_; }
  bool all_truthy() const { return all_truthy_; }
  Index word_count() const {
    return static_cast<Index>(structure_.size() + truth_.size());
  }

  const std::uint64_t* structure_row(Index i) const {
    return structure_.data() + i * stride_;
  }
  std::uint64_t* mutable_structure_row(Index i) {
    return structure_.data() + i * stride_;
  }
  /// Truth plane; aliases the structure plane when all stored values are
  /// truthy (the half-footprint fast path).
  const std::uint64_t* truth_row(Index i) const {
    return (all_truthy_ ? structure_.data() : truth_.data()) + i * stride_;
  }
  std::uint64_t* mutable_truth_row(Index i) {
    return (all_truthy_ ? structure_.data() : truth_.data()) + i * stride_;
  }

  bool test(Index i, Index j) const {
    return (structure_row(i)[j / kBitWordBits] >> (j % kBitWordBits)) & 1;
  }
  bool test_truth(Index i, Index j) const {
    return (truth_row(i)[j / kBitWordBits] >> (j % kBitWordBits)) & 1;
  }

  /// Stored-entry count: popcount of the structure plane.
  Index nnz() const {
    Index c = 0;
    for (Index i = 0; i < nrows_; ++i) {
      const std::uint64_t* row = structure_row(i);
      for (Index w = 0; w < bit_words(ncols_); ++w) c += bit_popcount(row[w]);
    }
    return c;
  }

 private:
  Index nrows_ = 0;
  Index ncols_ = 0;
  Index stride_ = 0;
  bool all_truthy_ = true;
  std::vector<std::uint64_t> structure_;
  std::vector<std::uint64_t> truth_;  // empty when all_truthy_
};

// ---------------------------------------------------------------------------
// CSR <-> Bit conversions (host reference; the device conversion in
// backend_gpu/matrix.hpp follows the same layout bit for bit)
// ---------------------------------------------------------------------------

/// Pack a CSR matrix into bitmap planes. Truthiness is `v != T{}` — the
/// same test `LogicalSemiring`'s `a && b` applies — so a stored false
/// lands in structure but not truth.
template <typename T>
BitMatrix csr_to_bits(const Csr<T>& a) {
  bool all_truthy = true;
  for (const T& v : a.values)
    if (v == T{}) {
      all_truthy = false;
      break;
    }
  BitMatrix bm(a.nrows, a.ncols, all_truthy);
  for (Index i = 0; i < a.nrows; ++i) {
    std::uint64_t* srow = bm.mutable_structure_row(i);
    std::uint64_t* trow = all_truthy ? nullptr : bm.mutable_truth_row(i);
    for (Index k = a.row_offsets[i]; k < a.row_offsets[i + 1]; ++k) {
      const Index j = a.col_indices[k];
      const std::uint64_t bit = std::uint64_t{1} << (j % kBitWordBits);
      srow[j / kBitWordBits] |= bit;
      if (trow && a.values[k] != T{}) trow[j / kBitWordBits] |= bit;
    }
  }
  return bm;
}

/// Unpack back to CSR: structure bits become stored entries, valued
/// T(1)/T(0) from the truth plane. For boolean matrices (values already in
/// {0,1}) the round trip CSR -> Bit -> CSR is the identity — the property
/// tests enforce it.
template <typename T>
Csr<T> bits_to_csr(const BitMatrix& bm) {
  Csr<T> out;
  out.nrows = bm.nrows();
  out.ncols = bm.ncols();
  out.row_offsets.assign(bm.nrows() + 1, 0);
  for (Index i = 0; i < bm.nrows(); ++i) {
    const std::uint64_t* srow = bm.structure_row(i);
    const std::uint64_t* trow = bm.truth_row(i);
    for (Index w = 0; w < bit_words(bm.ncols()); ++w) {
      std::uint64_t word = srow[w];
      while (word) {
        const unsigned b = bit_ffs(word);
        word &= word - 1;
        const Index j = w * kBitWordBits + b;
        out.col_indices.push_back(j);
        out.values.push_back(((trow[w] >> b) & 1) ? T(1) : T(0));
      }
    }
    out.row_offsets[i + 1] = static_cast<Index>(out.col_indices.size());
  }
  return out;
}

// ---------------------------------------------------------------------------
// GBTL_BIT_MODE: Auto / Force / Off, pinned via env or RAII guard
// ---------------------------------------------------------------------------

enum class BitMode {
  Auto,   ///< propose on boolean-saturating semirings, ratify by cost
  Force,  ///< take the Bit path wherever it is exact (tests / benches)
  Off     ///< never leave CSR
};

inline BitMode bit_mode_from_env() {
  if (const char* s = std::getenv("GBTL_BIT_MODE")) {
    if (std::strcmp(s, "force") == 0) return BitMode::Force;
    if (std::strcmp(s, "off") == 0) return BitMode::Off;
    if (std::strcmp(s, "auto") == 0) return BitMode::Auto;
  }
  return BitMode::Auto;
}

/// Process-wide mode, seeded once from GBTL_BIT_MODE (see docs/env_vars.md).
inline BitMode& bit_mode() {
  static BitMode mode = bit_mode_from_env();
  return mode;
}

class BitModeGuard {
 public:
  explicit BitModeGuard(BitMode mode) : saved_(bit_mode()) {
    bit_mode() = mode;
  }
  ~BitModeGuard() { bit_mode() = saved_; }
  BitModeGuard(const BitModeGuard&) = delete;
  BitModeGuard& operator=(const BitModeGuard&) = delete;

 private:
  BitMode saved_;
};

// ---------------------------------------------------------------------------
// Cost model: word-granularity traffic
// ---------------------------------------------------------------------------

/// Density floor below which the Bit proposal is not even priced.
///
/// Derivation (docs/traversal_direction.md records the same argument): a
/// CSR pull row scans stored in-edges at ~18 bytes each (8-byte source
/// index + 8-byte value + presence/value probes); a Bit pull row scans
/// words at 8 bytes per plane pair, `ceil(n/64)` of them. Early exit
/// cancels out of the comparison — both scans stop at the same logical
/// position (the first truthy frontier neighbour), each having covered the
/// same prefix fraction of its representation — so Bit wins by the
/// *per-row* ratio 18·deg / (8·words) ≈ 144·density. The breakeven is
/// density ≈ 1/144; 1/128 adds a margin for the extra bitmap-build
/// launches, and the roofline ratification makes the final call anyway.
inline constexpr double kBitDensityThreshold = 1.0 / 128.0;

/// Shape summary for pricing a Bit-format traversal (vxm pull over the
/// transpose bit view / mxv gather over the row view).
struct BitTraversalShape {
  std::uint64_t dest_rows = 0;      ///< rows the word gather scans
  std::uint64_t n = 0;              ///< input-vector length (bits per row)
  std::uint64_t nnz = 0;            ///< matrix stored entries
  std::uint64_t frontier_rows = 0;  ///< present entries of the input vector
  std::uint64_t planes = 1;         ///< matrix planes (1 if all-truthy)
  bool view_cached = false;         ///< bit view already materialized?
};

/// Expected words scanned per row under early exit: truthy hits are
/// approximately uniform over the row's words, so the scan covers
/// words / (hits + 1) of them on average (+1: the terminating hit's word),
/// clamped to the full row when hits are rare.
inline double expected_bit_scan_words(double words, double expected_hits) {
  if (expected_hits <= 0.0) return words;
  const double expected = words / (expected_hits + 1.0) + 1.0;
  return expected < words ? expected : words;
}

/// Modeled bytes for one Bit-format traversal: per *read* matrix word the
/// view planes (8 bytes each) — the gather skips frontier words that are
/// all-zero without touching the matrix row, so a thin frontier caps the
/// per-row scan at its populated word count, not the full width — plus the
/// block-shared frontier bitmaps once, per destination row one word of the
/// destination bitmap and the t write, plus the frontier/destination
/// bitmap builds (word-granularity: ceil(n/64)·8 per plane).
inline std::uint64_t estimated_bit_traversal_bytes(
    const BitTraversalShape& s) {
  const double words = static_cast<double>(bit_words(s.n));
  // At most one populated frontier word per present entry.
  const double active_words =
      std::min(words, static_cast<double>(s.frontier_rows));
  const double mean_deg =
      s.n > 0 ? static_cast<double>(s.nnz) / static_cast<double>(s.n) : 0.0;
  const double frontier_fill =
      s.n > 0 ? static_cast<double>(s.frontier_rows) /
                    static_cast<double>(s.n)
              : 0.0;
  const double hits = mean_deg * frontier_fill;  // expected truthy/row
  const double scan = expected_bit_scan_words(active_words, hits);
  const double per_row =
      scan * 8.0 * static_cast<double>(s.planes) + 8.0 + 9.0;
  const std::uint64_t builds =
      static_cast<std::uint64_t>(words) * 8 * 2 +  // frontier planes
      static_cast<std::uint64_t>(words) * 8 +      // destination bitmap
      static_cast<std::uint64_t>(words) * 16 +     // shared frontier read
      s.n * 2;                                     // vector presence+value read
  return static_cast<std::uint64_t>(
             per_row * static_cast<double>(s.dest_rows)) +
         builds;
}

/// Roofline time for the Bit traversal: three setup launches (frontier
/// bitmap, destination bitmap, gather) over the modeled word traffic.
inline double estimated_bit_traversal_time(
    const BitTraversalShape& s, const gpu_sim::DeviceProperties& props) {
  const std::uint64_t bytes = estimated_bit_traversal_bytes(s);
  const std::uint64_t ops = 2 * (bytes / 8 + 1);
  // modeled_kernel_time charges one launch; the two bitmap builds add two.
  return 2 * props.kernel_launch_overhead_s +
         gpu_sim::modeled_kernel_time(props,
                                      gpu_sim::LaunchStats{ops, bytes, 0});
}

/// Modeled cost of materializing one bit-view orientation from CSR: read
/// the CSR structure (offsets + column indices + values for the truthiness
/// probe), scatter one word per entry, zero-fill the planes.
inline double estimated_bit_build_time(
    std::uint64_t nrows, std::uint64_t ncols, std::uint64_t nnz,
    std::uint64_t planes, std::size_t value_bytes,
    const gpu_sim::DeviceProperties& props) {
  const std::uint64_t plane_bytes = nrows * bit_row_stride(ncols) * 8;
  const gpu_sim::LaunchStats stats{
      2 * nnz + nrows,
      (nrows + 1 + nnz) * 8 + nnz * value_bytes + nnz * 8,
      plane_bytes * planes + nnz * 8};
  return gpu_sim::modeled_kernel_time(props, stats);
}

/// Propose/ratify for traversal: Force takes the Bit path wherever it is
/// exact, Off never does, Auto requires (a) density above the word-payoff
/// floor, (b) a live frontier, and (c) the word-granularity roofline
/// estimate (plus the build, when the view is cold) to beat the CSR
/// engine's own estimate for the direction it would have run. Property
/// tested: Auto never returns true when csr_time_s is cheaper.
inline bool select_bit_traversal(BitMode mode, const BitTraversalShape& s,
                                 double csr_time_s,
                                 const gpu_sim::DeviceProperties& props,
                                 double* bit_time_out = nullptr) {
  if (mode == BitMode::Off) return false;
  if (mode == BitMode::Force) return true;
  if (s.n == 0 || s.nnz == 0 || s.frontier_rows == 0) return false;
  const double density = static_cast<double>(s.nnz) /
                         (static_cast<double>(s.n) *
                          static_cast<double>(s.dest_rows > 0 ? s.dest_rows
                                                              : s.n));
  if (density < kBitDensityThreshold) return false;
  double bit_time = estimated_bit_traversal_time(s, props);
  if (!s.view_cached)
    bit_time += estimated_bit_build_time(s.dest_rows > 0 ? s.dest_rows : s.n,
                                         s.n, s.nnz, s.planes, 8, props);
  if (bit_time_out) *bit_time_out = bit_time;
  return bit_time < csr_time_s;
}

/// Modeled bytes for the word-wise AND-popcount masked mxm: per allowed
/// output entry both operands' word rows plus the mask entry and the
/// C write.
inline std::uint64_t estimated_bit_mxm_bytes(std::uint64_t allowed_entries,
                                             std::uint64_t inner_dim) {
  const std::uint64_t words = bit_words(inner_dim);
  return allowed_entries * (2 * words * 8 + 3 * 8);
}

inline double estimated_bit_mxm_time(std::uint64_t allowed_entries,
                                     std::uint64_t inner_dim,
                                     const gpu_sim::DeviceProperties& props) {
  const std::uint64_t bytes =
      estimated_bit_mxm_bytes(allowed_entries, inner_dim);
  return gpu_sim::modeled_kernel_time(
      props, gpu_sim::LaunchStats{2 * (bytes / 8 + 1), bytes, 0});
}

/// Propose/ratify for the masked-mxm popcount path. Auto requires both
/// operand densities above the floor and the word-granularity estimate
/// (plus cold-view builds) to beat the SpGEMM engine's own estimate;
/// Force skips the pricing but NOT the exactness gates (the caller only
/// consults this once the semiring/mask/value checks have passed).
inline bool select_bit_mxm(BitMode mode, std::uint64_t allowed_entries,
                           std::uint64_t inner_dim, std::uint64_t nnz_a,
                           std::uint64_t nnz_b, std::uint64_t nrows_a,
                           std::uint64_t ncols_b, bool views_cached,
                           double csr_time_s,
                           const gpu_sim::DeviceProperties& props) {
  if (mode == BitMode::Off) return false;
  if (mode == BitMode::Force) return true;
  if (inner_dim == 0 || allowed_entries == 0) return false;
  const double cells_a = static_cast<double>(nrows_a) *
                         static_cast<double>(inner_dim);
  const double cells_b = static_cast<double>(inner_dim) *
                         static_cast<double>(ncols_b);
  if (cells_a <= 0.0 || cells_b <= 0.0) return false;
  if (static_cast<double>(nnz_a) / cells_a < kBitDensityThreshold ||
      static_cast<double>(nnz_b) / cells_b < kBitDensityThreshold)
    return false;
  double bit_time = estimated_bit_mxm_time(allowed_entries, inner_dim, props);
  if (!views_cached)
    bit_time +=
        estimated_bit_build_time(nrows_a, inner_dim, nnz_a, 1, 8, props) +
        estimated_bit_build_time(ncols_b, inner_dim, nnz_b, 1, 8, props);
  return bit_time < csr_time_s;
}

}  // namespace sparse
