/// SpGEMM edge-case battery: shapes chosen to stress one boundary of the
/// adaptive engine at a time — a dense row among hyper-sparse rows (one
/// long-bin row dominating the expansion), a B whose referenced rows are
/// all empty (zero products despite nonzero operands), a single-column B
/// (maximum compression: every row folds to one output), row FLOPs pinned
/// to each load-balancing bin boundary, and hash tables run at a forced
/// worst-case 1.0 load factor, both unmasked (table exactly full at
/// completion) and mask-seeded (table entirely pre-filled with seeds).
/// Plus direct unit tests of the symbolic analysis, the table sizing, the
/// 64-bit overflow guard, and the selector's propose-then-ratify rules.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "gbtl/gbtl.hpp"
#include "sparse/spgemm_select.hpp"

namespace {

using grb::IndexArrayType;
using grb::IndexType;
using LoadTargetGuard =
    gpu_sim::KnobGuard<sparse::spgemm_hash_load_target_knob>;

struct Coo {
  IndexType nr = 0, nc = 0;
  IndexArrayType r, c;
  std::vector<double> v;
  void add(IndexType i, IndexType j, double val) {
    r.push_back(i);
    c.push_back(j);
    v.push_back(val);
  }
};

template <typename Tag>
grb::Matrix<double, Tag> to_matrix(const Coo& m) {
  grb::Matrix<double, Tag> out(m.nr, m.nc);
  if (!m.v.empty()) out.build(m.r, m.c, m.v);
  return out;
}

/// Sequential-backend reference product, then the GPU backend under every
/// strategy must match it tuple-for-tuple.
void expect_all_strategies_match(const Coo& a, const Coo& b) {
  grb::Matrix<double, grb::Sequential> want(a.nr, b.nc);
  grb::mxm(want, grb::NoMask{}, grb::NoAccumulate{},
           grb::ArithmeticSemiring<double>{}, to_matrix<grb::Sequential>(a),
           to_matrix<grb::Sequential>(b));
  IndexArrayType wr, wc;
  std::vector<double> wv;
  want.extractTuples(wr, wc, wv);

  const auto ga = to_matrix<grb::GpuSim>(a);
  const auto gb = to_matrix<grb::GpuSim>(b);
  for (const auto mode : {sparse::SpgemmMode::Esc, sparse::SpgemmMode::Hash,
                          sparse::SpgemmMode::Auto}) {
    sparse::SpgemmModeGuard guard(mode);
    grb::Matrix<double, grb::GpuSim> c(a.nr, b.nc);
    grb::mxm(c, grb::NoMask{}, grb::NoAccumulate{},
             grb::ArithmeticSemiring<double>{}, ga, gb);
    IndexArrayType cr, cc;
    std::vector<double> cv;
    c.extractTuples(cr, cc, cv);
    const char* label = mode == sparse::SpgemmMode::Esc    ? "esc"
                        : mode == sparse::SpgemmMode::Hash ? "hash"
                                                           : "auto";
    EXPECT_EQ(cr, wr) << label;
    EXPECT_EQ(cc, wc) << label;
    EXPECT_EQ(cv, wv) << label;
  }
}

// --------------------------------------------------------------------------
// Shape edge cases
// --------------------------------------------------------------------------

// One dense row among hyper-sparse rows: row 0 of A holds all 64 columns
// while every other row holds one — the expansion is dominated by a single
// long-bin row (64 * nnz-per-B-row FLOPs) with 63 short-bin rows beside it.
TEST(SpgemmEdge, DenseRowAmongHypersparseRows) {
  constexpr IndexType n = 64;
  Coo a{n, n, {}, {}, {}};
  for (IndexType j = 0; j < n; ++j) a.add(0, j, 1.0 + static_cast<double>(j % 5));
  for (IndexType i = 1; i < n; ++i)
    a.add(i, (i * 7) % n, 2.0 - static_cast<double>(i % 3));
  Coo b{n, n, {}, {}, {}};
  for (IndexType i = 0; i < n; ++i) {
    b.add(i, i, 1.0);
    b.add(i, (i * 13 + 1) % n, static_cast<double>(i % 4) - 2.0);
  }
  expect_all_strategies_match(a, b);
}

// Every B row that A references is empty: nonzero operands, zero partial
// products. Both pipelines must produce an empty C without tripping their
// zero-work paths (empty expansion buffer, zero-slot hash tables).
TEST(SpgemmEdge, AllReferencedBRowsEmpty) {
  constexpr IndexType n = 6;
  Coo a{n, n, {}, {}, {}};
  for (IndexType i = 0; i < n; ++i) a.add(i, 1 + (i % (n - 1)), 3.0);
  Coo b{n, n, {}, {}, {}};
  b.add(0, 2, 5.0);  // row 0 is the only nonempty B row; A never reads it
  grb::Matrix<double, grb::GpuSim> expect_empty(n, n);
  const auto ga = to_matrix<grb::GpuSim>(a);
  const auto gb = to_matrix<grb::GpuSim>(b);
  for (const auto mode : {sparse::SpgemmMode::Esc, sparse::SpgemmMode::Hash,
                          sparse::SpgemmMode::Auto}) {
    sparse::SpgemmModeGuard guard(mode);
    grb::Matrix<double, grb::GpuSim> c(n, n);
    grb::mxm(c, grb::NoMask{}, grb::NoAccumulate{},
             grb::ArithmeticSemiring<double>{}, ga, gb);
    EXPECT_EQ(c.nvals(), 0u);
  }
}

// Single-column B: the maximum-compression shape. Every partial product of
// an A row lands on the same output column, so est_nnz is one per nonempty
// row and compression equals the mean row degree.
TEST(SpgemmEdge, SingleColumnB) {
  constexpr IndexType n = 32;
  Coo a{n, n, {}, {}, {}};
  for (IndexType i = 0; i < n; ++i)
    for (IndexType k = 0; k < 8; ++k)
      a.add(i, (i * 3 + k * 5) % n, 1.0 + static_cast<double>((i + k) % 4));
  Coo b{n, 1, {}, {}, {}};
  for (IndexType i = 0; i < n; ++i)
    b.add(i, 0, static_cast<double>(i % 7) - 3.0);
  expect_all_strategies_match(a, b);
}

// Row FLOPs straddling each bin boundary: multiplying by the identity makes
// each A row's FLOP count equal its nnz, so rows of 31/32/33 and 511/512/513
// entries land exactly on either side of the short/medium and medium/long
// cuts. All three strategies must agree on the result.
TEST(SpgemmEdge, RowFlopsStraddleBinBoundaries) {
  constexpr IndexType kRowNnz[] = {31, 32, 33, 511, 512, 513};
  constexpr IndexType n = 520;
  Coo a{6, n, {}, {}, {}};
  for (IndexType i = 0; i < 6; ++i)
    for (IndexType k = 0; k < kRowNnz[i]; ++k)
      a.add(i, k, 1.0 + static_cast<double>((i + k) % 3));
  Coo b{n, n, {}, {}, {}};
  for (IndexType i = 0; i < n; ++i) b.add(i, i, 2.0);
  expect_all_strategies_match(a, b);
}

// The same boundary rows, checked directly against the symbolic analysis:
// 31 and 32 are short, 33/511/512 medium, 513 long with ceil(513/256) = 3
// chunks.
TEST(SpgemmEdge, AnalyzeSpgemmBinsBoundaryRows) {
  const std::vector<sparse::Index> flops = {31, 32, 33, 511, 512, 513, 0};
  const std::vector<sparse::Index> caps = {31, 32, 33, 511, 512, 513, 0};
  const auto s =
      sparse::analyze_spgemm(flops.data(), caps.data(), 7, 600, false);
  EXPECT_EQ(s.total_products, 31u + 32u + 33u + 511u + 512u + 513u);
  EXPECT_EQ(s.nonempty_rows, 6u);
  EXPECT_EQ(s.short_rows, 2u);
  EXPECT_EQ(s.medium_rows, 3u);
  EXPECT_EQ(s.long_rows, 1u);
  EXPECT_EQ(s.long_row_chunks, 3u);
  EXPECT_EQ(s.max_row_flops, 513u);
  EXPECT_EQ(s.est_nnz, s.total_products);  // caps == flops here
}

// --------------------------------------------------------------------------
// Worst-case hash load factor
// --------------------------------------------------------------------------

// With the load target forced to 1.0 a dense 16x16 square sizes each row's
// table to exactly 16 slots for 16 distinct keys — the table is completely
// full when insertion finishes, so every probe chain must terminate by key
// match rather than by finding an empty slot.
TEST(SpgemmEdge, HashTableAtFullLoadFactor) {
  LoadTargetGuard full_load(1.0);
  constexpr IndexType n = 16;
  Coo a{n, n, {}, {}, {}};
  Coo b{n, n, {}, {}, {}};
  for (IndexType i = 0; i < n; ++i)
    for (IndexType j = 0; j < n; ++j) {
      a.add(i, j, 1.0 + static_cast<double>((i + 2 * j) % 5));
      b.add(i, j, static_cast<double>((3 * i + j) % 7) - 3.0);
    }
  expect_all_strategies_match(a, b);
}

// Mask-seeded variant at load 1.0: rows 0..7 carry a full-row mask, so each
// seeded table is pre-filled to capacity before any product arrives (16
// seeds in 16 slots); rows 8..15 have no allowed entries, so all their
// products must be counted as mask-avoided.
TEST(SpgemmEdge, SeededHashTableAtFullLoadFactor) {
  LoadTargetGuard full_load(1.0);
  constexpr IndexType n = 16;
  grb::Matrix<double, grb::GpuSim> a(n, n), b(n, n), mask(n, n);
  grb::Matrix<double, grb::Sequential> sa(n, n), sb(n, n), smask(n, n);
  IndexArrayType rows, cols, mrows, mcols;
  std::vector<double> avals, bvals, mvals;
  for (IndexType i = 0; i < n; ++i)
    for (IndexType j = 0; j < n; ++j) {
      rows.push_back(i);
      cols.push_back(j);
      avals.push_back(1.0 + static_cast<double>((i + 3 * j) % 4));
      bvals.push_back(static_cast<double>((2 * i + j) % 5) - 2.0);
      if (i < n / 2) {
        mrows.push_back(i);
        mcols.push_back(j);
        mvals.push_back(1.0);
      }
    }
  a.build(rows, cols, avals);
  b.build(rows, cols, bvals);
  mask.build(mrows, mcols, mvals);
  sa.build(rows, cols, avals);
  sb.build(rows, cols, bvals);
  smask.build(mrows, mcols, mvals);

  grb::Matrix<double, grb::Sequential> want(n, n);
  grb::mxm(want, grb::structure(smask), grb::NoAccumulate{},
           grb::ArithmeticSemiring<double>{}, sa, sb, grb::Replace);
  IndexArrayType wr, wc;
  std::vector<double> wv;
  want.extractTuples(wr, wc, wv);

  sparse::SpgemmModeGuard guard(sparse::SpgemmMode::Hash);
  const auto before = gpu_sim::device().stats();
  grb::Matrix<double, grb::GpuSim> c(n, n);
  grb::mxm(c, grb::structure(mask), grb::NoAccumulate{},
           grb::ArithmeticSemiring<double>{}, a, b, grb::Replace);
  const auto delta = gpu_sim::device().stats() - before;
  // Rows 8..15 contribute 8 rows x 256 products, all mask-avoided.
  EXPECT_GE(delta.spgemm_masked_products_avoided, 8u * 256u);
  IndexArrayType cr, cc;
  std::vector<double> cv;
  c.extractTuples(cr, cc, cv);
  EXPECT_EQ(cr, wr);
  EXPECT_EQ(cc, wc);
  EXPECT_EQ(cv, wv);
}

// --------------------------------------------------------------------------
// Table sizing
// --------------------------------------------------------------------------

TEST(SpgemmEdge, HashTableSlotsSizing) {
  EXPECT_EQ(sparse::hash_table_slots(0), 0u);
  // Default 0.5 load target: entries double then round to a power of two,
  // floored at kMinHashSlots.
  EXPECT_EQ(sparse::hash_table_slots(1), 8u);
  EXPECT_EQ(sparse::hash_table_slots(5), 16u);
  EXPECT_EQ(sparse::hash_table_slots(64), 128u);
  LoadTargetGuard full_load(1.0);
  EXPECT_EQ(sparse::hash_table_slots(16), 16u);  // exactly full permitted
  EXPECT_EQ(sparse::hash_table_slots(17), 32u);
}

// --------------------------------------------------------------------------
// Overflow guard
// --------------------------------------------------------------------------

TEST(SpgemmEdge, CheckedProductTotalSumsInBounds) {
  const std::vector<std::uint32_t> counts = {3, 4, 5};
  EXPECT_EQ(sparse::checked_product_total(counts.data(), counts.size(), "mxm"),
            12u);
}

// Mocked narrow index type: two uint32 counts whose sum exceeds 2^32 - 1
// must throw a diagnostic naming the op and the product count, because the
// expansion buffers could not be addressed with 32-bit offsets.
TEST(SpgemmEdge, CheckedProductTotalRejectsIndexOverflow) {
  const std::vector<std::uint32_t> counts = {0xFFFFFFFFu, 2u};
  try {
    sparse::checked_product_total(counts.data(), counts.size(), "mxm");
    FAIL() << "expected std::overflow_error";
  } catch (const std::overflow_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("mxm"), std::string::npos) << msg;
    EXPECT_NE(msg.find("4294967297"), std::string::npos) << msg;
    EXPECT_NE(msg.find("32-bit"), std::string::npos) << msg;
  }
}

// 64-bit intra-accumulation wrap (only reachable with absurd synthetic
// counts, but the guard must not wrap silently).
TEST(SpgemmEdge, CheckedProductTotalRejectsAccumulatorWrap) {
  const std::vector<std::uint64_t> counts = {~std::uint64_t{0}, 2u};
  EXPECT_THROW(
      sparse::checked_product_total(counts.data(), counts.size(), "mxm"),
      std::overflow_error);
}

// --------------------------------------------------------------------------
// Selector rules
// --------------------------------------------------------------------------

sparse::SpgemmSymbolic synthetic(std::uint64_t products, std::uint64_t est,
                                 sparse::Index nrows, bool masked) {
  sparse::SpgemmSymbolic s;
  s.nrows = nrows;
  s.ncols = nrows;
  s.total_products = products;
  s.est_nnz = est;
  s.nonempty_rows = nrows;
  s.mean_row_flops =
      static_cast<double>(products) / static_cast<double>(nrows);
  s.max_row_flops = static_cast<sparse::Index>(s.mean_row_flops);
  if (s.max_row_flops <= sparse::kShortRowMaxFlops) {
    s.short_rows = nrows;
  } else if (s.max_row_flops <= sparse::kMediumRowMaxFlops) {
    s.medium_rows = nrows;
  } else {
    s.long_rows = nrows;
    s.long_row_chunks =
        nrows * (s.max_row_flops + sparse::kLongRowChunkFlops - 1) /
        sparse::kLongRowChunkFlops;
  }
  s.table_slots = 2 * est;
  s.masked = masked;
  return s;
}

TEST(SpgemmEdge, SelectorHonorsForcedModes) {
  const auto s = synthetic(1000, 1000, 10, false);
  EXPECT_EQ(sparse::select_spgemm(s, sparse::SpgemmMode::Esc),
            sparse::SpgemmStrategy::kEsc);
  EXPECT_EQ(sparse::select_spgemm(s, sparse::SpgemmMode::Hash),
            sparse::SpgemmStrategy::kHash);
}

TEST(SpgemmEdge, SelectorKeepsEscOnLowCompression) {
  // compression 1.0, unmasked, no skew: the hash path is never proposed.
  const auto s = synthetic(1'000'000, 1'000'000, 10'000, false);
  EXPECT_EQ(sparse::select_spgemm(s, sparse::SpgemmMode::Auto,
                                  &gpu_sim::device().properties()),
            sparse::SpgemmStrategy::kEsc);
}

TEST(SpgemmEdge, SelectorPicksHashOnHighCompressionAtScale) {
  // 50 products per output slot: ESC would sort 50x the surviving data.
  const auto s = synthetic(50'000'000, 1'000'000, 100'000, false);
  EXPECT_EQ(sparse::select_spgemm(s, sparse::SpgemmMode::Auto,
                                  &gpu_sim::device().properties()),
            sparse::SpgemmStrategy::kHash);
  // And the model agrees the pick is cheaper.
  EXPECT_LT(sparse::estimated_spgemm_time(sparse::SpgemmStrategy::kHash, s,
                                          sizeof(double),
                                          gpu_sim::device().properties()),
            sparse::estimated_spgemm_time(sparse::SpgemmStrategy::kEsc, s,
                                          sizeof(double),
                                          gpu_sim::device().properties()));
}

TEST(SpgemmEdge, SelectorRatificationRejectsHashOnTinyMaskedInputs) {
  // Masked => proposed, but at 64 products both pipelines are launch-bound
  // and ESC's shorter launch chain wins the roofline comparison.
  const auto s = synthetic(64, 16, 4, true);
  EXPECT_EQ(sparse::select_spgemm(s, sparse::SpgemmMode::Auto,
                                  &gpu_sim::device().properties()),
            sparse::SpgemmStrategy::kEsc);
}

TEST(SpgemmEdge, SelectorKeepsEscOnEmptyWork) {
  const auto s = synthetic(0, 0, 8, true);
  EXPECT_EQ(sparse::select_spgemm(s, sparse::SpgemmMode::Auto,
                                  &gpu_sim::device().properties()),
            sparse::SpgemmStrategy::kEsc);
}

}  // namespace
