#pragma once

/// @file backend_sequential/ops.hpp
/// Sequential implementations of every GraphBLAS operation, written for
/// clarity: these are the semantic oracle the GPU backend is tested against.
///
/// Every operation computes its raw result T̃ and hands it, together with
/// the frontend's OutputDescriptor, to the shared epilogue executors in
/// sparse/output_pipeline.hpp — accumulate/mask/replace handling lives
/// there (and in gbtl/write_rules.hpp), not in the per-op bodies.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

#include "backend_sequential/matrix.hpp"
#include "backend_sequential/vector.hpp"
#include "gbtl/algebra.hpp"
#include "gbtl/mask.hpp"
#include "gbtl/types.hpp"
#include "gbtl/write_rules.hpp"
#include "sparse/output_pipeline.hpp"

namespace grb::seq_backend {

namespace detail {

/// Materialized transpose (helper for TransposeView lowering and the
/// transpose operation).
template <typename T>
Matrix<T> transposed(const Matrix<T>& A) {
  Matrix<T> At(A.ncols(), A.nrows());
  for (IndexType i = 0; i < A.nrows(); ++i)
    for (const auto& [j, v] : A.row(i)) At.set_element(j, i, v);
  return At;
}

/// Gustavson's row-by-row SpGEMM with a dense accumulator: the mxm kernel of
/// both CPU backends (CpuPar runs one instance per row chunk). The products
/// of an output slot fold in ascending k with the first one stored
/// directly — the order of GpuSim's hash and ESC engines, so every backend
/// agrees bit for bit.
///
/// A non-complemented mask seeds the row: its allowed columns are flagged
/// first, a product that lands on no flag is skipped before it is computed,
/// and the row is emitted in mask-row order. A complemented mask cannot
/// bound the row, so it acts only at write-back.
template <typename ZT>
class GustavsonRows {
 public:
  GustavsonRows(IndexType ncols, ZT zero)
      : acc_(ncols, zero), state_(ncols, kUnset) {}

  /// Row i of T̃ = A·B under @p mask.
  template <typename SR, typename AT, typename BT, typename MObj>
  typename Matrix<ZT>::Row operator()(IndexType i, SR sr,
                                      const Matrix<AT>& A,
                                      const Matrix<BT>& B,
                                      const MaskDesc<MObj>& mask) {
    typename Matrix<ZT>::Row trow;
    if constexpr (!std::is_same_v<MObj, EmptyMaskObj>) {
      if (mask.mask != nullptr && !mask.complement) {
        const auto& mrow = mask.mask->row(i);
        for (const auto& [j, mv] : mrow)
          if (mask.structural || write_rules::truthy(mv)) state_[j] = kSeed;
        fold(i, sr, A, B, /*seeded=*/true);
        for (const auto& [j, mv] : mrow) {
          (void)mv;
          if (state_[j] == kFilled) trow.emplace_back(j, acc_[j]);
          state_[j] = kUnset;
        }
        return trow;
      }
    }
    touched_.clear();
    fold(i, sr, A, B, /*seeded=*/false);
    std::sort(touched_.begin(), touched_.end());
    trow.reserve(touched_.size());
    for (IndexType j : touched_) {
      trow.emplace_back(j, acc_[j]);
      state_[j] = kUnset;
    }
    return trow;
  }

 private:
  enum : std::uint8_t { kUnset, kSeed, kFilled };

  /// Fold row i's products in ascending k. Seeded, a product counts only on
  /// a flagged column; unseeded, every product opens its column.
  template <typename SR, typename AT, typename BT>
  void fold(IndexType i, SR sr, const Matrix<AT>& A, const Matrix<BT>& B,
            bool seeded) {
    for (const auto& [k, av] : A.row(i))
      for (const auto& [j, bv] : B.row(k)) {
        std::uint8_t& s = state_[j];
        if (s == kFilled) {
          acc_[j] = sr.add(acc_[j], sr.mult(av, bv));
        } else if (s == kSeed || !seeded) {
          acc_[j] = sr.mult(av, bv);
          s = kFilled;
          if (!seeded) touched_.push_back(j);
        }
      }
  }

  std::vector<ZT> acc_;
  std::vector<std::uint8_t> state_;
  std::vector<IndexType> touched_;
};

}  // namespace detail

// ===========================================================================
// mxm — matrix multiply over a semiring
// ===========================================================================

/// Row-by-row mask-seeded Gustavson (detail::GustavsonRows).
template <typename CT, typename MObj, typename Accum, typename SR,
          typename AT, typename BT>
void mxm(Matrix<CT>& C, const OutputDescriptor<MObj>& out, Accum accum, SR sr,
         const Matrix<AT>& A, const Matrix<BT>& B) {
  using ZT = typename SR::result_type;
  Matrix<ZT> T(C.nrows(), C.ncols());
  detail::GustavsonRows<ZT> rows(C.ncols(), sr.zero());
  for (IndexType i = 0; i < A.nrows(); ++i)
    T.set_row(i, rows(i, sr, A, B, out.mask));
  pipeline::write_matrix(C, T, out, accum);
}

// ===========================================================================
// mxv / vxm
// ===========================================================================

template <typename WT, typename MObj, typename Accum, typename SR,
          typename AT, typename UT>
void mxv(Vector<WT>& w, const OutputDescriptor<MObj>& out, Accum accum, SR sr,
         const Matrix<AT>& A, const Vector<UT>& u) {
  using ZT = typename SR::result_type;
  Vector<ZT> T(w.size());
  for (IndexType i = 0; i < A.nrows(); ++i) {
    ZT acc = sr.zero();
    bool any = false;
    for (const auto& [k, av] : A.row(i)) {
      if (u.present_unchecked(k)) {
        acc = sr.add(acc, sr.mult(av, u.value_unchecked(k)));
        any = true;
      }
    }
    if (any) T.set_unchecked(i, acc);
  }
  pipeline::write_vector(w, T, out, accum);
}

template <typename WT, typename MObj, typename Accum, typename SR,
          typename UT, typename AT>
void vxm(Vector<WT>& w, const OutputDescriptor<MObj>& out, Accum accum, SR sr,
         const Vector<UT>& u, const Matrix<AT>& A) {
  using ZT = typename SR::result_type;
  Vector<ZT> T(w.size());
  std::vector<std::uint8_t> occupied(w.size(), 0);
  for (IndexType k = 0; k < A.nrows(); ++k) {
    if (!u.present_unchecked(k)) continue;
    const UT uv = u.value_unchecked(k);
    for (const auto& [j, av] : A.row(k)) {
      const ZT prod = sr.mult(uv, av);
      if (!occupied[j]) {
        occupied[j] = 1;
        T.set_unchecked(j, prod);
      } else {
        T.set_unchecked(j, sr.add(T.value_unchecked(j), prod));
      }
    }
  }
  pipeline::write_vector(w, T, out, accum);
}

// ===========================================================================
// eWiseAdd / eWiseMult
// ===========================================================================

template <typename WT, typename MObj, typename Accum, typename Op,
          typename UT, typename VT>
void ewise_add_vec(Vector<WT>& w, const OutputDescriptor<MObj>& out,
                   Accum accum, Op op, const Vector<UT>& u,
                   const Vector<VT>& v) {
  using ZT = std::common_type_t<UT, VT>;
  Vector<ZT> T(w.size());
  for (IndexType i = 0; i < w.size(); ++i) {
    const bool hu = u.present_unchecked(i), hv = v.present_unchecked(i);
    if (hu && hv)
      T.set_unchecked(i, static_cast<ZT>(op(
                             static_cast<ZT>(u.value_unchecked(i)),
                             static_cast<ZT>(v.value_unchecked(i)))));
    else if (hu)
      T.set_unchecked(i, static_cast<ZT>(u.value_unchecked(i)));
    else if (hv)
      T.set_unchecked(i, static_cast<ZT>(v.value_unchecked(i)));
  }
  pipeline::write_vector(w, T, out, accum);
}

template <typename WT, typename MObj, typename Accum, typename Op,
          typename UT, typename VT>
void ewise_mult_vec(Vector<WT>& w, const OutputDescriptor<MObj>& out,
                    Accum accum, Op op, const Vector<UT>& u,
                    const Vector<VT>& v) {
  using ZT = std::common_type_t<UT, VT>;
  Vector<ZT> T(w.size());
  for (IndexType i = 0; i < w.size(); ++i) {
    if (u.present_unchecked(i) && v.present_unchecked(i))
      T.set_unchecked(i, static_cast<ZT>(op(
                             static_cast<ZT>(u.value_unchecked(i)),
                             static_cast<ZT>(v.value_unchecked(i)))));
  }
  pipeline::write_vector(w, T, out, accum);
}

template <typename CT, typename MObj, typename Accum, typename Op,
          typename AT, typename BT>
void ewise_add_mat(Matrix<CT>& C, const OutputDescriptor<MObj>& out,
                   Accum accum, Op op, const Matrix<AT>& A,
                   const Matrix<BT>& B) {
  using ZT = std::common_type_t<AT, BT>;
  Matrix<ZT> T(C.nrows(), C.ncols());
  for (IndexType i = 0; i < C.nrows(); ++i) {
    const auto& ar = A.row(i);
    const auto& br = B.row(i);
    typename Matrix<ZT>::Row merged;
    merged.reserve(ar.size() + br.size());
    std::size_t ai = 0, bi = 0;
    while (ai < ar.size() || bi < br.size()) {
      if (bi >= br.size() || (ai < ar.size() && ar[ai].first < br[bi].first)) {
        merged.emplace_back(ar[ai].first, static_cast<ZT>(ar[ai].second));
        ++ai;
      } else if (ai >= ar.size() || br[bi].first < ar[ai].first) {
        merged.emplace_back(br[bi].first, static_cast<ZT>(br[bi].second));
        ++bi;
      } else {
        merged.emplace_back(
            ar[ai].first, static_cast<ZT>(op(static_cast<ZT>(ar[ai].second),
                                             static_cast<ZT>(br[bi].second))));
        ++ai, ++bi;
      }
    }
    T.set_row(i, std::move(merged));
  }
  pipeline::write_matrix(C, T, out, accum);
}

template <typename CT, typename MObj, typename Accum, typename Op,
          typename AT, typename BT>
void ewise_mult_mat(Matrix<CT>& C, const OutputDescriptor<MObj>& out,
                    Accum accum, Op op, const Matrix<AT>& A,
                    const Matrix<BT>& B) {
  using ZT = std::common_type_t<AT, BT>;
  Matrix<ZT> T(C.nrows(), C.ncols());
  for (IndexType i = 0; i < C.nrows(); ++i) {
    const auto& ar = A.row(i);
    const auto& br = B.row(i);
    typename Matrix<ZT>::Row merged;
    std::size_t ai = 0, bi = 0;
    while (ai < ar.size() && bi < br.size()) {
      if (ar[ai].first < br[bi].first) {
        ++ai;
      } else if (br[bi].first < ar[ai].first) {
        ++bi;
      } else {
        merged.emplace_back(
            ar[ai].first, static_cast<ZT>(op(static_cast<ZT>(ar[ai].second),
                                             static_cast<ZT>(br[bi].second))));
        ++ai, ++bi;
      }
    }
    T.set_row(i, std::move(merged));
  }
  pipeline::write_matrix(C, T, out, accum);
}

// ===========================================================================
// apply
// ===========================================================================

template <typename WT, typename MObj, typename Accum, typename UnaryOp,
          typename UT>
void apply_vec(Vector<WT>& w, const OutputDescriptor<MObj>& out, Accum accum,
               UnaryOp f, const Vector<UT>& u) {
  Vector<WT> T(w.size());
  for (IndexType i = 0; i < u.size(); ++i)
    if (u.present_unchecked(i))
      T.set_unchecked(i, static_cast<WT>(f(u.value_unchecked(i))));
  pipeline::write_vector(w, T, out, accum);
}

template <typename CT, typename MObj, typename Accum, typename UnaryOp,
          typename AT>
void apply_mat(Matrix<CT>& C, const OutputDescriptor<MObj>& out, Accum accum,
               UnaryOp f, const Matrix<AT>& A) {
  Matrix<CT> T(C.nrows(), C.ncols());
  for (IndexType i = 0; i < A.nrows(); ++i) {
    typename Matrix<CT>::Row trow;
    trow.reserve(A.row(i).size());
    for (const auto& [j, v] : A.row(i))
      trow.emplace_back(j, static_cast<CT>(f(v)));
    T.set_row(i, std::move(trow));
  }
  pipeline::write_matrix(C, T, out, accum);
}

/// apply with an index-aware operator: T̃[i] = f(i, u[i]) — the GraphBLAS
/// IndexUnaryOp extension (used by BFS parent tracking, k-core peeling...).
template <typename WT, typename MObj, typename Accum, typename IdxOp,
          typename UT>
void apply_indexed_vec(Vector<WT>& w, const OutputDescriptor<MObj>& out,
                       Accum accum, IdxOp f, const Vector<UT>& u) {
  Vector<WT> T(w.size());
  for (IndexType i = 0; i < u.size(); ++i)
    if (u.present_unchecked(i))
      T.set_unchecked(i, static_cast<WT>(f(i, u.value_unchecked(i))));
  pipeline::write_vector(w, T, out, accum);
}

/// Matrix form: T̃(i,j) = f(i, j, A(i,j)).
template <typename CT, typename MObj, typename Accum, typename IdxOp,
          typename AT>
void apply_indexed_mat(Matrix<CT>& C, const OutputDescriptor<MObj>& out,
                       Accum accum, IdxOp f, const Matrix<AT>& A) {
  Matrix<CT> T(C.nrows(), C.ncols());
  for (IndexType i = 0; i < A.nrows(); ++i) {
    typename Matrix<CT>::Row trow;
    trow.reserve(A.row(i).size());
    for (const auto& [j, v] : A.row(i))
      trow.emplace_back(j, static_cast<CT>(f(i, j, v)));
    T.set_row(i, std::move(trow));
  }
  pipeline::write_matrix(C, T, out, accum);
}

// ===========================================================================
// reduce
// ===========================================================================

/// Row-wise reduction of a matrix into a vector.
template <typename WT, typename MObj, typename Accum, typename Monoid,
          typename AT>
void reduce_mat_to_vec(Vector<WT>& w, const OutputDescriptor<MObj>& out,
                       Accum accum, Monoid monoid, const Matrix<AT>& A) {
  using ZT = typename Monoid::result_type;
  Vector<ZT> T(w.size());
  for (IndexType i = 0; i < A.nrows(); ++i) {
    if (A.row(i).empty()) continue;
    ZT acc = monoid.identity();
    for (const auto& [j, v] : A.row(i)) acc = monoid(acc, static_cast<ZT>(v));
    T.set_unchecked(i, acc);
  }
  pipeline::write_vector(w, T, out, accum);
}

template <typename ST, typename Accum, typename Monoid, typename UT>
void reduce_vec_to_scalar(ST& s, Accum accum, Monoid monoid,
                          const Vector<UT>& u) {
  using ZT = typename Monoid::result_type;
  ZT acc = monoid.identity();
  for (IndexType i = 0; i < u.size(); ++i)
    if (u.present_unchecked(i))
      acc = monoid(acc, static_cast<ZT>(u.value_unchecked(i)));
  if constexpr (std::is_same_v<Accum, NoAccumulate>)
    s = static_cast<ST>(acc);
  else
    s = static_cast<ST>(accum(s, static_cast<ST>(acc)));
}

template <typename ST, typename Accum, typename Monoid, typename AT>
void reduce_mat_to_scalar(ST& s, Accum accum, Monoid monoid,
                          const Matrix<AT>& A) {
  using ZT = typename Monoid::result_type;
  ZT acc = monoid.identity();
  for (IndexType i = 0; i < A.nrows(); ++i)
    for (const auto& [j, v] : A.row(i)) acc = monoid(acc, static_cast<ZT>(v));
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
  Matrix<AT> T = detail::transposed(A);
  pipeline::write_matrix(C, T, out, accum);
}

// ===========================================================================
// extract
// ===========================================================================

template <typename WT, typename MObj, typename Accum, typename UT>
void extract_vec(Vector<WT>& w, const OutputDescriptor<MObj>& out,
                 Accum accum, const Vector<UT>& u,
                 const IndexArrayType& indices) {
  Vector<UT> T(w.size());
  for (IndexType k = 0; k < indices.size(); ++k) {
    const IndexType src = indices[k];
    if (src >= u.size())
      throw IndexOutOfBoundsException("extract: source index");
    if (u.present_unchecked(src))
      T.set_unchecked(k, u.value_unchecked(src));
  }
  pipeline::write_vector(w, T, out, accum);
}

template <typename CT, typename MObj, typename Accum, typename AT>
void extract_mat(Matrix<CT>& C, const OutputDescriptor<MObj>& out,
                 Accum accum, const Matrix<AT>& A,
                 const IndexArrayType& row_indices,
                 const IndexArrayType& col_indices) {
  Matrix<AT> T(C.nrows(), C.ncols());
  // Position of each selected source column in the output (a source column
  // may be selected multiple times).
  std::vector<std::vector<IndexType>> col_positions(A.ncols());
  for (IndexType k = 0; k < col_indices.size(); ++k) {
    if (col_indices[k] >= A.ncols())
      throw IndexOutOfBoundsException("extract: column index");
    col_positions[col_indices[k]].push_back(k);
  }
  for (IndexType k = 0; k < row_indices.size(); ++k) {
    const IndexType src = row_indices[k];
    if (src >= A.nrows())
      throw IndexOutOfBoundsException("extract: row index");
    typename Matrix<AT>::Row trow;
    for (const auto& [j, v] : A.row(src))
      for (IndexType dst_col : col_positions[j]) trow.emplace_back(dst_col, v);
    std::sort(trow.begin(), trow.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    T.set_row(k, std::move(trow));
  }
  pipeline::write_matrix(C, T, out, accum);
}

/// Column extract: w = A(row_indices, col).
template <typename WT, typename MObj, typename Accum, typename AT>
void extract_col(Vector<WT>& w, const OutputDescriptor<MObj>& out,
                 Accum accum, const Matrix<AT>& A,
                 const IndexArrayType& row_indices, IndexType col) {
  if (col >= A.ncols())
    throw IndexOutOfBoundsException("extract: column index");
  Vector<AT> T(w.size());
  for (IndexType k = 0; k < row_indices.size(); ++k) {
    if (row_indices[k] >= A.nrows())
      throw IndexOutOfBoundsException("extract: row index");
    const AT* v = A.find(row_indices[k], col);
    if (v != nullptr) T.set_unchecked(k, *v);
  }
  pipeline::write_vector(w, T, out, accum);
}

// ===========================================================================
// assign
// ===========================================================================

template <typename WT, typename MObj, typename Accum, typename UT>
void assign_vec(Vector<WT>& w, const OutputDescriptor<MObj>& out, Accum accum,
                const Vector<UT>& u, const IndexArrayType& indices) {
  // Z starts as a copy of w; the subrange is overwritten (or accumulated).
  // The accumulator applies during this pre-merge, so the epilogue runs
  // without one.
  Vector<WT> T = w;
  constexpr bool kAccum = !std::is_same_v<Accum, NoAccumulate>;
  for (IndexType k = 0; k < indices.size(); ++k) {
    const IndexType dst = indices[k];
    if (dst >= w.size())
      throw IndexOutOfBoundsException("assign: destination index");
    if (u.present_unchecked(k)) {
      const WT uv = static_cast<WT>(u.value_unchecked(k));
      if (kAccum && T.present_unchecked(dst)) {
        if constexpr (kAccum)
          T.set_unchecked(dst, static_cast<WT>(
                                   accum(T.value_unchecked(dst), uv)));
      } else {
        T.set_unchecked(dst, uv);
      }
    } else if (!kAccum) {
      T.erase_unchecked(dst);
    }
  }
  pipeline::write_vector(w, T, out, NoAccumulate{});
}

template <typename WT, typename MObj, typename Accum>
void assign_vec_constant(Vector<WT>& w, const OutputDescriptor<MObj>& out,
                         Accum accum, const WT& value,
                         const IndexArrayType& indices) {
  Vector<WT> T = w;
  constexpr bool kAccum = !std::is_same_v<Accum, NoAccumulate>;
  for (IndexType dst : indices) {
    if (dst >= w.size())
      throw IndexOutOfBoundsException("assign: destination index");
    if (kAccum && T.present_unchecked(dst)) {
      if constexpr (kAccum)
        T.set_unchecked(dst,
                        static_cast<WT>(accum(T.value_unchecked(dst), value)));
    } else {
      T.set_unchecked(dst, value);
    }
  }
  pipeline::write_vector(w, T, out, NoAccumulate{});
}

template <typename CT, typename MObj, typename Accum, typename AT>
void assign_mat(Matrix<CT>& C, const OutputDescriptor<MObj>& out, Accum accum,
                const Matrix<AT>& A, const IndexArrayType& row_indices,
                const IndexArrayType& col_indices) {
  constexpr bool kAccum = !std::is_same_v<Accum, NoAccumulate>;
  Matrix<CT> T = C;
  // Without accumulate the assigned subgrid is fully replaced: clear the
  // targeted positions first.
  if (!kAccum) {
    for (IndexType ri : row_indices)
      for (IndexType ci : col_indices) {
        if (ri >= C.nrows() || ci >= C.ncols())
          throw IndexOutOfBoundsException("assign: destination index");
        T.remove_element(ri, ci);
      }
  }
  for (IndexType ai = 0; ai < row_indices.size(); ++ai) {
    const IndexType dst_row = row_indices[ai];
    if (dst_row >= C.nrows())
      throw IndexOutOfBoundsException("assign: destination row");
    for (const auto& [aj, v] : A.row(ai)) {
      if (aj >= col_indices.size()) continue;
      const IndexType dst_col = col_indices[aj];
      if (dst_col >= C.ncols())
        throw IndexOutOfBoundsException("assign: destination column");
      const CT cv = static_cast<CT>(v);
      if constexpr (kAccum) {
        const CT* old = T.find(dst_row, dst_col);
        if (old != nullptr)
          T.set_element(dst_row, dst_col, static_cast<CT>(accum(*old, cv)));
        else
          T.set_element(dst_row, dst_col, cv);
      } else {
        T.set_element(dst_row, dst_col, cv);
      }
    }
  }
  pipeline::write_matrix(C, T, out, NoAccumulate{});
}

template <typename CT, typename MObj, typename Accum>
void assign_mat_constant(Matrix<CT>& C, const OutputDescriptor<MObj>& out,
                         Accum accum, const CT& value,
                         const IndexArrayType& row_indices,
                         const IndexArrayType& col_indices) {
  constexpr bool kAccum = !std::is_same_v<Accum, NoAccumulate>;
  Matrix<CT> T = C;
  for (IndexType ri : row_indices) {
    for (IndexType ci : col_indices) {
      if (ri >= C.nrows() || ci >= C.ncols())
        throw IndexOutOfBoundsException("assign: destination index");
      if constexpr (kAccum) {
        const CT* old = T.find(ri, ci);
        if (old != nullptr)
          T.set_element(ri, ci, static_cast<CT>(accum(*old, value)));
        else
          T.set_element(ri, ci, value);
      } else {
        T.set_element(ri, ci, value);
      }
    }
  }
  pipeline::write_matrix(C, T, out, NoAccumulate{});
}

// ===========================================================================
// kronecker
// ===========================================================================

template <typename CT, typename MObj, typename Accum, typename Op,
          typename AT, typename BT>
void kronecker(Matrix<CT>& C, const OutputDescriptor<MObj>& out, Accum accum,
               Op op, const Matrix<AT>& A, const Matrix<BT>& B) {
  using ZT = std::common_type_t<AT, BT>;
  Matrix<ZT> T(C.nrows(), C.ncols());
  for (IndexType ia = 0; ia < A.nrows(); ++ia) {
    for (IndexType ib = 0; ib < B.nrows(); ++ib) {
      typename Matrix<ZT>::Row trow;
      for (const auto& [ja, va] : A.row(ia))
        for (const auto& [jb, vb] : B.row(ib))
          trow.emplace_back(ja * B.ncols() + jb,
                            static_cast<ZT>(op(static_cast<ZT>(va),
                                               static_cast<ZT>(vb))));
      std::sort(trow.begin(), trow.end(), [](const auto& a, const auto& b) {
        return a.first < b.first;
      });
      T.set_row(ia * B.nrows() + ib, std::move(trow));
    }
  }
  pipeline::write_matrix(C, T, out, accum);
}

// ===========================================================================
// select (GBTL/SuiteSparse extension): keep entries satisfying a predicate
// ===========================================================================

template <typename CT, typename MObj, typename Accum, typename Pred,
          typename AT>
void select_mat(Matrix<CT>& C, const OutputDescriptor<MObj>& out, Accum accum,
                Pred pred, const Matrix<AT>& A) {
  Matrix<AT> T(C.nrows(), C.ncols());
  for (IndexType i = 0; i < A.nrows(); ++i) {
    typename Matrix<AT>::Row trow;
    for (const auto& [j, v] : A.row(i))
      if (pred(i, j, v)) trow.emplace_back(j, v);
    T.set_row(i, std::move(trow));
  }
  pipeline::write_matrix(C, T, out, accum);
}

template <typename WT, typename MObj, typename Accum, typename Pred,
          typename UT>
void select_vec(Vector<WT>& w, const OutputDescriptor<MObj>& out, Accum accum,
                Pred pred, const Vector<UT>& u) {
  Vector<UT> T(w.size());
  for (IndexType i = 0; i < u.size(); ++i)
    if (u.present_unchecked(i) && pred(i, u.value_unchecked(i)))
      T.set_unchecked(i, u.value_unchecked(i));
  pipeline::write_vector(w, T, out, accum);
}

}  // namespace grb::seq_backend
