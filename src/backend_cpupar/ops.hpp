#pragma once

/// @file backend_cpupar/ops.hpp
/// CpuPar implementations of the GraphBLAS operation table: the thread-pool
/// CPU backend. Containers are shared with the Sequential backend; what
/// changes is execution — heavy operations split their work across the
/// ambient cpupar_backend::pool() (pool.hpp) in fixed chunks of independent
/// outputs, and every result flows through the shared output pipeline's
/// parallel epilogues (write_vector_par / write_matrix_par).
///
/// Bit-exactness: each output position's reduction chain is the Sequential
/// one verbatim — parallelism never regroups a floating-point fold, it only
/// distributes whole output rows/slots. Operations whose order is inherently
/// serial (scalar reductions, assign's duplicate-index resolution, the
/// transpose scatter) run their compute phase serially and parallelize only
/// the epilogue; the two scalar reductions forward to seq_backend outright.
/// The three-way differential fuzz suite and test_cpupar_determinism.cpp
/// hold this backend to byte-identical results at any worker count.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "backend_cpupar/pool.hpp"
#include "backend_sequential/matrix.hpp"
#include "backend_sequential/ops.hpp"
#include "backend_sequential/vector.hpp"
#include "gbtl/algebra.hpp"
#include "gbtl/mask.hpp"
#include "gbtl/types.hpp"
#include "gbtl/write_rules.hpp"
#include "sparse/output_pipeline.hpp"

namespace grb::cpupar_backend {

// Same container types as the Sequential backend (backend_traits<CpuPar>
// maps to these): only the execution strategy differs.
using seq_backend::Matrix;
using seq_backend::Vector;

namespace detail {

using seq_backend::detail::transposed;

/// CSC view of a Matrix, built once per matrix mutation epoch and cached on
/// the container (Matrix::cached_aux): entries of each column contiguous in
/// ascending source-row order — exactly the order the Sequential vxm
/// scatter visits them, which is what keeps the pull below bit-exact.
template <typename AT>
struct CscLayout {
  std::vector<IndexType> col_ptr;   // ncols + 1 offsets into the arrays
  std::vector<IndexType> src_rows;  // source row of each entry
  std::unique_ptr<AT[]> vals;       // raw array: AT may be bool, and two
                                    // chunks must never share a packed word
};

/// Deterministic chunked counting sort (layout independent of the worker
/// count: chunk boundaries are fixed kRowChunk multiples).
template <typename AT>
std::shared_ptr<const CscLayout<AT>> csc_of(const Matrix<AT>& A) {
  return A.template cached_aux<CscLayout<AT>>([&] {
    auto csc = std::make_shared<CscLayout<AT>>();
    const IndexType nrows = A.nrows();
    const IndexType ncols = A.ncols();
    const std::size_t nchunks = (nrows + kRowChunk - 1) / kRowChunk;

    // Pass 1 (parallel over row chunks): per-(column, chunk) entry counts.
    // Layout counts[j * nchunks + c]: each slot belongs to exactly one
    // chunk.
    std::vector<IndexType> counts(ncols * nchunks, 0);
    parallel_ranges(nrows, kRowChunk,
                    [&](std::size_t begin, std::size_t end) {
      const std::size_t c = begin / kRowChunk;
      for (std::size_t k = begin; k < end; ++k)
        for (const auto& [j, av] : A.row(k)) {
          (void)av;
          ++counts[j * nchunks + c];
        }
    });

    // Pass 2 (serial scan): turn counts into placement cursors, columns
    // outer and chunks inner, so each column's entries land contiguously
    // with chunk segments in ascending source-row order.
    csc->col_ptr.assign(ncols + 1, 0);
    IndexType total = 0;
    for (IndexType j = 0; j < ncols; ++j) {
      csc->col_ptr[j] = total;
      for (std::size_t c = 0; c < nchunks; ++c) {
        const IndexType n = counts[j * nchunks + c];
        counts[j * nchunks + c] = total;
        total += n;
      }
    }
    csc->col_ptr[ncols] = total;

    // Pass 3 (parallel over row chunks): place (source row, value) pairs
    // at the cursors.
    csc->src_rows.resize(total);
    csc->vals.reset(new AT[total]);
    parallel_ranges(nrows, kRowChunk,
                    [&](std::size_t begin, std::size_t end) {
      const std::size_t c = begin / kRowChunk;
      for (std::size_t k = begin; k < end; ++k)
        for (const auto& [j, av] : A.row(k)) {
          const IndexType pos = counts[j * nchunks + c]++;
          csc->src_rows[pos] = k;
          csc->vals[pos] = av;
        }
    });
    return std::shared_ptr<const CscLayout<AT>>(std::move(csc));
  });
}

}  // namespace detail

// ===========================================================================
// mxm — matrix multiply over a semiring
// ===========================================================================

/// Row-parallel mask-seeded Gustavson: the Sequential row kernel
/// (seq_backend::detail::GustavsonRows), one instance per row chunk.
/// kRowChunk is coarse so the dense accumulator's initialization amortizes.
template <typename CT, typename MObj, typename Accum, typename SR,
          typename AT, typename BT>
void mxm(Matrix<CT>& C, const OutputDescriptor<MObj>& out, Accum accum, SR sr,
         const Matrix<AT>& A, const Matrix<BT>& B) {
  using ZT = typename SR::result_type;
  Matrix<ZT> T(C.nrows(), C.ncols());
  parallel_ranges(A.nrows(), kRowChunk,
                  [&](std::size_t begin, std::size_t end) {
    seq_backend::detail::GustavsonRows<ZT> rows(C.ncols(), sr.zero());
    for (std::size_t i = begin; i < end; ++i)
      T.set_row(i, rows(i, sr, A, B, out.mask));
  });
  pipeline::write_matrix_par(C, T, out, accum);
}

// ===========================================================================
// mxv / vxm
// ===========================================================================

/// Row-parallel pull: each output slot folds its matrix row in ascending
/// column order, exactly as the Sequential loop does.
template <typename WT, typename MObj, typename Accum, typename SR,
          typename AT, typename UT>
void mxv(Vector<WT>& w, const OutputDescriptor<MObj>& out, Accum accum, SR sr,
         const Matrix<AT>& A, const Vector<UT>& u) {
  using ZT = typename SR::result_type;
  Vector<ZT> T(w.size());
  parallel_ranges(A.nrows(), kVectorChunk,
                  [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
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
  });
  pipeline::write_vector_par(w, T, out, accum);
}

/// vxm cannot be row-parallelized as a scatter (two rows contribute to one
/// output slot). Instead: the cached CSC layout (detail::csc_of — built on
/// first use, reused until the matrix mutates, so iterated vxm pays it
/// once) feeds a column-parallel pull that folds each output slot's
/// contributions in exactly the order the Sequential scatter applied them
/// (first contribution assigns, later ones fold through sr.add), so the
/// result is bit-identical.
template <typename WT, typename MObj, typename Accum, typename SR,
          typename UT, typename AT>
void vxm(Vector<WT>& w, const OutputDescriptor<MObj>& out, Accum accum, SR sr,
         const Vector<UT>& u, const Matrix<AT>& A) {
  using ZT = typename SR::result_type;
  Vector<ZT> T(w.size());
  const auto csc = detail::csc_of(A);
  parallel_ranges(A.ncols(), kVectorChunk,
                  [&](std::size_t begin, std::size_t end) {
    for (std::size_t j = begin; j < end; ++j) {
      ZT acc{};
      bool any = false;
      for (IndexType p = csc->col_ptr[j]; p < csc->col_ptr[j + 1]; ++p) {
        const IndexType k = csc->src_rows[p];
        if (!u.present_unchecked(k)) continue;
        const ZT prod = sr.mult(u.value_unchecked(k), csc->vals[p]);
        if (any) {
          acc = sr.add(acc, prod);
        } else {
          acc = prod;
          any = true;
        }
      }
      if (any) T.set_unchecked(j, acc);
    }
  });
  pipeline::write_vector_par(w, T, out, accum);
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
  parallel_ranges(w.size(), kVectorChunk,
                  [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
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
  });
  pipeline::write_vector_par(w, T, out, accum);
}

template <typename WT, typename MObj, typename Accum, typename Op,
          typename UT, typename VT>
void ewise_mult_vec(Vector<WT>& w, const OutputDescriptor<MObj>& out,
                    Accum accum, Op op, const Vector<UT>& u,
                    const Vector<VT>& v) {
  using ZT = std::common_type_t<UT, VT>;
  Vector<ZT> T(w.size());
  parallel_ranges(w.size(), kVectorChunk,
                  [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      if (u.present_unchecked(i) && v.present_unchecked(i))
        T.set_unchecked(i, static_cast<ZT>(op(
                               static_cast<ZT>(u.value_unchecked(i)),
                               static_cast<ZT>(v.value_unchecked(i)))));
    }
  });
  pipeline::write_vector_par(w, T, out, accum);
}

template <typename CT, typename MObj, typename Accum, typename Op,
          typename AT, typename BT>
void ewise_add_mat(Matrix<CT>& C, const OutputDescriptor<MObj>& out,
                   Accum accum, Op op, const Matrix<AT>& A,
                   const Matrix<BT>& B) {
  using ZT = std::common_type_t<AT, BT>;
  Matrix<ZT> T(C.nrows(), C.ncols());
  parallel_ranges(C.nrows(), kVectorChunk,
                  [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const auto& ar = A.row(i);
      const auto& br = B.row(i);
      typename Matrix<ZT>::Row merged;
      merged.reserve(ar.size() + br.size());
      std::size_t ai = 0, bi = 0;
      while (ai < ar.size() || bi < br.size()) {
        if (bi >= br.size() ||
            (ai < ar.size() && ar[ai].first < br[bi].first)) {
          merged.emplace_back(ar[ai].first, static_cast<ZT>(ar[ai].second));
          ++ai;
        } else if (ai >= ar.size() || br[bi].first < ar[ai].first) {
          merged.emplace_back(br[bi].first, static_cast<ZT>(br[bi].second));
          ++bi;
        } else {
          merged.emplace_back(
              ar[ai].first,
              static_cast<ZT>(op(static_cast<ZT>(ar[ai].second),
                                 static_cast<ZT>(br[bi].second))));
          ++ai, ++bi;
        }
      }
      T.set_row(i, std::move(merged));
    }
  });
  pipeline::write_matrix_par(C, T, out, accum);
}

template <typename CT, typename MObj, typename Accum, typename Op,
          typename AT, typename BT>
void ewise_mult_mat(Matrix<CT>& C, const OutputDescriptor<MObj>& out,
                    Accum accum, Op op, const Matrix<AT>& A,
                    const Matrix<BT>& B) {
  using ZT = std::common_type_t<AT, BT>;
  Matrix<ZT> T(C.nrows(), C.ncols());
  parallel_ranges(C.nrows(), kVectorChunk,
                  [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
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
              ar[ai].first,
              static_cast<ZT>(op(static_cast<ZT>(ar[ai].second),
                                 static_cast<ZT>(br[bi].second))));
          ++ai, ++bi;
        }
      }
      T.set_row(i, std::move(merged));
    }
  });
  pipeline::write_matrix_par(C, T, out, accum);
}

// ===========================================================================
// apply
// ===========================================================================

template <typename WT, typename MObj, typename Accum, typename UnaryOp,
          typename UT>
void apply_vec(Vector<WT>& w, const OutputDescriptor<MObj>& out, Accum accum,
               UnaryOp f, const Vector<UT>& u) {
  Vector<WT> T(w.size());
  parallel_ranges(u.size(), kVectorChunk,
                  [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i)
      if (u.present_unchecked(i))
        T.set_unchecked(i, static_cast<WT>(f(u.value_unchecked(i))));
  });
  pipeline::write_vector_par(w, T, out, accum);
}

template <typename CT, typename MObj, typename Accum, typename UnaryOp,
          typename AT>
void apply_mat(Matrix<CT>& C, const OutputDescriptor<MObj>& out, Accum accum,
               UnaryOp f, const Matrix<AT>& A) {
  Matrix<CT> T(C.nrows(), C.ncols());
  parallel_ranges(A.nrows(), kVectorChunk,
                  [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      typename Matrix<CT>::Row trow;
      trow.reserve(A.row(i).size());
      for (const auto& [j, v] : A.row(i))
        trow.emplace_back(j, static_cast<CT>(f(v)));
      T.set_row(i, std::move(trow));
    }
  });
  pipeline::write_matrix_par(C, T, out, accum);
}

template <typename WT, typename MObj, typename Accum, typename IdxOp,
          typename UT>
void apply_indexed_vec(Vector<WT>& w, const OutputDescriptor<MObj>& out,
                       Accum accum, IdxOp f, const Vector<UT>& u) {
  Vector<WT> T(w.size());
  parallel_ranges(u.size(), kVectorChunk,
                  [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i)
      if (u.present_unchecked(i))
        T.set_unchecked(i, static_cast<WT>(f(i, u.value_unchecked(i))));
  });
  pipeline::write_vector_par(w, T, out, accum);
}

template <typename CT, typename MObj, typename Accum, typename IdxOp,
          typename AT>
void apply_indexed_mat(Matrix<CT>& C, const OutputDescriptor<MObj>& out,
                       Accum accum, IdxOp f, const Matrix<AT>& A) {
  Matrix<CT> T(C.nrows(), C.ncols());
  parallel_ranges(A.nrows(), kVectorChunk,
                  [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      typename Matrix<CT>::Row trow;
      trow.reserve(A.row(i).size());
      for (const auto& [j, v] : A.row(i))
        trow.emplace_back(j, static_cast<CT>(f(i, j, v)));
      T.set_row(i, std::move(trow));
    }
  });
  pipeline::write_matrix_par(C, T, out, accum);
}

// ===========================================================================
// reduce
// ===========================================================================

/// Row-wise reduction: each output slot folds its own row left-to-right
/// (the Sequential chain), rows distributed over the pool.
template <typename WT, typename MObj, typename Accum, typename Monoid,
          typename AT>
void reduce_mat_to_vec(Vector<WT>& w, const OutputDescriptor<MObj>& out,
                       Accum accum, Monoid monoid, const Matrix<AT>& A) {
  using ZT = typename Monoid::result_type;
  Vector<ZT> T(w.size());
  parallel_ranges(A.nrows(), kVectorChunk,
                  [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      if (A.row(i).empty()) continue;
      ZT acc = monoid.identity();
      for (const auto& [j, v] : A.row(i)) {
        (void)j;
        acc = monoid(acc, static_cast<ZT>(v));
      }
      T.set_unchecked(i, acc);
    }
  });
  pipeline::write_vector_par(w, T, out, accum);
}

// Scalar reductions fold every element through one chain — inherently
// serial under the bit-exactness contract, so Sequential runs them.
using seq_backend::reduce_mat_to_scalar;
using seq_backend::reduce_vec_to_scalar;

// ===========================================================================
// transpose
// ===========================================================================

/// The transpose itself is a scatter (row i contributes to many output
/// rows) and stays serial; the epilogue merge is row-parallel.
template <typename CT, typename MObj, typename Accum, typename AT>
void transpose_op(Matrix<CT>& C, const OutputDescriptor<MObj>& out,
                  Accum accum, const Matrix<AT>& A) {
  Matrix<AT> T = detail::transposed(A);
  pipeline::write_matrix_par(C, T, out, accum);
}

// ===========================================================================
// extract
// ===========================================================================

template <typename WT, typename MObj, typename Accum, typename UT>
void extract_vec(Vector<WT>& w, const OutputDescriptor<MObj>& out,
                 Accum accum, const Vector<UT>& u,
                 const IndexArrayType& indices) {
  Vector<UT> T(w.size());
  parallel_ranges(indices.size(), kVectorChunk,
                  [&](std::size_t begin, std::size_t end) {
    for (std::size_t k = begin; k < end; ++k) {
      const IndexType src = indices[k];
      if (src >= u.size())
        throw IndexOutOfBoundsException("extract: source index");
      if (u.present_unchecked(src))
        T.set_unchecked(k, u.value_unchecked(src));
    }
  });
  pipeline::write_vector_par(w, T, out, accum);
}

template <typename CT, typename MObj, typename Accum, typename AT>
void extract_mat(Matrix<CT>& C, const OutputDescriptor<MObj>& out,
                 Accum accum, const Matrix<AT>& A,
                 const IndexArrayType& row_indices,
                 const IndexArrayType& col_indices) {
  Matrix<AT> T(C.nrows(), C.ncols());
  // Column placement is shared read-only state; build it up front (also
  // surfaces bad column indices before any parallel work starts).
  std::vector<std::vector<IndexType>> col_positions(A.ncols());
  for (IndexType k = 0; k < col_indices.size(); ++k) {
    if (col_indices[k] >= A.ncols())
      throw IndexOutOfBoundsException("extract: column index");
    col_positions[col_indices[k]].push_back(k);
  }
  parallel_ranges(row_indices.size(), kVectorChunk,
                  [&](std::size_t begin, std::size_t end) {
    for (std::size_t k = begin; k < end; ++k) {
      const IndexType src = row_indices[k];
      if (src >= A.nrows())
        throw IndexOutOfBoundsException("extract: row index");
      typename Matrix<AT>::Row trow;
      for (const auto& [j, v] : A.row(src))
        for (IndexType dst_col : col_positions[j])
          trow.emplace_back(dst_col, v);
      std::sort(trow.begin(), trow.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      T.set_row(k, std::move(trow));
    }
  });
  pipeline::write_matrix_par(C, T, out, accum);
}

template <typename WT, typename MObj, typename Accum, typename AT>
void extract_col(Vector<WT>& w, const OutputDescriptor<MObj>& out,
                 Accum accum, const Matrix<AT>& A,
                 const IndexArrayType& row_indices, IndexType col) {
  if (col >= A.ncols())
    throw IndexOutOfBoundsException("extract: column index");
  Vector<AT> T(w.size());
  parallel_ranges(row_indices.size(), kVectorChunk,
                  [&](std::size_t begin, std::size_t end) {
    for (std::size_t k = begin; k < end; ++k) {
      if (row_indices[k] >= A.nrows())
        throw IndexOutOfBoundsException("extract: row index");
      const AT* v = A.find(row_indices[k], col);
      if (v != nullptr) T.set_unchecked(k, *v);
    }
  });
  pipeline::write_vector_par(w, T, out, accum);
}

// ===========================================================================
// assign
// ===========================================================================
// Assign resolves duplicate destination indices in submission order — an
// inherently serial contract — so the merge phase is the Sequential code
// and only the epilogue runs parallel.

template <typename WT, typename MObj, typename Accum, typename UT>
void assign_vec(Vector<WT>& w, const OutputDescriptor<MObj>& out, Accum accum,
                const Vector<UT>& u, const IndexArrayType& indices) {
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
          T.set_unchecked(dst,
                          static_cast<WT>(accum(T.value_unchecked(dst), uv)));
      } else {
        T.set_unchecked(dst, uv);
      }
    } else if (!kAccum) {
      T.erase_unchecked(dst);
    }
  }
  pipeline::write_vector_par(w, T, out, NoAccumulate{});
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
        T.set_unchecked(
            dst, static_cast<WT>(accum(T.value_unchecked(dst), value)));
    } else {
      T.set_unchecked(dst, value);
    }
  }
  pipeline::write_vector_par(w, T, out, NoAccumulate{});
}

template <typename CT, typename MObj, typename Accum, typename AT>
void assign_mat(Matrix<CT>& C, const OutputDescriptor<MObj>& out, Accum accum,
                const Matrix<AT>& A, const IndexArrayType& row_indices,
                const IndexArrayType& col_indices) {
  constexpr bool kAccum = !std::is_same_v<Accum, NoAccumulate>;
  Matrix<CT> T = C;
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
  pipeline::write_matrix_par(C, T, out, NoAccumulate{});
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
  pipeline::write_matrix_par(C, T, out, NoAccumulate{});
}

// ===========================================================================
// kronecker
// ===========================================================================

/// Parallel over A's rows: the block row ia owns output rows
/// [ia*B.nrows(), (ia+1)*B.nrows()), so chunks never collide.
template <typename CT, typename MObj, typename Accum, typename Op,
          typename AT, typename BT>
void kronecker(Matrix<CT>& C, const OutputDescriptor<MObj>& out, Accum accum,
               Op op, const Matrix<AT>& A, const Matrix<BT>& B) {
  using ZT = std::common_type_t<AT, BT>;
  Matrix<ZT> T(C.nrows(), C.ncols());
  parallel_ranges(A.nrows(), kVectorChunk,
                  [&](std::size_t begin, std::size_t end) {
    for (std::size_t ia = begin; ia < end; ++ia) {
      for (IndexType ib = 0; ib < B.nrows(); ++ib) {
        typename Matrix<ZT>::Row trow;
        for (const auto& [ja, va] : A.row(ia))
          for (const auto& [jb, vb] : B.row(ib))
            trow.emplace_back(ja * B.ncols() + jb,
                              static_cast<ZT>(op(static_cast<ZT>(va),
                                                 static_cast<ZT>(vb))));
        std::sort(trow.begin(), trow.end(),
                  [](const auto& a, const auto& b) {
                    return a.first < b.first;
                  });
        T.set_row(ia * B.nrows() + ib, std::move(trow));
      }
    }
  });
  pipeline::write_matrix_par(C, T, out, accum);
}

// ===========================================================================
// select
// ===========================================================================

template <typename CT, typename MObj, typename Accum, typename Pred,
          typename AT>
void select_mat(Matrix<CT>& C, const OutputDescriptor<MObj>& out, Accum accum,
                Pred pred, const Matrix<AT>& A) {
  Matrix<AT> T(C.nrows(), C.ncols());
  parallel_ranges(A.nrows(), kVectorChunk,
                  [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      typename Matrix<AT>::Row trow;
      for (const auto& [j, v] : A.row(i))
        if (pred(i, j, v)) trow.emplace_back(j, v);
      T.set_row(i, std::move(trow));
    }
  });
  pipeline::write_matrix_par(C, T, out, accum);
}

template <typename WT, typename MObj, typename Accum, typename Pred,
          typename UT>
void select_vec(Vector<WT>& w, const OutputDescriptor<MObj>& out, Accum accum,
                Pred pred, const Vector<UT>& u) {
  Vector<UT> T(w.size());
  parallel_ranges(u.size(), kVectorChunk,
                  [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i)
      if (u.present_unchecked(i) && pred(i, u.value_unchecked(i)))
        T.set_unchecked(i, u.value_unchecked(i));
  });
  pipeline::write_vector_par(w, T, out, accum);
}

}  // namespace grb::cpupar_backend
