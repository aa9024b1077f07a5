#pragma once

/// @file operations.hpp
/// The GraphBLAS operations — the public computational API. Every function
/// follows the GraphBLAS C++ argument order:
///
///   op(output, mask, accumulator, operator/semiring, inputs..., outp)
///
/// - `mask`:  NoMask{}, a Matrix/Vector, or complement()/structure() views.
/// - `accum`: NoAccumulate{} or a binary operator (e.g. Plus<T>{}).
/// - `outp`:  Merge (default) keeps non-masked output entries, Replace
///            deletes them.
///
/// Matrix operands may be wrapped in transpose(A). The frontend validates
/// shapes (every dimension failure names the op and both offending sizes)
/// and lowers {mask, outp} into one OutputDescriptor — the backends never
/// see the raw mask argument or OutputControl.

#include "gbtl/algebra.hpp"
#include "gbtl/backend.hpp"
#include "gbtl/matrix.hpp"
#include "gbtl/types.hpp"
#include "gbtl/vector.hpp"
#include "gbtl/views.hpp"
#include "gbtl/write_rules.hpp"
#include "sparse/fusion_plan.hpp"

namespace grb {

// ===========================================================================
// mxm: C<M,z> = accum(C, A +.* B)
// ===========================================================================

template <typename CT, typename Tag, typename MaskT, typename Accum,
          typename SR, typename AMat, typename BMat>
void mxm(Matrix<CT, Tag>& C, const MaskT& Mask, const Accum& accum,
         const SR& semiring, const AMat& A, const BMat& B,
         OutputControl outp = Merge) {
  detail::check_dims(detail::nrows_of(A) == C.nrows(), "mxm",
                     "C.nrows != A.nrows", C.nrows(), detail::nrows_of(A));
  detail::check_dims(detail::ncols_of(B) == C.ncols(), "mxm",
                     "C.ncols != B.ncols", C.ncols(), detail::ncols_of(B));
  detail::check_dims(detail::ncols_of(A) == detail::nrows_of(B), "mxm",
                     "A.ncols != B.nrows", detail::ncols_of(A),
                     detail::nrows_of(B));
  detail::check_mask_shape(detail::mask_shape_ok(Mask, C.nrows(), C.ncols()),
                           "mxm", C.nrows(), C.ncols());
  auto&& a = detail::lower_operand(A);
  auto&& b = detail::lower_operand(B);
  backend_ops<Tag>::mxm(C.impl(), detail::lower_output(Mask, outp), accum,
                        semiring, a, b);
}

// ===========================================================================
// mxv: w<m,z> = accum(w, A +.* u)
// ===========================================================================

template <typename WT, typename Tag, typename MaskT, typename Accum,
          typename SR, typename AMat, typename UT>
void mxv(Vector<WT, Tag>& w, const MaskT& mask, const Accum& accum,
         const SR& semiring, const AMat& A, const Vector<UT, Tag>& u,
         OutputControl outp = Merge) {
  detail::check_dims(detail::nrows_of(A) == w.size(), "mxv",
                     "w.size != A.nrows", w.size(), detail::nrows_of(A));
  detail::check_dims(detail::ncols_of(A) == u.size(), "mxv",
                     "u.size != A.ncols", u.size(), detail::ncols_of(A));
  detail::check_mask_size(detail::mask_size_ok(mask, w.size()), "mxv",
                          w.size());
  auto&& a = detail::lower_operand(A);
  backend_ops<Tag>::mxv(w.impl(), detail::lower_output(mask, outp), accum,
                        semiring, a, u.impl());
}

// ===========================================================================
// vxm: w<m,z> = accum(w, u +.* A)
// ===========================================================================

template <typename WT, typename Tag, typename MaskT, typename Accum,
          typename SR, typename UT, typename AMat>
void vxm(Vector<WT, Tag>& w, const MaskT& mask, const Accum& accum,
         const SR& semiring, const Vector<UT, Tag>& u, const AMat& A,
         OutputControl outp = Merge) {
  detail::check_dims(detail::ncols_of(A) == w.size(), "vxm",
                     "w.size != A.ncols", w.size(), detail::ncols_of(A));
  detail::check_dims(detail::nrows_of(A) == u.size(), "vxm",
                     "u.size != A.nrows", u.size(), detail::nrows_of(A));
  detail::check_mask_size(detail::mask_size_ok(mask, w.size()), "vxm",
                          w.size());
  auto&& a = detail::lower_operand(A);
  backend_ops<Tag>::vxm(w.impl(), detail::lower_output(mask, outp), accum,
                        semiring, u.impl(), a);
}

// ===========================================================================
// eWiseAdd / eWiseMult
// ===========================================================================

template <typename WT, typename Tag, typename MaskT, typename Accum,
          typename Op, typename UT, typename VT>
void eWiseAdd(Vector<WT, Tag>& w, const MaskT& mask, const Accum& accum,
              const Op& op, const Vector<UT, Tag>& u,
              const Vector<VT, Tag>& v, OutputControl outp = Merge) {
  detail::check_dims(u.size() == w.size(), "eWiseAdd", "u.size != w.size",
                     u.size(), w.size());
  detail::check_dims(v.size() == w.size(), "eWiseAdd", "v.size != w.size",
                     v.size(), w.size());
  detail::check_mask_size(detail::mask_size_ok(mask, w.size()), "eWiseAdd",
                          w.size());
  backend_ops<Tag>::ewise_add_vec(w.impl(), detail::lower_output(mask, outp),
                                  accum, op, u.impl(), v.impl());
}

template <typename WT, typename Tag, typename MaskT, typename Accum,
          typename Op, typename UT, typename VT>
void eWiseMult(Vector<WT, Tag>& w, const MaskT& mask, const Accum& accum,
               const Op& op, const Vector<UT, Tag>& u,
               const Vector<VT, Tag>& v, OutputControl outp = Merge) {
  detail::check_dims(u.size() == w.size(), "eWiseMult", "u.size != w.size",
                     u.size(), w.size());
  detail::check_dims(v.size() == w.size(), "eWiseMult", "v.size != w.size",
                     v.size(), w.size());
  detail::check_mask_size(detail::mask_size_ok(mask, w.size()), "eWiseMult",
                          w.size());
  backend_ops<Tag>::ewise_mult_vec(w.impl(), detail::lower_output(mask, outp),
                                   accum, op, u.impl(), v.impl());
}

namespace detail {

/// Shared shape validation for the binary matrix eWise ops.
template <typename CMat, typename AMat, typename BMat>
void check_ewise_mat_shapes(const char* op_name, const CMat& C, const AMat& A,
                            const BMat& B) {
  check_dims(nrows_of(A) == C.nrows(), op_name, "A.nrows != C.nrows",
             nrows_of(A), C.nrows());
  check_dims(ncols_of(A) == C.ncols(), op_name, "A.ncols != C.ncols",
             ncols_of(A), C.ncols());
  check_dims(nrows_of(B) == C.nrows(), op_name, "B.nrows != C.nrows",
             nrows_of(B), C.nrows());
  check_dims(ncols_of(B) == C.ncols(), op_name, "B.ncols != C.ncols",
             ncols_of(B), C.ncols());
}

}  // namespace detail

template <typename CT, typename Tag, typename MaskT, typename Accum,
          typename Op, typename AMat, typename BMat>
void eWiseAdd(Matrix<CT, Tag>& C, const MaskT& Mask, const Accum& accum,
              const Op& op, const AMat& A, const BMat& B,
              OutputControl outp = Merge) {
  detail::check_ewise_mat_shapes("eWiseAdd", C, A, B);
  detail::check_mask_shape(detail::mask_shape_ok(Mask, C.nrows(), C.ncols()),
                           "eWiseAdd", C.nrows(), C.ncols());
  auto&& a = detail::lower_operand(A);
  auto&& b = detail::lower_operand(B);
  backend_ops<Tag>::ewise_add_mat(C.impl(), detail::lower_output(Mask, outp),
                                  accum, op, a, b);
}

template <typename CT, typename Tag, typename MaskT, typename Accum,
          typename Op, typename AMat, typename BMat>
void eWiseMult(Matrix<CT, Tag>& C, const MaskT& Mask, const Accum& accum,
               const Op& op, const AMat& A, const BMat& B,
               OutputControl outp = Merge) {
  detail::check_ewise_mat_shapes("eWiseMult", C, A, B);
  detail::check_mask_shape(detail::mask_shape_ok(Mask, C.nrows(), C.ncols()),
                           "eWiseMult", C.nrows(), C.ncols());
  auto&& a = detail::lower_operand(A);
  auto&& b = detail::lower_operand(B);
  backend_ops<Tag>::ewise_mult_mat(C.impl(), detail::lower_output(Mask, outp),
                                   accum, op, a, b);
}

// ===========================================================================
// apply
// ===========================================================================

template <typename WT, typename Tag, typename MaskT, typename Accum,
          typename UnaryOp, typename UT>
void apply(Vector<WT, Tag>& w, const MaskT& mask, const Accum& accum,
           const UnaryOp& op, const Vector<UT, Tag>& u,
           OutputControl outp = Merge) {
  detail::check_dims(u.size() == w.size(), "apply", "u.size != w.size",
                     u.size(), w.size());
  detail::check_mask_size(detail::mask_size_ok(mask, w.size()), "apply",
                          w.size());
  backend_ops<Tag>::apply_vec(w.impl(), detail::lower_output(mask, outp),
                              accum, op, u.impl());
}

template <typename CT, typename Tag, typename MaskT, typename Accum,
          typename UnaryOp, typename AMat>
void apply(Matrix<CT, Tag>& C, const MaskT& Mask, const Accum& accum,
           const UnaryOp& op, const AMat& A, OutputControl outp = Merge) {
  detail::check_dims(detail::nrows_of(A) == C.nrows(), "apply",
                     "A.nrows != C.nrows", detail::nrows_of(A), C.nrows());
  detail::check_dims(detail::ncols_of(A) == C.ncols(), "apply",
                     "A.ncols != C.ncols", detail::ncols_of(A), C.ncols());
  detail::check_mask_shape(detail::mask_shape_ok(Mask, C.nrows(), C.ncols()),
                           "apply", C.nrows(), C.ncols());
  auto&& a = detail::lower_operand(A);
  backend_ops<Tag>::apply_mat(C.impl(), detail::lower_output(Mask, outp),
                              accum, op, a);
}

// ===========================================================================
// applyIndexed (GraphBLAS IndexUnaryOp extension)
// ===========================================================================

/// w<m,z> = accum(w, f(i, u[i])) — element transform with the position in
/// hand. Powers parent tracking, peeling, and positional filters.
template <typename WT, typename Tag, typename MaskT, typename Accum,
          typename IdxOp, typename UT>
void applyIndexed(Vector<WT, Tag>& w, const MaskT& mask, const Accum& accum,
                  const IdxOp& op, const Vector<UT, Tag>& u,
                  OutputControl outp = Merge) {
  detail::check_dims(u.size() == w.size(), "applyIndexed",
                     "u.size != w.size", u.size(), w.size());
  detail::check_mask_size(detail::mask_size_ok(mask, w.size()),
                          "applyIndexed", w.size());
  backend_ops<Tag>::apply_indexed_vec(w.impl(),
                                      detail::lower_output(mask, outp), accum,
                                      op, u.impl());
}

/// C<M,z> = accum(C, f(i, j, A(i,j))).
template <typename CT, typename Tag, typename MaskT, typename Accum,
          typename IdxOp, typename AT>
void applyIndexed(Matrix<CT, Tag>& C, const MaskT& Mask, const Accum& accum,
                  const IdxOp& op, const Matrix<AT, Tag>& A,
                  OutputControl outp = Merge) {
  detail::check_dims(A.nrows() == C.nrows(), "applyIndexed",
                     "A.nrows != C.nrows", A.nrows(), C.nrows());
  detail::check_dims(A.ncols() == C.ncols(), "applyIndexed",
                     "A.ncols != C.ncols", A.ncols(), C.ncols());
  detail::check_mask_shape(detail::mask_shape_ok(Mask, C.nrows(), C.ncols()),
                           "applyIndexed", C.nrows(), C.ncols());
  backend_ops<Tag>::apply_indexed_mat(C.impl(),
                                      detail::lower_output(Mask, outp), accum,
                                      op, A.impl());
}

// ===========================================================================
// reduce
// ===========================================================================

/// Row-wise reduce: w<m,z> = accum(w, reduce_rows(A)).
template <typename WT, typename Tag, typename MaskT, typename Accum,
          typename Monoid, typename AMat>
void reduce(Vector<WT, Tag>& w, const MaskT& mask, const Accum& accum,
            const Monoid& monoid, const AMat& A, OutputControl outp = Merge) {
  detail::check_dims(detail::nrows_of(A) == w.size(), "reduce",
                     "w.size != A.nrows", w.size(), detail::nrows_of(A));
  detail::check_mask_size(detail::mask_size_ok(mask, w.size()), "reduce",
                          w.size());
  auto&& a = detail::lower_operand(A);
  backend_ops<Tag>::reduce_mat_to_vec(w.impl(),
                                      detail::lower_output(mask, outp), accum,
                                      monoid, a);
}

/// Vector to scalar.
template <typename ST, typename Accum, typename Monoid, typename UT,
          typename Tag>
void reduce(ST& s, const Accum& accum, const Monoid& monoid,
            const Vector<UT, Tag>& u) {
  backend_ops<Tag>::reduce_vec_to_scalar(s, accum, monoid, u.impl());
}

/// Matrix to scalar.
template <typename ST, typename Accum, typename Monoid, typename AT,
          typename Tag>
void reduce(ST& s, const Accum& accum, const Monoid& monoid,
            const Matrix<AT, Tag>& A) {
  backend_ops<Tag>::reduce_mat_to_scalar(s, accum, monoid, A.impl());
}

// ===========================================================================
// transpose (as an operation; see views.hpp for the input-operand view)
// ===========================================================================

template <typename CT, typename Tag, typename MaskT, typename Accum,
          typename AT>
void transpose(Matrix<CT, Tag>& C, const MaskT& Mask, const Accum& accum,
               const Matrix<AT, Tag>& A, OutputControl outp = Merge) {
  detail::check_dims(C.nrows() == A.ncols(), "transpose",
                     "C.nrows != A.ncols", C.nrows(), A.ncols());
  detail::check_dims(C.ncols() == A.nrows(), "transpose",
                     "C.ncols != A.nrows", C.ncols(), A.nrows());
  detail::check_mask_shape(detail::mask_shape_ok(Mask, C.nrows(), C.ncols()),
                           "transpose", C.nrows(), C.ncols());
  backend_ops<Tag>::transpose_op(C.impl(), detail::lower_output(Mask, outp),
                                 accum, A.impl());
}

// ===========================================================================
// extract / assign
// ===========================================================================
// Every index argument is an explicit IndexArrayType, GrB_ALL (the whole
// dimension it indexes: u's for extract, w's or C's for assign), or an
// IndexView of either. The parameter is a template defaulting to
// IndexArrayType so that a braced list such as {0, 2} still binds to an
// array.

/// An index argument: anything that converts to an IndexView.
template <typename I>
concept IndexArgument = std::convertible_to<const I&, IndexView>;

/// w = u(indices).
template <typename WT, typename Tag, typename MaskT, typename Accum,
          typename UT, IndexArgument Idx = IndexArrayType>
void extract(Vector<WT, Tag>& w, const MaskT& mask, const Accum& accum,
             const Vector<UT, Tag>& u, const Idx& indices,
             OutputControl outp = Merge) {
  const IndexView idx = IndexView(indices).over(u.size());
  detail::check_dims(idx.size() == w.size(), "extract",
                     "w.size != indices.size", w.size(), idx.size());
  detail::check_mask_size(detail::mask_size_ok(mask, w.size()), "extract",
                          w.size());
  backend_ops<Tag>::extract_vec(w.impl(), detail::lower_output(mask, outp),
                                accum, u.impl(), idx);
}

/// C = A(row_indices, col_indices).
template <typename CT, typename Tag, typename MaskT, typename Accum,
          typename AT, IndexArgument RowIdx = IndexArrayType,
          IndexArgument ColIdx = IndexArrayType>
void extract(Matrix<CT, Tag>& C, const MaskT& Mask, const Accum& accum,
             const Matrix<AT, Tag>& A, const RowIdx& row_indices,
             const ColIdx& col_indices, OutputControl outp = Merge) {
  const IndexView rows = IndexView(row_indices).over(A.nrows());
  const IndexView cols = IndexView(col_indices).over(A.ncols());
  detail::check_dims(rows.size() == C.nrows(), "extract",
                     "C.nrows != row_indices.size", C.nrows(), rows.size());
  detail::check_dims(cols.size() == C.ncols(), "extract",
                     "C.ncols != col_indices.size", C.ncols(), cols.size());
  detail::check_mask_shape(detail::mask_shape_ok(Mask, C.nrows(), C.ncols()),
                           "extract", C.nrows(), C.ncols());
  backend_ops<Tag>::extract_mat(C.impl(), detail::lower_output(Mask, outp),
                                accum, A.impl(), rows, cols);
}

/// w = A(row_indices, col) — a single-column gather (pass transpose(A) to
/// gather a row).
template <typename WT, typename Tag, typename MaskT, typename Accum,
          typename AMat, IndexArgument Idx = IndexArrayType>
void extract(Vector<WT, Tag>& w, const MaskT& mask, const Accum& accum,
             const AMat& A, const Idx& row_indices, IndexType col,
             OutputControl outp = Merge) {
  const IndexView rows = IndexView(row_indices).over(detail::nrows_of(A));
  detail::check_dims(rows.size() == w.size(), "extract",
                     "w.size != row_indices.size", w.size(), rows.size());
  detail::check_mask_size(detail::mask_size_ok(mask, w.size()), "extract",
                          w.size());
  auto&& a = detail::lower_operand(A);
  backend_ops<Tag>::extract_col(w.impl(), detail::lower_output(mask, outp),
                                accum, a, rows, col);
}

/// w(indices) = u.
template <typename WT, typename Tag, typename MaskT, typename Accum,
          typename UT, IndexArgument Idx = IndexArrayType>
void assign(Vector<WT, Tag>& w, const MaskT& mask, const Accum& accum,
            const Vector<UT, Tag>& u, const Idx& indices,
            OutputControl outp = Merge) {
  const IndexView idx = IndexView(indices).over(w.size());
  detail::check_dims(idx.size() == u.size(), "assign",
                     "u.size != indices.size", u.size(), idx.size());
  detail::check_mask_size(detail::mask_size_ok(mask, w.size()), "assign",
                          w.size());
  backend_ops<Tag>::assign_vec(w.impl(), detail::lower_output(mask, outp),
                               accum, u.impl(), idx);
}

/// w(indices) = value (scalar broadcast).
template <typename WT, typename Tag, typename MaskT, typename Accum,
          typename ValT, IndexArgument Idx = IndexArrayType>
  requires std::convertible_to<ValT, WT>
void assign(Vector<WT, Tag>& w, const MaskT& mask, const Accum& accum,
            const ValT& value, const Idx& indices,
            OutputControl outp = Merge) {
  detail::check_mask_size(detail::mask_size_ok(mask, w.size()), "assign",
                          w.size());
  backend_ops<Tag>::assign_vec_constant(
      w.impl(), detail::lower_output(mask, outp), accum,
      static_cast<WT>(value), IndexView(indices).over(w.size()));
}

/// C(row_indices, col_indices) = A.
template <typename CT, typename Tag, typename MaskT, typename Accum,
          typename AT, IndexArgument RowIdx = IndexArrayType,
          IndexArgument ColIdx = IndexArrayType>
void assign(Matrix<CT, Tag>& C, const MaskT& Mask, const Accum& accum,
            const Matrix<AT, Tag>& A, const RowIdx& row_indices,
            const ColIdx& col_indices, OutputControl outp = Merge) {
  const IndexView rows = IndexView(row_indices).over(C.nrows());
  const IndexView cols = IndexView(col_indices).over(C.ncols());
  detail::check_dims(rows.size() == A.nrows(), "assign",
                     "A.nrows != row_indices.size", A.nrows(), rows.size());
  detail::check_dims(cols.size() == A.ncols(), "assign",
                     "A.ncols != col_indices.size", A.ncols(), cols.size());
  detail::check_mask_shape(detail::mask_shape_ok(Mask, C.nrows(), C.ncols()),
                           "assign", C.nrows(), C.ncols());
  backend_ops<Tag>::assign_mat(C.impl(), detail::lower_output(Mask, outp),
                               accum, A.impl(), rows, cols);
}

/// C(row_indices, col_indices) = value (scalar broadcast).
template <typename CT, typename Tag, typename MaskT, typename Accum,
          typename ValT, IndexArgument RowIdx = IndexArrayType,
          IndexArgument ColIdx = IndexArrayType>
  requires std::convertible_to<ValT, CT>
void assign(Matrix<CT, Tag>& C, const MaskT& Mask, const Accum& accum,
            const ValT& value, const RowIdx& row_indices,
            const ColIdx& col_indices, OutputControl outp = Merge) {
  detail::check_mask_shape(detail::mask_shape_ok(Mask, C.nrows(), C.ncols()),
                           "assign", C.nrows(), C.ncols());
  backend_ops<Tag>::assign_mat_constant(
      C.impl(), detail::lower_output(Mask, outp), accum,
      static_cast<CT>(value), IndexView(row_indices).over(C.nrows()),
      IndexView(col_indices).over(C.ncols()));
}

// ===========================================================================
// kronecker
// ===========================================================================

template <typename CT, typename Tag, typename MaskT, typename Accum,
          typename Op, typename AT, typename BT>
void kronecker(Matrix<CT, Tag>& C, const MaskT& Mask, const Accum& accum,
               const Op& op, const Matrix<AT, Tag>& A,
               const Matrix<BT, Tag>& B, OutputControl outp = Merge) {
  detail::check_dims(C.nrows() == A.nrows() * B.nrows(), "kronecker",
                     "C.nrows != A.nrows * B.nrows", C.nrows(),
                     A.nrows() * B.nrows());
  detail::check_dims(C.ncols() == A.ncols() * B.ncols(), "kronecker",
                     "C.ncols != A.ncols * B.ncols", C.ncols(),
                     A.ncols() * B.ncols());
  detail::check_mask_shape(detail::mask_shape_ok(Mask, C.nrows(), C.ncols()),
                           "kronecker", C.nrows(), C.ncols());
  backend_ops<Tag>::kronecker(C.impl(), detail::lower_output(Mask, outp),
                              accum, op, A.impl(), B.impl());
}

// ===========================================================================
// select (GBTL extension) — keep entries satisfying pred(index..., value)
// ===========================================================================

/// Matrix select: pred(i, j, value) -> bool.
template <typename CT, typename Tag, typename MaskT, typename Accum,
          typename Pred, typename AT>
void select(Matrix<CT, Tag>& C, const MaskT& Mask, const Accum& accum,
            const Pred& pred, const Matrix<AT, Tag>& A,
            OutputControl outp = Merge) {
  detail::check_dims(C.nrows() == A.nrows(), "select", "C.nrows != A.nrows",
                     C.nrows(), A.nrows());
  detail::check_dims(C.ncols() == A.ncols(), "select", "C.ncols != A.ncols",
                     C.ncols(), A.ncols());
  detail::check_mask_shape(detail::mask_shape_ok(Mask, C.nrows(), C.ncols()),
                           "select", C.nrows(), C.ncols());
  backend_ops<Tag>::select_mat(C.impl(), detail::lower_output(Mask, outp),
                               accum, pred, A.impl());
}

/// Vector select: pred(i, value) -> bool.
template <typename WT, typename Tag, typename MaskT, typename Accum,
          typename Pred, typename UT>
void select(Vector<WT, Tag>& w, const MaskT& mask, const Accum& accum,
            const Pred& pred, const Vector<UT, Tag>& u,
            OutputControl outp = Merge) {
  detail::check_dims(w.size() == u.size(), "select", "w.size != u.size",
                     w.size(), u.size());
  detail::check_mask_size(detail::mask_size_ok(mask, w.size()), "select",
                          w.size());
  backend_ops<Tag>::select_vec(w.impl(), detail::lower_output(mask, outp),
                               accum, pred, u.impl());
}

// ===========================================================================
// Convenience
// ===========================================================================

/// GrB_wait: every operation has already run when it returns, so wait()
/// only ends the calling thread's composite-launch chains on GpuSim: no
/// later op is charged as part of a composite launch begun before it
/// (docs/fusion.md). Always safe to call.
inline void wait() { sparse::fusion_sync_all(); }

/// [0, 1, ..., n-1] as an explicit array, for callers that need a real
/// one; to select a whole dimension in extract/assign, pass GrB_ALL.
inline IndexArrayType all_indices(IndexType n) {
  IndexArrayType out(n);
  for (IndexType i = 0; i < n; ++i) out[i] = i;
  return out;
}

}  // namespace grb
