#pragma once

/// @file output_pipeline.hpp
/// Backend epilogue executors for the masked-accumulate output pipeline.
/// Every backend finishes every operation here: the host backends with
/// scalar merge loops run under an execution policy (SerialExec for
/// Sequential, PoolExec for CpuPar), the gpu_sim backends with a fused
/// scatter kernel (vectors) and a sorted-COO merge (matrices). Every
/// executor resolves each position through grb::write_rules, so the
/// Merge/Replace/accumulate semantics live in exactly one place.
///
/// The executors are templated over the container types (everything needed
/// is the documented container API: present_unchecked/set_unchecked/... for
/// sequential vectors, row/set_row for sequential matrices, values()/
/// present()/context() for device vectors, CSR accessors +
/// load_from_sorted_keys for device matrices), so this header depends on
/// gpu_sim and the CPU execution policies but on no backend.

#include <cstdint>
#include <type_traits>
#include <utility>

#include "backend_cpupar/pool.hpp"
#include "gbtl/types.hpp"
#include "gbtl/write_rules.hpp"
#include "gpu_sim/algorithms.hpp"
#include "gpu_sim/context.hpp"
#include "gpu_sim/device_vector.hpp"

namespace grb::pipeline {

// ===========================================================================
// Host-side mask interpretation (sequential backend + host fallbacks)
// ===========================================================================

/// Does the mask allow writing matrix position (i, j)?
template <typename MObj>
bool mask_allows(const MaskDesc<MObj>& m, IndexType i, IndexType j) {
  if constexpr (std::is_same_v<MObj, EmptyMaskObj>) {
    (void)m, (void)i, (void)j;
    return true;
  } else {
    if (m.mask == nullptr) return true;
    const auto* v = m.mask->find(i, j);
    const bool present =
        (v != nullptr) && (m.structural || write_rules::truthy(*v));
    return m.complement ? !present : present;
  }
}

/// Does the mask allow writing vector position i?
template <typename MObj>
bool mask_allows(const MaskDesc<MObj>& m, IndexType i) {
  if constexpr (std::is_same_v<MObj, EmptyMaskObj>) {
    (void)m, (void)i;
    return true;
  } else {
    if (m.mask == nullptr) return true;
    const bool present =
        m.mask->present_unchecked(i) &&
        (m.structural || write_rules::truthy(m.mask->value_unchecked(i)));
    return m.complement ? !present : present;
  }
}

// ===========================================================================
// Host epilogues: scalar loops over the stored entries
// ===========================================================================

/// One merged output row: sorted merge of C's and T̃'s entry streams for row
/// i, each position resolved through write_rules.
template <typename CMat, typename TMat, typename MObj, typename Accum>
typename CMat::Row merge_matrix_row(const CMat& C, const TMat& T,
                                    const OutputDescriptor<MObj>& out,
                                    Accum accum, IndexType i) {
  using CT = typename CMat::ScalarType;
  const auto& crow = C.row(i);
  const auto& trow = T.row(i);
  typename CMat::Row merged;
  merged.reserve(crow.size() + trow.size());
  std::size_t ci = 0, ti = 0;
  while (ci < crow.size() || ti < trow.size()) {
    IndexType j;
    bool has_c = false, has_t = false;
    if (ci < crow.size() && ti < trow.size()) {
      if (crow[ci].first < trow[ti].first) {
        j = crow[ci].first;
        has_c = true;
      } else if (trow[ti].first < crow[ci].first) {
        j = trow[ti].first;
        has_t = true;
      } else {
        j = crow[ci].first;
        has_c = has_t = true;
      }
    } else if (ci < crow.size()) {
      j = crow[ci].first;
      has_c = true;
    } else {
      j = trow[ti].first;
      has_t = true;
    }

    const CT cval = has_c ? crow[ci].second : CT{};
    const auto tval = has_t ? trow[ti].second : typename TMat::ScalarType{};
    if (has_c) ++ci;
    if (has_t) ++ti;

    const auto entry =
        mask_allows(out.mask, i, j)
            ? write_rules::resolve_allowed(accum, has_c, cval, has_t, tval)
            : write_rules::resolve_disallowed(out.replace, has_c, cval);
    if (entry.present) merged.emplace_back(j, entry.value);
  }
  return merged;
}

/// Matrix epilogue: row-by-row merge through merge_matrix_row. Rows are
/// independent and set_row touches only its own row's storage, so the result
/// is the same under either execution policy.
template <typename Exec = cpupar_backend::SerialExec, typename CMat,
          typename TMat, typename MObj, typename Accum>
void write_matrix(CMat& C, const TMat& T, const OutputDescriptor<MObj>& out,
                  Accum accum) {
  Exec::ranges(C.nrows(), cpupar_backend::kVectorChunk,
               [&](std::size_t begin, std::size_t end) {
    for (IndexType i = begin; i < end; ++i)
      C.set_row(i, merge_matrix_row(C, T, out, accum, i));
  });
}

/// Resolve one vector slot in place.
template <typename WVec, typename TVec, typename MObj, typename Accum>
void write_vector_slot(WVec& w, const TVec& T,
                       const OutputDescriptor<MObj>& out, Accum accum,
                       IndexType i) {
  using WT = typename WVec::ScalarType;
  const bool has_w = w.present_unchecked(i);
  const bool has_t = T.present_unchecked(i);
  const WT wval = has_w ? w.value_unchecked(i) : WT{};
  const auto tval = has_t ? T.value_unchecked(i) : typename TVec::ScalarType{};
  const auto entry =
      mask_allows(out.mask, i)
          ? write_rules::resolve_allowed(accum, has_w, wval, has_t, tval)
          : write_rules::resolve_disallowed(out.replace, has_w, wval);
  if (entry.present)
    w.set_unchecked(i, entry.value);
  else if (has_w)
    w.erase_unchecked(i);
}

/// Vector epilogue: one dense pass over the positions. w's ScalarType may be
/// bool; PoolExec's 64-aligned chunks keep two chunks off one word of its bit
/// storage.
template <typename Exec = cpupar_backend::SerialExec, typename WVec,
          typename TVec, typename MObj, typename Accum>
void write_vector(WVec& w, const TVec& T, const OutputDescriptor<MObj>& out,
                  Accum accum) {
  Exec::ranges(w.size(), cpupar_backend::kVectorChunk,
               [&](std::size_t begin, std::size_t end) {
    for (IndexType i = begin; i < end; ++i)
      write_vector_slot(w, T, out, accum, i);
  });
}

/// T̃ of a scalar assign over GrB_ALL: every position holds @p value. Serves
/// both epilogues (it is copyable into device kernels).
template <typename T>
struct ConstantVector {
  using ScalarType = T;
  T value;
  bool present_unchecked(IndexType) const { return true; }
  T value_unchecked(IndexType) const { return value; }
};

// ===========================================================================
// Device-side mask plumbing
// ===========================================================================

/// Device-side vector mask probe: allows(i) reads the mask's presence byte
/// (and, for a value mask, its value) in place. Copyable into kernels.
template <typename MV>
struct VectorMaskProbe {
  const std::uint8_t* pres = nullptr;
  const MV* vals = nullptr;
  bool structural = false;
  bool complement = false;
  bool unmasked = true;

  bool operator()(IndexType i) const {
    if (unmasked) return true;
    const bool present =
        pres[i] != 0 && (structural || static_cast<bool>(vals[i]));
    return complement ? !present : present;
  }

  /// Mask bytes one position's test reads.
  std::uint64_t bytes_per_item() const {
    if (unmasked) return 0;
    return structural ? 1 : 1 + sizeof(MV);
  }
};

template <typename MObj>
auto vector_mask_probe(const MaskDesc<MObj>& m) {
  if constexpr (std::is_same_v<MObj, EmptyMaskObj>) {
    (void)m;
    return VectorMaskProbe<std::uint8_t>{};  // unmasked
  } else {
    using MV = typename MObj::ScalarType;
    VectorMaskProbe<MV> probe;
    if (m.mask == nullptr) return probe;
    probe.pres = m.mask->present().data();
    probe.vals = m.mask->values().data();
    probe.structural = m.structural;
    probe.complement = m.complement;
    probe.unmasked = false;
    return probe;
  }
}

/// Presence flags (post complement/structural interpretation) for a vector
/// mask, as a device bitmap: for kernels that select positions from the
/// mask up front rather than test each one.
template <typename MObj>
gpu_sim::device_vector<std::uint8_t> vector_mask_flags(
    gpu_sim::Context& ctx, const MaskDesc<MObj>& m, IndexType n) {
  gpu_sim::device_vector<std::uint8_t> flags(n, ctx);
  const auto allows = vector_mask_probe(m);
  if (allows.unmasked) {
    gpu_sim::fill(flags, std::uint8_t{1});
    return flags;
  }
  std::uint8_t* out = flags.data();
  ctx.launch_n(n, gpu_sim::LaunchStats{n, n * allows.bytes_per_item(), n},
               [=](std::size_t i) { out[i] = allows(i) ? 1 : 0; });
  return flags;
}

/// Device-side matrix mask probe: allows(i, j) via binary search into the
/// mask's CSR. Copyable into kernels.
template <typename MV>
struct MatrixMaskProbe {
  const IndexType* offs = nullptr;
  const IndexType* cols = nullptr;
  const MV* vals = nullptr;
  bool structural = false;
  bool complement = false;
  bool unmasked = true;

  bool operator()(IndexType i, IndexType j) const {
    if (unmasked) return true;
    bool present = false;
    IndexType lo = offs[i], hi = offs[i + 1];
    while (lo < hi) {
      const IndexType mid = lo + (hi - lo) / 2;
      if (cols[mid] < j)
        lo = mid + 1;
      else
        hi = mid;
    }
    if (lo < offs[i + 1] && cols[lo] == j)
      present = structural || static_cast<bool>(vals[lo]);
    return complement ? !present : present;
  }
};

template <typename MObj>
auto matrix_mask_probe(const MaskDesc<MObj>& m) {
  if constexpr (std::is_same_v<MObj, EmptyMaskObj>) {
    (void)m;
    return MatrixMaskProbe<std::uint8_t>{};  // unmasked
  } else {
    using MV = typename MObj::ScalarType;
    MatrixMaskProbe<MV> probe;
    if (m.mask == nullptr) return probe;
    probe.offs = m.mask->row_offsets().data();
    probe.cols = m.mask->col_indices().data();
    probe.vals = m.mask->values().data();
    probe.structural = m.structural;
    probe.complement = m.complement;
    probe.unmasked = false;
    return probe;
  }
}

/// Flattened row-major keys (row * ncols + col) for every stored entry of a
/// device CSR matrix.
template <typename AMat>
gpu_sim::device_vector<IndexType> coo_keys(const AMat& A) {
  gpu_sim::Context& ctx = A.context();
  const IndexType n = A.nrows();
  const IndexType nnz = A.nvals();
  gpu_sim::device_vector<IndexType> keys(nnz, ctx);
  const IndexType* offs = A.row_offsets().data();
  const IndexType* cols = A.col_indices().data();
  IndexType* out = keys.data();
  const IndexType ncols = A.ncols();
  // Row-parallel expansion of the offsets array.
  ctx.launch_n(n,
               gpu_sim::LaunchStats{nnz + n, (n + nnz) * sizeof(IndexType),
                                    nnz * sizeof(IndexType)},
               [=](std::size_t i) {
                 for (IndexType k = offs[i]; k < offs[i + 1]; ++k)
                   out[k] = static_cast<IndexType>(i) * ncols + cols[k];
               });
  return keys;
}

// ===========================================================================
// Device epilogues
// ===========================================================================

/// T̃ as dense device arrays, in the ConstantVector interface.
template <typename TT>
struct DeviceDenseVector {
  using ScalarType = TT;
  const TT* vals;
  const std::uint8_t* pres;
  bool present_unchecked(IndexType i) const { return pres[i] != 0; }
  TT value_unchecked(IndexType i) const { return vals[i]; }
};

/// Vector epilogue as one fused elementwise kernel: the mask is read in
/// place, and the accumulate merge and replace handling run in the same
/// pass over the dense storage. @p t_bytes is what T̃ costs to read per
/// position.
template <typename WVec, typename TVec, typename MObj, typename Accum>
void write_vector_kernel(WVec& w, const TVec t, std::uint64_t t_bytes,
                         const OutputDescriptor<MObj>& out, Accum accum) {
  using WT = typename WVec::ScalarType;
  gpu_sim::Context& ctx = w.context();
  const IndexType n = w.size();
  const auto allows = vector_mask_probe(out.mask);
  WT* wv = w.values().data();
  std::uint8_t* wp = w.present().data();
  const bool replace = out.replace;
  const Accum acc_op = accum;
  ctx.launch_n(
      n,
      gpu_sim::LaunchStats{
          3 * n, n * (sizeof(WT) + 1 + t_bytes + allows.bytes_per_item()),
          n * (sizeof(WT) + 1)},
      [=](std::size_t i) {
        // T̃'s value is read only where T̃ holds an entry: elsewhere its
        // storage may be uninitialized.
        const bool has_t = t.present_unchecked(i);
        const auto entry =
            allows(i) ? write_rules::resolve_allowed(
                            acc_op, wp[i] != 0, wv[i], has_t,
                            has_t ? t.value_unchecked(i)
                                  : typename TVec::ScalarType{})
                      : write_rules::resolve_disallowed(replace, wp[i] != 0,
                                                        wv[i]);
        wv[i] = entry.present ? entry.value : WT{};
        wp[i] = entry.present ? 1 : 0;
      });
}

/// The epilogue over a T̃ held as dense value and presence arrays.
template <typename WVec, typename TT, typename MObj, typename Accum>
void write_vector(WVec& w, const gpu_sim::device_vector<TT>& t_vals,
                  const gpu_sim::device_vector<std::uint8_t>& t_pres,
                  const OutputDescriptor<MObj>& out, Accum accum) {
  write_vector_kernel(w, DeviceDenseVector<TT>{t_vals.data(), t_pres.data()},
                      sizeof(TT) + 1, out, accum);
}

/// The epilogue over a T̃ that holds @p value at every position.
template <typename WVec, typename MObj, typename Accum>
void write_vector_constant(WVec& w, const typename WVec::ScalarType& value,
                           const OutputDescriptor<MObj>& out, Accum accum) {
  write_vector_kernel(w, ConstantVector<typename WVec::ScalarType>{value}, 0,
                      out, accum);
}

/// Matrix epilogue: serial merge of C's and T̃'s sorted COO streams under
/// the mask probe (merge-path kernel in real CUDA).
template <typename CMat, typename TT, typename MObj, typename Accum>
void write_matrix(CMat& C, const gpu_sim::device_vector<IndexType>& t_keys,
                  const gpu_sim::device_vector<TT>& t_vals,
                  const OutputDescriptor<MObj>& out, Accum accum) {
  using CT = typename CMat::ScalarType;
  gpu_sim::Context& ctx = C.context();
  auto c_keys = coo_keys(C);
  gpu_sim::device_vector<CT> c_vals = C.values();  // d2d snapshot

  const IndexType nc = c_keys.size();
  const IndexType nt = t_keys.size();
  gpu_sim::device_vector<IndexType> out_keys(nc + nt, ctx);
  gpu_sim::device_vector<CT> out_vals(nc + nt, ctx);

  auto probe = matrix_mask_probe(out.mask);
  const bool replace = out.replace;
  const IndexType ncols = C.ncols();
  const IndexType* ck = c_keys.data();
  const CT* cv = c_vals.data();
  const IndexType* tk = t_keys.data();
  const TT* tv = t_vals.data();
  IndexType* ok = out_keys.data();
  CT* ov = out_vals.data();
  IndexType kept = 0;

  const std::uint64_t read = (nc + nt) * (sizeof(IndexType) + sizeof(CT));
  const std::uint64_t written =
      (nc + nt) * (sizeof(IndexType) + sizeof(CT));
  ctx.launch(gpu_sim::Dim3{1}, gpu_sim::Dim3{1},
             gpu_sim::LaunchStats{2 * (nc + nt), read, written},
             [&](const gpu_sim::ThreadId&) {
               IndexType ci = 0, ti = 0;
               while (ci < nc || ti < nt) {
                 bool has_c = false, has_t = false;
                 IndexType key;
                 if (ci < nc && ti < nt) {
                   if (ck[ci] < tk[ti]) {
                     key = ck[ci];
                     has_c = true;
                   } else if (tk[ti] < ck[ci]) {
                     key = tk[ti];
                     has_t = true;
                   } else {
                     key = ck[ci];
                     has_c = has_t = true;
                   }
                 } else if (ci < nc) {
                   key = ck[ci];
                   has_c = true;
                 } else {
                   key = tk[ti];
                   has_t = true;
                 }
                 const CT cval = has_c ? cv[ci] : CT{};
                 const TT tval = has_t ? tv[ti] : TT{};
                 if (has_c) ++ci;
                 if (has_t) ++ti;

                 const IndexType i = key / ncols;
                 const IndexType j = key % ncols;
                 const auto entry =
                     probe(i, j)
                         ? write_rules::resolve_allowed(accum, has_c, cval,
                                                        has_t, tval)
                         : write_rules::resolve_disallowed(replace, has_c,
                                                           cval);
                 if (entry.present) {
                   ok[kept] = key;
                   ov[kept++] = entry.value;
                 }
               }
             });

  out_keys.resize(kept);
  out_vals.resize(kept);
  C.load_from_sorted_keys(out_keys, out_vals);
}

}  // namespace grb::pipeline
