#pragma once

/// @file backend_gpu/matrix.hpp
/// GPU-backend sparse matrix: CSR resident in simulated device memory
/// (row_offsets / col_indices / values), the format the paper's CUDA
/// backend standardized on (see the format ablation, Abl. A). Structure
/// mutations (setElement / removeElement) round-trip through the host with
/// fully accounted transfers — exactly the cost a real CUDA backend pays,
/// which is why GraphBLAS algorithms batch their construction via build().

#include <algorithm>
#include <utility>
#include <vector>

#include "gbtl/types.hpp"
#include "gpu_sim/algorithms.hpp"
#include "gpu_sim/context.hpp"
#include "gpu_sim/device_vector.hpp"
#include "sparse/bitmap.hpp"
#include "sparse/fusion_plan.hpp"

namespace grb::gpu_backend {

template <typename T>
class Matrix {
 public:
  using ScalarType = T;

  /// Host-side COO snapshot used by the build/mutation paths and the
  /// host-fallback operations.
  struct HostCoo {
    IndexArrayType rows;
    IndexArrayType cols;
    std::vector<T> vals;
  };

  Matrix() = default;
  Matrix(IndexType nrows, IndexType ncols, gpu_sim::Context& ctx = gpu_sim::device())
      : nrows_(nrows),
        ncols_(ncols),
        ctx_(&ctx),
        row_offsets_(nrows + 1, ctx),
        col_indices_(ctx),
        values_(ctx) {
    if (nrows == 0 || ncols == 0)
      throw InvalidValueException("matrix dimensions must be positive");
    gpu_sim::fill(row_offsets_, IndexType{0});
  }

  // Copies carry only the canonical CSR form; the CSC cache is rebuilt on
  // demand so copies don't pay (or distort) d2d traffic for cache state.
  Matrix(const Matrix& other)
      : nrows_(other.nrows_),
        ncols_(other.ncols_),
        ctx_(other.ctx_),
        row_offsets_(other.row_offsets_),
        col_indices_(other.col_indices_),
        values_(other.values_) {}
  Matrix& operator=(const Matrix& other) {
    if (this != &other) {
      // Pending recorded ops may read this matrix; drain them before the
      // overwrite. (Matrices are never pending *outputs*, so reading
      // `other` needs no drain.)
      sparse::fusion_sync_if_touches(this);
      nrows_ = other.nrows_;
      ncols_ = other.ncols_;
      ctx_ = other.ctx_;
      row_offsets_ = other.row_offsets_;
      col_indices_ = other.col_indices_;
      values_ = other.values_;
      invalidate_csc();
    }
    return *this;
  }
  // Moving or destroying a matrix that a pending recorded op reads would
  // leave the op's captured reference dangling — drain first (touch-
  // filtered, like backend_gpu::Vector).
  Matrix(Matrix&& other) noexcept
      : nrows_((sparse::fusion_sync_if_touches(&other), other.nrows_)),
        ncols_(other.ncols_),
        ctx_(other.ctx_),
        row_offsets_(std::move(other.row_offsets_)),
        col_indices_(std::move(other.col_indices_)),
        values_(std::move(other.values_)),
        csc_valid_(other.csc_valid_),
        csc_offsets_(std::move(other.csc_offsets_)),
        csc_rows_(std::move(other.csc_rows_)),
        csc_vals_(std::move(other.csc_vals_)),
        bit_rows_(std::move(other.bit_rows_)),
        bit_cols_(std::move(other.bit_cols_)) {}
  Matrix& operator=(Matrix&& other) noexcept {
    if (this != &other) {
      sparse::fusion_sync_if_touches(this);
      sparse::fusion_sync_if_touches(&other);
      nrows_ = other.nrows_;
      ncols_ = other.ncols_;
      ctx_ = other.ctx_;
      row_offsets_ = std::move(other.row_offsets_);
      col_indices_ = std::move(other.col_indices_);
      values_ = std::move(other.values_);
      csc_valid_ = other.csc_valid_;
      csc_offsets_ = std::move(other.csc_offsets_);
      csc_rows_ = std::move(other.csc_rows_);
      csc_vals_ = std::move(other.csc_vals_);
      bit_rows_ = std::move(other.bit_rows_);
      bit_cols_ = std::move(other.bit_cols_);
    }
    return *this;
  }
  ~Matrix() { sparse::fusion_sync_if_touches(this); }

  IndexType nrows() const { return nrows_; }
  IndexType ncols() const { return ncols_; }
  IndexType nvals() const { return col_indices_.size(); }
  gpu_sim::Context& context() const { return *ctx_; }

  void clear() {
    sparse::fusion_sync_if_touches(this);
    gpu_sim::fill(row_offsets_, IndexType{0});
    col_indices_.clear();
    values_.clear();
    invalidate_csc();
  }

  /// GrB_Matrix_resize: a device pipeline — flag in-bounds entries, compact
  /// keys+values, rebuild CSR under the new column stride.
  void resize(IndexType nrows, IndexType ncols) {
    if (nrows == 0 || ncols == 0)
      throw InvalidValueException("resize: dimensions must be positive");
    sparse::fusion_sync_if_touches(this);
    const IndexType nnz = nvals();
    const IndexType old_ncols = ncols_;

    // Old flattened keys (computed against the old stride).
    gpu_sim::device_vector<IndexType> keys(nnz, *ctx_);
    {
      const IndexType* offs = row_offsets_.data();
      const IndexType* cols = col_indices_.data();
      IndexType* out = keys.data();
      const IndexType n = nrows_;
      ctx_->launch_n(n,
                     gpu_sim::LaunchStats{nnz + n,
                                          (n + nnz) * sizeof(IndexType),
                                          nnz * sizeof(IndexType)},
                     [=](std::size_t i) {
                       for (IndexType k = offs[i]; k < offs[i + 1]; ++k)
                         out[k] = static_cast<IndexType>(i) * old_ncols +
                                  cols[k];
                     });
    }
    // In-bounds flags + re-keyed coordinates under the new stride.
    gpu_sim::device_vector<std::uint8_t> flags(nnz, *ctx_);
    gpu_sim::device_vector<IndexType> new_keys(nnz, *ctx_);
    {
      const IndexType* k = keys.data();
      std::uint8_t* f = flags.data();
      IndexType* nk = new_keys.data();
      ctx_->launch_n(nnz,
                     gpu_sim::LaunchStats{3 * nnz,
                                          nnz * sizeof(IndexType),
                                          nnz * (sizeof(IndexType) + 1)},
                     [=](std::size_t p) {
                       const IndexType r = k[p] / old_ncols;
                       const IndexType c = k[p] % old_ncols;
                       const bool keep = r < nrows && c < ncols;
                       f[p] = keep ? 1 : 0;
                       nk[p] = keep ? r * ncols + c : 0;
                     });
    }
    gpu_sim::device_vector<IndexType> kept_keys(*ctx_);
    gpu_sim::device_vector<T> kept_vals(*ctx_);
    gpu_sim::copy_flagged(new_keys, flags, kept_keys);
    gpu_sim::copy_flagged(values_, flags, kept_vals);

    nrows_ = nrows;
    ncols_ = ncols;
    row_offsets_ = gpu_sim::device_vector<IndexType>(nrows + 1, *ctx_);
    load_from_sorted_keys(kept_keys, kept_vals);
  }

  /// Build from host coordinate arrays: upload, radix sort by (row, col),
  /// collapse duplicates with @p dup, then derive CSR offsets with a
  /// vectorized lower_bound — the CUSP construction pipeline.
  template <typename VIt, typename DupOp>
  void build(const IndexArrayType& row_idx, const IndexArrayType& col_idx,
             VIt values_begin, IndexType n, DupOp dup) {
    if (row_idx.size() < n || col_idx.size() < n)
      throw InvalidValueException("build: index arrays shorter than n");
    sparse::fusion_sync_if_touches(this);
    std::vector<IndexType> keys(n);
    std::vector<T> vals(n);
    for (IndexType k = 0; k < n; ++k) {
      if (row_idx[k] >= nrows_ || col_idx[k] >= ncols_)
        throw IndexOutOfBoundsException("build: tuple outside matrix shape");
      keys[k] = row_idx[k] * ncols_ + col_idx[k];
      vals[k] = *(values_begin + static_cast<std::ptrdiff_t>(k));
    }
    gpu_sim::device_vector<IndexType> d_keys(keys, *ctx_);
    gpu_sim::device_vector<T> d_vals(vals, *ctx_);
    gpu_sim::sort_by_key(d_keys, d_vals);
    gpu_sim::device_vector<IndexType> u_keys(*ctx_);
    gpu_sim::device_vector<T> u_vals(*ctx_);
    gpu_sim::reduce_by_key(d_keys, d_vals, u_keys, u_vals, dup);
    load_from_sorted_keys(u_keys, u_vals);
  }

  /// Row-major sorted tuple dump (one accounted D2H per component).
  void extract_tuples(IndexArrayType& row_idx, IndexArrayType& col_idx,
                      std::vector<T>& values) const {
    const auto offs = row_offsets_.to_host();
    const auto cols = col_indices_.to_host();
    values = values_.to_host();
    row_idx.clear();
    col_idx.clear();
    row_idx.reserve(cols.size());
    col_idx.assign(cols.begin(), cols.end());
    for (IndexType i = 0; i < nrows_; ++i)
      for (IndexType k = offs[i]; k < offs[i + 1]; ++k) row_idx.push_back(i);
  }

  HostCoo to_host_coo() const {
    HostCoo coo;
    extract_tuples(coo.rows, coo.cols, coo.vals);
    return coo;
  }

  /// Replace contents from host COO (need not be sorted or deduplicated —
  /// last duplicate wins, matching setElement-style mutation semantics).
  void from_host_coo(const HostCoo& coo) {
    build(coo.rows, coo.cols, coo.vals.begin(),
          static_cast<IndexType>(coo.vals.size()),
          [](const T&, const T& b) { return b; });
  }

  bool has_element(IndexType i, IndexType j) const {
    bounds_check(i, j);
    return find_position(i, j) != kNotFound;
  }

  T get_element(IndexType i, IndexType j) const {
    bounds_check(i, j);
    const IndexType pos = find_position(i, j);
    if (pos == kNotFound) throw NoValueException("matrix getElement");
    T out;
    ctx_->copy_d2h(&out, values_.data() + pos, sizeof(T));
    return out;
  }

  void set_element(IndexType i, IndexType j, const T& v) {
    bounds_check(i, j);
    sparse::fusion_sync_if_touches(this);
    const IndexType pos = find_position(i, j);
    if (pos != kNotFound) {
      ctx_->copy_h2d(values_.data() + pos, &v, sizeof(T));
      invalidate_csc();  // CSC mirrors values too, not just structure
      return;
    }
    HostCoo coo = to_host_coo();
    coo.rows.push_back(i);
    coo.cols.push_back(j);
    coo.vals.push_back(v);
    from_host_coo(coo);
  }

  void remove_element(IndexType i, IndexType j) {
    bounds_check(i, j);
    sparse::fusion_sync_if_touches(this);
    if (find_position(i, j) == kNotFound) return;
    HostCoo coo = to_host_coo();
    HostCoo out;
    for (IndexType k = 0; k < coo.rows.size(); ++k) {
      if (coo.rows[k] == i && coo.cols[k] == j) continue;
      out.rows.push_back(coo.rows[k]);
      out.cols.push_back(coo.cols[k]);
      out.vals.push_back(coo.vals[k]);
    }
    from_host_coo(out);
  }

  // --- Device-side access for the operation pipelines --------------------
  const gpu_sim::device_vector<IndexType>& row_offsets() const {
    return row_offsets_;
  }
  const gpu_sim::device_vector<IndexType>& col_indices() const {
    return col_indices_;
  }
  const gpu_sim::device_vector<T>& values() const { return values_; }

  // --- Transpose-side (CSC) view for pull-direction kernels ---------------
  // Lazily derived from CSR on first use (one accounted device pipeline:
  // expand + radix sort + gathers + lower_bound), then cached until any
  // structural or value mutation. The pull kernel walks column j of A —
  // i.e. the in-edges of destination j — via these three arrays.
  const gpu_sim::device_vector<IndexType>& col_offsets() const {
    ensure_csc();
    return csc_offsets_;
  }
  const gpu_sim::device_vector<IndexType>& csc_row_indices() const {
    ensure_csc();
    return csc_rows_;
  }
  const gpu_sim::device_vector<T>& csc_values() const {
    ensure_csc();
    return csc_vals_;
  }
  bool csc_cached() const { return csc_valid_; }

  // --- Bit-format views (sparse/bitmap.hpp layout, device-resident) -------
  // Two lazily-built orientations, each a row-major word bitmap with a
  // cache-line-aligned stride: the ROW view packs the rows of A over ncols
  // (serves the mxv gather and the mxm popcount's left operand), the COL
  // view packs the rows of A^T over nrows (the CSC analog — serves the
  // pull-direction vxm and the mxm popcount's right operand). Each carries
  // a structure plane plus, when some stored value is falsy, a truth plane
  // (otherwise truth aliases structure). Materialized on demand by an
  // explicit, counted (DeviceStats::bit_conversions), pool-allocated
  // conversion, cached until any structural or value mutation.
  struct BitView {
    bool valid = false;
    bool all_truthy = true;
    IndexType stride = 0;  ///< words per row (sparse::bit_row_stride)
    gpu_sim::device_vector<std::uint64_t> structure;
    gpu_sim::device_vector<std::uint64_t> truth;  ///< empty when all_truthy

    const std::uint64_t* structure_row(IndexType i) const {
      return structure.data() + i * stride;
    }
    const std::uint64_t* truth_row(IndexType i) const {
      return (all_truthy ? structure.data() : truth.data()) + i * stride;
    }
  };
  const BitView& bit_row_view() const {
    ensure_bits(bit_rows_, /*transpose=*/false);
    return bit_rows_;
  }
  const BitView& bit_col_view() const {
    ensure_bits(bit_cols_, /*transpose=*/true);
    return bit_cols_;
  }
  bool bit_cached(bool transpose) const {
    return transpose ? bit_cols_.valid : bit_rows_.valid;
  }

  /// Adopt device CSR arrays produced by an operation pipeline.
  void adopt(gpu_sim::device_vector<IndexType>&& row_offsets,
             gpu_sim::device_vector<IndexType>&& col_indices,
             gpu_sim::device_vector<T>&& values) {
    sparse::fusion_sync_if_touches(this);
    row_offsets_ = std::move(row_offsets);
    col_indices_ = std::move(col_indices);
    values_ = std::move(values);
    invalidate_csc();
  }

  /// Adopt flattened (row*ncols+col)-sorted key/value arrays.
  void load_from_sorted_keys(const gpu_sim::device_vector<IndexType>& keys,
                             const gpu_sim::device_vector<T>& vals) {
    invalidate_csc();
    const IndexType n = keys.size();
    col_indices_.resize(n);
    values_ = vals;
    // Split keys into (row, col) and derive row offsets.
    gpu_sim::device_vector<IndexType> rows(n, *ctx_);
    {
      const IndexType* k = keys.data();
      IndexType* r = rows.data();
      IndexType* c = col_indices_.data();
      const IndexType ncols = ncols_;
      ctx_->launch_n(
          n,
          gpu_sim::LaunchStats{2 * n, n * sizeof(IndexType),
                               2 * n * sizeof(IndexType)},
          [=](std::size_t t) {
            r[t] = k[t] / ncols;
            c[t] = k[t] % ncols;
          });
    }
    gpu_sim::device_vector<IndexType> needles(nrows_ + 1, *ctx_);
    gpu_sim::sequence(needles, IndexType{0});
    gpu_sim::lower_bound(rows, needles, row_offsets_);
  }

  /// Same shape and entry count (known on the host), then one device
  /// kernel over both CSR images: equal offsets, columns, and == values.
  friend bool operator==(const Matrix& a, const Matrix& b) {
    if (a.nrows_ != b.nrows_ || a.ncols_ != b.ncols_ ||
        a.nvals() != b.nvals())
      return false;
    const IndexType rows = a.nrows_ + 1, nnz = a.nvals();
    const IndexType* ao = a.row_offsets_.data();
    const IndexType* bo = b.row_offsets_.data();
    const IndexType* ac = a.col_indices_.data();
    const IndexType* bc = b.col_indices_.data();
    const T* av = a.values_.data();
    const T* bv = b.values_.data();
    return gpu_sim::all_of_n(
        *a.ctx_, std::max(rows, nnz),
        2 * (rows * sizeof(IndexType) + nnz * (sizeof(IndexType) + sizeof(T))),
        [=](std::size_t i) {
          return (i >= rows || ao[i] == bo[i]) &&
                 (i >= nnz || (ac[i] == bc[i] && av[i] == bv[i]));
        });
  }

 private:
  static constexpr IndexType kNotFound = ~IndexType{0};

  // Every mutation site funnels through here, so the bit views share the
  // CSC cache's exact invalidation discipline (values matter to both: the
  // truth plane mirrors value truthiness the way CSC mirrors values).
  void invalidate_csc() {
    csc_valid_ = false;
    csc_offsets_ = gpu_sim::device_vector<IndexType>();
    csc_rows_ = gpu_sim::device_vector<IndexType>();
    csc_vals_ = gpu_sim::device_vector<T>();
    bit_rows_ = BitView{};
    bit_cols_ = BitView{};
  }

  /// Materialize one bit-view orientation from CSR: a truthiness inspector
  /// over the values, zero-filled word planes, then a per-row scatter that
  /// ORs one bit per stored entry (random word writes in the transpose
  /// orientation — the bitmap is random-access, so no sort is needed,
  /// unlike the CSC build). Explicit, counted, pool-allocated.
  void ensure_bits(BitView& view, bool transpose) const {
    if (view.valid) return;
    const IndexType rows = transpose ? ncols_ : nrows_;
    const IndexType width = transpose ? nrows_ : ncols_;
    const IndexType nnz = nvals();
    view.stride = static_cast<IndexType>(sparse::bit_row_stride(width));

    // Truthiness inspector: one streaming pass over the values.
    view.all_truthy = true;
    {
      const T* vals = values_.data();
      for (IndexType k = 0; k < nnz; ++k)
        if (vals[k] == T{}) {
          view.all_truthy = false;
          break;
        }
      ctx_->account_kernel(
          gpu_sim::LaunchStats{nnz, nnz * sizeof(T), 8});
    }

    const IndexType plane_words = rows * view.stride;
    view.structure =
        gpu_sim::device_vector<std::uint64_t>(plane_words, *ctx_);
    gpu_sim::fill(view.structure, std::uint64_t{0});
    if (!view.all_truthy) {
      view.truth = gpu_sim::device_vector<std::uint64_t>(plane_words, *ctx_);
      gpu_sim::fill(view.truth, std::uint64_t{0});
    }

    const IndexType* offs = row_offsets_.data();
    const IndexType* cols = col_indices_.data();
    const T* vals = values_.data();
    std::uint64_t* splane = view.structure.data();
    std::uint64_t* tplane =
        view.all_truthy ? nullptr : view.truth.data();
    const IndexType stride = view.stride;
    const bool tr = transpose;
    const std::uint64_t planes = view.all_truthy ? 1 : 2;
    ctx_->launch_n(
        nrows_,
        gpu_sim::LaunchStats{
            2 * nnz + nrows_,
            (nrows_ + 1 + nnz) * sizeof(IndexType) + nnz * sizeof(T),
            nnz * 8 * planes},
        [=](std::size_t i) {
          for (IndexType k = offs[i]; k < offs[i + 1]; ++k) {
            const IndexType r = tr ? cols[k] : static_cast<IndexType>(i);
            const IndexType c = tr ? static_cast<IndexType>(i) : cols[k];
            const std::uint64_t bit = std::uint64_t{1}
                                      << (c % sparse::kBitWordBits);
            // atomicOr on real hardware; the simulation runs serially.
            splane[r * stride + c / sparse::kBitWordBits] |= bit;
            if (tplane && vals[k] != T{})
              tplane[r * stride + c / sparse::kBitWordBits] |= bit;
          }
        });
    view.valid = true;
    ctx_->count(&gpu_sim::DeviceStats::bit_conversions, 1);
  }

  /// Materialize the CSC view from CSR: expand per-entry coordinates,
  /// flatten column-major (col * nrows + row), radix-sort, gather the value
  /// payload along, and derive column offsets with a vectorized
  /// lower_bound — the same CUSP-style pipeline build() uses for CSR.
  void ensure_csc() const {
    if (csc_valid_) return;
    const IndexType n = nvals();
    gpu_sim::device_vector<IndexType> keys(n, *ctx_);
    {
      const IndexType* offs = row_offsets_.data();
      const IndexType* cols = col_indices_.data();
      IndexType* out = keys.data();
      const IndexType nr = nrows_;
      ctx_->launch_n(nrows_,
                     gpu_sim::LaunchStats{n + nrows_,
                                          (nrows_ + n) * sizeof(IndexType),
                                          n * sizeof(IndexType)},
                     [=](std::size_t i) {
                       for (IndexType k = offs[i]; k < offs[i + 1]; ++k)
                         out[k] = cols[k] * nr + static_cast<IndexType>(i);
                     });
    }
    gpu_sim::device_vector<IndexType> perm(*ctx_);
    gpu_sim::stable_argsort(keys, perm);
    gpu_sim::device_vector<IndexType> sorted_keys(*ctx_);
    gpu_sim::gather(perm, keys, sorted_keys);
    csc_vals_ = gpu_sim::device_vector<T>(*ctx_);
    gpu_sim::gather(perm, values_, csc_vals_);
    // Split sorted keys back into per-entry row and column streams.
    csc_rows_ = gpu_sim::device_vector<IndexType>(n, *ctx_);
    gpu_sim::device_vector<IndexType> sorted_cols(n, *ctx_);
    {
      const IndexType* sk = sorted_keys.data();
      IndexType* r = csc_rows_.data();
      IndexType* c = sorted_cols.data();
      const IndexType nr = nrows_;
      ctx_->launch_n(n,
                     gpu_sim::LaunchStats{2 * n, n * sizeof(IndexType),
                                          2 * n * sizeof(IndexType)},
                     [=](std::size_t t) {
                       r[t] = sk[t] % nr;
                       c[t] = sk[t] / nr;
                     });
    }
    gpu_sim::device_vector<IndexType> needles(ncols_ + 1, *ctx_);
    gpu_sim::sequence(needles, IndexType{0});
    csc_offsets_ = gpu_sim::device_vector<IndexType>(*ctx_);
    gpu_sim::lower_bound(sorted_cols, needles, csc_offsets_);
    csc_valid_ = true;
  }

  void bounds_check(IndexType i, IndexType j) const {
    if (i >= nrows_ || j >= ncols_)
      throw IndexOutOfBoundsException("matrix element access");
  }

  /// Position of (i, j) in the value array, or kNotFound. Downloads the
  /// row's slice of column indices (accounted), then binary-searches.
  IndexType find_position(IndexType i, IndexType j) const {
    IndexType bounds[2];
    ctx_->copy_d2h(bounds, row_offsets_.data() + i, 2 * sizeof(IndexType));
    const IndexType lo = bounds[0], hi = bounds[1];
    if (lo == hi) return kNotFound;
    std::vector<IndexType> cols(hi - lo);
    ctx_->copy_d2h(cols.data(), col_indices_.data() + lo,
                   (hi - lo) * sizeof(IndexType));
    auto it = std::lower_bound(cols.begin(), cols.end(), j);
    if (it != cols.end() && *it == j)
      return lo + static_cast<IndexType>(it - cols.begin());
    return kNotFound;
  }

  IndexType nrows_ = 0;
  IndexType ncols_ = 0;
  gpu_sim::Context* ctx_ = nullptr;
  gpu_sim::device_vector<IndexType> row_offsets_;
  gpu_sim::device_vector<IndexType> col_indices_;
  gpu_sim::device_vector<T> values_;

  // Lazily-cached transpose (CSC) view; see ensure_csc().
  mutable bool csc_valid_ = false;
  mutable gpu_sim::device_vector<IndexType> csc_offsets_;
  mutable gpu_sim::device_vector<IndexType> csc_rows_;
  mutable gpu_sim::device_vector<T> csc_vals_;

  // Lazily-cached bit-format views (see ensure_bits()); both orientations
  // share the CSC cache's invalidation sites and copy/move discipline.
  mutable BitView bit_rows_;
  mutable BitView bit_cols_;
};

}  // namespace grb::gpu_backend
