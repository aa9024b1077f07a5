#pragma once

/// @file backend_gpu/vector.hpp
/// GPU-backend vector: dense value array + dense presence bitmap, both in
/// simulated device memory, plus a lazily-materialized sparse index list.
/// Dense storage is the standard GPU choice for GraphBLAS vectors —
/// frontiers flip between sparse and dense across BFS levels — but the
/// direction-optimizing traversal engine also wants the frontier as a
/// compacted index list so push kernels can be frontier-sized instead of
/// n-sized. The sparse form is a cache over the bitmap: materialized on
/// demand (one stats-counted device compaction), invalidated by any write.
/// nvals() is cached the same way — BFS polls it every level.

#include <utility>
#include <vector>

#include "gbtl/types.hpp"
#include "gpu_sim/algorithms.hpp"
#include "gpu_sim/context.hpp"
#include "gpu_sim/device_vector.hpp"

namespace grb::gpu_backend {

template <typename T>
class Vector {
 public:
  using ScalarType = T;

  Vector() = default;
  explicit Vector(IndexType size, gpu_sim::Context& ctx = gpu_sim::device())
      : size_(size), ctx_(&ctx), values_(size, ctx), present_(size, ctx) {
    if (size == 0)
      throw InvalidValueException("vector size must be positive");
    gpu_sim::fill(values_, T{});
    gpu_sim::fill(present_, std::uint8_t{0});
    nvals_cache_ = 0;
    nvals_valid_ = true;
  }

  // Copies carry only the canonical dense form; the sparse/nvals caches are
  // rebuilt on demand so a copy does not pay (or distort) d2d traffic for
  // cache state.
  Vector(const Vector& other)
      : size_(other.size_),
        ctx_(other.ctx_),
        values_(other.values_),
        present_(other.present_) {}
  Vector& operator=(const Vector& other) {
    if (this != &other) {
      size_ = other.size_;
      ctx_ = other.ctx_;
      values_ = other.values_;
      present_ = other.present_;
      invalidate_caches();
    }
    return *this;
  }
  Vector(Vector&& other) noexcept
      : size_(other.size_),
        ctx_(other.ctx_),
        values_(std::move(other.values_)),
        present_(std::move(other.present_)),
        nvals_cache_(other.nvals_cache_),
        nvals_valid_(other.nvals_valid_),
        sparse_indices_(std::move(other.sparse_indices_)),
        sparse_valid_(other.sparse_valid_) {}
  Vector& operator=(Vector&& other) noexcept {
    if (this != &other) {
      size_ = other.size_;
      ctx_ = other.ctx_;
      values_ = std::move(other.values_);
      present_ = std::move(other.present_);
      nvals_cache_ = other.nvals_cache_;
      nvals_valid_ = other.nvals_valid_;
      sparse_indices_ = std::move(other.sparse_indices_);
      sparse_valid_ = other.sparse_valid_;
    }
    return *this;
  }
  IndexType size() const { return size_; }
  gpu_sim::Context& context() const { return *ctx_; }

  IndexType nvals() const {
    if (!nvals_valid_) {
      nvals_cache_ = static_cast<IndexType>(gpu_sim::count_if(
          present_, [](std::uint8_t p) { return p != 0; }));
      nvals_valid_ = true;
      ctx_->count(&gpu_sim::DeviceStats::nvals_recounts, 1);
    }
    return nvals_cache_;
  }

  /// The compacted sparse form: indices of present entries, ascending.
  /// Materializes (and stats-counts) at most once per dirty epoch; the
  /// element count doubles as a free nvals.
  const gpu_sim::device_vector<IndexType>& sparse_indices() const {
    if (!sparse_valid_) {
      sparse_indices_ = gpu_sim::device_vector<IndexType>(*ctx_);
      const std::size_t kept =
          gpu_sim::flagged_indices(present_, sparse_indices_);
      sparse_valid_ = true;
      nvals_cache_ = static_cast<IndexType>(kept);
      nvals_valid_ = true;
      ctx_->count(&gpu_sim::DeviceStats::frontier_compactions, 1);
    }
    return sparse_indices_;
  }

  void clear() {
    gpu_sim::fill(values_, T{});
    gpu_sim::fill(present_, std::uint8_t{0});
    invalidate_caches();
    nvals_cache_ = 0;
    nvals_valid_ = true;
  }

  /// GrB_Vector_resize: grow with empty space / shrink dropping the tail.
  void resize(IndexType size) {
    if (size == 0)
      throw InvalidValueException("resize: size must be positive");
    const IndexType old = size_;
    values_.resize(size);
    present_.resize(size);
    size_ = size;
    invalidate_caches();
    if (size > old) {
      // Zero-fill the fresh region (device kernels over the suffix).
      T* v = values_.data();
      std::uint8_t* p = present_.data();
      const IndexType fresh = size - old;
      ctx_->launch_n(fresh,
                     gpu_sim::LaunchStats{fresh, 0, fresh * (sizeof(T) + 1)},
                     [=](std::size_t i) {
                       v[old + i] = T{};
                       p[old + i] = 0;
                     });
    }
  }

  template <typename VIt, typename DupOp>
  void build(const IndexArrayType& indices, VIt values_begin, IndexType n,
             DupOp dup) {
    if (indices.size() < n)
      throw InvalidValueException("build: index array shorter than n");
    // Assemble on host (dup handling is order-sensitive), then one upload.
    std::vector<T> vals(size_, T{});
    std::vector<std::uint8_t> pres(size_, 0);
    for (IndexType k = 0; k < n; ++k) {
      const IndexType i = indices[k];
      if (i >= size_)
        throw IndexOutOfBoundsException("build: tuple outside vector size");
      const T v = *(values_begin + static_cast<std::ptrdiff_t>(k));
      if (pres[i]) {
        vals[i] = dup(vals[i], v);
      } else {
        pres[i] = 1;
        vals[i] = v;
      }
    }
    values_.copy_from_host(vals);
    present_.copy_from_host(pres);
    invalidate_caches();
  }

  bool has_element(IndexType i) const {
    bounds_check(i);
    std::uint8_t p;
    ctx_->copy_d2h(&p, present_.data() + i, 1);
    return p != 0;
  }

  T get_element(IndexType i) const {
    bounds_check(i);
    if (!has_element(i)) throw NoValueException("vector getElement");
    T v;
    ctx_->copy_d2h(&v, values_.data() + i, sizeof(T));
    return v;
  }

  void set_element(IndexType i, const T& v) {
    bounds_check(i);
    const std::uint8_t one = 1;
    ctx_->copy_h2d(values_.data() + i, &v, sizeof(T));
    ctx_->copy_h2d(present_.data() + i, &one, 1);
    invalidate_caches();
  }

  void remove_element(IndexType i) {
    bounds_check(i);
    const std::uint8_t zero = 0;
    const T blank{};
    ctx_->copy_h2d(present_.data() + i, &zero, 1);
    ctx_->copy_h2d(values_.data() + i, &blank, sizeof(T));
    invalidate_caches();
  }

  void extract_tuples(IndexArrayType& indices, std::vector<T>& values) const {
    const auto vals = values_.to_host();
    const auto pres = present_.to_host();
    indices.clear();
    values.clear();
    for (IndexType i = 0; i < size_; ++i) {
      if (pres[i]) {
        indices.push_back(i);
        values.push_back(vals[i]);
      }
    }
  }

  // --- Device-side access for the operation pipelines --------------------
  // The non-const accessors hand out mutable storage (write_vector writes
  // through them), so taking one dirties the caches.
  gpu_sim::device_vector<T>& values() {
    invalidate_caches();
    return values_;
  }
  const gpu_sim::device_vector<T>& values() const { return values_; }
  gpu_sim::device_vector<std::uint8_t>& present() {
    invalidate_caches();
    return present_;
  }
  const gpu_sim::device_vector<std::uint8_t>& present() const {
    return present_;
  }

  /// Equal presence, and == on every present value: one device kernel over
  /// both vectors, whose bool is the only thing that reaches the host.
  friend bool operator==(const Vector& a, const Vector& b) {
    if (a.size_ != b.size_) return false;
    const T* av = a.values_.data();
    const T* bv = b.values_.data();
    const std::uint8_t* ap = a.present_.data();
    const std::uint8_t* bp = b.present_.data();
    return gpu_sim::all_of_n(
        *a.ctx_, a.size_, 2 * a.size_ * (sizeof(T) + 1), [=](std::size_t i) {
          return ap[i] == bp[i] && (ap[i] == 0 || av[i] == bv[i]);
        });
  }

 private:
  void bounds_check(IndexType i) const {
    if (i >= size_) throw IndexOutOfBoundsException("vector element access");
  }

  void invalidate_caches() {
    nvals_valid_ = false;
    sparse_valid_ = false;
  }

  IndexType size_ = 0;
  gpu_sim::Context* ctx_ = nullptr;
  gpu_sim::device_vector<T> values_;
  gpu_sim::device_vector<std::uint8_t> present_;

  // Lazy caches over the bitmap (see file comment).
  mutable IndexType nvals_cache_ = 0;
  mutable bool nvals_valid_ = false;
  mutable gpu_sim::device_vector<IndexType> sparse_indices_;
  mutable bool sparse_valid_ = false;
};

}  // namespace grb::gpu_backend
