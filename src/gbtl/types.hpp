#pragma once

/// @file types.hpp
/// Core vocabulary of the GraphBLAS frontend: index types, backend tags,
/// descriptor enums, and the exception hierarchy mandated by the GraphBLAS
/// spec (dimension mismatch, out-of-bounds, missing element, ...).

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace grb {

/// Row/column index. 64-bit as in the GraphBLAS C API.
using IndexType = std::uint64_t;
using IndexArrayType = std::vector<IndexType>;

/// Backend selection tags. A `grb::Matrix<T, Sequential>` and a
/// `grb::Matrix<T, GpuSim>` expose the same frontend API but own their data
/// in different places; every operation requires all operands to share one
/// backend (mixing tags is a compile error by construction).
///
/// CpuPar is the thread-pool CPU backend: it shares the Sequential
/// containers but executes the heavy operations with row-range parallelism
/// under a deterministic per-output reduction order, so its results are
/// bit-identical to Sequential at any thread count (docs/backends.md).
///
/// GpuShard is the multi-device GPU backend: its Matrix is a row-block
/// ShardedMatrix spread over the calling thread's gpu_sim placement, its
/// Vector lives whole on the home device, and mxv/vxm run shard-by-shard
/// with halo broadcasts overlapped under kernel time (docs/sharding.md).
struct Sequential {};
struct GpuSim {};
struct CpuPar {};
struct GpuShard {};

/// Passed where an accumulator is expected to mean "no accumulation":
/// the operation's result replaces/merges into the output directly.
struct NoAccumulate {};

/// Passed where a mask is expected to mean "no mask".
struct NoMask {};

/// GraphBLAS output-control descriptor: with Merge, output elements outside
/// the mask are kept; with Replace, they are deleted.
enum class OutputControl { Merge, Replace };
inline constexpr OutputControl Merge = OutputControl::Merge;
inline constexpr OutputControl Replace = OutputControl::Replace;

// --------------------------------------------------------------------------
// Exceptions (GraphBLAS API errors)
// --------------------------------------------------------------------------

class GraphBLASError : public std::runtime_error {
 public:
  explicit GraphBLASError(const std::string& what_arg)
      : std::runtime_error("GraphBLAS: " + what_arg) {}
};

/// Operand shapes are incompatible with the operation.
class DimensionException : public GraphBLASError {
 public:
  explicit DimensionException(const std::string& what_arg)
      : GraphBLASError("dimension mismatch: " + what_arg) {}
};

/// An index is outside the object's shape.
class IndexOutOfBoundsException : public GraphBLASError {
 public:
  explicit IndexOutOfBoundsException(const std::string& what_arg)
      : GraphBLASError("index out of bounds: " + what_arg) {}
};

/// getElement on a position that holds no stored value.
class NoValueException : public GraphBLASError {
 public:
  explicit NoValueException(const std::string& what_arg)
      : GraphBLASError("no stored value: " + what_arg) {}
};

/// Malformed argument (mismatched build arrays, bad probabilities, ...).
class InvalidValueException : public GraphBLASError {
 public:
  explicit InvalidValueException(const std::string& what_arg)
      : GraphBLASError("invalid value: " + what_arg) {}
};

// --------------------------------------------------------------------------
// Index arguments of assign / extract
// --------------------------------------------------------------------------

/// The GraphBLAS C API's GrB_ALL: as an assign/extract index argument it
/// selects every position of the dimension it indexes, in order. No index
/// array is built, bounds-checked or uploaded for it.
struct AllIndices {};
inline constexpr AllIndices GrB_ALL{};

/// An index argument as the backends see it: a borrowed explicit array, or
/// GrB_ALL bound to the extent of the dimension it indexes. `indices[k]` is
/// the k-th selected position either way, so one op body serves both, and
/// is_all() lets a body skip the array altogether.
class IndexView {
 public:
  IndexView(const IndexArrayType& indices)
      : array_(&indices), size_(indices.size()) {}
  IndexView(AllIndices) {}

  /// This view with GrB_ALL bound to @p extent, the size of the dimension
  /// it indexes (the frontend binds it); an explicit array keeps its length.
  IndexView over(IndexType extent) const {
    IndexView v = *this;
    if (v.is_all()) v.size_ = extent;
    return v;
  }

  bool is_all() const { return array_ == nullptr; }
  IndexType size() const { return size_; }
  IndexType operator[](IndexType k) const {
    return array_ != nullptr ? (*array_)[k] : k;
  }
  /// The explicit array; only valid when !is_all().
  const IndexArrayType& array() const { return *array_; }

  /// Throws when an explicit index is >= @p bound; GrB_ALL never is.
  void check_bounds(IndexType bound, const char* what) const {
    if (array_ == nullptr) return;
    for (IndexType i : *array_)
      if (i >= bound) throw IndexOutOfBoundsException(what);
  }

 private:
  const IndexArrayType* array_ = nullptr;
  IndexType size_ = 0;
};

// --------------------------------------------------------------------------
// Internal helpers shared by frontend dimension checks
// --------------------------------------------------------------------------

namespace detail {

inline void check(bool ok, const char* msg) {
  if (!ok) throw DimensionException(msg);
}

/// Shape check with uniform diagnostics: every message names the operation,
/// the violated relation, and both offending dimensions, e.g.
///   "mxm: C.nrows != A.nrows (3 vs 4)".
/// The string is only assembled on failure.
inline void check_dims(bool ok, const char* op, const char* relation,
                       IndexType got, IndexType want) {
  if (ok) return;
  throw DimensionException(std::string(op) + ": " + relation + " (" +
                           std::to_string(got) + " vs " +
                           std::to_string(want) + ")");
}

/// Mask-shape check for matrix outputs:
///   "mxm: mask shape must match output (3x4)".
inline void check_mask_shape(bool ok, const char* op, IndexType nrows,
                             IndexType ncols) {
  if (ok) return;
  throw DimensionException(std::string(op) +
                           ": mask shape must match output (" +
                           std::to_string(nrows) + "x" +
                           std::to_string(ncols) + ")");
}

/// Mask-size check for vector outputs:
///   "mxv: mask size must match output (5)".
inline void check_mask_size(bool ok, const char* op, IndexType n) {
  if (ok) return;
  throw DimensionException(std::string(op) +
                           ": mask size must match output (" +
                           std::to_string(n) + ")");
}

}  // namespace detail

}  // namespace grb
