#pragma once

/// @file backend.hpp
/// Backend selection: maps a backend tag (grb::Sequential / grb::CpuPar /
/// grb::GpuSim / grb::GpuShard) to its name, container types and operation
/// entry points. GBTL 1.0 chose the backend by include-path substitution at
/// configure time; this repo uses a tag template parameter instead so all
/// backends coexist in one binary — the equivalence tests and the
/// CPU-vs-GPU benches depend on that. A tag without traits does not compile.

#include <utility>

#include "backend_cpupar/ops.hpp"
#include "backend_gpu/matrix.hpp"
#include "backend_gpu/ops.hpp"
#include "backend_gpu/sharded_matrix.hpp"
#include "backend_gpu/sharded_ops.hpp"
#include "backend_gpu/vector.hpp"
#include "backend_sequential/matrix.hpp"
#include "backend_sequential/ops.hpp"
#include "backend_sequential/vector.hpp"
#include "gbtl/types.hpp"

namespace grb {

/// Per tag: `name`, the backend's one spelled-out name (the service stamps
/// it on every QueryResult, and per-route metrics are keyed on it), and the
/// matrix/vector container types.
template <typename Tag>
struct backend_traits;

template <>
struct backend_traits<Sequential> {
  static constexpr const char* name = "sequential";
  template <typename T>
  using matrix_type = seq_backend::Matrix<T>;
  template <typename T>
  using vector_type = seq_backend::Vector<T>;
};

/// CpuPar shares the Sequential containers outright (they are written to be
/// safe under CpuPar's distinct-slot parallel writes) and, but for vxm, the
/// Sequential op bodies too: only the execution policy differs.
template <>
struct backend_traits<CpuPar> {
  static constexpr const char* name = "cpupar";
  template <typename T>
  using matrix_type = seq_backend::Matrix<T>;
  template <typename T>
  using vector_type = seq_backend::Vector<T>;
};

template <>
struct backend_traits<GpuSim> {
  static constexpr const char* name = "gpusim";
  template <typename T>
  using matrix_type = gpu_backend::Matrix<T>;
  template <typename T>
  using vector_type = gpu_backend::Vector<T>;
};

/// GpuShard spreads the matrix over the thread's gpu_sim placement as
/// row-block shards; vectors stay whole on the home device, so the vector
/// container is the plain GpuSim one.
template <>
struct backend_traits<GpuShard> {
  static constexpr const char* name = "gpushard";
  template <typename T>
  using matrix_type = gpu_backend::ShardedMatrix<T>;
  template <typename T>
  using vector_type = gpu_backend::Vector<T>;
};

/// Uniform forwarding shims so the frontend can dispatch to either backend
/// with one spelling. (Plain ADL would risk resolving back into the
/// frontend's own operation names.)
template <typename Tag>
struct backend_ops;

#define GBTL_FORWARD_OP(op_name)                           \
  template <typename... Args>                              \
  static decltype(auto) op_name(Args&&... args) {          \
    return backend_ns::op_name(std::forward<Args>(args)...); \
  }

/// The Sequential body of op_name under the pool policy: how CpuPar runs
/// every op whose loops split by output (backend_sequential/ops.hpp).
#define GBTL_FORWARD_POOLED(op_name)                                    \
  template <typename... Args>                                           \
  static decltype(auto) op_name(Args&&... args) {                       \
    return seq_backend::op_name<cpupar_backend::PoolExec>(              \
        std::forward<Args>(args)...);                                   \
  }

template <>
struct backend_ops<Sequential> {
  template <typename M>
  static M transposed(const M& m) {
    return seq_backend::detail::transposed(m);
  }
#define backend_ns seq_backend
  GBTL_FORWARD_OP(mxm)
  GBTL_FORWARD_OP(mxv)
  GBTL_FORWARD_OP(vxm)
  GBTL_FORWARD_OP(ewise_add_vec)
  GBTL_FORWARD_OP(ewise_mult_vec)
  GBTL_FORWARD_OP(ewise_add_mat)
  GBTL_FORWARD_OP(ewise_mult_mat)
  GBTL_FORWARD_OP(apply_vec)
  GBTL_FORWARD_OP(apply_mat)
  GBTL_FORWARD_OP(apply_indexed_vec)
  GBTL_FORWARD_OP(apply_indexed_mat)
  GBTL_FORWARD_OP(reduce_mat_to_vec)
  GBTL_FORWARD_OP(reduce_vec_to_scalar)
  GBTL_FORWARD_OP(reduce_mat_to_scalar)
  GBTL_FORWARD_OP(transpose_op)
  GBTL_FORWARD_OP(extract_vec)
  GBTL_FORWARD_OP(extract_mat)
  GBTL_FORWARD_OP(extract_col)
  GBTL_FORWARD_OP(assign_vec)
  GBTL_FORWARD_OP(assign_vec_constant)
  GBTL_FORWARD_OP(assign_mat)
  GBTL_FORWARD_OP(assign_mat_constant)
  GBTL_FORWARD_OP(kronecker)
  GBTL_FORWARD_OP(select_mat)
  GBTL_FORWARD_OP(select_vec)
#undef backend_ns
};

template <>
struct backend_ops<CpuPar> {
  template <typename M>
  static M transposed(const M& m) {
    return seq_backend::detail::transposed(m);
  }
  GBTL_FORWARD_POOLED(mxm)
  GBTL_FORWARD_POOLED(mxv)
  GBTL_FORWARD_POOLED(ewise_add_vec)
  GBTL_FORWARD_POOLED(ewise_mult_vec)
  GBTL_FORWARD_POOLED(ewise_add_mat)
  GBTL_FORWARD_POOLED(ewise_mult_mat)
  GBTL_FORWARD_POOLED(apply_vec)
  GBTL_FORWARD_POOLED(apply_mat)
  GBTL_FORWARD_POOLED(apply_indexed_vec)
  GBTL_FORWARD_POOLED(apply_indexed_mat)
  GBTL_FORWARD_POOLED(reduce_mat_to_vec)
  GBTL_FORWARD_POOLED(transpose_op)
  GBTL_FORWARD_POOLED(extract_vec)
  GBTL_FORWARD_POOLED(extract_mat)
  GBTL_FORWARD_POOLED(extract_col)
  GBTL_FORWARD_POOLED(assign_vec)
  GBTL_FORWARD_POOLED(assign_vec_constant)
  GBTL_FORWARD_POOLED(assign_mat)
  GBTL_FORWARD_POOLED(assign_mat_constant)
  GBTL_FORWARD_POOLED(kronecker)
  GBTL_FORWARD_POOLED(select_mat)
  GBTL_FORWARD_POOLED(select_vec)
  // The scalar reductions are serial by contract and take no policy.
#define backend_ns seq_backend
  GBTL_FORWARD_OP(reduce_vec_to_scalar)
  GBTL_FORWARD_OP(reduce_mat_to_scalar)
#undef backend_ns
  // vxm's scatter cannot split by output: CpuPar pulls by column instead.
#define backend_ns cpupar_backend
  GBTL_FORWARD_OP(vxm)
#undef backend_ns
};

template <>
struct backend_ops<GpuSim> {
  template <typename M>
  static M transposed(const M& m) {
    return gpu_backend::transposed(m);
  }
#define backend_ns gpu_backend
  GBTL_FORWARD_OP(mxm)
  GBTL_FORWARD_OP(mxv)
  GBTL_FORWARD_OP(vxm)
  GBTL_FORWARD_OP(ewise_add_vec)
  GBTL_FORWARD_OP(ewise_mult_vec)
  GBTL_FORWARD_OP(ewise_add_mat)
  GBTL_FORWARD_OP(ewise_mult_mat)
  GBTL_FORWARD_OP(apply_vec)
  GBTL_FORWARD_OP(apply_mat)
  GBTL_FORWARD_OP(apply_indexed_vec)
  GBTL_FORWARD_OP(apply_indexed_mat)
  GBTL_FORWARD_OP(reduce_mat_to_vec)
  GBTL_FORWARD_OP(reduce_vec_to_scalar)
  GBTL_FORWARD_OP(reduce_mat_to_scalar)
  GBTL_FORWARD_OP(transpose_op)
  GBTL_FORWARD_OP(extract_vec)
  GBTL_FORWARD_OP(extract_mat)
  GBTL_FORWARD_OP(extract_col)
  GBTL_FORWARD_OP(assign_vec)
  GBTL_FORWARD_OP(assign_vec_constant)
  GBTL_FORWARD_OP(assign_mat)
  GBTL_FORWARD_OP(assign_mat_constant)
  GBTL_FORWARD_OP(kronecker)
  GBTL_FORWARD_OP(select_mat)
  GBTL_FORWARD_OP(select_vec)
#undef backend_ns
};

template <>
struct backend_ops<GpuShard> {
  template <typename M>
  static M transposed(const M& m) {
    return gpu_shard::transposed(m);
  }
#define backend_ns gpu_shard
  GBTL_FORWARD_OP(mxm)
  GBTL_FORWARD_OP(mxv)
  GBTL_FORWARD_OP(vxm)
  GBTL_FORWARD_OP(ewise_add_vec)
  GBTL_FORWARD_OP(ewise_mult_vec)
  GBTL_FORWARD_OP(ewise_add_mat)
  GBTL_FORWARD_OP(ewise_mult_mat)
  GBTL_FORWARD_OP(apply_vec)
  GBTL_FORWARD_OP(apply_mat)
  GBTL_FORWARD_OP(apply_indexed_vec)
  GBTL_FORWARD_OP(apply_indexed_mat)
  GBTL_FORWARD_OP(reduce_mat_to_vec)
  GBTL_FORWARD_OP(reduce_vec_to_scalar)
  GBTL_FORWARD_OP(reduce_mat_to_scalar)
  GBTL_FORWARD_OP(transpose_op)
  GBTL_FORWARD_OP(extract_vec)
  GBTL_FORWARD_OP(extract_mat)
  GBTL_FORWARD_OP(extract_col)
  GBTL_FORWARD_OP(assign_vec)
  GBTL_FORWARD_OP(assign_vec_constant)
  GBTL_FORWARD_OP(assign_mat)
  GBTL_FORWARD_OP(assign_mat_constant)
  GBTL_FORWARD_OP(kronecker)
  GBTL_FORWARD_OP(select_mat)
  GBTL_FORWARD_OP(select_vec)
#undef backend_ns
};

#undef GBTL_FORWARD_OP
#undef GBTL_FORWARD_POOLED

}  // namespace grb
