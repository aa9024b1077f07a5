#pragma once

/// @file stats.hpp
/// Counters of everything the simulated device did. Benches read these to
/// report simulated kernel time, transfer time and traffic exactly the way
/// nvprof output backed the paper's figures.
///
/// for_each_counter lists every DeviceStats field once with its kind:
///   - cumulative: only grows; `a - b` is the activity between two
///     snapshots, and Context::reset_stats() zeroes it;
///   - point-in-time: a level now (bytes in use, bytes the pool holds);
///     `a - b` and reset_stats() both keep it;
///   - high-water: the largest level seen; `a - b` keeps it, and
///     reset_stats() restarts it (the byte peak at the bytes in use).

#include <array>
#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace gpu_sim {

/// SpMV kernel variants the adaptive engine (sparse/spmv_select.hpp) can
/// dispatch to. Lives next to DeviceStats so selections can be counted per
/// variant the way nvprof attributes time to kernel names.
enum class SpmvKernelKind : unsigned {
  kCsrScalar = 0,       ///< row-parallel CSR (one thread per row)
  kCsrLoadBalanced,     ///< merge-path / nnz-chunked CSR
  kEll,                 ///< padded ELL slab
  kHyb,                 ///< ELL slab + COO tail
  kCount
};

inline constexpr std::size_t kSpmvKernelKindCount =
    static_cast<std::size_t>(SpmvKernelKind::kCount);

inline const char* to_string(SpmvKernelKind k) {
  switch (k) {
    case SpmvKernelKind::kCsrScalar: return "csr-scalar";
    case SpmvKernelKind::kCsrLoadBalanced: return "csr-load-balanced";
    case SpmvKernelKind::kEll: return "ell";
    case SpmvKernelKind::kHyb: return "hyb";
    case SpmvKernelKind::kCount: break;
  }
  return "unknown";
}

/// Traversal directions the direction-optimizing vxm/mxv engine can take
/// (backend_gpu/ops.hpp). Push scatters from the sparse frontier; pull
/// gathers into the unvisited set from the transpose (CSC) side.
enum class TraversalDirection : unsigned {
  kPush = 0,  ///< frontier-sized scatter over the sparse index list
  kPull,      ///< unvisited-row gather with per-row early exit
  kCount
};

inline constexpr std::size_t kTraversalDirectionCount =
    static_cast<std::size_t>(TraversalDirection::kCount);

inline const char* to_string(TraversalDirection d) {
  switch (d) {
    case TraversalDirection::kPush: return "push";
    case TraversalDirection::kPull: return "pull";
    case TraversalDirection::kCount: break;
  }
  return "unknown";
}

/// SpGEMM strategies the adaptive mxm engine (sparse/spgemm_select.hpp) can
/// dispatch to. ESC materializes every partial product and contracts with a
/// sort; hash accumulates per-row into an open-addressing table.
enum class SpgemmStrategy : unsigned {
  kEsc = 0,  ///< expansion / sorting / contraction
  kHash,     ///< row-wise hash-Gustavson accumulate
  kCount
};

inline constexpr std::size_t kSpgemmStrategyCount =
    static_cast<std::size_t>(SpgemmStrategy::kCount);

inline const char* to_string(SpgemmStrategy s) {
  switch (s) {
    case SpgemmStrategy::kEsc: return "esc";
    case SpgemmStrategy::kHash: return "hash";
    case SpgemmStrategy::kCount: break;
  }
  return "unknown";
}

struct DeviceStats {
  // Memory manager activity.
  std::uint64_t allocations = 0;
  std::uint64_t frees = 0;
  std::size_t bytes_in_use = 0;
  std::size_t peak_bytes_in_use = 0;
  std::uint64_t total_bytes_allocated = 0;

  // Size-class memory pool activity (Context::pool_alloc / pool_free).
  // pool_bytes_held is point-in-time: bytes cached on the freelists,
  // allocated from the device heap but not owned by any client.
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  std::uint64_t pool_trims = 0;
  std::size_t pool_bytes_held = 0;

  /// Fraction of pool allocations served from a freelist.
  double pool_hit_rate() const {
    const std::uint64_t total = pool_hits + pool_misses;
    return total > 0 ? static_cast<double>(pool_hits) /
                           static_cast<double>(total)
                     : 0.0;
  }

  // Kernel activity.
  std::uint64_t kernel_launches = 0;
  std::uint64_t kernel_ops = 0;
  std::uint64_t kernel_bytes_read = 0;
  std::uint64_t kernel_bytes_written = 0;
  double simulated_kernel_time_s = 0.0;

  // Transfer activity.
  std::uint64_t h2d_transfers = 0;
  std::uint64_t h2d_bytes = 0;
  std::uint64_t d2h_transfers = 0;
  std::uint64_t d2h_bytes = 0;
  std::uint64_t d2d_copies = 0;
  std::uint64_t d2d_bytes = 0;
  double simulated_transfer_time_s = 0.0;

  // Adaptive SpMV engine activity (sparse/spmv_select.hpp): how many SpMV
  // dispatches picked each kernel variant, and how much memory traffic those
  // choices avoided relative to the row-parallel CSR baseline.
  std::array<std::uint64_t, kSpmvKernelKindCount> kernel_selections{};
  std::uint64_t spmv_bytes_saved_vs_baseline = 0;

  std::uint64_t kernel_selections_total() const {
    std::uint64_t t = 0;
    for (auto v : kernel_selections) t += v;
    return t;
  }

  // Direction-optimizing traversal engine activity (backend_gpu/ops.hpp):
  // per-call push/pull decisions, sparse-frontier compactions actually
  // materialized, rows the pull kernel left before exhausting their
  // adjacency, and presence-bitmap recounts the nvals cache could not avoid.
  std::array<std::uint64_t, kTraversalDirectionCount> direction_selections{};
  std::uint64_t frontier_compactions = 0;
  std::uint64_t pull_early_exit_rows = 0;
  std::uint64_t nvals_recounts = 0;

  std::uint64_t direction_selections_total() const {
    std::uint64_t t = 0;
    for (auto v : direction_selections) t += v;
    return t;
  }

  // Adaptive SpGEMM engine activity (sparse/spgemm_select.hpp): per-call
  // ESC/hash strategy decisions, probe-chain collisions and table bytes the
  // hash path paid, and partial products the mask-seeded table refused to
  // insert (the masked early exit, quantified).
  std::array<std::uint64_t, kSpgemmStrategyCount> spgemm_selections{};
  std::uint64_t spgemm_hash_collisions = 0;
  std::uint64_t spgemm_hash_table_bytes = 0;
  std::uint64_t spgemm_masked_products_avoided = 0;

  std::uint64_t spgemm_selections_total() const {
    std::uint64_t t = 0;
    for (auto v : spgemm_selections) t += v;
    return t;
  }

  // Composite-launch activity (sparse/fusion_plan.hpp): multi-op chains
  // charged as one composite launch, individual launches whose fixed
  // overhead that composite accounting elided, and wall-clock seconds
  // the multi-stream timeline hid by overlapping transfers with kernels
  // (serial sum of modeled durations minus the makespan over all streams).
  std::uint64_t fused_launches = 0;
  std::uint64_t launches_elided = 0;
  double overlap_seconds_hidden = 0.0;

  // Sharded multi-device activity (backend_gpu/sharded_ops.hpp): the widest
  // shard fan-out any single op on this context coordinated (point-in-time
  // high-water mark), total halo bytes moved across the device boundary for
  // sharded mxv/vxm (input-slice broadcasts plus per-shard output returns),
  // and the seconds of that exchange the pipeline hid under a concurrently
  // running shard kernel.
  std::uint64_t shards_active = 0;
  std::uint64_t halo_bytes_exchanged = 0;
  double halo_seconds_hidden = 0.0;

  // Bit-format engine activity (sparse/bitmap.hpp, backend_gpu/bit_ops.hpp):
  // how many ops the selectors routed onto the word-granularity bitmap
  // kernels, the 64-bit words those kernels actually touched (the Bit
  // analog of scanned edges — multiply by 8 for bytes), and explicit
  // CSR -> bitmap conversions materialized (one per cold view orientation).
  std::uint64_t bit_selections = 0;
  std::uint64_t bit_words_touched = 0;
  std::uint64_t bit_conversions = 0;

  /// Total simulated device-side time: the number the GPU columns of every
  /// table/figure report. This is the *serial* sum of modeled durations;
  /// subtract overlap_seconds_hidden for the multi-stream makespan.
  double simulated_total_time_s() const {
    return simulated_kernel_time_s + simulated_transfer_time_s;
  }
};

enum class CounterKind { kCumulative, kPointInTime, kHighWater };

/// Calls `f(name, &DeviceStats::field, kind)` once for every DeviceStats
/// field: the one list of the counters and their kinds.
template <typename F>
constexpr void for_each_counter(F&& f) {
  using S = DeviceStats;
  constexpr auto kCum = CounterKind::kCumulative;
  f("allocations", &S::allocations, kCum);
  f("frees", &S::frees, kCum);
  f("bytes_in_use", &S::bytes_in_use, CounterKind::kPointInTime);
  f("peak_bytes_in_use", &S::peak_bytes_in_use, CounterKind::kHighWater);
  f("total_bytes_allocated", &S::total_bytes_allocated, kCum);
  f("pool_hits", &S::pool_hits, kCum);
  f("pool_misses", &S::pool_misses, kCum);
  f("pool_trims", &S::pool_trims, kCum);
  f("pool_bytes_held", &S::pool_bytes_held, CounterKind::kPointInTime);
  f("kernel_launches", &S::kernel_launches, kCum);
  f("kernel_ops", &S::kernel_ops, kCum);
  f("kernel_bytes_read", &S::kernel_bytes_read, kCum);
  f("kernel_bytes_written", &S::kernel_bytes_written, kCum);
  f("simulated_kernel_time_s", &S::simulated_kernel_time_s, kCum);
  f("h2d_transfers", &S::h2d_transfers, kCum);
  f("h2d_bytes", &S::h2d_bytes, kCum);
  f("d2h_transfers", &S::d2h_transfers, kCum);
  f("d2h_bytes", &S::d2h_bytes, kCum);
  f("d2d_copies", &S::d2d_copies, kCum);
  f("d2d_bytes", &S::d2d_bytes, kCum);
  f("simulated_transfer_time_s", &S::simulated_transfer_time_s, kCum);
  f("kernel_selections", &S::kernel_selections, kCum);
  f("spmv_bytes_saved_vs_baseline", &S::spmv_bytes_saved_vs_baseline, kCum);
  f("direction_selections", &S::direction_selections, kCum);
  f("frontier_compactions", &S::frontier_compactions, kCum);
  f("pull_early_exit_rows", &S::pull_early_exit_rows, kCum);
  f("nvals_recounts", &S::nvals_recounts, kCum);
  f("spgemm_selections", &S::spgemm_selections, kCum);
  f("spgemm_hash_collisions", &S::spgemm_hash_collisions, kCum);
  f("spgemm_hash_table_bytes", &S::spgemm_hash_table_bytes, kCum);
  f("spgemm_masked_products_avoided", &S::spgemm_masked_products_avoided,
    kCum);
  f("fused_launches", &S::fused_launches, kCum);
  f("launches_elided", &S::launches_elided, kCum);
  f("overlap_seconds_hidden", &S::overlap_seconds_hidden, kCum);
  f("shards_active", &S::shards_active, CounterKind::kHighWater);
  f("halo_bytes_exchanged", &S::halo_bytes_exchanged, kCum);
  f("halo_seconds_hidden", &S::halo_seconds_hidden, kCum);
  f("bit_selections", &S::bit_selections, kCum);
  f("bit_words_touched", &S::bit_words_touched, kCum);
  f("bit_conversions", &S::bit_conversions, kCum);
}

// A field missing from the list above fails the build here.
static_assert(
    [] {
      std::size_t listed = 0;
      for_each_counter([&](const char*, auto field, CounterKind) {
        listed += sizeof(DeviceStats{}.*field);
      });
      return listed;
    }() == sizeof(DeviceStats),
    "for_each_counter must list every DeviceStats field");

/// Difference of two snapshots, used by benches to attribute device
/// activity to one timed region: cumulative counters subtract, the others
/// keep @p a's value.
inline DeviceStats operator-(const DeviceStats& a, const DeviceStats& b) {
  DeviceStats d = a;
  for_each_counter([&](const char*, auto field, CounterKind kind) {
    if (kind != CounterKind::kCumulative) return;
    auto& x = d.*field;
    if constexpr (std::is_arithmetic_v<std::remove_reference_t<decltype(x)>>)
      x -= b.*field;
    else
      for (std::size_t i = 0; i < x.size(); ++i) x[i] -= (b.*field)[i];
  });
  return d;
}

}  // namespace gpu_sim
