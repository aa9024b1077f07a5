#pragma once

/// @file spgemm_select.hpp
/// Input-adaptive SpGEMM strategy selection (the GraphBLAST lesson applied
/// to mxm): a symbolic pass over the expansion counts upper-bounds per-row
/// FLOPs and output nnz, and a rule-based selector — ratified by the same
/// roofline cost model that drives the SpMV and traversal engines — picks
/// between the ESC pipeline (expand / sort / contract, the paper's strategy)
/// and a row-wise hash-Gustavson accumulate. Decisions are recorded in
/// DeviceStats::spgemm_selections; the hash path additionally reports its
/// probe-chain collisions, table bytes, and — in the mask-seeded variant —
/// the partial products the mask refused to insert.
///
/// Why two strategies: ESC's traffic is linear in total_products — every
/// partial product is materialized, radix-sorted, and contracted. On
/// high-compression inputs (total_products >> nnz(C): squared power-law
/// graphs, masked triangle counting) most of that traffic is wasted; a hash
/// table the size of the *output* row absorbs the products as they are
/// produced. On low-compression inputs the table is as large as the
/// expansion and the sort-free path saves nothing, so ESC stays the default.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "gpu_sim/context.hpp"
#include "gpu_sim/knob.hpp"
#include "sparse/formats.hpp"

namespace sparse {

using gpu_sim::SpgemmStrategy;

// ---------------------------------------------------------------------------
// Mode override + test hooks
// ---------------------------------------------------------------------------

/// Global dispatch override: Auto lets the heuristic decide; Esc/Hash pin
/// every mxm to one strategy (the differential tests sweep all three to
/// prove the paths agree bit-for-bit).
enum class SpgemmMode {
  Auto,
  Esc,
  Hash,
};

inline gpu_sim::Knob<SpgemmMode>& spgemm_mode_knob() {
  static gpu_sim::Knob<SpgemmMode> knob{SpgemmMode::Auto};
  return knob;
}
inline SpgemmMode spgemm_mode() { return spgemm_mode_knob().get(); }
/// Pins spgemm_mode() for a scope (tests and benches).
using SpgemmModeGuard = gpu_sim::KnobGuard<spgemm_mode_knob>;

/// Target open-addressing load factor: tables are sized to
/// entries / slots <= this bound (then rounded up to a power of two). A
/// knob so the edge tests can force a worst-case 1.0 load factor.
inline gpu_sim::Knob<double>& spgemm_hash_load_target_knob() {
  static gpu_sim::Knob<double> knob{0.5};
  return knob;
}
inline double spgemm_hash_load_target() {
  return spgemm_hash_load_target_knob().get();
}

// ---------------------------------------------------------------------------
// Row bins + table sizing
// ---------------------------------------------------------------------------

// Row binning thresholds, in per-row FLOPs (partial products). Short rows
// run one thread per row; medium rows get a warp; long rows are split into
// fixed-FLOP chunks across virtual workers, the merge-path idea applied to
// Gustavson row work.
inline constexpr Index kShortRowMaxFlops = 32;
inline constexpr Index kMediumRowMaxFlops = 512;
inline constexpr Index kLongRowChunkFlops = 256;

/// Tables at or under this many slots are modeled as living in on-chip
/// shared memory; larger tables spill to global memory and each probe pays
/// a memory-sector round trip.
inline constexpr Index kOnChipTableSlots = 2048;
/// Bytes charged per global-memory probe of a spilled table (one 32-byte
/// sector read; a miss chain pays one per step).
inline constexpr Index kProbeSectorBytes = 32;

inline constexpr Index kMinHashSlots = 8;

/// Slots for a hash table that must absorb @p entries_bound distinct keys:
/// sized to the load-factor target, rounded up to a power of two (the probe
/// sequence uses mask-and arithmetic), floored at kMinHashSlots.
inline Index hash_table_slots(Index entries_bound) {
  if (entries_bound == 0) return 0;
  const double target = std::max(spgemm_hash_load_target(), 1e-3);
  Index need = static_cast<Index>(
      std::ceil(static_cast<double>(entries_bound) / target));
  need = std::max(need, kMinHashSlots);
  Index slots = 1;
  while (slots < need) slots <<= 1;
  return slots;
}

// ---------------------------------------------------------------------------
// Symbolic summary
// ---------------------------------------------------------------------------

/// Product of the symbolic pass: per-row FLOP (partial-product) bounds and
/// output-nnz bounds folded into the aggregate shape statistics the
/// selector and the cost model consume.
struct SpgemmSymbolic {
  Index nrows = 0;
  Index ncols = 0;
  std::uint64_t total_products = 0;  ///< sum of per-row FLOPs
  std::uint64_t est_nnz = 0;         ///< sum of per-row output bounds
  Index max_row_flops = 0;
  double mean_row_flops = 0.0;  ///< over non-empty rows
  double flops_stddev = 0.0;    ///< population stddev over non-empty rows
  Index nonempty_rows = 0;
  // Row bins (by FLOP count; empty rows are unbinned).
  Index short_rows = 0;
  Index medium_rows = 0;
  Index long_rows = 0;
  std::uint64_t long_row_chunks = 0;  ///< virtual workers for the long bin
  // Hash-table footprint.
  std::uint64_t table_slots = 0;      ///< total slots across all rows
  std::uint64_t spilled_slots = 0;    ///< slots of tables > kOnChipTableSlots
  std::uint64_t spilled_products = 0; ///< products landing in spilled tables
  bool masked = false;  ///< output bound came from a non-complemented mask

  /// The selector's primary signal: partial products per distinct output
  /// slot. 1.0 means every product survives (ESC wastes nothing); >> 1
  /// means most of the expansion collapses (hash absorbs it in place).
  double compression() const {
    return est_nnz > 0 ? static_cast<double>(total_products) /
                             static_cast<double>(est_nnz)
                       : 1.0;
  }
  /// Max/mean row FLOPs: >> 1 when one row dominates the expansion.
  double flops_skew() const {
    return mean_row_flops > 0.0
               ? static_cast<double>(max_row_flops) / mean_row_flops
               : 0.0;
  }
  /// Coefficient of variation of row FLOPs.
  double flops_cv() const {
    return mean_row_flops > 0.0 ? flops_stddev / mean_row_flops : 0.0;
  }
};

/// Fold per-row FLOP counts and output-nnz caps into the symbolic summary.
/// Both arrays may live in (host-addressable) device memory — the pass reads
/// them in place; its kernel cost is charged separately by the caller.
///
/// @param row_flops  partial products generated by each output row.
/// @param row_caps   upper bound on each row's distinct output columns —
///   min(flops, ncols) unmasked, the allowed-mask-entry count when a
///   non-complemented mask seeds the table. The hash table of a row must
///   hold this many keys.
inline SpgemmSymbolic analyze_spgemm(const Index* row_flops,
                                     const Index* row_caps, Index nrows,
                                     Index ncols, bool masked) {
  SpgemmSymbolic s;
  s.nrows = nrows;
  s.ncols = ncols;
  s.masked = masked;
  double sum = 0.0, sum_sq = 0.0;
  for (Index i = 0; i < nrows; ++i) {
    const Index f = row_flops[i];
    s.total_products += f;
    if (f == 0) continue;
    ++s.nonempty_rows;
    sum += static_cast<double>(f);
    sum_sq += static_cast<double>(f) * static_cast<double>(f);
    s.max_row_flops = std::max(s.max_row_flops, f);
    const Index bound = std::min<Index>(f, row_caps[i]);
    s.est_nnz += bound;
    if (f <= kShortRowMaxFlops) {
      ++s.short_rows;
    } else if (f <= kMediumRowMaxFlops) {
      ++s.medium_rows;
    } else {
      ++s.long_rows;
      s.long_row_chunks += (f + kLongRowChunkFlops - 1) / kLongRowChunkFlops;
    }
    const Index slots = hash_table_slots(row_caps[i]);
    s.table_slots += slots;
    if (slots > kOnChipTableSlots) {
      s.spilled_slots += slots;
      s.spilled_products += f;
    }
  }
  if (s.nonempty_rows > 0) {
    s.mean_row_flops = sum / static_cast<double>(s.nonempty_rows);
    const double var = sum_sq / static_cast<double>(s.nonempty_rows) -
                       s.mean_row_flops * s.mean_row_flops;
    s.flops_stddev = var > 0.0 ? std::sqrt(var) : 0.0;
  }
  return s;
}

// ---------------------------------------------------------------------------
// Overflow guard
// ---------------------------------------------------------------------------

/// Sum expansion counts in 64 bits and verify the grand total still fits
/// the index type the downstream scan/expansion buffers are addressed with.
/// ESC materializes total_products (key, value) pairs, so an IndexT
/// narrower than 64 bits overflows silently on skewed inputs — this guard
/// turns that into a diagnostic naming the op and the product count.
template <typename IndexT>
std::uint64_t checked_product_total(const IndexT* counts, std::size_t n,
                                    const char* op) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t prev = total;
    total += static_cast<std::uint64_t>(counts[i]);
    if (total < prev)
      throw std::overflow_error(
          std::string(op) +
          ": SpGEMM expansion product count overflows 64-bit accumulation");
  }
  constexpr std::uint64_t index_max =
      static_cast<std::uint64_t>(~static_cast<IndexT>(0));
  if (total > index_max)
    throw std::overflow_error(
        std::string(op) + ": SpGEMM expansion needs " + std::to_string(total) +
        " partial products, which exceeds the " +
        std::to_string(8 * sizeof(IndexT)) +
        "-bit index type; rebuild with a wider IndexType or block the "
        "multiply");
  return total;
}

// ---------------------------------------------------------------------------
// Cost model
// ---------------------------------------------------------------------------

/// Estimated global-memory traffic of one mxm under @p strategy, mirroring
/// the LaunchStats the two pipelines actually charge (excluding the shared
/// symbolic pass and write-back, which both strategies pay identically).
inline std::uint64_t estimated_spgemm_bytes(SpgemmStrategy strategy,
                                            const SpgemmSymbolic& s,
                                            std::size_t value_bytes) {
  const std::uint64_t pair = sizeof(Index) + value_bytes;
  const std::uint64_t P = s.total_products;
  if (strategy == SpgemmStrategy::kEsc) {
    // Expansion write, radix sort (4 passes × read+write of the key/value
    // stream), contraction read + unique write. Masked runs pre-filter the
    // expansion with a per-product probe before the sort.
    std::uint64_t bytes = P * pair              // expansion write
                          + 8 * P * pair        // 4-pass radix sort
                          + P * pair            // contraction read
                          + s.est_nnz * pair;   // contraction write
    if (s.masked)
      bytes += P * (8 * sizeof(Index) + 1)  // probe + flag per product
               + 2 * P * pair;              // compaction read/write
    return bytes;
  }
  // Hash: binning passes over the row arrays, one streamed read of the
  // expansion inputs, table init + insert traffic (on-chip tables are free
  // beyond their init; spilled tables pay sector round trips per probe),
  // and the sorted extraction of est_nnz survivors.
  const std::uint64_t slot_bytes = pair + 1;  // key + value + state byte
  return s.nrows * (6 * sizeof(Index))            // binning + offsets
         + P * pair                               // streamed products
         + s.table_slots * slot_bytes             // init + extraction scan
         + 2 * s.spilled_products * kProbeSectorBytes  // global probes
         + s.spilled_slots * slot_bytes           // spilled extraction
         + s.est_nnz * pair;                      // output write
}

/// Approximate scalar-op count per call (the roofline's compute leg).
inline std::uint64_t estimated_spgemm_ops(SpgemmStrategy strategy,
                                          const SpgemmSymbolic& s) {
  const std::uint64_t P = s.total_products;
  if (strategy == SpgemmStrategy::kEsc) {
    std::uint64_t ops = 2 * P      // expand mult + slot arithmetic
                        + 8 * P    // radix sort passes
                        + 2 * P;   // contraction compare + add
    if (s.masked) ops += 8 * P;    // binary-search probe per product
    return ops;
  }
  // Hash: mult + hash + expected ~2 probe steps per product at the target
  // load factor, plus per-row sort of the extracted entries (small rows, so
  // modeled linear-log with a small constant).
  return 4 * P + 2 * s.est_nnz + s.long_row_chunks * 8;
}

/// Kernel launches per call. ESC: expansion sizing is shared, so it pays
/// expansion + sort (4 passes folded into one modeled launch each in
/// sort_by_key's accounting ≈ 2) + contraction (+2 masked pre-filter).
/// Hash pays the binning/flag/compaction chain, table init, one numeric
/// launch per bin, and the extraction + reduction launches.
inline unsigned estimated_spgemm_launches(SpgemmStrategy strategy,
                                          const SpgemmSymbolic& s) {
  if (strategy == SpgemmStrategy::kEsc) return s.masked ? 9u : 7u;
  unsigned launches = 8;  // caps/slots sizing, scans, init, extraction, sums
  if (s.short_rows > 0) ++launches;
  if (s.medium_rows > 0) ++launches;
  if (s.long_rows > 0) ++launches;
  if (s.masked) ++launches;  // table seeding pass
  return launches;
}

/// Modeled time of one mxm under @p strategy: launch overheads plus the
/// roofline max of compute and memory time — the same shape as
/// estimated_spmv_time / estimated_traversal_time, so all three engines
/// share one calibration.
inline double estimated_spgemm_time(SpgemmStrategy strategy,
                                    const SpgemmSymbolic& s,
                                    std::size_t value_bytes,
                                    const gpu_sim::DeviceProperties& props) {
  const double compute =
      static_cast<double>(estimated_spgemm_ops(strategy, s)) /
      props.compute_throughput_ops_per_s;
  const double memory =
      static_cast<double>(estimated_spgemm_bytes(strategy, s, value_bytes)) /
      props.memory_bandwidth_bytes_per_s;
  return estimated_spgemm_launches(strategy, s) *
             props.kernel_launch_overhead_s +
         (compute > memory ? compute : memory);
}

// Proposal thresholds. The hash path is proposed when a meaningful slice of
// the expansion collapses (compression ≥ 1.5 — and note est_nnz is an upper
// bound, so the true compression is higher still; squared R-MAT graphs sit
// at a bound of ~1.6-2.0 while their real ratio is ~3), when a
// non-complemented mask bounds the tables (masked triangle counting /
// k-truss, the Abl. B shapes), or when row-FLOP skew says one row dominates
// the sort. The roofline ratification then keeps small launch-bound inputs
// on the shorter ESC pipeline regardless.
inline constexpr double kHashCompressionThreshold = 1.5;
inline constexpr double kHashFlopsSkewThreshold = 16.0;

/// Pick the SpGEMM strategy for a multiply with symbolic summary @p s.
/// The heuristic proposes; when device properties are supplied the cost
/// model ratifies — a hash proposal whose modeled time loses to ESC is
/// discarded (and vice versa never arises: ESC is the incumbent default).
inline SpgemmStrategy select_spgemm(
    const SpgemmSymbolic& s, SpgemmMode mode = spgemm_mode(),
    const gpu_sim::DeviceProperties* props = nullptr,
    std::size_t value_bytes = sizeof(double)) {
  switch (mode) {
    case SpgemmMode::Esc:
      return SpgemmStrategy::kEsc;
    case SpgemmMode::Hash:
      return SpgemmStrategy::kHash;
    case SpgemmMode::Auto:
      break;
  }
  if (s.total_products == 0) return SpgemmStrategy::kEsc;
  const bool proposed = s.compression() >= kHashCompressionThreshold ||
                        s.masked ||
                        s.flops_skew() >= kHashFlopsSkewThreshold;
  if (!proposed) return SpgemmStrategy::kEsc;
  if (props &&
      estimated_spgemm_time(SpgemmStrategy::kHash, s, value_bytes, *props) >
          estimated_spgemm_time(SpgemmStrategy::kEsc, s, value_bytes, *props))
    return SpgemmStrategy::kEsc;
  return SpgemmStrategy::kHash;
}

/// Inspector-selector bundle: analyze the per-row bounds once, pick the
/// strategy, and keep both around for the executor (backend_gpu::mxm) and
/// for tests that want to interrogate the decision.
class AdaptiveSpgemm {
 public:
  AdaptiveSpgemm(const Index* row_flops, const Index* row_caps, Index nrows,
                 Index ncols, bool masked, std::size_t value_bytes,
                 const gpu_sim::DeviceProperties* props,
                 SpgemmMode mode = spgemm_mode())
      : symbolic_(analyze_spgemm(row_flops, row_caps, nrows, ncols, masked)),
        strategy_(select_spgemm(symbolic_, mode, props, value_bytes)) {}

  const SpgemmSymbolic& symbolic() const { return symbolic_; }
  SpgemmStrategy strategy() const { return strategy_; }

 private:
  SpgemmSymbolic symbolic_;
  SpgemmStrategy strategy_;
};

}  // namespace sparse
