#pragma once

/// @file shard_plan.hpp
/// Row-block shard planner for multi-device graphs. Given a CSR row-offset
/// array, it cuts the row range into N contiguous blocks balancing nnz per
/// block (the work-proportional quantity for mxv/vxm), and annotates each
/// block with the column span its rows reference — the exact slice of the
/// input vector a sharded mxv must broadcast to that shard's context (the
/// halo). Shard *count* comes from the per-device arena budget: enough
/// shards that each shard's CSR+CSC footprint fits one device, clamped to
/// the placement width; GBTL_SHARDS pins it for tests/CI the same way
/// GBTL_SPGEMM_MODE pins the SpGEMM strategy.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "gpu_sim/knob.hpp"

namespace sparse {

/// One contiguous row block of the partition. `col_begin`/`col_end` bound
/// the columns its rows reference (half-open; both 0 for an empty shard) —
/// the halo slice of the mxv input vector.
struct Shard {
  std::size_t row_begin = 0;
  std::size_t row_end = 0;  ///< half-open
  std::uint64_t nnz = 0;
  std::size_t col_begin = 0;
  std::size_t col_end = 0;  ///< half-open

  std::size_t rows() const { return row_end - row_begin; }
  std::size_t halo_cols() const { return col_end - col_begin; }
};

struct ShardPlan {
  std::vector<Shard> shards;

  std::size_t count() const { return shards.size(); }
  bool single() const { return shards.size() <= 1; }
};

/// Process-wide shard-count pin, seeded once from GBTL_SHARDS (0 = let the
/// budget heuristic decide) so CI can force a fan-out without a code change.
inline gpu_sim::Knob<std::size_t>& shard_count_knob() {
  static gpu_sim::Knob<std::size_t> knob{0, "GBTL_SHARDS",
                                         &gpu_sim::parse_count};
  return knob;
}
inline std::size_t shard_count_override() { return shard_count_knob().get(); }
/// Pins shard_count_override() for a scope (tests and benches).
using ShardCountGuard = gpu_sim::KnobGuard<shard_count_knob>;

/// Pick how many row blocks to cut a graph into: the GBTL_SHARDS override
/// verbatim when set; otherwise the smallest count whose per-shard share of
/// @p estimated_device_bytes fits @p per_device_budget, clamped to
/// [1, device_count]. A graph too big even for device_count shards still
/// returns device_count — best effort; the shard build surfaces
/// DeviceBadAlloc if the budget truly cannot hold it.
inline std::size_t choose_shard_count(std::uint64_t estimated_device_bytes,
                                      std::size_t device_count,
                                      std::uint64_t per_device_budget) {
  if (const std::size_t pin = shard_count_override(); pin > 0) return pin;
  if (device_count <= 1) return 1;
  if (per_device_budget == 0) return device_count;
  const std::uint64_t need =
      (estimated_device_bytes + per_device_budget - 1) / per_device_budget;
  return std::clamp<std::size_t>(static_cast<std::size_t>(need), 1,
                                 device_count);
}

/// Cut [0, nrows) into @p shard_count contiguous row blocks with balanced
/// nnz: block s ends at the first row where the cumulative nnz reaches
/// s+1 shares of the total (binary search over the monotone row_offsets),
/// so every cut is within one row's degree of the ideal split. Column spans
/// are left zeroed — annotate_col_spans() fills them when the planner has
/// column indices at hand. An all-empty matrix degrades to an even row
/// split so no shard sees a degenerate [0, 0) row range unless nrows <
/// shard_count.
template <typename Index>
ShardPlan plan_shards(const Index* row_offsets, std::size_t nrows,
                      std::size_t shard_count) {
  ShardPlan plan;
  if (shard_count == 0) shard_count = 1;
  const std::uint64_t total =
      nrows > 0 ? static_cast<std::uint64_t>(row_offsets[nrows]) : 0;
  plan.shards.reserve(shard_count);
  std::size_t row = 0;
  for (std::size_t s = 0; s < shard_count; ++s) {
    Shard sh;
    sh.row_begin = row;
    std::size_t end;
    if (s + 1 == shard_count) {
      end = nrows;
    } else if (total == 0) {
      end = std::min(nrows, ((s + 1) * nrows) / shard_count);
    } else {
      // First row index whose cumulative nnz covers (s+1)/count of total.
      const std::uint64_t target = ((s + 1) * total) / shard_count;
      const Index* lo = row_offsets + row;
      const Index* hi = row_offsets + nrows;
      const Index* it = std::lower_bound(
          lo, hi + 1, target, [](Index off, std::uint64_t t) {
            return static_cast<std::uint64_t>(off) < t;
          });
      end = static_cast<std::size_t>(it - row_offsets);
      end = std::min(std::max(end, row), nrows);
    }
    sh.row_end = end;
    sh.nnz = static_cast<std::uint64_t>(row_offsets[end]) -
             static_cast<std::uint64_t>(row_offsets[row]);
    plan.shards.push_back(sh);
    row = end;
  }
  return plan;
}

/// Fill each shard's [col_begin, col_end) with the min/max+1 column its rows
/// reference — the halo slice of the mxv input vector. Empty shards keep
/// [0, 0).
template <typename Index>
void annotate_col_spans(ShardPlan& plan, const Index* row_offsets,
                        const Index* cols) {
  for (Shard& sh : plan.shards) {
    if (sh.nnz == 0) {
      sh.col_begin = sh.col_end = 0;
      continue;
    }
    const std::size_t k0 = static_cast<std::size_t>(row_offsets[sh.row_begin]);
    const std::size_t k1 = static_cast<std::size_t>(row_offsets[sh.row_end]);
    Index lo = cols[k0], hi = cols[k0];
    for (std::size_t k = k0 + 1; k < k1; ++k) {
      lo = std::min(lo, cols[k]);
      hi = std::max(hi, cols[k]);
    }
    sh.col_begin = static_cast<std::size_t>(lo);
    sh.col_end = static_cast<std::size_t>(hi) + 1;
  }
}

}  // namespace sparse
