#pragma once

/// @file placement.hpp
/// A *placement* is the ordered set of simulated devices the calling thread
/// may spread a sharded graph over. It generalizes the thread-local
/// ScopedDevice binding: device() names the thread's *home* context (where
/// vectors and op outputs live), while the placement lists every context a
/// ShardedMatrix may pin row-block shards to. Shard s of an N-shard plan
/// runs on placement()[s % placement().size()], so a 4-shard plan over a
/// 2-context placement round-robins — and a forced multi-shard test on a
/// single context still exercises the full halo-exchange path.
///
/// Like ScopedDevice, the binding is thread-local by design: concurrent
/// service workers each install their own placement and never observe
/// another worker's contexts.

#include <cstddef>
#include <vector>

#include "gpu_sim/context.hpp"

namespace gpu_sim {

namespace detail {
inline std::vector<Context*>& placement_slot() {
  thread_local std::vector<Context*> slot;
  return slot;
}
}  // namespace detail

/// The calling thread's current placement. Empty when no ScopedPlacement is
/// active — callers that need a usable device list should go through
/// placement_or_default().
inline const std::vector<Context*>& placement() {
  return detail::placement_slot();
}

/// The placement to actually shard over: the installed one, or — when none
/// is active — the single-entry list {&device()}, so sharded code degrades
/// to the classic one-context world without a special case.
inline std::vector<Context*> placement_or_default() {
  const auto& p = detail::placement_slot();
  if (!p.empty()) return p;
  return {&device()};
}

/// RAII guard installing @p contexts as the calling thread's placement for
/// the guard's lifetime. Nests like ScopedDevice: destruction restores the
/// previous placement. The first context of the placement is conventionally
/// the thread's home device; installing a placement does NOT rebind
/// device() — pair with ScopedDevice for that.
class ScopedPlacement {
 public:
  explicit ScopedPlacement(std::vector<Context*> contexts)
      : previous_(std::move(detail::placement_slot())) {
    detail::placement_slot() = std::move(contexts);
  }
  ~ScopedPlacement() { detail::placement_slot() = std::move(previous_); }

  ScopedPlacement(const ScopedPlacement&) = delete;
  ScopedPlacement& operator=(const ScopedPlacement&) = delete;

 private:
  std::vector<Context*> previous_;
};

/// Barrier on every context of the calling thread's placement (plus the home
/// device): align all stream timelines so no shard context's transfer
/// stream can retroactively fabricate overlap across an algorithm
/// checkpoint. The multi-context analogue of the cudaDeviceSynchronize each
/// ExecutionPolicy::checkpoint() implies.
inline void sync_placement() {
  device().align_streams();
  for (Context* ctx : detail::placement_slot())
    if (ctx != nullptr && ctx != &device()) ctx->align_streams();
}

}  // namespace gpu_sim
