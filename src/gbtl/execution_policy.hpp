#pragma once

/// @file execution_policy.hpp
/// Cooperative execution control for iterative algorithms: a deadline, a
/// caller-held cancellation token, and an iteration budget, bundled into an
/// ExecutionPolicy that algorithm loops poll between iterations.
///
/// Every iterative algorithm in algorithms/ takes a trailing
/// `const grb::ExecutionPolicy& policy = {}` parameter and calls
/// `policy.checkpoint("name")` at the top of each iteration. The default
/// policy is unlimited and checkpoint() is then three relaxed loads — cheap
/// enough to leave in every loop unconditionally.
///
/// Cancellation contract (relied upon by src/service/ and its tests):
///  - checkpoint() throws grb::CancelledException; it never returns a flag,
///    so a cancelled loop cannot accidentally keep running.
///  - Checkpoints sit at iteration boundaries, never mid-primitive, so on
///    cancellation every output container holds exactly the partial state
///    produced by the iterations that fully completed (for bfs_level:
///    levels 1..k are stamped iff iteration k finished). An already-expired
///    policy therefore cancels before iteration 1, leaving cleared outputs
///    untouched beyond the algorithm's initialization.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>

#include "gbtl/types.hpp"
#include "gpu_sim/placement.hpp"
#include "sparse/fusion_plan.hpp"

namespace grb {

/// Thrown by ExecutionPolicy::checkpoint when the policy's deadline passed,
/// its cancel token was set, or its iteration budget ran out.
class CancelledException : public GraphBLASError {
 public:
  explicit CancelledException(const std::string& what_arg)
      : GraphBLASError("cancelled: " + what_arg) {}
};

/// Shared cooperative cancellation flag: the submitter keeps one reference
/// and sets it; every checkpoint of the running query observes it.
using CancelToken = std::shared_ptr<std::atomic<bool>>;

inline CancelToken make_cancel_token() {
  return std::make_shared<std::atomic<bool>>(false);
}

class ExecutionPolicy {
 public:
  using Clock = std::chrono::steady_clock;

  /// Default policy: no deadline, no token, no iteration budget.
  ExecutionPolicy() = default;

  static ExecutionPolicy with_deadline(Clock::time_point deadline) {
    ExecutionPolicy p;
    p.deadline_ = deadline;
    return p;
  }

  /// Deadline @p budget from now.
  static ExecutionPolicy with_budget(Clock::duration budget) {
    return with_deadline(Clock::now() + budget);
  }

  /// Cancel after @p iterations checkpoints have passed — a deterministic
  /// work bound (deadlines depend on host speed; iteration budgets do not).
  static ExecutionPolicy with_iteration_limit(std::uint64_t iterations) {
    ExecutionPolicy p;
    p.iteration_limit_ = iterations;
    p.iterations_seen_ = std::make_shared<std::atomic<std::uint64_t>>(0);
    return p;
  }

  ExecutionPolicy& set_deadline(Clock::time_point deadline) {
    deadline_ = deadline;
    return *this;
  }

  ExecutionPolicy& set_cancel_token(CancelToken token) {
    cancel_ = std::move(token);
    return *this;
  }

  bool has_deadline() const {
    return deadline_ != Clock::time_point::max();
  }
  Clock::time_point deadline() const { return deadline_; }

  bool expired() const { return Clock::now() >= deadline_; }
  bool cancelled() const {
    return cancel_ != nullptr && cancel_->load(std::memory_order_relaxed);
  }

  /// Poll all three stop conditions; throws CancelledException naming
  /// @p where (the algorithm) and which condition fired. Algorithms call
  /// this once per iteration, before the iteration's work.
  void checkpoint(const char* where) const {
    // Fusion barrier: a composite launch never spans two iterations.
    sparse::fusion_sync_all();
    // An iteration boundary is also a multi-device barrier: align every
    // context of the thread's placement, so no shard's transfer stream can
    // carry overlap credit across it (docs/sharding.md).
    gpu_sim::sync_placement();
    if (cancelled())
      throw CancelledException(std::string(where) + ": cancel token set");
    if (expired())
      throw CancelledException(std::string(where) + ": deadline exceeded");
    if (iterations_seen_ != nullptr &&
        iterations_seen_->fetch_add(1, std::memory_order_relaxed) >=
            iteration_limit_)
      throw CancelledException(std::string(where) +
                               ": iteration budget exhausted");
  }

 private:
  Clock::time_point deadline_{Clock::time_point::max()};
  CancelToken cancel_;
  std::uint64_t iteration_limit_ =
      std::numeric_limits<std::uint64_t>::max();
  /// Shared so the policy stays copyable while nested calls (apsp ->
  /// batch_sssp) draw from one budget.
  std::shared_ptr<std::atomic<std::uint64_t>> iterations_seen_;
};

}  // namespace grb
