#pragma once

/// @file fusion_plan.hpp
/// Composite launches for the cost model: the chain rule and its legality
/// table.
///
/// Every GpuSim vector op runs eagerly, where it is called. Each opens one
/// FusedOpScope at the top of its body, after its bounds checks. The op
/// joins the chain of the op before it when all of these hold:
///
///  - both ran on the same context, from the same thread, with no barrier
///    between them, and no kernel launch or copy ran on that context since
///    the earlier op closed (a composite kernel cannot straddle another);
///  - the pair is a legal producer→consumer pair (fusable_pair) linked by a
///    true data dependency (depends_on);
///  - the mode is not Off, and under Auto both operands are small.
///
/// A joining op runs under a gpu_sim::FusedLaunchScope whose head is
/// already charged: its launches are charged work time only, counted in
/// DeviceStats::launches_elided. When the second op joins, the head op is
/// credited its launches after its first (gpu_sim::Context::open_op), and
/// DeviceStats::fused_launches counts the chain once. Results never depend
/// on the mode: every op runs the same body, except that `apply` onto
/// itself takes a one-kernel in-place body when it joins a chain.
///
/// Barriers end every chain the calling thread has open:
/// grb::wait() / fusion_sync_all() and ExecutionPolicy::checkpoint(). On
/// one context, align_streams() and reset_stats() end its chain.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <initializer_list>
#include <optional>

#include "gpu_sim/context.hpp"
#include "gpu_sim/knob.hpp"

namespace sparse {

// --- Mode control (mirrors SpgemmMode / GBTL_SPGEMM_MODE) ------------------

/// Off charges every op its own launches; Fuse chains every legal pair;
/// Auto chains only launch-bound (small) operands.
enum class FusionMode {
  Off,
  Fuse,
  Auto,
};

/// The names GBTL_FUSION_MODE accepts.
inline constexpr gpu_sim::KnobName<FusionMode> kFusionModeNames[] = {
    {"off", FusionMode::Off}, {"fuse", FusionMode::Fuse},
    {"auto", FusionMode::Auto}};

/// Process-wide mode, seeded once from GBTL_FUSION_MODE (default Auto) so CI
/// can pin any binary without a code change.
inline gpu_sim::Knob<FusionMode>& fusion_mode_knob() {
  static gpu_sim::Knob<FusionMode> knob{
      FusionMode::Auto, "GBTL_FUSION_MODE",
      &gpu_sim::parse_named<kFusionModeNames>};
  return knob;
}
inline FusionMode fusion_mode() { return fusion_mode_knob().get(); }

/// Pins fusion_mode() for a scope (tests and benches).
using FusionGuard = gpu_sim::KnobGuard<fusion_mode_knob>;

// --- Fusion legality --------------------------------------------------------

/// Op kinds the chain rule distinguishes — only what the legality table
/// needs, not the full GraphBLAS op taxonomy (every other op is charged as
/// it runs and ends the chain by launching).
enum class FusedOpKind : unsigned {
  kMxv = 0,
  kVxm,
  kEWiseAdd,
  kEWiseMult,
  kApply,
  kApplyIndexed,
  kAssign,
  kAssignConstant,
  kSelect,
  kExtract,
  kReduceMatToVec,
  kReduceToScalar,
};

/// One op as the chain rule sees it.
using FusedOp = gpu_sim::ChainOp;

/// Elementwise kinds: legal as chain followers (and as heads of longer
/// chains). One launch over the output span, no inspector phase.
inline bool elementwise_kind(FusedOpKind k) {
  switch (k) {
    case FusedOpKind::kEWiseAdd:
    case FusedOpKind::kEWiseMult:
    case FusedOpKind::kApply:
    case FusedOpKind::kApplyIndexed:
    case FusedOpKind::kAssign:
    case FusedOpKind::kAssignConstant:
    case FusedOpKind::kSelect:
    case FusedOpKind::kExtract:
      return true;
    default:
      return false;
  }
}

/// May (a, b) be adjacent members of one composite launch? Producers
/// (mxv/vxm/reduce-to-vec) and elementwise ops can head a chain; followers
/// must be elementwise or the terminal scalar reduction. Producer→producer
/// never fuses — each mxv keeps its own launch overhead (the repeated-mxv
/// benchmarks measure exactly that).
inline bool fusable_pair(FusedOpKind a, FusedOpKind b) {
  const bool head_ok = elementwise_kind(a) || a == FusedOpKind::kMxv ||
                       a == FusedOpKind::kVxm ||
                       a == FusedOpKind::kReduceMatToVec;
  const bool tail_ok = elementwise_kind(b) || b == FusedOpKind::kReduceToScalar;
  return head_ok && tail_ok;
}

/// True data dependency: @p next reads or rewrites @p prev's output. This is
/// what makes the pair one dataflow chain rather than two unrelated ops that
/// merely happen to be adjacent.
inline bool depends_on(const FusedOp& next, const FusedOp& prev) {
  if (prev.output == nullptr) return false;
  if (next.output == prev.output) return true;
  for (std::size_t i = 0; i < next.n_inputs; ++i)
    if (next.inputs[i] == prev.output) return true;
  return false;
}

/// Auto-mode size gate: fuse only operands small enough that the fixed
/// launch overhead is a visible fraction of the op (the regime the paper's
/// small-scale columns measure). 2^20 items ≈ where a memory-bound kernel's
/// work time passes ~35 µs, an order of magnitude over the 6 µs overhead.
inline constexpr std::size_t kAutoFuseMaxItems = std::size_t{1} << 20;

namespace fusion_detail {

/// A barrier epoch no thread has used yet.
inline std::uint64_t fresh_epoch() {
  static std::atomic<std::uint64_t> last{0};
  return last.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// The calling thread's barrier epoch. Unique across threads, so ops never
/// chain across threads; renewed by every barrier.
inline std::uint64_t& thread_epoch() {
  thread_local std::uint64_t epoch = fresh_epoch();
  return epoch;
}

/// The chain rule, minus "nothing ran since", which the context checks.
inline bool may_chain(const FusedOp& prev, const FusedOp& next) {
  const FusionMode mode = fusion_mode();
  return mode != FusionMode::Off && prev.epoch == next.epoch &&
         fusable_pair(static_cast<FusedOpKind>(prev.kind),
                      static_cast<FusedOpKind>(next.kind)) &&
         depends_on(next, prev) &&
         (mode == FusionMode::Fuse || (prev.items <= kAutoFuseMaxItems &&
                                       next.items <= kAutoFuseMaxItems));
}

}  // namespace fusion_detail

/// Barrier behind grb::wait() and ExecutionPolicy::checkpoint(): no op the
/// calling thread runs later continues a chain it started before.
inline void fusion_sync_all() {
  fusion_detail::thread_epoch() = fusion_detail::fresh_epoch();
}

/// One GpuSim vector op's place in the chain rule, for the length of its
/// body. A scope opened inside another op's scope belongs to the outer op
/// and does nothing. An op that throws ends the chain.
class FusedOpScope {
 public:
  FusedOpScope(FusedOpKind kind, const void* output,
               std::initializer_list<const void*> inputs, std::size_t items,
               gpu_sim::Context& ctx)
      : ctx_(depth()++ == 0 ? &ctx : nullptr) {
    if (ctx_ == nullptr) return;
    op_.kind = static_cast<unsigned>(kind);
    op_.output = output;
    for (const void* p : inputs)
      if (p != nullptr && op_.n_inputs < op_.inputs.size())
        op_.inputs[op_.n_inputs++] = p;
    op_.items = items;
    op_.epoch = fusion_detail::thread_epoch();
    step_ = ctx.open_op(op_, &fusion_detail::may_chain);
    if (step_.joined) fused_.emplace(step_.head_charged);
  }

  ~FusedOpScope() {
    --depth();
    if (ctx_ == nullptr) return;
    if (std::uncaught_exceptions() > exceptions_)
      ctx_->end_chain();
    else
      ctx_->close_op(op_, step_);
  }

  FusedOpScope(const FusedOpScope&) = delete;
  FusedOpScope& operator=(const FusedOpScope&) = delete;

  /// Did this op join the chain of the op before it?
  bool joined() const { return step_.joined; }

 private:
  static int& depth() {
    thread_local int d = 0;
    return d;
  }

  gpu_sim::Context* ctx_;
  FusedOp op_;
  gpu_sim::ChainStep step_;
  std::optional<gpu_sim::FusedLaunchScope> fused_;
  int exceptions_ = std::uncaught_exceptions();
};

}  // namespace sparse
