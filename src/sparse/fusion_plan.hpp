#pragma once

/// @file fusion_plan.hpp
/// The lazy op-DAG: recording, fusion legality, and the drain planner.
///
/// GraphBLAS ops on the GpuSim backend do not launch eagerly. Each
/// whitelisted vector op records a FusedOp — its kind, output/input
/// container addresses, and a replay closure — into the calling thread's
/// OpDag and returns immediately. Materialization points (host reads,
/// nvals(), container destruction, grb::wait(), checkpoint barriers, or any
/// read of the device clock/stats via the Context drain hook) call
/// fusion_sync_all(), which runs the planner:
///
///  1. Greedy linear scan groups adjacent nodes that share a context, form a
///     legal producer→consumer pair (fusable_pair), and are linked by a true
///     data dependency (the consumer reads or rewrites the producer's
///     output). Under Auto, only small operands fuse (launch-bound regime,
///     where the paper's fig1/fig2 crossovers live); Fuse forces every legal
///     chain.
///  2. Each multi-op group replays under one gpu_sim::FusedLaunchScope: the
///     head launch pays the fixed kernel_launch_overhead_s, every further
///     launch in the group is charged work time only (counted in
///     DeviceStats::launches_elided / fused_launches).
///  3. Index-upload prefetches (assign/extract) are issued up front on the
///     context's dedicated transfer stream via the async copy API, so PCIe
///     time overlaps earlier groups' kernel time; the consuming op joins the
///     edge with a stream_wait (DeviceStats::overlap_seconds_hidden).
///
/// Replay is exact: the closure re-invokes the original backend op, which
/// sees the dag in the draining state and falls through to its eager body —
/// bit-identical results by construction, one code path to test.
///
/// The dag is thread-local (service workers never bleed fusion state into
/// each other); container address stability is guaranteed by the sync-on-
/// move/destroy hooks in backend_gpu::Vector/Matrix.

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "gpu_sim/context.hpp"
#include "gpu_sim/device_vector.hpp"
#include "gpu_sim/knob.hpp"

namespace sparse {

// --- Mode control (mirrors SpgemmMode / GBTL_SPGEMM_MODE) ------------------

/// Off replays every op eagerly at record time; Fuse fuses every legal
/// chain; Auto fuses only launch-bound (small) operands.
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

// --- The recorded node ------------------------------------------------------

/// Op kinds the recorder distinguishes — only what the legality table needs,
/// not the full GraphBLAS op taxonomy (everything else drains eagerly).
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

/// An index upload staged on the transfer stream by a prefetch closure,
/// handed to the consuming op at replay time (see staged_or_upload).
struct StagedUpload {
  std::optional<gpu_sim::device_vector<std::uint64_t>> buf;
  double ready_s = 0.0;   ///< absolute transfer-stream second the copy lands
  std::size_t count = 0;  ///< element count, cross-checked at consumption
  bool valid = false;
};

/// One recorded op: identity for the dependency scan plus closures that
/// replay it. `run` re-invokes the original backend op (which executes
/// eagerly because the dag is draining); `run_fused`, when present, is a
/// cheaper specialized body legal only as a non-head group member.
struct FusedOp {
  FusedOpKind kind = FusedOpKind::kApply;
  const void* output = nullptr;
  std::array<const void*, 4> inputs{};
  std::size_t n_inputs = 0;
  std::size_t items = 0;  ///< operand scale for the Auto size gate
  gpu_sim::Context* ctx = nullptr;
  std::function<void()> run;
  std::function<void()> run_fused;
  std::function<void()> prefetch;
  std::shared_ptr<StagedUpload> staged;
};

/// Per-thread recording buffer. `draining` doubles as the replay switch:
/// record_op refuses while set, so the replay closures' recursive calls
/// fall through to the ops' eager bodies.
struct OpDag {
  std::vector<FusedOp> nodes;
  bool draining = false;
};

inline OpDag& op_dag() {
  thread_local OpDag dag;
  return dag;
}

/// Staged upload for the node currently being replayed (set by the planner
/// around each run, consumed by staged_or_upload inside the op body).
inline std::shared_ptr<StagedUpload>& tl_staged() {
  thread_local std::shared_ptr<StagedUpload> staged;
  return staged;
}

// --- Fusion legality --------------------------------------------------------

/// Elementwise kinds: legal as group followers (and as heads of longer
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
/// (mxv/vxm/reduce-to-vec) and elementwise ops can head a group; followers
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

// --- Drain planner ----------------------------------------------------------

namespace fusion_detail {

inline void run_node(FusedOp& n, bool non_head_member) {
  tl_staged() = n.staged;
  struct ClearStaged {
    ~ClearStaged() { tl_staged().reset(); }
  } clear_staged;
  if (non_head_member && n.run_fused)
    n.run_fused();
  else
    n.run();
}

}  // namespace fusion_detail

/// Execute every pending node of @p dag in record order, fusing legal
/// chains. Reentrant-safe: a materialization point hit while draining (the
/// replay bodies read clocks, allocate, transfer) is a no-op.
inline void drain(OpDag& dag) {
  if (dag.draining || dag.nodes.empty()) return;
  dag.draining = true;
  struct ResetDraining {
    OpDag& d;
    ~ResetDraining() { d.draining = false; }
  } reset{dag};

  std::vector<FusedOp> nodes = std::move(dag.nodes);
  dag.nodes.clear();
  // Mode is re-read here, not at record time: a FusionGuard flip between
  // record and drain governs how the pending tail executes.
  const FusionMode mode = fusion_mode();

  // cudaDeviceSynchronize the cost model per distinct context: a stale
  // transfer-stream timeline from an earlier drain must not fabricate
  // overlap for this one.
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    bool seen = false;
    for (std::size_t j = 0; j < i && !seen; ++j)
      seen = nodes[j].ctx == nodes[i].ctx;
    if (!seen && nodes[i].ctx != nullptr) nodes[i].ctx->align_streams();
  }

  // Issue every staged index upload first: the copy engine runs ahead of
  // the compute stream, so uploads for later groups hide under earlier
  // groups' kernels.
  if (mode != FusionMode::Off)
    for (FusedOp& n : nodes)
      if (n.prefetch) n.prefetch();

  std::size_t i = 0;
  while (i < nodes.size()) {
    std::size_t j = i + 1;
    if (mode != FusionMode::Off) {
      while (j < nodes.size() && nodes[j].ctx == nodes[i].ctx &&
             fusable_pair(nodes[j - 1].kind, nodes[j].kind) &&
             depends_on(nodes[j], nodes[j - 1]) &&
             (mode == FusionMode::Fuse ||
              (nodes[j - 1].items <= kAutoFuseMaxItems &&
               nodes[j].items <= kAutoFuseMaxItems)))
        ++j;
    }
    if (j - i > 1) {
      if (nodes[i].ctx != nullptr)
        nodes[i].ctx->count(&gpu_sim::DeviceStats::fused_launches, 1);
      gpu_sim::FusedLaunchScope scope;
      for (std::size_t k = i; k < j; ++k)
        fusion_detail::run_node(nodes[k], /*non_head_member=*/k > i);
    } else {
      fusion_detail::run_node(nodes[i], /*non_head_member=*/false);
    }
    i = j;
  }
}

/// Drain the calling thread's pending ops — the materialization primitive
/// behind grb::wait(), host reads, and the Context drain hook.
inline void fusion_sync_all() { drain(op_dag()); }

/// Does any pending node read or write the container at @p p? Used by
/// Vector/Matrix destructors and moves to drain only when the dying address
/// is actually referenced — an unrelated temporary's death must not cut a
/// pagerank iteration's chain in half.
inline bool fusion_touches(const void* p) {
  if (p == nullptr) return false;
  OpDag& dag = op_dag();
  if (dag.draining) return false;
  for (const FusedOp& n : dag.nodes) {
    if (n.output == p) return true;
    for (std::size_t i = 0; i < n.n_inputs; ++i)
      if (n.inputs[i] == p) return true;
  }
  return false;
}

inline void fusion_sync_if_touches(const void* p) {
  if (fusion_touches(p)) fusion_sync_all();
}

/// Pins fusion_mode() for a scope (tests and benches). Drains the calling
/// thread's dag before it pins and again before it restores, so ops
/// recorded under one mode never execute under another's accounting.
class FusionGuard {
 public:
  explicit FusionGuard(FusionMode mode) : pin_((fusion_sync_all(), mode)) {}
  ~FusionGuard() { fusion_sync_all(); }  // pin_ restores after the drain

 private:
  gpu_sim::KnobGuard<fusion_mode_knob> pin_;
};

// --- Recording --------------------------------------------------------------

/// True when the calling thread must run ops eagerly: while draining (the
/// replay path) or when fusion is Off. Another thread may switch fusion off
/// after this one recorded, so under Off it first drains this thread's dag:
/// an eager op must never read a pending output.
inline bool fusion_eager() {
  OpDag& dag = op_dag();
  if (dag.draining) return true;
  if (fusion_mode() != FusionMode::Off) return false;
  drain(dag);
  return true;
}

/// Record one op into the calling thread's dag. Returns false — meaning the
/// caller must execute eagerly — when fusion_eager(). The first successful
/// record installs the process-wide drain hook so any clock/stats read
/// materializes pending work.
inline bool record_op(FusedOpKind kind, const void* output,
                      std::initializer_list<const void*> inputs,
                      std::size_t items, gpu_sim::Context& ctx,
                      std::function<void()> run,
                      std::function<void()> run_fused = nullptr,
                      std::function<void()> prefetch = nullptr,
                      std::shared_ptr<StagedUpload> staged = nullptr) {
  if (fusion_eager()) return false;
  static const bool hook_installed = [] {
    gpu_sim::Context::set_drain_hook(&fusion_sync_all);
    return true;
  }();
  (void)hook_installed;
  FusedOp op;
  op.kind = kind;
  op.output = output;
  for (const void* p : inputs)
    if (p != nullptr && op.n_inputs < op.inputs.size())
      op.inputs[op.n_inputs++] = p;
  op.items = items;
  op.ctx = &ctx;
  op.run = std::move(run);
  op.run_fused = std::move(run_fused);
  op.prefetch = std::move(prefetch);
  op.staged = std::move(staged);
  op_dag().nodes.push_back(std::move(op));
  return true;
}

// --- Transfer/compute overlap helpers ---------------------------------------

/// Build a prefetch closure + staging slot that uploads @p indices on the
/// context's dedicated transfer stream when the planner starts the drain.
inline std::pair<std::function<void()>, std::shared_ptr<StagedUpload>>
make_index_prefetch(std::shared_ptr<std::vector<std::uint64_t>> indices,
                    gpu_sim::Context& ctx) {
  auto staged = std::make_shared<StagedUpload>();
  std::function<void()> prefetch = [indices, staged, &ctx] {
    if (indices->empty()) return;
    const std::size_t sid = ctx.transfer_stream();
    staged->buf.emplace(indices->size(), ctx);  // allocation only, no traffic
    ctx.copy_h2d_async(staged->buf->data(), indices->data(),
                       indices->size() * sizeof(std::uint64_t), sid);
    staged->ready_s = ctx.stream_clock_s(sid);
    staged->count = indices->size();
    staged->valid = true;
  };
  return {std::move(prefetch), std::move(staged)};
}

/// Consume the planner-staged upload for the currently replaying node if it
/// matches @p indices, joining the copy-stream edge into the compute stream
/// (cudaStreamWaitEvent); otherwise fall back to a synchronous upload —
/// bit-identical either way, only the timeline accounting differs.
inline gpu_sim::device_vector<std::uint64_t> staged_or_upload(
    const std::vector<std::uint64_t>& indices, gpu_sim::Context& ctx) {
  std::shared_ptr<StagedUpload>& staged = tl_staged();
  if (staged && staged->valid && staged->buf &&
      staged->count == indices.size() &&
      &staged->buf->context() == &ctx) {
    ctx.stream_wait(0, staged->ready_s);
    gpu_sim::device_vector<std::uint64_t> buf = std::move(*staged->buf);
    staged->buf.reset();
    staged->valid = false;
    return buf;
  }
  return gpu_sim::device_vector<std::uint64_t>(indices, ctx);
}

}  // namespace sparse
