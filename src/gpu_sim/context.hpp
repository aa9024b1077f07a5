#pragma once

/// @file context.hpp
/// The simulated device: memory arena, launch engine, transfer engine, and
/// simulated clock. Plays the role of the CUDA runtime + one device.
///
/// Concurrency model: execution is functional and synchronous — every
/// kernel and copy runs to completion on the host before its call returns —
/// while the *simulated* clock advances by the modeled duration, so benches
/// report device time the way `cudaEventElapsedTime` would. The cost model
/// has several streams: kernels advance the compute stream, and async
/// copies on a transfer stream overlap it (makespan_s(),
/// DeviceStats::overlap_seconds_hidden). The overlap is modeled only; no
/// check yet proves each modeled overlap causally legal under stream order.

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "gpu_sim/device_properties.hpp"
#include "gpu_sim/error.hpp"
#include "gpu_sim/stats.hpp"
#include "gpu_sim/thread_pool.hpp"

namespace gpu_sim {

/// One vector op as the composite-launch chain rule sees it
/// (sparse/fusion_plan.hpp): the fusion layer's kind tag, the containers it
/// writes and reads, its operand scale, and the issuing thread's barrier
/// epoch. The context stores the last one; the rule reads them.
struct ChainOp {
  unsigned kind = 0;
  const void* output = nullptr;
  std::array<const void*, 4> inputs{};
  std::size_t n_inputs = 0;
  std::size_t items = 0;
  std::uint64_t epoch = 0;
};

/// May @p next continue the chain whose last op is @p prev?
using ChainRule = bool (*)(const ChainOp& prev, const ChainOp& next);

/// What Context::open_op decided for one op.
struct ChainStep {
  bool joined = false;        ///< continues the chain of the last op
  bool head_charged = false;  ///< that chain already paid a launch overhead
  std::uint64_t launches_at_open = 0;
};

/// CUDA-style 3-component launch geometry. Graph kernels in this code base
/// are one-dimensional; y/z exist for API fidelity.
struct Dim3 {
  std::size_t x = 1;
  std::size_t y = 1;
  std::size_t z = 1;

  constexpr Dim3() = default;
  constexpr Dim3(std::size_t x_, std::size_t y_ = 1, std::size_t z_ = 1)
      : x(x_), y(y_), z(z_) {}
  constexpr std::size_t count() const { return x * y * z; }
};

/// Per-thread coordinates handed to a simulated kernel body, mirroring
/// (blockIdx, threadIdx, gridDim, blockDim).
struct ThreadId {
  Dim3 block_idx;
  Dim3 thread_idx;
  Dim3 grid_dim;
  Dim3 block_dim;

  /// Flattened global 1-D index (the idiom `blockIdx.x*blockDim.x+threadIdx.x`).
  std::size_t global_x() const {
    return block_idx.x * block_dim.x + thread_idx.x;
  }
};

class Context {
 public:
  explicit Context(DeviceProperties props = DeviceProperties{},
                   std::size_t worker_count = 1);
  ~Context();

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  const DeviceProperties& properties() const { return props_; }
  /// Mutable access so tests/benches can recalibrate the cost model.
  DeviceProperties& mutable_properties() { return props_; }

  DeviceStats stats() const;
  void reset_stats();

  /// Current simulated device clock (seconds since context creation /
  /// last reset). Serial sum of all modeled durations — see makespan_s()
  /// for the multi-stream view.
  double simulated_time_s() const;

  // --- Streams (cudaStreamCreate analogue) --------------------------------
  // Each stream carries its own timeline: the absolute simulated second at
  // which its last enqueued operation finishes. Stream 0 (the default
  // compute stream) always exists. Kernels advance stream 0; the legacy
  // synchronous copy_* calls are device-wide barriers (cudaMemcpy
  // semantics) so single-stream programs keep makespan == serial sum
  // exactly; the *_async copies advance only their stream, which is where
  // overlap_seconds_hidden comes from.

  /// Create a stream; its timeline starts at the current makespan (a new
  /// stream cannot retroactively overlap work already accounted).
  std::size_t create_stream();
  /// Absolute end-of-timeline of stream @p sid.
  double stream_clock_s(std::size_t sid) const;
  /// Device-wide completion time: max over all stream timelines.
  double makespan_s() const;
  /// Make stream @p sid wait until absolute simulated time @p t_s — the
  /// cudaStreamWaitEvent edge (Event::time_s() supplies t_s).
  void stream_wait(std::size_t sid, double t_s);
  /// Barrier without cost: every timeline jumps to the makespan
  /// (cudaDeviceSynchronize for the cost model), so a stale transfer-stream
  /// timeline can't fabricate overlap for later work. Sharded mxv/vxm call
  /// it on their home context at entry and sync_placement() at every
  /// checkpoint. It also ends the composite-launch chain.
  void align_streams();
  /// The device's dedicated copy-engine stream, created lazily on first use
  /// (one persistent stream, so long-running processes don't grow the
  /// timeline table without bound). Sharded mxv/vxm run their halo
  /// exchange here to overlap PCIe with kernel time.
  std::size_t transfer_stream();

  // --- Composite-launch chains (cost model; sparse/fusion_plan.hpp) -------
  /// An op opens: it joins the chain of the op that closed last on this
  /// context when no launch or copy ran here since and @p rule allows it.
  /// When the second op joins, the head op, which ran before anyone knew
  /// it would lead a chain, is credited its launches after its first:
  /// kernel_launch_overhead_s each off the kernel time and stream 0's
  /// clock, counted in launches_elided, plus one fused_launches per chain.
  ChainStep open_op(const ChainOp& op, ChainRule rule);
  /// The op that @p step opened closes; the next op may continue it.
  void close_op(const ChainOp& op, const ChainStep& step);
  /// Barrier: no later op continues the current chain.
  void end_chain();

  // --- Memory management (cudaMalloc / cudaFree analogue) ---------------
  void* malloc_bytes(std::size_t bytes);
  void free_bytes(void* ptr);
  /// Size of the allocation that starts at @p ptr; throws if unknown.
  std::size_t allocation_size(const void* ptr) const;

  // --- Size-class memory pool (cudaMallocAsync / caching allocator) ------
  /// Allocate through the pool: the request is rounded up to a power-of-two
  /// size class (min kMinPoolClassBytes) and served from that class's
  /// freelist when possible. Reuse is always safe for results: execution is
  /// synchronous, so every kernel or copy that touched a freed block has
  /// finished before the free returns. Whether the modeled timeline, where
  /// an async copy may still be in flight, would allow the same reuse is
  /// not checked yet.
  void* pool_alloc(std::size_t bytes);
  /// Return a pool allocation to its class freelist (the bytes stay
  /// allocated from the device heap, counted in pool_bytes_held).
  void pool_free(void* ptr);
  /// Release every cached freelist block back to the device heap
  /// (cudaMemPoolTrimTo(0)). Also runs automatically when an allocation
  /// would exceed device memory only because of cached blocks.
  void trim();

  /// Smallest pool size class, in bytes.
  static constexpr std::size_t kMinPoolClassBytes = 64;
  /// The power-of-two size class serving a request of @p bytes.
  static std::size_t pool_class_bytes(std::size_t bytes);

  // --- Transfers (cudaMemcpy analogue) -----------------------------------
  // The synchronous forms are device-wide barriers on the stream timelines;
  // the async forms advance only @p stream_id (cudaMemcpyAsync on a
  // non-default stream). Functionally all four copy immediately — only the
  // cost-model timelines differ.
  void copy_h2d(void* dst_device, const void* src_host, std::size_t bytes);
  void copy_d2h(void* dst_host, const void* src_device, std::size_t bytes);
  void copy_d2d(void* dst_device, const void* src_device, std::size_t bytes);
  void copy_h2d_async(void* dst_device, const void* src_host,
                      std::size_t bytes, std::size_t stream_id);
  void copy_d2h_async(void* dst_host, const void* src_device,
                      std::size_t bytes, std::size_t stream_id);

  // --- Kernel launch ------------------------------------------------------
  /// Launch `kernel(ThreadId)` over a grid x block geometry. @p stats
  /// declares the useful work for the cost model. Blocks are distributed
  /// over the worker pool; threads within a block run sequentially (no
  /// __syncthreads is provided — GBTL kernels are block-synchronization
  /// free by construction).
  template <typename Kernel>
  void launch(Dim3 grid, Dim3 block, const LaunchStats& stats,
              Kernel&& kernel) {
    validate_launch(grid, block);
    const std::function<void(std::size_t)> run_block =
        [&](std::size_t linear_block) {
          ThreadId tid;
          tid.grid_dim = grid;
          tid.block_dim = block;
          tid.block_idx = Dim3{linear_block % grid.x,
                               (linear_block / grid.x) % grid.y,
                               linear_block / (grid.x * grid.y)};
          for (std::size_t tz = 0; tz < block.z; ++tz)
            for (std::size_t ty = 0; ty < block.y; ++ty)
              for (std::size_t tx = 0; tx < block.x; ++tx) {
                tid.thread_idx = Dim3{tx, ty, tz};
                kernel(tid);
              }
        };
    pool_.parallel_for(grid.count(), run_block);
    account_launch(stats);
  }

  /// Convenience 1-D launch: runs `body(i)` for i in [0, n) with the
  /// device's preferred block size. n == 0 still costs a launch (as a real
  /// early-exit kernel would) unless skip_if_empty.
  template <typename Body>
  void launch_n(std::size_t n, const LaunchStats& stats, Body&& body) {
    const std::size_t block = 256;
    const std::size_t grid = (n + block - 1) / block;
    if (n == 0) {
      account_launch(stats);
      return;
    }
    launch(Dim3{grid}, Dim3{block}, stats, [&](const ThreadId& tid) {
      const std::size_t i = tid.global_x();
      if (i < n) body(i);
    });
  }

  /// Account a kernel that was executed by library code (e.g. a simulated
  /// radix sort running through std::sort) rather than element-wise through
  /// launch(). Advances the clock exactly as launch() would.
  void account_kernel(const LaunchStats& stats) { account_launch(stats); }

  /// Bookkeeping that does not advance the clock. Under one lock, add each
  /// amount to its cumulative counter:
  /// `count(&DeviceStats::a, by_a, &DeviceStats::b, by_b, ...)`. A
  /// per-variant array counter takes the variant it counts one for:
  /// `count(&DeviceStats::kernel_selections, SpmvKernelKind::kEll, ...)`.
  template <typename... Updates>
  void count(const Updates&... updates) {
    std::lock_guard<std::mutex> lock(mutex_);
    count_locked(updates...);
  }

  /// Under one lock, raise the high-water counter @p field to at least
  /// @p level, then apply count(updates...).
  template <typename T, typename... Updates>
  void raise(T DeviceStats::*field, std::type_identity_t<T> level,
             const Updates&... updates) {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.*field = std::max(stats_.*field, level);
    count_locked(updates...);
  }

  ThreadPool& pool() { return pool_; }

 private:
  void validate_launch(const Dim3& grid, const Dim3& block) const;
  void account_launch(const LaunchStats& stats);
  void check_device_range(const void* ptr, std::size_t bytes,
                          const char* what) const;
  // Unlocked internals shared by the raw and pooled entry points (the pool
  // must allocate under the lock it already holds).
  void* malloc_locked(std::size_t bytes);
  void trim_locked();
  double makespan_locked() const;
  /// Refresh overlap_seconds_hidden = serial sum - makespan (monotone:
  /// every accounting step grows the serial sum at least as much as the
  /// makespan).
  void update_overlap_locked();

  void count_locked() {}
  template <typename T, typename... Rest>
  void count_locked(T DeviceStats::*field, std::type_identity_t<T> by,
                    const Rest&... rest) {
    stats_.*field += by;
    count_locked(rest...);
  }
  template <typename T, std::size_t N, typename Variant, typename... Rest>
  void count_locked(std::array<T, N> DeviceStats::*field, Variant variant,
                    const Rest&... rest) {
    ++(stats_.*field)[static_cast<std::size_t>(variant)];
    count_locked(rest...);
  }

  DeviceProperties props_;
  ThreadPool pool_;

  mutable std::mutex mutex_;
  DeviceStats stats_;
  std::unordered_map<const void*, std::size_t> allocations_;
  /// Freelists of cached blocks, keyed by size class. Entries here are NOT
  /// in allocations_ (they have no client owner).
  std::unordered_map<std::size_t, std::vector<void*>> pool_free_lists_;
  /// Absolute end-of-timeline per stream; index 0 is the compute stream.
  std::vector<double> timeline_end_{0.0};
  /// Lazily-created dedicated copy stream id; 0 means "not created yet"
  /// (stream 0 is the compute stream, never the transfer stream).
  std::size_t transfer_stream_id_ = 0;
  /// Launches, and launches plus copies, ever run on this context (never
  /// reset): the chain rule's "nothing ran since" test and per-op counts.
  std::uint64_t launch_seq_ = 0;
  std::uint64_t work_seq_ = 0;
  /// The composite-launch chain the last op closed (open_op/close_op).
  struct Chain {
    ChainOp last;
    bool live = false;            ///< the last op may be continued
    std::uint64_t closed_at = 0;  ///< work_seq_ when it closed
    std::size_t ops = 0;
    std::uint64_t launches = 0;
  } chain_;
};

/// RAII scope under which this thread's kernel launches form one composite
/// ("fused") launch for the cost model: the first launch inside the scope is
/// charged in full, every further launch is charged its work time only —
/// the fixed kernel_launch_overhead_s is elided and counted in
/// DeviceStats::launches_elided. @p head_charged opens the scope with the
/// composite's overhead already paid (an op joining a chain). Functional
/// execution is unchanged; only the clock and the launch accounting differ.
/// Thread-local by design so concurrent service workers cannot bleed fusion
/// scopes into each other.
class FusedLaunchScope {
 public:
  explicit FusedLaunchScope(bool head_charged = false);
  ~FusedLaunchScope();

  FusedLaunchScope(const FusedLaunchScope&) = delete;
  FusedLaunchScope& operator=(const FusedLaunchScope&) = delete;

 private:
  friend class Context;
  /// Innermost active scope of the calling thread, or nullptr.
  static FusedLaunchScope*& current();

  FusedLaunchScope* prev_;
  bool head_charged_;
};

/// The calling thread's current device, analogous to CUDA's implicit
/// device 0 after cudaSetDevice. By default every thread sees one shared
/// process-wide context; a ScopedDevice guard rebinds the *calling thread*
/// to another context for a scope — the mechanism the serving layer uses to
/// give every worker thread its own simulated GPU (src/service/).
Context& device();

/// RAII guard that makes @p ctx the calling thread's device() for the
/// guard's lifetime (cudaSetDevice with automatic restore). Guards nest:
/// destruction restores whatever device() resolved to when the guard was
/// built. The rebinding is thread-local — concurrent threads each hold
/// their own binding and never observe another thread's guard.
///
/// Prefer a fresh Context + ScopedDevice over `device().reset_stats()` for
/// measuring a region: the region's stats start at zero, and nothing else
/// running in the process can bleed counters into the measurement.
class ScopedDevice {
 public:
  explicit ScopedDevice(Context& ctx);
  ~ScopedDevice();

  ScopedDevice(const ScopedDevice&) = delete;
  ScopedDevice& operator=(const ScopedDevice&) = delete;

 private:
  Context* previous_;
};

}  // namespace gpu_sim
