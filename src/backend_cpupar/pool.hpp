#pragma once

/// @file backend_cpupar/pool.hpp
/// Execution context of the CpuPar backend: an ambient thread pool bound to
/// the calling thread (mirroring gpu_sim::device()/ScopedDevice), the
/// fixed-chunk parallel loop, and the two execution policies the CPU op
/// bodies are written against (SerialExec, PoolExec).
///
/// Determinism contract (enforced by test_cpupar_determinism.cpp): a CpuPar
/// operation produces bytes identical to the Sequential backend under ANY
/// worker count. Two rules make that hold by construction:
///
///  1. CpuPar runs the Sequential op bodies themselves
///     (backend_sequential/ops.hpp), only under PoolExec instead of
///     SerialExec. Every `Exec::ranges` loop in those bodies walks
///     *independent outputs* (rows of a matrix, slots of a vector), so each
///     output's reduction chain is the Sequential one by construction. No
///     partial sums are ever merged across threads — floating-point addition
///     is not associative, so a tree-reduction would already break
///     bit-exactness. The two ops CpuPar writes itself, vxm and
///     vxm_overlay, pull each output slot's contributions in the
///     Sequential scatter's order.
///
///  2. Chunk boundaries are fixed multiples of kChunkAlign (a multiple of
///     64) regardless of worker count, so two chunks can never write into
///     the same word of a std::vector<bool>'s bit-packed storage (the
///     frontend hands CpuPar Vector<bool> objects, e.g. MIS's candidate
///     set).
///
/// Unlike gpu_sim::device(), the *default* pool is thread-local rather than
/// process-wide: gpu_sim::ThreadPool::parallel_for is not safe for
/// concurrent submitters, so handing two user threads one shared default
/// pool would corrupt it. Each thread that runs CpuPar ops without an
/// explicit ScopedPool gets a private lazily-built pool instead; the
/// serving layer binds one pool per worker explicitly.

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <thread>
#include <utility>
#include <vector>

#include "gpu_sim/knob.hpp"
#include "gpu_sim/thread_pool.hpp"

namespace grb::cpupar_backend {

/// Worker count of a default-constructed pool: the GBTL_CPUPAR_THREADS
/// environment override when set, else the hardware concurrency clamped to
/// [1, 8] (CpuPar targets the small-graph regime below the GPU crossover;
/// more workers than that only add wake-up latency). Read once, at first
/// use.
inline std::size_t default_worker_count() {
  static const gpu_sim::Knob<std::size_t> knob{
      std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 8),
      "GBTL_CPUPAR_THREADS", &gpu_sim::parse_count};
  return knob.get();
}

namespace detail {

inline gpu_sim::ThreadPool*& ambient_pool_slot() {
  thread_local gpu_sim::ThreadPool* slot = nullptr;
  return slot;
}

}  // namespace detail

/// The calling thread's CpuPar pool. A ScopedPool guard rebinds it for a
/// scope; without one, each thread lazily owns a private default pool.
inline gpu_sim::ThreadPool& pool() {
  if (gpu_sim::ThreadPool* bound = detail::ambient_pool_slot()) return *bound;
  thread_local gpu_sim::ThreadPool thread_default{default_worker_count()};
  return thread_default;
}

/// RAII guard making @p p the calling thread's pool() for the guard's
/// lifetime. Guards nest and the binding is thread-local, exactly like
/// gpu_sim::ScopedDevice.
class ScopedPool {
 public:
  explicit ScopedPool(gpu_sim::ThreadPool& p)
      : previous_(detail::ambient_pool_slot()) {
    detail::ambient_pool_slot() = &p;
  }
  ~ScopedPool() { detail::ambient_pool_slot() = previous_; }

  ScopedPool(const ScopedPool&) = delete;
  ScopedPool& operator=(const ScopedPool&) = delete;

 private:
  gpu_sim::ThreadPool* previous_;
};

/// Chunk-boundary alignment: a multiple of 64 so no two chunks share a word
/// of bit-packed std::vector<bool> storage.
inline constexpr std::size_t kChunkAlign = 64;
/// Default chunk width for vector-slot loops (64-aligned, fine-grained
/// enough to balance power-law row work across a handful of workers).
inline constexpr std::size_t kVectorChunk = 256;
/// Chunk width for loops that carry per-chunk scratch proportional to the
/// problem width (the mxm dense accumulator): coarser, so the scratch
/// (re)initialization amortizes over more rows.
inline constexpr std::size_t kRowChunk = 1024;

// --------------------------------------------------------------------------
// Modeled-time instrumentation (bench convention)
// --------------------------------------------------------------------------

/// Bench-only meter mirroring gpu_sim's simulated device clock: while a
/// meter is installed (ScopedMeter), parallel_ranges runs its chunks INLINE
/// and times each one, accumulating both the serial sum and the makespan of
/// a greedy longest-queue-first schedule over `workers` lanes. A bench then
/// reports   wall_elapsed - serial_sum() + modeled_sum()   as the modeled
/// W-thread time — real measured work under an Amdahl schedule, the
/// CPU-side analogue of the GPU backend's modeled device seconds
/// (bench_common.hpp documents the convention). Purely additive: with no
/// meter installed the pool runs real threads and nothing is timed.
class Meter {
 public:
  explicit Meter(std::size_t workers) : lanes_(workers > 0 ? workers : 1) {}

  std::size_t workers() const { return lanes_.size(); }
  double serial_sum() const { return serial_; }
  double modeled_sum() const {
    double makespan = 0.0;
    for (double lane : lanes_) makespan = std::max(makespan, lane);
    return makespan;
  }

  /// Charge one timed chunk: the greedy schedule places it on the least
  /// loaded lane (deterministic for a fixed chunk order).
  void charge(double seconds) {
    serial_ += seconds;
    *std::min_element(lanes_.begin(), lanes_.end()) += seconds;
  }

 private:
  double serial_ = 0.0;
  std::vector<double> lanes_;
};

namespace detail {

inline Meter*& ambient_meter_slot() {
  thread_local Meter* slot = nullptr;
  return slot;
}

}  // namespace detail

/// RAII guard installing a Meter for the calling thread (bench use only).
class ScopedMeter {
 public:
  explicit ScopedMeter(Meter& m) : previous_(detail::ambient_meter_slot()) {
    detail::ambient_meter_slot() = &m;
  }
  ~ScopedMeter() { detail::ambient_meter_slot() = previous_; }

  ScopedMeter(const ScopedMeter&) = delete;
  ScopedMeter& operator=(const ScopedMeter&) = delete;

 private:
  Meter* previous_;
};

/// Run body(begin, end) over [0, n) in fixed chunks of @p chunk positions
/// (which must be a multiple of kChunkAlign). Chunk decomposition depends
/// only on n and chunk — never on the worker count — and each body call owns
/// its range exclusively, so results are identical whether the chunks run
/// inline, on 2 workers, or on 8.
template <typename Body>
void parallel_ranges(std::size_t n, std::size_t chunk, Body&& body) {
  static_assert(kVectorChunk % kChunkAlign == 0 &&
                kRowChunk % kChunkAlign == 0);
  if (n == 0) return;
  const std::size_t nchunks = (n + chunk - 1) / chunk;

  if (Meter* meter = detail::ambient_meter_slot()) {
    // Modeled mode: inline execution, per-chunk timing (see Meter).
    using Clock = std::chrono::steady_clock;
    for (std::size_t c = 0; c < nchunks; ++c) {
      const auto t0 = Clock::now();
      body(c * chunk, std::min(n, c * chunk + chunk));
      meter->charge(std::chrono::duration<double>(Clock::now() - t0).count());
    }
    return;
  }

  gpu_sim::ThreadPool& p = pool();
  if (nchunks == 1 || p.worker_count() <= 1) {
    body(std::size_t{0}, n);
    return;
  }
  p.parallel_for(nchunks, [&](std::size_t c) {
    body(c * chunk, std::min(n, c * chunk + chunk));
  });
}

// --------------------------------------------------------------------------
// Execution policies of the CPU op bodies
// --------------------------------------------------------------------------

/// Runs an op body's loop over independent outputs as one inline range: the
/// Sequential backend.
struct SerialExec {
  template <typename Body>
  static void ranges(std::size_t n, std::size_t /*chunk*/, Body&& body) {
    body(std::size_t{0}, n);
  }
};

/// Runs the same loop in fixed chunks on the ambient pool: the CpuPar
/// backend.
struct PoolExec {
  template <typename Body>
  static void ranges(std::size_t n, std::size_t chunk, Body&& body) {
    parallel_ranges(n, chunk, std::forward<Body>(body));
  }
};

}  // namespace grb::cpupar_backend
