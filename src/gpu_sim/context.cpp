#include "gpu_sim/context.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string>

namespace gpu_sim {

namespace {
/// Materialization hook installed by the lazy-fusion layer; atomic because
/// install races with concurrent clock reads from other threads.
std::atomic<Context::DrainHook> g_drain_hook{nullptr};
}  // namespace

void Context::set_drain_hook(DrainHook hook) {
  g_drain_hook.store(hook, std::memory_order_release);
}

void Context::run_drain_hook() {
  if (DrainHook hook = g_drain_hook.load(std::memory_order_acquire))
    hook();
}

Context::Context(DeviceProperties props, std::size_t worker_count)
    : props_(props), pool_(worker_count) {}

Context::~Context() {
  // Recorded-but-pending ops may still reference this device's memory;
  // drain them while the arena is alive.
  run_drain_hook();
  // Cached pool blocks have no client owner left to release them.
  std::lock_guard<std::mutex> lock(mutex_);
  trim_locked();
}

DeviceStats Context::stats() const {
  run_drain_hook();  // observing counters is a materialization point
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void Context::reset_stats() {
  run_drain_hook();
  std::lock_guard<std::mutex> lock(mutex_);
  DeviceStats fresh;
  for_each_counter([&](const char*, auto field, CounterKind kind) {
    if (kind == CounterKind::kPointInTime) fresh.*field = stats_.*field;
  });
  fresh.peak_bytes_in_use = fresh.bytes_in_use;
  stats_ = fresh;
  std::fill(timeline_end_.begin(), timeline_end_.end(), 0.0);
}

double Context::simulated_time_s() const {
  run_drain_hook();  // observing the clock is a materialization point
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_.simulated_kernel_time_s + stats_.simulated_transfer_time_s;
}

double Context::makespan_locked() const {
  return *std::max_element(timeline_end_.begin(), timeline_end_.end());
}

void Context::update_overlap_locked() {
  stats_.overlap_seconds_hidden =
      (stats_.simulated_kernel_time_s + stats_.simulated_transfer_time_s) -
      makespan_locked();
}

std::size_t Context::create_stream() {
  std::lock_guard<std::mutex> lock(mutex_);
  // Start at the makespan: a fresh stream cannot retroactively overlap
  // work that was accounted before it existed.
  timeline_end_.push_back(makespan_locked());
  return timeline_end_.size() - 1;
}

double Context::stream_clock_s(std::size_t sid) const {
  run_drain_hook();
  std::lock_guard<std::mutex> lock(mutex_);
  if (sid >= timeline_end_.size())
    throw InvalidLaunchConfig("unknown stream id " + std::to_string(sid));
  return timeline_end_[sid];
}

double Context::makespan_s() const {
  run_drain_hook();
  std::lock_guard<std::mutex> lock(mutex_);
  return makespan_locked();
}

void Context::stream_wait(std::size_t sid, double t_s) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (sid >= timeline_end_.size())
    throw InvalidLaunchConfig("unknown stream id " + std::to_string(sid));
  timeline_end_[sid] = std::max(timeline_end_[sid], t_s);
}

void Context::align_streams() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::fill(timeline_end_.begin(), timeline_end_.end(), makespan_locked());
}

std::size_t Context::transfer_stream() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (transfer_stream_id_ == 0) {
    timeline_end_.push_back(makespan_locked());
    transfer_stream_id_ = timeline_end_.size() - 1;
  }
  return transfer_stream_id_;
}

void* Context::malloc_locked(std::size_t bytes) {
  if (stats_.bytes_in_use + bytes > props_.total_global_memory) {
    throw DeviceBadAlloc("requested " + std::to_string(bytes) +
                         " bytes with " +
                         std::to_string(stats_.bytes_in_use) +
                         " in use of " +
                         std::to_string(props_.total_global_memory));
  }
  void* ptr = std::malloc(bytes);
  if (ptr == nullptr) throw DeviceBadAlloc("host backing store exhausted");
  allocations_.emplace(ptr, bytes);
  ++stats_.allocations;
  stats_.bytes_in_use += bytes;
  stats_.total_bytes_allocated += bytes;
  if (stats_.bytes_in_use > stats_.peak_bytes_in_use)
    stats_.peak_bytes_in_use = stats_.bytes_in_use;
  return ptr;
}

void* Context::malloc_bytes(std::size_t bytes) {
  if (bytes == 0) bytes = 1;  // cudaMalloc(0) returns a unique pointer too
  std::lock_guard<std::mutex> lock(mutex_);
  return malloc_locked(bytes);
}

std::size_t Context::pool_class_bytes(std::size_t bytes) {
  std::size_t cls = kMinPoolClassBytes;
  while (cls < bytes) cls <<= 1;
  return cls;
}

void* Context::pool_alloc(std::size_t bytes) {
  const std::size_t cls = pool_class_bytes(bytes == 0 ? 1 : bytes);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = pool_free_lists_.find(cls);
  if (it != pool_free_lists_.end() && !it->second.empty()) {
    // Freelist hit: adopt the cached block. It re-enters allocations_ as a
    // client-owned allocation; total_bytes_allocated does NOT grow because
    // no new device memory was carved out.
    void* ptr = it->second.back();
    it->second.pop_back();
    ++stats_.pool_hits;
    stats_.pool_bytes_held -= cls;
    allocations_.emplace(ptr, cls);
    ++stats_.allocations;
    stats_.bytes_in_use += cls;
    if (stats_.bytes_in_use > stats_.peak_bytes_in_use)
      stats_.peak_bytes_in_use = stats_.bytes_in_use;
    return ptr;
  }
  ++stats_.pool_misses;
  // Cached blocks count against device memory too; if the request only
  // fails because of them, release the cache and retry (the behavior of
  // cudaMallocAsync when the pool's reserve blocks a fresh allocation).
  if (stats_.bytes_in_use + stats_.pool_bytes_held + cls >
          props_.total_global_memory &&
      stats_.pool_bytes_held > 0) {
    trim_locked();
  }
  return malloc_locked(cls);
}

void Context::pool_free(void* ptr) {
  if (ptr == nullptr) return;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = allocations_.find(ptr);
  if (it == allocations_.end())
    throw InvalidDevicePointer("pool_free of unknown pointer");
  const std::size_t cls = it->second;
  stats_.bytes_in_use -= cls;
  ++stats_.frees;
  allocations_.erase(it);
  pool_free_lists_[cls].push_back(ptr);
  stats_.pool_bytes_held += cls;
}

void Context::trim() {
  std::lock_guard<std::mutex> lock(mutex_);
  trim_locked();
}

void Context::trim_locked() {
  for (auto& [cls, list] : pool_free_lists_) {
    (void)cls;
    for (void* ptr : list) std::free(ptr);
    list.clear();
  }
  pool_free_lists_.clear();
  stats_.pool_bytes_held = 0;
  ++stats_.pool_trims;
}

void Context::free_bytes(void* ptr) {
  if (ptr == nullptr) return;  // cudaFree(nullptr) is a no-op
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = allocations_.find(ptr);
  if (it == allocations_.end())
    throw InvalidDevicePointer("free of unknown pointer");
  stats_.bytes_in_use -= it->second;
  ++stats_.frees;
  allocations_.erase(it);
  std::free(ptr);
}

std::size_t Context::allocation_size(const void* ptr) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = allocations_.find(ptr);
  if (it == allocations_.end())
    throw InvalidDevicePointer("allocation_size of unknown pointer");
  return it->second;
}

void Context::check_device_range(const void* ptr, std::size_t bytes,
                                 const char* what) const {
  // Interior pointers are legal (copies from an offset into an allocation);
  // scan for a containing block.
  const auto* p = static_cast<const char*>(ptr);
  for (const auto& [base, size] : allocations_) {
    const auto* b = static_cast<const char*>(base);
    if (p >= b && p + bytes <= b + size) return;
  }
  throw InvalidDevicePointer(std::string(what) +
                             ": range not contained in any device allocation");
}

void Context::copy_h2d(void* dst_device, const void* src_host,
                       std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  check_device_range(dst_device, bytes, "copy_h2d dst");
  std::memcpy(dst_device, src_host, bytes);
  ++stats_.h2d_transfers;
  stats_.h2d_bytes += bytes;
  const double d = modeled_transfer_time(props_, bytes);
  stats_.simulated_transfer_time_s += d;
  // Synchronous cudaMemcpy: device-wide barrier — every stream timeline
  // jumps to the transfer's end, so single-stream programs keep
  // makespan == serial sum exactly.
  std::fill(timeline_end_.begin(), timeline_end_.end(),
            makespan_locked() + d);
  update_overlap_locked();
}

void Context::copy_d2h(void* dst_host, const void* src_device,
                       std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  check_device_range(src_device, bytes, "copy_d2h src");
  std::memcpy(dst_host, src_device, bytes);
  ++stats_.d2h_transfers;
  stats_.d2h_bytes += bytes;
  const double d = modeled_transfer_time(props_, bytes);
  stats_.simulated_transfer_time_s += d;
  std::fill(timeline_end_.begin(), timeline_end_.end(),
            makespan_locked() + d);
  update_overlap_locked();
}

void Context::copy_d2d(void* dst_device, const void* src_device,
                       std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  check_device_range(dst_device, bytes, "copy_d2d dst");
  check_device_range(src_device, bytes, "copy_d2d src");
  std::memmove(dst_device, src_device, bytes);
  ++stats_.d2d_copies;
  stats_.d2d_bytes += bytes;
  const double d = modeled_d2d_time(props_, bytes);
  stats_.simulated_transfer_time_s += d;
  std::fill(timeline_end_.begin(), timeline_end_.end(),
            makespan_locked() + d);
  update_overlap_locked();
}

void Context::copy_h2d_async(void* dst_device, const void* src_host,
                             std::size_t bytes, std::size_t stream_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (stream_id >= timeline_end_.size())
    throw InvalidLaunchConfig("unknown stream id " +
                              std::to_string(stream_id));
  check_device_range(dst_device, bytes, "copy_h2d_async dst");
  std::memcpy(dst_device, src_host, bytes);  // functionally immediate
  ++stats_.h2d_transfers;
  stats_.h2d_bytes += bytes;
  const double d = modeled_transfer_time(props_, bytes);
  stats_.simulated_transfer_time_s += d;
  timeline_end_[stream_id] += d;  // advances only this stream
  update_overlap_locked();
}

void Context::copy_d2h_async(void* dst_host, const void* src_device,
                             std::size_t bytes, std::size_t stream_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (stream_id >= timeline_end_.size())
    throw InvalidLaunchConfig("unknown stream id " +
                              std::to_string(stream_id));
  check_device_range(src_device, bytes, "copy_d2h_async src");
  std::memcpy(dst_host, src_device, bytes);  // functionally immediate
  ++stats_.d2h_transfers;
  stats_.d2h_bytes += bytes;
  const double d = modeled_transfer_time(props_, bytes);
  stats_.simulated_transfer_time_s += d;
  timeline_end_[stream_id] += d;
  update_overlap_locked();
}

void Context::validate_launch(const Dim3& grid, const Dim3& block) const {
  if (block.count() == 0 || grid.count() == 0)
    throw InvalidLaunchConfig("zero-sized grid or block");
  if (block.count() > props_.max_threads_per_block)
    throw InvalidLaunchConfig("block of " + std::to_string(block.count()) +
                              " threads exceeds device limit of " +
                              std::to_string(props_.max_threads_per_block));
  if (grid.x > props_.max_grid_dim_x)
    throw InvalidLaunchConfig("grid.x exceeds device limit");
}

void Context::account_launch(const LaunchStats& stats) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.kernel_launches;
  stats_.kernel_ops += stats.ops;
  stats_.kernel_bytes_read += stats.bytes_read;
  stats_.kernel_bytes_written += stats.bytes_written;
  double t = modeled_kernel_time(props_, stats);
  // Inside a composite (fused) launch only the head pays the fixed launch
  // overhead; every further launch is charged its work time alone.
  if (FusedLaunchScope* scope = FusedLaunchScope::current()) {
    if (scope->head_charged_) {
      t -= props_.kernel_launch_overhead_s;
      if (t < 0.0) t = 0.0;
      ++stats_.launches_elided;
    } else {
      scope->head_charged_ = true;
    }
  }
  stats_.simulated_kernel_time_s += t;
  timeline_end_[0] += t;  // kernels run on the compute stream
  update_overlap_locked();
}

FusedLaunchScope*& FusedLaunchScope::current() {
  thread_local FusedLaunchScope* tl_scope = nullptr;
  return tl_scope;
}

FusedLaunchScope::FusedLaunchScope() : prev_(current()) { current() = this; }

FusedLaunchScope::~FusedLaunchScope() { current() = prev_; }

namespace {
/// Per-thread device binding; null means "the process-wide default".
thread_local Context* tl_device_override = nullptr;
}  // namespace

ScopedDevice::ScopedDevice(Context& ctx) : previous_(tl_device_override) {
  tl_device_override = &ctx;
}

ScopedDevice::~ScopedDevice() { tl_device_override = previous_; }

Context& device() {
  if (tl_device_override != nullptr) return *tl_device_override;
  static Context ctx{DeviceProperties{}, /*worker_count=*/1};
  return ctx;
}

}  // namespace gpu_sim
