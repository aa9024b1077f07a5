/// Unit tests for the simulated GPU runtime: memory management, transfers,
/// kernel launches, cost-model accounting, the counter list and the knobs,
/// and the Thrust-like primitive library the GBTL GPU backend is composed
/// from.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "backend_cpupar/pool.hpp"
#include "gpu_sim/algorithms.hpp"
#include "gpu_sim/context.hpp"
#include "gpu_sim/device_vector.hpp"
#include "gpu_sim/knob.hpp"
#include "gpu_sim/stream.hpp"
#include "sparse/bitmap.hpp"
#include "sparse/fusion_plan.hpp"
#include "sparse/shard_plan.hpp"
#include "sparse/spgemm_select.hpp"
#include "sparse/spmv_select.hpp"
#include "spgemm_pin.hpp"

namespace {

using gpu_sim::Context;
using gpu_sim::DeviceProperties;
using gpu_sim::device_vector;
using gpu_sim::Dim3;
using gpu_sim::LaunchStats;

// Each test uses a private context so stats assertions are exact.
Context make_ctx() { return Context{DeviceProperties{}, 1}; }

TEST(GpuSimMemory, MallocFreeTracksUsage) {
  auto ctx = make_ctx();
  void* p = ctx.malloc_bytes(1024);
  EXPECT_EQ(ctx.stats().bytes_in_use, 1024u);
  EXPECT_EQ(ctx.stats().allocations, 1u);
  ctx.free_bytes(p);
  EXPECT_EQ(ctx.stats().bytes_in_use, 0u);
  EXPECT_EQ(ctx.stats().frees, 1u);
}

TEST(GpuSimMemory, PeakUsageIsHighWaterMark) {
  auto ctx = make_ctx();
  void* a = ctx.malloc_bytes(1000);
  void* b = ctx.malloc_bytes(500);
  ctx.free_bytes(a);
  void* c = ctx.malloc_bytes(200);
  EXPECT_EQ(ctx.stats().peak_bytes_in_use, 1500u);
  EXPECT_EQ(ctx.stats().bytes_in_use, 700u);
  ctx.free_bytes(b);
  ctx.free_bytes(c);
}

TEST(GpuSimMemory, ExhaustionThrowsDeviceBadAlloc) {
  DeviceProperties small;
  small.total_global_memory = 4096;
  Context ctx{small, 1};
  void* p = ctx.malloc_bytes(4000);
  EXPECT_THROW(ctx.malloc_bytes(200), gpu_sim::DeviceBadAlloc);
  ctx.free_bytes(p);
  EXPECT_NO_THROW(ctx.free_bytes(nullptr));  // cudaFree(nullptr) semantics
}

TEST(GpuSimMemory, ForeignFreeThrows) {
  auto ctx = make_ctx();
  int on_host = 0;
  EXPECT_THROW(ctx.free_bytes(&on_host), gpu_sim::InvalidDevicePointer);
}

TEST(GpuSimTransfer, RoundTripPreservesDataAndCounts) {
  auto ctx = make_ctx();
  std::vector<int> host(257);
  std::iota(host.begin(), host.end(), -17);
  device_vector<int> d(host, ctx);
  EXPECT_EQ(ctx.stats().h2d_transfers, 1u);
  EXPECT_EQ(ctx.stats().h2d_bytes, host.size() * sizeof(int));
  auto back = d.to_host();
  EXPECT_EQ(back, host);
  EXPECT_EQ(ctx.stats().d2h_transfers, 1u);
}

TEST(GpuSimTransfer, TransferTimeFollowsModel) {
  auto ctx = make_ctx();
  const std::size_t bytes = 1 << 20;
  std::vector<char> host(bytes, 'x');
  device_vector<char> d(host, ctx);
  const double expected =
      gpu_sim::modeled_transfer_time(ctx.properties(), bytes);
  EXPECT_DOUBLE_EQ(ctx.stats().simulated_transfer_time_s, expected);
}

TEST(GpuSimTransfer, CopyOutOfRangeThrows) {
  auto ctx = make_ctx();
  device_vector<int> d(8, ctx);
  // The pool rounds the backing allocation up to its size class, so the
  // overrun must exceed the class, not just the logical vector length.
  const std::size_t overrun =
      gpu_sim::Context::pool_class_bytes(8 * sizeof(int)) + sizeof(int);
  std::vector<int> host(overrun / sizeof(int) + 1, 1);
  EXPECT_THROW(ctx.copy_h2d(d.data(), host.data(), overrun),
               gpu_sim::InvalidDevicePointer);
}

TEST(GpuSimLaunch, OneDimensionalLaunchCoversAllIndices) {
  auto ctx = make_ctx();
  const std::size_t n = 1000;
  device_vector<std::uint32_t> d(n, ctx);
  std::uint32_t* p = d.data();
  ctx.launch_n(n, LaunchStats{n, 0, n * 4},
               [=](std::size_t i) { p[i] = static_cast<std::uint32_t>(i); });
  auto h = d.to_host();
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(h[i], i);
  EXPECT_EQ(ctx.stats().kernel_launches, 1u);
}

TEST(GpuSimLaunch, GridBlockGeometryIsCudaLike) {
  auto ctx = make_ctx();
  const std::size_t n = 512;
  device_vector<std::uint64_t> d(n, ctx);
  std::uint64_t* p = d.data();
  ctx.launch(Dim3{4}, Dim3{128}, LaunchStats{n, 0, n * 8},
             [=](const gpu_sim::ThreadId& tid) {
               p[tid.global_x()] = tid.block_idx.x * 1000 + tid.thread_idx.x;
             });
  auto h = d.to_host();
  EXPECT_EQ(h[0], 0u);
  EXPECT_EQ(h[127], 127u);
  EXPECT_EQ(h[128], 1000u);
  EXPECT_EQ(h[511], 3127u);
}

TEST(GpuSimLaunch, OversizedBlockThrows) {
  auto ctx = make_ctx();
  EXPECT_THROW(
      ctx.launch(Dim3{1}, Dim3{2048}, LaunchStats{}, [](const auto&) {}),
      gpu_sim::InvalidLaunchConfig);
  EXPECT_THROW(ctx.launch(Dim3{0}, Dim3{32}, LaunchStats{}, [](const auto&) {}),
               gpu_sim::InvalidLaunchConfig);
}

TEST(GpuSimLaunch, EmptyLaunchStillCostsOverhead) {
  auto ctx = make_ctx();
  ctx.launch_n(0, LaunchStats{}, [](std::size_t) {});
  EXPECT_EQ(ctx.stats().kernel_launches, 1u);
  EXPECT_DOUBLE_EQ(ctx.stats().simulated_kernel_time_s,
                   ctx.properties().kernel_launch_overhead_s);
}

TEST(GpuSimLaunch, CostModelChargesMaxOfComputeAndMemory) {
  auto ctx = make_ctx();
  const auto& p = ctx.properties();
  // Memory-bound kernel: 1 GiB of traffic, negligible ops.
  LaunchStats mem{1, 1ull << 30, 0};
  ctx.launch_n(1, mem, [](std::size_t) {});
  const double t = ctx.stats().simulated_kernel_time_s;
  EXPECT_NEAR(t,
              p.kernel_launch_overhead_s +
                  double(1ull << 30) / p.memory_bandwidth_bytes_per_s,
              1e-12);
}

TEST(GpuSimLaunch, MultiWorkerPoolComputesSameResult) {
  Context ctx{DeviceProperties{}, 4};
  const std::size_t n = 10007;
  device_vector<std::uint64_t> d(n, ctx);
  std::uint64_t* p = d.data();
  ctx.launch_n(n, LaunchStats{n, 0, n * 8},
               [=](std::size_t i) { p[i] = i * i; });
  auto h = d.to_host();
  for (std::size_t i = 0; i < n; i += 997) EXPECT_EQ(h[i], i * i);
}

TEST(GpuSimDeviceVector, ResizePreservesPrefix) {
  auto ctx = make_ctx();
  std::vector<int> host{1, 2, 3, 4};
  device_vector<int> d(host, ctx);
  d.resize(8);
  auto h = d.to_host();
  ASSERT_EQ(h.size(), 8u);
  EXPECT_EQ(h[0], 1);
  EXPECT_EQ(h[3], 4);
  EXPECT_GE(ctx.stats().d2d_copies, 1u);
}

TEST(GpuSimDeviceVector, CopyIsDeviceToDevice) {
  auto ctx = make_ctx();
  device_vector<int> a(std::vector<int>{5, 6, 7}, ctx);
  const auto before = ctx.stats();
  device_vector<int> b(a);
  const auto delta = ctx.stats() - before;
  EXPECT_EQ(delta.d2d_copies, 1u);
  EXPECT_EQ(delta.h2d_transfers, 0u);
  EXPECT_EQ(b.to_host(), (std::vector<int>{5, 6, 7}));
}

TEST(GpuSimDeviceVector, MoveTransfersOwnershipWithoutCopies) {
  auto ctx = make_ctx();
  device_vector<int> a(std::vector<int>{1, 2}, ctx);
  const auto before = ctx.stats();
  device_vector<int> b(std::move(a));
  const auto delta = ctx.stats() - before;
  EXPECT_EQ(delta.d2d_copies, 0u);
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move): spec'd empty
}

TEST(GpuSimStream, EventsMeasureSimulatedTime) {
  auto ctx = make_ctx();
  gpu_sim::Stream s(ctx);
  gpu_sim::Event start(ctx), stop(ctx);
  start.record(s);
  ctx.launch_n(1024, LaunchStats{1024, 8192, 8192}, [](std::size_t) {});
  stop.record(s);
  EXPECT_GT(elapsed_s(start, stop), 0.0);
  EXPECT_DOUBLE_EQ(elapsed_s(start, stop), ctx.simulated_time_s());
}

TEST(GpuSimStream, RecordNoStreamFollowsScopedDeviceSwitch) {
  // Regression: the no-stream record() overload used to read the clock of
  // the context the Event was *constructed* against. A default-constructed
  // Event recorded after a ScopedDevice switch must observe the clock of
  // the device the thread is bound to at record time.
  auto outer = make_ctx();
  gpu_sim::ScopedDevice bind_outer(outer);
  gpu_sim::Event ev;  // captures &outer at construction
  auto inner = make_ctx();
  {
    gpu_sim::ScopedDevice bind_inner(inner);
    inner.launch_n(64, LaunchStats{64, 0, 256}, [](std::size_t) {});
    ev.record();
  }
  EXPECT_GT(ev.time_s(), 0.0);
  EXPECT_DOUBLE_EQ(ev.time_s(), inner.simulated_time_s());
  EXPECT_DOUBLE_EQ(outer.simulated_time_s(), 0.0);
}

TEST(GpuSimStream, AsyncCopyOverlapsComputeStream) {
  auto ctx = make_ctx();
  auto side = gpu_sim::Stream::create(ctx);
  device_vector<int> d(1 << 16, ctx);
  std::vector<int> host(1 << 16, 3);
  // Kernel on stream 0, copy on the side stream: both start at makespan 0,
  // so the device-wide completion time is the max, not the sum.
  ctx.launch_n(1 << 16, LaunchStats{1 << 16, 1 << 22, 1 << 22},
               [](std::size_t) {});
  ctx.copy_h2d_async(d.data(), host.data(), host.size() * sizeof(int),
                     side.id());
  const double serial = ctx.simulated_time_s();
  const double makespan = ctx.makespan_s();
  EXPECT_LT(makespan, serial);
  EXPECT_NEAR(ctx.stats().overlap_seconds_hidden, serial - makespan, 1e-15);
}

TEST(GpuSimStream, StreamWaitJoinsTimelines) {
  auto ctx = make_ctx();
  auto side = gpu_sim::Stream::create(ctx);
  device_vector<int> d(1 << 14, ctx);
  std::vector<int> host(1 << 14, 7);
  ctx.copy_h2d_async(d.data(), host.data(), host.size() * sizeof(int),
                     side.id());
  gpu_sim::Event copied(ctx);
  copied.record(side);
  // cudaStreamWaitEvent: the compute stream may not run past the copy.
  gpu_sim::Stream compute(ctx);
  compute.wait(copied);
  EXPECT_GE(compute.clock_s(), copied.time_s());
  EXPECT_EQ(d.to_host(), host);
}

TEST(GpuSimStream, SyncCopyIsDeviceWideBarrier) {
  auto ctx = make_ctx();
  auto side = gpu_sim::Stream::create(ctx);
  device_vector<int> d(1 << 14, ctx);
  std::vector<int> host(1 << 14, 1);
  ctx.copy_h2d_async(d.data(), host.data(), host.size() * sizeof(int),
                     side.id());
  // A synchronous copy behaves like the legacy default stream: it starts
  // after ALL prior work on every stream.
  ctx.copy_h2d(d.data(), host.data(), host.size() * sizeof(int));
  EXPECT_DOUBLE_EQ(ctx.stream_clock_s(0), ctx.makespan_s());
  EXPECT_GE(ctx.stream_clock_s(0), side.clock_s());
}

TEST(GpuSimLaunch, FusedScopeElidesNonHeadOverhead) {
  auto ctx = make_ctx();
  const double overhead = ctx.properties().kernel_launch_overhead_s;
  ctx.launch_n(0, LaunchStats{}, [](std::size_t) {});
  EXPECT_DOUBLE_EQ(ctx.simulated_time_s(), overhead);
  {
    gpu_sim::FusedLaunchScope scope;
    ctx.launch_n(0, LaunchStats{}, [](std::size_t) {});  // head: full cost
    ctx.launch_n(0, LaunchStats{}, [](std::size_t) {});  // overhead elided
    ctx.launch_n(0, LaunchStats{}, [](std::size_t) {});  // overhead elided
  }
  EXPECT_DOUBLE_EQ(ctx.simulated_time_s(), 2 * overhead);
  EXPECT_EQ(ctx.stats().launches_elided, 2u);
  // Elision is a costing effect only — the launch count stays truthful.
  EXPECT_EQ(ctx.stats().kernel_launches, 4u);
}

TEST(GpuSimStream, ResetStatsKeepsLiveAllocations) {
  auto ctx = make_ctx();
  device_vector<int> d(16, ctx);
  ctx.reset_stats();
  EXPECT_EQ(ctx.stats().bytes_in_use, 16 * sizeof(int));
  EXPECT_EQ(ctx.stats().kernel_launches, 0u);
}

// --- The counter list (gpu_sim/stats.hpp) -----------------------------------

using gpu_sim::CounterKind;
using gpu_sim::DeviceStats;

/// A counter's scalars: the counter itself, or each entry of a per-variant
/// array.
template <typename C>
std::vector<double> scalars(const C& c) {
  if constexpr (std::is_arithmetic_v<C>)
    return {static_cast<double>(c)};
  else
    return std::vector<double>(c.begin(), c.end());
}

TEST(GpuSimStats, DifferenceFollowsEachCountersKind) {
  // b holds a distinct value in every scalar, a three times b's.
  DeviceStats a, b;
  std::uint64_t next = 1;
  gpu_sim::for_each_counter([&](const char*, auto field, CounterKind) {
    auto& x = b.*field;
    auto& y = a.*field;
    if constexpr (std::is_arithmetic_v<std::remove_reference_t<decltype(x)>>) {
      x = next;
      y = 3 * next++;
    } else {
      for (std::size_t i = 0; i < x.size(); ++i) {
        x[i] = next;
        y[i] = 3 * next++;
      }
    }
  });
  const DeviceStats d = a - b;
  gpu_sim::for_each_counter([&](const char* name, auto field, CounterKind k) {
    std::vector<double> want = scalars(a.*field);
    if (k == CounterKind::kCumulative)
      for (std::size_t i = 0; i < want.size(); ++i)
        want[i] -= scalars(b.*field)[i];
    EXPECT_EQ(scalars(d.*field), want) << name;
  });
}

TEST(GpuSimStats, ResetFollowsEachCountersKind) {
  auto ctx = make_ctx();
  void* live = ctx.malloc_bytes(1000);
  ctx.free_bytes(ctx.malloc_bytes(5000));  // the peak passes what stays live
  ctx.pool_free(ctx.pool_alloc(256));      // the pool holds a block
  gpu_sim::for_each_counter([&](const char*, auto field, CounterKind k) {
    if (k != CounterKind::kCumulative) return;
    if constexpr (std::is_arithmetic_v<
                      std::remove_cvref_t<decltype(DeviceStats{}.*field)>>)
      ctx.count(field, 2);
    else
      ctx.count(field, 1);  // one selection of variant 1
  });
  ctx.raise(&DeviceStats::shards_active, 4);
  ctx.raise(&DeviceStats::shards_active, 2);  // a high-water mark only rises
  const DeviceStats before = ctx.stats();
  EXPECT_EQ(before.shards_active, 4u);
  ctx.reset_stats();
  const DeviceStats after = ctx.stats();
  gpu_sim::for_each_counter([&](const char* name, auto field, CounterKind k) {
    const std::vector<double> was = scalars(before.*field);
    const std::vector<double> zero(was.size(), 0.0);
    EXPECT_NE(was, zero) << name << " was never moved";
    switch (k) {
      case CounterKind::kCumulative:
        EXPECT_EQ(scalars(after.*field), zero) << name;
        break;
      case CounterKind::kPointInTime:
        EXPECT_EQ(scalars(after.*field), was) << name;
        break;
      case CounterKind::kHighWater:
        // The byte peak restarts at the bytes live now, every other mark
        // at zero.
        EXPECT_EQ(scalars(after.*field),
                  std::string(name) == "peak_bytes_in_use"
                      ? scalars(after.bytes_in_use)
                      : zero)
            << name;
        break;
    }
  });
  EXPECT_EQ(after.bytes_in_use, 1000u);
  ctx.free_bytes(live);
}

// --- Knobs (gpu_sim/knob.hpp) -------------------------------------------------

TEST(GpuSimKnob, ParseTablesAcceptDocumentedValuesOnly) {
  using sparse::BitMode;
  using sparse::FusionMode;
  using sparse::SpgemmMode;
  const auto fusion = &gpu_sim::parse_named<sparse::kFusionModeNames>;
  EXPECT_EQ(fusion("off"), FusionMode::Off);
  EXPECT_EQ(fusion("fuse"), FusionMode::Fuse);
  EXPECT_EQ(fusion("auto"), FusionMode::Auto);
  const auto bit = &gpu_sim::parse_named<sparse::kBitModeNames>;
  EXPECT_EQ(bit("auto"), BitMode::Auto);
  EXPECT_EQ(bit("force"), BitMode::Force);
  EXPECT_EQ(bit("off"), BitMode::Off);
  const auto spgemm = &gpu_sim::parse_named<kSpgemmModeNames>;
  EXPECT_EQ(spgemm("auto"), SpgemmMode::Auto);
  EXPECT_EQ(spgemm("esc"), SpgemmMode::Esc);
  EXPECT_EQ(spgemm("hash"), SpgemmMode::Hash);
  for (const char* bad : {"", "nonsense", "OFF", "fuse ", "on"}) {
    EXPECT_EQ(fusion(bad), std::nullopt) << bad;
    EXPECT_EQ(bit(bad), std::nullopt) << bad;
    EXPECT_EQ(spgemm(bad), std::nullopt) << bad;
  }
  // GBTL_SHARDS and GBTL_CPUPAR_THREADS: positive counts.
  EXPECT_EQ(gpu_sim::parse_count("1"), 1u);
  EXPECT_EQ(gpu_sim::parse_count("5"), 5u);
  EXPECT_EQ(gpu_sim::parse_count("12"), 12u);
  for (const char* bad : {"", "0", "-3", "x", "x5"})
    EXPECT_EQ(gpu_sim::parse_count(bad), std::nullopt) << bad;
}

TEST(GpuSimKnob, SeedsFromItsEnvironmentVariableOnce) {
  using sparse::FusionMode;
  const auto parse = &gpu_sim::parse_named<sparse::kFusionModeNames>;
  ASSERT_EQ(setenv("GBTL_TEST_KNOB", "fuse", 1), 0);
  gpu_sim::Knob<FusionMode> fuse{FusionMode::Auto, "GBTL_TEST_KNOB", parse};
  EXPECT_EQ(fuse.get(), FusionMode::Fuse);
  setenv("GBTL_TEST_KNOB", "off", 1);
  EXPECT_EQ(fuse.get(), FusionMode::Fuse) << "read once, at construction";
  setenv("GBTL_TEST_KNOB", "sideways", 1);
  gpu_sim::Knob<FusionMode> bad{FusionMode::Auto, "GBTL_TEST_KNOB", parse};
  EXPECT_EQ(bad.get(), FusionMode::Auto) << "invalid value falls back";
  setenv("GBTL_TEST_KNOB", "0", 1);
  gpu_sim::Knob<std::size_t> zero{7, "GBTL_TEST_KNOB", &gpu_sim::parse_count};
  EXPECT_EQ(zero.get(), 7u) << "invalid value falls back";
  unsetenv("GBTL_TEST_KNOB");
  gpu_sim::Knob<std::size_t> unset{7, "GBTL_TEST_KNOB", &gpu_sim::parse_count};
  EXPECT_EQ(unset.get(), 7u);

  // The library's knobs follow the same rule: GBTL_CPUPAR_THREADS, once
  // read, no longer follows the environment.
  const char* ambient = std::getenv("GBTL_CPUPAR_THREADS");
  const std::string saved = ambient ? ambient : "";
  const std::size_t workers = grb::cpupar_backend::default_worker_count();
  EXPECT_GE(workers, 1u);
  if (!ambient) {
    EXPECT_LE(workers, 8u) << "hardware concurrency, clamped";
  }
  setenv("GBTL_CPUPAR_THREADS", workers == 5 ? "6" : "5", 1);
  EXPECT_EQ(grb::cpupar_backend::default_worker_count(), workers);
  if (ambient)
    setenv("GBTL_CPUPAR_THREADS", saved.c_str(), 1);
  else
    unsetenv("GBTL_CPUPAR_THREADS");
}

TEST(GpuSimKnob, GuardsNestAndRestore) {
  using sparse::SpmvMode;
  const SpmvMode before = sparse::spmv_mode();
  {
    sparse::SpmvModeGuard outer(SpmvMode::ForceEll);
    EXPECT_EQ(sparse::spmv_mode(), SpmvMode::ForceEll);
    {
      sparse::SpmvModeGuard inner(SpmvMode::ForceHyb);
      EXPECT_EQ(sparse::spmv_mode(), SpmvMode::ForceHyb);
    }
    EXPECT_EQ(sparse::spmv_mode(), SpmvMode::ForceEll);
  }
  EXPECT_EQ(sparse::spmv_mode(), before);

  const std::size_t shards = sparse::shard_count_override();
  const sparse::Index chunk = sparse::spmv_lb_chunk();
  {
    sparse::ShardCountGuard pin(3);
    gpu_sim::KnobGuard<sparse::spmv_lb_chunk_knob> small(4);
    EXPECT_EQ(sparse::shard_count_override(), 3u);
    EXPECT_EQ(sparse::spmv_lb_chunk(), 4u);
  }
  EXPECT_EQ(sparse::shard_count_override(), shards);
  EXPECT_EQ(sparse::spmv_lb_chunk(), chunk);
}

// --- Primitive library ------------------------------------------------------

TEST(GpuSimPrimitives, FillAndSequence) {
  auto ctx = make_ctx();
  device_vector<int> v(5, ctx);
  gpu_sim::fill(v, 9);
  EXPECT_EQ(v.to_host(), (std::vector<int>{9, 9, 9, 9, 9}));
  gpu_sim::sequence(v, 3);
  EXPECT_EQ(v.to_host(), (std::vector<int>{3, 4, 5, 6, 7}));
}

TEST(GpuSimPrimitives, TransformUnaryAndBinary) {
  auto ctx = make_ctx();
  device_vector<int> a(std::vector<int>{1, 2, 3}, ctx);
  device_vector<int> b(std::vector<int>{10, 20, 30}, ctx);
  device_vector<int> out(ctx);
  gpu_sim::transform(a, out, [](int x) { return x * x; });
  EXPECT_EQ(out.to_host(), (std::vector<int>{1, 4, 9}));
  gpu_sim::transform(a, b, out, [](int x, int y) { return x + y; });
  EXPECT_EQ(out.to_host(), (std::vector<int>{11, 22, 33}));
}

TEST(GpuSimPrimitives, ReduceAndCountIf) {
  auto ctx = make_ctx();
  std::vector<std::int64_t> host(1000);
  std::iota(host.begin(), host.end(), 1);
  device_vector<std::int64_t> v(host, ctx);
  EXPECT_EQ(gpu_sim::reduce_sum(v), 500500);
  EXPECT_EQ(gpu_sim::reduce(v, std::int64_t{0},
                            [](auto a, auto b) { return std::max(a, b); }),
            1000);
  EXPECT_EQ(gpu_sim::count_if(v, [](auto x) { return x % 2 == 0; }), 500u);
}

TEST(GpuSimPrimitives, ScansMatchStdPartialSum) {
  auto ctx = make_ctx();
  std::vector<int> host{3, 1, 4, 1, 5, 9, 2, 6};
  device_vector<int> v(host, ctx);
  device_vector<int> out(ctx);
  const int total = gpu_sim::exclusive_scan(v, out);
  EXPECT_EQ(total, 31);
  EXPECT_EQ(out.to_host(), (std::vector<int>{0, 3, 4, 8, 9, 14, 23, 25}));
  gpu_sim::inclusive_scan(v, out);
  EXPECT_EQ(out.to_host(), (std::vector<int>{3, 4, 8, 9, 14, 23, 25, 31}));
}

TEST(GpuSimPrimitives, GatherScatterInverse) {
  auto ctx = make_ctx();
  device_vector<int> data(std::vector<int>{10, 11, 12, 13}, ctx);
  device_vector<std::uint32_t> map(std::vector<std::uint32_t>{3, 0, 2, 1},
                                   ctx);
  device_vector<int> gathered(ctx);
  gpu_sim::gather(map, data, gathered);
  EXPECT_EQ(gathered.to_host(), (std::vector<int>{13, 10, 12, 11}));
  device_vector<int> scattered(4, ctx);
  gpu_sim::scatter(gathered, map, scattered);
  EXPECT_EQ(scattered.to_host(), (std::vector<int>{10, 11, 12, 13}));
}

TEST(GpuSimPrimitives, CopyFlaggedCompacts) {
  auto ctx = make_ctx();
  device_vector<int> in(std::vector<int>{1, 2, 3, 4, 5}, ctx);
  device_vector<std::uint8_t> flags(
      std::vector<std::uint8_t>{1, 0, 1, 0, 1}, ctx);
  device_vector<int> out(ctx);
  EXPECT_EQ(gpu_sim::copy_flagged(in, flags, out), 3u);
  EXPECT_EQ(out.to_host(), (std::vector<int>{1, 3, 5}));
}

TEST(GpuSimPrimitives, SortByKeyIsStable) {
  auto ctx = make_ctx();
  device_vector<std::uint32_t> keys(
      std::vector<std::uint32_t>{2, 1, 2, 0, 1}, ctx);
  device_vector<int> vals(std::vector<int>{100, 200, 300, 400, 500}, ctx);
  gpu_sim::sort_by_key(keys, vals);
  EXPECT_EQ(keys.to_host(), (std::vector<std::uint32_t>{0, 1, 1, 2, 2}));
  EXPECT_EQ(vals.to_host(), (std::vector<int>{400, 200, 500, 100, 300}));
}

TEST(GpuSimPrimitives, ReduceByKeyCollapsesRuns) {
  auto ctx = make_ctx();
  device_vector<std::uint32_t> keys(
      std::vector<std::uint32_t>{0, 0, 1, 2, 2, 2}, ctx);
  device_vector<int> vals(std::vector<int>{1, 2, 3, 4, 5, 6}, ctx);
  device_vector<std::uint32_t> ok(ctx);
  device_vector<int> ov(ctx);
  const auto runs = gpu_sim::reduce_by_key(
      keys, vals, ok, ov, [](int a, int b) { return a + b; });
  EXPECT_EQ(runs, 3u);
  EXPECT_EQ(ok.to_host(), (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(ov.to_host(), (std::vector<int>{3, 3, 15}));
}

TEST(GpuSimPrimitives, LowerBoundMatchesStd) {
  auto ctx = make_ctx();
  device_vector<std::uint32_t> hay(
      std::vector<std::uint32_t>{0, 0, 2, 5, 5, 9}, ctx);
  device_vector<std::uint32_t> needles(
      std::vector<std::uint32_t>{0, 1, 5, 10}, ctx);
  device_vector<std::uint32_t> out(ctx);
  gpu_sim::lower_bound(hay, needles, out);
  EXPECT_EQ(out.to_host(), (std::vector<std::uint32_t>{0, 2, 3, 6}));
}

TEST(GpuSimPrimitives, UniqueCollapsesSortedRuns) {
  auto ctx = make_ctx();
  device_vector<int> v(std::vector<int>{1, 1, 2, 3, 3, 3, 7}, ctx);
  EXPECT_EQ(gpu_sim::unique(v), 4u);
  EXPECT_EQ(v.to_host(), (std::vector<int>{1, 2, 3, 7}));

  device_vector<int> empty_like(1, ctx);
  empty_like.clear();
  EXPECT_EQ(gpu_sim::unique(empty_like), 0u);

  device_vector<int> all_same(std::vector<int>{5, 5, 5}, ctx);
  EXPECT_EQ(gpu_sim::unique(all_same), 1u);
  EXPECT_EQ(all_same.to_host(), (std::vector<int>{5}));
}

TEST(GpuSimPrimitives, AdjacentDifferenceInvertsInclusiveScan) {
  auto ctx = make_ctx();
  device_vector<int> v(std::vector<int>{3, 1, 4, 1, 5}, ctx);
  device_vector<int> scanned(ctx), diffed(ctx);
  gpu_sim::inclusive_scan(v, scanned);
  gpu_sim::adjacent_difference(scanned, diffed);
  EXPECT_EQ(diffed.to_host(), v.to_host());
}

TEST(GpuSimPrimitives, DeterministicSimulatedTime) {
  // The whole point of the substitution: identical work yields identical
  // simulated time, run to run.
  auto run_once = [] {
    auto ctx = make_ctx();
    device_vector<int> v(4096, ctx);
    gpu_sim::fill(v, 7);
    device_vector<int> out(ctx);
    gpu_sim::exclusive_scan(v, out);
    gpu_sim::reduce_sum(out);
    return ctx.simulated_time_s();
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

}  // namespace
