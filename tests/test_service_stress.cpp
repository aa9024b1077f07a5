/// Concurrency stress for the serving layer — the acceptance test for the
/// "placement, not math" contract: N workers x M mixed queries, submitted
/// from several client threads at once, and every successful result must be
/// BIT-EXACT against the same query run serially on the sequential backend.
/// That holds whichever backend the executor places each query on: the
/// mixed-backend tests below split one workload across CpuPar and GpuSim at
/// a crossover threshold, and force-CpuPar runs nest its per-worker thread
/// pools inside the executor's worker threads. Run under ThreadSanitizer by
/// scripts/ci.sh (the tsan stage); any data race between worker contexts,
/// CpuPar pools, the store, or the stats block fires there.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "algorithms/incremental.hpp"
#include "graph/generators.hpp"
#include "graph/graph_matrix.hpp"
#include "service/executor.hpp"
#include "service/graph_store.hpp"
#include "service/query.hpp"
#include "sparse/bitmap.hpp"
#include "sparse/fusion_plan.hpp"
#include "sparse/shard_plan.hpp"
#include "sparse/spgemm_select.hpp"
#include "sparse/spmv_select.hpp"

namespace {

using namespace std::chrono_literals;

std::shared_ptr<service::GraphStore> make_store() {
  auto store = std::make_shared<service::GraphStore>();
  // Directed scale-free graph for BFS / PageRank.
  store->add("rmat", gbtl_graph::rmat(7, 8, /*seed=*/11));
  // Weighted variant for SSSP.
  store->add("rmat-w",
             gbtl_graph::with_random_weights(
                 gbtl_graph::rmat(7, 8, /*seed=*/13), 1.0, 8.0, /*seed=*/17));
  // Symmetric, loop-free variant for triangle count / components.
  store->add("rmat-sym",
             gbtl_graph::remove_self_loops(gbtl_graph::symmetrize(
                 gbtl_graph::rmat(7, 6, /*seed=*/19))));
  return store;
}

/// The mixed workload: every kind, several sources, across three graphs.
std::vector<service::QueryRequest> make_workload(std::size_t count) {
  std::vector<service::QueryRequest> reqs;
  reqs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    service::QueryRequest r;
    switch (i % 5) {
      case 0:
        r.kind = service::QueryKind::kBfs;
        r.graph = "rmat";
        r.source = (i * 37) % 128;
        break;
      case 1:
        r.kind = service::QueryKind::kSssp;
        r.graph = "rmat-w";
        r.source = (i * 53) % 128;
        break;
      case 2:
        r.kind = service::QueryKind::kPageRank;
        r.graph = "rmat";
        r.max_iterations = 25;
        break;
      case 3:
        r.kind = service::QueryKind::kTriangleCount;
        r.graph = "rmat-sym";
        break;
      case 4:
        r.kind = service::QueryKind::kConnectedComponents;
        r.graph = "rmat-sym";
        break;
    }
    reqs.push_back(std::move(r));
  }
  return reqs;
}

void expect_bit_exact(const service::QueryResult& got,
                      const service::QueryResult& want, std::size_t i) {
  ASSERT_EQ(got.status, service::QueryStatus::kOk)
      << "query " << i << ": " << got.error;
  ASSERT_EQ(want.status, service::QueryStatus::kOk)
      << "query " << i << ": " << want.error;
  EXPECT_EQ(got.indices, want.indices) << "query " << i;
  EXPECT_EQ(got.ivals, want.ivals) << "query " << i;
  EXPECT_EQ(got.scalar, want.scalar) << "query " << i;
  ASSERT_EQ(got.dvals.size(), want.dvals.size()) << "query " << i;
  if (!got.dvals.empty()) {
    EXPECT_EQ(std::memcmp(got.dvals.data(), want.dvals.data(),
                          got.dvals.size() * sizeof(double)),
              0)
        << "query " << i << ": double payload not bit-exact";
  }
}

TEST(ServiceStress, ConcurrentMixedWorkloadBitExactVsSerial) {
  auto store = make_store();
  const std::size_t kQueries = 48;
  const auto workload = make_workload(kQueries);

  // Serial ground truth first, on the sequential backend, one at a time.
  std::vector<service::QueryResult> serial;
  serial.reserve(kQueries);
  for (const auto& req : workload)
    serial.push_back(service::QueryExecutor::execute_serial(*store, req));

  service::ExecutorOptions opts;
  opts.workers = 4;
  opts.queue_capacity = kQueries;  // nothing sheds; every query must run
  service::QueryExecutor exec(store, opts);

  // Hammer the admission path from several client threads at once. One
  // batch's worker spread is scheduling luck — on a fast machine a single
  // worker can drain all 48 tiny queries before its peers wake from the
  // queue's condition variable — so re-submit the batch (bounded) until a
  // second worker shows up. Every round's results stay bit-checked.
  std::map<std::size_t, std::size_t> per_worker;
  std::size_t rounds = 0;
  while (rounds < 5 && per_worker.size() < 2) {
    ++rounds;
    std::vector<std::future<service::QueryResult>> futures(kQueries);
    const std::size_t kClients = 3;
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c)
      clients.emplace_back([&, c] {
        for (std::size_t i = c; i < kQueries; i += kClients)
          futures[i] = exec.submit(workload[i]);
      });
    for (auto& t : clients) t.join();

    for (std::size_t i = 0; i < kQueries; ++i) {
      const auto got = futures[i].get();
      expect_bit_exact(got, serial[i], i);
      ++per_worker[got.worker];
    }
  }

  const auto stats = exec.stats();
  EXPECT_EQ(stats.submitted, kQueries * rounds);
  EXPECT_EQ(stats.completed, kQueries * rounds);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.cancelled, 0u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.resolved(), stats.submitted);
  // Multiple workers must have seen work across the rounds; tolerate
  // stragglers but not a fully serialized executor.
  EXPECT_GE(per_worker.size(), 2u);
}

TEST(ServiceStress, RepeatedRoundsReuseTheDeviceCache) {
  auto store = make_store();
  service::ExecutorOptions opts;
  opts.workers = 2;
  opts.queue_capacity = 64;
  // Pin to the simulated GPU: this test exists to exercise the per-worker
  // device cache, which kAuto would route these small graphs around.
  opts.backend_mode = service::BackendMode::kForceGpuSim;
  service::QueryExecutor exec(store, opts);

  const auto workload = make_workload(10);
  std::vector<service::QueryResult> serial;
  for (const auto& req : workload)
    serial.push_back(service::QueryExecutor::execute_serial(*store, req));

  // Three rounds over the same graphs: rounds 2 and 3 hit each worker's
  // device cache, and the answers must not drift.
  for (int round = 0; round < 3; ++round) {
    std::vector<std::future<service::QueryResult>> futures;
    for (const auto& req : workload) futures.push_back(exec.submit(req));
    for (std::size_t i = 0; i < futures.size(); ++i)
      expect_bit_exact(futures[i].get(), serial[i], i);
  }
}

/// One workload split across BOTH worker-side backends: the crossover sits
/// between the store's smallest and largest graph, so some queries run on
/// CpuPar and some on GpuSim inside the same executor — and every one must
/// still be bit-exact against the serial oracle.
TEST(ServiceStress, MixedBackendWorkloadBitExactVsSerial) {
  auto store = make_store();
  const std::size_t nnz_rmat = store->get("rmat")->num_edges();
  const std::size_t nnz_w = store->get("rmat-w")->num_edges();
  const std::size_t nnz_sym = store->get("rmat-sym")->num_edges();
  const std::size_t hi = std::max({nnz_rmat, nnz_w, nnz_sym});
  ASSERT_LT(std::min({nnz_rmat, nnz_w, nnz_sym}), hi)
      << "store graphs must straddle the crossover for a mixed run";

  const std::size_t kQueries = 40;
  const auto workload = make_workload(kQueries);
  std::vector<service::QueryResult> serial;
  serial.reserve(kQueries);
  for (const auto& req : workload)
    serial.push_back(service::QueryExecutor::execute_serial(*store, req));

  service::ExecutorOptions opts;
  opts.workers = 4;
  opts.queue_capacity = kQueries;
  opts.backend_mode = service::BackendMode::kAuto;
  opts.crossover_nnz = hi;  // largest graph -> GpuSim, smaller -> CpuPar
  opts.cpupar_threads = 2;
  service::QueryExecutor exec(store, opts);

  std::vector<std::future<service::QueryResult>> futures;
  futures.reserve(kQueries);
  for (const auto& req : workload) futures.push_back(exec.submit(req));
  for (std::size_t i = 0; i < kQueries; ++i) {
    const auto got = futures[i].get();
    expect_bit_exact(got, serial[i], i);
    EXPECT_TRUE(got.backend == "cpupar" || got.backend == "gpusim")
        << "query " << i << " ran on '" << got.backend << "'";
  }

  const auto stats = exec.stats();
  EXPECT_GT(stats.ran_cpupar, 0u);
  EXPECT_GT(stats.ran_gpusim, 0u);
  EXPECT_EQ(stats.ran_cpupar + stats.ran_gpusim, kQueries);
}

/// Every query forced onto CpuPar with 4 executor workers x 3 pool threads:
/// twelve compute threads in flight, results still byte-identical to the
/// serial oracle. This is the configuration the TSan stage leans on.
TEST(ServiceStress, ForcedCpuParConcurrentWorkloadBitExactVsSerial) {
  auto store = make_store();
  const std::size_t kQueries = 40;
  const auto workload = make_workload(kQueries);
  std::vector<service::QueryResult> serial;
  serial.reserve(kQueries);
  for (const auto& req : workload)
    serial.push_back(service::QueryExecutor::execute_serial(*store, req));

  service::ExecutorOptions opts;
  opts.workers = 4;
  opts.queue_capacity = kQueries;
  opts.backend_mode = service::BackendMode::kForceCpuPar;
  opts.cpupar_threads = 3;
  service::QueryExecutor exec(store, opts);

  // Hammer admission from several client threads, as in the mixed test.
  std::vector<std::future<service::QueryResult>> futures(kQueries);
  const std::size_t kClients = 3;
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      for (std::size_t i = c; i < kQueries; i += kClients)
        futures[i] = exec.submit(workload[i]);
    });
  for (auto& t : clients) t.join();

  for (std::size_t i = 0; i < kQueries; ++i) {
    const auto got = futures[i].get();
    expect_bit_exact(got, serial[i], i);
    EXPECT_EQ(got.backend, "cpupar") << "query " << i;
  }
  const auto stats = exec.stats();
  EXPECT_EQ(stats.ran_cpupar, kQueries);
  EXPECT_EQ(stats.ran_gpusim, 0u);
}

TEST(ServiceStress, MixedDeadlinesPartitionCleanly) {
  auto store = make_store();
  service::ExecutorOptions opts;
  opts.workers = 2;
  opts.queue_capacity = 8;  // small on purpose: shedding is expected
  service::QueryExecutor exec(store, opts);

  auto workload = make_workload(40);
  for (std::size_t i = 0; i < workload.size(); ++i) {
    if (i % 3 == 0) workload[i].timeout = 0ms;  // born expired
  }

  std::vector<std::future<service::QueryResult>> futures;
  for (const auto& req : workload) futures.push_back(exec.submit(req));

  std::uint64_t ok = 0, cancelled = 0, shed = 0, failed = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const auto res = futures[i].get();
    switch (res.status) {
      case service::QueryStatus::kOk: ++ok; break;
      case service::QueryStatus::kCancelled: ++cancelled; break;
      case service::QueryStatus::kShed: ++shed; break;
      case service::QueryStatus::kFailed: ++failed; break;
      case service::QueryStatus::kCount: FAIL(); break;
    }
    // A query born past its deadline may be shed at the door, but if it
    // reached a worker it must come back cancelled, never kOk.
    if (workload[i].timeout == 0ms) {
      EXPECT_NE(res.status, service::QueryStatus::kOk) << "query " << i;
    }
  }
  EXPECT_EQ(failed, 0u);
  EXPECT_GT(cancelled, 0u);  // the born-expired ones that got through
  const auto stats = exec.stats();
  EXPECT_EQ(stats.resolved(), stats.submitted);
  EXPECT_EQ(ok + cancelled + shed + failed, stats.submitted);
}

TEST(ServiceStress, CancelTokenStopsALongQueryMidFlight) {
  auto store = make_store();
  service::ExecutorOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 4;
  service::QueryExecutor exec(store, opts);

  service::QueryRequest req;
  req.kind = service::QueryKind::kPageRank;
  req.graph = "rmat";
  req.tol = 0.0;  // never converges: runs until cancelled
  req.max_iterations = 1000000;
  req.cancel = grb::make_cancel_token();

  auto future = exec.submit(req);
  // Event wait, not a fixed sleep: the worker bumps stats().started the
  // moment it begins executing the query, so cancelling after observing it
  // guarantees the token interrupts a genuinely mid-flight run on any
  // machine speed.
  while (exec.stats().started == 0) std::this_thread::yield();
  req.cancel->store(true);
  const auto res = future.get();  // must resolve promptly, not spin forever
  EXPECT_EQ(res.status, service::QueryStatus::kCancelled);
}

/// The sharded-serving acceptance test: shrink every worker context's arena
/// below the graphs' CSR footprint, hand each worker a multi-context
/// placement, and the whole-graph traversals must be served through >= 2
/// row-block shards — bit-exact against the serial oracle, with the halo
/// traffic visible in the service counters. PageRank rides along to show
/// non-shardable kinds still complete (kAuto routes them to CpuPar below
/// the crossover instead of failing on the monolithic upload).
TEST(ServiceStress, OversizedGraphServedThroughShardsBitExactVsSerial) {
  // One scale up from make_store(): the arena below is sized just under the
  // smallest graph's CSR, and at scale 7 the deduplicated CSR estimate
  // leaves too little headroom for a query's dense working vectors. Scale 8
  // keeps CSR >> working set, so "smaller than every CSR" still leaves
  // room to actually run.
  auto store = std::make_shared<service::GraphStore>();
  store->add("rmat", gbtl_graph::rmat(8, 8, /*seed=*/11));
  store->add("rmat-w",
             gbtl_graph::with_random_weights(
                 gbtl_graph::rmat(8, 8, /*seed=*/13), 1.0, 8.0, /*seed=*/17));
  store->add("rmat-sym",
             gbtl_graph::remove_self_loops(gbtl_graph::symmetrize(
                 gbtl_graph::rmat(8, 6, /*seed=*/19))));
  std::size_t min_csr = ~std::size_t{0};
  for (const auto& name : store->names())
    min_csr = std::min(min_csr, store->get(name)->device_csr_bytes_estimate());

  service::ExecutorOptions opts;
  opts.workers = 2;
  opts.queue_capacity = 64;
  // 8-way fan-out keeps the largest graph's per-context slice (plus a
  // query's dense working vectors) inside an arena sized below the
  // SMALLEST graph's whole CSR — the gap between those two footprints is
  // what the shard count buys.
  opts.shard_contexts = 8;
  // Every graph's CSR overflows one arena, so no monolithic device image
  // can exist; per-shard slices still fit. The margin below min_csr is
  // deliberately thin: the pool's power-of-two size classes round every
  // buffer up, so a ~5 KB shard slice charges ~8 KB against the arena and
  // a much smaller arena would OOM on the per-query working set rather
  // than on the monolithic image this test is about.
  opts.device_properties.total_global_memory = min_csr - 512;
  // The workload cycles three graphs whose home-context shard slices
  // cannot coexist in the deliberately tiny arena: shrink the cache budget
  // so oversized entries are served build-per-query (insert_within_budget
  // skips entries larger than the budget) instead of pinning a previous
  // graph's shard in the arena while the next one uploads.
  opts.cache_memory_fraction = 0.25;
  service::QueryExecutor exec(store, opts);

  const std::size_t kQueries = 30;
  const auto workload = make_workload(kQueries);
  std::vector<service::QueryResult> serial;
  serial.reserve(kQueries);
  for (const auto& req : workload)
    serial.push_back(service::QueryExecutor::execute_serial(*store, req));

  std::vector<std::future<service::QueryResult>> futures;
  futures.reserve(kQueries);
  for (const auto& req : workload) futures.push_back(exec.submit(req));

  std::uint64_t sharded_kinds = 0;
  for (std::size_t i = 0; i < kQueries; ++i) {
    const auto got = futures[i].get();
    expect_bit_exact(got, serial[i], i);
    const auto kind = workload[i].kind;
    if (kind == service::QueryKind::kBfs ||
        kind == service::QueryKind::kSssp ||
        kind == service::QueryKind::kConnectedComponents) {
      EXPECT_EQ(got.backend, "gpushard") << "query " << i;
      ++sharded_kinds;
    } else {
      EXPECT_EQ(got.backend, "cpupar") << "query " << i;
    }
  }

  const auto stats = exec.stats();
  EXPECT_EQ(stats.ran_gpushard, sharded_kinds);
  EXPECT_GE(stats.shards_active, 2u) << "oversized graphs must fan out";
  EXPECT_GT(stats.halo_bytes_exchanged, 0u);
  EXPECT_GT(stats.halo_seconds_hidden, 0.0)
      << "halo uploads should overlap earlier shards' kernels";
}

/// The mode knobs are process-wide, and service workers read them mid-query.
/// While one worker serves on GpuSim and another on GpuShard, the main
/// thread flips every knob they read through its non-default values with
/// the guards. A knob value picks a code path, never the bits, so every
/// result must still match the serial oracle; under ThreadSanitizer a knob
/// that is not atomic fires as a race.
TEST(ServiceStress, KnobFlipsUnderQueryKeepResultsBitExact) {
  auto store = make_store();
  const std::size_t kQueries = 40;
  const auto workload = make_workload(kQueries);
  std::vector<service::QueryResult> serial;
  serial.reserve(kQueries);
  for (const auto& req : workload)
    serial.push_back(service::QueryExecutor::execute_serial(*store, req));

  service::ExecutorOptions gpu;
  gpu.workers = 1;
  gpu.queue_capacity = kQueries;
  gpu.backend_mode = service::BackendMode::kForceGpuSim;
  service::ExecutorOptions sharded = gpu;
  sharded.backend_mode = service::BackendMode::kForceGpuShard;
  sharded.shard_contexts = 2;
  service::QueryExecutor on_gpu(store, gpu);
  service::QueryExecutor on_shards(store, sharded);

  std::vector<std::future<service::QueryResult>> futures;
  futures.reserve(kQueries);
  for (std::size_t i = 0; i < kQueries; ++i)
    futures.push_back((i % 2 == 0 ? on_gpu : on_shards).submit(workload[i]));
  const auto all_done = [&] {
    return std::all_of(futures.begin(), futures.end(), [](const auto& f) {
      return f.wait_for(0s) == std::future_status::ready;
    });
  };

  constexpr sparse::SpmvMode kSpmv[] = {
      sparse::SpmvMode::ForceCsrScalar, sparse::SpmvMode::ForceCsrLoadBalanced,
      sparse::SpmvMode::ForceEll, sparse::SpmvMode::ForceHyb};
  std::size_t flips = 0;
  do {
    const bool odd = flips % 2 == 1;
    sparse::SpmvModeGuard spmv(kSpmv[flips % 4]);
    sparse::DirectionModeGuard direction(
        odd ? sparse::DirectionMode::ForcePull
            : sparse::DirectionMode::ForcePush);
    sparse::SpgemmModeGuard spgemm(odd ? sparse::SpgemmMode::Hash
                                       : sparse::SpgemmMode::Esc);
    sparse::BitModeGuard bit(odd ? sparse::BitMode::Force
                                 : sparse::BitMode::Off);
    sparse::FusionGuard fusion(odd ? sparse::FusionMode::Fuse
                                   : sparse::FusionMode::Off);
    sparse::ShardCountGuard shards(odd ? 4 : 2);
    ++flips;
    std::this_thread::yield();
  } while (!all_done());

  for (std::size_t i = 0; i < kQueries; ++i)
    expect_bit_exact(futures[i].get(), serial[i], i);
  EXPECT_EQ(on_gpu.stats().ran_gpusim, kQueries / 2);
  EXPECT_EQ(on_shards.stats().ran_gpushard, kQueries / 2);
}

// ---------------------------------------------------------------------------
// Streaming mutations: mutate-under-query + incremental warm starts
// ---------------------------------------------------------------------------

/// A symmetric add batch (both directions of each pair) — keeps the stream
/// graph valid for components / triangle count throughout the run.
gbtl_graph::EdgeList symmetric_batch(
    const std::vector<std::pair<gbtl_graph::Index, gbtl_graph::Index>>& pairs,
    gbtl_graph::Index n, double w) {
  gbtl_graph::EdgeList b;
  b.num_vertices = n;
  for (const auto& [u, v] : pairs) {
    b.src.push_back(u);
    b.dst.push_back(v);
    b.weight.push_back(w);
    b.src.push_back(v);
    b.dst.push_back(u);
    b.weight.push_back(w);
  }
  return b;
}

/// The mutate-under-query differential harness: 2 mutator threads stream
/// add/remove batches through GraphStore::apply_edges (compaction forced to
/// trigger mid-run) while 3 client threads hammer the executor with mixed
/// queries. Every completed query carries the version it ran against; its
/// payload must be BIT-EXACT against the serial oracle replayed on that
/// exact snapshot — not on whatever version is current by the time the
/// future resolves. This is the test scripts/ci.sh runs under TSan.
TEST(ServiceStress, MutateUnderQueryBitExactVsSnapshotOracle) {
  constexpr gbtl_graph::Index kN = 128;
  auto store = std::make_shared<service::GraphStore>();
  store->add("stream",
             gbtl_graph::remove_self_loops(gbtl_graph::symmetrize(
                 gbtl_graph::rmat(7, 6, /*seed=*/29))));

  // Every published snapshot by version, including the initial one, so any
  // stamped version can be replayed serially after the fact.
  std::mutex published_mutex;
  std::map<std::uint64_t, service::SnapshotPtr> published;
  published[store->get("stream")->version] = store->get("stream");

  // Aggressive policy so compaction fires while queries are in flight.
  gbtl_graph::CompactionPolicy policy;
  policy.min_overlay_nnz = 16;
  policy.max_overlay_ratio = 0.02;

  service::ExecutorOptions opts;
  opts.workers = 3;
  opts.queue_capacity = 256;
  opts.cpupar_threads = 2;
  service::QueryExecutor exec(store, opts);

  constexpr std::size_t kMutators = 2;
  constexpr std::size_t kBatchesPerMutator = 24;
  std::vector<std::thread> mutators;
  for (std::size_t m = 0; m < kMutators; ++m)
    mutators.emplace_back([&, m] {
      std::mt19937 rng(41 + static_cast<unsigned>(m));
      std::uniform_int_distribution<gbtl_graph::Index> v(0, kN - 1);
      std::vector<std::pair<gbtl_graph::Index, gbtl_graph::Index>> mine;
      for (std::size_t b = 0; b < kBatchesPerMutator; ++b) {
        std::vector<std::pair<gbtl_graph::Index, gbtl_graph::Index>> add;
        for (std::size_t e = 0; e < 1 + rng() % 3; ++e) {
          const auto u2 = v(rng), v2 = v(rng);
          if (u2 != v2) add.emplace_back(u2, v2);
        }
        std::vector<std::pair<gbtl_graph::Index, gbtl_graph::Index>> rm;
        if (!mine.empty() && rng() % 3 == 0) {
          rm.push_back(mine[rng() % mine.size()]);
        }
        const auto snap = store->apply_edges(
            "stream", symmetric_batch(add, kN, 2.0),
            symmetric_batch(rm, kN, 0.0), policy);
        ASSERT_NE(snap, nullptr);
        mine.insert(mine.end(), add.begin(), add.end());
        std::lock_guard<std::mutex> lock(published_mutex);
        published[snap->version] = snap;
      }
    });

  constexpr std::size_t kClients = 3;
  constexpr std::size_t kQueriesPerClient = 30;
  std::vector<std::vector<service::QueryRequest>> reqs(kClients);
  std::vector<std::vector<std::future<service::QueryResult>>> futs(kClients);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      for (std::size_t i = 0; i < kQueriesPerClient; ++i) {
        service::QueryRequest r;
        r.graph = "stream";
        switch ((c + i) % 4) {
          case 0:
            r.kind = service::QueryKind::kBfs;
            r.source = (i * 37) % kN;
            break;
          case 1:
            r.kind = service::QueryKind::kPageRank;
            r.max_iterations = 15;
            break;
          case 2:
            r.kind = service::QueryKind::kConnectedComponents;
            break;
          case 3:
            r.kind = service::QueryKind::kTriangleCount;
            break;
        }
        reqs[c].push_back(r);
        futs[c].push_back(exec.submit(r));
      }
    });

  for (auto& t : mutators) t.join();
  for (auto& t : clients) t.join();

  std::size_t checked = 0;
  for (std::size_t c = 0; c < kClients; ++c)
    for (std::size_t i = 0; i < futs[c].size(); ++i) {
      const auto got = futs[c][i].get();
      ASSERT_EQ(got.status, service::QueryStatus::kOk)
          << "client " << c << " query " << i << ": " << got.error;
      service::SnapshotPtr snap;
      {
        std::lock_guard<std::mutex> lock(published_mutex);
        const auto it = published.find(got.version);
        ASSERT_NE(it, published.end())
            << "client " << c << " query " << i
            << " stamped unknown version " << got.version;
        snap = it->second;
      }
      const auto want =
          service::QueryExecutor::execute_serial_on(*snap, reqs[c][i]);
      expect_bit_exact(got, want, c * 1000 + i);
      ++checked;
    }
  EXPECT_EQ(checked, kClients * kQueriesPerClient);

  const auto stats = exec.stats();
  EXPECT_EQ(stats.mutations, kMutators * kBatchesPerMutator);
  EXPECT_GT(stats.compactions, 0u)
      << "the policy was tuned to compact mid-run; it never fired";
  EXPECT_GT(stats.edges_added, 0u);
  EXPECT_EQ(stats.completed, kClients * kQueriesPerClient);
  EXPECT_EQ(stats.failed, 0u);
}

/// Incremental ConnectedComponents, deterministic serial phases: labels of
/// a warm-started solve must be BITWISE identical to the cold solve on the
/// same version (min-label propagation has a unique fixpoint). Runs once
/// forced onto CpuPar and once onto GpuSim, so both backends' overlay vxm
/// paths serve a real warm start. Also pins the result-cache replay and the
/// structural-removal cold fallback.
TEST(ServiceStress, IncrementalComponentsWarmStartBitExactVsCold) {
  for (const auto mode : {service::BackendMode::kForceCpuPar,
                          service::BackendMode::kForceGpuSim}) {
    constexpr gbtl_graph::Index kN = 128;
    auto store = std::make_shared<service::GraphStore>();
    store->add("inc",
               gbtl_graph::remove_self_loops(gbtl_graph::symmetrize(
                   gbtl_graph::rmat(7, 4, /*seed=*/31))));

    service::ExecutorOptions opts;
    opts.workers = 1;  // deterministic phase ordering
    opts.backend_mode = mode;
    opts.cpupar_threads = 2;
    service::QueryExecutor exec(store, opts);

    service::QueryRequest cc;
    cc.kind = service::QueryKind::kConnectedComponents;
    cc.graph = "inc";
    cc.incremental = true;

    // Phase 1: no lineage yet — cold fallback, bit-exact, result cached.
    const auto r1 = exec.submit(cc).get();
    ASSERT_EQ(r1.status, service::QueryStatus::kOk) << r1.error;
    EXPECT_FALSE(r1.warm_start);
    expect_bit_exact(r1, service::QueryExecutor::execute_serial(*store, cc),
                     1);
    EXPECT_EQ(exec.stats().cold_fallbacks, 1u);

    // Phase 2: small adds-only symmetric batch -> eligible warm start.
    gbtl_graph::CompactionPolicy lax;  // defaults: no compaction here
    const auto v2 = store->apply_edges(
        "inc", symmetric_batch({{3, 90}, {17, 64}}, kN, 1.0),
        gbtl_graph::EdgeList{kN, {}, {}, {}}, lax);
    ASSERT_NE(v2, nullptr);
    ASSERT_FALSE(v2->structural_removals);

    const auto r2 = exec.submit(cc).get();
    ASSERT_EQ(r2.status, service::QueryStatus::kOk) << r2.error;
    EXPECT_TRUE(r2.warm_start) << "adds-only batch should warm-start";
    EXPECT_EQ(r2.version, v2->version);
    const auto cold2 = service::QueryExecutor::execute_serial_on(*v2, cc);
    // Labels bitwise; the round count in `scalar` is the incremental
    // pass's own and is NOT part of the contract.
    EXPECT_EQ(r2.indices, cold2.indices);
    EXPECT_EQ(r2.ivals, cold2.ivals) << "warm labels differ from cold solve";
    EXPECT_GE(exec.stats().warm_starts, 1u);

    // Phase 3: same version again -> served from the result cache verbatim.
    const auto r3 = exec.submit(cc).get();
    ASSERT_EQ(r3.status, service::QueryStatus::kOk) << r3.error;
    EXPECT_EQ(r3.backend, "result-cache");
    EXPECT_EQ(r3.ivals, r2.ivals);
    EXPECT_GE(exec.stats().result_cache_hits, 1u);

    // Phase 4: a batch that REMOVES a stored edge severs monotonicity ->
    // cold fallback, still bit-exact.
    const auto v3 = store->apply_edges(
        "inc", gbtl_graph::EdgeList{kN, {}, {}, {}},
        symmetric_batch({{3, 90}}, kN, 0.0), lax);
    ASSERT_NE(v3, nullptr);
    ASSERT_TRUE(v3->structural_removals);
    const auto r4 = exec.submit(cc).get();
    ASSERT_EQ(r4.status, service::QueryStatus::kOk) << r4.error;
    EXPECT_FALSE(r4.warm_start) << "removals must force a cold solve";
    expect_bit_exact(r4, service::QueryExecutor::execute_serial_on(*v3, cc),
                     4);
  }
}

/// Incremental PageRank: trajectory-dependent, so a warm result matches a
/// cold solve only to tolerance — but it is DETERMINISTIC given its seed.
/// The executor's seed is its own cached v1 result (bit-equal to the serial
/// cold solve at v1), so a serial pagerank_warm from that seed on v2's
/// merged graph is an exact oracle: memcmp equality demanded.
TEST(ServiceStress, IncrementalPageRankWarmMatchesSerialWarmOracle) {
  constexpr gbtl_graph::Index kN = 128;
  auto store = std::make_shared<service::GraphStore>();
  store->add("pr",
             gbtl_graph::remove_self_loops(gbtl_graph::symmetrize(
                 gbtl_graph::rmat(7, 4, /*seed=*/37))));

  service::ExecutorOptions opts;
  opts.workers = 1;
  opts.backend_mode = service::BackendMode::kForceGpuSim;
  service::QueryExecutor exec(store, opts);

  service::QueryRequest pr;
  pr.kind = service::QueryKind::kPageRank;
  pr.graph = "pr";
  pr.incremental = true;
  pr.max_iterations = 40;
  pr.tol = 1e-10;

  // Phase 1: cold, bit-exact vs serial, cached as the v1 seed.
  const auto r1 = exec.submit(pr).get();
  ASSERT_EQ(r1.status, service::QueryStatus::kOk) << r1.error;
  EXPECT_FALSE(r1.warm_start);
  const auto serial1 = service::QueryExecutor::execute_serial(*store, pr);
  expect_bit_exact(r1, serial1, 1);

  // Phase 2: publish v2, query warm.
  gbtl_graph::CompactionPolicy lax;
  const auto v2 = store->apply_edges(
      "pr", symmetric_batch({{5, 99}, {40, 41}}, kN, 1.0),
      gbtl_graph::EdgeList{kN, {}, {}, {}}, lax);
  ASSERT_NE(v2, nullptr);
  const auto r2 = exec.submit(pr).get();
  ASSERT_EQ(r2.status, service::QueryStatus::kOk) << r2.error;
  EXPECT_TRUE(r2.warm_start);
  EXPECT_EQ(r2.version, v2->version);

  // Serial warm oracle: seed = serial cold ranks at v1, iterate on v2's
  // merged graph with the same knobs.
  const auto merged =
      gbtl_graph::to_matrix<double, grb::Sequential>(v2->materialize());
  grb::Vector<double, grb::Sequential> rank(kN);
  rank.build(serial1.indices, serial1.dvals);
  algorithms::pagerank_warm(merged, rank, pr.damping, pr.tol,
                            pr.max_iterations);
  grb::IndexArrayType want_idx;
  std::vector<double> want_vals;
  rank.extractTuples(want_idx, want_vals);
  ASSERT_EQ(r2.indices, want_idx);
  ASSERT_EQ(r2.dvals.size(), want_vals.size());
  EXPECT_EQ(std::memcmp(r2.dvals.data(), want_vals.data(),
                        want_vals.size() * sizeof(double)),
            0)
      << "warm PageRank must be bit-identical to the serial warm oracle";

  // And to tolerance against the cold solve on v2 (the documented limit of
  // incremental PageRank — see docs/streaming.md).
  const auto cold2 = service::QueryExecutor::execute_serial_on(*v2, pr);
  ASSERT_EQ(cold2.dvals.size(), r2.dvals.size());
  double max_diff = 0.0;
  for (std::size_t i = 0; i < r2.dvals.size(); ++i)
    max_diff = std::max(max_diff, std::fabs(r2.dvals[i] - cold2.dvals[i]));
  EXPECT_LT(max_diff, 1e-6)
      << "warm and cold PageRank diverged beyond solver tolerance";
  EXPECT_GE(exec.stats().warm_starts, 1u);
}

}  // namespace
