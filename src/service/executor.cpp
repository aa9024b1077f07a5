#include "service/executor.hpp"

#include <utility>

#include <algorithm>

#include "backend_cpupar/pool.hpp"
#include "gpu_sim/placement.hpp"
#include "gpu_sim/thread_pool.hpp"
#include "service/dispatch.hpp"
#include "sparse/fusion_plan.hpp"

namespace service {

using Clock = std::chrono::steady_clock;

QueryExecutor::QueryExecutor(std::shared_ptr<GraphStore> store,
                             ExecutorOptions options)
    : store_(std::move(store)),
      options_(options),
      queue_(options.queue_capacity) {
  workers_.reserve(options_.workers);
  for (std::size_t w = 0; w < options_.workers; ++w)
    workers_.emplace_back([this, w] { worker_main(w); });
}

QueryExecutor::~QueryExecutor() { shutdown(/*cancel_pending=*/false); }

std::future<QueryResult> QueryExecutor::submit(QueryRequest req) {
  Job job;
  job.request = std::move(req);
  job.admitted = Clock::now();
  if (job.request.timeout)
    job.deadline = job.admitted + *job.request.timeout;
  std::future<QueryResult> future = job.promise.get_future();

  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.submitted;
  }

  if (!queue_.try_push(std::move(job))) {
    // Queue full (or shut down): shed at admission. try_push left the job
    // intact on failure, so its promise still backs `future`.
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.shed;
    }
    QueryResult res;
    res.status = QueryStatus::kShed;
    res.error = "admission queue full";
    job.promise.set_value(std::move(res));
  }
  return future;
}

void QueryExecutor::shutdown(bool cancel_pending) {
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  queue_.close();
  if (cancel_pending) {
    // Race the workers for the remaining items; both sides pop safely.
    while (auto job = queue_.pop()) {
      QueryResult res;
      res.status = QueryStatus::kCancelled;
      res.error = "executor shut down before the query ran";
      resolve(*job, std::move(res));
    }
  }
  for (auto& t : workers_)
    if (t.joinable()) t.join();
  workers_.clear();
}

ServiceStats QueryExecutor::stats() const {
  ServiceStats snapshot;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    snapshot = stats_;
  }
  // The store owns the mutation-side counters; merge them in here so one
  // snapshot answers both "what did the workers do" and "what happened to
  // the graphs they did it to". Taken outside stats_mutex_ — the store has
  // its own lock and nesting the two would order them needlessly.
  const StoreStats store = store_->stats();
  snapshot.mutations = store.mutations;
  snapshot.compactions = store.compactions;
  snapshot.edges_added = store.edges_added;
  snapshot.edges_removed = store.edges_removed;
  // The result cache counts its own evictions (it owns the LRU policy);
  // merged here for the same one-snapshot reason.
  snapshot.result_cache_evictions = result_cache_.evictions();
  return snapshot;
}

void QueryExecutor::resolve(Job& job, QueryResult res) {
  res.latency = std::chrono::duration_cast<std::chrono::microseconds>(
      Clock::now() - job.admitted);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    switch (res.status) {
      case QueryStatus::kOk: ++stats_.completed; break;
      case QueryStatus::kCancelled: ++stats_.cancelled; break;
      case QueryStatus::kFailed: ++stats_.failed; break;
      case QueryStatus::kShed:  // shed is counted at submit()
      case QueryStatus::kCount: break;
    }
    stats_.latency.record(res.latency);
  }
  job.promise.set_value(std::move(res));
}

void QueryExecutor::worker_main(std::size_t worker_index) {
  // This worker's private simulated GPU. Thread-locally installed, so the
  // backend objects the queries build all land in this context — concurrent
  // queries never contend on (or corrupt) a shared device.
  gpu_sim::Context ctx{options_.device_properties, /*worker_count=*/1};
  gpu_sim::ScopedDevice bind(ctx);

  // The worker's shard placement: its home context plus shard_contexts-1
  // private extras, all with the same properties. Sharded matrices built by
  // this worker pin their row blocks round-robin over this list; with
  // shard_contexts == 1 the placement degenerates to {&ctx} and GpuShard
  // runs single-shard.
  std::vector<std::unique_ptr<gpu_sim::Context>> extra_ctxs;
  std::vector<gpu_sim::Context*> placement{&ctx};
  for (std::size_t s = 1; s < options_.shard_contexts; ++s) {
    extra_ctxs.push_back(std::make_unique<gpu_sim::Context>(
        options_.device_properties, /*worker_count=*/1));
    placement.push_back(extra_ctxs.back().get());
  }
  gpu_sim::ScopedPlacement bind_placement(placement);

  const auto budget = static_cast<std::size_t>(
      options_.cache_memory_fraction *
      static_cast<double>(ctx.properties().total_global_memory));
  DeviceGraphCache cache(ctx, budget);

  // This worker's private CpuPar pool + host matrix cache, the CPU-side
  // analogue of the context/cache pair above. ScopedPool is the thread-pool
  // ScopedDevice: any CpuPar op this worker runs lands on this pool.
  const std::size_t cpu_threads =
      options_.cpupar_threads != 0
          ? options_.cpupar_threads
          : grb::cpupar_backend::default_worker_count();
  gpu_sim::ThreadPool cpu_pool{cpu_threads};
  grb::cpupar_backend::ScopedPool bind_pool(cpu_pool);
  HostGraphCache host_cache;

  // Last store mutation epoch this worker swept its device cache at. The
  // sweep (invalidate_retired) drops entries whose version/generation is no
  // longer any graph's current one — LRU aging alone would keep a retired
  // version resident (and billed against the budget) for as long as queries
  // keep the cache warm.
  std::uint64_t last_epoch = store_->mutation_epoch();

  while (auto job = queue_.pop()) {
    const std::uint64_t epoch = store_->mutation_epoch();
    if (epoch != last_epoch) {
      const std::size_t dropped = cache.invalidate_retired(*store_);
      last_epoch = epoch;
      if (dropped != 0) {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        stats_.cache_invalidations += dropped;
      }
    }

    QueryResult res;
    res.worker = worker_index;

    grb::ExecutionPolicy policy;
    if (job->deadline) policy.set_deadline(*job->deadline);
    if (job->request.cancel) policy.set_cancel_token(job->request.cancel);

    if (policy.expired() || policy.cancelled()) {
      // Aged out while queued (or the caller already gave up): resolve
      // without touching the store or the device.
      res.status = QueryStatus::kCancelled;
      res.error = policy.cancelled() ? "cancelled while queued"
                                     : "deadline passed while queued";
      resolve(*job, std::move(res));
      continue;
    }

    const SnapshotPtr snap = store_->get(job->request.graph);
    if (snap == nullptr) {
      res.status = QueryStatus::kFailed;
      res.error = "unknown graph: " + job->request.graph;
      resolve(*job, std::move(res));
      continue;
    }

    // Sharded routing: forced, or — under kAuto with a multi-context
    // placement — a whole-graph query whose CSR exceeds this worker's
    // arena. Triangle counting delegates matrix-wide ops through a
    // monolithic view, which is exactly what oversized graphs cannot
    // build. PageRank uses only mxv/vxm and vector ops, so it could shard,
    // but no workload needs it there yet; kAuto keeps it off this route.
    const bool shardable_kind =
        job->request.kind == QueryKind::kBfs ||
        job->request.kind == QueryKind::kSssp ||
        job->request.kind == QueryKind::kConnectedComponents;
    const bool use_gpushard =
        options_.backend_mode == BackendMode::kForceGpuShard ||
        (options_.backend_mode == BackendMode::kAuto &&
         options_.shard_contexts > 1 && shardable_kind &&
         snap->device_csr_bytes_estimate() >
             ctx.properties().total_global_memory);
    const bool use_cpupar =
        !use_gpushard &&
        (options_.backend_mode == BackendMode::kForceCpuPar ||
         (options_.backend_mode == BackendMode::kAuto &&
          snap->num_edges() < options_.crossover_nnz));
    {
      // The query is now mid-flight: it passed the queued-expiry checks and
      // is about to run. Tests event-wait on this counter.
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.started;
    }
    try {
      const std::size_t worker = res.worker;
      // Incremental recompute applies to the two iterative kinds only, and
      // never on the sharded path (GpuShard has no overlay kernels — an
      // oversized graph always solves cold).
      const bool incremental_kind =
          job->request.kind == QueryKind::kPageRank ||
          job->request.kind == QueryKind::kConnectedComponents;
      std::optional<CachedQueryResult> prev;
      if (job->request.incremental && incremental_kind && !use_gpushard)
        prev = result_cache_.get(job->request.graph, job->request.kind);

      const bool replay =
          prev && prev->version == snap->version &&
          (job->request.kind != QueryKind::kPageRank ||
           (prev->damping == job->request.damping &&
            prev->tol == job->request.tol &&
            prev->max_iterations == job->request.max_iterations));
      const bool warm =
          !replay && prev && warm_start_eligible(*snap, *prev, job->request);

      if (replay) {
        // Exact-version hit: the cached payload IS this snapshot's answer.
        // No backend runs; warm_start carries over so verifiers know which
        // oracle (cold or warm) the replayed bits came from.
        res.status = QueryStatus::kOk;
        res.indices = prev->indices;
        res.ivals = prev->ivals;
        res.dvals = prev->dvals;
        res.scalar = prev->scalar;
        res.warm_start = prev->warm_start;
        res.backend = "result-cache";
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.result_cache_hits;
      } else if (warm) {
        if (job->request.kind == QueryKind::kConnectedComponents) {
          // Overlay-aware: needs the BASE matrix (keyed by generation, so
          // successive versions on one base share a single upload) plus the
          // snapshot's delta overlay, streamed in by the overlay ops.
          if (use_cpupar) {
            const HostMatrixPtr base = host_cache.get_or_build_base(snap);
            res = run_incremental_cc<grb::CpuPar>(*base, *snap, *prev,
                                                  policy);
          } else {
            const DeviceMatrixPtr base = cache.get_or_upload_base(snap);
            res = run_incremental_cc<grb::GpuSim>(*base, *snap, *prev,
                                                  policy);
          }
        } else {
          // Warm PageRank iterates the full merged operator — only the
          // starting iterate changes, so it uses the merged matrix.
          if (use_cpupar) {
            const HostMatrixPtr graph = host_cache.get_or_build(snap);
            res = run_warm_pagerank<grb::CpuPar>(*graph, *prev,
                                                 job->request, policy);
          } else {
            const DeviceMatrixPtr graph = cache.get_or_upload(snap);
            res = run_warm_pagerank<grb::GpuSim>(*graph, *prev,
                                                 job->request, policy);
          }
        }
        std::lock_guard<std::mutex> lock(stats_mutex_);
        if (use_cpupar)
          ++stats_.ran_cpupar;
        else
          ++stats_.ran_gpusim;
        if (res.status == QueryStatus::kOk) ++stats_.warm_starts;
      } else {
        if (use_gpushard) {
          const auto before = ctx.stats();
          const ShardedMatrixPtr graph = cache.get_or_upload_sharded(snap);
          res = run_query_on<grb::GpuShard>(*graph, job->request, policy);
          const auto delta = ctx.stats() - before;
          std::lock_guard<std::mutex> lock(stats_mutex_);
          stats_.shards_active =
              std::max(stats_.shards_active, delta.shards_active);
          stats_.halo_bytes_exchanged += delta.halo_bytes_exchanged;
          stats_.halo_seconds_hidden += delta.halo_seconds_hidden;
        } else if (use_cpupar) {
          const HostMatrixPtr graph = host_cache.get_or_build(snap);
          res = run_query_on<grb::CpuPar>(*graph, job->request, policy);
        } else {
          const DeviceMatrixPtr graph = cache.get_or_upload(snap);
          res = run_query_on<grb::GpuSim>(*graph, job->request, policy);
        }
        std::lock_guard<std::mutex> lock(stats_mutex_);
        if (use_gpushard)
          ++stats_.ran_gpushard;
        else if (use_cpupar)
          ++stats_.ran_cpupar;
        else
          ++stats_.ran_gpusim;
        // Incremental was requested but lineage / eligibility said no —
        // count the cold solve so tests (and operators) can see fallbacks.
        if (job->request.incremental && incremental_kind)
          ++stats_.cold_fallbacks;
      }
      res.worker = worker;
      if (job->request.incremental && incremental_kind &&
          res.status == QueryStatus::kOk)
        result_cache_.put(job->request.graph, job->request.kind,
                          to_cached(res, snap->version, job->request));
    } catch (const std::exception& e) {
      res.status = QueryStatus::kFailed;
      res.error = e.what();
    }
    res.version = snap->version;
    // Backend boundary: end this worker's composite-launch chains and align
    // every context of its placement before the result is published, so no
    // chain or in-flight shard transfer carries into the next query.
    sparse::fusion_sync_all();
    gpu_sim::sync_placement();
    resolve(*job, std::move(res));
  }
}

QueryResult QueryExecutor::execute_serial(const GraphStore& store,
                                          const QueryRequest& req) {
  const SnapshotPtr snap = store.get(req.graph);
  if (snap == nullptr) {
    QueryResult res;
    res.status = QueryStatus::kFailed;
    res.error = "unknown graph: " + req.graph;
    return res;
  }
  return execute_serial_on(*snap, req);
}

QueryResult QueryExecutor::execute_serial_on(const GraphSnapshot& snap,
                                             const QueryRequest& req) {
  // The oracle always solves the MERGED graph monolithically — overlay and
  // base folded back into one CSR — which is exactly what the overlay-aware
  // paths must be bit-identical to.
  const auto graph =
      gbtl_graph::to_matrix<double, grb::Sequential>(snap.materialize());
  // run_query_on stamps res.backend = "sequential".
  QueryResult res =
      run_query_on<grb::Sequential>(graph, req, grb::ExecutionPolicy{});
  res.version = snap.version;
  return res;
}

}  // namespace service
