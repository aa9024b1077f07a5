#pragma once

/// @file dispatch.hpp
/// The one place a QueryRequest meets an algorithms:: entry point. Shared by
/// the executor's worker paths (GpuSim per-worker context, CpuPar per-worker
/// pool) and by the serial oracle path the stress tests diff against
/// (Sequential backend) — all of them run *exactly* this function, so any
/// divergence is a backend bug, not a serving-layer one.

#include <chrono>
#include <exception>
#include <utility>

#include "algorithms/bfs.hpp"
#include "algorithms/connected_components.hpp"
#include "algorithms/incremental.hpp"
#include "algorithms/pagerank.hpp"
#include "algorithms/sssp.hpp"
#include "algorithms/triangle_count.hpp"
#include "service/graph_store.hpp"
#include "service/query.hpp"
#include "service/result_cache.hpp"

namespace service {

/// Run @p body, which fills a QueryResult's payload on backend @p Tag.
/// Never throws: a cancelled or failed body comes back as a kCancelled /
/// kFailed status with its partial payload dropped. Every result, those
/// included, carries backend_traits<Tag>::name.
template <typename Tag, typename Body>
QueryResult run_on(Body&& body) {
  QueryResult res;
  try {
    body(res);
    res.status = QueryStatus::kOk;
  } catch (const grb::CancelledException& e) {
    res = QueryResult{};
    res.status = QueryStatus::kCancelled;
    res.error = e.what();
  } catch (const std::exception& e) {
    res = QueryResult{};
    res.status = QueryStatus::kFailed;
    res.error = e.what();
  }
  res.backend = grb::backend_traits<Tag>::name;
  return res;
}

/// Run @p req against an already-resident @p graph under @p policy.
/// Never throws: cancellation and algorithm failures come back as statuses.
/// Fills payload + status only — latency/worker are the caller's fields.
template <typename Tag>
QueryResult run_query_on(const grb::Matrix<double, Tag>& graph,
                         const QueryRequest& req,
                         const grb::ExecutionPolicy& policy) {
  return run_on<Tag>([&](QueryResult& res) {
    switch (req.kind) {
      case QueryKind::kBfs: {
        grb::Vector<grb::IndexType, Tag> levels(graph.nrows());
        algorithms::bfs_level(graph, req.source, levels, policy);
        levels.extractTuples(res.indices, res.ivals);
        break;
      }
      case QueryKind::kSssp: {
        grb::Vector<double, Tag> dist(graph.nrows());
        algorithms::sssp(graph, req.source, dist, policy);
        dist.extractTuples(res.indices, res.dvals);
        break;
      }
      case QueryKind::kPageRank: {
        grb::Vector<double, Tag> rank(graph.nrows());
        algorithms::pagerank(graph, rank, req.damping, req.tol,
                             req.max_iterations, policy);
        rank.extractTuples(res.indices, res.dvals);
        break;
      }
      case QueryKind::kTriangleCount: {
        res.scalar = algorithms::triangle_count_masked(graph, policy);
        break;
      }
      case QueryKind::kConnectedComponents: {
        grb::Vector<grb::IndexType, Tag> labels(graph.nrows());
        res.scalar = algorithms::connected_components(graph, labels, policy);
        labels.extractTuples(res.indices, res.ivals);
        break;
      }
      case QueryKind::kCount:
        throw grb::InvalidValueException("run_query_on: bad QueryKind");
    }
  });
}

/// Can @p req warm-start on @p snap from @p prev? The snapshot must be the
/// direct successor of the cached version (lineage intact), and per kind:
///  - ConnectedComponents: no structural removals (old labels must stay
///    upper bounds) and an affected set small enough that frontier
///    propagation beats a cold solve (<= n/4);
///  - PageRank: identical solver knobs (a different damping/tol targets a
///    different fixpoint) — trajectory-dependent, so warm results match
///    cold ones only to tolerance, never bitwise.
/// The payload must be a dense vector of the right size in both cases.
inline bool warm_start_eligible(const GraphSnapshot& snap,
                                const CachedQueryResult& prev,
                                const QueryRequest& req) {
  if (snap.prev_version == 0 || prev.version != snap.prev_version)
    return false;
  if (req.kind == QueryKind::kConnectedComponents) {
    if (snap.structural_removals) return false;
    if (snap.affected.size() > snap.num_vertices() / 4) return false;
    return prev.ivals.size() == snap.num_vertices();
  }
  if (req.kind == QueryKind::kPageRank) {
    if (prev.damping != req.damping || prev.tol != req.tol ||
        prev.max_iterations != req.max_iterations)
      return false;
    return prev.dvals.size() == snap.num_vertices();
  }
  return false;
}

/// Incremental ConnectedComponents: seed labels from the previous version's
/// cached result and propagate from the affected frontier through the
/// overlay-aware vxm. Labels are bit-identical to a cold solve on the
/// merged graph (min-label propagation has a unique fixpoint); the round
/// count in `scalar` is the incremental pass's own and WILL differ from a
/// cold solve's. @p base_matrix must be built from snap's BASE CSR.
template <typename Tag>
QueryResult run_incremental_cc(const grb::Matrix<double, Tag>& base_matrix,
                               const GraphSnapshot& snap,
                               const CachedQueryResult& prev,
                               const grb::ExecutionPolicy& policy) {
  return run_on<Tag>([&](QueryResult& res) {
    grb::Vector<grb::IndexType, Tag> labels(base_matrix.nrows());
    labels.build(prev.indices, prev.ivals);
    const gbtl_graph::DeltaOverlay empty;
    res.scalar = algorithms::connected_components_incremental(
        base_matrix, snap.overlay ? *snap.overlay : empty, snap.affected,
        labels, policy);
    labels.extractTuples(res.indices, res.ivals);
    res.warm_start = true;
  });
}

/// Warm-started PageRank: restart the power iteration from the previous
/// version's ranks on the merged @p graph. Converges to the same fixpoint
/// as a cold solve to solver tolerance — NOT bitwise (the trajectory, and
/// so the stopping iterate, differs); deterministic given the same cached
/// seed, which is what the stress suite bit-checks against a serial warm
/// oracle.
template <typename Tag>
QueryResult run_warm_pagerank(const grb::Matrix<double, Tag>& graph,
                              const CachedQueryResult& prev,
                              const QueryRequest& req,
                              const grb::ExecutionPolicy& policy) {
  return run_on<Tag>([&](QueryResult& res) {
    grb::Vector<double, Tag> rank(graph.nrows());
    rank.build(prev.indices, prev.dvals);
    algorithms::pagerank_warm(graph, rank, req.damping, req.tol,
                              req.max_iterations, policy);
    rank.extractTuples(res.indices, res.dvals);
    res.warm_start = true;
  });
}

/// Package a kOk result for the ResultCache.
inline CachedQueryResult to_cached(const QueryResult& res,
                                   std::uint64_t version,
                                   const QueryRequest& req) {
  CachedQueryResult c;
  c.version = version;
  c.damping = req.damping;
  c.tol = req.tol;
  c.max_iterations = req.max_iterations;
  c.warm_start = res.warm_start;
  c.indices = res.indices;
  c.ivals = res.ivals;
  c.dvals = res.dvals;
  c.scalar = res.scalar;
  return c;
}

}  // namespace service
