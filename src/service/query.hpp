#pragma once

/// @file query.hpp
/// Vocabulary of the graph-query serving layer: the typed queries clients
/// submit, the statuses the executor can resolve them to, and the host-side
/// result payload. Queries are *reads* against immutable graph snapshots
/// (src/service/graph_store.hpp); all of them dispatch through the
/// unchanged algorithms:: entry points — the serving layer adds deadlines,
/// admission, and placement, never algorithm math.

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "gbtl/execution_policy.hpp"
#include "gbtl/types.hpp"

namespace service {

enum class QueryKind : unsigned {
  kBfs = 0,              ///< bfs_level from `source`
  kSssp,                 ///< Bellman-Ford distances from `source`
  kPageRank,             ///< pagerank(damping, tol, max_iterations)
  kTriangleCount,        ///< masked Sandia count (needs a symmetric graph)
  kConnectedComponents,  ///< min-label propagation (needs a symmetric graph)
  kCount
};

inline constexpr std::size_t kQueryKindCount =
    static_cast<std::size_t>(QueryKind::kCount);

inline const char* to_string(QueryKind k) {
  switch (k) {
    case QueryKind::kBfs: return "bfs";
    case QueryKind::kSssp: return "sssp";
    case QueryKind::kPageRank: return "pagerank";
    case QueryKind::kTriangleCount: return "triangle-count";
    case QueryKind::kConnectedComponents: return "components";
    case QueryKind::kCount: break;
  }
  return "unknown";
}

/// One query as submitted by a client. The deadline is relative (`timeout`
/// from the moment of admission) so queued time counts against it — a query
/// that ages out while waiting is cancelled without running.
struct QueryRequest {
  QueryKind kind = QueryKind::kBfs;
  std::string graph;  ///< GraphStore name

  grb::IndexType source = 0;  ///< BFS / SSSP start vertex

  // PageRank knobs (ignored by other kinds).
  double damping = 0.85;
  double tol = 1e-8;
  grb::IndexType max_iterations = 100;

  /// Wall-clock budget measured from admission; unset means unlimited.
  std::optional<std::chrono::milliseconds> timeout;
  /// Optional caller-held cooperative cancel (grb::make_cancel_token()).
  grb::CancelToken cancel;

  /// Opt into incremental recompute (PageRank / ConnectedComponents only):
  /// the executor caches this query's result per version and warm-starts
  /// the next one from it when the snapshot lineage allows, falling back
  /// to a cold solve otherwise (docs/streaming.md).
  bool incremental = false;
};

enum class QueryStatus : unsigned {
  kOk = 0,     ///< completed; payload is valid
  kCancelled,  ///< deadline passed or token set (at a checkpoint or in queue)
  kShed,       ///< refused at admission: submission queue was full
  kFailed,     ///< the algorithm threw; `error` holds the message
  kCount
};

inline const char* to_string(QueryStatus s) {
  switch (s) {
    case QueryStatus::kOk: return "ok";
    case QueryStatus::kCancelled: return "cancelled";
    case QueryStatus::kShed: return "shed";
    case QueryStatus::kFailed: return "failed";
    case QueryStatus::kCount: break;
  }
  return "unknown";
}

/// Host-side result. Sparse vector payloads arrive as parallel arrays
/// (`indices` plus `ivals` or `dvals`, per kind); scalar results land in
/// `scalar`. Payloads of non-kOk results are empty.
///
/// Bit-exactness contract: for a kOk result, the payload is byte-identical
/// to running the same request serially (and, per the backend equivalence
/// guarantee, to the sequential backend) — the stress suite enforces this.
struct QueryResult {
  QueryStatus status = QueryStatus::kFailed;

  grb::IndexArrayType indices;            ///< stored positions, ascending
  std::vector<grb::IndexType> ivals;      ///< BFS levels / CC labels
  std::vector<double> dvals;              ///< SSSP distances / PageRank
  std::uint64_t scalar = 0;               ///< triangle count

  std::string error;                      ///< kFailed / kCancelled detail
  std::chrono::microseconds latency{0};   ///< admission -> resolution
  std::size_t worker = 0;                 ///< executing worker index
  /// GraphStore version of the snapshot this query ran against (0 when it
  /// never reached one) — the key for replaying the query against its
  /// exact graph state under concurrent mutation.
  std::uint64_t version = 0;
  /// True when the result came from an incremental warm start rather than
  /// a cold solve.
  bool warm_start = false;
  /// Name of the backend that ran the query: "sequential", "cpupar",
  /// "gpusim" or "gpushard" (backend_traits<Tag>::name), or "result-cache"
  /// when the executor served it from the cache; empty when the query never
  /// reached a backend (shed, or cancelled while queued).
  std::string backend;
};

}  // namespace service
