/// The two serving workloads. Both drive service::QueryExecutor from one
/// client thread in a closed loop (a fixed number of requests outstanding),
/// time every request from submit() until the client sees its result, and
/// check every kOk result against QueryExecutor::execute_serial_on of the
/// snapshot its version stamps.
///
///  - serve-mixed: three static graphs sized to land on the CpuPar, GpuSim
///    and GpuShard routes; a seeded mix of all five query kinds.
///  - serve-mutate: one graph on the GpuSim route; the client publishes a
///    seeded apply_edges batch after every k-th submission while BFS and
///    incremental PageRank / components queries run.

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <thread>
#include <tuple>

#include "backend_cpupar/pool.hpp"
#include "common.hpp"
#include "device_meter.hpp"
#include "gpu_sim/placement.hpp"
#include "graph/graph_matrix.hpp"
#include "service/dispatch.hpp"
#include "service/executor.hpp"
#include "service/graph_store.hpp"
#include "sparse/fusion_plan.hpp"

namespace perfbench {

namespace {

using service::QueryKind;
using service::QueryRequest;
using service::QueryResult;
using service::QueryStatus;

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kCpuparThreads = 1;
constexpr std::size_t kOutstanding = 4;
constexpr std::size_t kMinQueries = 1000;
constexpr std::size_t kSourcesPerGraph = 8;
constexpr std::size_t kProbePasses = 4;
constexpr double kProbeSeconds = 1.5;  ///< per phase, before and after serving
constexpr std::size_t kCheckThreads = 3;
constexpr double kDamping = 0.85;
constexpr double kPageRankTol = 1e-4;
constexpr grb::IndexType kPageRankIterations = 100;
constexpr grb::IndexType kProbePageRankIterations = 20;

const char* algorithm_name(QueryKind k) {
  switch (k) {
    case QueryKind::kBfs: return "bfs";
    case QueryKind::kSssp: return "sssp";
    case QueryKind::kPageRank: return "pagerank";
    case QueryKind::kTriangleCount: return "tc";
    case QueryKind::kConnectedComponents: return "cc";
    case QueryKind::kCount: break;
  }
  return "unknown";
}

QueryRequest make_request(const std::string& graph, QueryKind kind,
                          grb::IndexType source, bool incremental) {
  QueryRequest r;
  r.graph = graph;
  r.kind = kind;
  r.source = source;
  r.damping = kDamping;
  r.tol = kPageRankTol;
  r.max_iterations = kPageRankIterations;
  r.incremental = incremental;
  return r;
}

/// FNV-1a over the 64-bit words of a result's payload arrays (not its
/// scalar); doubles enter by their bits.
std::uint64_t payload_digest(const QueryResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&](std::uint64_t word) { h = (h ^ word) * 0x100000001b3ull; };
  for (const std::size_t n : {r.indices.size(), r.ivals.size(), r.dvals.size()})
    mix(n);
  for (const grb::IndexType v : r.indices) mix(v);
  for (const grb::IndexType v : r.ivals) mix(v);
  for (const double v : r.dvals) mix(std::bit_cast<std::uint64_t>(v));
  return h;
}

/// Only warm-started PageRank is checked value by value (to tolerance);
/// every other result is checked bit for bit through its digest.
bool keeps_payload(const QueryRequest& req, const QueryResult& res) {
  return res.warm_start && req.kind == QueryKind::kPageRank;
}

/// One request as the client saw it. The payload is reduced to its digest
/// on arrival, so thousands of results fit in little memory.
struct Request {
  QueryRequest req;
  Clock::time_point submitted;
  double latency_ms = 0.0;  ///< submit() -> result observed by the client
  QueryResult res;
  std::uint64_t digest = 0;
};

/// Closed loop from one client thread: keep @p outstanding requests in
/// flight, submit `next(i)` while `more(i)` holds, call `after(i)` after the
/// i-th submission. Completion is observed by polling the futures, so a
/// result is timestamped when it is ready, not when the oldest one is. The
/// client spins (yielding) rather than sleeping between polls: on a VM a
/// sleeping core halts, and waking it again costs a delay that grows with
/// the host's load.
template <typename Next, typename More, typename After>
std::vector<Request> closed_loop(service::QueryExecutor& exec,
                                 std::size_t outstanding, Next&& next,
                                 More&& more, After&& after) {
  std::vector<Request> done;
  std::vector<std::pair<std::size_t, std::future<QueryResult>>> flight;
  Tracer& tracer = Tracer::get();
  for (std::size_t i = 0;;) {
    while (flight.size() < outstanding && more(i)) {
      Request r;
      r.req = next(i);
      r.submitted = Clock::now();
      flight.emplace_back(done.size(), exec.submit(r.req));
      done.push_back(std::move(r));
      after(i);
      ++i;
    }
    if (flight.empty()) break;
    bool any = false;
    for (auto it = flight.begin(); it != flight.end();) {
      if (it->second.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++it;
        continue;
      }
      const double end = tracer.now_s();
      const auto now = Clock::now();
      Request& r = done[it->first];
      r.res = it->second.get();
      r.latency_ms = seconds_between(r.submitted, now) * 1e3;
      r.digest = payload_digest(r.res);
      if (!keeps_payload(r.req, r.res)) {
        r.res.indices = {};
        r.res.ivals = {};
        r.res.dvals = {};
      }
      tracer.record("service.query", end - r.latency_ms / 1e3, end, it->first);
      it = flight.erase(it);
      any = true;
    }
    if (!any) std::this_thread::yield();
  }
  return done;
}

/// Why @p got differs from the serial oracle @p want; empty when it does
/// not. Warm-started PageRank is checked to solver tolerance: both iterates
/// stopped with an L1 step under tol, so each lies within d/(1-d)*tol of
/// the fixpoint (docs/streaming.md).
std::string mismatch(const Request& got, const QueryResult& want) {
  const QueryRequest& req = got.req;
  if (want.status != QueryStatus::kOk) return "oracle failed: " + want.error;
  if (keeps_payload(req, got.res)) {
    if (got.res.indices != want.indices ||
        got.res.dvals.size() != want.dvals.size())
      return "warm PageRank has a different pattern";
    double l1 = 0.0;
    for (std::size_t i = 0; i < want.dvals.size(); ++i)
      l1 += std::fabs(got.res.dvals[i] - want.dvals[i]);
    const double bound = 2.0 * req.damping / (1.0 - req.damping) * req.tol;
    if (!(l1 <= bound))
      return "warm PageRank off by L1 " + std::to_string(l1) + " > " +
             std::to_string(bound);
    return {};
  }
  if (got.digest != payload_digest(want)) return "payload differs bitwise";
  // A warm CC result's scalar is its own round count, not part of the
  // contract.
  if (!(got.res.warm_start && req.kind == QueryKind::kConnectedComponents) &&
      got.res.scalar != want.scalar)
    return "scalar differs";
  return {};
}

/// Check every request against the serial oracle on the snapshot its result
/// stamps, one oracle run per distinct (version, kind, source), on a few
/// threads after the executor has stopped.
using Versions =
    std::map<std::pair<std::string, std::uint64_t>, service::SnapshotPtr>;

void check_results(const std::vector<Request>& requests,
                   const Versions& versions, Report& report) {
  using Key = std::tuple<std::string, std::uint64_t, unsigned, grb::IndexType>;
  auto key_of = [](const Request& r) {
    const bool sourced =
        r.req.kind == QueryKind::kBfs || r.req.kind == QueryKind::kSssp;
    return Key{r.req.graph, r.res.version, static_cast<unsigned>(r.req.kind),
               sourced ? r.req.source : 0};
  };
  std::map<Key, QueryResult> oracle;
  std::vector<std::pair<Key, const Request*>> todo;
  for (const Request& r : requests) {
    ++report.attempted;
    if (r.res.status != QueryStatus::kOk) {
      report.problem(std::string("query ") + service::to_string(r.req.kind) +
                     " on " + r.req.graph + " resolved " +
                     service::to_string(r.res.status) + ": " + r.res.error);
      continue;
    }
    if (versions.count({r.req.graph, r.res.version}) == 0) {
      report.problem("result stamped with unknown version " +
                     std::to_string(r.res.version));
      continue;
    }
    const Key key = key_of(r);
    if (oracle.emplace(key, QueryResult{}).second) todo.emplace_back(key, &r);
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kCheckThreads; ++t)
    threads.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < todo.size();) {
        QueryRequest req = todo[i].second->req;
        req.incremental = false;  // the oracle is always a cold solve
        const Key& key = todo[i].first;
        oracle.at(key) = service::QueryExecutor::execute_serial_on(
            *versions.at({std::get<0>(key), std::get<1>(key)}), req);
      }
    });
  for (auto& t : threads) t.join();

  for (const Request& r : requests) {
    if (r.res.status != QueryStatus::kOk ||
        versions.count({r.req.graph, r.res.version}) == 0)
      continue;
    const std::string why = mismatch(r, oracle.at(key_of(r)));
    if (!why.empty())
      report.problem(std::string("query ") + service::to_string(r.req.kind) +
                     " on " + r.req.graph + " version " +
                     std::to_string(r.res.version) + " via " + r.res.backend +
                     ": " + why);
  }
}

/// The serving path's simulated-device job: on a fresh context with the
/// workers' device properties, upload the GpuSim route's graph and run one
/// request of each kind through service::run_query_on<GpuSim>. Passes run
/// in two phases, before and after the serving window, so the host-time
/// median spans the run rather than one stretch of it. sim_s, host_s and
/// device_peak_mb come from it, and under --trace 1 the gpu_sim / sparse /
/// algorithms layers and each kind's sim_ms. Host times are relative to
/// speed readings taken after every call.
class DeviceProbe {
 public:
  DeviceProbe(service::SnapshotPtr snap, std::vector<QueryRequest> reqs,
              const gpu_sim::DeviceProperties& props, bool trace,
              Report& report)
      : snap_(std::move(snap)),
        reqs_(std::move(reqs)),
        props_(props),
        trace_(trace),
        report_(report) {}

  /// Run passes for at least kProbePasses and @p seconds.
  void run_for(double seconds) {
    const auto start = Clock::now();
    for (std::size_t n = 0;
         n < kProbePasses || seconds_between(start, Clock::now()) < seconds;
         ++n)
      pass();
    Tracer::get().enable(trace_);
  }

  void report() const;

 private:
  void pass();

  const service::SnapshotPtr snap_;
  const std::vector<QueryRequest> reqs_;
  const gpu_sim::DeviceProperties props_;
  const bool trace_;
  Report& report_;
  LocalSpeed speed_;
  std::vector<double> raw_hosts_, hosts_, traced_hosts_, untraced_hosts_;
  double sim_ = 0.0;
  gpu_sim::DeviceStats stats_;
  std::vector<CallPart> parts_;
};

void DeviceProbe::pass() {
  const std::uint64_t index = hosts_.size();
  // Under --trace 1 every other pass is traced, for the tracing overhead.
  const bool traced = trace_ && index % 2 == 0;
  Tracer::get().enable(traced);
  gpu_sim::Context ctx{props_};
  gpu_sim::ScopedDevice bind(ctx);
  DeviceMeter meter(ctx, index, speed_);
  ScopedSpan span("probe", index);
  {
    std::unique_ptr<grb::Matrix<double, grb::GpuSim>> graph;
    meter.call("graph.to_matrix", [&] {
      graph = std::make_unique<grb::Matrix<double, grb::GpuSim>>(
          gbtl_graph::to_matrix<double, grb::GpuSim>(snap_->materialize()));
    });
    for (const QueryRequest& req : reqs_)
      meter.call(std::string("algorithms.") + algorithm_name(req.kind), [&] {
        const QueryResult res = service::run_query_on<grb::GpuSim>(
            *graph, req, grb::ExecutionPolicy{});
        if (res.status != QueryStatus::kOk)
          report_.problem(std::string("device probe ") +
                          service::to_string(req.kind) + ": " + res.error);
      });
  }
  const auto [raw, scaled] = meter.host_s();
  raw_hosts_.push_back(raw);
  hosts_.push_back(scaled);
  (traced ? traced_hosts_ : untraced_hosts_).push_back(scaled);
  const double makespan = ctx.makespan_s();
  if (index == 0) {
    sim_ = makespan;
    stats_ = ctx.stats();
    parts_ = meter.parts();
  }
  report_.check(makespan == sim_, "probe simulated time repeats exactly");
  span.set_sim(makespan);
}

void DeviceProbe::report() const {
  report_.set("sim_s", sim_, "s");
  report_.wall("host_s", median(hosts_), median(raw_hosts_), "s");
  report_.set("device_peak_mb",
              static_cast<double>(stats_.peak_bytes_in_use) / 1e6, "MB");
  double parts_sim = 0.0;
  for (const CallPart& p : parts_) parts_sim += p.sim_s;
  report_.check(std::abs(parts_sim - sim_) <= 1e-12 * sim_,
                "probe per-call simulated seconds sum to sim_s");
  const double modeled = stats_.simulated_kernel_time_s +
                         stats_.simulated_transfer_time_s -
                         stats_.overlap_seconds_hidden;
  report_.check(std::abs(modeled - sim_) <= 1e-12 * sim_,
                "probe kernel + transfer - hidden overlap equals sim_s");
  if (!trace_) return;
  report_.set("trace.overhead_s",
              median(traced_hosts_) - median(untraced_hosts_), "s");
  report_device_layers(stats_, median(hosts_), report_);
  for (const CallPart& p : parts_) {
    report_.set(p.name + ".host_s", p.host_s, "s");
    report_.set(p.name + ".sim_s", p.sim_s, "s");
  }
  for (std::size_t i = 0; i < reqs_.size(); ++i)  // parts_[0] is the upload
    report_.set(std::string("service.") + service::to_string(reqs_[i].kind) +
                    ".sim_ms",
                parts_[i + 1].sim_s * 1e3, "ms");
}

/// The device job's requests: one of each of @p kinds; traversals start at
/// the highest-degree vertex of @p g, whose eccentricity varies least
/// between graphs of one size, and PageRank runs a fixed number of
/// iterations (tol 0), so the job's work varies little between seeds.
std::vector<QueryRequest> probe_requests(const std::string& graph,
                                         std::initializer_list<QueryKind> kinds,
                                         const gbtl_graph::EdgeList& g) {
  const auto degree = gbtl_graph::out_degrees(g);
  const auto hub = static_cast<grb::IndexType>(
      std::max_element(degree.begin(), degree.end()) - degree.begin());
  std::vector<QueryRequest> reqs;
  for (QueryKind k : kinds) {
    reqs.push_back(make_request(graph, k, hub, false));
    if (k == QueryKind::kPageRank) {
      reqs.back().tol = 0.0;
      reqs.back().max_iterations = kProbePageRankIterations;
    }
  }
  return reqs;
}

/// Client-side latency metrics over every request, relative to the
/// window's speed reference @p slowdown, plus the per-route and per-kind
/// breakdowns the traced run reports.
void report_latency(const std::vector<Request>& requests, double window_s,
                    double slowdown, bool trace, Report& report) {
  std::vector<double> all;
  std::map<std::string, std::vector<double>> by_route, by_kind;
  std::uint64_t ok = 0;
  for (const Request& r : requests) {
    all.push_back(r.latency_ms);
    if (r.res.status == QueryStatus::kOk) ++ok;
    by_route[r.res.backend].push_back(r.latency_ms);
    by_kind[service::to_string(r.req.kind)].push_back(r.latency_ms);
  }
  const double qps = static_cast<double>(ok) / window_s;
  const double p50 = quantile(all, 0.50), p99 = quantile(all, 0.99);
  report.wall("qps", qps * slowdown, qps, "1/s");
  report.wall("p50_ms", p50 / slowdown, p50, "ms");
  report.wall("p99_ms", p99 / slowdown, p99, "ms");
  report.note("queries", static_cast<double>(requests.size()));
  report.note("window_s", window_s);
  report.note("reference_slowdown", slowdown);
  if (!trace) return;
  for (const auto& [route, lat] : by_route) {
    report.set("service." + route + ".queries",
               static_cast<double>(lat.size()), "count");
    report.set("service." + route + ".p50_ms", median(lat), "ms");
  }
  for (const auto& [kind, lat] : by_kind)
    report.set("service." + kind + ".p50_ms", median(lat), "ms");
}

/// Counters every serving run reports, and the executor's own sum check.
void report_service_stats(const service::ServiceStats& st, bool trace,
                          Report& report) {
  report.check(st.submitted ==
                   st.completed + st.cancelled + st.shed + st.failed,
               "submitted = completed + cancelled + shed + failed");
  report.note("ran_cpupar", static_cast<double>(st.ran_cpupar));
  report.note("ran_gpusim", static_cast<double>(st.ran_gpusim));
  report.note("ran_gpushard", static_cast<double>(st.ran_gpushard));
  if (!trace) return;
  report.set("service.halo_bytes",
             static_cast<double>(st.halo_bytes_exchanged), "B");
  report.set("service.halo_hidden_s", st.halo_seconds_hidden, "s");
  report.set("service.cache_invalidations",
             static_cast<double>(st.cache_invalidations), "count");
}

void note_executor(const service::ExecutorOptions& o, Report& report) {
  report.note("workers", static_cast<double>(o.workers));
  report.note("cpupar_threads", static_cast<double>(o.cpupar_threads));
  report.note("shard_contexts", static_cast<double>(o.shard_contexts));
  report.note("arena_bytes",
              static_cast<double>(o.device_properties.total_global_memory));
  report.note("cache_memory_fraction", o.cache_memory_fraction);
  report.note("crossover_nnz", static_cast<double>(o.crossover_nnz));
  report.note("backend_mode", service::to_string(o.backend_mode));
  report.note("outstanding", static_cast<double>(kOutstanding));
}

/// Replay @p reqs on a bench-owned backend of the worker's width against a
/// resident matrix: one untimed warm-up, then one timed replay per request.
/// Returns host seconds per request index.
template <typename Tag>
std::vector<double> replay(const grb::Matrix<double, Tag>& graph,
                           const std::vector<const Request*>& reqs) {
  std::vector<double> out;
  if (reqs.empty()) return out;
  service::run_query_on<Tag>(graph, reqs.front()->req, {});
  Tracer& tracer = Tracer::get();
  for (const Request* r : reqs) {
    const double s0 = tracer.now_s();
    const auto t0 = Clock::now();
    service::run_query_on<Tag>(graph, r->req, {});
    sparse::fusion_sync_all();
    gpu_sim::sync_placement();
    out.push_back(seconds_between(t0, Clock::now()));
    tracer.record(std::string("replay.") + r->req.graph + "." +
                      service::to_string(r->req.kind),
                  s0, s0 + out.back(),
                  static_cast<std::uint64_t>(r - reqs.front()));
  }
  return out;
}

// --- serve-mixed -------------------------------------------------------------

/// `huge` (scale 15, a 7.75 MB CSR) exceeds one worker arena; `large`
/// (scale 11) sits above the crossover and `small` (scale 10) below it.
/// Each worker's device cache then holds `large` beside `huge`'s share with
/// room to spare, so uploads are paid once. (With `large` at scale 12 the
/// two sit right at the cache budget, and a few edges more or less decide
/// whether every worker thrashes between them.)
constexpr std::size_t kArenaBytes = 7'500'000;
constexpr std::size_t kCrossoverNnz = 1u << 14;
constexpr std::size_t kShardContexts = 4;
constexpr double kCacheFraction = 0.75;

struct MixEntry {
  const char* graph;
  QueryKind kind;
  std::size_t weight;  ///< requests of this entry per cycle of the mix
};

/// Weights chosen so that no route takes more than half the workers' busy
/// time (the traced run reports each route's share of the replayed
/// compute): a sharded SSSP costs about 60 small-graph queries.
const MixEntry kMix[] = {
    {"small", QueryKind::kBfs, 24},
    {"small", QueryKind::kSssp, 24},
    {"small", QueryKind::kPageRank, 16},
    {"small", QueryKind::kConnectedComponents, 16},
    {"small", QueryKind::kTriangleCount, 16},
    {"large", QueryKind::kBfs, 12},
    {"large", QueryKind::kSssp, 12},
    {"large", QueryKind::kPageRank, 6},
    {"large", QueryKind::kConnectedComponents, 4},
    {"large", QueryKind::kTriangleCount, 2},
    {"huge", QueryKind::kBfs, 2},
    {"huge", QueryKind::kSssp, 1},
    {"huge", QueryKind::kConnectedComponents, 2},
};

struct MixedGraphs {
  gbtl_graph::EdgeList small, large, huge;
};

MixedGraphs make_mixed_graphs(std::uint64_t seed) {
  return {rmat_graph_sym(10, 8, sub_seed(seed, 11)),
          rmat_graph_sym(11, 8, sub_seed(seed, 12)),
          rmat_graph_sym(15, 8, sub_seed(seed, 13))};
}

}  // namespace

void run_serve_mixed(const Options& opts, Report& report) {
  service::ExecutorOptions eo;
  eo.workers = kWorkers;
  eo.cpupar_threads = kCpuparThreads;
  eo.queue_capacity = 64;
  eo.backend_mode = service::BackendMode::kAuto;
  eo.shard_contexts = kShardContexts;
  eo.cache_memory_fraction = kCacheFraction;
  eo.crossover_nnz = kCrossoverNnz;
  eo.device_properties.total_global_memory = kArenaBytes;
  note_executor(eo, report);

  // Setup, several times: generate, publish into a fresh store, start the
  // executor.
  std::shared_ptr<service::GraphStore> store;
  std::unique_ptr<service::QueryExecutor> exec;
  // Earlier setups' executors are stopped after the timing, not inside it.
  std::vector<std::unique_ptr<service::QueryExecutor>> spares;
  MixedGraphs g;
  time_setup(
      [&](std::size_t i) {
        if (exec) spares.push_back(std::move(exec));
        ScopedSpan span("setup", i);
        g = make_mixed_graphs(opts.seed);
        store = std::make_shared<service::GraphStore>();
        store->add("small", g.small);
        store->add("large", g.large);
        store->add("huge", g.huge);
        exec = std::make_unique<service::QueryExecutor>(store, eo);
      },
      report);
  spares.clear();

  std::map<std::string, service::SnapshotPtr> snaps;
  std::map<std::string, grb::IndexArrayType> sources;
  Versions versions;
  std::uint64_t stream = 20;
  for (auto [name, edges] : {std::pair{"small", &g.small},
                             std::pair{"large", &g.large},
                             std::pair{"huge", &g.huge}}) {
    snaps[name] = store->get(name);
    versions[{name, snaps[name]->version}] = snaps[name];
    sources[name] = pick_sources(*edges, kSourcesPerGraph,
                                 sub_seed(opts.seed, stream++));
    report.note(std::string("nnz_") + name,
                static_cast<double>(snaps[name]->num_edges()));
  }
  // The routes these sizes are meant to select.
  report.check(snaps["small"]->num_edges() < eo.crossover_nnz &&
                   snaps["large"]->num_edges() >= eo.crossover_nnz,
               "small/large straddle crossover_nnz");
  report.check(snaps["huge"]->device_csr_bytes_estimate() > kArenaBytes,
               "huge's CSR exceeds one worker arena");

  DeviceProbe probe(snaps["large"],
                    probe_requests("large",
                                   {QueryKind::kBfs, QueryKind::kSssp,
                                    QueryKind::kPageRank,
                                    QueryKind::kConnectedComponents,
                                    QueryKind::kTriangleCount},
                                   g.large),
                    eo.device_properties, opts.trace, report);
  probe.run_for(kProbeSeconds);

  // The mix as a cycle holding each entry `weight` times, reshuffled from
  // the seed every cycle: every run does the same work in a seeded order.
  std::vector<const MixEntry*> cycle;
  for (const MixEntry& e : kMix) cycle.insert(cycle.end(), e.weight, &e);
  std::mt19937_64 rng(sub_seed(opts.seed, 30));
  std::uniform_int_distribution<std::size_t> pick_source(
      0, kSourcesPerGraph - 1);

  std::optional<SpeedReference> reference(std::in_place);
  const auto start = Clock::now();
  std::vector<Request> requests = closed_loop(
      *exec, kOutstanding,
      [&](std::size_t i) {
        if (i % cycle.size() == 0) std::shuffle(cycle.begin(), cycle.end(), rng);
        const MixEntry& e = *cycle[i % cycle.size()];
        return make_request(e.graph, e.kind, sources[e.graph][pick_source(rng)],
                            false);
      },
      [&](std::size_t i) {
        return i < kMinQueries ||
               seconds_between(start, Clock::now()) < opts.seconds;
      },
      [](std::size_t) {});
  const double window = seconds_between(start, Clock::now());
  const double slowdown = reference->slowdown();
  reference.reset();
  exec->shutdown();
  const service::ServiceStats st = exec->stats();

  check_results(requests, versions, report);
  report.check(st.ran_cpupar > 0 && st.ran_gpusim > 0 && st.ran_gpushard > 0,
               "queries ran on all three routes");
  const std::map<std::string, std::string> expected_route = {
      {"small", "cpupar"}, {"large", "gpusim"}, {"huge", "gpushard"}};
  std::uint64_t misrouted = 0;
  for (const Request& r : requests)
    if (r.res.status == QueryStatus::kOk &&
        r.res.backend != expected_route.at(r.req.graph))
      ++misrouted;
  report.check(misrouted == 0, "every graph ran on its intended route");

  report_latency(requests, window, slowdown, opts.trace, report);
  report_service_stats(st, opts.trace, report);

  probe.run_for(kProbeSeconds);
  probe.report();

  if (!opts.trace) return;

  // Compute replays per route on bench-owned backends of the worker's
  // width; wait = observed latency - the request's replayed compute time.
  std::map<std::string, std::vector<const Request*>> by_graph;
  for (const Request& r : requests) by_graph[r.req.graph].push_back(&r);
  std::map<std::string, std::vector<double>> compute;
  {
    gpu_sim::ThreadPool pool{kCpuparThreads};
    grb::cpupar_backend::ScopedPool bind(pool);
    const auto m = gbtl_graph::to_matrix<double, grb::CpuPar>(
        snaps["small"]->materialize());
    compute["small"] = replay(m, by_graph["small"]);
  }
  {
    gpu_sim::Context ctx{eo.device_properties};
    gpu_sim::ScopedDevice bind(ctx);
    const auto m = gbtl_graph::to_matrix<double, grb::GpuSim>(
        snaps["large"]->materialize());
    compute["large"] = replay(m, by_graph["large"]);
  }
  {
    std::vector<std::unique_ptr<gpu_sim::Context>> ctxs;
    std::vector<gpu_sim::Context*> placement;
    for (std::size_t s = 0; s < kShardContexts; ++s) {
      ctxs.push_back(std::make_unique<gpu_sim::Context>(eo.device_properties));
      placement.push_back(ctxs.back().get());
    }
    gpu_sim::ScopedDevice bind(*ctxs.front());
    gpu_sim::ScopedPlacement bind_placement(placement);
    const auto m = gbtl_graph::to_matrix<double, grb::GpuShard>(
        snaps["huge"]->materialize());
    compute["huge"] = replay(m, by_graph["huge"]);
  }
  double busy_total = 0.0;
  std::map<std::string, double> busy;
  for (const auto& [name, route] : expected_route) {
    std::vector<double> comp_ms, wait_ms;
    for (std::size_t i = 0; i < by_graph[name].size(); ++i) {
      comp_ms.push_back(compute[name][i] * 1e3);
      wait_ms.push_back(by_graph[name][i]->latency_ms - compute[name][i] * 1e3);
      busy[route] += compute[name][i];
    }
    busy_total += busy[route];
    report.set("service." + route + ".compute_p50_ms", median(comp_ms), "ms");
    report.set("service." + route + ".wait_p50_ms", median(wait_ms), "ms");
  }
  for (const auto& [route, b] : busy)
    report.set("service." + route + ".busy_share", b / busy_total, "fraction");
}

// --- serve-mutate ------------------------------------------------------------

namespace {

constexpr unsigned kMutateScale = 12;
constexpr gbtl_graph::Index kMutateEdgeFactor = 8;
constexpr std::size_t kMinBatches = 1000;
constexpr std::size_t kSubmissionsPerBatch = 3;  ///< k
constexpr std::size_t kPairsPerBatch = 16;
constexpr std::size_t kRemovalEvery = 10;        ///< every 10th batch removes
constexpr std::size_t kPairsRemoved = 2;

/// Submission i's kind: incremental PageRank and components with BFS.
QueryRequest mutate_request(std::size_t i, const grb::IndexArrayType& sources) {
  switch (i % 4) {
    case 0:
    case 2:
      return make_request("stream", QueryKind::kPageRank, 0, true);
    case 1:
      return make_request("stream", QueryKind::kConnectedComponents, 0, true);
    default:
      return make_request("stream", QueryKind::kBfs,
                          sources[(i / 4) % sources.size()], false);
  }
}

}  // namespace

void run_serve_mutate(const Options& opts, Report& report) {
  service::ExecutorOptions eo;
  eo.workers = kWorkers;
  eo.cpupar_threads = kCpuparThreads;
  eo.queue_capacity = 64;
  eo.backend_mode = service::BackendMode::kAuto;
  note_executor(eo, report);
  report.note("submissions_per_batch", static_cast<double>(kSubmissionsPerBatch));
  report.note("pairs_per_batch", static_cast<double>(kPairsPerBatch));

  std::shared_ptr<service::GraphStore> store;
  std::unique_ptr<service::QueryExecutor> exec;
  std::vector<std::unique_ptr<service::QueryExecutor>> spares;
  gbtl_graph::EdgeList base;
  time_setup(
      [&](std::size_t i) {
        if (exec) spares.push_back(std::move(exec));
        ScopedSpan span("setup", i);
        base = rmat_graph_sym(kMutateScale, kMutateEdgeFactor,
                              sub_seed(opts.seed, 40));
        store = std::make_shared<service::GraphStore>();
        store->add("stream", base);
        exec = std::make_unique<service::QueryExecutor>(store, eo);
      },
      report);
  spares.clear();
  report.note("nnz_stream", static_cast<double>(base.num_edges()));
  const grb::IndexArrayType sources =
      pick_sources(base, kSourcesPerGraph, sub_seed(opts.seed, 41));

  Versions versions;
  const service::SnapshotPtr initial = store->get("stream");
  versions[{"stream", initial->version}] = initial;
  report.check(initial->num_edges() >= eo.crossover_nnz,
               "the stream graph is on the GpuSim route");

  DeviceProbe probe(initial,
                    probe_requests("stream",
                                   {QueryKind::kBfs, QueryKind::kPageRank,
                                    QueryKind::kConnectedComponents},
                                   base),
                    eo.device_properties, opts.trace, report);
  probe.run_for(kProbeSeconds);

  // Seeded batches: kPairsPerBatch symmetric adds between uniform vertices;
  // every kRemovalEvery-th batch also removes kPairsRemoved original edges.
  std::mt19937_64 rng(sub_seed(opts.seed, 42));
  const gbtl_graph::Index n = base.num_vertices;
  std::uniform_int_distribution<gbtl_graph::Index> vertex(0, n - 1);
  std::uniform_int_distribution<std::size_t> edge(0, base.num_edges() - 1);
  std::vector<double> publish_us, overlay_nnz;
  std::size_t batches = 0;
  Tracer& tracer = Tracer::get();
  auto publish = [&] {
    gbtl_graph::EdgeList adds{n, {}, {}, {}}, removes{n, {}, {}, {}};
    for (std::size_t p = 0; p < kPairsPerBatch; ++p) {
      const auto u = vertex(rng), v = vertex(rng);
      if (u == v) continue;
      adds.src.insert(adds.src.end(), {u, v});
      adds.dst.insert(adds.dst.end(), {v, u});
    }
    if (batches % kRemovalEvery == kRemovalEvery - 1)
      for (std::size_t p = 0; p < kPairsRemoved; ++p) {
        const std::size_t e = edge(rng);
        removes.src.insert(removes.src.end(), {base.src[e], base.dst[e]});
        removes.dst.insert(removes.dst.end(), {base.dst[e], base.src[e]});
      }
    const double s0 = tracer.now_s();
    const auto t0 = Clock::now();
    const service::SnapshotPtr snap = store->apply_edges("stream", adds, removes);
    const double us = seconds_between(t0, Clock::now()) * 1e6;
    tracer.record("graph.apply_edges", s0, s0 + us / 1e6, batches);
    publish_us.push_back(us);
    overlay_nnz.push_back(static_cast<double>(snap->overlay_nnz()));
    versions[{"stream", snap->version}] = snap;
    ++batches;
  };

  std::optional<SpeedReference> reference(std::in_place);
  const auto start = Clock::now();
  std::vector<Request> requests = closed_loop(
      *exec, kOutstanding,
      [&](std::size_t i) { return mutate_request(i, sources); },
      [&](std::size_t i) {
        return i < kMinBatches * kSubmissionsPerBatch ||
               seconds_between(start, Clock::now()) < opts.seconds;
      },
      [&](std::size_t i) {
        if ((i + 1) % kSubmissionsPerBatch == 0) publish();
      });
  const double window = seconds_between(start, Clock::now());
  const double slowdown = reference->slowdown();
  reference.reset();
  exec->shutdown();
  const service::ServiceStats st = exec->stats();

  probe.run_for(kProbeSeconds);
  probe.report();
  check_results(requests, versions, report);
  report_latency(requests, window, slowdown, opts.trace, report);
  report_service_stats(st, opts.trace, report);
  report.note("batches", static_cast<double>(batches));
  report.note("compactions", static_cast<double>(st.compactions));

  // Incremental paths, classified from the results themselves.
  std::uint64_t replays = 0, warm = 0, cold = 0;
  for (const Request& r : requests) {
    if (!r.req.incremental || r.res.status != QueryStatus::kOk) continue;
    if (r.res.backend == "result-cache")
      ++replays;
    else if (r.res.warm_start)
      ++warm;
    else
      ++cold;
  }
  report.check(replays == st.result_cache_hits && warm == st.warm_starts &&
                   cold == st.cold_fallbacks,
               "result classification matches the executor's counters");
  report.check(replays > 0 && warm > 0 && cold > 0 && st.compactions > 0,
               "replays, warm starts, cold fallbacks and compactions occur");
  report.note("replays", static_cast<double>(replays));
  report.note("warm_starts", static_cast<double>(warm));
  report.note("cold_fallbacks", static_cast<double>(cold));

  if (!opts.trace) return;
  const double incremental = static_cast<double>(replays + warm + cold);
  report.set("service.replay_share", replays / incremental, "fraction");
  report.set("service.warm_share", warm / incremental, "fraction");
  report.set("service.cold_share", cold / incremental, "fraction");
  report.set("graph.compactions", static_cast<double>(st.compactions), "count");
  report.set("graph.overlay_nnz_p50", median(overlay_nnz), "count");
  // apply_edges wall time: the O(delta) publish at p50, compaction at p99.
  report.set("graph.publish_p50_us", quantile(publish_us, 0.50), "us");
  report.set("graph.publish_p99_us", quantile(publish_us, 0.99), "us");
}

}  // namespace perfbench
