/// The `analytics` workload: the paper's library path on GpuSim with no
/// service. One pass binds a fresh simulated device, uploads three R-MAT
/// graphs, runs BFS from 8 sources, SSSP, PageRank, connected components,
/// MIS and masked triangle counting, and reads every vector result back.
/// Passes repeat until the run's time is up; every pass is checked bit for
/// bit against the same pass on the Sequential backend.

#include <cmath>
#include <map>
#include <memory>
#include <tuple>

#include "algorithms/bfs.hpp"
#include "algorithms/connected_components.hpp"
#include "algorithms/mis.hpp"
#include "algorithms/pagerank.hpp"
#include "algorithms/sssp.hpp"
#include "algorithms/triangle_count.hpp"
#include "common.hpp"
#include "device_meter.hpp"
#include "gpu_sim/context.hpp"
#include "graph/graph_matrix.hpp"

namespace perfbench {

namespace {

constexpr unsigned kScale = 14;
constexpr gbtl_graph::Index kEdgeFactor = 16;
constexpr gbtl_graph::Index kSymEdgeFactor = 8;
constexpr std::size_t kSources = 8;
constexpr std::size_t kMinPasses = 3;
constexpr grb::IndexType kPageRankIterations = 20;
/// Algorithm calls per pass: 8 BFS, SSSP, PageRank, CC, MIS, TC.
constexpr std::uint64_t kCallsPerPass = kSources + 5;

struct Inputs {
  gbtl_graph::EdgeList directed;  ///< BFS, PageRank
  gbtl_graph::EdgeList weighted;  ///< SSSP: U[1,255] weights
  gbtl_graph::EdgeList sym;       ///< CC, MIS, triangle counting
  grb::IndexArrayType sources;
  std::uint64_t mis_seed = 0;
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  in.directed = rmat_graph(kScale, kEdgeFactor, sub_seed(seed, 1));
  in.weighted = gbtl_graph::with_random_weights(in.directed, 1.0, 255.0,
                                                sub_seed(seed, 2));
  in.sym = rmat_graph_sym(kScale, kSymEdgeFactor, sub_seed(seed, 3));
  in.sources = pick_sources(in.directed, kSources, sub_seed(seed, 4));
  in.mis_seed = sub_seed(seed, 5);
  return in;
}

template <typename V>
struct Sparse {
  grb::IndexArrayType indices;
  std::vector<V> values;
  bool operator==(const Sparse&) const = default;
};

/// Host-side results of one pass; compared with operator== (bitwise for
/// the double vectors, whose values come from identical operation orders).
struct Results {
  std::vector<Sparse<grb::IndexType>> bfs;
  Sparse<double> sssp, pagerank;
  Sparse<grb::IndexType> cc;
  Sparse<bool> mis;
  std::uint64_t tc = 0;
};

template <typename V, typename Tag>
Sparse<V> read_back(const grb::Vector<V, Tag>& v) {
  Sparse<V> out;
  v.extractTuples(out.indices, out.values);
  return out;
}

/// One pass on backend @p Tag. Every call that can touch the device goes
/// through @p m, so the device clock's advance is covered by its parts.
template <typename Tag, typename Meter>
Results run_pass(const Inputs& in, Meter& m) {
  using Mat = grb::Matrix<double, Tag>;
  Results r;
  std::unique_ptr<Mat> a, w, s;
  m.call("graph.to_matrix", [&] {
    a = std::make_unique<Mat>(gbtl_graph::to_matrix<double, Tag>(in.directed));
  });
  m.call("graph.to_matrix", [&] {
    w = std::make_unique<Mat>(gbtl_graph::to_matrix<double, Tag>(in.weighted));
  });
  m.call("graph.to_matrix", [&] {
    s = std::make_unique<Mat>(gbtl_graph::to_matrix<double, Tag>(in.sym));
  });
  const grb::IndexType n = a->nrows();

  for (const grb::IndexType src : in.sources) {
    std::unique_ptr<grb::Vector<grb::IndexType, Tag>> levels;
    m.call("algorithms.bfs", [&] {
      levels = std::make_unique<grb::Vector<grb::IndexType, Tag>>(n);
      algorithms::bfs_level(*a, src, *levels);
    });
    m.call("gbtl.extractTuples", [&] { r.bfs.push_back(read_back(*levels)); });
  }

  std::unique_ptr<grb::Vector<double, Tag>> dist, rank;
  m.call("algorithms.sssp", [&] {
    dist = std::make_unique<grb::Vector<double, Tag>>(n);
    algorithms::sssp(*w, in.sources.front(), *dist);
  });
  m.call("gbtl.extractTuples", [&] { r.sssp = read_back(*dist); });

  m.call("algorithms.pagerank", [&] {
    rank = std::make_unique<grb::Vector<double, Tag>>(n);
    algorithms::pagerank(*a, *rank, 0.85, /*tol=*/0.0, kPageRankIterations);
  });
  m.call("gbtl.extractTuples", [&] { r.pagerank = read_back(*rank); });

  std::unique_ptr<grb::Vector<grb::IndexType, Tag>> labels;
  m.call("algorithms.cc", [&] {
    labels = std::make_unique<grb::Vector<grb::IndexType, Tag>>(n);
    algorithms::connected_components(*s, *labels);
  });
  m.call("gbtl.extractTuples", [&] { r.cc = read_back(*labels); });

  std::unique_ptr<grb::Vector<bool, Tag>> iset;
  m.call("algorithms.mis", [&] {
    iset = std::make_unique<grb::Vector<bool, Tag>>(n);
    algorithms::mis(*s, *iset, in.mis_seed);
  });
  m.call("gbtl.extractTuples", [&] { r.mis = read_back(*iset); });

  m.call("algorithms.tc",
         [&] { r.tc = algorithms::triangle_count_masked(*s); });
  return r;
}

/// Compare a pass against the oracle; one problem per differing result.
void compare(const Results& got, const Results& want, std::uint64_t pass,
             Report& report) {
  auto expect = [&](bool same, const std::string& what) {
    if (!same)
      report.problem("analytics pass " + std::to_string(pass) + ": " + what +
                   " differs from the Sequential backend");
  };
  for (std::size_t i = 0; i < want.bfs.size(); ++i)
    expect(i < got.bfs.size() && got.bfs[i] == want.bfs[i],
           "bfs from source " + std::to_string(i));
  expect(got.sssp == want.sssp, "sssp");
  expect(got.pagerank == want.pagerank, "pagerank");
  expect(got.cc == want.cc, "connected components");
  expect(got.mis == want.mis, "mis");
  expect(got.tc == want.tc, "triangle count");
}

/// Per-pass sums of the traced spans by name: (host seconds, sim seconds).
std::map<std::string, std::pair<double, double>> span_sums(
    std::uint64_t pass) {
  std::map<std::string, std::pair<double, double>> sums;
  for (const Span& s : Tracer::get().spans()) {
    if (s.request != pass || s.name == "pass") continue;
    auto& [host, sim] = sums[s.name];
    host += s.end_s - s.start_s;
    if (s.sim_s >= 0.0) sim += s.sim_s;
  }
  return sums;
}

}  // namespace

void run_analytics(const Options& opts, Report& report) {
  // Setup: generate the inputs from the seed, several times; the median is
  // the set-up metric.
  Inputs in;
  time_setup([&](std::size_t) { in = make_inputs(opts.seed); }, report);
  report.note("graphs", "rmat:14:16 directed, rmat:14:16 U[1,255] weighted, "
                        "rmat:14:8 symmetrized");
  report.note("edges_directed", static_cast<double>(in.directed.num_edges()));
  report.note("edges_sym", static_cast<double>(in.sym.num_edges()));

  // The oracle, outside every timed pass.
  HostMeter host;
  const Results want = run_pass<grb::Sequential>(in, host);

  struct Pass {
    bool traced = false;
    double raw_s = 0.0;   ///< host seconds of the pass's calls
    double host_s = 0.0;  ///< the same, relative to the speed reference
    double sim_s = 0.0;
    gpu_sim::DeviceStats stats;
    std::vector<CallPart> parts;
  };
  std::vector<Pass> passes;
  LocalSpeed speed;
  const auto start = Clock::now();
  while (passes.size() < kMinPasses ||
         seconds_between(start, Clock::now()) < opts.seconds) {
    const std::uint64_t index = passes.size();
    Pass p;
    // Under --trace 1 every other pass is traced, so the same run also
    // gives the untraced host time the tracing overhead is measured against.
    p.traced = opts.trace && index % 2 == 0;
    Tracer::get().enable(p.traced);
    Results got;
    {
      gpu_sim::Context ctx;
      gpu_sim::ScopedDevice bind(ctx);
      DeviceMeter meter(ctx, index, speed);
      ScopedSpan span("pass", index);
      got = run_pass<grb::GpuSim>(in, meter);
      std::tie(p.raw_s, p.host_s) = meter.host_s();
      p.sim_s = ctx.makespan_s();
      p.stats = ctx.stats();
      p.parts = meter.parts();
      span.set_sim(p.sim_s);
    }
    Tracer::get().enable(false);
    report.attempted += kCallsPerPass;
    compare(got, want, index, report);
    passes.push_back(std::move(p));
  }

  // End-to-end metrics.
  std::vector<double> pass_raw, pass_host, call_raw_ms, call_ms;
  double raw_total = 0.0, host_total = 0.0;
  for (const Pass& p : passes) {
    pass_raw.push_back(p.raw_s);
    pass_host.push_back(p.host_s);
    raw_total += p.raw_s;
    host_total += p.host_s;
    // A "query" is one algorithm call plus the readback that follows it.
    for (std::size_t i = 0; i < p.parts.size(); ++i) {
      const CallPart& c = p.parts[i];
      if (c.name.rfind("algorithms.", 0) != 0) continue;
      double raw = c.raw_s, scaled = c.host_s;
      if (i + 1 < p.parts.size() &&
          p.parts[i + 1].name == "gbtl.extractTuples") {
        raw += p.parts[i + 1].raw_s;
        scaled += p.parts[i + 1].host_s;
      }
      call_raw_ms.push_back(raw * 1e3);
      call_ms.push_back(scaled * 1e3);
    }
    report.check(p.sim_s == passes.front().sim_s,
                 "simulated pass time repeats exactly across passes");
  }
  const auto calls = static_cast<double>(call_ms.size());
  const Pass& first = passes.front();
  report.set("sim_s", first.sim_s, "s");
  report.wall("host_s", median(pass_host), median(pass_raw), "s");
  report.set("device_peak_mb",
             static_cast<double>(first.stats.peak_bytes_in_use) / 1e6, "MB");
  report.wall("qps", calls / host_total, calls / raw_total, "1/s");
  report.wall("p50_ms", quantile(call_ms, 0.50), quantile(call_raw_ms, 0.50),
              "ms");
  report.wall("p99_ms", quantile(call_ms, 0.99), quantile(call_raw_ms, 0.99),
              "ms");
  report.note("passes", static_cast<double>(passes.size()));
  report.note("queries", calls);
  report.note("reference_slowdown", speed.median_slowdown());

  // Sum checks, on every pass: the per-call simulated parts cover the whole
  // makespan, and the device's own counters add up to it.
  for (const Pass& p : passes) {
    double parts_sim = 0.0;
    for (const CallPart& c : p.parts) parts_sim += c.sim_s;
    report.check(std::abs(parts_sim - p.sim_s) <= 1e-12 * p.sim_s,
                 "per-call simulated seconds sum to the pass makespan");
    const double modeled = p.stats.simulated_kernel_time_s +
                           p.stats.simulated_transfer_time_s -
                           p.stats.overlap_seconds_hidden;
    report.check(std::abs(modeled - p.sim_s) <= 1e-12 * p.sim_s,
                 "kernel + transfer - hidden overlap equals the makespan");
  }

  if (!opts.trace) return;

  // Per-layer metrics from the traced passes' spans.
  std::vector<double> traced_host, untraced_host;
  std::map<std::string, std::vector<double>> layer_host;
  std::map<std::string, double> layer_sim;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    (passes[i].traced ? traced_host : untraced_host)
        .push_back(passes[i].host_s);
    if (!passes[i].traced) continue;
    const auto sums = span_sums(i);
    for (const auto& [name, hs] : sums) {
      layer_host[name].push_back(hs.first);
      layer_sim[name] = hs.second;
    }
  }
  for (const auto& [name, hosts] : layer_host) {
    report.set(name + ".host_s", median(hosts), "s");
    report.set(name + ".sim_s", layer_sim[name], "s");
  }
  double span_sim = 0.0;
  for (const auto& [name, sim] : layer_sim) span_sim += sim;
  report.check(std::abs(span_sim - first.sim_s) <= 1e-12 * first.sim_s,
               "traced per-layer simulated seconds sum to sim_s");
  report.set("trace.overhead_s", median(traced_host) - median(untraced_host),
             "s");

  report_device_layers(first.stats, median(pass_host), report);
}

}  // namespace perfbench
