/// graph_analyzer — command-line driver for the whole library: load a
/// Matrix Market graph (or generate one), pick a backend, run a named
/// analysis, and report results plus (for the GPU backend) the simulated
/// device-time breakdown. The "downstream user" entry point.
///
/// Usage:
///   graph_analyzer <graph> <analysis> [--backend=seq|gpu] [--source=N]
///
///   <graph>     path to a MatrixMarket .mtx file, or one of
///               rmat:<scale>:<edgefactor> | er:<n>:<m> | grid:<r>:<c>
///   <analysis>  bfs | sssp | pagerank | triangles | components | mis |
///               kcore | stats
///
/// Examples:
///   graph_analyzer rmat:10:16 bfs --backend=gpu --source=0
///   graph_analyzer road.mtx sssp --source=17

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "algorithms/algorithms.hpp"
#include "gbtl/gbtl.hpp"
#include "gpu_sim/context.hpp"
#include "graph/generators.hpp"
#include "graph/graph_matrix.hpp"
#include "graph/mmio.hpp"

namespace {

/// Reads the unsigned decimal number at the start of @p text into @p v.
/// Returns the first character after it, or nullptr when @p text does not
/// start with a digit.
const char* read_number(const char* text, unsigned long long& v) {
  if (!std::isdigit(static_cast<unsigned char>(*text))) return nullptr;
  char* end = nullptr;
  v = std::strtoull(text, &end, 10);
  return end;
}

/// The graph @p spec names, or nullopt when a generator spec is not exactly
/// <kind>:<number>:<number>.
std::optional<gbtl_graph::EdgeList> load_graph(const std::string& spec) {
  unsigned long long a = 0, b = 0;
  const auto numbers = [&](std::size_t prefix) {
    const char* p = read_number(spec.c_str() + prefix, a);
    if (p == nullptr || *p != ':') return false;
    p = read_number(p + 1, b);
    return p != nullptr && *p == '\0';
  };
  if (spec.rfind("rmat:", 0) == 0) {
    if (!numbers(5) || a > std::numeric_limits<unsigned>::max())
      return std::nullopt;
    return gbtl_graph::deduplicate(gbtl_graph::remove_self_loops(
        gbtl_graph::rmat(static_cast<unsigned>(a),
                         static_cast<gbtl_graph::Index>(b), 20160522)));
  }
  if (spec.rfind("er:", 0) == 0) {
    if (!numbers(3)) return std::nullopt;
    return gbtl_graph::deduplicate(gbtl_graph::remove_self_loops(
        gbtl_graph::erdos_renyi(a, b, 20160522)));
  }
  if (spec.rfind("grid:", 0) == 0) {
    if (!numbers(5)) return std::nullopt;
    return gbtl_graph::grid2d(a, b);
  }
  return gbtl_graph::read_matrix_market_file(spec);
}

template <typename Tag>
int run(const gbtl_graph::EdgeList& g, const std::string& analysis,
        grb::IndexType source) {
  const auto t0 = std::chrono::steady_clock::now();
  auto A = gbtl_graph::to_matrix<double, Tag>(g);
  std::printf("[%s] graph: %llu vertices, %llu edges\n",
              grb::backend_traits<Tag>::name,
              static_cast<unsigned long long>(A.nrows()),
              static_cast<unsigned long long>(A.nvals()));

  if (analysis == "bfs") {
    grb::Vector<grb::IndexType, Tag> levels(A.nrows());
    algorithms::bfs_level(A, source, levels);
    grb::IndexType max_level = 0;
    grb::reduce(max_level, grb::NoAccumulate{},
                grb::MaxMonoid<grb::IndexType>{}, levels);
    std::printf("bfs from %llu: reached %llu vertices, eccentricity %llu\n",
                static_cast<unsigned long long>(source),
                static_cast<unsigned long long>(levels.nvals()),
                static_cast<unsigned long long>(max_level - 1));
  } else if (analysis == "sssp") {
    auto W = A;  // unweighted files get weight 1 per edge
    grb::Vector<double, Tag> dist(W.nrows());
    const auto rounds = algorithms::sssp(W, source, dist);
    double max_dist = 0;
    grb::reduce(max_dist, grb::NoAccumulate{}, grb::MaxMonoid<double>{},
                dist);
    std::printf("sssp from %llu: %llu reachable, %llu rounds, "
                "farthest %.3f\n",
                static_cast<unsigned long long>(source),
                static_cast<unsigned long long>(dist.nvals()),
                static_cast<unsigned long long>(rounds), max_dist);
  } else if (analysis == "pagerank") {
    grb::Vector<double, Tag> rank(A.nrows());
    const auto r = algorithms::pagerank(A, rank);
    // One bulk readback, not a device round trip per vertex. Unstored
    // ranks count as 0 and ties go to the lowest vertex.
    grb::IndexArrayType idx;
    std::vector<double> val;
    rank.extractTuples(idx, val);
    std::vector<double> score(A.nrows(), 0.0);
    for (std::size_t k = 0; k < idx.size(); ++k) score[idx[k]] = val[k];
    grb::IndexType top = 0;
    double best = -1;
    for (grb::IndexType v = 0; v < A.nrows(); ++v)
      if (score[v] > best) best = score[v], top = v;
    std::printf("pagerank: %llu iterations, top vertex %llu (%.5f)\n",
                static_cast<unsigned long long>(r.iterations),
                static_cast<unsigned long long>(top), best);
  } else if (analysis == "triangles") {
    auto sym = gbtl_graph::to_matrix<double, Tag>(gbtl_graph::symmetrize(g));
    std::printf("triangles: %llu\n",
                static_cast<unsigned long long>(
                    algorithms::triangle_count_masked(sym)));
  } else if (analysis == "components") {
    auto sym = gbtl_graph::to_matrix<double, Tag>(gbtl_graph::symmetrize(g));
    std::printf("connected components: %llu\n",
                static_cast<unsigned long long>(
                    algorithms::component_count(sym)));
  } else if (analysis == "mis") {
    auto sym = gbtl_graph::to_matrix<double, Tag>(gbtl_graph::symmetrize(
        gbtl_graph::remove_self_loops(g)));
    grb::Vector<bool, Tag> iset(sym.nrows());
    algorithms::mis(sym, iset);
    std::printf("maximal independent set: %llu vertices (valid: %s)\n",
                static_cast<unsigned long long>(iset.nvals()),
                algorithms::is_maximal_independent_set(sym, iset) ? "yes"
                                                                  : "NO");
  } else if (analysis == "kcore") {
    auto sym = gbtl_graph::to_matrix<double, Tag>(gbtl_graph::symmetrize(
        gbtl_graph::remove_self_loops(g)));
    grb::Vector<grb::IndexType, Tag> core(sym.nrows());
    std::printf("degeneracy: %llu\n",
                static_cast<unsigned long long>(
                    algorithms::kcore_decomposition(sym, core)));
  } else if (analysis == "stats") {
    auto outd = algorithms::out_degree(A);
    grb::IndexType max_deg = 0;
    grb::reduce(max_deg, grb::NoAccumulate{},
                grb::MaxMonoid<grb::IndexType>{}, outd);
    std::printf("density: %.6f, max out-degree: %llu\n",
                algorithms::graph_density(A),
                static_cast<unsigned long long>(max_deg));
  } else {
    std::fprintf(stderr, "unknown analysis '%s'\n", analysis.c_str());
    return 2;
  }

  const auto wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::printf("host wall time: %.3f ms\n", wall * 1e3);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: %s <graph.mtx|rmat:s:e|er:n:m|grid:r:c> "
                 "<bfs|sssp|pagerank|triangles|components|mis|kcore|stats> "
                 "[--backend=seq|gpu] [--source=N]\n",
                 argv[0]);
    return 2;
  }
  std::string backend = "seq";
  grb::IndexType source = 0;
  for (int i = 3; i < argc; ++i) {
    if (std::strncmp(argv[i], "--backend=", 10) == 0) {
      backend = argv[i] + 10;
      continue;
    }
    unsigned long long v = 0;
    const char* end = nullptr;
    if (std::strncmp(argv[i], "--source=", 9) == 0)
      end = read_number(argv[i] + 9, v);
    if (end == nullptr || *end != '\0') {
      std::fprintf(stderr, "cannot parse argument '%s'\n", argv[i]);
      return 2;
    }
    source = v;
  }
  if (backend != "seq" && backend != "gpu") {
    std::fprintf(stderr, "unknown backend '%s' (expected seq or gpu)\n",
                 backend.c_str());
    return 2;
  }

  try {
    const auto g = load_graph(argv[1]);
    if (!g) {
      std::fprintf(stderr,
                   "cannot parse graph spec '%s' (expected rmat:s:e, "
                   "er:n:m or grid:r:c)\n",
                   argv[1]);
      return 2;
    }
    if (backend == "gpu") {
      // Private context for the run (ScopedDevice): counters start at zero
      // without the reset_stats() dance.
      gpu_sim::Context ctx;
      gpu_sim::ScopedDevice bind(ctx);
      const int rc = run<grb::GpuSim>(*g, argv[2], source);
      const auto s = ctx.stats();
      std::printf("simulated device: %.3f ms kernels (%llu launches) + "
                  "%.3f ms transfers (%llu MB moved)\n",
                  s.simulated_kernel_time_s * 1e3,
                  static_cast<unsigned long long>(s.kernel_launches),
                  s.simulated_transfer_time_s * 1e3,
                  static_cast<unsigned long long>(
                      (s.h2d_bytes + s.d2h_bytes) >> 20));
      return rc;
    }
    return run<grb::Sequential>(*g, argv[2], source);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
