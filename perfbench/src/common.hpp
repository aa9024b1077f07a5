#pragma once

/// @file common.hpp
/// Shared machinery of the end-to-end benchmark: run options, the report
/// every workload fills (metrics, configuration, correctness problems),
/// the in-memory span tracer, seeded graph generation and small statistics
/// helpers. Everything here sits outside the library: the benchmark only
/// calls the library's public functions and reads its public counters.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gbtl/types.hpp"
#include "graph/edge_list.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// What one run hands back to main(): metrics by name, the configuration it
/// ran under, and every correctness problem found (output mismatches and
/// broken sum checks). Each problem counts once in `failed`.
struct Report {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  /// Unscaled values of the wall-clock metrics, for the `raw:` line.
  std::vector<std::pair<std::string, double>> raw;
  /// Configuration entries; values are already JSON-encoded.
  std::vector<std::pair<std::string, std::string>> config;
  std::vector<std::string> problems;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void set(const std::string& name, double value, const std::string& unit);
  /// A wall-clock metric: @p scaled (relative to the speed reference) is
  /// reported, @p raw goes to the `raw:` line.
  void wall(const std::string& name, double scaled, double raw,
            const std::string& unit);
  void note(const std::string& key, const std::string& value);  // string
  void note(const std::string& key, double value);              // number
  /// Record a correctness problem; it fails the run.
  void problem(std::string what);
  /// Record a check that must hold; a false @p ok becomes a problem.
  void check(bool ok, const std::string& what);
};

/// One span from the benchmark's own code: a call into a library layer.
struct Span {
  std::string name;
  double start_s = 0.0;  ///< seconds since the tracer's epoch
  double end_s = 0.0;
  std::int64_t id = 0;
  std::int64_t parent = -1;    ///< enclosing span, -1 at the top
  std::uint64_t request = 0;   ///< request id (pass index on analytics)
  double sim_s = -1.0;         ///< simulated device seconds, -1 if none
};

/// In-memory span recorder, off unless --trace 1. Not thread-safe: only
/// the benchmark's single client thread records spans.
class Tracer {
 public:
  static Tracer& get();

  void enable(bool on) { enabled_ = on; }
  double now_s() const { return seconds_between(epoch_, Clock::now()); }

  /// Open a span under the innermost open one; returns its id (-1 when
  /// tracing is off).
  std::int64_t open(const std::string& name, std::uint64_t request);
  void close(std::int64_t id, double sim_s = -1.0);
  /// Record a span whose interval was measured elsewhere.
  void record(const std::string& name, double start_s, double end_s,
              std::uint64_t request, double sim_s = -1.0);

  const std::vector<Span>& spans() const { return spans_; }
  /// Write every span as JSON to @p path; returns false on I/O failure.
  bool write(const std::string& path) const;

 private:
  Tracer() : epoch_(Clock::now()) {}
  bool enabled_ = false;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
};

/// RAII span; free when tracing is off.
class ScopedSpan {
 public:
  ScopedSpan(const std::string& name, std::uint64_t request)
      : id_(Tracer::get().open(name, request)) {}
  ~ScopedSpan() { Tracer::get().close(id_, sim_s_); }
  void set_sim(double sim_s) { sim_s_ = sim_s; }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::int64_t id_;
  double sim_s_ = -1.0;
};

/// Linear-interpolated quantile (p in [0, 1]) of @p values; 0 when empty.
double quantile(std::vector<double> values, double p);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Graph500 R-MAT (a/b/c = .57/.19/.19), deduplicated, self-loops removed.
gbtl_graph::EdgeList rmat_graph(unsigned scale, gbtl_graph::Index edgefactor,
                                std::uint64_t seed);
/// The same, symmetrized (and deduplicated again).
gbtl_graph::EdgeList rmat_graph_sym(unsigned scale,
                                    gbtl_graph::Index edgefactor,
                                    std::uint64_t seed);
/// @p count distinct seeded vertices with nonzero out-degree in the largest
/// weakly connected component of @p g.
grb::IndexArrayType pick_sources(const gbtl_graph::EdgeList& g,
                                 std::size_t count, std::uint64_t seed);

/// Independent sub-seed @p stream of the run seed.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream);

/// Machine-speed reference, read in the thread that does the timed work.
/// Each reading times one run of a fixed, library-independent kernel
/// (sorting 2^15 pseudo-random words) and divides it by the kernel's
/// nominal time: above 1 on a core running slower than nominal. Shared VMs
/// drift by a quarter in speed within a minute; a unit of work timed
/// between two readings is divided by their mean, so that drift cancels
/// unit by unit while a change in the library's own cost does not
/// (docs: perfbench/README.md).
class LocalSpeed {
 public:
  LocalSpeed();
  /// Take a reading now; returns it.
  double tick();
  /// The latest reading.
  double last() const { return readings_.back(); }
  /// Median of every reading so far.
  double median_slowdown() const { return median(readings_); }

  /// Run @p fn between two readings; returns its wall seconds, raw and
  /// divided by the mean of the readings around it.
  template <typename Fn>
  std::pair<double, double> time(Fn&& fn) {
    const double before = last();
    const auto t0 = Clock::now();
    fn();
    const double raw = seconds_between(t0, Clock::now());
    return {raw, raw * 2.0 / (before + tick())};
  }

 private:
  std::vector<std::uint64_t> words_;
  std::vector<double> readings_;
};

/// Time @p setup at least 5 times and for at least one second in all, each
/// repeat relative to the speed readings around it; sets setup_s to the
/// median.
template <typename Fn>
void time_setup(Fn&& setup, Report& report) {
  LocalSpeed speed;
  std::vector<double> raw, scaled;
  double total = 0.0;
  while (raw.size() < 5 || total < 1.0) {
    const auto [r, s] = speed.time([&] { setup(raw.size()); });
    raw.push_back(r);
    scaled.push_back(s);
    total += r;
  }
  report.wall("setup_s", median(scaled), median(raw), "s");
}

/// The same reference for work done on threads the benchmark does not own
/// (the executor's workers): a thread of its own takes a reading every
/// 50 ms from construction until destruction.
class SpeedReference {
 public:
  SpeedReference();
  ~SpeedReference();  ///< stops and joins the thread
  SpeedReference(const SpeedReference&) = delete;
  SpeedReference& operator=(const SpeedReference&) = delete;

  /// Median reading so far.
  double slowdown() const;

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// Configuration every result records: nproc, build type and the effective
/// GBTL_* settings (docs/env_vars.md).
void note_environment(Report& report);

/// Workloads. Each fills @p report; setup_s and the workload's metrics are
/// always set, the per-layer ones only under --trace 1.
void run_analytics(const Options& opts, Report& report);
void run_serve_mixed(const Options& opts, Report& report);
void run_serve_mutate(const Options& opts, Report& report);

}  // namespace perfbench
