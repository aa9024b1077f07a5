#include "common.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <fstream>
#include <random>
#include <thread>
#include <unordered_set>

#include "backend_cpupar/pool.hpp"
#include "graph/generators.hpp"
#include "sparse/bitmap.hpp"
#include "sparse/fusion_plan.hpp"
#include "sparse/shard_plan.hpp"
#include "sparse/spgemm_select.hpp"
#include "sparse/spmv_select.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

// --- Report ----------------------------------------------------------------

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& m : metrics)
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  metrics.push_back({name, value, unit});
}

void Report::wall(const std::string& name, double scaled, double raw_value,
                  const std::string& unit) {
  set(name, scaled, unit);
  raw.emplace_back(name, raw_value);
}

void Report::note(const std::string& key, const std::string& value) {
  config.emplace_back(key, json_string(value));
}

void Report::note(const std::string& key, double value) {
  config.emplace_back(key, json_number(value));
}

void Report::problem(std::string what) {
  ++failed;
  problems.push_back(std::move(what));
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) problem("check failed: " + what);
}

// --- Tracer ----------------------------------------------------------------

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

std::int64_t Tracer::open(const std::string& name, std::uint64_t request) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.start_s = now_s();
  s.id = static_cast<std::int64_t>(spans_.size());
  s.parent = open_.empty() ? -1 : open_.back();
  s.request = request;
  spans_.push_back(std::move(s));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::close(std::int64_t id, double sim_s) {
  if (id < 0) return;
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_s = now_s();
  s.sim_s = sim_s;
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::record(const std::string& name, double start_s, double end_s,
                    std::uint64_t request, double sim_s) {
  if (!enabled_) return;
  Span s;
  s.name = name;
  s.start_s = start_s;
  s.end_s = end_s;
  s.id = static_cast<std::int64_t>(spans_.size());
  s.parent = open_.empty() ? -1 : open_.back();
  s.request = request;
  s.sim_s = sim_s;
  spans_.push_back(std::move(s));
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"name\":" << json_string(s.name) << ",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << ",\"start_s\":" << json_number(s.start_s)
        << ",\"end_s\":" << json_number(s.end_s);
    if (s.sim_s >= 0.0) out << ",\"sim_s\":" << json_number(s.sim_s);
    out << (i + 1 < spans_.size() ? "},\n" : "}\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

// --- Statistics and inputs -------------------------------------------------

double quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 over (seed, stream): decorrelated streams from one seed.
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ull + stream + 1;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

gbtl_graph::EdgeList rmat_graph(unsigned scale, gbtl_graph::Index edgefactor,
                                std::uint64_t seed) {
  return gbtl_graph::deduplicate(gbtl_graph::remove_self_loops(
      gbtl_graph::rmat(scale, edgefactor, seed)));
}

gbtl_graph::EdgeList rmat_graph_sym(unsigned scale,
                                    gbtl_graph::Index edgefactor,
                                    std::uint64_t seed) {
  return gbtl_graph::deduplicate(
      gbtl_graph::symmetrize(rmat_graph(scale, edgefactor, seed)));
}

grb::IndexArrayType pick_sources(const gbtl_graph::EdgeList& g,
                                 std::size_t count, std::uint64_t seed) {
  // Weakly connected components by union-find, so every source reaches the
  // same giant component and traversal work does not hinge on one draw.
  std::vector<gbtl_graph::Index> parent(g.num_vertices);
  for (gbtl_graph::Index v = 0; v < g.num_vertices; ++v) parent[v] = v;
  auto find = [&](gbtl_graph::Index v) {
    while (parent[v] != v) v = parent[v] = parent[parent[v]];
    return v;
  };
  for (gbtl_graph::Index e = 0; e < g.num_edges(); ++e)
    parent[find(g.src[e])] = find(g.dst[e]);
  std::vector<gbtl_graph::Index> size(g.num_vertices, 0);
  for (gbtl_graph::Index v = 0; v < g.num_vertices; ++v) ++size[find(v)];
  const auto giant = static_cast<gbtl_graph::Index>(
      std::max_element(size.begin(), size.end()) - size.begin());

  const auto degree = gbtl_graph::out_degrees(g);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<gbtl_graph::Index> vertex(
      0, g.num_vertices - 1);
  grb::IndexArrayType sources;
  std::unordered_set<gbtl_graph::Index> seen;
  while (sources.size() < count) {
    const auto v = vertex(rng);
    if (degree[v] > 0 && find(v) == giant && seen.insert(v).second)
      sources.push_back(v);
  }
  return sources;
}

// --- Speed reference -------------------------------------------------------

namespace {

/// The reference kernel's time on an unloaded reference machine.
constexpr double kNominalReferenceS = 2.0e-3;
constexpr std::size_t kReferenceWords = 1u << 15;

/// One run of the reference kernel over @p words; returns its slowdown.
double reference_reading(std::vector<std::uint64_t>& words) {
  std::uint64_t x = 88172645463325252ull;  // xorshift64, fixed start
  const auto t0 = Clock::now();
  for (auto& w : words) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    w = x;
  }
  std::sort(words.begin(), words.end());
  const auto t1 = Clock::now();
  if (words.front() > words.back()) std::abort();  // keeps the sort live
  return seconds_between(t0, t1) / kNominalReferenceS;
}

}  // namespace

LocalSpeed::LocalSpeed() : words_(kReferenceWords) { tick(); }

double LocalSpeed::tick() {
  readings_.push_back(reference_reading(words_));
  return readings_.back();
}

struct SpeedReference::State {
  std::mutex mutex;  // guards stop and readings
  std::condition_variable wake;
  bool stop = false;
  std::vector<double> readings;
  std::thread thread;
};

SpeedReference::SpeedReference() : state_(std::make_unique<State>()) {
  State& st = *state_;
  st.thread = std::thread([&st] {
    std::vector<std::uint64_t> words(kReferenceWords);
    std::unique_lock<std::mutex> lock(st.mutex);
    while (!st.stop) {
      lock.unlock();
      const double reading = reference_reading(words);
      lock.lock();
      st.readings.push_back(reading);
      st.wake.wait_for(lock, std::chrono::milliseconds(50),
                       [&] { return st.stop; });
    }
  });
}

SpeedReference::~SpeedReference() {
  {
    std::lock_guard<std::mutex> lock(state_->mutex);
    state_->stop = true;
  }
  state_->wake.notify_all();
  state_->thread.join();
}

double SpeedReference::slowdown() const {
  std::lock_guard<std::mutex> lock(state_->mutex);
  return median(state_->readings);
}

// --- Configuration ---------------------------------------------------------

void note_environment(Report& report) {
  report.note("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  report.note("build_type", PERFBENCH_BUILD_TYPE);
  // The effective value of every knob docs/env_vars.md lists, read back from
  // the library's own singletons (env-seeded on first use).
  static const char* const kFusion[] = {"off", "fuse", "auto"};
  static const char* const kBit[] = {"auto", "force", "off"};
  static const char* const kSpgemm[] = {"auto", "esc", "hash"};
  report.note("GBTL_FUSION_MODE",
              kFusion[static_cast<int>(sparse::fusion_mode())]);
  report.note("GBTL_BIT_MODE", kBit[static_cast<int>(sparse::bit_mode())]);
  report.note("GBTL_SHARDS",
              static_cast<double>(sparse::shard_count_override()));
  report.note("GBTL_CPUPAR_THREADS",
              static_cast<double>(grb::cpupar_backend::default_worker_count()));
  report.note("GBTL_SPGEMM_MODE",
              kSpgemm[static_cast<int>(sparse::spgemm_mode())]);
  report.note("spmv_mode", static_cast<double>(sparse::spmv_mode()));
  report.note("direction_mode", static_cast<double>(sparse::direction_mode()));
  // The allocator settings perfbench/run.py passes.
  for (const char* name : {"MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"}) {
    const char* value = std::getenv(name);
    report.note(name, value ? value : "default");
  }
}

}  // namespace perfbench
