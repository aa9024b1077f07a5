/// Entry point of the end-to-end benchmark binary.
///
///   perfbench --workload <analytics|serve-mixed|serve-mutate>
///             --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]
///
/// Prints the run's configuration, every correctness problem it found, and
/// as its last line one JSON object with `correct`, `attempted`, `failed`
/// and every metric the run measured (end-to-end ones always, per-layer
/// ones under --trace 1). perfbench/run.py selects from these the metrics
/// BENCHMARK.json names.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"

namespace {

constexpr double kSpinUpS = 1.5;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<analytics|serve-mixed|serve-mutate> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-dir <dir>]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  std::string trace_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload")
      opts.workload = value;
    else if (arg == "--seed")
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (arg == "--seconds")
      opts.seconds = std::strtod(value.c_str(), nullptr);
    else if (arg == "--trace")
      opts.trace = value == "1";
    else if (arg == "--trace-dir")
      trace_dir = value;
    else
      usage(("unknown argument " + arg).c_str());
  }
  if (opts.seconds <= 0.0) usage("--seconds must be positive");

  perfbench::Report report;
  report.note("workload", opts.workload);
  report.note("seed", static_cast<double>(opts.seed));
  report.note("seconds", opts.seconds);
  report.note("trace", opts.trace ? 1.0 : 0.0);
  perfbench::note_environment(report);
  perfbench::Tracer::get().enable(opts.trace);
  // Core clocks ramp up over the first second or so of load; nothing is
  // timed until they have.
  for (const auto t0 = perfbench::Clock::now();
       perfbench::seconds_between(t0, perfbench::Clock::now()) < kSpinUpS;) {
  }
  try {
    if (opts.workload == "analytics")
      perfbench::run_analytics(opts, report);
    else if (opts.workload == "serve-mixed")
      perfbench::run_serve_mixed(opts, report);
    else if (opts.workload == "serve-mutate")
      perfbench::run_serve_mutate(opts, report);
    else
      usage(("unknown workload " + opts.workload).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opts.workload.c_str(),
                 e.what());
    return 1;
  }

  // The wall metrics are reported relative to the speed reference; their
  // unscaled values go here.
  std::string raw = "{";
  for (const auto& [name, value] : report.raw) {
    char text[32];
    std::snprintf(text, sizeof text, "%.17g", value);
    raw += (raw.size() > 1 ? ", \"" : "\"") + name + "\": " + text;
  }
  std::printf("raw: %s}\n", raw.c_str());

  if (opts.trace) {
    report.set("trace.spans",
               static_cast<double>(perfbench::Tracer::get().spans().size()),
               "count");
    const std::string path = trace_dir + "/trace-" + opts.workload + "-seed" +
                             std::to_string(opts.seed) + ".json";
    if (!perfbench::Tracer::get().write(path))
      report.problem("could not write the trace to " + path);
    else
      std::printf("trace: %zu spans in %s\n",
                  perfbench::Tracer::get().spans().size(), path.c_str());
  }

  std::string config = "{";
  for (std::size_t i = 0; i < report.config.size(); ++i)
    config += (i ? ", \"" : "\"") + report.config[i].first +
              "\": " + report.config[i].second;
  std::printf("config: %s}\n", config.c_str());
  for (const auto& p : report.problems) std::printf("problem: %s\n", p.c_str());
  if (report.attempted == 0) ++report.attempted;  // the run itself
  // The complement of the error rate (failed, cancelled, shed or wrong over
  // attempted), so the metric is never 0 on a clean run.
  const double errors = static_cast<double>(report.failed) /
                        static_cast<double>(report.attempted);
  report.set("ok_rate", errors < 1.0 ? 1.0 - errors : 0.0, "fraction");

  std::string metrics = "{";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& m = report.metrics[i];
    char value[32];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    metrics += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}}\n",
      report.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), metrics.c_str());
  return 0;
}
