// perfbench: the repo benchmark. Usage:
//   perfbench --workload <kws_serve|eval_offline|tenants_overload>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]
// Prints progress lines, a host/build stamp line, and as its last line
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>

#include "bench.hpp"

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <kws_serve|eval_offline|"
               "tenants_overload> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <path>]\n");
  return 2;
}

/// --trace 0 prints the end-to-end metrics; --trace 1 prints the
/// per-layer ones and the end-to-end ones its own windows measured.
/// run.py keeps the names BENCHMARK.json declares for the mode.
void print_result(const Result& r, bool per_layer) {
  std::map<std::string, Metric> metrics = r.e2e;
  if (per_layer) metrics.insert(r.layers.begin(), r.layers.end());
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    char v[64];
    std::snprintf(v, sizeof v, "%.17g", m.value);
    out += std::string(first ? "" : ", ") + "\"" + name + "\": {\"value\": " +
           v + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool more = i + 1 < argc;
    if (a == "--workload" && more) o.workload = argv[++i];
    else if (a == "--seed" && more) o.seed = std::strtoull(argv[++i], nullptr, 10);
    else if (a == "--seconds" && more) o.seconds = std::atof(argv[++i]);
    else if (a == "--trace" && more) o.trace = std::strcmp(argv[++i], "0") != 0;
    else if (a == "--trace-out" && more) o.trace_out = argv[++i];
    else return usage();
  }
  void (*run)(const Options&, Result&) = nullptr;
  if (o.workload == "kws_serve") run = run_kws_serve;
  else if (o.workload == "eval_offline") run = run_eval_offline;
  else if (o.workload == "tenants_overload") run = run_tenants_overload;
  if (!run || !(o.seconds > 0)) return usage();

  steal_share();
  Result r;
  if (const int bad = run_selftests())
    r.fail(std::to_string(bad) + " benchmark self-checks failed");
  Spans::instance().enable(o.trace);
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  try {
    run(o, r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", o.workload.c_str(),
                 e.what());
    return 1;
  }
  r.set(false, "peak_rss_mb", peak_rss_mb(), "MiB");
  Spans::instance().enable(false);

  for (auto* metrics : {&r.e2e, &r.layers})
    for (auto& [name, m] : *metrics) {
      if (!valid_metric_name(name)) r.fail("invalid metric name " + name);
      if (!std::isfinite(m.value)) {
        r.fail("metric " + name + " is not finite");
        m.value = 0.0;
      }
    }
  if (o.trace && !o.trace_out.empty()) {
    if (Spans::instance().write(o.trace_out))
      std::printf("spans written to %s\n", o.trace_out.c_str());
    else
      std::fprintf(stderr, "perfbench: cannot write %s\n", o.trace_out.c_str());
  }
  std::printf("host: %.2f%% of CPU time stolen by the hypervisor during the "
              "run\n", 100.0 * steal_share());
  std::printf("stamp %s\n", stamp_json().c_str());
  print_result(r, o.trace);
  return 0;
}
