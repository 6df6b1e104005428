// perfbench — the repo benchmark (see README.md for the workloads, the
// metric definitions and the per-layer -> end-to-end mapping).
//
// Everything here is measured from outside the program: the benchmark
// times its own calls into the public functions of nga::load, serve,
// shard, nn, nn/quant (MulTable), integrity and quality.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

// ---- statistics helpers (run_selftests checks them) --------------------

/// Linear-interpolated percentile, q in [0,1]. NaN on empty input.
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// One measured step of the fixed absolute rate ladder.
struct LadderStep {
  double rate = 0.0;           ///< offered rate (req/s)
  double deadline_met = 0.0;   ///< share of sent requests met in deadline
  bool generator_ok = true;    ///< the generator kept its schedule
  bool backlog_ok = true;      ///< the queue did not grow over the step
  bool pass() const {
    return deadline_met >= 0.99 && generator_ok && backlog_ok;
  }
};

/// Highest sustainable rate from measured ladder steps (any order):
/// the highest passing step, linearly interpolated on deadline_met
/// toward the next measured step above it when that step failed only
/// on deadline_met. 0 when no step passes.
double slo_rps(std::vector<LadderStep> steps);

/// Search @p ladder (ascending rates) for the pass/fail boundary,
/// assuming pass/fail is monotone in rate: start from the @p known
/// steps, gallop upward from the highest known pass, then bisect.
/// @p measure runs one step. Returns slo_rps() of every step seen.
double search_slo(const std::vector<double>& ladder,
                  std::vector<LadderStep> known,
                  const std::function<LadderStep(double)>& measure);

/// Metric names must match [A-Za-z0-9_.-]+ (and start alphanumeric).
bool valid_metric_name(const std::string& name);

/// Returns the number of failed self-checks (0 = all pass); prints
/// each failure to stderr.
int run_selftests();

// ---- span recorder -----------------------------------------------------

/// In-memory span recorder for traced runs. Spans are appended to a
/// per-thread buffer (no lock on the hot path once a thread has its
/// buffer) and written once, at exit, as a chrome://tracing file.
/// Disabled, record() is a single branch.
class Spans {
 public:
  struct Span {
    std::uint32_t name;
    std::uint32_t tid;
    std::uint64_t id;  ///< request / forward id; spans of one request share it
    std::int64_t t0_ns, t1_ns;
  };

  static Spans& instance();

  void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Intern a span name (setup-time; takes a lock).
  std::uint32_t name_id(const std::string& name);
  void record(std::uint32_t name, std::uint64_t id, Clock::time_point t0,
              Clock::time_point t1) {
    if (enabled_.load(std::memory_order_relaxed)) push(name, id, t0, t1);
  }

  /// Durations (ns) of every span named @p name, recorded so far. Call
  /// only while no thread records.
  std::vector<double> durations_ns(const std::string& name) const;
  /// Write every span as chrome-trace JSON; false on I/O failure.
  bool write(const std::string& path) const;

 private:
  void push(std::uint32_t name, std::uint64_t id, Clock::time_point t0,
            Clock::time_point t1);

  std::atomic<bool> enabled_{false};
  mutable std::mutex m_;
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

/// RAII span around one call.
class SpanScope {
 public:
  SpanScope(std::uint32_t name, std::uint64_t id)
      : name_(name), id_(id), t0_(Clock::now()) {}
  ~SpanScope() { Spans::instance().record(name_, id_, t0_, Clock::now()); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  std::uint32_t name_;
  std::uint64_t id_;
  Clock::time_point t0_;
};

// ---- results -----------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the correctness gate plus named metrics.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> e2e;      ///< --trace 0
  std::map<std::string, Metric> layers;   ///< --trace 1

  void set(bool per_layer, const std::string& name, double v,
           const std::string& unit) {
    (per_layer ? layers : e2e)[name] = Metric{v, unit};
  }
  /// Record a correctness-gate failure (counts as a failed operation).
  void fail(const std::string& why);
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< chrome-trace path for --trace 1
};

/// Seconds since process start (setup_s is measured from here).
double since_start_s();
/// Peak resident set size so far, MiB.
double peak_rss_mb();
/// Share of the host's CPU time stolen by the hypervisor since the
/// previous call (first call: since boot), from /proc/stat; -1 when
/// unreadable. A diagnostic for noisy runs on shared hosts.
double steal_share();
/// Host + build stamp as a one-line JSON object.
std::string stamp_json();

// ---- workloads (workloads.cpp) ----------------------------------------

void run_kws_serve(const Options& o, Result& r);
void run_eval_offline(const Options& o, Result& r);
void run_tenants_overload(const Options& o, Result& r);

}  // namespace perfbench
