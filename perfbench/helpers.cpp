// Statistics helpers, the span recorder, the host/build stamp and the
// self-checks of the benchmark's own helpers.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <set>
#include <sstream>
#include <thread>

#include "bench.hpp"

namespace perfbench {

namespace {
const Clock::time_point g_start = Clock::now();
}

double since_start_s() {
  return std::chrono::duration<double>(Clock::now() - g_start).count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) * double(v.size() - 1);
  const std::size_t lo = std::size_t(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double slo_rps(std::vector<LadderStep> steps) {
  std::sort(steps.begin(), steps.end(),
            [](const LadderStep& a, const LadderStep& b) {
              return a.rate < b.rate;
            });
  int best = -1;
  for (int i = 0; i < int(steps.size()); ++i)
    if (steps[std::size_t(i)].pass()) best = i;
  if (best < 0) return 0.0;
  const LadderStep& p = steps[std::size_t(best)];
  if (best + 1 == int(steps.size())) return p.rate;
  const LadderStep& f = steps[std::size_t(best + 1)];
  if (!f.generator_ok || !f.backlog_ok || f.deadline_met >= p.deadline_met)
    return p.rate;
  return p.rate + (f.rate - p.rate) * (p.deadline_met - 0.99) /
                      (p.deadline_met - f.deadline_met);
}

double search_slo(const std::vector<double>& ladder,
                  std::vector<LadderStep> known,
                  const std::function<LadderStep(double)>& measure) {
  const auto index_of = [&](double rate) {
    const auto it = std::find(ladder.begin(), ladder.end(), rate);
    return it == ladder.end() ? -1 : int(it - ladder.begin());
  };
  int lo = -1, hi = int(ladder.size());
  for (const auto& s : known)
    if (s.pass()) lo = std::max(lo, index_of(s.rate));
  for (const auto& s : known) {
    const int i = index_of(s.rate);
    if (i > lo && !s.pass()) hi = std::min(hi, i);
  }
  const auto probe = [&](int i) {
    known.push_back(measure(ladder[std::size_t(i)]));
    (known.back().pass() ? lo : hi) = i;
  };
  // Gallop: the boundary is usually just above the highest known pass.
  for (int step = 1; lo >= 0 && lo + step < hi; step *= 2) {
    const int before = lo;
    probe(lo + step);
    if (lo == before) break;
  }
  while (hi - lo > 1) probe((lo + hi) / 2);
  return slo_rps(known);
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

void Result::fail(const std::string& why) {
  correct = false;
  ++failed;
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", why.c_str());
}

// ---- spans -------------------------------------------------------------

Spans& Spans::instance() {
  static Spans s;
  return s;
}

std::uint32_t Spans::name_id(const std::string& name) {
  std::lock_guard<std::mutex> lk(m_);
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return std::uint32_t(i);
  names_.push_back(name);
  return std::uint32_t(names_.size() - 1);
}

void Spans::push(std::uint32_t name, std::uint64_t id, Clock::time_point t0,
                 Clock::time_point t1) {
  thread_local std::vector<Span>* buf = nullptr;
  thread_local std::uint32_t tid = 0;
  if (!buf) {
    std::lock_guard<std::mutex> lk(m_);
    buffers_.push_back(std::make_unique<std::vector<Span>>());
    buf = buffers_.back().get();
    buf->reserve(1 << 14);
    tid = std::uint32_t(buffers_.size());
  }
  const auto ns = [](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - g_start)
        .count();
  };
  buf->push_back(Span{name, tid, id, ns(t0), ns(t1)});
}

std::vector<double> Spans::durations_ns(const std::string& name) const {
  std::lock_guard<std::mutex> lk(m_);
  std::vector<double> out;
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it == names_.end()) return out;
  const auto want = std::uint32_t(it - names_.begin());
  for (const auto& b : buffers_)
    for (const Span& s : *b)
      if (s.name == want) out.push_back(double(s.t1_ns - s.t0_ns));
  return out;
}

bool Spans::write(const std::string& path) const {
  std::lock_guard<std::mutex> lk(m_);
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"traceEvents\":[";
  bool first = true;
  char line[256];
  for (const auto& b : buffers_)
    for (const Span& s : *b) {
      std::snprintf(line, sizeof line,
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu}}",
                    first ? "" : ",", names_[s.name].c_str(), s.tid,
                    double(s.t0_ns) / 1e3, double(s.t1_ns - s.t0_ns) / 1e3,
                    static_cast<unsigned long long>(s.id));
      os << line;
      first = false;
    }
  os << "\n]}\n";
  return bool(os);
}

// ---- host / build stamp ------------------------------------------------

double steal_share() {
  static std::uint64_t prev_total = 0, prev_steal = 0;
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t v[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return -1.0;
  for (auto& x : v) in >> x;  // user nice system idle iowait irq softirq steal
  std::uint64_t total = 0;
  for (auto x : v) total += x;
  const double share = total > prev_total ? double(v[7] - prev_steal) /
                                                double(total - prev_total)
                                          : 0.0;
  prev_total = total;
  prev_steal = v[7];
  return share;
}

std::string stamp_json() {
  std::string model = "unknown", flags;
  std::ifstream cpu("/proc/cpuinfo");
  for (std::string line; std::getline(cpu, line);) {
    const auto value = [&] {
      const auto c = line.find(':');
      return c == std::string::npos ? std::string()
                                    : line.substr(line.find_first_not_of(
                                          " \t", c + 1));
    };
    if (model == "unknown" && line.rfind("model name", 0) == 0) model = value();
    if (flags.empty() && line.rfind("flags", 0) == 0) flags = value();
  }
  std::istringstream words(flags);
  const std::set<std::string> have{std::istream_iterator<std::string>(words),
                                   std::istream_iterator<std::string>()};
  const auto has = [&](const char* f) { return have.count(f) > 0; };
  std::string isa;
  for (const char* f : {"avx2", "avx512f", "avx512_vnni", "avx_vnni"})
    if (has(f)) isa += std::string(isa.empty() ? "" : ",") + f;
  for (char& c : model)
    if (c == '"' || c == '\\') c = ' ';
  std::ostringstream os;
  os << "{\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"cpu\":\"" << model << "\",\"isa\":\"" << isa
     << "\",\"compiler\":\"" << PERFBENCH_COMPILER
     << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE
     << "\",\"NGA_OBS\":" << NGA_OBS << ",\"NGA_FAULT\":" << NGA_FAULT
     << ",\"NGA_PROF\":" << NGA_PROF << "}";
  return os.str();
}

// ---- self-checks -------------------------------------------------------

int run_selftests() {
  int bad = 0;
  const auto check = [&](bool ok, const char* what) {
    if (!ok) {
      ++bad;
      std::fprintf(stderr, "perfbench selftest FAILED: %s\n", what);
    }
  };
  const auto near = [](double a, double b) { return std::fabs(a - b) < 1e-9; };

  check(std::isnan(percentile({}, 0.5)), "percentile of empty input is NaN");
  check(std::isnan(median({})), "median of empty input is NaN");
  check(near(percentile({7.0}, 0.99), 7.0), "percentile of one value");
  check(near(percentile({4, 1, 3, 2}, 0.5), 2.5), "unsorted median");
  check(near(percentile({4, 1, 3, 2}, 0.0), 1.0), "p0 is the minimum");
  check(near(percentile({4, 1, 3, 2}, 1.0), 4.0), "p100 is the maximum");
  {
    std::vector<double> v;
    for (int i = 1; i <= 10; ++i) v.push_back(i);
    check(near(percentile(v, 0.9), 9.1), "p90 of 1..10 interpolates");
    std::vector<double> w;
    for (int i = 0; i < 1000; ++i) w.push_back(i);
    check(near(percentile(w, 0.99), 989.01), "p99 of 0..999");
  }

  // search_slo on a synthetic step response: every rate up to 600
  // meets the deadline, everything above it meets half. The search
  // must find the step and interpolate to 600 + 100 * 0.01 / 0.5 = 602.
  std::vector<double> ladder;
  for (int rate = 100; rate <= 1000; rate += 100) ladder.push_back(rate);
  const auto step = [](double rate) {
    return LadderStep{rate, rate <= 600 ? 1.0 : 0.5, true, true};
  };
  const auto search = [&](std::vector<LadderStep> known, auto&& measure) {
    return search_slo(ladder, std::move(known), measure);
  };
  check(near(search({}, step), 602.0), "slo_rps of a step at 600");
  check(near(search({step(200), step(900)}, step), 602.0),
        "search seeded with known steps");
  check(near(search({step(300)}, step), 602.0), "gallop from a known pass");
  check(near(search({}, [&](double r) {
          LadderStep s = step(r);
          s.generator_ok = r <= 600;
          return s;
        }),
             600.0),
        "a step whose generator lagged is left out, not interpolated");
  check(near(search({}, [](double r) { return LadderStep{r, 0.5, true, true}; }),
             0.0),
        "no passing step gives 0");
  check(near(search({}, [](double r) { return LadderStep{r, 1.0, true, true}; }),
             1000.0),
        "every step passing gives the top of the ladder");
  check(near(search({}, [&](double r) {
          LadderStep s = step(r);
          s.backlog_ok = r <= 300;
          return s;
        }),
             300.0),
        "a growing backlog fails the step");

  check(valid_metric_name("nn.kws_cnn1.0_conv.ns_per_mac"), "dotted name");
  check(valid_metric_name("p99_ms-light"), "dash and underscore");
  check(!valid_metric_name(""), "empty name rejected");
  check(!valid_metric_name(".lead"), "leading dot rejected");
  check(!valid_metric_name("a b"), "space rejected");
  check(!valid_metric_name(std::string(65, 'a')), "65 letters rejected");
  return bad;
}

}  // namespace perfbench
