#include "serving.hpp"

#include <algorithm>
#include <atomic>

#include "load/loadgen.hpp"
#include "util/rng.hpp"

namespace perfbench {

using nga::serve::Outcome;
using nga::serve::Response;

namespace {

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double mean_of(const std::vector<double>& v, std::size_t lo, std::size_t hi) {
  double s = 0.0;
  for (std::size_t i = lo; i < hi; ++i) s += v[i];
  return hi > lo ? s / double(hi - lo) : 0.0;
}

std::atomic<std::uint64_t> g_request_id{1};

}  // namespace

void PhaseStats::merge(const PhaseStats& o) {
  sent += o.sent;
  served += o.served;
  rejected += o.rejected;
  shed += o.shed;
  met += o.met;
  agree_exact += o.agree_exact;
  for (std::size_t k = 0; k < tier.size(); ++k) tier[k] += o.tier[k];
  for (const auto& [why, n] : o.reject_reasons) reject_reasons[why] += n;
  lat_ms.insert(lat_ms.end(), o.lat_ms.begin(), o.lat_ms.end());
  lag_ms.insert(lag_ms.end(), o.lag_ms.begin(), o.lag_ms.end());
  depth.insert(depth.end(), o.depth.begin(), o.depth.end());
  wall_s += o.wall_s;
}

void Windows::add(const PhaseStats& s) {
  const bool first = w.empty();
  w.push_back(s);
  pooled.merge(s);
  pooled.rate = s.rate;
  pooled.generator_ok = (first || pooled.generator_ok) && s.generator_ok;
  pooled.backlog_ok = (first || pooled.backlog_ok) && s.backlog_ok;
}

double Windows::latency(double q) const {
  std::vector<double> v;
  for (const auto& s : w) v.push_back(percentile(s.lat_ms, q));
  return median(v);
}

double Windows::goodput() const {
  std::vector<double> v;
  for (const auto& s : w) v.push_back(s.goodput());
  return median(v);
}

double Windows::achieved_rps() const {
  std::vector<double> v;
  for (const auto& s : w) v.push_back(s.achieved_rps);
  return median(v);
}

PhaseStats run_phase(const std::vector<Tenant>& tenants, double rate,
                     double warm_s, double seconds, std::uint64_t seed,
                     const std::string& submit_span, const SubmitFn& submit,
                     const std::function<double()>& depth,
                     const nga::serve::OverloadController* ladder, Result& r) {
  auto& spans = Spans::instance();
  const std::uint32_t fire_id = spans.name_id("load.fire");
  const std::uint32_t submit_id = spans.name_id(submit_span);
  const std::uint32_t request_id = spans.name_id("request");

  PhaseStats st;
  st.rate = rate;
  nga::load::LoadGenConfig lg;
  lg.rps = rate;
  lg.arrivals =
      std::max<std::size_t>(1, std::size_t(rate * (warm_s + seconds) + 0.5));
  lg.seed = seed;
  nga::util::Xoshiro256 pick(seed * 0x9e3779b97f4a7c15ull + 1);

  struct Sent {
    std::uint64_t id;
    Clock::time_point due, t_submit;
    int tenant, input;
    bool measured;  ///< due after the warm-up
    std::future<Response> f;
  };
  std::vector<Sent> sent;
  sent.reserve(lg.arrivals);
  st.lag_ms.reserve(lg.arrivals);
  st.depth.reserve(lg.arrivals);
  const auto deadline = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(kDeadlineMs));

  const auto start = Clock::now();
  const auto measure_from =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(warm_s));
  const auto rep = nga::load::LoadGen(lg).run(
      [&](std::size_t, nga::load::Clock::time_point due) {
        const auto fired = Clock::now();
        const bool measured = due >= measure_from;
        const std::uint64_t id = g_request_id.fetch_add(1);
        spans.record(fire_id, id, due, fired);
        if (measured) {
          st.lag_ms.push_back(ms_between(due, fired));
          st.depth.push_back(depth ? depth() : 0.0);
        }
        const int tn = int(pick() % tenants.size());
        const int in =
            int(pick() % tenants[std::size_t(tn)].inputs.size());
        const auto t0 = Clock::now();
        auto f = submit(tn, tenants[std::size_t(tn)].inputs[std::size_t(in)].x,
                        due + deadline);
        const auto t1 = Clock::now();
        spans.record(submit_id, id, t0, t1);
        sent.push_back(Sent{id, due, t0, tn, in, measured, std::move(f)});
      });
  st.achieved_rps = rep.achieved_rps;

  auto last_done = measure_from;
  std::vector<Clock::time_point> done_at;
  done_at.reserve(sent.size());
  for (Sent& s : sent) {
    const Response resp = s.f.get();
    ++r.attempted;
    const auto done =
        resp.outcome == Outcome::kRejected
            ? s.t_submit
            : s.t_submit + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(
                                   resp.latency_ms));
    done_at.push_back(done);
    spans.record(request_id, s.id, s.due, done);
    const Tenant& t = tenants[std::size_t(s.tenant)];
    const std::size_t k = std::size_t(s.input);
    const int rung = ladder ? ladder->brownout_index(resp.tier) : -1;
    const int want = resp.exact_path ? t.refs.exact[k]
                     : rung >= 0     ? t.refs.rungs[std::size_t(rung)][k]
                                     : t.refs.base[k];
    const bool served = resp.outcome == Outcome::kServed;
    if (served && resp.predicted != want)
      r.fail(t.name + ": served class " + std::to_string(resp.predicted) +
             " != reference " + std::to_string(want) + " (tier " +
             std::to_string(resp.tier) + ")");
    if (!s.measured) continue;
    ++st.sent;
    last_done = std::max(last_done, done);
    if (resp.outcome == Outcome::kRejected) {
      ++st.rejected;
      ++st.reject_reasons[std::string(
          nga::serve::reject_reason_name(resp.reason))];
      continue;
    }
    if (!served) {
      ++st.shed;
      continue;
    }
    ++st.served;
    const double lat = ms_between(s.due, done);
    st.lat_ms.push_back(lat);
    st.tier[std::min<std::size_t>(std::size_t(std::max(resp.tier, 0)),
                                  st.tier.size() - 1)]++;
    st.agree_exact += resp.predicted == t.refs.exact[k] ? 1 : 0;
    if (resp.predicted == want && lat <= kDeadlineMs) ++st.met;
  }
  st.wall_s = std::chrono::duration<double>(last_done - measure_from).count();

  // The generator kept its schedule when its p99 fire lag stayed within
  // a quarter of the deadline. The backlog is the number of requests in the
  // system (submitted, not yet resolved) at each arrival; it grew when
  // it was higher over the last quarter of the phase than over the
  // first by more than one batch.
  st.generator_ok = percentile(st.lag_ms, 0.99) <= kDeadlineMs / 4.0;
  std::vector<double> in_system;
  in_system.reserve(sent.size());
  std::sort(done_at.begin(), done_at.end());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    if (!sent[i].measured) continue;
    const auto resolved = std::upper_bound(done_at.begin(), done_at.end(),
                                           sent[i].t_submit) -
                          done_at.begin();
    in_system.push_back(double(i) - double(resolved));
  }
  const std::size_t q = in_system.size() / 4;
  st.backlog_ok = q == 0 || mean_of(in_system, in_system.size() - q,
                                    in_system.size()) <=
                                mean_of(in_system, 0, q) + 8.0;
  return st;
}

const std::vector<double>& rate_ladder() {
  // 25 req/s apart through today's knees, then coarser: a 10x faster
  // server still finds its SLO on this ladder.
  static const std::vector<double> ladder = [] {
    std::vector<double> v;
    for (double r = 100; r <= 800; r += 25) v.push_back(r);
    for (double r : {900, 1000, 1200, 1400, 1700, 2000, 2500, 3200, 4000,
                     5000, 6400, 8000})
      v.push_back(r);
    return v;
  }();
  return ladder;
}

}  // namespace perfbench
