// Open-loop phases against a serve::Server or shard::ShardedServer:
// Poisson arrivals from nga::load, each request timed from its due
// time and checked against the reference class of the table it ran on.
#pragma once

#include <array>
#include <functional>
#include <map>
#include <future>
#include <string>
#include <vector>

#include "bench.hpp"
#include "fixture.hpp"
#include "serve/overload.hpp"
#include "serve/request.hpp"

namespace perfbench {

constexpr double kDeadlineMs = 80.0;

/// Reference classes of one tenant's inputs on every table it can run.
struct Refs {
  std::vector<int> exact;   ///< exact table (exact_path replies)
  std::vector<int> base;    ///< the configured table (tiers 0 and 1)
  std::vector<std::vector<int>> rungs;  ///< brownout tables, in order
};

/// One client population: which net it talks to and its inputs.
struct Tenant {
  std::string name;
  const Net* net = nullptr;
  nga::nn::Dataset inputs;
  Refs refs;
};

struct PhaseStats {
  double rate = 0.0;  ///< planned arrival rate
  std::size_t sent = 0, served = 0, rejected = 0, shed = 0;
  std::size_t met = 0;          ///< served, correct, within the deadline
  std::size_t agree_exact = 0;  ///< served class == exact-table class
  std::array<std::size_t, 8> tier{};
  std::map<std::string, std::size_t> reject_reasons;
  std::vector<double> lat_ms;     ///< served requests, from due time
  std::vector<double> lag_ms;     ///< now - due at each fire
  std::vector<double> depth;      ///< queue depth at each arrival
  double achieved_rps = 0.0;
  double wall_s = 0.0;  ///< end of the lead-in -> last resolution
  bool generator_ok = true, backlog_ok = true;

  double deadline_met() const { return sent ? double(met) / double(sent) : 0.0; }
  double goodput() const { return wall_s > 0 ? double(met) / wall_s : 0.0; }
  LadderStep step() const {
    return LadderStep{rate, deadline_met(), generator_ok, backlog_ok};
  }
  void merge(const PhaseStats& o);
};

/// The windows of one kind (one rate) a run measured, interleaved in
/// time with the other kinds so a slow spell of the host lands in one
/// window of each kind rather than in all windows of one kind.
struct Windows {
  std::vector<PhaseStats> w;
  PhaseStats pooled;

  void add(const PhaseStats& s);
  /// Median over the windows of each window's q-quantile latency.
  double latency(double q) const;
  /// Median over the windows of each window's goodput.
  double goodput() const;
  /// Median over the windows of each window's achieved arrival rate.
  double achieved_rps() const;
  /// The pooled windows as one step of the rate ladder.
  LadderStep step() const { return pooled.step(); }
};

using SubmitFn = std::function<std::future<nga::serve::Response>(
    int tenant, const nga::nn::Tensor& x, Clock::time_point deadline)>;

/// Drive one open-loop phase: @p rate req/s for @p warm_s + @p seconds,
/// tenants picked uniformly per arrival. Requests due in the first
/// @p warm_s seconds are checked but left out of the statistics.
/// @p ladder maps Response::tier to a brownout table (null: the ladder
/// is off). Every reply is checked; mismatches are reported through @p r.
PhaseStats run_phase(const std::vector<Tenant>& tenants, double rate,
                     double warm_s, double seconds, std::uint64_t seed,
                     const std::string& submit_span, const SubmitFn& submit,
                     const std::function<double()>& depth,
                     const nga::serve::OverloadController* ladder, Result& r);

/// The fixed absolute rate ladder slo_rps is searched on (req/s).
const std::vector<double>& rate_ladder();


}  // namespace perfbench
