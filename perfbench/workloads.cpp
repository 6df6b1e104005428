// The three workloads: kws_serve, eval_offline and tenants_overload.
//
// Each sets up three times (setup_s is the median), then measures in
// kRounds rounds (kEvalRounds on eval_offline). A round holds one window of every kind the workload
// measures (light and heavy traffic on kws_serve, overload traffic on
// tenants_overload, forwards at 1 and 4 threads on eval_offline), so a
// slow spell of the shared host lands in one window of each kind, and
// every reported number is a median over the rounds. Traced runs of the
// serving workloads then search slo_rps on the fixed rate ladder.
// Everything served or forwarded is checked against its reference, and
// every reference against the benchmark's own oracle (oracle.cpp).
#include <algorithm>
#include <array>
#include <cstdio>
#include <tuple>

#include "integrity/scrubber.hpp"
#include "obs/registry.hpp"
#include "serve/server.hpp"
#include "serving.hpp"
#include "shard/ring.hpp"
#include "shard/sharded.hpp"

namespace perfbench {

using namespace nga;
using nn::MulTable;
using serve::Server;
using serve::ServerConfig;

namespace {

constexpr int kInputs = 64;      // test inputs per tenant (serving)
constexpr int kEvalInputs = 24;  // test inputs per net (offline job)
constexpr int kSetups = 3;       // setup_s is the median of this many
constexpr int kRounds = 3;       // measurement rounds per run
// eval_offline's single-thread speed drifts by 10-15% between windows
// of one run with the host's load, so it takes the median of more,
// shorter windows.
constexpr int kEvalRounds = 5;
constexpr int kMaxTier = 4;      // 2 brownout rungs: tiers 0..4

// Window lengths as shares of --seconds. At the 20 s of BENCHMARK.json
// the light kws_serve windows hold 917 arrivals, the heavy ones 1,200
// and the overload windows 5,333.
constexpr double kLightShare = 0.55 / kRounds;  // kws_serve light
constexpr double kHeavyShare = 0.45 / kRounds;  // kws_serve heavy
constexpr double kOverShare = 1.0 / kRounds;    // tenants_overload overload
constexpr double kEvalShare = 0.45 / kEvalRounds;  // eval_offline, per count
constexpr double kStepShare = 0.07;             // one slo_rps ladder step
// Untimed lead-in (s) before 4-thread forward windows and ladder steps.
// On the host the benchmark was defined on, sustained 4-thread load ran
// about twice as fast for its first second or so as it did after that
// (the hypervisor's placement of the vCPUs settles), so a window that
// starts cold reads one of two speeds at random.
constexpr double kSettleS = 1.0;
constexpr double kLayerShare = 0.25;             // traced: layer timings
constexpr double kTracedScale = 0.6;             // traced: the rounds' share

double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::uint64_t window_seed(std::uint64_t seed, int round, int kind) {
  return seed * 1000 + std::uint64_t(round) * 10 + std::uint64_t(kind);
}

struct SetupTimes {
  double total = 0, train = 0, tables = 0, replicas = 0, start = 0;
};

/// setup_s is the median set-up; setup.* is the split of that one.
void report_setup(std::vector<SetupTimes> v, Result& r) {
  std::printf("setup:");
  for (const SetupTimes& t : v)
    std::printf(" %.3f (train %.3f tables %.3f refs %.3f start %.3f)", t.total,
                t.train, t.tables, t.replicas, t.start);
  std::printf(" s\n");
  std::sort(v.begin(), v.end(), [](const SetupTimes& a, const SetupTimes& b) {
    return a.total < b.total;
  });
  const SetupTimes& m = v[v.size() / 2];
  r.set(false, "setup_s", m.total, "s");
  r.set(true, "setup.train_s", m.train, "s");
  r.set(true, "setup.tables_s", m.tables, "s");
  r.set(true, "setup.replicas_s", m.replicas, "s");
  r.set(true, "setup.start_s", m.start, "s");
}

/// Counters of the serve (and, for tenants_overload, shard, overload,
/// quality and integrity) layers over the measured windows.
struct LayerAgg {
  std::uint64_t served = 0, batches = 0, rejected = 0, shed = 0,
                codel_dropped = 0;
  std::uint64_t submitted = 0, tenant_limited = 0, rerouted = 0,
                door_shed = 0, failovers = 0;
  std::uint64_t q_enqueued = 0, q_compared = 0, q_dropped = 0, pages = 0;

  void add_server(const Server::Stats& after, const Server::Stats& before) {
    served += after.served - before.served;
    batches += after.batches - before.batches;
    rejected += after.rejected - before.rejected;
    shed += after.shed - before.shed;
    codel_dropped += after.codel_dropped - before.codel_dropped;
    door_shed += after.overload_shed - before.overload_shed;
  }
};

/// Rows of layers a workload does not drive read 0 there (README.md).
/// Fills only the rows not yet reported.
void idle_layer_defaults(Result& r) {
  const auto zero = [&r](const std::string& n, const char* unit) {
    r.layers.emplace(n, Metric{0.0, unit});
  };
  for (const char* n : {"load.lag_p99_ms", "load.lag_max_ms",
                        "serve.overhead_ms_light"})
    zero(n, "ms");
  zero("nn.scaling_t4", "ratio");
  zero("load.achieved_rps", "req/s");
  for (const char* n : {"serve.submit_us_p50", "serve.submit_us_p99",
                        "shard.submit_us_p50", "shard.submit_us_p99"})
    zero(n, "us");
  for (const char* n : {"load.sent", "serve.queue_depth_p99",
                        "serve.batch_mean", "serve.rejected", "serve.shed",
                        "serve.codel_dropped", "shard.rerouted",
                        "integrity.pages_scanned", "quality.enqueued",
                        "quality.compared"})
    zero(n, "count");
  for (int k = 0; k <= kMaxTier; ++k)
    zero("overload.tier_mix." + std::to_string(k), "fraction");
  for (const char* n : {"overload.door_shed_frac", "shard.tenant_limited_frac",
                        "quality.dropped_frac"})
    zero(n, "fraction");
}

/// Per-layer rows every serving workload reports from its windows.
void report_serving_layers(const PhaseStats& all, const Windows& main,
                           const LayerAgg& a, const std::string& submit,
                           Result& r) {
  r.set(true, "load.lag_p99_ms", percentile(all.lag_ms, 0.99), "ms");
  r.set(true, "load.lag_max_ms", percentile(all.lag_ms, 1.0), "ms");
  r.set(true, "load.achieved_rps", main.achieved_rps(), "req/s");
  r.set(true, "load.sent", double(all.sent), "count");
  const auto sub = Spans::instance().durations_ns(submit);
  r.set(true, submit + "_us_p50", percentile(sub, 0.5) / 1e3, "us");
  r.set(true, submit + "_us_p99", percentile(sub, 0.99) / 1e3, "us");
  r.set(true, "serve.batch_mean",
        a.batches ? double(a.served) / double(a.batches) : 0.0, "count");
  r.set(true, "serve.rejected", double(a.rejected), "count");
  r.set(true, "serve.shed", double(a.shed), "count");
  r.set(true, "serve.codel_dropped", double(a.codel_dropped), "count");
  for (int k = 0; k <= kMaxTier; ++k)
    r.set(true, "overload.tier_mix." + std::to_string(k),
          all.served ? double(all.tier[std::size_t(k)]) / double(all.served)
                     : 0.0,
          "fraction");
}

void print_window(const char* what, const PhaseStats& s) {
  std::printf(
      "window %-9s rate %5.0f sent %5zu served %5zu rejected %4zu shed %4zu "
      "met %.4f p50 %6.2f p99 %6.2f ms (n=%zu) lag p99 %5.2f ms%s%s\n",
      what, s.rate, s.sent, s.served, s.rejected, s.shed, s.deadline_met(),
      percentile(s.lat_ms, 0.5), percentile(s.lat_ms, 0.99), s.lat_ms.size(),
      percentile(s.lag_ms, 0.99), s.generator_ok ? "" : " GENERATOR-LAGGED",
      s.backlog_ok ? "" : " BACKLOG-GREW");
  for (const auto& [why, n] : s.reject_reasons)
    std::printf("  rejected %-18s %zu\n", why.c_str(), n);
}

/// Latency rows: medians over the rounds' windows. The light rows read
/// 0 on a workload without light windows.
void report_latency(const Windows* light, const Windows& main, Result& r) {
  r.set(false, "p50_ms", main.latency(0.5), "ms");
  r.set(false, "p99_ms", main.latency(0.99), "ms");
  r.set(false, "p50_ms_light", light ? light->latency(0.5) : 0.0, "ms");
  r.set(false, "p99_ms_light", light ? light->latency(0.99) : 0.0, "ms");
}

/// A serving workload sweeps no thread count: both fwd_per_s rows read
/// the forwards its server completed (replies served) per second, median
/// over the main windows.
void report_served_forwards(const Windows& main, Result& r) {
  std::vector<double> v;
  for (const auto& s : main.w)
    v.push_back(s.wall_s > 0 ? double(s.served) / s.wall_s : 0.0);
  r.set(false, "fwd_per_s_t1", median(v), "forwards/s");
  r.set(false, "fwd_per_s_t4", median(v), "forwards/s");
}

/// Closed-loop warm-up before the clock starts: one request at a time
/// per tenant until each tenant has seen 8 replies in a row served at
/// tier 0, so every worker has built its replica and the overload
/// ladder (when on) has settled at Normal after the replica builds.
template <class SubmitOne>
void warm_up(int tenants, SubmitOne&& submit_one) {
  std::vector<int> streak(std::size_t(tenants), 0);
  const auto give_up = Clock::now() + std::chrono::seconds(5);
  for (int i = 0; Clock::now() < give_up; ++i) {
    const int t = i % tenants;
    const serve::Response r = submit_one(t, i / tenants).get();
    const bool normal = r.outcome == serve::Outcome::kServed && r.tier == 0;
    streak[std::size_t(t)] = normal ? streak[std::size_t(t)] + 1 : 0;
    if (*std::min_element(streak.begin(), streak.end()) >= 8) return;
  }
}

/// Forward windows at 1 and 4 threads, one pair per call to run().
struct FwdWindows {
  std::vector<FwdResult> t1, t4;

  void run(const std::vector<FwdJob>& jobs, double seconds, Result& r) {
    for (auto* v : {&t1, &t4}) {
      const int threads = v == &t1 ? 1 : 4;
      v->push_back(run_forwards(jobs, threads, seconds, kDeadlineMs,
                                threads > 1 ? kSettleS : 0.0));
      r.attempted += v->back().forwards;
      if (v->back().mismatches)
        r.fail(std::to_string(v->back().mismatches) +
               " forwards differ from the single-thread reference");
    }
  }
  static double rate(const std::vector<FwdResult>& v) {
    std::vector<double> x;
    for (const auto& f : v) x.push_back(f.fwd_per_s);
    return median(x);
  }
  void report(Result& r) const {
    r.set(false, "fwd_per_s_t1", rate(t1), "forwards/s");
    r.set(false, "fwd_per_s_t4", rate(t4), "forwards/s");
    r.set(true, "nn.scaling_t4", rate(t4) / rate(t1), "ratio");
    std::printf("forwards: T=1 %.1f/s  T=4 %.1f/s (median of %zu windows)\n",
                rate(t1), rate(t4), t1.size());
    for (const auto* v : {&t1, &t4}) {
      std::printf("  T=%d windows:", v == &t1 ? 1 : 4);
      for (const FwdResult& f : *v) std::printf(" %.1f", f.fwd_per_s);
      std::printf("\n");
    }
  }
};

/// Trains the nets the per-layer timings need but the workload did not.
void layer_rows(const std::vector<const Net*>& have, double seconds,
                std::uint64_t seed, Result& r) {
  std::vector<std::unique_ptr<Net>> extra;
  std::vector<const Net*> nets;
  for (const char* key : {"kws_cnn1", "kws_cnn2", "resnet_mini"}) {
    const auto it = std::find_if(have.begin(), have.end(),
                                 [&](const Net* n) { return n->key == key; });
    if (it != have.end()) {
      nets.push_back(*it);
    } else {
      extra.push_back(std::make_unique<Net>(train_net(key)));
      nets.push_back(extra.back().get());
    }
  }
  measure_layers(nets, seconds, seed, r);
}

Refs refs_for(const Net& net, const nn::Dataset& in, const MulTable& exact,
              const MulTable& base, const std::vector<const MulTable*>& rungs) {
  Refs f;
  f.exact = reference_classes(net, exact, in);
  f.base = reference_classes(net, base, in);
  for (const MulTable* t : rungs)
    f.rungs.push_back(reference_classes(net, *t, in));
  return f;
}

/// Checks a tenant's reference classes (exact, base table, brownout
/// rungs) against the benchmark's oracle.
void check_tenant(const Tenant& t, const TableSpec& base,
                  const std::vector<TableSpec>& rungs, Result& r) {
  std::vector<std::pair<TableSpec, const std::vector<int>*>> refs = {
      {table_spec("exact"), &t.refs.exact}, {base, &t.refs.base}};
  for (std::size_t k = 0; k < rungs.size(); ++k)
    refs.emplace_back(rungs[k], &t.refs.rungs[k]);
  check_references(*t.net, t.inputs, refs, r);
}

double agreement(const PhaseStats& s) {
  return s.served ? double(s.agree_exact) / double(s.served) : 0.0;
}

// ---- kws_serve -----------------------------------------------------------

// 500 req/s, the rate first proposed for heavy, sits at the knee of this
// server whenever the host is slow: its p50 read 1.7-6.2 ms across
// windows of one run. 400 req/s keeps queueing and batching in play.
constexpr double kLightRps = 250, kHeavyRps = 400;

struct KwsFixture {
  Net net;
  TableSpec trunc1 = table_spec("trunc1");
  std::shared_ptr<const MulTable> exact;
  std::vector<Tenant> tenants;
  std::unique_ptr<Server> server;  ///< started by set-up
};

std::unique_ptr<Server> start_kws(const KwsFixture& fx, std::uint64_t seed) {
  ServerConfig c;
  c.workers = 3;
  c.queue_capacity = 256;
  c.max_batch = 8;
  c.batch_linger = std::chrono::microseconds(300);
  c.in_c = fx.net.in_c;
  c.in_h = fx.net.in_h;
  c.in_w = fx.net.in_w;
  c.mode = nn::Mode::kQuantApprox;
  c.mul_factory = [spec = fx.trunc1] { return build_table(spec); };
  c.exact_fallback = fx.exact.get();
  c.max_attempts = 1;
  c.seed = seed;
  const Net* net = &fx.net;
  c.model_factory = [net] { return net->replica(); };
  auto srv = std::make_unique<Server>(c);
  srv->start();
  const auto& in = fx.tenants[0].inputs;
  warm_up(1, [&](int, int i) {
    return srv->submit(in[std::size_t(i) % in.size()].x,
                       std::chrono::microseconds(10'000'000));
  });
  return srv;
}

std::unique_ptr<KwsFixture> kws_setup(std::uint64_t seed, SetupTimes& t) {
  const auto t0 = Clock::now();
  auto fx = std::make_unique<KwsFixture>();
  fx->net = train_net("kws_cnn1");
  const auto t1 = Clock::now();
  fx->exact = build_table(table_spec("exact"));
  const auto trunc1 = build_table(fx->trunc1);
  const auto t2 = Clock::now();
  Tenant ten;
  ten.name = "kws";
  ten.net = &fx->net;
  ten.inputs = fx->net.inputs(kInputs, seed);
  ten.refs = refs_for(fx->net, ten.inputs, *fx->exact, *trunc1, {});
  fx->tenants.push_back(std::move(ten));
  const auto t3 = Clock::now();
  fx->server = start_kws(*fx, seed);
  const auto t4 = Clock::now();
  t = SetupTimes{secs(t0, t4), secs(t0, t1), secs(t1, t2), secs(t2, t3),
                 secs(t3, t4)};
  return fx;
}

PhaseStats kws_window(Server& srv, const KwsFixture& fx, double rate,
                      double seconds, std::uint64_t seed, Result& r,
                      double warm_s = 0.0) {
  Server* s = &srv;
  return run_phase(
      fx.tenants, rate, warm_s, seconds, seed, "serve.submit",
      [s](int, const nn::Tensor& x, Clock::time_point deadline) {
        return s->submit(x, deadline);
      },
      [s] { return double(s->queue_depth()); }, nullptr, r);
}

void drain_checked(Server& srv, Result& r) {
  srv.drain();
  const auto a = srv.stats();
  if (a.served + a.rejected + a.shed != a.submitted)
    r.fail("kws_serve: served + rejected + shed != submitted after drain");
}

}  // namespace

void run_kws_serve(const Options& o, Result& r) {
  auto& spans = Spans::instance();
  std::vector<SetupTimes> setups(kSetups);
  std::unique_ptr<KwsFixture> fx;
  for (int k = 0; k < kSetups; ++k) {
    fx.reset();
    fx = kws_setup(o.seed, setups[std::size_t(k)]);
    if (k == 0) setups[0].total = since_start_s();  // from process start
  }
  check_tenant(fx->tenants[0], fx->trunc1, {}, r);
  const double S = o.seconds * (o.trace ? kTracedScale : 1.0);
  Server& srv = *fx->server;

  double untraced_p50 = 0.0;
  if (o.trace) {  // tracing overhead: one heavy window with the recorder off
    spans.enable(false);
    untraced_p50 = percentile(kws_window(srv, *fx, kHeavyRps, kHeavyShare * S,
                                         window_seed(o.seed, 9, 0), r)
                                  .lat_ms,
                              0.5);
    spans.enable(true);
  }
  const auto before = srv.stats();
  Windows light, heavy;
  for (int round = 0; round < kRounds; ++round) {
    light.add(kws_window(srv, *fx, kLightRps, kLightShare * S,
                         window_seed(o.seed, round, 1), r));
    print_window("light", light.w.back());
    heavy.add(kws_window(srv, *fx, kHeavyRps, kHeavyShare * S,
                         window_seed(o.seed, round, 2), r));
    print_window("heavy", heavy.w.back());
  }
  drain_checked(srv, r);
  LayerAgg agg;
  agg.add_server(srv.stats(), before);

  PhaseStats both = light.pooled;
  both.merge(heavy.pooled);
  report_setup(setups, r);
  report_latency(&light, heavy, r);
  report_served_forwards(heavy, r);
  r.set(false, "deadline_met", both.deadline_met(), "fraction");
  r.set(false, "goodput_rps", heavy.goodput(), "req/s");
  r.set(false, "exact_agreement", agreement(both), "fraction");

  if (!o.trace) return;
  int step = 0;
  const double slo = search_slo(
      rate_ladder(), {light.step(), heavy.step()}, [&](double rate) {
        auto s = start_kws(*fx, o.seed);
        const PhaseStats st = kws_window(*s, *fx, rate, kStepShare * S,
                                         window_seed(o.seed, 5, step++), r,
                                         kSettleS);
        drain_checked(*s, r);
        print_window("ladder", st);
        return st.step();
      });
  r.set(true, "slo_rps", slo, "req/s");
  std::printf("kws_serve: slo_rps %.1f\n", slo);
  idle_layer_defaults(r);
  report_serving_layers(both, heavy, agg, "serve.submit", r);
  r.set(true, "serve.queue_depth_p99", percentile(both.depth, 0.99), "count");
  layer_rows({&fx->net}, kLayerShare * o.seconds, o.seed, r);
  r.set(true, "serve.overhead_ms_light",
        light.latency(0.5) - r.layers["nn.kws_cnn1.trunc1.fwd_us"].value / 1e3,
        "ms");
  r.set(true, "trace.overhead_frac", heavy.latency(0.5) / untraced_p50 - 1.0,
        "fraction");
}

// ---- eval_offline --------------------------------------------------------

namespace {

constexpr std::array<const char*, 3> kEvalTables = {"exact", "trunc1",
                                                   "mitch_t2"};

struct EvalFixture {
  std::vector<std::unique_ptr<Net>> nets;
  std::vector<std::shared_ptr<const MulTable>> tables;  // exact first
  std::vector<nn::Dataset> inputs;                      // per net
  std::vector<std::vector<std::vector<int>>> ref;       // [net][table]
  std::vector<FwdJob> jobs;
};

std::unique_ptr<EvalFixture> eval_setup(std::uint64_t seed, SetupTimes& t) {
  const auto t0 = Clock::now();
  auto fx = std::make_unique<EvalFixture>();
  for (const char* key : {"kws_cnn1", "kws_cnn2", "resnet_mini"})
    fx->nets.push_back(std::make_unique<Net>(train_net(key)));
  const auto t1 = Clock::now();
  for (const char* key : kEvalTables)
    fx->tables.push_back(build_table(table_spec(key)));
  const auto t2 = Clock::now();
  for (const auto& net : fx->nets) {
    fx->inputs.push_back(net->inputs(kEvalInputs, seed));
    fx->ref.emplace_back();
    for (const auto& table : fx->tables)
      fx->ref.back().push_back(
          reference_classes(*net, *table, fx->inputs.back()));
  }
  for (std::size_t n = 0; n < fx->nets.size(); ++n)
    for (std::size_t k = 0; k < fx->tables.size(); ++k)
      fx->jobs.push_back(FwdJob{fx->nets[n].get(), fx->tables[k].get(),
                                &fx->inputs[n], &fx->ref[n][k],
                                k == 0 ? nullptr : &fx->ref[n][0]});
  const auto t3 = Clock::now();
  t = SetupTimes{secs(t0, t3), secs(t0, t1), secs(t1, t2), secs(t2, t3), 0.0};
  return fx;
}

double fwd_latency(const std::vector<FwdResult>& v, double q) {
  std::vector<double> x;
  for (const auto& f : v) x.push_back(percentile(f.fwd_ms, q));
  return median(x);
}

}  // namespace

void run_eval_offline(const Options& o, Result& r) {
  auto& spans = Spans::instance();
  std::vector<SetupTimes> setups(kSetups);
  std::unique_ptr<EvalFixture> fx;
  for (int k = 0; k < kSetups; ++k) {
    fx.reset();
    fx = eval_setup(o.seed, setups[std::size_t(k)]);
    if (k == 0) setups[0].total = since_start_s();  // from process start
  }
  for (std::size_t n = 0; n < fx->nets.size(); ++n) {
    std::vector<std::pair<TableSpec, const std::vector<int>*>> refs;
    for (std::size_t k = 0; k < kEvalTables.size(); ++k)
      refs.emplace_back(table_spec(kEvalTables[k]), &fx->ref[n][k]);
    check_references(*fx->nets[n], fx->inputs[n], refs, r);
  }
  const double S = o.seconds * (o.trace ? kTracedScale : 1.0);
  double untraced_t1 = 0.0;
  if (o.trace) {  // tracing overhead: one T=1 window with the recorder off
    spans.enable(false);
    untraced_t1 =
        run_forwards(fx->jobs, 1, kEvalShare * S, kDeadlineMs).fwd_per_s;
    spans.enable(true);
  }
  FwdWindows fwd;
  for (int round = 0; round < kEvalRounds; ++round)
    fwd.run(fx->jobs, kEvalShare * S, r);

  std::uint64_t approx = 0, agree = 0, met = 0, done = 0;
  double wall = 0.0;
  for (const auto* v : {&fwd.t1, &fwd.t4})
    for (const FwdResult& f : *v) {
      approx += f.approx_forwards;
      agree += f.agree_exact;
      met += f.in_deadline;
      done += f.forwards;
      wall += f.wall_s;
    }
  report_setup(setups, r);
  fwd.report(r);
  r.set(false, "deadline_met", double(met) / double(done), "fraction");
  r.set(false, "p50_ms", fwd_latency(fwd.t4, 0.5), "ms");
  r.set(false, "p99_ms", fwd_latency(fwd.t4, 0.99), "ms");
  r.set(false, "p50_ms_light", fwd_latency(fwd.t1, 0.5), "ms");
  r.set(false, "p99_ms_light", fwd_latency(fwd.t1, 0.99), "ms");
  r.set(false, "goodput_rps", double(met) / wall, "req/s");
  r.set(false, "exact_agreement", approx ? double(agree) / double(approx) : 0,
        "fraction");

  if (!o.trace) return;
  std::vector<double> slo;
  for (const FwdResult& f : fwd.t4)
    slo.push_back(double(f.in_deadline) / f.wall_s);
  r.set(true, "slo_rps", median(slo), "req/s");
  idle_layer_defaults(r);
  std::vector<const Net*> nets;
  for (const auto& n : fx->nets) nets.push_back(n.get());
  layer_rows(nets, kLayerShare * o.seconds, o.seed, r);
  r.set(true, "trace.overhead_frac",
        untraced_t1 / FwdWindows::rate(fwd.t1) - 1.0, "fraction");
}

// ---- tenants_overload ----------------------------------------------------

namespace {

// Above the knee of this server in every state of the shared host seen:
// its slo_rps read 230-426 req/s, moving within minutes. At 400 req/s,
// inside that range, deadline_met read 0.70-1.0 and goodput_rps 286-395
// req/s depending on where the knee sat. Twice as far above it, the
// overload controls set goodput_rps, which read 307-309 req/s while the
// knee moved from 303 to 230 req/s.
constexpr double kTenantsOverRps = 800;

serve::OverloadConfig ladder_config() {
  serve::OverloadConfig c;
  c.enabled = true;
  c.enter_ms = 4.0;
  c.exit_ms = 1.0;
  c.dwell = std::chrono::milliseconds(80);
  c.ewma_alpha = 0.15;
  c.shed_fraction = 0.5;
  return c;
}

struct TenantsFixture {
  Net cnn1, cnn2;
  std::shared_ptr<const MulTable> exact;
  TableSpec a_base = table_spec("trunc1"), b_base = table_spec("mitch");
  std::vector<TableSpec> rungs = {table_spec("trunc6"),
                                  table_spec("mitch_t2")};
  std::vector<Tenant> tenants;  ///< [0] = "a" (KWS-CNN1), [1] = "b" (KWS-CNN2)
  std::uint64_t ring_seed = 1;
  int shard_a = 0;
  serve::OverloadController ladder{ladder_config(), 2};
  std::unique_ptr<shard::ShardedServer> server;  ///< started by set-up
};

ServerConfig tenant_shard_config(const TenantsFixture& fx, int shard,
                                 std::uint64_t seed) {
  const bool is_a = shard == fx.shard_a;
  const Net* net = is_a ? &fx.cnn1 : &fx.cnn2;
  ServerConfig c;
  c.workers = is_a ? 1 : 2;  // 3 in total; KWS-CNN2 costs ~2.6x KWS-CNN1
  c.queue_capacity = 256;
  c.max_batch = 8;
  c.batch_linger = std::chrono::microseconds(300);
  c.in_c = net->in_c;
  c.in_h = net->in_h;
  c.in_w = net->in_w;
  c.mode = nn::Mode::kQuantApprox;
  c.mul_factory = [spec = is_a ? fx.a_base : fx.b_base] {
    return build_table(spec);
  };
  c.exact_fallback = fx.exact.get();
  c.max_attempts = 1;
  c.seed = seed + std::uint64_t(shard);
  c.model_factory = [net] { return net->replica(); };
  c.codel.enabled = true;
  c.codel.target = std::chrono::milliseconds(4);
  c.codel.interval = std::chrono::milliseconds(12);
  c.overload = ladder_config();
  for (const TableSpec& spec : fx.rungs)
    c.brownout_tables.push_back([spec] { return build_table(spec); });
  c.quality.sample_rate = 0.10;
  c.quality.seed = seed;
  c.integrity.enabled = true;
  c.integrity.pages_per_sec = 1024.0;
  return c;
}

std::unique_ptr<shard::ShardedServer> start_tenants(const TenantsFixture& fx,
                                                    std::uint64_t seed) {
  shard::ShardedConfig c;
  c.shards = 2;
  c.vnodes = 64;
  c.seed = fx.ring_seed;
  c.shard_config = [&fx, seed](int shard) {
    return tenant_shard_config(fx, shard, seed);
  };
  c.tenant.enabled = true;
  c.tenant.admission.enabled = true;
  c.tenant.admission.min_limit = 4;
  c.tenant.admission.max_limit = 64;
  c.tenant.admission.initial_limit = 32;
  c.tenant.admission.max_shed_rate = 0.10;
  c.tenant.admission.adjust_every = 32;
  auto srv = std::make_unique<shard::ShardedServer>(c);
  srv->start();
  warm_up(2, [&](int tenant, int i) {
    const Tenant& t = fx.tenants[std::size_t(tenant)];
    return srv->submit(t.name, t.inputs[std::size_t(i) % t.inputs.size()].x,
                       std::chrono::microseconds(10'000'000));
  });
  return srv;
}

std::unique_ptr<TenantsFixture> tenants_setup(std::uint64_t seed,
                                              SetupTimes& t) {
  const auto t0 = Clock::now();
  auto fx = std::make_unique<TenantsFixture>();
  fx->cnn1 = train_net("kws_cnn1");
  fx->cnn2 = train_net("kws_cnn2");
  const auto t1 = Clock::now();
  fx->exact = build_table(table_spec("exact"));
  const auto a_base = build_table(fx->a_base), b_base = build_table(fx->b_base);
  std::vector<std::shared_ptr<const MulTable>> rungs;
  for (const auto& spec : fx->rungs) rungs.push_back(build_table(spec));
  const auto t2 = Clock::now();
  const std::vector<const MulTable*> rung_ptrs = {rungs[0].get(),
                                                  rungs[1].get()};
  for (const auto& [name, net, base, s] :
       {std::tuple{"a", &fx->cnn1, a_base.get(), seed},
        std::tuple{"b", &fx->cnn2, b_base.get(), seed + 1}}) {
    Tenant ten;
    ten.name = name;
    ten.net = net;
    ten.inputs = net->inputs(kInputs, s);
    ten.refs = refs_for(*net, ten.inputs, *fx->exact, *base, rung_ptrs);
    fx->tenants.push_back(std::move(ten));
  }
  // Pin the two tenants to different shards: the first ring seed that
  // separates them (deterministic, so every run uses the same layout).
  using shard::ConsistentHashRing;
  for (fx->ring_seed = 1;; ++fx->ring_seed) {
    ConsistentHashRing ring(fx->ring_seed, 64);
    ring.add(0);
    ring.add(1);
    fx->shard_a = ring.route(ConsistentHashRing::tenant_key("a"));
    if (fx->shard_a != ring.route(ConsistentHashRing::tenant_key("b"))) break;
  }
  const auto t3 = Clock::now();
  fx->server = start_tenants(*fx, seed);
  const auto t4 = Clock::now();
  t = SetupTimes{secs(t0, t4), secs(t0, t1), secs(t1, t2), secs(t2, t3),
                 secs(t3, t4)};
  return fx;
}

/// One window on a fresh ShardedServer (the overload ladder and tenant
/// budgets adapt, so every window starts from the same state).
PhaseStats tenants_window(TenantsFixture& fx, double rate, double seconds,
                          std::uint64_t seed, LayerAgg& agg, Result& r,
                          double warm_s = 0.0) {
  auto srv = fx.server ? std::move(fx.server) : start_tenants(fx, seed);
  auto& reg = obs::MetricsRegistry::instance();
  const auto q = [&](const char* n) { return reg.counter(n).value(); };
  const auto enq0 = q("quality.shadow.enqueued"),
             cmp0 = q("quality.shadow.compared"),
             drop0 = q("quality.shadow.dropped");
  const auto pages0 = integrity::Scrubber::instance().stats().pages_scanned;
  const auto before = srv->stats();
  Server::Stats shard_before[2];
  for (int i = 0; i < 2; ++i) shard_before[i] = srv->shard_stats(i);

  shard::ShardedServer* s = srv.get();
  const auto& tenants = fx.tenants;
  PhaseStats st = run_phase(
      fx.tenants, rate, warm_s, seconds, seed, "shard.submit",
      [s, &tenants](int tn, const nn::Tensor& x, Clock::time_point deadline) {
        return s->submit(tenants[std::size_t(tn)].name, x, deadline);
      },
      nullptr, &fx.ladder, r);
  srv->drain();
  if (!srv->accounting().ok())
    r.fail("tenants_overload: ShardedServer::accounting() is not ok");
  for (int i = 0; i < 2; ++i) {
    const auto a = srv->shard_stats(i);
    if (a.served + a.rejected + a.shed != a.submitted)
      r.fail("tenants_overload: shard served + rejected + shed != submitted");
    agg.add_server(a, shard_before[i]);
  }
  const auto after = srv->stats();
  agg.submitted += after.submitted - before.submitted;
  agg.tenant_limited += after.tenant_limited - before.tenant_limited;
  agg.rerouted += after.rerouted - before.rerouted;
  agg.failovers += after.failovers - before.failovers;
  agg.q_enqueued += q("quality.shadow.enqueued") - enq0;
  agg.q_compared += q("quality.shadow.compared") - cmp0;
  agg.q_dropped += q("quality.shadow.dropped") - drop0;
  agg.pages += integrity::Scrubber::instance().stats().pages_scanned - pages0;
  return st;
}

}  // namespace

void run_tenants_overload(const Options& o, Result& r) {
  auto& spans = Spans::instance();
  std::vector<SetupTimes> setups(kSetups);
  std::unique_ptr<TenantsFixture> fx;
  for (int k = 0; k < kSetups; ++k) {
    fx.reset();
    fx = tenants_setup(o.seed, setups[std::size_t(k)]);
    if (k == 0) setups[0].total = since_start_s();  // from process start
  }
  check_tenant(fx->tenants[0], fx->a_base, fx->rungs, r);
  check_tenant(fx->tenants[1], fx->b_base, fx->rungs, r);
  const double S = o.seconds * (o.trace ? kTracedScale : 1.0);
  LayerAgg agg, scratch;
  double untraced_goodput = 0.0;
  if (o.trace) {  // tracing overhead: one overload window, recorder off
    spans.enable(false);
    untraced_goodput = tenants_window(*fx, kTenantsOverRps, kOverShare * S,
                                      window_seed(o.seed, 9, 0), scratch, r)
                           .goodput();
    spans.enable(true);
  }
  Windows over;
  for (int round = 0; round < kRounds; ++round) {
    over.add(tenants_window(*fx, kTenantsOverRps, kOverShare * S,
                            window_seed(o.seed, round, 2), agg, r));
    print_window("overload", over.w.back());
  }
  double slo = 0.0;
  if (o.trace) {
    int step = 0;
    slo = search_slo(rate_ladder(), {over.step()}, [&](double rate) {
      const PhaseStats st =
          tenants_window(*fx, rate, kStepShare * S,
                         window_seed(o.seed, 5, step++), scratch, r, kSettleS);
      print_window("ladder", st);
      return st.step();
    });
  }
  if (agg.failovers + scratch.failovers)
    std::printf("tenants_overload: %llu shard failovers during the run\n",
                static_cast<unsigned long long>(agg.failovers +
                                                scratch.failovers));

  report_setup(setups, r);
  report_latency(nullptr, over, r);
  report_served_forwards(over, r);
  r.set(false, "deadline_met", over.pooled.deadline_met(), "fraction");
  r.set(false, "goodput_rps", over.goodput(), "req/s");
  r.set(false, "exact_agreement", agreement(over.pooled), "fraction");
  std::printf("tenants_overload: door shed %llu, tenant-limited %llu of %llu\n",
              static_cast<unsigned long long>(agg.door_shed),
              static_cast<unsigned long long>(agg.tenant_limited),
              static_cast<unsigned long long>(agg.submitted));

  if (!o.trace) return;
  r.set(true, "slo_rps", slo, "req/s");
  std::printf("tenants_overload: slo_rps %.1f\n", slo);
  idle_layer_defaults(r);
  report_serving_layers(over.pooled, over, agg, "shard.submit", r);
  const double sub = double(agg.submitted);
  r.set(true, "overload.door_shed_frac", sub ? agg.door_shed / sub : 0.0,
        "fraction");
  r.set(true, "shard.tenant_limited_frac", sub ? agg.tenant_limited / sub : 0.0,
        "fraction");
  r.set(true, "shard.rerouted", double(agg.rerouted), "count");
  r.set(true, "quality.enqueued", double(agg.q_enqueued), "count");
  r.set(true, "quality.compared", double(agg.q_compared), "count");
  r.set(true, "quality.dropped_frac",
        agg.q_enqueued ? double(agg.q_dropped) / double(agg.q_enqueued) : 0.0,
        "fraction");
  r.set(true, "integrity.pages_scanned", double(agg.pages), "count");
  layer_rows({&fx->cnn1, &fx->cnn2}, kLayerShare * o.seconds, o.seed, r);
  r.set(true, "trace.overhead_frac", untraced_goodput / over.goodput() - 1.0,
        "fraction");
}

}  // namespace perfbench
