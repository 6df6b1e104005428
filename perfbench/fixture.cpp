// Fixture, reference classes, closed-loop forwards and the per-layer
// timing harness.
#include "fixture.hpp"

#include <algorithm>
#include <atomic>
#include <latch>
#include <map>
#include <stdexcept>
#include <thread>

#include "nn/data.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace nga;
using namespace nga::nn;

namespace {

constexpr int kT = 16, kMel = 12, kImg = 16;
constexpr int kCalibSamples = 32;

/// The layers of net @p key in Model order (mirrors make_kws_cnn1,
/// make_kws_cnn2 and make_resnet_mini); weights come from a snapshot.
std::vector<std::unique_ptr<Layer>> make_chain(const std::string& key) {
  util::Xoshiro256 rng(1);
  std::vector<std::unique_ptr<Layer>> l;
  if (key == "resnet_mini") {
    l.push_back(std::make_unique<Conv2D>(3, 8, 3, 1, rng));
    l.push_back(std::make_unique<ReLU>());
    l.push_back(std::make_unique<ResidualBlock>(8, 8, 1, rng));
    l.push_back(std::make_unique<ResidualBlock>(8, 12, 2, rng));
    l.push_back(std::make_unique<ResidualBlock>(12, 16, 2, rng));
  } else {
    l.push_back(std::make_unique<Conv2D>(1, 8, 3, 1, rng));
    l.push_back(std::make_unique<ReLU>());
    l.push_back(std::make_unique<MaxPool2>());
    l.push_back(std::make_unique<Conv2D>(8, 16, 3, 1, rng));
    l.push_back(std::make_unique<ReLU>());
    if (key == "kws_cnn2") {
      l.push_back(std::make_unique<Conv2D>(16, 16, 3, 1, rng));
      l.push_back(std::make_unique<ReLU>());
    }
  }
  l.push_back(std::make_unique<GlobalAvgPool>());
  l.push_back(std::make_unique<Dense>(16, 10, rng));
  return l;
}

Model make_model(const std::string& key) {
  if (key == "kws_cnn1") return make_kws_cnn1(kT, kMel, 3);
  if (key == "kws_cnn2") return make_kws_cnn2(kT, kMel, 5);
  if (key == "resnet_mini") return make_resnet_mini(kImg, 9);
  throw std::invalid_argument("perfbench: unknown net " + key);
}

std::string kind_of(const Layer& l) {
  const std::string n = l.name();
  return n == "maxpool2" ? "maxpool" : n;
}

bool same(const Tensor& a, const Tensor& b) {
  return a.c == b.c && a.h == b.h && a.w == b.w && a.v == b.v;
}

}  // namespace

std::unique_ptr<Model> Net::replica() const {
  auto m = std::make_unique<Model>(make_model(key));
  m->restore(snap);
  calibrate(*m, calib, kCalibSamples);
  return m;
}

Dataset Net::inputs(int n, std::uint64_t seed) const {
  const std::uint64_t s = seed * 7919u + std::uint64_t(in_c) * 31u + 17u;
  return in_c == 3 ? make_synth_images(n, kImg, s)
                   : make_synth_kws(n, kT, kMel, s);
}

Net train_net(const std::string& key) {
  Net net;
  net.key = key;
  TrainConfig tc;
  tc.seed = 4;
  if (key == "resnet_mini") {
    net.in_c = 3;
    net.in_h = net.in_w = kImg;
    net.calib = make_synth_images(96, kImg, 7);
    tc.epochs = 3;
    tc.lr = 0.04f;
    tc.lr_late = 0.015f;
  } else {
    net.in_c = 1;
    net.in_h = kT;
    net.in_w = kMel;
    net.calib = make_synth_kws(192, kT, kMel, 1);
    tc.epochs = key == "kws_cnn1" ? 8 : 4;
    tc.lr = 0.08f;
    tc.lr_late = 0.03f;
  }
  Model m = make_model(key);
  train(m, net.calib, tc);
  net.snap = m.snapshot();
  return net;
}

TableSpec table_spec(const std::string& key) {
  TableSpec t{key, nullptr};
  if (key == "trunc1") t.gen = ax::make_truncated(1);
  else if (key == "trunc6") t.gen = ax::make_truncated(6);
  else if (key == "mitch") t.gen = ax::make_mitchell();
  else if (key == "mitch_t2") t.gen = ax::make_truncated_mitchell(2);
  else if (key != "exact")
    throw std::invalid_argument("perfbench: unknown table " + key);
  return t;
}

std::shared_ptr<const MulTable> build_table(const TableSpec& t) {
  static const std::uint32_t span = Spans::instance().name_id("quant.table_build");
  SpanScope s(span, 0);
  return t.gen ? std::make_shared<const MulTable>(t.gen)
               : std::make_shared<const MulTable>();
}

int argmax(const Tensor& logits) {
  int best = 0;
  for (int i = 1; i < int(logits.v.size()); ++i)
    if (logits.v[std::size_t(i)] > logits.v[std::size_t(best)]) best = i;
  return best;
}

std::vector<int> reference_classes(const Net& net, const MulTable& table,
                                   const Dataset& inputs) {
  auto m = net.replica();
  Exec ex;
  ex.mode = Mode::kQuantApprox;
  ex.mul = &table;
  std::vector<int> out;
  out.reserve(inputs.size());
  for (const Sample& s : inputs) out.push_back(argmax(m->forward(s.x, ex)));
  return out;
}

FwdResult run_forwards(const std::vector<FwdJob>& jobs, int threads,
                       double seconds, double deadline_ms, double warm_s) {
  static const std::uint32_t span = Spans::instance().name_id("nn.forward");
  std::vector<std::pair<std::size_t, std::size_t>> items;  // (job, input)
  for (std::size_t j = 0; j < jobs.size(); ++j)
    for (std::size_t k = 0; k < jobs[j].inputs->size(); ++k)
      items.emplace_back(j, k);
  const std::uint64_t n = items.size();

  struct Done {
    std::uint64_t item;  ///< index in the endless walk over items
    double ms;
    Clock::time_point t1;
    bool ok, approx, agree;
  };
  struct PerThread {
    std::uint64_t mismatches = 0;
    std::vector<Done> done;
  };
  std::vector<PerThread> per(static_cast<std::size_t>(threads));
  std::atomic<std::uint64_t> next{0};
  std::atomic<std::uint64_t> ids{0};
  // The window covers whole passes over the items: from the first pass
  // taken at or after t_start to the first pass taken at or after t_end.
  // A forward costs 0.6 to 6 ms depending on the net, so a window cut
  // mid-pass would count more forwards when it ended among cheap items.
  constexpr std::uint64_t kUnset = ~std::uint64_t{0};
  std::atomic<std::uint64_t> begin{kUnset}, end{kUnset};
  Clock::time_point t_begin{};
  std::latch ready(threads + 1), go(1);
  Clock::time_point t_start{}, t_end{};
  const auto body = [&](PerThread& me) {
    // Each thread owns its replicas, built before the clock starts.
    std::map<const Net*, std::unique_ptr<Model>> models;
    for (const FwdJob& job : jobs)
      if (!models.count(job.net)) models[job.net] = job.net->replica();
    ready.count_down();
    go.wait();
    Exec ex;
    ex.mode = Mode::kQuantApprox;
    for (;;) {
      const std::uint64_t i = next.fetch_add(1);
      if (i >= end.load()) break;
      if (i % n == 0) {  // a pass starts
        const auto now = Clock::now();
        const std::uint64_t b = begin.load();
        if (b != kUnset && i > b && now >= t_end) {
          end.store(i);
          break;
        }
        std::uint64_t unset = kUnset;
        if (now >= t_start && begin.compare_exchange_strong(unset, i))
          t_begin = now;
      }
      const auto& [j, k] = items[i % n];
      const FwdJob& job = jobs[j];
      ex.mul = job.table;
      const std::uint64_t id = ids.fetch_add(1);
      const auto t0 = Clock::now();
      const int cls = argmax(models[job.net]->forward((*job.inputs)[k].x, ex));
      const auto t1 = Clock::now();
      Spans::instance().record(span, id, t0, t1);
      const bool ok = cls == (*job.ref)[k];
      me.mismatches += ok ? 0 : 1;
      me.done.push_back(
          Done{i, std::chrono::duration<double, std::milli>(t1 - t0).count(),
               t1, ok, job.exact_ref != nullptr,
               job.exact_ref && cls == (*job.exact_ref)[k]});
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t)
    pool.emplace_back(body, std::ref(per[std::size_t(t)]));
  ready.arrive_and_wait();
  const auto secs = [](double s) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
  };
  t_start = Clock::now() + secs(warm_s);
  t_end = t_start + secs(seconds);
  go.count_down();
  for (auto& th : pool) th.join();

  // Forwards outside the window (warm-up, or taken after the last pass
  // began) are checked but not timed.
  FwdResult r;
  const std::uint64_t b = begin.load(), e = end.load();
  Clock::time_point t_done = t_begin;
  for (const PerThread& p : per) {
    r.mismatches += p.mismatches;
    for (const Done& d : p.done) {
      if (d.item < b || d.item >= e) continue;
      ++r.forwards;
      r.in_deadline += d.ok && d.ms <= deadline_ms ? 1 : 0;
      r.approx_forwards += d.approx ? 1 : 0;
      r.agree_exact += d.agree ? 1 : 0;
      r.fwd_ms.push_back(d.ms);
      t_done = std::max(t_done, d.t1);
    }
  }
  r.wall_s = std::chrono::duration<double>(t_done - t_begin).count();
  r.fwd_per_s = r.wall_s > 0 ? double(r.forwards) / r.wall_s : 0.0;
  return r;
}

// ---- per-layer timings -------------------------------------------------

namespace {

/// Single-thread Model::forward time (us) of @p net on each table, from
/// nn.<net>.<table>.fwd spans; the tables take turns so drift in the
/// host's speed hits them alike.
void time_forward(const Net& net,
                  const std::vector<std::pair<std::string, const MulTable*>>& tables,
                  const Dataset& inputs, double seconds, Result& r) {
  std::vector<std::string> names;
  std::vector<std::uint32_t> spans;
  for (const auto& [key, table] : tables) {
    names.push_back("nn." + net.key + "." + key + ".fwd");
    spans.push_back(Spans::instance().name_id(names.back()));
  }
  auto m = net.replica();
  Exec ex;
  ex.mode = Mode::kQuantApprox;
  const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
  for (std::uint64_t i = 0; i < 3 || Clock::now() < end; ++i)
    for (std::size_t k = 0; k < tables.size(); ++k) {
      ex.mul = tables[k].second;
      SpanScope s(spans[k], i);
      m->forward(inputs[i % inputs.size()].x, ex);
    }
  for (const auto& name : names)
    r.set(true, name + "_us",
          median(Spans::instance().durations_ns(name)) / 1e3, "us");
}

/// Each Layer::forward of @p net on the previous layer's real output.
void time_chain(const Net& net, const MulTable& table, const Dataset& inputs,
                double seconds, Result& r) {
  auto chain = make_chain(net.key);
  {
    std::vector<std::vector<float>*> state;
    for (auto& l : chain) l->collect_state(state);
    if (state.size() != net.snap.size()) {
      r.fail(net.key + ": layer chain does not match the model's state");
      return;
    }
    for (std::size_t i = 0; i < state.size(); ++i) *state[i] = net.snap[i];
    Exec cal;
    cal.calibrate = true;
    for (int i = 0; i < kCalibSamples && i < int(net.calib.size()); ++i) {
      Tensor t = net.calib[std::size_t(i)].x;
      for (auto& l : chain) t = l->forward(t, cal);
    }
  }
  std::vector<std::string> names;
  std::vector<std::uint32_t> spans;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    names.push_back("nn." + net.key + "." + std::to_string(i) + "_" +
                    kind_of(*chain[i]));
    spans.push_back(Spans::instance().name_id(names.back()));
  }
  // Each iteration runs the chain and then Model::forward on the same
  // input, so the decomposition ratio compares like with like.
  const std::uint32_t fwd_span =
      Spans::instance().name_id("nn." + net.key + ".model_fwd");
  auto model = net.replica();
  Exec ex;
  ex.mode = Mode::kQuantApprox;
  ex.mul = &table;
  std::vector<double> ratios;
  const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
  for (std::uint64_t n = 0; n < 3 || Clock::now() < end; ++n) {
    const Tensor& x = inputs[n % inputs.size()].x;
    Tensor t = x;
    Clock::duration layers_sum{};
    for (std::size_t i = 0; i < chain.size(); ++i) {
      const auto t0 = Clock::now();
      t = chain[i]->forward(t, ex);
      const auto t1 = Clock::now();
      Spans::instance().record(spans[i], n, t0, t1);
      layers_sum += t1 - t0;
    }
    const auto t0 = Clock::now();
    const Tensor y = model->forward(x, ex);
    const auto t1 = Clock::now();
    Spans::instance().record(fwd_span, n, t0, t1);
    ratios.push_back(std::chrono::duration<double>(layers_sum).count() /
                     std::chrono::duration<double>(t1 - t0).count());
    // Decomposition check: the hand-built chain must reproduce
    // Model::forward bit for bit, or its timings describe another net.
    if (!same(t, y))
      r.fail(net.key + ": layer chain output differs from Model::forward");
  }
  for (std::size_t i = 0; i < chain.size(); ++i) {
    const double ns = median(Spans::instance().durations_ns(names[i]));
    const std::uint64_t macs = chain[i]->macs();
    if (macs > 0)
      r.set(true, names[i] + ".ns_per_mac", ns / double(macs), "ns/MAC");
    else
      r.set(true, names[i] + ".ns", ns, "ns");
  }
  r.set(true, "nn." + net.key + ".layer_sum_ratio", median(ratios), "ratio");
}

/// MulTable::mul over a seeded operand stream, one table per thread.
double probe_ns(int threads, double seconds, std::uint64_t seed) {
  constexpr std::size_t kChunk = 4096;
  const std::string name = "quant.probe_t" + std::to_string(threads);
  const std::uint32_t span = Spans::instance().name_id(name);
  std::vector<std::uint8_t> ops(2 * kChunk * 16);
  util::Xoshiro256 rng(seed ^ 0x5eedu);
  for (auto& b : ops) b = std::uint8_t(rng() & 0xffu);
  const TableSpec spec = table_spec("trunc1");
  std::atomic<std::uint64_t> sink{0};
  std::latch ready(threads + 1), go(1);
  Clock::time_point end{};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t)
    pool.emplace_back([&, t] {
      const auto table = build_table(spec);
      ready.count_down();
      go.wait();
      std::uint64_t acc = 0, id = 0;
      std::size_t off = std::size_t(t) * 2 * kChunk;
      while (Clock::now() < end) {
        SpanScope s(span, id++);
        for (std::size_t i = 0; i < kChunk; ++i)
          acc += table->mul(ops[off + 2 * i], ops[off + 2 * i + 1]);
        off = (off + 2 * kChunk) % ops.size();
      }
      sink.fetch_add(acc);
    });
  ready.arrive_and_wait();
  end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
  go.count_down();
  for (auto& th : pool) th.join();
  if (sink.load() == 0) return 0.0;  // keeps the loads observable
  return median(Spans::instance().durations_ns(name)) / double(kChunk);
}

}  // namespace

void measure_layers(const std::vector<const Net*>& nets, double seconds,
                    std::uint64_t seed, Result& r) {
  std::map<std::string, std::shared_ptr<const MulTable>> tables;
  std::vector<std::pair<std::string, const MulTable*>> turns;
  for (const char* k : {"exact", "trunc1", "mitch_t2"}) {
    tables[k] = build_table(table_spec(k));
    turns.emplace_back(k, tables[k].get());
  }
  const double slice = seconds / double(nets.size() * 5 + 3);
  for (const Net* net : nets) {
    const Dataset in = net->inputs(8, seed);
    time_forward(*net, turns, in, 3 * slice, r);
    time_chain(*net, *tables["trunc1"], in, 2 * slice, r);
  }
  r.set(true, "quant.probe_ns_t1", probe_ns(1, slice, seed), "ns");
  // Every MulTable built so far in the run (setup, server factories,
  // lazily built brownout rungs, the probes) was timed by build_table.
  r.set(true, "quant.table_build_ms",
        median(Spans::instance().durations_ns("quant.table_build")) / 1e6,
        "ms");
  r.set(true, "quant.probe_ns_t4", probe_ns(4, slice, seed), "ns");

  // MulTable::verify_page on a clean table: every call must pass.
  static const std::uint32_t vspan =
      Spans::instance().name_id("integrity.verify_page");
  const auto& t = *tables["trunc1"];
  const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(slice));
  for (std::uint64_t i = 0; i < MulTable::kPages || Clock::now() < end; ++i) {
    bool ok = false;
    {
      SpanScope s(vspan, i);
      ok = t.verify_page(i % MulTable::kPages);
    }
    if (!ok) r.fail("verify_page failed on a clean table");
  }
  r.set(true, "integrity.verify_page_us",
        median(Spans::instance().durations_ns("integrity.verify_page")) / 1e3,
        "us");
}

}  // namespace perfbench
