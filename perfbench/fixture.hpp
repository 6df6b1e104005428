// The benchmark's fixture: the three Table I nets trained once with
// fixed seeds, the multiplier tables, seeded test inputs, single-thread
// reference classes, and the per-layer timing harness.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "approx/multipliers.hpp"
#include "bench.hpp"
#include "nn/model.hpp"

namespace perfbench {

/// One trained Table I net and what a replica factory needs.
struct Net {
  std::string key;  ///< kws_cnn1 | kws_cnn2 | resnet_mini
  int in_c = 0, in_h = 0, in_w = 0;
  nga::nn::Dataset calib;  ///< training set, reused for calibration
  std::vector<std::vector<float>> snap;

  /// A calibrated replica with the trained weights (thread-safe).
  std::unique_ptr<nga::nn::Model> replica() const;
  /// @p n seeded test inputs of this net's shape.
  nga::nn::Dataset inputs(int n, std::uint64_t seed) const;
};

/// Train @p key with its fixed seed (the same weights on every run).
Net train_net(const std::string& key);

/// A named multiplier: the exact table when gen is null.
struct TableSpec {
  std::string key;  ///< exact | trunc1 | trunc6 | mitch | mitch_t2
  std::shared_ptr<const nga::ax::ApproxMult8> gen;
};
TableSpec table_spec(const std::string& key);
/// Build one MulTable (page CRCs included) under a quant.table_build span.
std::shared_ptr<const nga::nn::MulTable> build_table(const TableSpec& t);

int argmax(const nga::nn::Tensor& logits);
/// Single-thread reference classes of @p inputs on @p table.
std::vector<int> reference_classes(const Net& net,
                                   const nga::nn::MulTable& table,
                                   const nga::nn::Dataset& inputs);
/// Check reference classes against the benchmark's own scalar oracle
/// (oracle.cpp): each (table, classes) pair of @p refs must match the
/// oracle's classes of @p inputs on that table. Mismatches fail @p r.
void check_references(
    const Net& net, const nga::nn::Dataset& inputs,
    const std::vector<std::pair<TableSpec, const std::vector<int>*>>& refs,
    Result& r);

/// Per-layer and per-kernel timings (the nn, nn/quant and integrity
/// rows of the per-layer metrics), measured single-threaded except for
/// quant.probe_ns_t4. Runs every check it can (layer chain == Model).
void measure_layers(const std::vector<const Net*>& nets, double seconds,
                    std::uint64_t seed, Result& r);

/// Closed-loop forwards/s of @p jobs (net, table, inputs, references)
/// with @p threads threads, each owning its replicas; the tables are
/// shared by every thread. The threads run @p warm_s seconds untimed
/// first, then whole passes over the job for at least @p seconds, timed.
/// Every forward is checked against its reference class.
struct FwdJob {
  const Net* net;
  const nga::nn::MulTable* table;
  const nga::nn::Dataset* inputs;
  const std::vector<int>* ref;
  /// Exact-table classes of the same inputs (null on the exact table):
  /// drives exact_agreement.
  const std::vector<int>* exact_ref;
};
struct FwdResult {
  double fwd_per_s = 0.0;
  double wall_s = 0.0;
  std::uint64_t forwards = 0, mismatches = 0, in_deadline = 0;
  std::uint64_t approx_forwards = 0, agree_exact = 0;
  std::vector<double> fwd_ms;
};
FwdResult run_forwards(const std::vector<FwdJob>& jobs, int threads,
                       double seconds, double deadline_ms, double warm_s = 0.0);

}  // namespace perfbench
