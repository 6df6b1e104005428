// The benchmark's own oracle for the reference classes.
//
// A naive scalar quantized forward of each Table I net, written from the
// layer semantics (8-bit activations against calibrated ranges, sign +
// 7-bit weights, integer MACs through a 64K product table) rather than
// from the library's kernels. Its product table is filled straight from
// the multiplier's behavioural model, not read from MulTable. Weights
// come from the trained snapshot; activation ranges come from a float
// forward written out here in the same operation order as training's,
// so a kernel that is wrong the same way on every call still disagrees
// with it.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "fixture.hpp"

namespace perfbench {

using namespace nga;
using nn::Tensor;
using util::u16;
using util::u8;

namespace {

constexpr int kCalibSamples = 32;  // as Net::replica calibrates

/// A convolution; a dense layer is a 1x1 convolution on a 1x1 input.
struct Conv {
  Conv(int in, int out, int k_, int stride_)
      : in_c(in), out_c(out), k(k_), stride(stride_) {}

  int in_c, out_c, k, stride;
  std::vector<float> w, b;
  float range = 1e-6f;  ///< calibrated max |input|
  std::vector<u8> mag;  ///< quantized weights: magnitude and sign
  std::vector<bool> neg;
  float wscale = 1.f;

  Tensor forward(const Tensor& x, const std::vector<u16>* table) {
    const int pad = k / 2;
    const int oh = (x.h + stride - 1) / stride, ow = (x.w + stride - 1) / stride;
    Tensor y(out_c, oh, ow);
    std::vector<u8> xq(x.size());
    const float sa = range / 255.f, sa_inv = 255.f / range;
    if (table)
      for (std::size_t i = 0; i < x.size(); ++i) {
        const float q = x.v[i] * sa_inv + 0.5f;
        xq[i] = q <= 0.f ? 0 : q >= 255.f ? 255 : u8(q);
      }
    else
      for (float v : x.v) range = std::max(range, std::fabs(v));
    for (int oc = 0; oc < out_c; ++oc)
      for (int yo = 0; yo < oh; ++yo)
        for (int xo = 0; xo < ow; ++xo) {
          float facc = b[std::size_t(oc)];
          long acc = 0;
          for (int ic = 0; ic < in_c; ++ic)
            for (int ky = 0; ky < k; ++ky)
              for (int kx = 0; kx < k; ++kx) {
                const int yi = yo * stride + ky - pad;
                const int xi = xo * stride + kx - pad;
                if (yi < 0 || yi >= x.h || xi < 0 || xi >= x.w) continue;
                const std::size_t wi =
                    std::size_t(((oc * in_c + ic) * k + ky) * k + kx);
                const std::size_t xi_ = std::size_t((ic * x.h + yi) * x.w + xi);
                if (!table) {
                  facc += w[wi] * x.v[xi_];
                  continue;
                }
                const long p = (*table)[std::size_t(xq[xi_]) << 8 | mag[wi]];
                acc += neg[wi] ? -p : p;
              }
          y.at(oc, yo, xo) =
              table ? float(acc) * (sa * wscale) + b[std::size_t(oc)] : facc;
        }
    return y;
  }

  void quantize_weights() {
    float maxabs = 1e-9f;
    for (float v : w) maxabs = std::max(maxabs, std::fabs(v));
    wscale = maxabs / 127.f;
    const float inv = 127.f / maxabs;
    mag.resize(w.size());
    neg.resize(w.size());
    for (std::size_t i = 0; i < w.size(); ++i) {
      mag[i] = u8(std::min(std::fabs(w[i]) * inv + 0.5f, 127.f));
      neg[i] = w[i] < 0;
    }
  }
};

Tensor relu(Tensor x) {
  for (float& v : x.v) v = v > 0.f ? v : 0.f;
  return x;
}

Tensor maxpool2(const Tensor& x) {
  Tensor y(x.c, x.h / 2, x.w / 2);
  for (int c = 0; c < x.c; ++c)
    for (int yo = 0; yo < y.h; ++yo)
      for (int xo = 0; xo < y.w; ++xo) {
        float best = -1e30f;
        for (int dy = 0; dy < 2; ++dy)
          for (int dx = 0; dx < 2; ++dx)
            best = std::max(best, x.at(c, yo * 2 + dy, xo * 2 + dx));
        y.at(c, yo, xo) = best;
      }
  return y;
}

Tensor global_avg_pool(const Tensor& x) {
  Tensor y(x.c, 1, 1);
  const float inv = 1.0f / float(x.h * x.w);
  for (int c = 0; c < x.c; ++c) {
    float acc = 0.f;
    for (int yi = 0; yi < x.h; ++yi)
      for (int xi = 0; xi < x.w; ++xi) acc += x.at(c, yi, xi);
    y.v[std::size_t(c)] = acc * inv;
  }
  return y;
}

/// One net as a list of steps over its convolutions.
class OracleNet {
 public:
  explicit OracleNet(const Net& net) {
    if (net.key == "resnet_mini") {
      conv_step(3, 8, 3, 1);
      steps_.push_back({kRelu, -1});
      for (const auto [in, out, stride] :
           {std::array{8, 8, 1}, std::array{8, 12, 2}, std::array{12, 16, 2}}) {
        steps_.push_back({kResidual, int(convs_.size())});
        convs_.push_back(Conv{in, out, 3, stride});
        convs_.push_back(Conv{out, out, 3, 1});
        steps_.back().proj = in != out || stride != 1;
        if (steps_.back().proj) convs_.push_back(Conv{in, out, 1, stride});
      }
    } else {
      conv_step(1, 8, 3, 1);
      steps_.push_back({kRelu, -1});
      steps_.push_back({kMaxPool, -1});
      conv_step(8, 16, 3, 1);
      steps_.push_back({kRelu, -1});
      if (net.key == "kws_cnn2") {
        conv_step(16, 16, 3, 1);
        steps_.push_back({kRelu, -1});
      }
    }
    steps_.push_back({kGap, -1});
    conv_step(16, 10, 1, 1);  // the dense layer

    // The snapshot holds w, b and two momentum buffers per convolution,
    // in the order the convolutions are declared above.
    if (net.snap.size() != 4 * convs_.size())
      throw std::runtime_error("oracle: snapshot of " + net.key +
                               " does not match the oracle's layers");
    for (std::size_t i = 0; i < convs_.size(); ++i) {
      Conv& c = convs_[i];
      c.w = net.snap[4 * i];
      c.b = net.snap[4 * i + 1];
      if (c.w.size() != std::size_t(c.out_c * c.in_c * c.k * c.k) ||
          c.b.size() != std::size_t(c.out_c))
        throw std::runtime_error("oracle: weight shapes of " + net.key +
                                 " do not match the oracle's layers");
      c.quantize_weights();
    }
    for (int i = 0; i < kCalibSamples && i < int(net.calib.size()); ++i)
      forward(net.calib[std::size_t(i)].x, nullptr);
  }

  /// Quantized forward on @p table; with a null table, a float forward
  /// that widens the activation ranges (calibration).
  Tensor forward(Tensor x, const std::vector<u16>* table) {
    for (const Step& s : steps_) {
      switch (s.kind) {
        case kConv: x = convs_[std::size_t(s.conv)].forward(x, table); break;
        case kRelu: x = relu(std::move(x)); break;
        case kMaxPool: x = maxpool2(x); break;
        case kGap: x = global_avg_pool(x); break;
        case kResidual: {
          Conv* c = &convs_[std::size_t(s.conv)];
          Tensor y = c[1].forward(relu(c[0].forward(x, table)), table);
          const Tensor skip = s.proj ? c[2].forward(x, table) : x;
          for (std::size_t i = 0; i < y.v.size(); ++i) y.v[i] += skip.v[i];
          x = relu(std::move(y));
          break;
        }
      }
    }
    return x;
  }

 private:
  enum Kind { kConv, kRelu, kMaxPool, kGap, kResidual };
  struct Step {
    Kind kind;
    int conv;  ///< first convolution of the step
    bool proj = false;
  };
  void conv_step(int in, int out, int k, int stride) {
    steps_.push_back({kConv, int(convs_.size())});
    convs_.push_back(Conv{in, out, k, stride});
  }
  std::vector<Conv> convs_;
  std::vector<Step> steps_;
};

}  // namespace

void check_references(const Net& net, const nga::nn::Dataset& inputs,
                      const std::vector<std::pair<TableSpec, const std::vector<int>*>>& refs,
                      Result& r) {
  OracleNet oracle(net);
  for (const auto& [spec, ref] : refs) {
    std::vector<u16> table(65536);
    for (unsigned a = 0; a < 256; ++a)
      for (unsigned b = 0; b < 256; ++b)
        table[a << 8 | b] = spec.gen ? spec.gen->multiply(u8(a), u8(b))
                                     : u16(a * b);
    int ties = 0;
    for (std::size_t k = 0; k < inputs.size(); ++k) {
      ++r.attempted;
      const Tensor logits = oracle.forward(inputs[k].x, &table);
      const int cls = argmax(logits), want = (*ref)[k];
      if (cls == want) continue;
      // A tie within float rounding is not a disagreement.
      const auto [lo, hi] = std::minmax_element(logits.v.begin(), logits.v.end());
      if (logits.v[std::size_t(cls)] - logits.v[std::size_t(want)] <=
          1e-4f * (*hi - *lo)) {
        ++ties;
        continue;
      }
      r.fail(net.key + "/" + spec.key + ": reference class " +
             std::to_string(want) + " of input " + std::to_string(k) +
             " != oracle class " + std::to_string(cls));
    }
    if (ties)
      std::printf("oracle: %s/%s: %d near-tied inputs not compared\n",
                  net.key.c_str(), spec.key.c_str(), ties);
  }
}

}  // namespace perfbench
