// Scalar reference for planned photonic inference.
//
// Walks a network layer by layer the way the chip computes it, one analog
// dot product at a time: every accelerated output element is
// VdpSimulator::dot(input row, weight row) + bias (CONV layers through the
// im2col patch rows), simulated time advances by one thermal dt per
// accelerated layer, and electronic layers run their own forward(). The
// ExecutionPlan must reproduce these bytes exactly, so tests compare its
// logits with EXPECT_EQ / memcmp, never with a tolerance.
//
// Header-only; shared by the parity tests and bench_hotpath's bit-identity
// exit.
#pragma once

#include <cstddef>
#include <vector>

#include "core/effect_pipeline.hpp"
#include "core/vdp_simulator.hpp"
#include "dnn/conv2d.hpp"
#include "dnn/dense.hpp"
#include "dnn/im2col.hpp"
#include "dnn/network.hpp"
#include "dnn/tensor.hpp"

namespace xl::oracle {

/// An oracle with its own effect timeline: reset_effects() and the
/// per-layer advance mirror the engine under test, so both see the same
/// frame for every layer.
class PhotonicOracle {
 public:
  explicit PhotonicOracle(const core::VdpSimOptions& options)
      : sim_(options), layer_dt_us_(options.effects.thermal_stage.dt_us) {}

  void reset_effects() { sim_.effects().reset(); }

  /// Logits of `batch` (batch dimension first) through `net`.
  [[nodiscard]] dnn::Tensor infer(dnn::Network& net, const dnn::Tensor& batch) {
    dnn::Tensor x = batch;
    for (std::size_t i = 0; i < net.layer_count(); ++i) {
      dnn::Layer& layer = net.layer(i);
      switch (layer.kind_id()) {
        case dnn::LayerKind::kDense:
          x = dense(x, static_cast<dnn::Dense&>(layer));
          sim_.effects().advance(layer_dt_us_);
          break;
        case dnn::LayerKind::kConv:
          x = conv(x, static_cast<dnn::Conv2d&>(layer));
          sim_.effects().advance(layer_dt_us_);
          break;
        default:
          x = layer.forward(x, false);
          break;
      }
    }
    return x;
  }

  std::size_t matmuls = 0;  ///< Accelerated layers executed.
  std::size_t dots = 0;     ///< Dot products simulated.
  std::size_t macs = 0;     ///< Multiply-accumulates simulated.

 private:
  /// sim.dot of one k-element operand row against one weight row.
  double dot(const float* x, const float* w, std::size_t k) {
    xr_.assign(x, x + k);
    wr_.assign(w, w + k);
    ++dots;
    macs += k;
    return sim_.dot(xr_, wr_);
  }

  dnn::Tensor dense(const dnn::Tensor& x, dnn::Dense& layer) {
    const std::size_t rows = x.dim(0);
    const std::size_t k = layer.in_features();
    const std::size_t outputs = layer.out_features();
    dnn::Tensor y({rows, outputs});
    for (std::size_t b = 0; b < rows; ++b) {
      for (std::size_t o = 0; o < outputs; ++o) {
        y.at2(b, o) = static_cast<float>(
            dot(x.data() + b * k, layer.weights().data() + o * k, k) +
            layer.bias()[o]);
      }
    }
    ++matmuls;
    return y;
  }

  dnn::Tensor conv(const dnn::Tensor& x, dnn::Conv2d& layer) {
    const dnn::Tensor patches = dnn::im2col(x, layer.config());
    const std::size_t k = patches.dim(1);
    const std::size_t channels = layer.config().out_channels;
    dnn::Tensor y(layer.output_shape(x.shape()));
    const std::size_t pixels = y.dim(2) * y.dim(3);
    for (std::size_t r = 0; r < patches.dim(0); ++r) {
      const std::size_t n = r / pixels;
      for (std::size_t co = 0; co < channels; ++co) {
        y[(n * channels + co) * pixels + r % pixels] = static_cast<float>(
            dot(patches.data() + r * k, layer.weights().data() + co * k, k) +
            layer.bias()[co]);
      }
    }
    ++matmuls;
    return y;
  }

  core::VdpSimulator sim_;
  double layer_dt_us_;
  std::vector<double> xr_;
  std::vector<double> wr_;
};

}  // namespace xl::oracle
