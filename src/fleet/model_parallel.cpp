#include "fleet/model_parallel.hpp"

#include <stdexcept>
#include <vector>

#include "core/execution_plan.hpp"
#include "dnn/dense.hpp"
#include "numerics/arena.hpp"
#include "serve/serve_types.hpp"

namespace xl::fleet {

using dnn::LayerKind;
using dnn::Tensor;

std::pair<std::size_t, std::size_t> HaloPlan::tile_range(
    std::uint32_t tile, std::uint32_t tiles) const {
  if (tiles == 0 || tile >= tiles) {
    throw std::invalid_argument("HaloPlan: tile index out of range");
  }
  const std::size_t base = out_features / tiles;
  const std::size_t remainder = out_features % tiles;
  const std::size_t begin =
      static_cast<std::size_t>(tile) * base +
      std::min<std::size_t>(tile, remainder);
  const std::size_t width = base + (tile < remainder ? 1 : 0);
  return {begin, begin + width};
}

HaloPlan make_halo_plan(dnn::Network& network) {
  std::size_t accelerated = 0;
  std::size_t last_accelerated = network.layer_count();
  for (std::size_t i = 0; i < network.layer_count(); ++i) {
    const LayerKind kind = network.layer(i).kind_id();
    if (kind == LayerKind::kDense || kind == LayerKind::kConv) {
      ++accelerated;
      last_accelerated = i;
    }
  }
  if (accelerated == 0) {
    throw std::invalid_argument(
        "model_parallel: network has no accelerated layer to split");
  }
  if (network.layer(last_accelerated).kind_id() != LayerKind::kDense) {
    throw std::invalid_argument(
        "model_parallel: the last accelerated layer must be Dense "
        "(column-splitting a Conv is not supported)");
  }
  auto& dense = static_cast<dnn::Dense&>(network.layer(last_accelerated));
  HaloPlan plan;
  plan.boundary_layer = last_accelerated;
  plan.in_features = dense.in_features();
  plan.out_features = dense.out_features();
  plan.accelerated_trunk_layers = accelerated - 1;
  return plan;
}

ModelParallelWorker::ModelParallelWorker(const serve::ServedModel& model,
                                         const core::VdpSimOptions& vdp)
    : network_(model.factory()) {
  serve::copy_parameters(*model.prototype, network_);
  engine_ = std::make_unique<core::PhotonicInferenceEngine>(network_, vdp);
  plan_ = make_halo_plan(network_);
}

ModelParallelWorker::~ModelParallelWorker() = default;

Tensor ModelParallelWorker::run_trunk(const Tensor& input) {
  // Boot-state reset: every request sees the canonical effect timeline, the
  // same contract AcceleratorShard::execute applies per micro-batch.
  engine_->engine().reset_effects();
  return engine_->infer_range(trunk_plan_, input, 0, plan_.boundary_layer);
}

Tensor ModelParallelWorker::run_tile(const Tensor& boundary,
                                     std::size_t col_begin, std::size_t col_end,
                                     bool fast_forward) {
  if (boundary.rank() != 2 || boundary.dim(1) != plan_.in_features) {
    throw std::invalid_argument("model_parallel: boundary shape mismatch");
  }
  if (col_begin >= col_end || col_end > plan_.out_features) {
    throw std::invalid_argument("model_parallel: tile columns out of range");
  }
  core::BatchedVdpEngine& vdp = engine_->engine();
  if (fast_forward) {
    // Land on the owner's simulated instant: boot state plus one thermal dt
    // per accelerated trunk layer, stepped one layer at a time (the thermal
    // stage integrates per step, so n steps of dt != one step of n*dt).
    vdp.reset_effects();
    const double dt = vdp.options().effects.thermal_stage.dt_us;
    for (std::size_t i = 0; i < plan_.accelerated_trunk_layers; ++i) {
      vdp.advance_effects(dt);
    }
  }
  auto& dense = static_cast<dnn::Dense&>(network_.layer(plan_.boundary_layer));
  const std::size_t batch = boundary.dim(0);
  const std::size_t in = plan_.in_features;
  const std::size_t width = col_end - col_begin;

  // The weight-row slice, packed once per column range: photonic_matmul
  // treats every output row of W independently (normalization, drift,
  // keyed noise), so these rows get exactly the bits the full boundary GEMM
  // would compute for them.
  if (tile_cols_ != std::pair{col_begin, col_end}) {
    tile_weights_ =
        vdp.pack_weights(dense.weights().data() + col_begin * in, width, in);
    tile_cols_ = {col_begin, col_end};
  }
  std::vector<double> y(batch * width);
  numerics::Arena workspace(vdp.matmul_workspace_bytes(batch, in));
  core::GemmTableCache tables;  // Storage-free: tile tables stay transient.
  vdp.photonic_matmul(boundary.data(), batch, in, tile_weights_, y.data(),
                      workspace, tables);
  Tensor out({batch, width});
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t r = 0; r < width; ++r) {
      out.at2(b, r) =
          static_cast<float>(y[b * width + r] + dense.bias()[col_begin + r]);
    }
  }
  return out;
}

Tensor ModelParallelWorker::run_tail(const Tensor& stitched) {
  return engine_->infer_range(tail_plan_, stitched, plan_.boundary_layer + 1,
                              network_.layer_count());
}

}  // namespace xl::fleet
