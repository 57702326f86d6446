// Model-parallel execution: column-split boundary layer + halo exchange.
//
// A model-parallel model is replicated on every fleet node, but its final
// Dense layer ("the boundary") is computed cooperatively: the owner runs the
// trunk (every layer before the boundary), broadcasts the boundary
// activations — the only tensor that ever crosses nodes — and each node
// computes a contiguous column tile of the boundary output on its own
// photonic engine. The owner stitches the tiles in rank order and runs the
// (electronic) tail.
//
// Why this is bit-identical to a single-engine forward pass:
//   * BatchedVdpEngine::photonic_matmul normalizes and simulates every
//     output row of W independently (per-row weight scale, per-sample
//     activation scale, operand-keyed PD noise, drift indexed by the ring's
//     K-dim bank position) — computing a row slice yields exactly the bits
//     the full GEMM would put in those rows;
//   * the effect timeline is position-in-network state, not
//     position-in-fleet state: a peer fast-forwards its (boot-reset) engine
//     by one thermal dt per accelerated trunk layer, landing on the same
//     simulated instant the owner's engine reached by running the trunk.
// So tile boundaries, node counts, and partition maps change only *where*
// columns are computed, never their values — the same invariant the serving
// layer pins for batch composition.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "core/photonic_inference.hpp"
#include "core/vdp_simulator.hpp"
#include "dnn/network.hpp"
#include "dnn/tensor.hpp"
#include "serve/model_repository.hpp"

namespace xl::fleet {

/// Where and how a model splits across nodes.
struct HaloPlan {
  std::size_t boundary_layer = 0;  ///< Index of the partitioned Dense layer.
  std::size_t in_features = 0;     ///< Boundary input width (the halo tensor).
  std::size_t out_features = 0;    ///< Boundary output width (split in tiles).
  /// Accelerated layers strictly before the boundary — the number of
  /// thermal dt steps a peer fast-forwards to reach the boundary instant.
  std::size_t accelerated_trunk_layers = 0;

  /// Column range [first, second) of tile `tile` out of `tiles` (contiguous
  /// blocks, remainder spread over the leading tiles; empty when
  /// out_features < tiles for trailing ranks).
  [[nodiscard]] std::pair<std::size_t, std::size_t> tile_range(
      std::uint32_t tile, std::uint32_t tiles) const;
};

/// Derive the halo plan of `network`: the boundary is the LAST accelerated
/// (kConv/kDense) layer and must be a Dense — everything after it runs
/// electronically on the owner. Throws std::invalid_argument when the
/// network has no accelerated layer or ends its accelerated chain in a
/// Conv (column-splitting a conv's channel dim is not supported).
[[nodiscard]] HaloPlan make_halo_plan(dnn::Network& network);

/// One node's replica of a model-parallel model: a private network copy and
/// photonic engine (same isolation discipline as AcceleratorShard), plus
/// the trunk/tile/tail segment runners. On any given node a worker is
/// driven by exactly one thread (the pump on the owner, the halo server on
/// peers), so it needs no locking.
class ModelParallelWorker {
 public:
  /// Replicates the model (factory + copy_parameters) and derives its plan.
  ModelParallelWorker(const serve::ServedModel& model,
                      const core::VdpSimOptions& vdp);
  ~ModelParallelWorker();  ///< Out of line: ExecutionPlan is incomplete here.

  [[nodiscard]] const HaloPlan& plan() const noexcept { return plan_; }

  /// Owner side: reset the engine to boot state and run layers
  /// [0, boundary). Returns the boundary activations (batch, in_features).
  [[nodiscard]] dnn::Tensor run_trunk(const dnn::Tensor& input);

  /// Compute boundary output columns [col_begin, col_end) for `boundary`
  /// activations. `fast_forward` selects the peer path: reset to boot state
  /// then advance one thermal dt per accelerated trunk layer, reproducing
  /// the owner's timeline. The owner passes false — run_trunk already left
  /// its engine at the boundary instant.
  [[nodiscard]] dnn::Tensor run_tile(const dnn::Tensor& boundary,
                                     std::size_t col_begin, std::size_t col_end,
                                     bool fast_forward);

  /// Owner side: run the electronic tail [boundary + 1, end) over the
  /// stitched full-width boundary output.
  [[nodiscard]] dnn::Tensor run_tail(const dnn::Tensor& stitched);

 private:
  dnn::Network network_;  ///< Private replica; the engine references it.
  std::unique_ptr<core::PhotonicInferenceEngine> engine_;
  HaloPlan plan_;
  std::unique_ptr<core::ExecutionPlan> trunk_plan_;  ///< Layers [0, boundary).
  std::unique_ptr<core::ExecutionPlan> tail_plan_;   ///< Layers (boundary, end).
  core::PackedGemmWeights tile_weights_;  ///< Boundary rows [tile_cols_).
  std::pair<std::size_t, std::size_t> tile_cols_{0, 0};
};

}  // namespace xl::fleet
