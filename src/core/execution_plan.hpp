// ExecutionPlan — the compiled, arena-backed inference program of one engine,
// and the only way PhotonicInferenceEngine executes a network.
//
// A plan hoists everything that depends only on (network, layer range,
// sample shape, max batch) out of the per-request path:
//
//   * per accelerated layer, the weight-side GEMM operand is packed once
//     (BatchedVdpEngine::pack_weights) — quantized detunings, sign/zero
//     tables, DAC row scales;
//   * per CONV layer, the im2col tap indices are precomputed into a gather
//     map (dnn::plan_im2col) applied per sample with no index arithmetic
//     rediscovery;
//   * every electronic layer resolves its dispatch at compile time: identity
//     layers (dropout, flatten) vanish, eval_into-capable layers write
//     straight into the ping-pong activation buffers, anything else falls
//     back to Layer::forward (counted in PlanStats::fallback_layers);
//   * all intermediate storage — activations, patches, GEMM outputs, the
//     engine's per-call scratch and each GEMM step's arm-transmission table
//     cache (GemmTableCache: persisted only for frames that repeat) — lives
//     in one bump-pointer numerics::Arena sized at compile time.
//
// execute() gathers rows directly from caller-held RowViewIn views, runs the
// steps, and scatters logits to the paired RowViewOut views: after the first
// (warm-up) execution the steady state performs zero heap allocations.
//
// Bit-identity contract: every accelerated output element equals the scalar
// oracle VdpSimulator::dot on the same operand rows (plus the layer bias),
// with simulated time advanced by one thermal dt per accelerated layer —
// plans change where bytes live and when tables are built, never what is
// computed (tests/test_hotpath.cpp enforces this across effect sets, batch
// shapes and thread counts).
//
// Thread safety: none. One plan per engine, driven by one worker at a time.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/batched_vdp_engine.hpp"
#include "core/photonic_inference.hpp"
#include "dnn/im2col.hpp"
#include "dnn/tensor.hpp"
#include "numerics/arena.hpp"

namespace xl::core {

/// Compile-time telemetry of one plan.
struct PlanStats {
  std::size_t planned_layers = 0;   ///< Layers compiled to allocation-free steps.
  std::size_t fallback_layers = 0;  ///< Layers still routed through forward().
};

class ExecutionPlan {
 public:
  /// Compile the plan for layers [begin_layer, end_layer) of `engine`'s
  /// network (end clamped to layer_count(); default: the whole network) over
  /// samples of `sample_shape` — the shape entering begin_layer, batch
  /// dimension ignored — and micro-batches of up to `max_batch` rows. Packs
  /// weights, precomputes gather maps, and carves all workspaces from the
  /// plan's arena. Throws std::invalid_argument on unusable shapes or a
  /// reversed range.
  ExecutionPlan(PhotonicInferenceEngine& engine, const dnn::Shape& sample_shape,
                std::size_t max_batch, std::size_t begin_layer = 0,
                std::size_t end_layer = static_cast<std::size_t>(-1));

  ExecutionPlan(const ExecutionPlan&) = delete;
  ExecutionPlan& operator=(const ExecutionPlan&) = delete;

  /// Run the compiled program over the concatenation of `inputs` (paired
  /// 1:1 with `outputs`; each pair must agree on rows). Total rows must be
  /// in [1, max_batch()] — the engine's infer_views recompiles on growth
  /// before calling this. Advances the engine's effect timeline by one
  /// thermal dt per accelerated layer and accrues the engine stats (samples
  /// and batches only for a whole-network plan). With the engine's
  /// track_layer_error on, each GEMM step also runs its layer's own
  /// forward() on the step input and folds the difference into
  /// max_abs_layer_error (allocates; opt-in).
  void execute(std::span<const RowViewIn> inputs,
               std::span<const RowViewOut> outputs);

  /// The compiled layer range [begin_layer(), end_layer()).
  [[nodiscard]] std::size_t begin_layer() const noexcept { return begin_layer_; }
  [[nodiscard]] std::size_t end_layer() const noexcept { return end_layer_; }

  [[nodiscard]] const dnn::Shape& sample_shape() const noexcept {
    return sample_shape_;
  }
  [[nodiscard]] const dnn::Shape& output_sample_shape() const noexcept {
    return output_sample_shape_;
  }
  /// Floats per input sample / per output sample.
  [[nodiscard]] std::size_t sample_numel() const noexcept { return sample_numel_; }
  [[nodiscard]] std::size_t output_numel() const noexcept { return output_numel_; }
  [[nodiscard]] std::size_t max_batch() const noexcept { return max_batch_; }

  [[nodiscard]] const PlanStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const numerics::ArenaStats& arena_stats() const noexcept {
    return arena_.stats();
  }

 private:
  enum class StepKind : unsigned char {
    kDenseGemm,  ///< Photonic FC GEMM + bias.
    kConvGemm,   ///< Gather -> photonic patch GEMM -> scatter + bias.
    kView,       ///< inference_identity(): shape-only, no byte moves.
    kEval,       ///< supports_eval_into(): in-place-capable electronic layer.
    kFallback,   ///< Generic Layer::forward (allocates; counted).
  };

  struct Step {
    StepKind kind = StepKind::kFallback;
    dnn::Layer* layer = nullptr;
    dnn::Shape in_shape;   ///< Batch-1 basis shape entering the layer.
    dnn::Shape out_shape;  ///< Batch-1 basis shape leaving the layer.
    std::size_t in_numel = 0;   ///< Per-sample floats in.
    std::size_t out_numel = 0;  ///< Per-sample floats out.
    // kDenseGemm / kConvGemm:
    PackedGemmWeights packed;
    GemmTableCache tables;  ///< Arena-carved arm-transmission table cache.
    std::size_t gemm_k = 0;        ///< Operand length (in features / patch len).
    std::size_t gemm_outputs = 0;  ///< Output features / conv out channels.
    // kConvGemm only:
    dnn::Im2colPlan gather;
    std::size_t pixels = 0;  ///< h_out * w_out (patch rows per sample).
  };

  // GEMM steps are non-const: the engine revalidates/restamps the step's
  // table cache in place.
  void run_dense(Step& step, std::size_t rows, const float* in, float* out);
  void run_conv(Step& step, std::size_t rows, const float* in, float* out);
  void run_fallback(const Step& step, std::size_t rows, const float* in, float* out);
  /// step.layer->forward over `rows` samples read from `in` (allocates).
  [[nodiscard]] dnn::Tensor forward_layer(const Step& step, std::size_t rows,
                                          const float* in);
  void track_layer_error(const Step& step, std::size_t rows, const float* in,
                         const float* out);

  PhotonicInferenceEngine& engine_;
  dnn::Shape sample_shape_;         ///< Batch-1 basis input shape.
  dnn::Shape output_sample_shape_;  ///< Batch-1 basis output shape.
  std::size_t sample_numel_ = 0;
  std::size_t output_numel_ = 0;
  std::size_t max_batch_ = 0;
  std::size_t begin_layer_ = 0;
  std::size_t end_layer_ = 0;
  bool full_pass_ = false;    ///< Range covers the whole network.
  double layer_dt_us_ = 0.0;  ///< Thermal dt per accelerated layer.
  std::vector<Step> steps_;
  PlanStats stats_;

  numerics::Arena arena_;
  // Arena-carved persistent workspaces (spans into arena_; never freed).
  std::span<float> act_a_;
  std::span<float> act_b_;
  std::span<float> patches_;  ///< Gathered im2col rows (conv steps only).
  std::span<double> y_;       ///< GEMM output (largest step).

  dnn::Shape shape_tmp_;  ///< Pre-reserved scratch for eval_into shapes.
};

}  // namespace xl::core
