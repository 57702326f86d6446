// Whole-model functional photonic inference on the batched execution engine.
//
// Executes a trained dnn::Network with every CONV and FC layer lowered to
// batched photonic GEMMs on BatchedVdpEngine (quantizers, Lorentzian MR
// transmissions, inter-channel crosstalk, balanced photodetection) while
// pooling/activations run electronically — the hardware/software split of
// Fig. 3. Every call runs through a compiled ExecutionPlan
// (core/execution_plan.hpp): CONV layers become one im2col patch-matrix GEMM
// per batch, FC layers map directly, and layer routing uses the LayerKind
// taxonomy.
//
// infer_batch() accepts any batch size (pass a batch of one for a single
// sample). The exact software reference pass per layer (for
// max_abs_layer_error) is opt-in via set_track_layer_error — accuracy sweeps
// do not pay the 2x reference compute.
//
// When the engine's effect pipeline has a thermal stage, simulated time
// advances by one thermal dt per accelerated layer, so drift evolves across
// the depth of the network (and across successive batches) exactly as the
// chip would experience it.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "core/batched_vdp_engine.hpp"
#include "core/vdp_simulator.hpp"
#include "dnn/datasets.hpp"
#include "dnn/network.hpp"

namespace xl::core {

class ExecutionPlan;

/// Non-owning view of one caller-held block of input samples (row-major,
/// `rows` consecutive samples). Planned execution gathers a micro-batch
/// straight from these views — no intermediate Tensor per request.
struct RowViewIn {
  const float* data = nullptr;
  std::size_t rows = 0;
};

/// Destination view paired 1:1 with a RowViewIn: the corresponding output
/// rows are scattered straight into the caller's buffer.
struct RowViewOut {
  float* data = nullptr;
  std::size_t rows = 0;
};

struct PhotonicInferenceStats {
  std::size_t photonic_dot_products = 0;
  std::size_t photonic_macs = 0;
  std::size_t photonic_matmuls = 0;    ///< One per accelerated layer per batch.
  std::size_t samples_inferred = 0;
  std::size_t batches_inferred = 0;
  /// vs float reference, pre-activation; only accumulated when
  /// track_layer_error is enabled (opt-in: it costs a full software forward
  /// pass per accelerated layer).
  double max_abs_layer_error = 0.0;

  /// Accumulate another engine's counters into this one (counter sums, max
  /// of the layer errors). The serving runtime merges per-shard stats
  /// through this under its stats lock, so shard engines never share
  /// mutable counters across threads.
  void merge(const PhotonicInferenceStats& other) noexcept {
    photonic_dot_products += other.photonic_dot_products;
    photonic_macs += other.photonic_macs;
    photonic_matmuls += other.photonic_matmuls;
    samples_inferred += other.samples_inferred;
    batches_inferred += other.batches_inferred;
    if (other.max_abs_layer_error > max_abs_layer_error) {
      max_abs_layer_error = other.max_abs_layer_error;
    }
  }
};

/// Runs a network photonically. The network is inspected layer by layer;
/// Conv2d and Dense layers are lowered to batched VDP GEMMs.
class PhotonicInferenceEngine {
 public:
  /// `network` must outlive the engine. Layers outside the accelerated set
  /// (kConv/kDense) run electronically via their own forward().
  PhotonicInferenceEngine(dnn::Network& network, const VdpSimOptions& options = {});
  ~PhotonicInferenceEngine();

  /// Photonic logits for a whole batch (batch dimension N >= 1): one
  /// photonic GEMM per accelerated layer over the batch, through the cached
  /// ExecutionPlan — compiled on first use and recompiled when the sample
  /// shape changes or the batch outgrows it. Zero steady-state heap
  /// allocation inside the engine.
  ///
  /// The plan packs every accelerated layer's weights when it compiles:
  /// after mutating a layer's weights (or the topology), call
  /// invalidate_plan() — otherwise the next call still computes with the
  /// packed copy of the old weights.
  [[nodiscard]] dnn::Tensor infer_batch(const dnn::Tensor& batch);

  /// Compile (or recompile) the plan for (sample_shape, max_batch) and
  /// return it. sample_shape's batch dimension is ignored (treated as 1).
  ExecutionPlan& prepare_plan(const dnn::Shape& sample_shape, std::size_t max_batch);

  /// Drop the cached plan (required after mutating layer weights/topology;
  /// the next call recompiles).
  void invalidate_plan() noexcept;

  /// The cached plan, or nullptr when none is compiled.
  [[nodiscard]] const ExecutionPlan* plan() const noexcept { return plan_.get(); }

  /// Planned inference over caller-held row views: inputs are gathered from
  /// `inputs` and logits scattered to the paired `outputs` with no
  /// intermediate tensors. Requires a compiled plan (prepare_plan); the plan
  /// recompiles automatically when the total row count exceeds its max
  /// batch. Same logits and effect timeline as infer_batch.
  void infer_views(std::span<const RowViewIn> inputs,
                   std::span<const RowViewOut> outputs);

  /// Run only the layer range [begin, end) of the network on `batch`
  /// (end is clamped to layer_count()) through the caller-held plan slot
  /// `plan`, compiled or recompiled as infer_batch's (and when its range
  /// differs). The fleet's model-parallel path splits one forward pass into
  /// trunk / boundary-tile / tail segments: because every accelerated layer
  /// advances simulated time identically whichever engine executes it,
  /// stitching ranges back together is bit-identical to one infer_batch()
  /// call — provided the caller lines the engines up on the same effect
  /// timeline first (reset_effects + one advance per accelerated layer
  /// already executed). Sample/batch counters accrue only on full passes.
  [[nodiscard]] dnn::Tensor infer_range(std::unique_ptr<ExecutionPlan>& plan,
                                        const dnn::Tensor& batch,
                                        std::size_t begin_layer,
                                        std::size_t end_layer);

  /// Classification accuracy over a dataset subset [0, count), evaluated in
  /// batches of eval_batch_size().
  [[nodiscard]] double evaluate_accuracy(const dnn::Dataset& data, std::size_t count);

  /// Enable/disable the exact per-layer software reference pass (each
  /// accelerated layer's own forward() on the same input) feeding
  /// stats().max_abs_layer_error. Off by default.
  void set_track_layer_error(bool enabled) noexcept { track_layer_error_ = enabled; }
  [[nodiscard]] bool track_layer_error() const noexcept { return track_layer_error_; }

  /// Batch size used by evaluate_accuracy (default 16).
  void set_eval_batch_size(std::size_t n);
  [[nodiscard]] std::size_t eval_batch_size() const noexcept { return eval_batch_; }

  [[nodiscard]] const PhotonicInferenceStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = PhotonicInferenceStats{}; }

  [[nodiscard]] const BatchedVdpEngine& engine() const noexcept { return engine_; }
  /// Mutable engine access (e.g. BatchedVdpEngine::reset_effects between
  /// experiment arms).
  [[nodiscard]] BatchedVdpEngine& engine() noexcept { return engine_; }

  /// The network this engine executes (same reference passed at construction).
  [[nodiscard]] dnn::Network& network() noexcept { return network_; }

 private:
  friend class ExecutionPlan;  ///< Plans accrue the engine's stats counters.

  dnn::Network& network_;
  BatchedVdpEngine engine_;
  PhotonicInferenceStats stats_;
  bool track_layer_error_ = false;
  std::size_t eval_batch_ = 16;
  std::unique_ptr<ExecutionPlan> plan_;  ///< Cached whole-network plan (or null).
};

}  // namespace xl::core
