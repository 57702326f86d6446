// Per-layer attribution of one ExecutionPlan pass, measured from outside.
//
// The benchmark cannot put spans inside ExecutionPlan::execute, so it
// rebuilds the plan's step sequence from CrossLight's public pieces
// (BatchedVdpEngine::pack_weights and the planned photonic_matmul,
// dnn::plan_im2col / im2col_gather, Layer::eval_into, advance_effects) on
// a twin engine and times each step. Two checks keep the decomposition
// honest: its logits must equal the plan's bit for bit, and
// core.plan.coverage (the sum of the step times over the plan's own
// execute time) shows any drift between the two.
#pragma once

#include <cstddef>
#include <vector>

#include "core/vdp_simulator.hpp"
#include "dnn/network.hpp"
#include "dnn/tensor.hpp"
#include "trace.hpp"

namespace pb {

struct AccelLayerCost {
  double gemm_us = 0.0;         ///< Warm planned photonic_matmul (median).
  double table_build_us = 0.0;  ///< First call after a frame change minus warm.
  double gemm_cold_us = 0.0;    ///< photonic_matmul whose tables are stale.
  double gather_us = 0.0;       ///< im2col_gather over the batch (conv only).
  std::size_t dots = 0;         ///< Output elements per pass (BatchedVdpStats).
  std::size_t macs = 0;         ///< MACs per pass (BatchedVdpStats).
  double sim_latency_ns = 0.0;  ///< Analytic latency of the layer alone.
};

struct PlanProfile {
  double execute_us = 0.0;     ///< Median warm ExecutionPlan pass (infer_views).
  double decomposed_us = 0.0;  ///< Median sum of the decomposed step times.
  double coverage = 0.0;       ///< decomposed_us / execute_us.
  bool identical = false;      ///< Decomposed logits == plan logits, bitwise.
  double eval_us = 0.0;        ///< Electronic layers per pass (eval_into).
  double advance_us = 0.0;     ///< Median advance_effects call.
  std::vector<AccelLayerCost> layers;  ///< One per accelerated layer.
};

/// Serving-style profile: every pass starts from the boot effect frame
/// (reset_effects), as a serving shard runs a micro-batch, so GEMM tables
/// stay warm; every other pass invalidates them to time the rebuild.
/// `net` is not modified.
[[nodiscard]] PlanProfile profile_plan(xl::dnn::Network& net, const xl::core::VdpSimOptions& vdp,
                                       const xl::dnn::Tensor& batch, std::size_t passes,
                                       Tracer* tracer);

/// Evaluate-accuracy-style profile: consecutive batches without a reset,
/// so simulated time moves on at every layer, the effect frame changes on
/// every GEMM call and every table is stale (gemm_cold_us).
[[nodiscard]] PlanProfile profile_changing_frame(xl::dnn::Network& net,
                                                 const xl::core::VdpSimOptions& vdp,
                                                 const xl::dnn::Tensor& batch,
                                                 std::size_t passes, Tracer* tracer);

}  // namespace pb
