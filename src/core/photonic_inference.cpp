#include "core/photonic_inference.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/execution_plan.hpp"

namespace xl::core {

using dnn::Shape;
using dnn::Tensor;

PhotonicInferenceEngine::PhotonicInferenceEngine(dnn::Network& network,
                                                 const VdpSimOptions& options)
    : network_(network), engine_(options) {}

// Out of line: ExecutionPlan is incomplete in the header.
PhotonicInferenceEngine::~PhotonicInferenceEngine() = default;

ExecutionPlan& PhotonicInferenceEngine::prepare_plan(const Shape& sample_shape,
                                                     std::size_t max_batch) {
  plan_ = std::make_unique<ExecutionPlan>(*this, sample_shape, max_batch);
  return *plan_;
}

void PhotonicInferenceEngine::invalidate_plan() noexcept { plan_.reset(); }

void PhotonicInferenceEngine::infer_views(std::span<const RowViewIn> inputs,
                                          std::span<const RowViewOut> outputs) {
  if (plan_ == nullptr) {
    throw std::logic_error("PhotonicInference: infer_views without a compiled plan");
  }
  std::size_t total = 0;
  for (const RowViewIn& v : inputs) total += v.rows;
  if (total > plan_->max_batch()) {
    const Shape shape = plan_->sample_shape();  // Copy: prepare_plan replaces plan_.
    prepare_plan(shape, total);
  }
  plan_->execute(inputs, outputs);
}

void PhotonicInferenceEngine::set_eval_batch_size(std::size_t n) {
  if (n == 0) throw std::invalid_argument("PhotonicInference: zero batch size");
  eval_batch_ = n;
}

Tensor PhotonicInferenceEngine::infer_batch(const Tensor& batch) {
  return infer_range(plan_, batch, 0, network_.layer_count());
}

Tensor PhotonicInferenceEngine::infer_range(std::unique_ptr<ExecutionPlan>& plan,
                                            const Tensor& batch,
                                            std::size_t begin_layer,
                                            std::size_t end_layer) {
  if (batch.rank() < 2 || batch.dim(0) == 0) {
    throw std::invalid_argument("PhotonicInference: batch must have rank >= 2 and N >= 1");
  }
  const std::size_t rows = batch.dim(0);
  // Steady-state traffic with a stable shape and range reuses the plan.
  const auto fits = [&]() {
    if (plan == nullptr || plan->begin_layer() != begin_layer ||
        plan->end_layer() != std::min(end_layer, network_.layer_count()) ||
        rows > plan->max_batch()) {
      return false;
    }
    const Shape& planned = plan->sample_shape();
    if (planned.size() != batch.rank()) return false;
    for (std::size_t d = 1; d < planned.size(); ++d) {
      if (planned[d] != batch.dim(d)) return false;
    }
    return true;
  };
  if (!fits()) {
    plan = std::make_unique<ExecutionPlan>(*this, batch.shape(), rows, begin_layer,
                                           end_layer);
  }
  Shape out_shape = plan->output_sample_shape();
  out_shape[0] = rows;
  Tensor out(out_shape);
  const RowViewIn in{batch.data(), rows};
  const RowViewOut ov{out.data(), rows};
  plan->execute({&in, 1}, {&ov, 1});
  return out;
}

double PhotonicInferenceEngine::evaluate_accuracy(const dnn::Dataset& data,
                                                  std::size_t count) {
  if (count == 0 || count > data.size()) {
    throw std::invalid_argument("PhotonicInference: bad sample count");
  }
  std::size_t correct = 0;
  for (std::size_t start = 0; start < count; start += eval_batch_) {
    const std::size_t n = std::min(eval_batch_, count - start);
    const Tensor batch = dnn::batch_images(data, start, n);
    const Tensor logits = infer_batch(batch);
    for (std::size_t b = 0; b < n; ++b) {
      std::size_t best = 0;
      for (std::size_t c = 1; c < logits.dim(1); ++c) {
        if (logits.at2(b, c) > logits.at2(b, best)) best = c;
      }
      if (best == data.labels[start + b]) ++correct;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(count);
}

}  // namespace xl::core
