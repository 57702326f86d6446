#include "serve/serve_types.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dnn/datasets.hpp"
#include "dnn/network.hpp"

namespace xl::serve {

void ServingOptions::validate() const {
  if (workers == 0) {
    throw std::invalid_argument("ServingOptions: workers must be >= 1");
  }
  if (max_batch == 0) {
    throw std::invalid_argument("ServingOptions: max_batch must be >= 1");
  }
  if (queue_capacity == 0) {
    throw std::invalid_argument("ServingOptions: queue_capacity must be >= 1");
  }
  if (deadline_us < 0.0 || !std::isfinite(deadline_us)) {
    throw std::invalid_argument("ServingOptions: deadline_us must be finite and >= 0");
  }
  if (deadline_us > kMaxDeadlineUs) {
    throw std::invalid_argument(
        "ServingOptions: deadline_us must be at most 1e9 (1000 s)");
  }
  if (pace_hardware_time) {
    if (pace_scale <= 0.0 || !std::isfinite(pace_scale)) {
      throw std::invalid_argument("ServingOptions: pace_scale must be finite and > 0");
    }
    architecture.validate();
  }
}

void ServingStats::merge(const ServingStats& other) {
  requests += other.requests;
  samples += other.samples;
  batches += other.batches;
  busy_us += other.busy_us;
  if (batch_rows_histogram.size() < other.batch_rows_histogram.size()) {
    batch_rows_histogram.resize(other.batch_rows_histogram.size(), 0);
  }
  for (std::size_t r = 0; r < other.batch_rows_histogram.size(); ++r) {
    batch_rows_histogram[r] += other.batch_rows_histogram[r];
  }
  inference.merge(other.inference);
}

void copy_parameters(dnn::Network& src, dnn::Network& dst) {
  const auto src_params = src.parameters();
  const auto dst_params = dst.parameters();
  if (src_params.size() != dst_params.size()) {
    throw std::invalid_argument(
        "copy_parameters: parameter count mismatch (factory network does not "
        "match the prototype architecture)");
  }
  for (std::size_t i = 0; i < src_params.size(); ++i) {
    const dnn::Tensor& from = *src_params[i].value;
    dnn::Tensor& to = *dst_params[i].value;
    if (from.shape() != to.shape()) {
      throw std::invalid_argument("copy_parameters: parameter shape mismatch");
    }
    to = from;
  }
}

std::vector<dnn::Tensor> make_mixed_size_trace(
    const dnn::Dataset& data, std::size_t requests, std::size_t max_rows,
    std::vector<std::pair<std::size_t, std::size_t>>* slices) {
  if (data.size() == 0) {
    throw std::invalid_argument("make_mixed_size_trace: empty dataset");
  }
  if (max_rows == 0) {
    throw std::invalid_argument("make_mixed_size_trace: max_rows must be >= 1");
  }
  std::vector<dnn::Tensor> trace;
  trace.reserve(requests);
  if (slices != nullptr) {
    slices->clear();
    slices->reserve(requests);
  }
  std::size_t cursor = 0;
  for (std::size_t i = 0; i < requests; ++i) {
    const std::size_t rows = std::min<std::size_t>(1 + i % 4, max_rows);
    if (rows > data.size()) {
      throw std::invalid_argument("make_mixed_size_trace: dataset smaller than a slice");
    }
    if (cursor + rows > data.size()) cursor = 0;
    trace.push_back(dnn::batch_images(data, cursor, rows));
    if (slices != nullptr) slices->emplace_back(cursor, rows);
    cursor += rows;
  }
  return trace;
}

}  // namespace xl::serve
