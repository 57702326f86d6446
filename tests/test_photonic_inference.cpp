// Whole-model photonic inference engine tests: a trained CNN executed with
// every CONV/FC dot product on the simulated analog datapath, checked
// bit for bit against the VdpSimulator::dot oracle.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "core/effects.hpp"
#include "core/execution_plan.hpp"
#include "core/photonic_inference.hpp"
#include "dnn/activations.hpp"
#include "dnn/conv2d.hpp"
#include "dnn/datasets.hpp"
#include "dnn/dense.hpp"
#include "dnn/pooling.hpp"
#include "dnn/reshape.hpp"
#include "dnn/trainer.hpp"
#include "numerics/rng.hpp"
#include "photonic_oracle.hpp"

namespace {

using namespace xl;

dnn::SyntheticSpec tiny_task() {
  dnn::SyntheticSpec spec;
  spec.classes = 4;
  spec.height = 10;
  spec.width = 10;
  spec.channels = 1;
  spec.noise_std = 0.06;
  spec.jitter_px = 1;
  spec.seed = 33;
  return spec;
}

dnn::Network tiny_cnn(numerics::Rng& rng) {
  dnn::Network net;
  net.emplace<dnn::Conv2d>(dnn::Conv2dConfig{1, 4, 3, 1, 1}, rng);
  net.emplace<dnn::ReLU>();
  net.emplace<dnn::MaxPool2d>(2);
  net.emplace<dnn::Flatten>();
  net.emplace<dnn::Dense>(4 * 5 * 5, 4, rng);
  return net;
}

TEST(PhotonicInference, MatchesFloatPredictionsOnTrainedCnn) {
  numerics::Rng rng(21);
  const dnn::SyntheticSpec spec = tiny_task();
  const dnn::Dataset train = dnn::generate_classification(spec, 256, 0);
  const dnn::Dataset test = dnn::generate_classification(spec, 64, 1);

  dnn::Network net = tiny_cnn(rng);
  dnn::TrainConfig cfg;
  cfg.epochs = 8;
  cfg.batch_size = 32;
  cfg.learning_rate = 3e-3;
  const auto result = dnn::train_classifier(net, train, test, cfg);
  ASSERT_GT(result.test_accuracy, 0.6);

  core::PhotonicInferenceEngine engine(net);
  const std::size_t samples = 24;
  const double photonic_acc = engine.evaluate_accuracy(test, samples);
  // The analog datapath must be within 15 points of float accuracy.
  EXPECT_GT(photonic_acc, result.test_accuracy - 0.15);
  // Stats populated: conv 4*5*... dot products per sample plus dense rows.
  EXPECT_GT(engine.stats().photonic_dot_products, samples * 100);
  EXPECT_GT(engine.stats().photonic_macs, engine.stats().photonic_dot_products);
}

TEST(PhotonicInference, PerLayerErrorBounded) {
  numerics::Rng rng(22);
  dnn::Network net = tiny_cnn(rng);
  core::PhotonicInferenceEngine engine(net);
  engine.set_track_layer_error(true);  // Reference pass is opt-in.
  const dnn::Dataset data = dnn::generate_classification(tiny_task(), 4, 2);
  (void)engine.infer_batch(dnn::batch_images(data, 0, 1));
  // Pre-activation analog error stays small relative to unit-scale values.
  EXPECT_LT(engine.stats().max_abs_layer_error, 0.5);
  EXPECT_GT(engine.stats().max_abs_layer_error, 0.0);
  engine.reset_stats();
  EXPECT_EQ(engine.stats().photonic_dot_products, 0u);
}

TEST(PhotonicInference, SingletonBatchIsFirstClass) {
  // The legacy single-sample infer() wrapper is gone; a batch of one through
  // infer_batch is the supported path and is reproducible across engines.
  numerics::Rng rng(23);
  dnn::Network net = tiny_cnn(rng);
  core::PhotonicInferenceEngine engine(net);
  EXPECT_THROW((void)engine.infer_batch(dnn::Tensor({0, 1, 10, 10})),
               std::invalid_argument);
  const dnn::Dataset data = dnn::generate_classification(tiny_task(), 1, 5);
  const dnn::Tensor once = engine.infer_batch(dnn::batch_images(data, 0, 1));
  ASSERT_EQ(once.dim(0), 1u);
  core::PhotonicInferenceEngine fresh(net);
  const dnn::Tensor again = fresh.infer_batch(dnn::batch_images(data, 0, 1));
  for (std::size_t c = 0; c < once.dim(1); ++c) {
    EXPECT_EQ(once.at2(0, c), again.at2(0, c));
  }
}

TEST(PhotonicInference, BatchedMatchesPerSample) {
  numerics::Rng rng(26);
  dnn::Network net = tiny_cnn(rng);
  const dnn::Dataset data = dnn::generate_classification(tiny_task(), 6, 3);

  core::PhotonicInferenceEngine batched(net);
  core::PhotonicInferenceEngine scalar(net);
  const dnn::Tensor batch = dnn::batch_images(data, 0, 6);
  const dnn::Tensor batched_logits = batched.infer_batch(batch);
  ASSERT_EQ(batched_logits.dim(0), 6u);

  for (std::size_t n = 0; n < 6; ++n) {
    const dnn::Tensor one = scalar.infer_batch(dnn::batch_images(data, n, 1));
    for (std::size_t c = 0; c < one.dim(1); ++c) {
      // Per-row DAC normalization makes each sample independent of the rest
      // of the batch: batched and per-sample execution agree exactly.
      EXPECT_EQ(batched_logits.at2(n, c), one.at2(0, c)) << "sample " << n;
    }
  }
  EXPECT_EQ(batched.stats().batches_inferred, 1u);
  EXPECT_EQ(batched.stats().samples_inferred, 6u);
  EXPECT_EQ(batched.stats().photonic_dot_products,
            scalar.stats().photonic_dot_products);
}

TEST(PhotonicInference, InferBatchMatchesOracleForEveryBatchSize) {
  numerics::Rng rng(28);
  dnn::Network net = tiny_cnn(rng);
  const dnn::Dataset data = dnn::generate_classification(tiny_task(), 6, 6);
  core::VdpSimOptions vdp;
  vdp.effects = core::EffectConfig::parse("all");
  core::PhotonicInferenceEngine engine(net, vdp);
  oracle::PhotonicOracle reference(vdp);
  for (std::size_t rows = 1; rows <= 6; ++rows) {
    SCOPED_TRACE(rows);
    const dnn::Tensor batch = dnn::batch_images(data, 0, rows);
    const dnn::Tensor want = reference.infer(net, batch);
    const dnn::Tensor got = engine.infer_batch(batch);
    ASSERT_EQ(want.shape(), got.shape());
    EXPECT_EQ(0, std::memcmp(want.data(), got.data(), got.numel() * sizeof(float)));
  }
}

TEST(PhotonicInference, LayerRangesStitchToOnePass) {
  // Trunk [0, 3) and tail [3, end) through two caller-held plans, on one
  // continuous effect timeline, reproduce infer_batch bit for bit; only the
  // full pass counts samples.
  numerics::Rng rng(29);
  dnn::Network net = tiny_cnn(rng);
  const dnn::Dataset data = dnn::generate_classification(tiny_task(), 3, 7);
  const dnn::Tensor batch = dnn::batch_images(data, 0, 3);
  core::VdpSimOptions vdp;
  vdp.effects = core::EffectConfig::parse("all");
  core::PhotonicInferenceEngine whole(net, vdp);
  core::PhotonicInferenceEngine split(net, vdp);
  const dnn::Tensor want = whole.infer_batch(batch);

  std::unique_ptr<core::ExecutionPlan> trunk;
  std::unique_ptr<core::ExecutionPlan> tail;
  const dnn::Tensor mid = split.infer_range(trunk, batch, 0, 3);
  const dnn::Tensor got = split.infer_range(tail, mid, 3, net.layer_count());
  ASSERT_NE(trunk, nullptr);
  EXPECT_EQ(trunk->end_layer(), 3u);
  EXPECT_EQ(tail->begin_layer(), 3u);
  ASSERT_EQ(want.shape(), got.shape());
  EXPECT_EQ(0, std::memcmp(want.data(), got.data(), got.numel() * sizeof(float)));
  EXPECT_EQ(split.stats().samples_inferred, 0u);
  EXPECT_EQ(split.stats().photonic_dot_products, whole.stats().photonic_dot_products);
  EXPECT_EQ(whole.stats().samples_inferred, 3u);
  EXPECT_THROW((void)split.infer_range(tail, mid, 4, 3), std::invalid_argument);
}

TEST(PhotonicInference, LayerErrorTrackingIsOptIn) {
  numerics::Rng rng(27);
  dnn::Network net = tiny_cnn(rng);
  const dnn::Dataset data = dnn::generate_classification(tiny_task(), 2, 4);
  core::PhotonicInferenceEngine engine(net);
  (void)engine.infer_batch(dnn::batch_images(data, 0, 1));
  // Without the opt-in reference pass, no layer error is accumulated.
  EXPECT_EQ(engine.stats().max_abs_layer_error, 0.0);
}

TEST(PhotonicInference, EvaluateValidatesCount) {
  numerics::Rng rng(24);
  dnn::Network net = tiny_cnn(rng);
  core::PhotonicInferenceEngine engine(net);
  const dnn::Dataset data = dnn::generate_classification(tiny_task(), 4, 2);
  EXPECT_THROW((void)engine.evaluate_accuracy(data, 0), std::invalid_argument);
  EXPECT_THROW((void)engine.evaluate_accuracy(data, 5), std::invalid_argument);
}

TEST(PhotonicInference, LowResolutionDegradesAccuracy) {
  numerics::Rng rng(25);
  const dnn::SyntheticSpec spec = tiny_task();
  const dnn::Dataset train = dnn::generate_classification(spec, 256, 0);
  const dnn::Dataset test = dnn::generate_classification(spec, 48, 1);
  dnn::Network net = tiny_cnn(rng);
  dnn::TrainConfig cfg;
  cfg.epochs = 8;
  cfg.batch_size = 32;
  cfg.learning_rate = 3e-3;
  (void)dnn::train_classifier(net, train, test, cfg);

  core::VdpSimOptions hi;
  hi.resolution_bits = 16;
  core::VdpSimOptions lo;
  lo.resolution_bits = 2;
  core::PhotonicInferenceEngine hi_engine(net, hi);
  core::PhotonicInferenceEngine lo_engine(net, lo);
  const double hi_acc = hi_engine.evaluate_accuracy(test, 24);
  const double lo_acc = lo_engine.evaluate_accuracy(test, 24);
  EXPECT_GE(hi_acc, lo_acc);  // The Fig. 5 story at the datapath level.
}

}  // namespace
