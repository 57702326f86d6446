// Hot-path tests: the ExecutionPlan bit-identity contract (planned execution
// produces exactly the bytes of the VdpSimulator::dot oracle across effect
// sets and batch shapes, and served logits match the oracle per request
// across worker counts), the GEMM table-cache persistence rule, the Arena
// workspace semantics (alignment, mark/rewind, exhaustion regrow, reset
// coalescing), the training-gated activation caches, and the
// zero-allocation steady state (engine and serving shard) measured through
// the operator-new interposer.
//
// The ASan+UBSan CI job runs this binary (sanitize matrix covers the arena
// and the interposed allocator paths); the TSan job runs it for the
// serving tests.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <future>
#include <stdexcept>
#include <vector>

#include "core/effects.hpp"
#include "core/execution_plan.hpp"
#include "core/photonic_inference.hpp"
#include "dnn/activations.hpp"
#include "dnn/batchnorm.hpp"
#include "dnn/conv2d.hpp"
#include "dnn/datasets.hpp"
#include "dnn/dense.hpp"
#include "dnn/models.hpp"
#include "dnn/pooling.hpp"
#include "dnn/reshape.hpp"
#include "numerics/alloc_counter.hpp"
#include "numerics/arena.hpp"
#include "numerics/rng.hpp"
#include "photonic_oracle.hpp"
#include "serve/serving_runtime.hpp"

namespace xl {
namespace {

using core::PhotonicInferenceEngine;
using core::RowViewIn;
using core::RowViewOut;
using core::VdpSimOptions;
using dnn::Shape;
using dnn::Tensor;
using oracle::PhotonicOracle;

// ---------------------------------------------------------------------------
// Fixtures: deterministic networks covering every planned layer kind.
// ---------------------------------------------------------------------------

/// Untrained (seeded) Table I proxy MLP: Flatten + Dense stack.
dnn::Network make_mlp(unsigned seed = 21) {
  numerics::Rng rng(seed);
  return dnn::build_table1_proxy_mlp(rng);
}

/// Small CNN exercising every layer the plan compiles: Conv (padded and
/// unpadded), BatchNorm, ReLU/Sigmoid/Tanh, MaxPool, AvgPool, Flatten,
/// Dropout (inference identity), Dense.
dnn::Network make_cnn(unsigned seed = 7) {
  numerics::Rng rng(seed);
  dnn::Network net;
  net.emplace<dnn::Conv2d>(dnn::Conv2dConfig{2, 3, 3, 1, 1}, rng);  // (3,8,8)
  net.emplace<dnn::BatchNorm>(3);
  net.emplace<dnn::ReLU>();
  net.emplace<dnn::MaxPool2d>(2);  // (3,4,4)
  net.emplace<dnn::AvgPool2d>(2);  // (3,2,2)
  net.emplace<dnn::Conv2d>(dnn::Conv2dConfig{3, 4, 3, 1, 1}, rng);  // (4,2,2)
  net.emplace<dnn::Sigmoid>();
  net.emplace<dnn::Flatten>();  // 16
  net.emplace<dnn::Dropout>(0.5, /*seed=*/11);
  net.emplace<dnn::Dense>(16, 8, rng);
  net.emplace<dnn::Tanh>();
  net.emplace<dnn::Dense>(8, 5, rng);
  return net;
}

const Shape kCnnSample = {1, 2, 8, 8};

/// Deterministic batch of `rows` samples for `sample_shape`.
Tensor make_batch(const Shape& sample_shape, std::size_t rows, unsigned seed) {
  Shape shape = sample_shape;
  shape[0] = rows;
  Tensor x(shape);
  numerics::Rng rng(seed);
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return x;
}

/// Feed training batches through `net` so BatchNorm running statistics are
/// non-trivial.
void warm_batchnorm(dnn::Network& net, const Shape& sample_shape) {
  for (unsigned pass = 0; pass < 3; ++pass) {
    Tensor y = make_batch(sample_shape, 4, 100 + pass);
    for (std::size_t i = 0; i < net.layer_count(); ++i) y = net.layer(i).forward(y, true);
  }
}

/// The small CNN with warmed BatchNorm statistics.
dnn::Network make_warm_cnn() {
  dnn::Network net = make_cnn();
  warm_batchnorm(net, kCnnSample);
  return net;
}

void expect_bit_identical(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)));
}

const char* const kEffectSets[] = {"none",  "thermal",   "fpv",
                                   "noise", "crosstalk", "all"};

VdpSimOptions vdp_with(const char* effects) {
  VdpSimOptions vdp;
  vdp.effects = core::EffectConfig::parse(effects);
  return vdp;
}

// ---------------------------------------------------------------------------
// Bit-identity: planned infer_batch == the VdpSimulator::dot oracle.
// ---------------------------------------------------------------------------

void check_plan_matches_oracle(dnn::Network net, const Shape& sample_shape,
                               const char* effects) {
  const VdpSimOptions vdp = vdp_with(effects);
  PhotonicInferenceEngine planned(net, vdp);
  PhotonicOracle oracle(vdp);
  std::size_t samples = 0;
  // Growing batches recompile the plan; the trailing 2 reuses the 8-row one.
  for (const std::size_t rows : {std::size_t{1}, std::size_t{3}, std::size_t{8},
                                 std::size_t{2}}) {
    const Tensor x = make_batch(sample_shape, rows, 42 + static_cast<unsigned>(rows));
    oracle.reset_effects();
    planned.engine().reset_effects();
    // Two calls without an effects reset in between: the second batch runs
    // on an advanced thermal timeline, so plan reuse (not just the first
    // compile) is held to the bit-identity contract.
    for (unsigned call = 0; call < 2; ++call) {
      expect_bit_identical(oracle.infer(net, x), planned.infer_batch(x));
      samples += rows;
    }
  }
  // The plan accrues exactly the work the oracle performed.
  EXPECT_EQ(planned.stats().photonic_matmuls, oracle.matmuls);
  EXPECT_EQ(planned.stats().photonic_dot_products, oracle.dots);
  EXPECT_EQ(planned.stats().photonic_macs, oracle.macs);
  EXPECT_EQ(planned.stats().samples_inferred, samples);
  EXPECT_EQ(planned.stats().batches_inferred, 8U);
}

TEST(ExecutionPlan, MlpMatchesOracleAcrossEffectSets) {
  for (const char* effects : kEffectSets) {
    SCOPED_TRACE(effects);
    check_plan_matches_oracle(make_mlp(), {1, 1, 12, 12}, effects);
  }
}

TEST(ExecutionPlan, CnnMatchesOracleAcrossEffectSets) {
  for (const char* effects : kEffectSets) {
    SCOPED_TRACE(effects);
    check_plan_matches_oracle(make_warm_cnn(), kCnnSample, effects);
  }
}

TEST(ExecutionPlan, InvalidatePlanPicksUpMutatedWeights) {
  // The plan packs weights at compile time; invalidate_plan() is the
  // documented way to make a weight change visible to infer_batch.
  dnn::Network net = make_mlp();
  const VdpSimOptions vdp = vdp_with("all");
  PhotonicInferenceEngine engine(net, vdp);
  PhotonicOracle oracle(vdp);
  const Tensor x = make_batch({1, 1, 12, 12}, 4, 23);
  const Tensor before = engine.infer_batch(x);

  dnn::Layer* last_dense = nullptr;
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    if (net.layer(i).kind_id() == dnn::LayerKind::kDense) last_dense = &net.layer(i);
  }
  ASSERT_NE(last_dense, nullptr);
  Tensor& w = static_cast<dnn::Dense&>(*last_dense).weights();
  for (std::size_t i = 0; i < w.numel(); ++i) w[i] = -0.5F * w[i];
  engine.invalidate_plan();

  engine.engine().reset_effects();
  oracle.reset_effects();
  const Tensor after = engine.infer_batch(x);
  expect_bit_identical(oracle.infer(net, x), after);
  EXPECT_NE(0, std::memcmp(before.data(), after.data(), after.numel() * sizeof(float)));
}

TEST(ExecutionPlan, CompilesEveryLayerWithoutFallback) {
  dnn::Network net = make_cnn();
  PhotonicInferenceEngine engine(net);
  const core::ExecutionPlan& plan = engine.prepare_plan(kCnnSample, 8);
  EXPECT_EQ(plan.stats().fallback_layers, 0U);
  EXPECT_EQ(plan.stats().planned_layers, net.layer_count());
  EXPECT_EQ(plan.max_batch(), 8U);
  EXPECT_EQ(plan.sample_numel(), 2U * 8U * 8U);
  EXPECT_EQ(plan.output_numel(), 5U);
}

// ---------------------------------------------------------------------------
// infer_views: multi-view scatter/gather and recompile-on-growth.
// ---------------------------------------------------------------------------

TEST(ExecutionPlan, SplitViewsMatchCoalescedBatch) {
  dnn::Network net = make_mlp();
  const Shape sample = {1, 1, 12, 12};
  const VdpSimOptions vdp = vdp_with("all");
  PhotonicInferenceEngine planned(net, vdp);
  planned.prepare_plan(sample, 8);

  const Tensor x = make_batch(sample, 8, 3);
  const Tensor want = PhotonicOracle(vdp).infer(net, x);
  const std::size_t sample_numel = x.numel() / 8;
  const std::size_t classes = want.dim(1);

  // Rows 0..7 split across three requests (3 + 2 + 3), each with its own
  // output buffer — the serving shard's planned layout.
  std::vector<float> out0(3 * classes);
  std::vector<float> out1(2 * classes);
  std::vector<float> out2(3 * classes);
  const RowViewIn in[] = {{x.data(), 3},
                          {x.data() + 3 * sample_numel, 2},
                          {x.data() + 5 * sample_numel, 3}};
  const RowViewOut out[] = {{out0.data(), 3}, {out1.data(), 2}, {out2.data(), 3}};
  planned.infer_views(in, out);

  EXPECT_EQ(0, std::memcmp(out0.data(), want.data(), out0.size() * sizeof(float)));
  EXPECT_EQ(0, std::memcmp(out1.data(), want.data() + 3 * classes,
                           out1.size() * sizeof(float)));
  EXPECT_EQ(0, std::memcmp(out2.data(), want.data() + 5 * classes,
                           out2.size() * sizeof(float)));
}

TEST(ExecutionPlan, RecompilesWhenBatchOutgrowsPlan) {
  dnn::Network net = make_mlp();
  const Shape sample = {1, 1, 12, 12};
  PhotonicInferenceEngine planned(net);
  planned.prepare_plan(sample, 2);

  const Tensor x = make_batch(sample, 5, 9);
  const Tensor want = PhotonicOracle(VdpSimOptions{}).infer(net, x);
  std::vector<float> got(want.numel());
  const RowViewIn in{x.data(), 5};
  const RowViewOut out{got.data(), 5};
  planned.infer_views({&in, 1}, {&out, 1});

  ASSERT_NE(planned.plan(), nullptr);
  EXPECT_GE(planned.plan()->max_batch(), 5U);
  EXPECT_EQ(0, std::memcmp(got.data(), want.data(), got.size() * sizeof(float)));
}

TEST(ExecutionPlan, InferViewsWithoutPlanThrows) {
  dnn::Network net = make_mlp();
  PhotonicInferenceEngine engine(net);
  const RowViewIn in{nullptr, 0};
  const RowViewOut out{nullptr, 0};
  EXPECT_THROW(engine.infer_views({&in, 1}, {&out, 1}), std::logic_error);
}

TEST(ExecutionPlan, InferBatchRecompilesOnSampleShapeChange) {
  dnn::Network net = make_mlp();
  PhotonicInferenceEngine planned(net);
  // Flatten + Dense accept both the image shape and its pre-flattened form;
  // switching shapes must recompile instead of feeding a stale plan.
  const Tensor image = make_batch({1, 1, 12, 12}, 2, 4);
  const Tensor first = planned.infer_batch(image);
  Tensor flat({2, 144});
  std::memcpy(flat.data(), image.data(), flat.numel() * sizeof(float));
  planned.engine().reset_effects();
  const Tensor second = planned.infer_batch(flat);
  expect_bit_identical(first, second);
}

// ---------------------------------------------------------------------------
// GEMM table cache: persisted only for repeating frames; zero-allocation
// steady state (engine level) either way.
// ---------------------------------------------------------------------------

constexpr std::size_t kCnnGemmSteps = 4;  ///< 2 Conv + 2 Dense in make_cnn().

/// Runs `executes` planned passes of one 8-row batch through the CNN with
/// the full effect stack, each checked against the oracle. `reset_each`
/// selects the serving contract (reset_effects per micro-batch: every layer
/// sees the same frame on every call) over the evaluate_accuracy shape
/// (time keeps advancing: a new frame on every call). Returns the
/// persistent table builds after each execute; heap allocations after the
/// first execute go to `allocs`.
std::vector<std::size_t> run_table_sequence(bool reset_each, std::size_t executes,
                                            std::size_t* allocs) {
  dnn::Network net = make_warm_cnn();
  const VdpSimOptions vdp = vdp_with("all");
  PhotonicInferenceEngine planned(net, vdp);
  planned.prepare_plan(kCnnSample, 8);
  PhotonicOracle oracle(vdp);

  const Tensor x = make_batch(kCnnSample, 8, 17);
  std::vector<Tensor> want;
  for (std::size_t i = 0; i < executes; ++i) {
    if (reset_each || i == 0) oracle.reset_effects();
    want.push_back(oracle.infer(net, x));
  }
  std::vector<std::vector<float>> got(executes, std::vector<float>(8 * 5));
  std::vector<std::size_t> builds;
  builds.reserve(executes);
  const RowViewIn in_view{x.data(), 8};
  const std::size_t regrows_before = planned.plan()->arena_stats().regrows;
  for (std::size_t i = 0; i < executes; ++i) {
    if (i == 1) {  // Warm-up done: the first execution may grow lane scratch.
      numerics::allocs::reset();
      numerics::allocs::set_counting(true);
    }
    if (reset_each || i == 0) planned.engine().reset_effects();
    const RowViewOut out_view{got[i].data(), 8};
    planned.infer_views({&in_view, 1}, {&out_view, 1});
    builds.push_back(planned.engine().stats().table_builds);
  }
  numerics::allocs::set_counting(false);
  *allocs = numerics::allocs::total();
  EXPECT_EQ(planned.plan()->arena_stats().regrows, regrows_before);
  for (std::size_t i = 0; i < executes; ++i) {
    EXPECT_EQ(0, std::memcmp(got[i].data(), want[i].data(), got[i].size() * sizeof(float)))
        << "execute " << i;
  }
  return builds;
}

TEST(GemmTableCache, ServingSequencePersistsOnceThenHits) {
  std::size_t allocs = 0;
  const std::vector<std::size_t> builds = run_table_sequence(true, 12, &allocs);
  // Call 1 meets each step's frame for the first time (transient tables),
  // call 2 sees it repeat and persists every step, later calls only hit.
  EXPECT_EQ(builds[0], 0U);
  for (std::size_t i = 1; i < builds.size(); ++i) {
    EXPECT_EQ(builds[i], kCnnGemmSteps) << "execute " << i;
  }
  EXPECT_EQ(allocs, 0U);
}

TEST(GemmTableCache, ChangingFramesNeverPersist) {
  std::size_t allocs = 0;
  const std::vector<std::size_t> builds = run_table_sequence(false, 12, &allocs);
  EXPECT_EQ(builds.back(), 0U);
  EXPECT_EQ(allocs, 0U);
}

// ---------------------------------------------------------------------------
// Serving: shard logits == the oracle per request, across worker counts.
// ---------------------------------------------------------------------------

const char* const kServingEffects = "thermal,noise";

std::vector<Tensor> serve_trace(std::size_t workers, const std::vector<Tensor>& trace) {
  dnn::Network prototype = make_mlp();
  serve::ServingOptions options;
  options.workers = workers;
  options.max_batch = 8;
  options.deadline_us = 200.0;
  serve::ServingRuntime runtime(vdp_with(kServingEffects), options);
  serve::ServedModel model = serve::table1_proxy_served_model(prototype);
  runtime.register_model(std::move(model));
  runtime.start();
  std::vector<std::future<serve::InferResult>> futures;
  futures.reserve(trace.size());
  for (const Tensor& input : trace) {
    futures.push_back(runtime.submit("table1-proxy-mlp", input));
  }
  std::vector<Tensor> results;
  results.reserve(trace.size());
  for (auto& future : futures) results.push_back(future.get().logits);
  runtime.stop();
  return results;
}

TEST(ServingHotPath, LogitsBitIdenticalToOracleAcrossWorkers) {
  const dnn::Dataset data =
      dnn::generate_classification(dnn::table1_proxy_task(), 64, /*salt=*/3);
  const std::vector<Tensor> trace = serve::make_mixed_size_trace(data, 24, 4);

  // Reference: each request alone through the oracle, from the boot effect
  // state — the serving determinism contract.
  dnn::Network network = make_mlp();
  PhotonicOracle oracle(vdp_with(kServingEffects));
  std::vector<Tensor> reference;
  reference.reserve(trace.size());
  for (const Tensor& input : trace) {
    oracle.reset_effects();
    reference.push_back(oracle.infer(network, input));
  }

  for (const std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE(workers);
    const std::vector<Tensor> served = serve_trace(workers, trace);
    ASSERT_EQ(served.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      expect_bit_identical(reference[i], served[i]);
    }
  }
}

TEST(ServingHotPath, ShardSteadyStateIsAllocationFree) {
  // Counters, not a history: a shard that has served N requests holds
  // nothing that grows with N, so its steady state never touches the heap.
  constexpr std::size_t kBatches = 2048;
  constexpr std::size_t kWarmup = 4;
  dnn::Network prototype = make_mlp();
  serve::ModelRepository models;
  models.add(serve::table1_proxy_served_model(prototype));
  const serve::ServedModel& entry = models.find("table1-proxy-mlp");
  serve::AcceleratorShard shard(0, models, vdp_with(kServingEffects),
                                serve::ServingOptions{});  // Pacing off.

  // Each lone-request micro-batch (promise, input, preallocated result) is
  // built up front: those are the submitter's allocations, not the shard's.
  const Tensor input = make_batch(entry.input_shape, 1, 5);
  std::vector<serve::MicroBatch> batches(kBatches);
  for (serve::MicroBatch& batch : batches) {
    batch.model = entry.name;
    batch.rows = 1;
    batch.requests.resize(1);
    serve::PendingRequest& pending = batch.requests.front();
    pending.request.model = entry.name;
    pending.request.input = input;
    pending.result.logits = Tensor(entry.output_shape);
    pending.enqueued_at = serve::Clock::now();
  }
  for (std::size_t i = 0; i < kWarmup; ++i) shard.execute(std::move(batches[i]));

  numerics::allocs::reset();
  numerics::allocs::set_counting(true);
  for (std::size_t i = kWarmup; i < kBatches; ++i) shard.execute(std::move(batches[i]));
  numerics::allocs::set_counting(false);
  EXPECT_EQ(numerics::allocs::total(), 0U);

  const serve::ServingStats stats = shard.snapshot();
  EXPECT_EQ(stats.requests, kBatches);
  EXPECT_EQ(stats.samples, kBatches);
  EXPECT_EQ(stats.batches, kBatches);
}

// ---------------------------------------------------------------------------
// Arena semantics.
// ---------------------------------------------------------------------------

TEST(Arena, AllocationsAreAlignedAndCounted) {
  numerics::Arena arena(1024);
  EXPECT_EQ(arena.stats().capacity_bytes, 1024U);
  void* a = arena.allocate(3, 1);
  void* b = arena.allocate(8, 8);
  void* c = arena.allocate(1, 64);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 8, 0U);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c) % 64, 0U);
  EXPECT_NE(a, b);
  EXPECT_EQ(arena.stats().allocations, 3U);
  EXPECT_GE(arena.stats().used_bytes, 12U);
  EXPECT_EQ(arena.stats().regrows, 0U);
  EXPECT_THROW(arena.allocate(1, 128), std::invalid_argument);
}

TEST(Arena, MarkRewindRestoresBumpPosition) {
  numerics::Arena arena(256);
  (void)arena.make_span<double>(4);
  const numerics::Arena::Marker marker = arena.mark();
  const std::size_t used = arena.stats().used_bytes;
  (void)arena.make_span<float>(16);
  EXPECT_GT(arena.stats().used_bytes, used);
  arena.rewind(marker);
  EXPECT_EQ(arena.stats().used_bytes, used);
  // The rewound region is handed out again.
  const std::span<float> again = arena.make_span<float>(16);
  EXPECT_EQ(again.size(), 16U);
}

TEST(Arena, ExhaustionRegrowsAndKeepsOldPointersValid) {
  numerics::Arena arena(64);
  const std::span<float> first = arena.make_span<float>(16);  // Fills block 0.
  first[0] = 1.0F;
  first[15] = 2.0F;
  const std::span<float> second = arena.make_span<float>(64);  // Must regrow.
  EXPECT_EQ(arena.stats().regrows, 1U);
  second[63] = 3.0F;
  // The original block was not freed or moved by the regrow.
  EXPECT_EQ(first[0], 1.0F);
  EXPECT_EQ(first[15], 2.0F);
  EXPECT_GE(arena.stats().capacity_bytes, 64U + 64U * sizeof(float));
}

TEST(Arena, ResetCoalescesOverflowBlocks) {
  numerics::Arena arena(64);
  (void)arena.make_span<float>(16);
  (void)arena.make_span<float>(64);  // Overflow block.
  ASSERT_EQ(arena.stats().regrows, 1U);
  const std::size_t capacity = arena.stats().capacity_bytes;
  arena.reset();
  EXPECT_EQ(arena.stats().used_bytes, 0U);
  EXPECT_EQ(arena.stats().resets, 1U);
  // One coalesced block of the summed capacity: the regrow debt is cleared
  // and the same allocation epoch now fits without regrowing again.
  EXPECT_EQ(arena.stats().regrows, 0U);
  EXPECT_EQ(arena.stats().capacity_bytes, capacity);
  (void)arena.make_span<float>(16);
  (void)arena.make_span<float>(64);
  EXPECT_EQ(arena.stats().regrows, 0U);
}

TEST(Arena, NestedMarksRewindLifo) {
  // The mark()/rewind() discipline is LIFO: an inner mark/rewind pair must
  // restore exactly to the inner mark, leaving the outer scope's
  // allocations (and their contents) untouched, and the outer rewind then
  // peels back to the outer mark. This is the shape of a planned engine
  // call that itself marks around per-tile scratch.
  numerics::Arena arena(512);
  const std::span<double> persistent = arena.make_span<double>(4);
  persistent[0] = 42.0;
  const numerics::Arena::Marker outer = arena.mark();
  const std::size_t outer_used = arena.stats().used_bytes;

  const std::span<float> outer_scratch = arena.make_span<float>(8);
  outer_scratch[7] = 7.0F;
  const numerics::Arena::Marker inner = arena.mark();
  const std::size_t inner_used = arena.stats().used_bytes;

  (void)arena.make_span<float>(16);
  arena.rewind(inner);
  EXPECT_EQ(arena.stats().used_bytes, inner_used);
  // The outer scope's scratch survived the inner rewind.
  EXPECT_EQ(outer_scratch[7], 7.0F);

  arena.rewind(outer);
  EXPECT_EQ(arena.stats().used_bytes, outer_used);
  EXPECT_EQ(persistent[0], 42.0);
}

TEST(Arena, RegrowAccountingUnderInterleavedMarks) {
  // Marks interleaved with regrows: rewinding across an overflow block
  // must keep the block (empty, for reuse) rather than free it, so the
  // regrow counter only ever counts blocks *appended* — a rewound-and-
  // replayed epoch of identical allocations reuses the kept blocks and
  // adds zero new regrows.
  numerics::Arena arena(64);
  const numerics::Arena::Marker epoch_start = arena.mark();
  (void)arena.make_span<float>(12);  // Fits block 0.
  ASSERT_EQ(arena.stats().regrows, 0U);

  const std::span<float> spill = arena.make_span<float>(64);  // Regrow #1.
  ASSERT_EQ(arena.stats().regrows, 1U);
  spill[0] = 1.0F;
  const numerics::Arena::Marker mid = arena.mark();  // Inside overflow block.

  (void)arena.make_span<float>(256);  // Regrow #2.
  ASSERT_EQ(arena.stats().regrows, 2U);
  const std::size_t grown_capacity = arena.stats().capacity_bytes;

  // Rewind to the marker inside overflow block #1: block #2 is kept empty,
  // capacity and regrow accounting unchanged, spill data intact.
  arena.rewind(mid);
  EXPECT_EQ(arena.stats().capacity_bytes, grown_capacity);
  EXPECT_EQ(arena.stats().regrows, 2U);
  EXPECT_EQ(spill[0], 1.0F);

  // Replaying the tail of the epoch reuses the kept block: no new regrow.
  (void)arena.make_span<float>(256);
  EXPECT_EQ(arena.stats().regrows, 2U);

  // Full rewind + replay of the whole epoch: still no new regrow.
  arena.rewind(epoch_start);
  EXPECT_EQ(arena.stats().used_bytes, 0U);
  (void)arena.make_span<float>(12);
  (void)arena.make_span<float>(64);
  (void)arena.make_span<float>(256);
  EXPECT_EQ(arena.stats().regrows, 2U);
  EXPECT_EQ(arena.stats().capacity_bytes, grown_capacity);

  // reset() clears the debt: one coalesced block, counter back to zero.
  arena.reset();
  EXPECT_EQ(arena.stats().regrows, 0U);
  EXPECT_EQ(arena.stats().capacity_bytes, grown_capacity);
}

TEST(Arena, ReserveRequiresEmptyArena) {
  numerics::Arena arena(64);
  arena.reserve(256);
  EXPECT_GE(arena.stats().capacity_bytes, 256U);
  (void)arena.allocate(8);
  EXPECT_THROW(arena.reserve(512), std::logic_error);
}

// ---------------------------------------------------------------------------
// Training-gated activation caches.
// ---------------------------------------------------------------------------

TEST(TrainingGatedCaches, InferenceForwardLeavesNoBackwardState) {
  numerics::Rng rng(3);
  dnn::Conv2d conv(dnn::Conv2dConfig{1, 2, 3, 1, 1}, rng);
  dnn::Dense dense(8, 4, rng);
  dnn::ReLU relu;
  dnn::BatchNorm bn(2);
  dnn::MaxPool2d pool(2);

  const Tensor image = make_batch({1, 1, 4, 4}, 2, 5);
  const Tensor row = make_batch({1, 8}, 2, 6);

  // Training forward arms backward...
  Tensor conv_out = conv.forward(image, true);
  (void)conv.backward(conv_out);
  Tensor dense_out = dense.forward(row, true);
  (void)dense.backward(dense_out);

  // ...inference forward clears the cache, so a stale backward fails loudly.
  conv_out = conv.forward(image, false);
  EXPECT_THROW((void)conv.backward(conv_out), std::logic_error);
  dense_out = dense.forward(row, false);
  EXPECT_THROW((void)dense.backward(dense_out), std::logic_error);
  const Tensor relu_out = relu.forward(row, false);
  EXPECT_THROW((void)relu.backward(relu_out), std::logic_error);
  const Tensor bn_out = bn.forward(conv.forward(image, false), false);
  EXPECT_THROW((void)bn.backward(bn_out), std::logic_error);
  const Tensor pool_out = pool.forward(image, false);
  EXPECT_THROW((void)pool.backward(pool_out), std::logic_error);
}

TEST(TrainingGatedCaches, InferenceForwardMatchesTraininglessLegacy) {
  // The gating is observable only through backward(); forward values at
  // inference must be unchanged. BatchNorm is the interesting case: its
  // inference branch was rewritten around a preallocated inv-std table.
  numerics::Rng rng(4);
  dnn::BatchNorm bn(3);
  const Tensor x = make_batch({1, 3, 4, 4}, 2, 8);
  (void)bn.forward(x, true);  // Non-trivial running stats.
  const Tensor once = bn.forward(x, false);
  const Tensor twice = bn.forward(x, false);
  expect_bit_identical(once, twice);
}

}  // namespace
}  // namespace xl
