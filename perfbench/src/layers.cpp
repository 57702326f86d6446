#include "layers.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <span>
#include <string>

#include "bench.hpp"
#include "core/batched_vdp_engine.hpp"
#include "core/config.hpp"
#include "core/execution_plan.hpp"
#include "core/mapper.hpp"
#include "core/performance.hpp"
#include "core/photonic_inference.hpp"
#include "dnn/conv2d.hpp"
#include "dnn/dense.hpp"
#include "dnn/im2col.hpp"
#include "numerics/arena.hpp"
#include "stats.hpp"

namespace pb {

namespace {

using xl::dnn::LayerKind;
using xl::dnn::Shape;

std::size_t numel(const Shape& s) {
  std::size_t n = 1;
  for (const std::size_t d : s) n *= d;
  return n;
}

/// The plan's step sequence rebuilt from public pieces, with one span per
/// step. Mirrors core::ExecutionPlan step for step so the two agree
/// bit for bit.
class Twin {
 public:
  /// Span names are interned in `tracer` (when given), which outlives the
  /// twin.
  Twin(xl::dnn::Network& net, const xl::core::VdpSimOptions& vdp, Shape sample,
       std::size_t max_batch, Tracer* tracer)
      : vdp_(vdp) {
    sample[0] = 1;
    Shape cur = sample;
    std::size_t max_boundary = numel(sample);
    std::size_t max_patch = 0;
    std::size_t max_y = 0;
    std::size_t scratch = 0;
    std::size_t max_k = 0;
    for (std::size_t i = 0; i < net.layer_count(); ++i) {
      auto step = std::make_unique<Step>();
      xl::dnn::Layer& layer = net.layer(i);
      step->layer = &layer;
      step->in_shape = cur;
      step->in_numel = numel(cur);
      step->out_shape = layer.output_shape(cur);
      step->out_numel = numel(step->out_shape);
      const LayerKind kind = layer.kind_id();
      if (kind == LayerKind::kDense || kind == LayerKind::kConv) {
        step->accel = accel_count_++;
        if (tracer != nullptr) {
          const std::string l = std::string("L").append(std::to_string(step->accel)) + ".";
          step->gemm_span = tracer->intern("core." + l + "gemm");
          step->epilogue_span = tracer->intern("core." + l + "epilogue");
          step->gather_span = tracer->intern("dnn." + l + "gather");
        }
        if (kind == LayerKind::kDense) {
          auto& dense = static_cast<xl::dnn::Dense&>(layer);
          step->kind = Kind::kDense;
          step->k = dense.in_features();
          step->outs = dense.out_features();
          step->packed = vdp_.pack_weights(dense.weights().data(), step->outs, step->k);
          step->bias = dense.bias().data();
          max_y = std::max(max_y, max_batch * step->outs);
          scratch = std::max(scratch, vdp_.matmul_workspace_bytes(max_batch, step->k));
        } else {
          auto& conv = static_cast<xl::dnn::Conv2d&>(layer);
          step->kind = Kind::kConv;
          step->gather = xl::dnn::plan_im2col(cur, conv.config());
          step->k = step->gather.shape.cols;
          step->outs = conv.config().out_channels;
          step->pixels = step->out_shape[2] * step->out_shape[3];
          step->packed = vdp_.pack_weights(conv.weights().data(), step->outs, step->k);
          step->bias = conv.bias().data();
          const std::size_t rows = max_batch * step->gather.shape.rows;
          max_patch = std::max(max_patch, rows * step->k);
          max_y = std::max(max_y, rows * step->outs);
          scratch = std::max(scratch, vdp_.matmul_workspace_bytes(rows, step->k));
        }
        max_k = std::max(max_k, step->k);
        const std::size_t te = vdp_.gemm_table_elems(step->k);
        step->idle.resize(te);
        step->carry.resize(step->outs * te);
        step->tables.idle = step->idle;
        step->tables.carry = step->carry;
      } else if (layer.inference_identity()) {
        step->kind = Kind::kView;
      } else if (layer.supports_eval_into()) {
        step->kind = Kind::kEval;
      } else {
        step->kind = Kind::kFallback;
      }
      max_boundary = std::max(max_boundary, step->out_numel);
      cur = step->out_shape;
      steps_.push_back(std::move(step));
    }
    out_numel_ = numel(cur);
    act_a_.resize(max_boundary * max_batch);
    act_b_.resize(max_boundary * max_batch);
    patches_.resize(max_patch);
    y_.resize(max_y);
    arena_.reserve(scratch + 1024);
    if (max_k > 0) vdp_.warm_thread_scratch(max_k);
    layer_dt_us_ = vdp.effects.thermal_stage.dt_us;
  }

  [[nodiscard]] std::size_t accel_layers() const noexcept { return accel_count_; }
  [[nodiscard]] std::size_t out_numel() const noexcept { return out_numel_; }
  xl::core::BatchedVdpEngine& engine() noexcept { return vdp_; }

  struct PassTimes {
    std::vector<double> gemm_us, gather_us, epilogue_us;
    std::vector<std::size_t> dots, macs;
    double eval_us = 0.0;
    std::vector<double> advance_us;
    double total_us = 0.0;  ///< Sum of every step span of the pass.
  };

  /// One pass over `rows` samples; `stale_tables` forces every GEMM to
  /// rebuild its arm tables, as after a frame change.
  PassTimes pass(const float* in, std::size_t rows, float* out, bool stale_tables,
                 Tracer* tracer, std::uint64_t request) {
    PassTimes t;
    t.gemm_us.assign(accel_count_, 0.0);
    t.gather_us.assign(accel_count_, 0.0);
    t.epilogue_us.assign(accel_count_, 0.0);
    t.dots.assign(accel_count_, 0);
    t.macs.assign(accel_count_, 0);
    SpanScope pass_span(tracer, "decomposed.pass", kNoParent, request);
    const std::int32_t parent = pass_span.index();

    float* cur = act_a_.data();
    float* next = act_b_.data();
    std::memcpy(cur, in, rows * steps_.front()->in_numel * sizeof(float));
    for (const auto& sp : steps_) {
      Step& s = *sp;
      switch (s.kind) {
        case Kind::kDense:
        case Kind::kConv: {
          const std::size_t a = s.accel;
          std::size_t gemm_rows = rows;
          const float* x = cur;
          if (s.kind == Kind::kConv) {
            const auto t0 = Clock::now();
            SpanScope g(tracer, s.gather_span, parent, request);
            const std::size_t per = s.gather.shape.rows * s.k;
            for (std::size_t r = 0; r < rows; ++r) {
              xl::dnn::im2col_gather(s.gather, cur + r * s.in_numel, patches_.data() + r * per);
            }
            t.gather_us[a] = us_since(t0);
            gemm_rows = rows * s.gather.shape.rows;
            x = patches_.data();
          }
          if (stale_tables) s.tables.stamp = -1.0;
          const auto before = vdp_.stats();
          {
            const auto t0 = Clock::now();
            SpanScope g(tracer, s.gemm_span, parent, request);
            vdp_.photonic_matmul(x, gemm_rows, s.k, s.packed, y_.data(), arena_, s.tables);
            t.gemm_us[a] = us_since(t0);
          }
          t.dots[a] = vdp_.stats().dot_products - before.dot_products;
          t.macs[a] = vdp_.stats().macs - before.macs;
          {
            const auto t0 = Clock::now();
            SpanScope e(tracer, s.epilogue_span, parent, request);
            epilogue(s, rows, gemm_rows, next);
            t.epilogue_us[a] = us_since(t0);
          }
          std::swap(cur, next);
          const auto t0 = Clock::now();
          {
            SpanScope adv(tracer, "core.effects.advance", parent, request);
            vdp_.advance_effects(layer_dt_us_);
          }
          t.advance_us.push_back(us_since(t0));
          break;
        }
        case Kind::kView:
          break;
        case Kind::kEval: {
          const auto t0 = Clock::now();
          SpanScope ev(tracer, "dnn.eval", parent, request);
          shape_tmp_.assign(s.in_shape.begin(), s.in_shape.end());
          shape_tmp_[0] = rows;
          s.layer->eval_into(shape_tmp_, {cur, rows * s.in_numel},
                             {next, rows * s.out_numel});
          std::swap(cur, next);
          t.eval_us += us_since(t0);
          break;
        }
        case Kind::kFallback: {
          const auto t0 = Clock::now();
          SpanScope ev(tracer, "dnn.eval", parent, request);
          shape_tmp_.assign(s.in_shape.begin(), s.in_shape.end());
          shape_tmp_[0] = rows;
          xl::dnn::Tensor xin(shape_tmp_);
          std::memcpy(xin.data(), cur, rows * s.in_numel * sizeof(float));
          const xl::dnn::Tensor o = s.layer->forward(xin, false);
          std::memcpy(next, o.data(), rows * s.out_numel * sizeof(float));
          std::swap(cur, next);
          t.eval_us += us_since(t0);
          break;
        }
      }
    }
    std::memcpy(out, cur, rows * out_numel_ * sizeof(float));
    for (std::size_t a = 0; a < accel_count_; ++a) {
      t.total_us += t.gemm_us[a] + t.gather_us[a] + t.epilogue_us[a];
    }
    for (const double v : t.advance_us) t.total_us += v;
    t.total_us += t.eval_us;
    return t;
  }

 private:
  enum class Kind { kDense, kConv, kView, kEval, kFallback };
  struct Step {
    Kind kind = Kind::kFallback;
    xl::dnn::Layer* layer = nullptr;
    Shape in_shape, out_shape;
    std::size_t in_numel = 0, out_numel = 0;
    std::size_t accel = 0, k = 0, outs = 0, pixels = 0;
    xl::core::PackedGemmWeights packed;
    std::vector<double> idle, carry;
    xl::core::GemmTableCache tables;
    xl::dnn::Im2colPlan gather;
    const float* bias = nullptr;
    const char* gemm_span = "";  ///< Span names, interned in the tracer.
    const char* epilogue_span = "";
    const char* gather_span = "";
  };

  /// Bias add and layout change, exactly as the plan writes its outputs.
  void epilogue(const Step& s, std::size_t rows, std::size_t gemm_rows, float* out) {
    if (s.kind == Kind::kDense) {
      for (std::size_t b = 0; b < rows; ++b) {
        for (std::size_t o = 0; o < s.outs; ++o) {
          out[b * s.outs + o] = static_cast<float>(y_[b * s.outs + o] + s.bias[o]);
        }
      }
      return;
    }
    for (std::size_t gr = 0; gr < gemm_rows; ++gr) {
      const std::size_t n = gr / s.pixels;
      const std::size_t pixel = gr % s.pixels;
      for (std::size_t co = 0; co < s.outs; ++co) {
        out[(n * s.outs + co) * s.pixels + pixel] =
            static_cast<float>(y_[gr * s.outs + co] + s.bias[co]);
      }
    }
  }

  xl::core::BatchedVdpEngine vdp_;
  std::vector<std::unique_ptr<Step>> steps_;
  std::size_t accel_count_ = 0;
  std::size_t out_numel_ = 0;
  double layer_dt_us_ = 0.0;
  std::vector<float> act_a_, act_b_, patches_;
  std::vector<double> y_;
  xl::numerics::Arena arena_;
  Shape shape_tmp_;
};

std::vector<double> sim_layer_latency_ns(xl::dnn::Network& net, const Shape& sample) {
  const xl::core::ArchitectureConfig config = xl::core::best_config();
  std::vector<double> out;
  for (const xl::dnn::LayerSpec& spec : net.export_specs(sample)) {
    if (!spec.is_accelerated()) continue;
    xl::dnn::ModelSpec one;
    one.name = spec.name;
    one.layers = {spec};
    const auto mapping = xl::core::map_model(one, config);
    out.push_back(xl::core::evaluate_performance(mapping, config).frame_latency_us * 1e3);
  }
  return out;
}

PlanProfile fold(const std::vector<Twin::PassTimes>& warm,
                 const std::vector<Twin::PassTimes>& cold, std::size_t accel) {
  PlanProfile p;
  p.layers.resize(accel);
  std::vector<double> totals, evals, advances;
  for (const auto& t : warm.empty() ? cold : warm) {
    totals.push_back(t.total_us);
    evals.push_back(t.eval_us);
    advances.insert(advances.end(), t.advance_us.begin(), t.advance_us.end());
  }
  if (!warm.empty()) {
    for (const auto& t : cold) {
      advances.insert(advances.end(), t.advance_us.begin(), t.advance_us.end());
    }
  }
  p.decomposed_us = median(totals);
  p.eval_us = median(evals);
  p.advance_us = median(advances);
  for (std::size_t a = 0; a < accel; ++a) {
    std::vector<double> g, gc, ga, build;
    for (const auto& t : warm) {
      g.push_back(t.gemm_us[a]);
      ga.push_back(t.gather_us[a]);
    }
    for (const auto& t : cold) gc.push_back(t.gemm_us[a]);
    // Passes alternate warm and cold: pair each cold call with the warm one
    // before it, so slow drift of the host cancels out of the difference.
    for (std::size_t i = 0; i < warm.size() && i < cold.size(); ++i) {
      build.push_back(cold[i].gemm_us[a] - warm[i].gemm_us[a]);
    }
    AccelLayerCost& c = p.layers[a];
    c.gemm_us = median(g);
    c.gather_us = median(ga);
    c.gemm_cold_us = median(gc);
    c.table_build_us = median(build);
    const auto& src = warm.empty() ? cold.front() : warm.front();
    c.dots = src.dots[a];
    c.macs = src.macs[a];
  }
  return p;
}

}  // namespace

PlanProfile profile_plan(xl::dnn::Network& net, const xl::core::VdpSimOptions& vdp,
                         const xl::dnn::Tensor& batch, std::size_t passes,
                         Tracer* tracer) {
  const std::size_t rows = batch.dim(0);
  Shape sample = batch.shape();
  sample[0] = 1;

  // The plan itself: warm once, then time whole passes.
  xl::core::PhotonicInferenceEngine engine(net, vdp);
  engine.prepare_plan(sample, rows);
  xl::dnn::Tensor plan_out({rows, engine.plan()->output_numel()});
  const xl::core::RowViewIn in{batch.data(), rows};
  const xl::core::RowViewOut out{plan_out.data(), rows};
  engine.engine().reset_effects();
  engine.infer_views({&in, 1}, {&out, 1});
  std::vector<double> execute;
  for (std::size_t i = 0; i < passes; ++i) {
    engine.engine().reset_effects();
    const auto t0 = Clock::now();
    {
      SpanScope s(tracer, "core.plan.execute", kNoParent, i + 1);
      engine.infer_views({&in, 1}, {&out, 1});
    }
    execute.push_back(us_since(t0));
  }

  Twin twin(net, vdp, sample, rows, tracer);
  std::vector<float> twin_out(rows * twin.out_numel());
  twin.engine().reset_effects();
  (void)twin.pass(batch.data(), rows, twin_out.data(), true, nullptr, 0);  // Warm.
  std::vector<Twin::PassTimes> warm, cold;
  for (std::size_t i = 0; i < 2 * passes; ++i) {
    twin.engine().reset_effects();
    const bool stale = i % 2 == 1;
    auto t = twin.pass(batch.data(), rows, twin_out.data(), stale, tracer, i + 1);
    (stale ? cold : warm).push_back(std::move(t));
  }

  PlanProfile p = fold(warm, cold, twin.accel_layers());
  p.execute_us = median(execute);
  p.coverage = p.execute_us > 0.0 ? p.decomposed_us / p.execute_us : 0.0;
  p.identical = twin_out.size() == plan_out.numel() &&
                std::memcmp(twin_out.data(), plan_out.data(),
                            twin_out.size() * sizeof(float)) == 0;
  const std::vector<double> sim = sim_layer_latency_ns(net, sample);
  for (std::size_t a = 0; a < p.layers.size() && a < sim.size(); ++a) {
    p.layers[a].sim_latency_ns = sim[a];
  }
  return p;
}

PlanProfile profile_changing_frame(xl::dnn::Network& net,
                                   const xl::core::VdpSimOptions& vdp,
                                   const xl::dnn::Tensor& batch, std::size_t passes,
                                   Tracer* tracer) {
  const std::size_t rows = batch.dim(0);
  Shape sample = batch.shape();
  sample[0] = 1;
  Twin twin(net, vdp, sample, rows, tracer);
  std::vector<float> out(rows * twin.out_numel());
  twin.engine().reset_effects();
  std::vector<Twin::PassTimes> cold;
  for (std::size_t i = 0; i < passes; ++i) {
    // No reset: simulated time keeps moving, so every table is stale.
    cold.push_back(twin.pass(batch.data(), rows, out.data(), false, tracer, i + 1));
  }
  PlanProfile p = fold({}, cold, twin.accel_layers());
  const std::vector<double> sim = sim_layer_latency_ns(net, sample);
  for (std::size_t a = 0; a < p.layers.size() && a < sim.size(); ++a) {
    p.layers[a].sim_latency_ns = sim[a];
  }
  return p;
}

}  // namespace pb
