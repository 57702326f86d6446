// thermal-accuracy: repeated evaluate_accuracy passes of the trained proxy
// MLP over its 128-sample test set with every effect on and the hostile
// thermal stage of scenarios/thermal-stress.ini. Simulated time advances
// per layer and is reset only per pass, so the effect frame changes on
// every GEMM call: nothing cached per frame survives, and work moved into
// per-frame table builds shows here as a slowdown.
#include <cstdio>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/effects.hpp"
#include "core/photonic_inference.hpp"
#include "dnn/datasets.hpp"
#include "dnn/models.hpp"
#include "expected.hpp"
#include "layers.hpp"
#include "serve/serve_types.hpp"
#include "stats.hpp"

namespace pb {

namespace {

constexpr std::size_t kSamples = 128;

/// The thermal-stress scenario's datapath: all effects, naive per-heater
/// trim at 3 um pitch, 0.4 nm ambient wander with a 100 us period, one
/// 1 us thermal step per accelerated layer.
xl::core::VdpSimOptions thermal_stress() {
  xl::core::VdpSimOptions vdp;
  vdp.effects = xl::core::EffectConfig::parse("all");
  auto& t = vdp.effects.thermal_stage;
  t.use_ted = false;
  t.pitch_um = 3.0;
  t.ambient_drift_nm = 0.4;
  t.ambient_period_us = 100.0;
  t.dt_us = 1.0;
  return vdp;
}

/// Logits digest and accuracy of one pass, recomputed batch by batch exactly
/// as evaluate_accuracy walks the set.
std::uint64_t logits_digest(xl::core::PhotonicInferenceEngine& engine,
                            const xl::dnn::Dataset& test, double* accuracy) {
  engine.engine().reset_effects();
  std::uint64_t h = 0xcbf29ce484222325ULL;
  std::size_t correct = 0;
  const std::size_t batch = engine.eval_batch_size();
  for (std::size_t start = 0; start < kSamples; start += batch) {
    const std::size_t n = std::min(batch, kSamples - start);
    const xl::dnn::Tensor logits = engine.infer_batch(xl::dnn::batch_images(test, start, n));
    h = fnv1a(logits.data(), logits.numel() * sizeof(float), h);
    for (std::size_t b = 0; b < n; ++b) {
      std::size_t best = 0;
      for (std::size_t c = 1; c < logits.dim(1); ++c) {
        if (logits.at2(b, c) > logits.at2(b, best)) best = c;
      }
      if (best == test.labels[start + b]) ++correct;
    }
  }
  *accuracy = static_cast<double>(correct) / static_cast<double>(kSamples);
  return h;
}

}  // namespace

void run_thermal_accuracy(const Options& opt, Report& report) {
  pin_exec_width(1);
  const xl::core::VdpSimOptions vdp = thermal_stress();
  xl::dnn::Table1ProxyMlp proxy;
  std::unique_ptr<xl::core::PhotonicInferenceEngine> engine;
  const auto setup = [&] {
    engine.reset();
    proxy = xl::dnn::train_table1_proxy_mlp();
    engine = std::make_unique<xl::core::PhotonicInferenceEngine>(proxy.net, vdp);
    engine->engine().reset_effects();
    (void)engine->evaluate_accuracy(proxy.test, kSamples);
  };
  SetupTimes setups(setup, [] {});
  setups.time(opt.trace ? 1 : kSetupReps);

  const auto pass = [&](Tracer* tracer, std::uint64_t id) {
    bool ok = false;
    const auto t0 = Clock::now();
    try {
      SpanScope s(tracer, "core.evaluate_accuracy", kNoParent, id);
      engine->engine().reset_effects();
      ok = engine->evaluate_accuracy(proxy.test, kSamples) == expected::kThermalAccuracy;
    } catch (const std::exception&) {
    }
    report.op(ok);
    return us_since(t0);
  };
  const auto run_for = [&](double seconds, Tracer* tracer) {
    std::vector<double> us;
    const auto t0 = Clock::now();
    for (std::uint64_t id = 1; us_since(t0) < seconds * 1e6; ++id) us.push_back(pass(tracer, id));
    return us;
  };

  if (!opt.trace) {
    const std::vector<double> us = run_for(opt.seconds, nullptr);
    const Tail t = tail(us);
    report.e2e("latency_p50_us", median(us));
    report.e2e("latency_p99_us", t.value);
    report.e2e("samples_per_s", static_cast<double>(kSamples) / (median(us) / 1e6));
    report.e2e("max_rate_rps", 1e6 / median(us));
    std::printf("%zu passes: p50 %.1f us, p%.1f %.1f us\n", us.size(), median(us),
                t.percentile, t.value);
    setups.time(kSetupReps);
    setups.report(report);
  } else {
    Tracer tracer(1 << 20);
    const std::vector<double> plain = run_for(opt.seconds / 2.0, nullptr);
    const std::vector<double> traced = run_for(opt.seconds / 4.0, &tracer);
    report.layer("trace.overhead_frac", (median(traced) - median(plain)) / median(plain));
    std::printf("tracing overhead: pass p50 %.1f us untraced vs %.1f us traced\n",
                median(plain), median(traced));
    const xl::dnn::Tensor batch =
        xl::dnn::batch_images(proxy.test, 0, engine->eval_batch_size());
    const PlanProfile p = profile_changing_frame(proxy.net, vdp, batch, 256, &tracer);
    report.layer("core.effects.advance_us", p.advance_us);
    report.layer("dnn.eval_us", p.eval_us);
    for (std::size_t i = 0; i < p.layers.size(); ++i) {
      const std::string core = "core.L" + std::to_string(i) + ".";
      report.layer(core + "gemm_cold_us", p.layers[i].gemm_cold_us);
      report.layer(core + "dots", static_cast<double>(p.layers[i].dots));
      report.layer(core + "macs", static_cast<double>(p.layers[i].macs));
      report.layer("sim.L" + std::to_string(i) + ".latency_ns", p.layers[i].sim_latency_ns);
    }
    finish_trace(tracer, opt, report);
  }

  double accuracy = 0.0;
  const std::uint64_t h = logits_digest(*engine, proxy.test, &accuracy);
  std::printf("accuracy %.6f, logits digest %016llx\n", accuracy,
              static_cast<unsigned long long>(h));
  report.op(h == expected::kThermalLogitsDigest && accuracy == expected::kThermalAccuracy);
}

}  // namespace pb
