// dse-sweep: cold DseEngine::run sweeps over the Fig. 6 grid x 4 variants x
// {4, 8, 12, 16} bits on the Table I zoo, each followed by a warm re-run on
// the same engine that the memo answers entirely. Only the analytic model
// (mapper, performance, power, area) and the xl::exec pool do work here, so
// a change to the serving or photonic layers should leave it flat.
#include <atomic>
#include <cstdio>
#include <string>
#include <vector>

#include "baselines/holylight.hpp"
#include "baselines/photonic_baseline.hpp"
#include "bench.hpp"
#include "core/accelerator.hpp"
#include "core/dse_engine.hpp"
#include "core/report.hpp"
#include "dnn/models.hpp"
#include "exec/task_pool.hpp"
#include "expected.hpp"
#include "stats.hpp"

namespace pb {

namespace {

using xl::core::DseEngine;
using xl::core::DsePoint;
using xl::core::DseResult;

constexpr std::size_t kWarmupSweeps = 2;
constexpr std::size_t kAnalyticSamples = 256;
// Paper Table III ratios of the flagship against Holylight.
constexpr double kPaperEpbRatio = 9.5;
constexpr double kPaperKfpsRatio = 15.9;

xl::core::DseSweep fig6_sweep() {
  xl::core::DseSweep sweep;  // The Fig. 6 (N, K, n, m) grid.
  sweep.variants = {xl::core::Variant::kBase, xl::core::Variant::kBaseTed,
                    xl::core::Variant::kOpt, xl::core::Variant::kOptTed};
  sweep.resolution_bits = {4, 8, 12, 16};
  return sweep;
}

template <typename T>
std::uint64_t fold(std::uint64_t h, const T& v) {
  return fnv1a(&v, sizeof v, h);
}

std::uint64_t digest(const std::vector<DsePoint>& points, std::uint64_t h) {
  for (const DsePoint& p : points) {
    h = fold(h, p.conv_unit_size);
    h = fold(h, p.fc_unit_size);
    h = fold(h, p.conv_units);
    h = fold(h, p.fc_units);
    h = fold(h, static_cast<int>(p.variant));
    h = fold(h, p.resolution_bits);
    h = fold(h, p.area_budget_mm2);
    h = fold(h, p.candidate_id);
    h = fold(h, p.avg_fps);
    h = fold(h, p.avg_epb_pj);
    h = fold(h, p.area_mm2);
    h = fold(h, p.avg_power_w);
    h = fold(h, static_cast<int>(p.on_pareto));
    h = fold(h, static_cast<int>(p.degenerate));
  }
  return h;
}

std::uint64_t result_digest(const DseResult& r) {
  return digest(r.pareto, digest(r.points, 0xcbf29ce484222325ULL));
}

/// The gate: ranked points, Pareto front and work counts equal the recorded
/// values. `warm` runs must be served from the memo alone.
bool result_ok(const DseResult& r, bool warm) {
  const auto& s = r.stats;
  const bool counts = s.grid_candidates == expected::kDseGridCandidates &&
                      s.area_filtered == expected::kDseAreaFiltered &&
                      s.evaluations == (warm ? 0 : expected::kDseEvaluations) &&
                      s.cache_hits == (warm ? expected::kDseEvaluations : 0) &&
                      r.points.size() == expected::kDsePoints &&
                      r.pareto.size() == expected::kDsePareto;
  return counts && result_digest(r) == expected::kDseDigest;
}

struct Pair {
  double cold_us = 0.0;
  double warm_us = 0.0;
};

/// One cold sweep on a fresh engine and its warm re-run. With an evaluator
/// the sweep runs through the timed wrapper (traced run only).
Pair sweep_pair(const xl::core::DseSweep& sweep,
                const std::vector<xl::dnn::ModelSpec>& models, Report& report,
                const xl::core::DseCandidateEvaluator* evaluate, Tracer* tracer,
                std::uint64_t id, std::int32_t* run_span) {
  DseEngine engine;
  Pair p;
  bool ok = false;
  try {
    auto t0 = Clock::now();
    DseResult cold;
    {
      SpanScope s(tracer, "core.dse.cold", kNoParent, id);
      if (run_span != nullptr) *run_span = s.index();
      cold = evaluate != nullptr ? engine.run(sweep, models, *evaluate)
                                 : engine.run(sweep, models);
    }
    p.cold_us = us_since(t0);
    ok = result_ok(cold, false);
    if (!ok) {
      std::printf("cold sweep mismatch: evals %zu hits %zu filtered %zu points %zu "
                  "pareto %zu digest %016llx\n",
                  cold.stats.evaluations, cold.stats.cache_hits, cold.stats.area_filtered,
                  cold.points.size(), cold.pareto.size(),
                  static_cast<unsigned long long>(result_digest(cold)));
    }
    report.op(ok);
    t0 = Clock::now();
    DseResult warm;
    {
      SpanScope s(tracer, "core.dse.warm", kNoParent, id);
      warm = engine.run(sweep, models);
    }
    p.warm_us = us_since(t0);
    report.op(result_ok(warm, true));
  } catch (const std::exception& e) {
    std::printf("sweep failed: %s\n", e.what());
    report.op(false);
  }
  return p;
}

void report_simulated(Report& report, const std::vector<xl::dnn::ModelSpec>& zoo) {
  const xl::core::CrossLightAccelerator flagship(xl::core::best_config());
  const auto cross = xl::core::summarize(flagship.evaluate_all(zoo));
  std::vector<xl::core::AcceleratorReport> holy_reports;
  const auto holy_params = xl::baselines::holylight_params();
  for (const auto& m : zoo) holy_reports.push_back(xl::baselines::evaluate_baseline(holy_params, m));
  const auto holy = xl::core::summarize(holy_reports);
  const double epb_ratio = holy.avg_epb_pj / cross.avg_epb_pj;
  const double kfps_ratio = cross.avg_kfps_per_watt / holy.avg_kfps_per_watt;
  report.layer("sim.epb_pj_per_bit", cross.avg_epb_pj);
  report.layer("sim.kfps_per_w", cross.avg_kfps_per_watt);
  report.layer("sim.epb_vs_holylight", epb_ratio);
  report.layer("sim.kfps_per_w_vs_holylight", kfps_ratio);
  std::printf("simulated flagship (20, 150, 100, 60) Cross_opt_TED, 16 bit, zoo average:\n"
              "  EPB %.4f pJ/bit: %.2fx lower than Holylight (paper 9.5x, model error %+.1f%%)\n"
              "  %.3f kFPS/W: %.2fx higher than Holylight (paper 15.9x, model error %+.1f%%)\n",
              cross.avg_epb_pj, epb_ratio, 100.0 * (epb_ratio / kPaperEpbRatio - 1.0),
              cross.avg_kfps_per_watt, kfps_ratio,
              100.0 * (kfps_ratio / kPaperKfpsRatio - 1.0));
}

}  // namespace

void run_dse_sweep(const Options& opt, Report& report) {
  // The pool is what this workload measures: every CPU but one (left to
  // the host), with the calling thread as lane 0.
  const std::size_t lanes = std::max<std::size_t>(1, opt.nproc - 1);
  pin_exec_width(lanes);
  const xl::core::DseSweep sweep = fig6_sweep();
  std::vector<xl::dnn::ModelSpec> models;
  const auto setup = [&] {
    models = xl::dnn::table1_models();
    // The first sweeps of a process run slower (pool spin-up, heap growth);
    // they are set-up, not steady state.
    for (std::size_t i = 0; i < kWarmupSweeps; ++i) {
      DseEngine engine;
      (void)engine.run(sweep, models);
    }
  };
  SetupTimes setups(setup, [] {});
  setups.time(opt.trace ? 1 : kSetupReps);

  if (!opt.trace) {
    std::vector<double> cold, warm;
    const auto t0 = Clock::now();
    while (us_since(t0) < opt.seconds * 1e6) {
      const Pair p = sweep_pair(sweep, models, report, nullptr, nullptr, 0, nullptr);
      cold.push_back(p.cold_us);
      warm.push_back(p.warm_us);
    }
    const Tail t = tail(cold);
    report.e2e("latency_p50_us", median(cold));
    report.e2e("latency_p99_us", t.value);
    report.e2e("samples_per_s",
               static_cast<double>(expected::kDseEvaluations) / (median(cold) / 1e6));
    report.e2e("max_rate_rps", 1e6 / median(warm));
    std::printf("%zu cold sweeps at %zu lanes: p50 %.2f ms, p%.1f %.2f ms; warm re-run "
                "p50 %.3f ms\n",
                cold.size(), lanes, median(cold) / 1e3, t.percentile, t.value / 1e3,
                median(warm) / 1e3);
    setups.time(kSetupReps);
    setups.report(report);
    return;
  }

  Tracer tracer(1 << 21);
  std::vector<double> plain_cold, cold, warm, overhead_ms, efficiency;
  const auto t0 = Clock::now();
  while (us_since(t0) < opt.seconds * 0.5e6) {
    plain_cold.push_back(sweep_pair(sweep, models, report, nullptr, nullptr, 0, nullptr).cold_us);
  }
  std::int32_t run_span = kNoParent;
  bool record_spans = true;  // Evaluation spans of the first sweep only.
  std::atomic<std::int64_t> busy_ns{0};
  const xl::core::DseCandidateEvaluator timed =
      [&](const xl::core::DseCandidate& c, const xl::dnn::ModelSpec& m) {
        const std::int64_t a = Tracer::now_ns();
        xl::core::AcceleratorReport r = xl::core::CrossLightAccelerator(c.config).evaluate(m);
        const std::int64_t b = Tracer::now_ns();
        busy_ns.fetch_add(b - a, std::memory_order_relaxed);
        if (record_spans) tracer.record("core.analytic.evaluate", a, b, run_span, c.id);
        return r;
      };
  const auto t1 = Clock::now();
  for (std::uint64_t id = 1; us_since(t1) < opt.seconds * 0.5e6; ++id) {
    record_spans = id == 1;
    busy_ns.store(0);
    const Pair p = sweep_pair(sweep, models, report, &timed, &tracer, id, &run_span);
    cold.push_back(p.cold_us);
    warm.push_back(p.warm_us);
    const double busy_ms = static_cast<double>(busy_ns.load()) / 1e6;
    overhead_ms.push_back(p.cold_us / 1e3 - busy_ms / static_cast<double>(lanes));
    efficiency.push_back(busy_ms / (p.cold_us / 1e3 * static_cast<double>(lanes)));
  }
  report.layer("core.dse.cold_ms", median(cold) / 1e3);
  report.layer("core.dse.warm_ms", median(warm) / 1e3);
  report.layer("core.dse.overhead_ms", median(overhead_ms));
  report.layer("exec.efficiency", median(efficiency));
  report.layer("trace.overhead_frac", (median(cold) - median(plain_cold)) / median(plain_cold));
  std::printf("tracing overhead: cold sweep p50 %.2f ms untraced vs %.2f ms traced\n",
              median(plain_cold) / 1e3, median(cold) / 1e3);

  // Counts of one cold and one warm sweep (exact, deterministic).
  {
    DseEngine engine;
    const DseResult c = engine.run(sweep, models);
    const DseResult w = engine.run(sweep, models);
    report.layer("core.dse.evaluations", static_cast<double>(c.stats.evaluations));
    report.layer("core.dse.area_filtered", static_cast<double>(c.stats.area_filtered));
    report.layer("core.dse.cache_hits", static_cast<double>(w.stats.cache_hits));
  }

  // The analytic model call by call, serially.
  std::vector<double> construct_us, evaluate_us;
  const auto admitted = DseEngine::admit(sweep);
  for (std::size_t i = 0; i < kAnalyticSamples; ++i) {
    const auto& cand = admitted[(i * 7919) % admitted.size()];
    const auto& model = models[i % models.size()];
    const auto a = Clock::now();
    const xl::core::CrossLightAccelerator acc(cand.config);
    const auto b = Clock::now();
    const auto r = acc.evaluate(model);
    construct_us.push_back(us_since(a, b));
    evaluate_us.push_back(us_since(b));
    (void)r;
  }
  report.layer("core.analytic.construct_us.p50", median(construct_us));
  report.layer("core.analytic.evaluate_us.p50", median(evaluate_us));
  report_simulated(report, models);

  finish_trace(tracer, opt, report);
}

}  // namespace pb
