// The serving workload, lenet-open: open-loop Poisson arrivals into a
// two-shard LeNet5 runtime on the full paper datapath. It drives CrossLight
// only through ServingRuntime::submit and ServingRuntime::stats, and checks
// every served row against a reference table computed by calling
// PhotonicInferenceEngine directly.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "core/effects.hpp"
#include "core/photonic_inference.hpp"
#include "dnn/datasets.hpp"
#include "dnn/models.hpp"
#include "exec/task_pool.hpp"
#include "layers.hpp"
#include "numerics/rng.hpp"
#include "serve/serving_runtime.hpp"
#include "stats.hpp"
#ifdef PERFBENCH_TRACED
#include "numerics/alloc_counter.hpp"
#endif

namespace pb {

namespace {

using xl::dnn::Tensor;
using xl::serve::InferResult;
using xl::serve::ServingRuntime;

// lenet-open: two shards of one lane each, plus the client thread, leave a
// CPU of a 4-CPU host free. Their capacity is about 60 req/s, and moves by
// 10% or more with the load of other tenants on a shared host; the fixed
// offered rate is about half of it, where the tail still shows queueing
// but, over the 600 requests of a 20 s run, is not yet dominated by that
// drift (at 35 req/s it spread twice as wide). It is also rung 0 of the
// rate ladder, whose rungs are 10% apart. Sustained load batches better
// than a burst, so the walk starts one rung above the burst capacity the
// run measured, skipping rungs that would certainly pass.
constexpr std::size_t kLenetShards = 2;
constexpr std::size_t kLenetMaxBatch = 8;
constexpr std::size_t kLenetMaxRows = 4;
constexpr std::size_t kLenetPool = 48;
constexpr double kLenetRateRps = 30.0;
constexpr double kLadderStep = 1.1;
constexpr int kLadderUp = 16;
constexpr int kLadderDown = -16;
/// Latency limit on the ladder's tail figure (see README.md).
constexpr double kLenetLimitUs = 750e3;
/// Collector poll period for requests finishing out of order.
constexpr auto kPollPeriod = std::chrono::microseconds(1000);
constexpr std::size_t kBurstRequests = 64;
constexpr std::size_t kBursts = 3;
/// A run is rejected when the generator's p99 lateness exceeds this share
/// of the median latency: the offered load was then not the one stated.
constexpr double kMaxLatenessShare = 0.25;
constexpr double kScrapeIntervalUs = 100e3;

struct ServedCase {
  std::string name;
  std::unique_ptr<xl::dnn::Network> prototype;
  std::function<xl::dnn::Network()> factory;
  xl::dnn::Shape input_shape;
  xl::core::VdpSimOptions vdp;
  xl::serve::ServingOptions options;
  xl::dnn::Dataset pool;
  std::size_t classes = 0;
  std::vector<std::vector<float>> reference;  ///< Logits per pool sample.

  [[nodiscard]] std::size_t sample_numel() const {
    return pool.images.numel() / pool.size();
  }

  /// Weight-complete private copy of the served network.
  [[nodiscard]] xl::dnn::Network replica() const {
    xl::dnn::Network net = factory();
    xl::serve::copy_parameters(*prototype, net);
    return net;
  }

  /// The serving determinism contract: each row equals running its sample
  /// alone through PhotonicInferenceEngine::infer_batch from the boot
  /// effect state.
  void build_reference(std::size_t lanes) {
    xl::exec::ScopedPool wide(lanes);
    xl::dnn::Network net = replica();
    xl::core::PhotonicInferenceEngine engine(net, vdp);
    reference.clear();
    for (std::size_t i = 0; i < pool.size(); ++i) {
      engine.engine().reset_effects();
      const Tensor logits = engine.infer_batch(xl::dnn::batch_images(pool, i, 1));
      classes = logits.dim(1);
      reference.emplace_back(logits.data(), logits.data() + logits.numel());
    }
  }

  [[nodiscard]] Tensor make_input(const std::vector<std::uint32_t>& rows) const {
    xl::dnn::Shape shape = input_shape;
    shape[0] = rows.size();
    Tensor t(shape);
    const std::size_t n = sample_numel();
    for (std::size_t r = 0; r < rows.size(); ++r) {
      std::memcpy(t.data() + r * n, pool.images.data() + rows[r] * n, n * sizeof(float));
    }
    return t;
  }

  [[nodiscard]] bool matches(const std::vector<std::uint32_t>& rows,
                             const Tensor& logits) const {
    if (logits.numel() != rows.size() * classes) return false;
    for (std::size_t r = 0; r < rows.size(); ++r) {
      if (std::memcmp(logits.data() + r * classes, reference[rows[r]].data(),
                      classes * sizeof(float)) != 0) {
        return false;
      }
    }
    return true;
  }

  /// Shards inherit CPUs 1..workers from the starting thread; the caller
  /// (the client) then moves to CPU 0.
  std::unique_ptr<ServingRuntime> start(std::size_t nproc) const {
    pin_thread(1, options.workers, nproc);
    auto rt = std::make_unique<ServingRuntime>(vdp, options);
    xl::serve::ServedModel m;
    m.name = name;
    m.prototype = prototype.get();
    m.factory = factory;
    m.input_shape = input_shape;
    rt->register_model(std::move(m));
    rt->start();
    pin_thread(0, 1, nproc);
    return rt;
  }
};

/// Submit bursts until every shard has executed at least one micro-batch
/// (its plan ran and its GEMM tables are built).
void warm_every_shard(ServingRuntime& rt, const ServedCase& c, std::size_t rounds) {
  const std::size_t shards = c.options.workers;
  const std::size_t rows = std::max<std::size_t>(1, c.options.max_batch / 2);
  std::vector<char> seen(shards, 0);
  std::size_t seen_count = 0;
  for (std::size_t round = 0; round < 200 && (seen_count < shards || round < rounds);
       ++round) {
    std::vector<std::future<InferResult>> futures;
    for (std::size_t i = 0; i < 2 * shards; ++i) {
      std::vector<std::uint32_t> idx(rows);
      for (std::size_t r = 0; r < rows; ++r) idx[r] = (i * rows + r) % c.pool.size();
      futures.push_back(rt.submit(c.name, c.make_input(idx)));
    }
    for (auto& f : futures) {
      const InferResult res = f.get();
      if (res.shard_id < shards && seen[res.shard_id] == 0) {
        seen[res.shard_id] = 1;
        ++seen_count;
      }
    }
  }
  if (seen_count < shards) throw std::runtime_error("warm-up never reached every shard");
}

/// Per-request telemetry of one open-loop phase.
struct RequestLog {
  std::vector<DueRecord> due;
  std::vector<double> queue_us, service_us, handoff_us, submit_us, coalesced;
  std::vector<std::size_t> outstanding;  ///< In flight at each submission.
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t rows = 0;
  double wall_s = 0.0;
  double scrape_max_us = 0.0;
  std::size_t batches = 0;
  double batch_rows_mean = 0.0;
  double busy_frac = 0.0;

  /// Reserve every per-request vector up front: pages are only resident
  /// once written, so the benchmark's own memory grows smoothly with the
  /// request count instead of in doubling steps.
  void reserve(std::size_t n) {
    for (auto* v : {&queue_us, &service_us, &handoff_us, &submit_us, &coalesced}) {
      v->reserve(n);
    }
    due.reserve(n);
    outstanding.reserve(n);
  }

  void add_result(const DueRecord& d, double submit, const InferResult& res) {
    due.push_back(d);
    queue_us.push_back(res.queue_us);
    service_us.push_back(res.service_us);
    handoff_us.push_back(d.observed_us - d.sent_us - res.queue_us - res.service_us);
    submit_us.push_back(submit);
    coalesced.push_back(static_cast<double>(res.coalesced_requests));
  }

  [[nodiscard]] std::vector<double> latencies() const {
    std::vector<double> v;
    v.reserve(due.size());
    for (const DueRecord& d : due) v.push_back(d.latency_us());
    return v;
  }
  [[nodiscard]] std::vector<double> lateness() const {
    std::vector<double> v;
    v.reserve(due.size());
    for (const DueRecord& d : due) v.push_back(d.lateness_us());
    return v;
  }
};

std::int64_t to_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch())
      .count();
}

/// Record one finished request as a span tree: the request (due -> observed)
/// with the generator's lateness, the submit() call, and the queue, service
/// and hand-off intervals the runtime reported.
void trace_request(Tracer* tracer, std::uint64_t id, Clock::time_point t0,
                   const DueRecord& d, double submit_us, const InferResult& res) {
  if (tracer == nullptr) return;
  const std::int64_t base = to_ns(t0);
  const auto at = [&](double us) { return base + static_cast<std::int64_t>(us * 1e3); };
  const std::int32_t req =
      tracer->record("serve.request", at(d.due_us), at(d.observed_us), kNoParent, id);
  tracer->record("client.late", at(d.due_us), at(d.sent_us), req, id);
  tracer->record("serve.submit", at(d.sent_us), at(d.sent_us + submit_us), req, id);
  const double q_end = d.sent_us + res.queue_us;
  tracer->record("serve.queue", at(d.sent_us), at(q_end), req, id);
  tracer->record("serve.service", at(q_end), at(q_end + res.service_us), req, id);
  tracer->record("serve.handoff", at(q_end + res.service_us), at(d.observed_us), req, id);
}

/// Fill the batch-level counters of `log` from two stats() snapshots.
void stats_delta(RequestLog& log, const xl::serve::ServingStats& before,
                 const xl::serve::ServingStats& after, std::size_t shards) {
  log.batches = after.batches - before.batches;
  log.batch_rows_mean =
      log.batches > 0 ? static_cast<double>(after.samples - before.samples) /
                            static_cast<double>(log.batches)
                      : 0.0;
  log.busy_frac = log.wall_s > 0.0 ? (after.busy_us - before.busy_us) /
                                         (log.wall_s * 1e6 * static_cast<double>(shards))
                                   : 0.0;
}

struct Pending {
  std::size_t index = 0;
  std::future<InferResult> future;
};

/// Open loop: requests are sent on a Poisson schedule whatever the system
/// does. One client thread both sends (on time, as due) and observes
/// completions in any order, polling the outstanding futures between due
/// times; it also scrapes stats() at a fixed interval, as a monitoring
/// client would.
RequestLog open_loop(ServingRuntime& rt, const ServedCase& c, double rate,
                     double seconds, SplitMix& rng, Tracer* tracer,
                     std::uint64_t id_base) {
  const std::vector<double> schedule = poisson_schedule(rate, seconds, rng);
  const std::size_t n = schedule.size();
  std::vector<std::vector<std::uint32_t>> rows(n);
  for (auto& r : rows) {
    r.resize(rng.range(1, kLenetMaxRows));
    for (auto& idx : r) idx = static_cast<std::uint32_t>(rng.range(0, c.pool.size() - 1));
  }
  RequestLog log;
  log.reserve(n);
  std::vector<DueRecord> due(n);
  std::vector<double> submit_us(n, 0.0);
  std::vector<Pending> live;
  live.reserve(n);

  const xl::serve::ServingStats before = rt.stats();
  const Clock::time_point t0 = Clock::now();
  const auto at = [&](double us) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::micro>(us));
  };
  double next_scrape = kScrapeIntervalUs;
  std::size_t k = 0;
  std::size_t completed = 0;
  Tensor input = n > 0 ? c.make_input(rows[0]) : Tensor{};
  while (k < n || !live.empty()) {
    if (k < n && Clock::now() >= at(schedule[k])) {
      due[k].due_us = schedule[k];
      const auto sent = Clock::now();
      due[k].sent_us = us_since(t0, sent);
      try {
        live.push_back({k, rt.submit(c.name, std::move(input))});
        submit_us[k] = us_since(sent);
        log.outstanding.push_back(live.size());
      } catch (const std::exception&) {
        ++log.attempted;
        ++log.failed;
      }
      if (++k < n) input = c.make_input(rows[k]);
      continue;
    }
    bool any = false;
    for (std::size_t i = 0; i < live.size();) {
      if (live[i].future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        ++i;
        continue;
      }
      any = true;
      const std::size_t j = live[i].index;
      due[j].observed_us = us_since(t0);
      ++log.attempted;
      try {
        const InferResult res = live[i].future.get();
        if (!c.matches(rows[j], res.logits)) ++log.failed;
        log.add_result(due[j], submit_us[j], res);
        log.rows += rows[j].size();
        trace_request(tracer, id_base + j, t0, due[j], submit_us[j], res);
      } catch (const std::exception&) {
        ++log.failed;
      }
      ++completed;
      live[i] = std::move(live.back());
      live.pop_back();
    }
    if (us_since(t0) >= next_scrape) {
      const auto s0 = Clock::now();
      {
        SpanScope s(tracer, "serve.stats");
        (void)rt.stats();
      }
      log.scrape_max_us = std::max(log.scrape_max_us, us_since(s0));
      next_scrape += kScrapeIntervalUs;
    }
    if (any) continue;
    // Nothing finished: wait for the oldest request, the next due time or
    // the poll period, whichever comes first.
    auto until = Clock::now() + kPollPeriod;
    if (k < n) until = std::min(until, at(schedule[k]));
    if (!live.empty()) {
      (void)live.front().future.wait_until(until);
    } else {
      std::this_thread::sleep_until(until);
    }
  }
  log.wall_s = us_since(t0) / 1e6;
  stats_delta(log, before, rt.stats(), c.options.workers);
  return log;
}

/// Latency figures of the whole phase: the median and the tail (see Tail)
/// of every request's latency, printed with the tail's percentile and
/// sample count.
void report_latency(Report& report, const RequestLog& log, const char* label) {
  const std::vector<double> lat = log.latencies();
  const Tail t = tail(lat);
  report.e2e("latency_p50_us", median(lat));
  report.e2e("latency_p99_us", t.value);
  std::printf("%s: %zu requests; p50 %.1f us, p%.2f %.1f us (%zu samples beyond it)\n",
              label, t.count, median(lat), t.percentile, t.value, t.beyond);
}

void report_serve_layers(Report& report, const RequestLog& log) {
  report.layer("serve.queue_us.p50", median(log.queue_us));
  report.layer("serve.queue_us.p99", tail(log.queue_us).value);
  report.layer("serve.service_us.p50", median(log.service_us));
  report.layer("serve.service_us.p99", tail(log.service_us).value);
  report.layer("serve.handoff_us.p50", median(log.handoff_us));
  report.layer("serve.handoff_us.p99", tail(log.handoff_us).value);
  report.layer("serve.submit_us.p99", tail(log.submit_us).value);
  report.layer("serve.batch_rows.mean", log.batch_rows_mean);
  double coalesced = 0.0;
  for (const double v : log.coalesced) coalesced += v;
  report.layer("serve.coalesced.mean",
               log.coalesced.empty() ? 0.0 : coalesced / static_cast<double>(log.coalesced.size()));
  report.layer("serve.batches", static_cast<double>(log.batches));
  report.layer("serve.shard_busy_frac", log.busy_frac);
  double backlog = 0.0;
  for (const std::size_t v : log.outstanding) backlog = std::max(backlog, static_cast<double>(v));
  report.layer("serve.backlog.max", backlog);
  report.layer("serve.stats_snapshot_us.max", log.scrape_max_us);
}

void report_plan_layers(Report& report, const PlanProfile& p) {
  report.layer("core.plan.execute_us", p.execute_us);
  report.layer("core.plan.coverage", p.coverage);
  report.layer("dnn.eval_us", p.eval_us);
  report.layer("core.effects.advance_us", p.advance_us);
  for (std::size_t i = 0; i < p.layers.size(); ++i) {
    const AccelLayerCost& l = p.layers[i];
    const std::string core = "core.L" + std::to_string(i) + ".";
    report.layer(core + "gemm_us", l.gemm_us);
    report.layer(core + "table_build_us", l.table_build_us);
    report.layer(core + "gemm_cold_us", l.gemm_cold_us);
    report.layer(core + "dots", static_cast<double>(l.dots));
    report.layer(core + "macs", static_cast<double>(l.macs));
    report.layer("dnn.L" + std::to_string(i) + ".gather_us", l.gather_us);
    report.layer("sim.L" + std::to_string(i) + ".latency_ns", l.sim_latency_ns);
  }
  std::printf("plan: execute %.1f us, decomposed %.1f us, coverage %.3f, "
              "decomposition bit-identical: %s\n",
              p.execute_us, p.decomposed_us, p.coverage, p.identical ? "yes" : "NO");
  // The per-layer figures describe ExecutionPlan only while the rebuilt
  // step sequence computes exactly what the plan computes.
  if (!p.identical) report.reject("plan decomposition not bit-identical to ExecutionPlan");
}

void count_ops(Report& report, const RequestLog& log) {
  report.attempted += log.attempted;
  report.failed += log.failed;
}

/// Reject the run when the generator fell behind its own schedule.
void check_lateness(Report& report, const RequestLog& log) {
  const double late = percentile(log.lateness(), 99.0);
  const double p50 = median(log.latencies());
  std::printf("generator lateness p99 %.1f us (limit %.1f us)\n", late,
              kMaxLatenessShare * p50);
  if (late > kMaxLatenessShare * p50) {
    report.reject("open-loop generator ran late: p99 lateness " + std::to_string(late) +
                  " us exceeds " + std::to_string(kMaxLatenessShare * 100.0) +
                  "% of the median latency");
  }
}

ServedCase lenet_case(std::uint64_t seed) {
  ServedCase c;
  c.name = "lenet5";
  const auto build = [] {
    xl::numerics::Rng rng(5);
    return xl::dnn::build_lenet5(rng);
  };
  c.prototype = std::make_unique<xl::dnn::Network>(build());
  c.factory = build;
  c.input_shape = {1, 1, 28, 28};
  c.vdp.effects = xl::core::EffectConfig::parse("all");
  c.options.workers = kLenetShards;
  c.options.max_batch = kLenetMaxBatch;
  c.pool = xl::dnn::generate_classification(xl::dnn::signmnist_like(), kLenetPool, seed);
  return c;
}

}  // namespace

void run_lenet_open(const Options& opt, Report& report) {
  pin_exec_width(1);  // kLenetShards x 1 lane + the client thread.
  SplitMix rng(opt.seed);
  ServedCase c = lenet_case(opt.seed);
  c.build_reference(opt.nproc);

  std::unique_ptr<ServingRuntime> rt;
  const auto setup = [&] {
    c.prototype = std::make_unique<xl::dnn::Network>(c.factory());
    rt = c.start(opt.nproc);
    warm_every_shard(*rt, c, 1);
  };
  const auto teardown = [&] { rt.reset(); };
  SetupTimes setups(setup, teardown);
  setups.time(opt.trace ? 1 : kSetupReps);

  if (opt.trace) {
    Tracer tracer(1 << 20);
    const double half = opt.seconds / 2.0;
#ifdef PERFBENCH_TRACED
    xl::numerics::allocs::reset();
    xl::numerics::allocs::set_counting(true);
#endif
    const RequestLog plain = open_loop(*rt, c, kLenetRateRps, half, rng, nullptr, 0);
#ifdef PERFBENCH_TRACED
    xl::numerics::allocs::set_counting(false);
    report.layer("numerics.allocs_per_request",
                 static_cast<double>(xl::numerics::allocs::total()) /
                     static_cast<double>(std::max<std::size_t>(1, plain.attempted)));
#endif
    const RequestLog traced = open_loop(*rt, c, kLenetRateRps, half, rng, &tracer, 1000000);
    count_ops(report, plain);
    count_ops(report, traced);
    report_serve_layers(report, traced);
    const double p0 = median(plain.latencies());
    const double p1 = median(traced.latencies());
    report.layer("trace.overhead_frac", p0 > 0.0 ? (p1 - p0) / p0 : 0.0);
    std::printf("tracing overhead: latency p50 %.1f us untraced vs %.1f us traced\n", p0, p1);
    rt->stop();
    xl::dnn::Network net = c.replica();
    const Tensor batch = xl::dnn::batch_images(c.pool, 0, kLenetMaxRows);
    report_plan_layers(report, profile_plan(net, c.vdp, batch, 12, &tracer));
    finish_trace(tracer, opt, report);
    return;
  }

  // Offline capacity: bursts drained as fast as the shards go.
  std::vector<double> burst_rate;
  for (std::size_t b = 0; b < kBursts; ++b) {
    std::vector<std::vector<std::uint32_t>> rows(kBurstRequests);
    std::size_t total = 0;
    for (auto& r : rows) {
      r.resize(rng.range(1, kLenetMaxRows));
      for (auto& idx : r) idx = static_cast<std::uint32_t>(rng.range(0, c.pool.size() - 1));
      total += r.size();
    }
    std::vector<Tensor> inputs;
    for (const auto& r : rows) inputs.push_back(c.make_input(r));
    const auto t0 = Clock::now();
    std::vector<std::future<InferResult>> futures;
    for (auto& in : inputs) futures.push_back(rt->submit(c.name, std::move(in)));
    for (std::size_t i = 0; i < futures.size(); ++i) {
      bool ok = false;
      try {
        ok = c.matches(rows[i], futures[i].get().logits);
      } catch (const std::exception&) {
      }
      report.op(ok);
    }
    burst_rate.push_back(static_cast<double>(total) / (us_since(t0) / 1e6));
  }
  report.e2e("samples_per_s", median(burst_rate));
  std::printf("burst capacity: %.1f samples/s (median of %zu bursts)\n",
              median(burst_rate), kBursts);

  // Rung 0 is the fixed offered rate and runs the full measurement time.
  const RequestLog fixed = open_loop(*rt, c, kLenetRateRps, opt.seconds, rng, nullptr, 0);
  count_ops(report, fixed);
  report_latency(report, fixed, "fixed rate");
  check_lateness(report, fixed);

  const double rung_s = std::max(2.0, opt.seconds / 4.0);
  const double capacity_rps = median(burst_rate) / (0.5 * (1.0 + kLenetMaxRows));
  const int start = std::clamp(
      static_cast<int>(std::floor(std::log(capacity_rps / kLenetRateRps) /
                                  std::log(kLadderStep))) + 1,
      0, kLadderUp);
  const int best = ladder_walk(start, kLadderDown, kLadderUp, [&](int k) {
    const double rate = rung_rate(kLenetRateRps, kLadderStep, k);
    const RequestLog log =
        k == 0 ? RequestLog{} : open_loop(*rt, c, rate, rung_s, rng, nullptr, 0);
    const RequestLog& use = k == 0 ? fixed : log;
    if (k != 0) count_ops(report, log);
    const Tail t = tail(use.latencies());
    const bool grew = backlog_growing(use.outstanding);
    const bool pass = rung_passes(t.value, kLenetLimitUs, grew) && use.failed == 0;
    std::printf("ladder rung %+d: %.1f req/s, p%.1f %.1f us (%zu samples), backlog %s -> %s\n",
                k, rate, t.percentile, t.value, t.count, grew ? "growing" : "flat",
                pass ? "pass" : "fail");
    return pass;
  });
  report.e2e("max_rate_rps", rung_rate(kLenetRateRps, kLadderStep, best));
  setups.time(kSetupReps);
  setups.report(report);
}

}  // namespace pb
