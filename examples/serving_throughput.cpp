// serving_throughput — the xl::serve subsystem in one tour.
//
// The workload (effect stack, proxy recipe, burst size, serving policy with
// hardware-time pacing) is declared in scenarios/serving-demo.ini; this
// binary replays it on 1 worker and on 2 workers:
//   1. train the Table I proxy MLP once (the shared prototype network);
//   2. build a ServingRuntime from an api::Session (shards clone their
//      engines from the session's immutable VdpSimOptions);
//   3. replay the same burst trace of mixed-size requests on both worker
//      counts, with hardware-time pacing on so each micro-batch occupies
//      its shard for the simulated EventScheduler makespan;
//   4. show that throughput scales with the shard count while the logits
//      stay bit-identical (the serving determinism contract).
#include <chrono>
#include <cstdio>
#include <future>
#include <vector>

#include "api/api.hpp"
#include "dnn/datasets.hpp"
#include "dnn/models.hpp"
#include "numerics/stats.hpp"
#include "scenario/scenario.hpp"
#include "serve/serving_runtime.hpp"

namespace {

struct ReplayOutcome {
  std::vector<xl::dnn::Tensor> logits;  // Per request, admission order.
  xl::serve::ServingStats stats;
  double wall_us = 0.0;
  double fps = 0.0;
  double p50_us = 0.0;  // Request latency: queue_us + service_us.
  double p99_us = 0.0;
};

ReplayOutcome replay(xl::api::Session& session, xl::dnn::Table1ProxyMlp& proxy,
                     const xl::scenario::ScenarioSpec& spec, std::size_t workers) {
  using namespace xl;
  serve::ServingOptions options = spec.serving;
  options.workers = workers;

  auto runtime = session.serve(options);
  runtime->register_model(serve::table1_proxy_served_model(proxy.net));
  runtime->start();

  // The canonical mixed-size burst trace (sizes cycle 1..4).
  const std::vector<xl::dnn::Tensor> trace = serve::make_mixed_size_trace(
      proxy.test, spec.arrivals.requests, options.max_batch);
  const auto t0 = serve::Clock::now();
  std::vector<std::future<serve::InferResult>> futures;
  for (const dnn::Tensor& input : trace) {
    futures.push_back(runtime->submit("table1-proxy-mlp", input));
  }

  ReplayOutcome outcome;
  std::size_t samples = 0;
  std::vector<double> latencies;
  for (auto& future : futures) {
    serve::InferResult result = future.get();
    samples += result.logits.dim(0);
    latencies.push_back(result.queue_us + result.service_us);
    outcome.logits.push_back(std::move(result.logits));
  }
  outcome.wall_us =
      std::chrono::duration<double, std::micro>(serve::Clock::now() - t0).count();
  runtime->stop();
  outcome.stats = runtime->stats();
  outcome.fps = static_cast<double>(samples) * 1e6 / outcome.wall_us;
  if (!latencies.empty()) {
    outcome.p50_us = numerics::percentile(latencies, 50.0);
    outcome.p99_us = numerics::percentile(latencies, 99.0);
  }
  return outcome;
}

}  // namespace

int main() {
  using namespace xl;
  std::printf("=== xl::serve — micro-batching inference over sharded engines ===\n\n");

  const scenario::ScenarioSpec spec =
      scenario::ScenarioSpec::load(scenario::scenario_path("serving-demo"));
  api::Session session(spec.config);
  dnn::Table1ProxyMlp proxy = dnn::train_table1_proxy_mlp(spec.train_epochs);
  std::printf("prototype: Table I proxy MLP, float accuracy %.3f\n\n",
              proxy.float_accuracy);

  const ReplayOutcome one = replay(session, proxy, spec, 1);
  const ReplayOutcome two = replay(session, proxy, spec, 2);

  auto describe = [](const char* tag, const ReplayOutcome& r) {
    std::printf("%s: %5.0f samples/s | p50 %7.0f us | p99 %7.0f us | "
                "%zu batches (mean %.2f rows)\n",
                tag, r.fps, r.p50_us, r.p99_us, r.stats.batches,
                r.stats.mean_batch_rows());
  };
  describe("1 shard ", one);
  describe("2 shards", two);
  std::printf("\nspeedup with 2 shards: %.2fx (hardware-time pacing: sharding "
              "scales the simulated accelerator, not the host CPU)\n",
              two.fps / one.fps);

  // The determinism contract: same trace, different worker counts and batch
  // groupings — bit-identical logits per request.
  bool identical = one.logits.size() == two.logits.size();
  for (std::size_t i = 0; identical && i < one.logits.size(); ++i) {
    identical = one.logits[i].numel() == two.logits[i].numel();
    for (std::size_t j = 0; identical && j < one.logits[i].numel(); ++j) {
      identical = one.logits[i][j] == two.logits[i][j];
    }
  }
  std::printf("logits bit-identical across worker counts: %s\n",
              identical ? "yes" : "NO (determinism contract violated!)");
  return identical ? 0 : 1;
}
