// bench_serving — offered-load sweep of the xl::serve runtime, tracking the
// serving-throughput trajectory per PR as BENCH_serving.json.
//
// Two sweeps over worker counts {1, 2, 4}, all against the SAME fixed trace
// of mixed-size requests (sizes cycle 1..4) with hardware-time pacing on,
// so each micro-batch occupies its shard for the simulated EventScheduler
// makespan and "achieved FPS" measures the simulated accelerator pool, not
// the host CPU:
//   * burst — the whole trace is offered at t = 0 (saturating load). The
//     acceptance signal: achieved FPS must increase monotonically from
//     1 -> 4 workers at this fixed offered load.
//   * paced — requests arrive at ~2x one shard's capacity, showing p50/p99
//     relief as shards are added while the offered load stays fixed.
//
// Logits are bit-identical across every run (the serving determinism
// contract); a trace checksum is emitted so regressions surface in the
// JSON diff.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "core/mapper.hpp"
#include "core/scheduler.hpp"
#include "dnn/datasets.hpp"
#include "dnn/models.hpp"
#include "numerics/rng.hpp"
#include "numerics/stats.hpp"
#include "serve/serving_runtime.hpp"

namespace {

constexpr std::size_t kRequests = 96;
constexpr std::size_t kMaxBatch = 8;
constexpr double kDeadlineUs = 500.0;
constexpr double kPaceScale = 500000.0;  // Simulated us -> wall us multiplier.

struct RunResult {
  double wall_us = 0.0;
  double achieved_fps = 0.0;
  double checksum = 0.0;  ///< Sum over every logit of the trace.
  double p50_us = 0.0;    ///< Request latency: queue_us + service_us.
  double p99_us = 0.0;
  xl::serve::ServingStats stats;
};

RunResult run_trace(xl::dnn::Table1ProxyMlp& proxy, std::size_t workers,
                    double inter_arrival_us) {
  using namespace xl;
  serve::ServingOptions options;
  options.workers = workers;
  options.max_batch = kMaxBatch;
  options.deadline_us = kDeadlineUs;
  options.pace_hardware_time = true;
  options.pace_scale = kPaceScale;
  options.architecture = core::best_config();

  serve::ServingRuntime runtime(core::VdpSimOptions{}, options);
  runtime.register_model(serve::table1_proxy_served_model(proxy.net));
  runtime.start();

  // The canonical fixed trace — identical for every worker count and mode.
  const std::vector<dnn::Tensor> trace =
      serve::make_mixed_size_trace(proxy.test, kRequests, kMaxBatch);
  const auto t0 = serve::Clock::now();
  std::vector<std::future<serve::InferResult>> futures;
  futures.reserve(kRequests);
  for (const dnn::Tensor& input : trace) {
    const double rows = static_cast<double>(input.dim(0));
    futures.push_back(runtime.submit("table1-proxy-mlp", input));
    if (inter_arrival_us > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::micro>(inter_arrival_us * rows));
    }
  }

  RunResult result;
  std::size_t samples = 0;
  std::vector<double> latencies;
  latencies.reserve(kRequests);
  for (auto& future : futures) {
    const serve::InferResult r = future.get();
    samples += r.logits.dim(0);
    latencies.push_back(r.queue_us + r.service_us);
    for (std::size_t j = 0; j < r.logits.numel(); ++j) {
      result.checksum += static_cast<double>(r.logits[j]);
    }
  }
  result.wall_us =
      std::chrono::duration<double, std::micro>(serve::Clock::now() - t0).count();
  runtime.stop();
  result.stats = runtime.stats();
  result.achieved_fps = static_cast<double>(samples) * 1e6 / result.wall_us;
  result.p50_us = numerics::percentile(latencies, 50.0);
  result.p99_us = numerics::percentile(latencies, 99.0);
  return result;
}

void write_run(xl::api::JsonWriter& writer, const char* mode, std::size_t workers,
               double offered_fps, const RunResult& r) {
  writer.begin_object();
  writer.field("mode", mode);
  writer.field("workers", workers);
  if (offered_fps > 0.0) writer.field("offered_fps", offered_fps);
  writer.field("achieved_fps", r.achieved_fps);
  writer.field("wall_us", r.wall_us);
  writer.field("logits_checksum", r.checksum);
  writer.field("latency_p50_us", r.p50_us);
  writer.field("latency_p99_us", r.p99_us);
  xl::api::write_serving_stats(writer, "serving", r.stats);
  writer.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace xl;
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_serving.json";
  dnn::Table1ProxyMlp proxy = dnn::train_table1_proxy_mlp(6);

  // One shard's paced capacity: a full micro-batch occupies a shard for
  // makespan(kMaxBatch) * kPaceScale wall-us.
  const core::ArchitectureConfig arch = core::best_config();
  dnn::ModelSpec spec;
  spec.name = "table1-proxy-mlp";
  spec.layers = proxy.net.export_specs({1, 1, 12, 12});
  core::ScheduleOptions schedule;
  schedule.batch = kMaxBatch;
  const double batch_makespan_us =
      core::EventScheduler(arch, schedule).run(core::map_model(spec, arch)).makespan_us();
  const double shard_capacity_fps =
      static_cast<double>(kMaxBatch) * 1e6 / (batch_makespan_us * kPaceScale);

  api::JsonWriter writer;
  writer.field("bench", "serving");
  writer.field("model", "table1-proxy-mlp");
  writer.field("requests", kRequests);
  writer.field("max_batch", kMaxBatch);
  writer.field("deadline_us", kDeadlineUs);
  writer.field("pace_scale", kPaceScale);
  writer.field("batch_makespan_us_simulated", batch_makespan_us);
  writer.field("shard_capacity_fps", shard_capacity_fps);

  std::printf("one paced shard: %.3f us simulated batch makespan -> %.0f samples/s\n\n",
              batch_makespan_us, shard_capacity_fps);

  const std::vector<std::size_t> worker_counts = {1, 2, 4};
  std::vector<double> burst_fps;
  std::vector<double> checksums;
  writer.begin_array("runs");

  // Burst: the fixed trace offered at t = 0. FPS must scale with shards.
  for (const std::size_t workers : worker_counts) {
    const RunResult r = run_trace(proxy, workers, 0.0);
    burst_fps.push_back(r.achieved_fps);
    checksums.push_back(r.checksum);
    write_run(writer, "burst", workers, 0.0, r);
    std::printf("burst  %zu worker(s): %7.0f samples/s | p50 %8.0f us | p99 %8.0f us "
                "| %zu batches (mean %.2f rows)\n",
                workers, r.achieved_fps, r.p50_us, r.p99_us, r.stats.batches,
                r.stats.mean_batch_rows());
  }

  // Paced: fixed offered load at ~2x one shard's capacity — the single
  // shard saturates, added shards relieve the queue.
  const double offered_fps = 2.0 * shard_capacity_fps;
  const double inter_arrival_us = 1e6 / offered_fps;  // Per sample.
  std::printf("\n");
  for (const std::size_t workers : worker_counts) {
    const RunResult r = run_trace(proxy, workers, inter_arrival_us);
    checksums.push_back(r.checksum);
    write_run(writer, "paced", workers, offered_fps, r);
    std::printf("paced  %zu worker(s): %7.0f samples/s offered %.0f | p50 %8.0f us | "
                "p99 %8.0f us\n",
                workers, r.achieved_fps, offered_fps, r.p50_us, r.p99_us);
  }
  writer.end_array();

  bool monotonic = true;
  for (std::size_t i = 1; i < burst_fps.size(); ++i) {
    monotonic = monotonic && burst_fps[i] > burst_fps[i - 1];
  }
  bool deterministic = true;
  for (const double checksum : checksums) {
    deterministic = deterministic && checksum == checksums.front();
  }
  writer.field("fps_monotonic_1_to_4_workers", monotonic);
  writer.field("logits_deterministic_across_runs", deterministic);
  // Machine-portable gated metrics (tools/check_bench_regression.py): burst
  // runs pace on *simulated* hardware time, so their FPS measures the
  // accelerator pool, not the host clock, and the 1 -> 4 worker scaling is a
  // same-run ratio either way.
  writer.begin_object("metrics");
  writer.field("burst_fps_1_worker", burst_fps.front());
  writer.field("burst_fps_4_workers", burst_fps.back());
  writer.field("burst_fps_scaling_1_to_4", burst_fps.back() / burst_fps.front());
  writer.end_object();
  std::printf("\nachieved FPS monotonic 1 -> 4 workers: %s\n",
              monotonic ? "yes" : "NO");
  std::printf("logits deterministic across all runs : %s\n",
              deterministic ? "yes" : "NO");

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << writer.finish();
  std::printf("wrote %s\n", out_path.c_str());
  return (monotonic && deterministic) ? 0 : 1;
}
