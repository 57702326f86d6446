// perfbench — the CrossLight benchmark program. One process runs one workload:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//
// and prints, as its last line, one JSON object with the keys correct,
// attempted, failed and metrics: the end-to-end metrics when untraced, the
// per-layer metrics when traced. A line starting with "context: " before it
// records the build and machine the numbers belong to. perfbench/run.py
// builds this program and is the command the benchmark is run through; see
// perfbench/README.md for the workloads and metrics.
#include <malloc.h>
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "exec/task_pool.hpp"
#include "numerics/kernels.hpp"

namespace {

struct MetricDef {
  std::string name;
  const char* unit;
};

const std::vector<MetricDef>& end_to_end_defs() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},          {"latency_p50_us", "us"}, {"latency_p99_us", "us"},
      {"samples_per_s", "1/s"},  {"max_rate_rps", "1/s"},  {"peak_rss_mb", "MB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_defs() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"serve.queue_us.p50", "us"},         {"serve.queue_us.p99", "us"},
        {"serve.service_us.p50", "us"},       {"serve.service_us.p99", "us"},
        {"serve.handoff_us.p50", "us"},       {"serve.handoff_us.p99", "us"},
        {"serve.submit_us.p99", "us"},        {"serve.batch_rows.mean", "rows"},
        {"serve.coalesced.mean", "count"},    {"serve.batches", "count"},
        {"serve.shard_busy_frac", "fraction"}, {"serve.backlog.max", "count"},
        {"serve.stats_snapshot_us.max", "us"}, {"core.plan.execute_us", "us"},
        {"core.plan.coverage", "fraction"},
    };
    for (int i = 0; i < 4; ++i) {
      const std::string l = std::string("L").append(std::to_string(i)) + ".";
      d.push_back({"core." + l + "gemm_us", "us"});
      d.push_back({"core." + l + "table_build_us", "us"});
      d.push_back({"core." + l + "gemm_cold_us", "us"});
      d.push_back({"dnn." + l + "gather_us", "us"});
      d.push_back({"core." + l + "dots", "count"});
      d.push_back({"core." + l + "macs", "count"});
      d.push_back({"sim." + l + "latency_ns", "ns"});
    }
    const std::vector<MetricDef> rest = {
        {"dnn.eval_us", "us"},
        {"core.effects.advance_us", "us"},
        {"numerics.allocs_per_request", "count"},
        {"core.analytic.evaluate_us.p50", "us"},
        {"core.analytic.construct_us.p50", "us"},
        {"core.dse.evaluations", "count"},
        {"core.dse.cache_hits", "count"},
        {"core.dse.area_filtered", "count"},
        {"core.dse.overhead_ms", "ms"},
        {"core.dse.cold_ms", "ms"},
        {"core.dse.warm_ms", "ms"},
        {"exec.efficiency", "fraction"},
        {"sim.epb_pj_per_bit", "pJ/bit"},
        {"sim.kfps_per_w", "kFPS/W"},
        {"sim.epb_vs_holylight", "x"},
        {"sim.kfps_per_w_vs_holylight", "x"},
        {"trace.overhead_frac", "fraction"},
        {"trace.spans", "count"},
    };
    d.insert(d.end(), rest.begin(), rest.end());
    return d;
  }();
  return defs;
}

std::size_t usable_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? hc : 1;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <lenet-open|"
               "dse-sweep|thermal-accuracy> --seed <n> --seconds <s> --trace <0|1> "
               "[--out-dir <dir>]\n",
               why);
  std::exit(2);
}

pb::Options parse(int argc, char** argv) {
  pb::Options o;
  o.nproc = usable_cpus();
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        o.workload = value;
      } else if (key == "--seed") {
        o.seed = std::stoull(value);
      } else if (key == "--seconds") {
        o.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (key == "--out-dir") {
        o.out_dir = value;
      } else {
        usage(("unknown option " + key).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + key).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0.0) || o.seconds > 600.0) usage("--seconds must be in (0, 600]");
  return o;
}

void print_context(const pb::Options& o) {
  std::printf("context: {\"compiler\": \"%s\", \"build_type\": \"%s\", \"isa\": \"%s\", "
              "\"exec_width\": %zu, \"nproc\": %zu, \"workload\": \"%s\", \"seed\": %llu, "
              "\"seconds\": %.17g, \"trace\": %d}\n",
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, xl::numerics::kernels::active_isa_name(),
              xl::exec::width(), o.nproc, o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0);
}

}  // namespace

int main(int argc, char** argv) {
  // Fix glibc's mmap threshold at its default: left adaptive, it moves with
  // the timing of large frees, and peak RSS would differ between identical
  // runs by whole megabytes.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const pb::Options opt = parse(argc, argv);
  pb::Report report;
  try {
    if (opt.workload == "lenet-open") {
      pb::run_lenet_open(opt, report);
    } else if (opt.workload == "dse-sweep") {
      pb::run_dse_sweep(opt, report);
    } else if (opt.workload == "thermal-accuracy") {
      pb::run_thermal_accuracy(opt, report);
    } else {
      usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  report.e2e("peak_rss_mb", pb::peak_rss_mb());

  const auto& defs = opt.trace ? per_layer_defs() : end_to_end_defs();
  const auto& values = opt.trace ? report.per_layer : report.end_to_end;
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const auto& d : defs) known = known || d.name == name;
    if (!known && opt.trace) report.reject("metric not declared: " + name);
  }
  std::string metrics;
  for (const auto& d : defs) {
    const auto it = values.find(d.name);
    // A per-layer metric of a layer this workload never calls reads 0; an
    // end-to-end metric is always measured.
    if (it == values.end() && !opt.trace) report.reject("metric not measured: " + d.name);
    const double v = it == values.end() ? 0.0 : it->second;
    char buf[192];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", d.name.c_str(), v, d.unit);
    metrics += buf;
  }
  for (const std::string& p : report.problems) std::printf("REJECTED: %s\n", p.c_str());
  print_context(opt);
  const bool correct = report.problems.empty() && report.failed == 0 && report.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", report.attempted, report.failed, metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
