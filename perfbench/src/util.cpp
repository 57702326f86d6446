#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench.hpp"
#include "stats.hpp"

namespace pb {

void SetupTimes::time(std::size_t reps) {
  for (std::size_t i = 0; i < reps; ++i) {
    if (!seconds_.empty()) teardown_();
    const auto t0 = Clock::now();
    setup_();
    seconds_.push_back(us_since(t0) / 1e6);
  }
}

void SetupTimes::report(Report& report) const {
  std::printf("setup: %zu repetitions, %.4f to %.4f s, median %.4f s\n", seconds_.size(),
              *std::min_element(seconds_.begin(), seconds_.end()),
              *std::max_element(seconds_.begin(), seconds_.end()), median(seconds_));
  report.e2e("setup_s", median(seconds_));
}

double peak_rss_mb() {
  // VmHWM, not getrusage: Linux carries ru_maxrss across execve, so a
  // process started from a larger parent would report the parent's peak.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

void pin_exec_width(std::size_t lanes) {
  // Read once by xl::exec at first use; no pool exists yet.
  setenv("XL_EXEC_THREADS", std::to_string(lanes).c_str(), 1);
}

void pin_thread(std::size_t first_cpu, std::size_t count, std::size_t nproc) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (std::size_t i = 0; i < count; ++i) CPU_SET((first_cpu + i) % nproc, &set);
  (void)sched_setaffinity(0, sizeof set, &set);  // Best effort: a hint, not a rule.
}

namespace {

void print_span_table(const std::vector<SpanRow>& rows) {
  std::printf("\n%-34s %9s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms",
              "median_us");
  for (const SpanRow& r : rows) {
    std::printf("%-34s %9zu %12.3f %12.3f %12.2f\n", r.name.c_str(), r.count,
                r.total_us / 1e3, r.self_us / 1e3, median(r.durations_us));
  }
  std::printf("\n");
}

}  // namespace

void finish_trace(const Tracer& tracer, const Options& opt, Report& report) {
  const std::vector<Span> spans = tracer.spans();
  report.layer("trace.spans", static_cast<double>(spans.size()));
  print_span_table(aggregate(spans));
  if (tracer.dropped() > 0) {
    report.reject("trace buffer overflowed: " + std::to_string(tracer.dropped()) +
                  " spans dropped");
  }
  const std::string path = opt.out_dir + "/trace-" + opt.workload + ".json";
  if (!tracer.write_chrome_json(path)) report.reject("cannot write " + path);
  std::printf("trace written to %s\n", path.c_str());
}

}  // namespace pb
