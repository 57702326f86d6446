// Shared plumbing of the benchmark program: run options, the result report,
// thread budgeting and small timing helpers. See perfbench/README.md for
// the workloads and what each metric means.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"

namespace pb {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double us_since(Clock::time_point from,
                                     Clock::time_point to = Clock::now()) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";  ///< Where the traced run writes its trace file.
  std::size_t nproc = 1;      ///< CPUs in the process's affinity mask.
};

/// Everything one run reports. End-to-end metrics come from untraced runs,
/// per-layer metrics from the traced run; main() prints whichever set
/// the run's mode asks for.
class Report {
 public:
  void e2e(const std::string& name, double value) { end_to_end[name] = value; }
  void layer(const std::string& name, double value) { per_layer[name] = value; }

  /// One operation attempted; `ok` false counts it as failed (an exception,
  /// a ShutdownError, or a wrong output).
  void op(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  /// A check that invalidates the whole run (e.g. an overloaded generator).
  void reject(const std::string& why) { problems.push_back(why); }

  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
};

/// Set-ups an untraced run times before its measured phase, and again after.
inline constexpr std::size_t kSetupReps = 3;

/// setup_s of one run: the median of every timed repetition of a workload's
/// set-up. An untraced run times kSetupReps before its measured phase (the
/// last one's state is what gets measured) and kSetupReps after it, so that
/// setup_s sees the host's speed drift over the whole run, as the other
/// metrics do, and not only the second before timing starts.
class SetupTimes {
 public:
  /// `setup` must leave the system ready for timing (warm pool, warm
  /// tables, every shard exercised); `teardown` runs before every
  /// repetition but the first, untimed.
  SetupTimes(std::function<void()> setup, std::function<void()> teardown)
      : setup_(std::move(setup)), teardown_(std::move(teardown)) {}

  /// Run and time `reps` more repetitions; the last one's state is kept.
  void time(std::size_t reps);
  /// Report setup_s, the median of every repetition so far.
  void report(Report& report) const;

 private:
  std::function<void()> setup_;
  std::function<void()> teardown_;
  std::vector<double> seconds_;
};

/// Peak resident set size of this process, MB.
[[nodiscard]] double peak_rss_mb();

/// Pin the xl::exec width (XL_EXEC_THREADS) before its first use. Each
/// workload picks its width so that its compute lanes plus its own client
/// threads fit a 4-CPU host; single-lane shards are used wherever the
/// workload allows, because multi-lane runs on a shared virtual machine
/// spread two to three times wider from run to run.
void pin_exec_width(std::size_t lanes);

/// Restrict the calling thread (and threads it starts from now on) to CPUs
/// [first_cpu, first_cpu + count) modulo nproc. The serving workload starts
/// its shards on CPUs of their own, then moves the client to another.
void pin_thread(std::size_t first_cpu, std::size_t count, std::size_t nproc);

/// End a traced run: report trace.spans, print the per-layer table (count,
/// total, self time, median per span name) and
/// write <out_dir>/trace-<workload>.json. A full buffer (dropped spans) or
/// an unwritable file rejects the run.
void finish_trace(const Tracer& tracer, const Options& opt, Report& report);

// Workloads (one function each; see README.md for why each exists).
void run_lenet_open(const Options& opt, Report& report);
void run_dse_sweep(const Options& opt, Report& report);
void run_thermal_accuracy(const Options& opt, Report& report);

}  // namespace pb
