// Pure measurement rules of the benchmark: percentiles, the open-loop
// schedule and its due-time accounting, and the rate ladder's pass rule.
// Kept free of any CrossLight dependency so tests/test_stats.cpp can pin
// each rule in isolation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pb {

/// Median by linear interpolation of the two middle samples; 0 when empty.
[[nodiscard]] double median(std::vector<double> v);

/// Nearest-rank percentile (p in [0, 100]); 0 when empty.
[[nodiscard]] double percentile(std::vector<double> v, double p);

/// The tail figure the benchmark reports: the highest nearest-rank
/// percentile at or below p99 that still has at least `beyond` samples
/// strictly above its rank. With n >= 100 * beyond samples this is exactly
/// p99; with fewer it is a lower percentile, and `percentile` says which.
/// With n <= beyond there is no such rank and the maximum is reported
/// (percentile 100).
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t count = 0;   ///< Samples in all.
  std::size_t beyond = 0;  ///< Samples strictly above the reported rank.
};
[[nodiscard]] Tail tail(std::vector<double> v, std::size_t beyond = 10);

/// Deterministic 64-bit generator for the benchmark's own inputs
/// (splitmix64): the same seed gives the same stream on every platform and
/// standard library, unlike the std:: distributions.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double unit();
  /// Uniform integer in [lo, hi].
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi);

 private:
  std::uint64_t state_;
};

/// Poisson arrival offsets (us from the phase start) at `rate_per_s` over
/// [0, duration_s), conditioned on their count: exactly
/// round(rate * duration) times, uniform and sorted, which is how a Poisson
/// process places a given number of arrivals. Every run then offers exactly
/// the stated load, and only the burstiness varies with the seed.
[[nodiscard]] std::vector<double> poisson_schedule(double rate_per_s, double duration_s,
                                                   SplitMix& rng);

/// Open-loop accounting of one request, all in us from the phase start.
/// Latency runs from when the request was *due*, not from when it was sent,
/// so a stall in the generator or the system is charged to every request
/// it delays (no coordinated omission).
struct DueRecord {
  double due_us = 0.0;
  double sent_us = 0.0;      ///< When submit() was entered.
  double observed_us = 0.0;  ///< When the benchmark held the logits.

  [[nodiscard]] double latency_us() const noexcept { return observed_us - due_us; }
  [[nodiscard]] double lateness_us() const noexcept { return sent_us - due_us; }
};

/// True when the outstanding-request count sampled at each submission trends
/// upward: the mean of the last quarter exceeds both twice the mean of the
/// first quarter and that mean plus `slack` requests. A stable queue
/// fluctuates around a level; an overloaded one grows without bound.
[[nodiscard]] bool backlog_growing(const std::vector<std::size_t>& outstanding,
                                   double slack = 10.0);

/// One rung of the rate ladder passes when its tail latency meets the limit
/// and its backlog does not grow.
[[nodiscard]] bool rung_passes(double tail_us, double limit_us, bool backlog_grew);

/// Fixed ladder: rung k offers base_rps * step^k requests/s (k may be
/// negative). step >= 1.1 keeps rungs at least 10% apart, so the rung a run
/// settles on repeats from run to run.
[[nodiscard]] double rung_rate(double base_rps, double step, int k);

/// Ladder walk from rung `start`: climb while rungs pass, or descend until
/// one passes when `start` fails. `passes(k)` runs rung k. Returns the
/// highest passing rung visited, within [lowest, highest]; lowest - 1 when
/// even the lowest rung fails. With a monotone pass rule the result does
/// not depend on `start`, which only saves the time of the rungs skipped.
template <typename Passes>
int ladder_walk(int start, int lowest, int highest, Passes&& passes) {
  if (passes(start)) {
    int k = start;
    while (k < highest && passes(k + 1)) ++k;
    return k;
  }
  for (int k = start - 1; k >= lowest; --k) {
    if (passes(k)) return k;
  }
  return lowest - 1;
}

/// FNV-1a over raw bytes, chainable through `h`.
[[nodiscard]] std::uint64_t fnv1a(const void* data, std::size_t bytes,
                                  std::uint64_t h = 0xcbf29ce484222325ULL);

}  // namespace pb
