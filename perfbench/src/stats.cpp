#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace pb {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo = *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

Tail tail(std::vector<double> v, std::size_t beyond) {
  Tail t;
  t.count = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n <= beyond) {
    t.value = v.back();
    t.percentile = 100.0;
    return t;  // beyond stays 0.
  }
  // Rank of p99 (nearest rank), capped so `beyond` samples stay above it.
  const std::size_t p99_rank = static_cast<std::size_t>(
      std::ceil(0.99 * static_cast<double>(n) - 1e-9));
  const std::size_t rank = std::min(p99_rank, n - beyond);
  t.value = v[rank - 1];
  t.beyond = n - rank;
  t.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  return t;
}

std::uint64_t SplitMix::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double SplitMix::unit() {
  return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
}

std::uint64_t SplitMix::range(std::uint64_t lo, std::uint64_t hi) {
  return lo + next() % (hi - lo + 1);
}

std::vector<double> poisson_schedule(double rate_per_s, double duration_s,
                                     SplitMix& rng) {
  std::vector<double> due;
  if (rate_per_s <= 0.0 || duration_s <= 0.0) return due;
  const auto n = static_cast<std::size_t>(std::llround(rate_per_s * duration_s));
  const double end_us = duration_s * 1e6;
  due.reserve(n);
  for (std::size_t i = 0; i < n; ++i) due.push_back(rng.unit() * end_us);
  std::sort(due.begin(), due.end());
  return due;
}

bool backlog_growing(const std::vector<std::size_t>& outstanding, double slack) {
  const std::size_t quarter = outstanding.size() / 4;
  if (quarter == 0) return false;
  double first = 0.0;
  double last = 0.0;
  for (std::size_t i = 0; i < quarter; ++i) {
    first += static_cast<double>(outstanding[i]);
    last += static_cast<double>(outstanding[outstanding.size() - quarter + i]);
  }
  first /= static_cast<double>(quarter);
  last /= static_cast<double>(quarter);
  return last > 2.0 * first && last > first + slack;
}

bool rung_passes(double tail_us, double limit_us, bool backlog_grew) {
  return tail_us <= limit_us && !backlog_grew;
}

double rung_rate(double base_rps, double step, int k) {
  return base_rps * std::pow(step, static_cast<double>(k));
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace pb
