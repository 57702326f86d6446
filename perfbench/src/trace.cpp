#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

namespace pb {

namespace {

std::uint32_t thread_id() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t id = next.fetch_add(1);
  return id;
}

}  // namespace

std::vector<double> self_times_us(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size() &&
        s.end_ns > s.start_ns) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end_ns <= s.start_ns) continue;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = s.start_ns;  // Union of clipped child intervals.
    for (const auto& [a, b] : kids) {
      const std::int64_t lo = std::max(a, cursor);
      const std::int64_t hi = std::min(b, s.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    self[i] = static_cast<double>(s.end_ns - s.start_ns - covered) / 1e3;
  }
  return self;
}

std::vector<SpanRow> aggregate(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times_us(spans);
  std::vector<SpanRow> rows;
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end_ns <= s.start_ns) continue;
    auto [it, fresh] = index.emplace(s.name, rows.size());
    if (fresh) rows.push_back(SpanRow{s.name, 0, 0.0, 0.0, {}});
    SpanRow& row = rows[it->second];
    const double dur = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    ++row.count;
    row.total_us += dur;
    row.self_us += self[i];
    row.durations_us.push_back(dur);
  }
  return rows;
}

Tracer::Tracer(std::size_t capacity) : buffer_(capacity), origin_ns_(now_ns()) {}

const char* Tracer::intern(std::string name) {
  return names_.emplace_back(std::move(name)).c_str();
}

std::int64_t Tracer::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int32_t Tracer::begin(const char* name, std::int32_t parent,
                           std::uint64_t request) {
  const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
  if (i >= buffer_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return kNoParent;
  }
  Span& s = buffer_[i];
  s.name = name;
  s.parent = parent;
  s.request = request;
  s.thread = thread_id();
  s.end_ns = 0;
  s.start_ns = now_ns();
  return static_cast<std::int32_t>(i);
}

void Tracer::end(std::int32_t index) {
  if (index < 0) return;
  buffer_[static_cast<std::size_t>(index)].end_ns = now_ns();
}

std::int32_t Tracer::record(const char* name, std::int64_t start_ns,
                            std::int64_t end_ns, std::int32_t parent,
                            std::uint64_t request) {
  const std::int32_t i = begin(name, parent, request);
  if (i < 0) return i;
  Span& s = buffer_[static_cast<std::size_t>(i)];
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  return i;
}

std::vector<Span> Tracer::spans() const {
  const std::size_t n = std::min(next_.load(), buffer_.size());
  return {buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(n)};
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<Span> all = spans();
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  bool first = true;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    if (s.end_ns <= s.start_ns) continue;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,"
                 "\"request\":%llu}}",
                 first ? "" : ",\n", s.name, s.thread,
                 static_cast<double>(s.start_ns - origin_ns_) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent,
                 static_cast<unsigned long long>(s.request));
    first = false;
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace pb
