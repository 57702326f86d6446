// Span recorder of the traced run.
//
// Spans are recorded by the benchmark around its own calls into each layer
// of CrossLight (the program itself is not instrumented). Every span carries
// a name, start, end, parent span and request id, and lives in a buffer
// preallocated before timing starts: recording takes one atomic increment
// and two clock reads, never the heap. At exit the buffer is written as
// Chrome Trace Event JSON (Perfetto and chrome://tracing open it) and
// folded into a per-name table of total and self time, where a span's self
// time is its duration minus the part of it its child spans cover.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace pb {

inline constexpr std::int32_t kNoParent = -1;

struct Span {
  const char* name = "";  ///< Static string: spans never own their names.
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = kNoParent;  ///< Index of the enclosing span.
  std::uint64_t request = 0;        ///< Request / operation id (0 = none).
  std::uint32_t thread = 0;         ///< Small per-thread id for the viewer.
};

/// Per-name aggregate of closed spans.
struct SpanRow {
  std::string name;
  std::size_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
  std::vector<double> durations_us;  ///< For medians and tails.
};

/// Self time of every span: duration minus the union of its children's
/// intervals clipped to the span. Spans that are still open count as 0.
[[nodiscard]] std::vector<double> self_times_us(const std::vector<Span>& spans);

/// Aggregate spans by name, in first-seen order.
[[nodiscard]] std::vector<SpanRow> aggregate(const std::vector<Span>& spans);

class Tracer {
 public:
  /// Preallocates room for `capacity` spans; spans past it are dropped and
  /// counted.
  explicit Tracer(std::size_t capacity);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Open a span; returns its index (or kNoParent when the buffer is full).
  std::int32_t begin(const char* name, std::int32_t parent = kNoParent,
                     std::uint64_t request = 0);
  void end(std::int32_t index);
  /// Record an already measured interval (e.g. a queue wait reported by the
  /// runtime) as a closed span.
  std::int32_t record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                      std::int32_t parent, std::uint64_t request);

  /// A copy of `name` that lives as long as the tracer, for span names built
  /// at run time. Not thread-safe: intern before timing starts.
  const char* intern(std::string name);

  [[nodiscard]] static std::int64_t now_ns();

  /// Closed and open spans recorded so far (a copy of the live prefix).
  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] std::size_t dropped() const noexcept { return dropped_.load(); }

  /// Write Chrome Trace Event JSON ("X" complete events, microseconds).
  /// Returns false when the file cannot be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  std::vector<Span> buffer_;
  std::deque<std::string> names_;  ///< Interned names; a deque never moves them.
  std::atomic<std::size_t> next_{0};
  std::atomic<std::size_t> dropped_{0};
  std::int64_t origin_ns_;
};

/// RAII span; a null tracer makes it a no-op, so untraced runs pay one
/// branch per call site.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, std::int32_t parent = kNoParent,
            std::uint64_t request = 0)
      : tracer_(tracer),
        index_(tracer != nullptr ? tracer->begin(name, parent, request) : kNoParent) {}
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->end(index_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  [[nodiscard]] std::int32_t index() const noexcept { return index_; }

 private:
  Tracer* tracer_;
  std::int32_t index_;
};

}  // namespace pb
