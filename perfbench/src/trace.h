// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark around its calls into each layer's public functions (nothing
// inside src/ is instrumented). Disabled, a Span costs one branch; enabled,
// spans go to a mutex-guarded vector and are written out at exit.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

class Tracer {
 public:
  static Tracer& instance();

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_.load(); }

  /// Seconds since the tracer was created (the trace clock).
  double now() const;

  std::int64_t begin(const char* name, std::int64_t parent,
                     std::int64_t request, double start);
  void end(std::int64_t id, double end);

  std::vector<SpanRecord> spans() const;

  /// Sum of self time per span name over every recorded span.
  std::map<std::string, double> self_time_by_name() const;
  /// Total duration per span name.
  std::map<std::string, double> duration_by_name() const;

  /// Writes every span as one JSON document: name, start, end, parent,
  /// request and self time (seconds).
  void write_json(const std::string& path) const;

 private:
  Tracer();

  const std::chrono::steady_clock::time_point origin_;
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// RAII span. The parent is the innermost open span on this thread, or
/// `parent` when given (a span opened on another thread); `request` ties
/// spans of one request together across threads.
class Span {
 public:
  explicit Span(const char* name, std::int64_t request = -1);
  Span(const char* name, std::int64_t request, std::int64_t parent);

  /// Id of the innermost open span on this thread (-1 for none).
  static std::int64_t current();
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Seconds since the span opened (valid whether or not tracing is on).
  double elapsed() const;

 private:
  std::int64_t id_ = -1;
  std::int64_t previous_ = -1;
  double start_ = 0.0;
};

}  // namespace perfbench
