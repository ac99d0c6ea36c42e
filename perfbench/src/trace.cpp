#include "trace.h"

#include <fstream>
#include <iomanip>
#include <stdexcept>

namespace perfbench {

namespace {

thread_local std::int64_t t_open_span = -1;

}  // namespace

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

std::int64_t Tracer::begin(const char* name, std::int64_t parent,
                           std::int64_t request, double start) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto id = static_cast<std::int64_t>(spans_.size());
  spans_.push_back(SpanRecord{.id = id,
                              .parent = parent,
                              .request = request,
                              .name = name,
                              .start = start,
                              .end = start});
  return id;
}

void Tracer::end(std::int64_t id, double end) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end = end;
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::map<std::string, double> Tracer::self_time_by_name() const {
  const auto all = spans();
  const auto self = self_times(all);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < all.size(); ++i) {
    out[all[i].name] += self[i];
  }
  return out;
}

std::map<std::string, double> Tracer::duration_by_name() const {
  std::map<std::string, double> out;
  for (const auto& span : spans()) {
    out[span.name] += span.end - span.start;
  }
  return out;
}

void Tracer::write_json(const std::string& path) const {
  const auto all = spans();
  const auto self = self_times(all);
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot write trace file " + path);
  }
  out << std::setprecision(9) << "{\"spans\": [\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const auto& s = all[i];
    out << "  {\"id\": " << s.id << ", \"name\": \"" << s.name
        << "\", \"start\": " << s.start << ", \"end\": " << s.end
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << ", \"self\": " << self[i] << "}"
        << (i + 1 < all.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

Span::Span(const char* name, std::int64_t request)
    : Span(name, request, t_open_span) {}

Span::Span(const char* name, std::int64_t request, std::int64_t parent) {
  auto& tracer = Tracer::instance();
  start_ = tracer.now();
  if (tracer.enabled()) {
    id_ = tracer.begin(name, parent, request, start_);
    previous_ = t_open_span;
    t_open_span = id_;
  }
}

std::int64_t Span::current() { return t_open_span; }

Span::~Span() {
  if (id_ >= 0) {
    Tracer::instance().end(id_, Tracer::instance().now());
    t_open_span = previous_;
  }
}

double Span::elapsed() const { return Tracer::instance().now() - start_; }

}  // namespace perfbench
