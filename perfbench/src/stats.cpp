#include "stats.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

namespace perfbench {

namespace {

std::int64_t nearest_rank_index(std::int64_t n, double q) {
  const auto rank = static_cast<std::int64_t>(
      std::ceil(q / 100.0 * static_cast<double>(n)));
  return std::clamp<std::int64_t>(rank - 1, 0, n - 1);
}

}  // namespace

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  const auto n = static_cast<std::int64_t>(samples.size());
  const auto index = nearest_rank_index(n, q);
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[static_cast<std::size_t>(index)];
}

double median(std::vector<double> samples) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const auto n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::int64_t samples_beyond(std::int64_t n, double q) {
  if (n <= 0) {
    return 0;
  }
  return n - 1 - nearest_rank_index(n, q);
}

double highest_supported_percentile(std::int64_t n, std::int64_t min_beyond) {
  for (int q = 99; q > 50; --q) {
    if (samples_beyond(n, q) >= min_beyond) {
      return q;
    }
  }
  return 50.0;
}

double due_latency(const DueTimes& t) { return t.done - t.due; }

double generator_lag(const DueTimes& t) {
  return std::max(0.0, t.sent - t.due);
}

double service_wait(double handle_seconds, double sampling_seconds,
                    double solving_seconds) {
  return std::max(0.0, handle_seconds - sampling_seconds - solving_seconds);
}

double hop_time(double router_seconds, double handle_seconds) {
  return std::max(0.0, router_seconds - handle_seconds);
}

std::vector<double> self_times(const std::vector<SpanRecord>& spans) {
  std::map<std::int64_t, std::size_t> index_of;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    index_of[spans[i].id] = i;
  }
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const auto& span : spans) {
    const auto parent = index_of.find(span.parent);
    if (parent != index_of.end()) {
      children[parent->second].emplace_back(span.start, span.end);
    }
  }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start;
    const double hi = spans[i].end;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double cursor = lo;
    for (const auto& [start, end] : kids) {
      const double s = std::max(start, cursor);
      const double e = std::min(end, hi);
      if (e > s) {
        covered += e - s;
        cursor = e;
      }
    }
    out[i] = (hi - lo) - covered;
  }
  return out;
}

void Digest::bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    state_ ^= p[i];
    state_ *= 0x100000001b3ULL;
  }
}

}  // namespace perfbench
