// Arithmetic the benchmark reports with: order statistics under the
// "at least ten samples beyond" rule, open-loop latency from due times, and
// the span subtractions behind service.wait_ms and dist.hop_ms. Pure
// functions only, so tests/test_stats.cpp can pin every rule.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of `samples` (need not be sorted): the value at
/// sorted index ceil(q/100 * n) - 1, clamped to [0, n). 0 when empty.
double percentile(std::vector<double> samples, double q);

double median(std::vector<double> samples);

/// Samples strictly after the nearest-rank index of percentile q in a set
/// of n samples: n - ceil(q/100 * n).
std::int64_t samples_beyond(std::int64_t n, double q);

/// Highest whole percentile in [50, 99] with at least `min_beyond` samples
/// beyond it; 50 when even the median has fewer.
double highest_supported_percentile(std::int64_t n,
                                    std::int64_t min_beyond = 10);

/// Open-loop timing of one request, all times in seconds on one clock.
/// Latency counts from when the request was due, so a stalled generator
/// or a full sender pool charges its wait to every later request; lag is
/// how late the request left the generator.
struct DueTimes {
  double due = 0.0;
  double sent = 0.0;
  double done = 0.0;
};
double due_latency(const DueTimes& t);
double generator_lag(const DueTimes& t);

/// Time a request spent in the service outside its own compute: the
/// WorkerNode::handle span minus the request's sampling + solving seconds,
/// floored at zero (the sampling share of a fused round can exceed the
/// wall time of a request that was fused with others).
double service_wait(double handle_seconds, double sampling_seconds,
                    double solving_seconds);

/// Time a routed request spent outside the worker's handler: the
/// ReplicaRouter::generate span minus the handle span (encode, transport,
/// decode, routing), floored at zero.
double hop_time(double router_seconds, double handle_seconds);

/// One recorded span: [start, end) on the trace clock, its parent span id
/// (-1 for a root) and the request it served (-1 for none).
struct SpanRecord {
  std::int64_t id = 0;
  std::int64_t parent = -1;
  std::int64_t request = -1;
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
};

/// Self time of every span: its duration minus the union of its direct
/// children's intervals clipped to it (children running in parallel are
/// not subtracted twice). Indexed like `spans`; span ids must be unique.
std::vector<double> self_times(const std::vector<SpanRecord>& spans);

/// 64-bit FNV-1a, the digest of every byte check in the benchmark.
class Digest {
 public:
  void bytes(const void* data, std::size_t size);
  void i64(std::int64_t value) { bytes(&value, sizeof value); }
  void f64(double value) { bytes(&value, sizeof value); }
  std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

}  // namespace perfbench
