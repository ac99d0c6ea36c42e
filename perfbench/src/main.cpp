// perfbench: the repo benchmark's binary.
//
//   perfbench fixture --out PATH
//       Trains the fixture checkpoint (fixed seed and iteration count).
//   perfbench run --workload NAME --seed N --seconds S --trace 0|1
//                 --fixture PATH [--trace-dir DIR] [--git-describe STR]
//                 [--expect NAME=HEX ...]
//       Runs one workload. The last stdout line is the result object
//       {"correct", "attempted", "failed", "metrics"}: end-to-end metrics
//       untraced, per-layer metrics traced. Exit status 1 when a
//       correctness check fails.
#include <sys/resource.h>

#include <exception>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "bench.h"
#include "stats.h"
#include "trace.h"

namespace {

using namespace perfbench;

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"setup_s", "s"},
      {"topologies_per_s", "1/s"},
      {"legal_patterns_per_s", "1/s"},
      {"legal_fraction", "ratio"},
      {"latency_p50_ms", "ms"},
      {"latency_p95_ms", "ms"},
      {"slo_attainment", "ratio"},
      {"train_iters_per_s", "1/s"},
      {"peak_rss_mb", "MB"},
  };
  return metrics;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

int usage() {
  std::cerr << "usage: perfbench fixture --out PATH\n"
               "       perfbench run --workload library_batch|online_mixed|"
               "train --seed N --seconds S --trace 0|1 --fixture PATH "
               "[--trace-dir DIR] [--git-describe STR] [--expect NAME=HEX]\n";
  return 2;
}

/// Per-layer metrics the traced run derives from its spans: set-up phases
/// and the share of traced wall time named layer spans cover.
void set_span_metrics(const Options& options, Report& report) {
  const auto& tracer = Tracer::instance();
  const auto duration = tracer.duration_by_name();
  const auto self = tracer.self_time_by_name();
  const auto total = [&](const char* name) {
    const auto it = duration.find(name);
    return it == duration.end() ? 0.0 : it->second;
  };
  report.set("io.checkpoint_load_ms", 1e3 * total("io.checkpoint_load"), "ms");
  report.set("datagen.dataset_build_ms", 1e3 * total("datagen.dataset_build"),
             "ms");
  report.set("setup.warmup_ms", 1e3 * total("setup.warmup"), "ms");
  const double root = total("trace.root");
  const auto root_self = self.find("trace.root");
  const double coverage =
      root > 0 && root_self != self.end() ? 1.0 - root_self->second / root
                                          : 0.0;
  report.set("trace.layer_coverage", coverage, "ratio");
  std::cout << "attribution: named layer spans cover " << coverage
            << " of traced wall time (" << root << " s)\n";
  if (options.workload == "library_batch" && coverage < 0.95) {
    report.fail("named layer spans cover less than 95% of traced wall time");
  }
}

void print_result(const Options& options, Report& report) {
  const auto& wanted =
      options.trace ? per_layer_metrics() : end_to_end_metrics();
  std::ostringstream json;
  json << std::setprecision(10);
  json << "{\"correct\": " << (report.correct ? "true" : "false")
       << ", \"attempted\": " << report.attempted
       << ", \"failed\": " << report.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < wanted.size(); ++i) {
    const auto& [name, unit] = wanted[i];
    const double value = report.get(name);
    std::cout << "metric " << name << " = " << std::setprecision(6) << value
              << " " << unit << "\n";
    json << (i > 0 ? ", " : "") << "\"" << name << "\": {\"value\": " << value
         << ", \"unit\": \"" << unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

int run(const Options& options) {
  Report report;
  report.expect_digest(options, "fixture", file_digest(options.fixture));
  Tracer::instance().set_enabled(options.trace);
  if (options.workload == "library_batch") {
    run_library_batch(options, report);
  } else if (options.workload == "online_mixed") {
    run_online_mixed(options, report);
  } else if (options.workload == "train") {
    run_train(options, report);
  } else {
    std::cerr << "unknown workload '" << options.workload << "'\n";
    return 2;
  }
  if (options.trace) {
    set_span_metrics(options, report);
    if (!options.trace_dir.empty()) {
      const auto path = options.trace_dir + "/" + options.workload + "-seed" +
                        std::to_string(options.seed) + ".json";
      Tracer::instance().write_json(path);
      std::cout << "spans written to " << path << "\n";
    }
    std::cout << "tracing overhead: " << report.get("trace.overhead_pct")
              << " % (traced vs untraced loop, same inputs)\n";
  } else {
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
  }
  print_result(options, report);
  return report.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return usage();
  }
  const std::string command = argv[1];
  Options options;
  std::string out;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::stoull(value);
    } else if (key == "--seconds") {
      options.seconds = std::stod(value);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--fixture") {
      options.fixture = value;
    } else if (key == "--trace-dir") {
      options.trace_dir = value;
    } else if (key == "--git-describe") {
      options.git_describe = value;
    } else if (key == "--expect") {
      const auto eq = value.find('=');
      options.expect[value.substr(0, eq)] = value.substr(eq + 1);
    } else if (key == "--out") {
      out = value;
    } else {
      return usage();
    }
  }
  try {
    if (command == "fixture" && !out.empty()) {
      build_fixture(out);
      std::cout << "fixture " << out << " " << file_digest(out) << "\n";
      return 0;
    }
    if (command == "run" && !options.workload.empty() &&
        !options.fixture.empty() && options.seconds > 0) {
      return run(options);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
