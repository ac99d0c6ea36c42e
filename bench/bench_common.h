// Shared configuration and caching for the experiment harnesses.
//
// Every bench binary drives the same scaled DiffPattern instance; the
// trained diffusion checkpoint is cached under bench_out/ so that the first
// bench to run pays the training cost and the rest reload it. Set
// DP_BENCH_SCALE=full for a larger (slower) configuration; the default
// "quick" scale keeps each binary in the tens of seconds on one CPU core.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.h"

namespace diffpattern::bench {

struct BenchScale {
  std::string name;
  std::int64_t dataset_tiles;
  std::int64_t train_iterations;
  std::int64_t diffusion_steps;
  std::int64_t model_channels;
  std::int64_t table1_topologies;     // Per-method generation count.
  std::int64_t diffpattern_l_geometries;
  std::int64_t autoencoder_train_iterations;
  std::int64_t gan_train_iterations;
  std::int64_t transformer_train_iterations;
};

/// Reads DP_BENCH_SCALE (quick | full); defaults to quick.
BenchScale current_scale();

/// Output directory for artifacts (created on demand).
std::string output_directory();

/// The canonical bench pipeline configuration for the current scale.
core::PipelineConfig bench_pipeline_config();

/// Returns a pipeline whose diffusion model is trained, using the cached
/// checkpoint when one exists for this scale. `log` gets one-line progress
/// messages.
core::Pipeline& shared_trained_pipeline();

/// The shared pipeline's PatternService, with the trained model registered
/// under core::Pipeline::kServiceModel — drive experiments through typed
/// requests against it.
service::PatternService& shared_service();

/// Issues one typed GenerateRequest against shared_service(); aborts the
/// bench (with the status on stderr) on error, so experiment code stays
/// linear.
service::GenerateResult service_generate(std::int64_t count,
                                         std::int64_t geometries_per_topology,
                                         std::uint64_t seed);

/// Prints a horizontal rule + title to stdout (uniform bench headers).
void print_header(const std::string& title);

/// Schema of the BENCH_*.json objects below. Bump when a standing key is
/// renamed/removed or its meaning changes (adding metrics is not a bump);
/// trend tooling keys off it before comparing points across PRs.
inline constexpr int kBenchJsonSchemaVersion = 1;

/// Writes bench_out/BENCH_<name>.json: one flat JSON object holding the
/// bench name, the schema version, the git describe string of the build,
/// the DP_BENCH_SCALE in effect, the compute-pool thread count, the active
/// kernel backend, and the given metrics — the machine-readable points of
/// the perf trajectory (CI uploads them as artifacts). Returns the path
/// written.
std::string write_bench_json(
    const std::string& name,
    const std::vector<std::pair<std::string, double>>& metrics);

}  // namespace diffpattern::bench
