// Shared pieces of the repo benchmark: the fixture model, the set-up every
// workload performs, the result record, and the per-layer replays.
//
// The benchmark drives the library from the outside only: every timing is
// taken around a call into a layer's public function.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "datagen/datagen.h"
#include "diffusion/diffusion.h"
#include "drc/rules.h"
#include "service/pattern_service.h"
#include "unet/unet.h"

namespace perfbench {

namespace dp = diffpattern;

inline constexpr const char* kModel = "fixture";

// ---- fixture: the quick-scale DiffPattern instance every workload serves.
inline constexpr std::uint64_t kFixtureSeed = 2023;
inline constexpr std::int64_t kDatasetTiles = 96;
inline constexpr std::int64_t kFixtureTrainIterations = 900;
inline constexpr std::int64_t kTrainBatch = 8;
/// Fused sampling width of every service the benchmark builds.
inline constexpr std::int64_t kMaxFusedBatch = 16;
/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupRepeats = 3;

dp::service::ModelConfig model_config();
dp::datagen::DatagenConfig datagen_config();
dp::nn::AdamConfig adam_config();
/// The train workload and the training probes fine-tune the fixture, at a
/// tenth of its learning rate so the weights stay near the fixture's.
dp::nn::AdamConfig finetune_adam_config();

/// Trains the fixture checkpoint (fixed seed, fixed iteration count) and
/// writes it to `path`.
void build_fixture(const std::string& path);

/// FNV-1a of a file's bytes, as 16 hex digits ("" if unreadable).
std::string file_digest(const std::string& path);
std::string hex64(std::uint64_t value);

// ---- run options and environment.
struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string fixture;    ///< Checkpoint path.
  std::string trace_dir;  ///< Where the traced run writes its spans.
  std::string git_describe = "unknown";
  /// Expected digests by name (fixture, <workload>.canary).
  std::map<std::string, std::string> expect;
};

/// Thread plan of one workload: one compute thread, one legalize worker,
/// one generator (client) thread, so 3 of a 4-vCPU host's cores; sender
/// threads only block on sockets. One compute thread serves both the
/// full-width library batches and the narrow online batches as fast as two
/// on the reference host, and its timings spread far less: a two-thread
/// pool waits at every barrier for the slower of two vCPUs whose speeds
/// differ by up to 60%.
struct Threads {
  std::int64_t nproc = 1;
  std::int64_t compute = 1;
  std::int64_t legalize = 1;
  std::int64_t generator = 1;
  std::int64_t senders = 0;
};
/// `senders` is capped at nproc.
Threads plan_threads(std::int64_t senders);

dp::service::ServiceConfig service_config(const Threads& threads);

/// Pins the process-wide compute pool size, kernel backend and arena
/// switch the way service_config() does, for runs without a service.
void pin_process(const Threads& threads);

/// The kernel backend every run pins: the best one this host supports.
std::string pinned_kernel_backend();

// ---- the result record.
struct Report {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void set(const std::string& name, double value, const std::string& unit);
  double get(const std::string& name) const;
  /// Marks the run incorrect and prints why.
  void fail(const std::string& why);
  /// Prints "phase <name>: sent N succeeded N failed N" and adds the phase
  /// to attempted/failed.
  void phase(const std::string& name, std::int64_t sent,
             std::int64_t succeeded);
  /// Compares a computed digest with the expected one, if one is recorded.
  void expect_digest(const Options& options, const std::string& name,
                     const std::string& actual);
};

// ---- set-up shared by the workloads.
/// Dataset (delta library + training patterns) and the fixture weights.
struct Loaded {
  dp::datagen::Dataset dataset;
  std::unique_ptr<dp::unet::UNet> model;
  std::unique_ptr<dp::diffusion::BinarySchedule> schedule;
};
/// Builds the dataset and loads the checkpoint, in spans
/// datagen.dataset_build and io.checkpoint_load.
Loaded load_fixture(const std::string& checkpoint);

/// Seconds since process start.
double process_seconds();

/// Median of `repeats` timed set-ups; the first counts from process start.
/// `setup` runs one whole set-up (it is called `repeats` times and the
/// last set-up's state is what the caller keeps).
double timed_setups(int repeats, const std::function<void()>& setup);

// ---- output checks.
/// FNV-1a over every pattern's topology cells and deltas, in order.
std::uint64_t patterns_digest(
    const std::vector<dp::layout::SquishPattern>& patterns);
/// Number of `patterns` that are DRC-clean under `rules`.
std::int64_t drc_clean(const std::vector<dp::layout::SquishPattern>& patterns,
                       const dp::drc::DesignRules& rules);

/// The three rule decks of the paper's Table I, rotated by request index.
const std::string& deck_for(std::int64_t index);

/// DiffusionTrainer steps at batch 8 run beside an inference workload, so
/// that workload reports train_iters_per_s too. Fine-tunes `loaded`'s
/// weights in place.
class TrainProbe {
 public:
  TrainProbe(Loaded& loaded, std::uint64_t seed);

  /// Runs and times `steps` more steps.
  void run(std::int64_t steps);
  std::int64_t steps() const {
    return static_cast<std::int64_t>(step_s_.size());
  }
  /// Iterations per second at the first quartile of step times.
  ///
  /// Every throughput of the benchmark is taken this way, from equal-sized
  /// units of work: the vCPUs of a shared host differ in speed and threads
  /// migrate between them, so per-unit times spread upward; the first
  /// quartile tracks the code's speed, the median partly the host's.
  double iterations_per_s() const;

 private:
  Loaded& loaded_;
  dp::diffusion::DiffusionTrainer trainer_;
  dp::common::Rng rng_;
  std::vector<double> step_s_;
};

// ---- per-layer replays (traced run).
struct LayerShapes {
  std::int64_t batch = 1;  ///< Batch the nn.* figures are taken at.
  /// Slots and strides of one fused sampling batch typical of the workload.
  std::vector<std::int64_t> strides;
};
/// Times the tensor, nn, unet and diffusion layers at the workload's
/// shapes and sets their per-layer metrics.
void replay_model_layers(Loaded& loaded, const LayerShapes& shapes,
                         std::uint64_t seed, Report& report);
/// Samples through the service, then runs prefilter -> legalize -> DRC per
/// topology, setting the legalize.* and drc.* metrics.
void replay_legalization(dp::service::PatternService& service,
                         const Loaded& loaded, std::int64_t count,
                         std::int64_t geometries, std::uint64_t seed,
                         Report& report);

/// Sends `requests` one at a time through ReplicaRouter -> SocketTransport
/// (loopback TCP) -> SocketServer -> a WorkerNode serving `loaded`'s
/// weights, those flagged in `streamed` through generate_stream, and sets
/// the dist.* metrics from the calls. Needs the tracer on.
void replay_wire(const Loaded& loaded, const Threads& threads,
                 const std::vector<dp::service::GenerateRequest>& requests,
                 const std::vector<bool>& streamed, Report& report);

/// Every per-layer metric with its unit, in output order. A traced run
/// reports each of them (0 where the workload never reaches the layer).
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

// ---- workloads.
void run_library_batch(const Options& options, Report& report);
void run_online_mixed(const Options& options, Report& report);
void run_train(const Options& options, Report& report);

/// Prints the environment record of a run as one "env {...}" line.
void print_env(const Options& options, const Threads& threads,
               const std::string& scale);

}  // namespace perfbench
