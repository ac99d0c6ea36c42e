#include "bench.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/compute_pool.h"
#include "common/rng.h"
#include "drc/checker.h"
#include "nn/checkpoint.h"
#include "stats.h"
#include "tensor/arena.h"
#include "tensor/simd.h"
#include "trace.h"

namespace perfbench {

namespace {

const auto g_process_start = std::chrono::steady_clock::now();

}  // namespace

// ---------------------------------------------------------------- fixture

dp::service::ModelConfig model_config() {
  dp::service::ModelConfig cfg;
  cfg.grid_side = 16;
  cfg.channels = 4;
  cfg.schedule.steps = 40;
  cfg.model_channels = 16;
  cfg.channel_mult = {1, 2};
  cfg.num_res_blocks = 1;
  cfg.attention_levels = {1};
  cfg.dropout = 0.1F;
  cfg.tile = 2048;
  return cfg;
}

dp::datagen::DatagenConfig datagen_config() {
  dp::datagen::DatagenConfig cfg;
  cfg.quantum = 64;
  cfg.min_shapes = 4;
  cfg.max_shapes = 9;
  cfg.extend_probability = 0.5;
  return cfg;
}

dp::nn::AdamConfig adam_config() {
  return dp::nn::AdamConfig{.learning_rate = 1e-3F, .grad_clip_norm = 1.0F};
}

dp::nn::AdamConfig finetune_adam_config() {
  return dp::nn::AdamConfig{.learning_rate = 1e-4F, .grad_clip_norm = 1.0F};
}

namespace {

dp::datagen::Dataset build_fixture_dataset() {
  const auto cfg = model_config();
  dp::common::Rng rng(dp::common::derive_seed(kFixtureSeed, 1));
  return dp::datagen::build_dataset(datagen_config(), kDatasetTiles,
                                    cfg.grid_side, cfg.channels, 0.2, rng);
}

}  // namespace

void build_fixture(const std::string& path) {
  const auto cfg = model_config();
  const auto dataset = build_fixture_dataset();
  dp::unet::UNet model(cfg.unet_config(),
                       dp::common::derive_seed(kFixtureSeed, 2));
  dp::diffusion::BinarySchedule schedule(cfg.schedule);
  dp::diffusion::DiffusionTrainer trainer(model, schedule, {}, adam_config());
  dp::common::Rng rng(dp::common::derive_seed(kFixtureSeed, 3));
  for (std::int64_t it = 0; it < kFixtureTrainIterations; ++it) {
    const auto batch = dataset.sample_training_batch(kTrainBatch, rng);
    const auto loss = trainer.step(batch, rng);
    if ((it + 1) % 300 == 0) {
      std::cerr << "fixture: iteration " << (it + 1) << " loss "
                << loss.total << "\n";
    }
  }
  dp::nn::save_checkpoint(model.registry(), path);
}

std::string hex64(std::uint64_t value) {
  std::ostringstream out;
  out << std::hex << std::setw(16) << std::setfill('0') << value;
  return out.str();
}

std::string file_digest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return "";
  }
  const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  Digest digest;
  digest.bytes(bytes.data(), bytes.size());
  return hex64(digest.value());
}

// ---------------------------------------------------------------- threads

Threads plan_threads(std::int64_t senders) {
  Threads t;
  t.nproc = std::max<std::int64_t>(1, std::thread::hardware_concurrency());
  t.generator = 1;
  t.legalize = 1;
  t.compute = 1;
  t.senders = std::min(senders, t.nproc);
  return t;
}

std::string pinned_kernel_backend() {
  return dp::tensor::kernel_backend_label(
      dp::tensor::detected_kernel_backend());
}

void pin_process(const Threads& threads) {
  const auto pool = dp::common::set_global_compute_threads(threads.compute);
  const auto backend =
      dp::tensor::set_kernel_backend_name(pinned_kernel_backend());
  if (!pool.ok() || !backend.ok()) {
    throw std::runtime_error("cannot pin threads/backend: " +
                             pool.to_string() + " " + backend.to_string());
  }
  dp::tensor::set_activation_arena_enabled(true);
}

dp::service::ServiceConfig service_config(const Threads& threads) {
  dp::service::ServiceConfig cfg;
  cfg.legalize_workers = threads.legalize;
  cfg.compute_threads = threads.compute;
  cfg.kernel_backend = pinned_kernel_backend();
  cfg.activation_arena = "on";
  cfg.max_fused_batch = kMaxFusedBatch;
  return cfg;
}

// ----------------------------------------------------------------- report

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& [key, entry] : metrics) {
    if (key == name) {
      entry = {value, unit};
      return;
    }
  }
  metrics.emplace_back(name, std::make_pair(value, unit));
}

double Report::get(const std::string& name) const {
  for (const auto& [key, entry] : metrics) {
    if (key == name) {
      return entry.first;
    }
  }
  return 0.0;
}

void Report::fail(const std::string& why) {
  correct = false;
  std::cout << "CHECK FAILED: " << why << "\n";
}

void Report::phase(const std::string& name, std::int64_t sent,
                   std::int64_t succeeded) {
  attempted += sent;
  failed += sent - succeeded;
  std::cout << "phase " << name << ": sent " << sent << " succeeded "
            << succeeded << " failed " << (sent - succeeded) << "\n";
}

void Report::expect_digest(const Options& options, const std::string& name,
                           const std::string& actual) {
  std::cout << "digest " << name << " " << actual << "\n";
  const auto it = options.expect.find(name);
  if (it == options.expect.end()) {
    std::cout << "digest " << name << ": none recorded, not compared\n";
    return;
  }
  if (it->second != actual) {
    const auto fixture = options.expect.find("fixture");
    const bool fixture_changed =
        fixture != options.expect.end() &&
        fixture->second != file_digest(options.fixture);
    fail("digest " + name + " is " + actual + ", expected " + it->second +
         (fixture_changed ? " (cause: the fixture checkpoint changed)"
                          : " (the fixture is unchanged: the code's output "
                            "bytes changed)"));
  }
}

// ------------------------------------------------------------------ setup

double process_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       g_process_start)
      .count();
}

Loaded load_fixture(const std::string& checkpoint) {
  const auto cfg = model_config();
  Loaded loaded;
  {
    Span span("datagen.dataset_build");
    loaded.dataset = build_fixture_dataset();
  }
  {
    Span span("io.checkpoint_load");
    loaded.model = std::make_unique<dp::unet::UNet>(cfg.unet_config(), 0);
    dp::nn::load_checkpoint(loaded.model->registry(), checkpoint);
  }
  loaded.schedule = std::make_unique<dp::diffusion::BinarySchedule>(
      cfg.schedule);
  return loaded;
}

double timed_setups(int repeats, const std::function<void()>& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < repeats; ++i) {
    const double start = i == 0 ? 0.0 : process_seconds();
    setup();
    seconds.push_back(process_seconds() - start);
  }
  std::cout << "setup_s samples:";
  for (const double s : seconds) {
    std::cout << " " << s;
  }
  std::cout << "\n";
  return median(seconds);
}

// ----------------------------------------------------------------- checks

std::uint64_t patterns_digest(
    const std::vector<dp::layout::SquishPattern>& patterns) {
  Digest digest;
  digest.i64(static_cast<std::int64_t>(patterns.size()));
  for (const auto& p : patterns) {
    digest.i64(p.topology.rows());
    digest.i64(p.topology.cols());
    digest.bytes(p.topology.cells().data(), p.topology.cells().size());
    for (const auto d : p.dx) {
      digest.i64(d);
    }
    for (const auto d : p.dy) {
      digest.i64(d);
    }
  }
  return digest.value();
}

std::int64_t drc_clean(const std::vector<dp::layout::SquishPattern>& patterns,
                       const dp::drc::DesignRules& rules) {
  std::int64_t clean = 0;
  for (const auto& p : patterns) {
    clean += dp::drc::check_pattern(p, rules).clean() ? 1 : 0;
  }
  return clean;
}

const std::string& deck_for(std::int64_t index) {
  static const std::vector<std::string> decks = {"normal", "space", "area"};
  return decks[static_cast<std::size_t>(index % 3)];
}

TrainProbe::TrainProbe(Loaded& loaded, std::uint64_t seed)
    : loaded_(loaded),
      trainer_(*loaded.model, *loaded.schedule, {}, finetune_adam_config()),
      rng_(seed) {}

void TrainProbe::run(std::int64_t steps) {
  for (std::int64_t i = 0; i < steps; ++i) {
    const auto batch = loaded_.dataset.sample_training_batch(kTrainBatch, rng_);
    Span span("diffusion.train_step");
    trainer_.step(batch, rng_);
    step_s_.push_back(span.elapsed());
  }
}

double TrainProbe::iterations_per_s() const {
  return 1.0 / percentile(step_s_, 25);
}

// ------------------------------------------------------------- reporting

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"tensor.gemm_gflops", "GFLOP/s"},
      {"tensor.im2col_ms", "ms"},
      {"tensor.gemm_bytes_moved", "B-computed"},
      {"tensor.heap_allocs_per_request", "count"},
      {"tensor.arena_bytes_reserved", "B"},
      {"nn.conv2d_ms", "ms"},
      {"nn.attention_ms", "ms"},
      {"nn.group_norm_ms", "ms"},
      {"nn.silu_ms", "ms"},
      {"nn.time_embed_ms", "ms"},
      {"nn.conv2d_backward_ms", "ms"},
      {"nn.adam_step_ms", "ms"},
      {"unet.forward_ms.b1", "ms"},
      {"unet.forward_ms.b4", "ms"},
      {"unet.forward_ms.b16", "ms"},
      {"unet.forward_backward_ms.b8", "ms"},
      {"diffusion.round_ms.w1", "ms"},
      {"diffusion.round_ms.w2_4", "ms"},
      {"diffusion.round_ms.w5_16", "ms"},
      {"diffusion.net_evals_per_topology", "count"},
      {"diffusion.train_step_ms", "ms"},
      {"service.rounds_executed", "count"},
      {"service.fused_fill_ratio", "ratio"},
      {"service.queue_depth_peak", "count"},
      {"service.admission_pending_peak", "count"},
      {"service.requests_shed", "count"},
      {"service.stream_pauses", "count"},
      {"service.wait_ms", "ms"},
      {"legalize.prefilter_us", "us"},
      {"legalize.solve_us", "us"},
      {"legalize.prefilter_pass_rate", "ratio"},
      {"legalize.solver_success_rate", "ratio"},
      {"drc.check_us", "us"},
      {"dist.encode_us.request", "us"},
      {"dist.decode_us.request", "us"},
      {"dist.encode_us.result", "us"},
      {"dist.decode_us.result", "us"},
      {"dist.encode_us.streamed_pattern", "us"},
      {"dist.decode_us.streamed_pattern", "us"},
      {"dist.encode_us.stream_end", "us"},
      {"dist.decode_us.stream_end", "us"},
      {"dist.frame_bytes", "B"},
      {"dist.handle_ms", "ms"},
      {"dist.hop_ms", "ms"},
      {"dist.reconnects", "count"},
      {"dist.pool_peak", "count"},
      {"dist.failovers", "count"},
      {"io.checkpoint_load_ms", "ms"},
      {"datagen.dataset_build_ms", "ms"},
      {"setup.warmup_ms", "ms"},
      {"generator.lag_ms", "ms"},
      {"generator.sent", "count"},
      {"generator.succeeded", "count"},
      {"generator.failed", "count"},
      {"trace.overhead_pct", "%"},
      {"trace.layer_coverage", "ratio"},
      {"trace.unet_share", "ratio"},
  };
  return metrics;
}

void print_env(const Options& options, const Threads& threads,
               const std::string& scale) {
  std::cout << "env {\"git_describe\": \"" << options.git_describe
            << "\", \"nproc\": " << threads.nproc
            << ", \"compute_threads\": " << threads.compute
            << ", \"legalize_workers\": " << threads.legalize
            << ", \"generator_threads\": " << threads.generator
            << ", \"sender_threads\": " << threads.senders
            << ", \"kernel_backend\": \"" << pinned_kernel_backend()
            << "\", \"arena\": \"on\", \"scale\": \"" << scale
            << "\", \"workload\": \"" << options.workload
            << "\", \"seed\": " << options.seed
            << ", \"seconds\": " << options.seconds
            << ", \"trace\": " << (options.trace ? 1 : 0)
            << ", \"fixture_digest\": \"" << file_digest(options.fixture)
            << "\"}\n";
}

}  // namespace perfbench
