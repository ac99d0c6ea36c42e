// train: closed loop of DiffusionTrainer steps at batch 8. Every episode
// restarts from the fixture weights with the same seed-derived RNG and runs
// a fixed number of iterations, so each episode must end on the same loss
// and weights. The run ends by validating the trained weights the way a
// training run is judged: sample, legalize, DRC.
#include <algorithm>
#include <iostream>
#include <optional>

#include "bench.h"
#include "common/rng.h"
#include "stats.h"
#include "tensor/arena.h"
#include "tensor/tensor.h"
#include "trace.h"

namespace perfbench {

namespace {

constexpr std::int64_t kEpisodeIterations = 40;
/// Latency limit of one training step for slo_attainment.
constexpr double kStepSloMs = 60.0;
/// Validation: one request per episode (untraced) of this many topologies
/// at stride 4, this many geometries each.
constexpr std::int64_t kTracedValidations = 4;
constexpr std::int64_t kValidationCount = 32;
constexpr std::int64_t kValidationStride = 4;
constexpr std::int64_t kValidationGeometries = 4;

std::vector<dp::tensor::Tensor> snapshot(const dp::unet::UNet& model) {
  std::vector<dp::tensor::Tensor> values;
  for (const auto& p : model.registry().params()) {
    values.push_back(p.value());
  }
  return values;
}

void restore(dp::unet::UNet& model,
             const std::vector<dp::tensor::Tensor>& values) {
  const auto& params = model.registry().params();
  for (std::size_t i = 0; i < params.size(); ++i) {
    auto param = params[i];
    param.mutable_value() = values[i];
    param.zero_grad();
  }
}

std::string weights_digest(const dp::unet::UNet& model, double loss) {
  Digest digest;
  digest.f64(loss);
  for (const auto& p : model.registry().params()) {
    digest.bytes(p.value().data(),
                 static_cast<std::size_t>(p.value().numel()) * sizeof(float));
  }
  return hex64(digest.value());
}

struct Episode {
  std::vector<double> step_s;
  std::string digest;
};

/// `iterations` trainer steps from `initial` weights; the RNG restarts at
/// `seed`, so equal seeds give equal episodes.
Episode episode(Loaded& loaded, const std::vector<dp::tensor::Tensor>& initial,
                std::uint64_t seed, std::int64_t iterations) {
  restore(*loaded.model, initial);
  dp::diffusion::DiffusionTrainer trainer(*loaded.model, *loaded.schedule, {},
                                          finetune_adam_config());
  dp::common::Rng rng(seed);
  Episode out;
  double loss = 0.0;
  for (std::int64_t i = 0; i < iterations; ++i) {
    const auto batch = loaded.dataset.sample_training_batch(kTrainBatch, rng);
    Span span("diffusion.train_step", i);
    loss = trainer.step(batch, rng).total;
    out.step_s.push_back(span.elapsed());
  }
  out.digest = weights_digest(*loaded.model, loss);
  return out;
}

struct Validation {
  std::vector<double> latency_s;
  std::int64_t sent = 0;
  std::int64_t succeeded = 0;
  std::int64_t legal = 0;
  std::int64_t requested = 0;
  std::int64_t topologies = 0;
  std::vector<double> wait_ms;
};

/// Serves the weights a training episode produced and generates from them.
class Validator {
 public:
  Validator(const Threads& threads, Report& report)
      : service_(service_config(threads)), report_(report) {}

  dp::service::PatternService& service() { return service_; }
  const Validation& result() const { return v_; }

  /// Runs validation request `index` of the run seeded by `seed`. The
  /// first call registers `loaded`'s current weights; every episode of a
  /// run ends on the same weights (its digest check), so later calls
  /// reuse them, with warm activation plans.
  void run(const Loaded& loaded, std::uint64_t seed, std::int64_t index) {
    if (!registered_) {
      registered_ = service_.models().register_model(
          kModel, model_config(), loaded.model->registry(),
          loaded.dataset.library);
    }
    const auto& status = *registered_;
    dp::service::GenerateRequest request;
    request.model = kModel;
    request.count = kValidationCount;
    request.geometries_per_topology = kValidationGeometries;
    request.rule_set = deck_for(index);
    request.seed = dp::common::derive_seed(seed, 32, index);
    request.sampling.stride = kValidationStride;
    ++v_.sent;
    Span span("service.generate", index);
    auto result = status.ok() ? service_.generate(request)
                              : dp::common::Result<
                                    dp::service::GenerateResult>(status);
    const double latency = span.elapsed();
    if (!result.ok()) {
      report_.fail("validation request: " + result.status().to_string());
      return;
    }
    const auto clean = drc_clean(result.value().patterns,
                                 service_.rule_set(request.rule_set).value());
    if (clean != static_cast<std::int64_t>(result.value().patterns.size())) {
      report_.fail("validation delivered a pattern that fails DRC");
    }
    ++v_.succeeded;
    v_.latency_s.push_back(latency);
    v_.wait_ms.push_back(
        1e3 * service_wait(latency, result.value().stats.sampling_seconds,
                           result.value().stats.solving_seconds));
    v_.legal += clean;
    v_.requested += kValidationCount * kValidationGeometries;
    v_.topologies += kValidationCount;
  }

 private:
  dp::service::PatternService service_;
  Report& report_;
  std::optional<dp::common::Status> registered_;
  Validation v_;
};

struct LoopResult {
  std::vector<double> step_s;
  std::int64_t episodes = 0;
  std::int64_t consistent = 0;
};

/// Episodes until `seconds` pass; `validator`, when set, validates each
/// episode's weights with one request, so validation samples the same
/// stretch of the run as the training steps.
LoopResult closed_loop(Loaded& loaded,
                       const std::vector<dp::tensor::Tensor>& initial,
                       std::uint64_t seed, double seconds, Report& report,
                       Validator* validator = nullptr) {
  LoopResult loop;
  std::string first;
  const double start = process_seconds();
  while (loop.episodes < 2 || process_seconds() - start < seconds) {
    auto e = episode(loaded, initial, dp::common::derive_seed(seed, 31),
                     kEpisodeIterations);
    if (validator != nullptr) {
      validator->run(loaded, seed, loop.episodes);
    }
    ++loop.episodes;
    if (first.empty()) {
      first = e.digest;
    }
    loop.consistent += e.digest == first ? 1 : 0;
    loop.step_s.insert(loop.step_s.end(), e.step_s.begin(), e.step_s.end());
  }
  if (loop.consistent != loop.episodes) {
    report.fail("training episodes from one seed ended on different "
                "loss/weights");
  }
  return loop;
}

}  // namespace

void run_train(const Options& options, Report& report) {
  const auto threads = plan_threads(0);
  print_env(options, threads, "quick");
  Loaded loaded;
  std::vector<dp::tensor::Tensor> initial;
  std::vector<std::string> canaries;
  const auto canary_seed = 0xC0FFEEULL;
  const double setup_s = timed_setups(options.trace ? 1 : kSetupRepeats, [&] {
    loaded = load_fixture(options.fixture);
    pin_process(threads);
    initial = snapshot(*loaded.model);
    Span span("setup.warmup");
    canaries.push_back(episode(loaded, initial, canary_seed, 4).digest);
  });
  report.phase("setup", static_cast<std::int64_t>(canaries.size()),
               static_cast<std::int64_t>(canaries.size()));
  if (std::adjacent_find(canaries.begin(), canaries.end(),
                         std::not_equal_to<>()) != canaries.end()) {
    report.fail("warm-up canary weights differ between set-ups");
  }
  report.expect_digest(options, "train.canary", canaries.front());
  Validator validator(threads, report);

  if (!options.trace) {
    const auto loop = closed_loop(loaded, initial, options.seed,
                                  options.seconds, report, &validator);
    report.phase("measure", loop.episodes, loop.consistent);
    const auto& v = validator.result();
    report.phase("validate", v.sent, v.succeeded);
    std::int64_t within = 0;
    for (const double s : loop.step_s) {
      within += 1e3 * s <= kStepSloMs ? 1 : 0;
    }
    std::cout << "steps: " << loop.step_s.size() << " over " << loop.episodes
              << " episodes of " << kEpisodeIterations << "\n";
    const double rate = kValidationCount / percentile(v.latency_s, 25);
    report.set("setup_s", setup_s, "s");
    report.set("topologies_per_s", rate, "1/s");
    report.set("legal_patterns_per_s",
               rate * static_cast<double>(v.legal) /
                   static_cast<double>(v.topologies),
               "1/s");
    report.set("legal_fraction",
               static_cast<double>(v.legal) / static_cast<double>(v.requested),
               "ratio");
    report.set("latency_p50_ms", 1e3 * percentile(loop.step_s, 50), "ms");
    report.set("latency_p95_ms", 1e3 * percentile(loop.step_s, 95), "ms");
    report.set("slo_attainment",
               static_cast<double>(within) /
                   static_cast<double>(loop.step_s.size()),
               "ratio");
    report.set("train_iters_per_s", 1.0 / percentile(loop.step_s, 25), "1/s");
    return;
  }

  auto& tracer = Tracer::instance();
  tracer.set_enabled(false);
  const auto plain = closed_loop(loaded, initial, options.seed,
                                 options.seconds / 3, report);
  report.phase("untraced", plain.episodes, plain.consistent);
  tracer.set_enabled(true);
  LoopResult traced;
  {
    Span root("trace.root");
    const auto allocs_before =
        dp::tensor::tensor_alloc_stats().heap_allocations;
    traced = closed_loop(loaded, initial, options.seed, options.seconds / 3,
                         report);
    const auto allocs = dp::tensor::tensor_alloc_stats().heap_allocations;
    report.set("tensor.heap_allocs_per_request",
               static_cast<double>(allocs - allocs_before) /
                   static_cast<double>(traced.step_s.size()),
               "count");
    for (std::int64_t i = 0; i < kTracedValidations; ++i) {
      validator.run(loaded, options.seed, i);
    }
    const auto& v = validator.result();
    report.phase("validate", v.sent, v.succeeded);
    const auto counters = validator.service().counters();
    report.set("service.rounds_executed",
               static_cast<double>(counters.rounds_executed), "count");
    report.set("service.fused_fill_ratio", counters.fused_fill_ratio, "ratio");
    report.set("service.queue_depth_peak",
               static_cast<double>(counters.queue_depth_peak), "count");
    report.set("service.admission_pending_peak",
               static_cast<double>(counters.admission_pending_peak), "count");
    report.set("service.requests_shed",
               static_cast<double>(counters.requests_shed), "count");
    report.set("service.stream_pauses",
               static_cast<double>(counters.stream_pauses), "count");
    report.set("service.wait_ms", median(v.wait_ms), "ms");
    report.set("diffusion.net_evals_per_topology",
               static_cast<double>(counters.net_evals) /
                   static_cast<double>(v.topologies),
               "count");
    report.set("tensor.arena_bytes_reserved",
               static_cast<double>(dp::tensor::arena_stats().bytes_reserved),
               "B");
    replay_legalization(validator.service(), loaded, kValidationCount,
                        kValidationGeometries,
                        dp::common::derive_seed(options.seed, 32, 0), report);
    replay_model_layers(
        loaded,
        LayerShapes{.batch = kTrainBatch,
                    .strides = std::vector<std::int64_t>(kMaxFusedBatch,
                                                         kValidationStride)},
        options.seed, report);
  }
  report.phase("traced", traced.episodes, traced.consistent);
  report.set("generator.lag_ms", 0.0, "ms");
  report.set("generator.sent", static_cast<double>(traced.step_s.size()),
             "count");
  report.set("generator.succeeded", static_cast<double>(traced.step_s.size()),
             "count");
  report.set("generator.failed", 0.0, "count");
  report.set("trace.overhead_pct",
             100.0 * (median(traced.step_s) / median(plain.step_s) - 1), "%");
}

}  // namespace perfbench
