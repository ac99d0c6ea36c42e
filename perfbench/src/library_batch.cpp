// library_batch: the paper's library-generation use. One client sends
// back-to-back full-width PatternService::generate requests (closed loop):
// count = max_fused_batch topologies, the full schedule, 10 geometries per
// topology, rule decks rotating normal/space/area.
#include <algorithm>
#include <iostream>

#include "bench.h"
#include "common/rng.h"
#include "stats.h"
#include "tensor/arena.h"
#include "tensor/tensor.h"
#include "trace.h"

namespace perfbench {

namespace {

constexpr std::int64_t kGeometries = 10;
/// Latency limit of one library request for slo_attainment.
constexpr double kLibrarySloMs = 2500.0;
/// Training-probe steps run after each library request (untraced runs).
constexpr std::int64_t kProbeStepsPerRequest = 3;

dp::service::GenerateRequest library_request(std::uint64_t seed,
                                             std::int64_t index) {
  dp::service::GenerateRequest request;
  request.model = kModel;
  request.count = kMaxFusedBatch;
  request.geometries_per_topology = kGeometries;
  request.rule_set = deck_for(index);
  request.seed = dp::common::derive_seed(seed, 11, index);
  return request;
}

struct LoopResult {
  std::vector<double> latency_s;
  std::int64_t sent = 0;
  std::int64_t succeeded = 0;
  std::int64_t topologies = 0;
  std::int64_t requested_patterns = 0;
  std::int64_t legal_patterns = 0;
  std::int64_t net_evals = 0;
  std::vector<double> wait_ms;
  std::vector<dp::layout::SquishPattern> first_output;
};

/// `probe`, when set, runs a few training steps between requests, so its
/// step times sample the same stretch of the run as the requests.
LoopResult closed_loop(dp::service::PatternService& service,
                       std::uint64_t seed, double seconds, Report& report,
                       TrainProbe* probe = nullptr) {
  LoopResult loop;
  const double start = process_seconds();
  for (std::int64_t i = 0; i < 3 || process_seconds() - start < seconds;
       ++i) {
    const auto request = library_request(seed, i);
    ++loop.sent;
    dp::common::Result<dp::service::GenerateResult> result =
        dp::common::Status::Internal("not run");
    double latency = 0.0;
    {
      Span span("service.generate", i);
      result = service.generate(request);
      latency = span.elapsed();
    }
    if (!result.ok()) {
      report.fail("library request " + std::to_string(i) + ": " +
                  result.status().to_string());
      continue;
    }
    const auto& value = result.value();
    const auto rules = service.rule_set(request.rule_set).value();
    std::int64_t clean = 0;
    {
      Span span("drc.recheck", i);
      clean = drc_clean(value.patterns, rules);
    }
    if (clean != static_cast<std::int64_t>(value.patterns.size())) {
      report.fail("library request " + std::to_string(i) +
                  " delivered a pattern that fails DRC under its deck");
    }
    ++loop.succeeded;
    loop.latency_s.push_back(latency);
    loop.topologies += request.count;
    loop.requested_patterns += request.count * kGeometries;
    loop.legal_patterns += clean;
    loop.net_evals += value.stats.net_evals;
    loop.wait_ms.push_back(1e3 * service_wait(latency,
                                              value.stats.sampling_seconds,
                                              value.stats.solving_seconds));
    if (i == 0) {
      loop.first_output = value.patterns;
    }
    if (probe != nullptr) {
      probe->run(kProbeStepsPerRequest);
    }
  }
  return loop;
}

struct Served {
  Loaded loaded;
  std::unique_ptr<dp::service::PatternService> service;
};

/// One set-up: dataset, checkpoint, registration, and the warm-up round
/// (a fixed canary request at full fused width) that records the arena
/// plan. Returns the canary's output digest.
std::string set_up(const Options& options, const Threads& threads,
                   Served& served) {
  served.service.reset();
  served.loaded = load_fixture(options.fixture);
  served.service =
      std::make_unique<dp::service::PatternService>(service_config(threads));
  const auto status = served.service->models().register_model(
      kModel, model_config(), served.loaded.model->registry(),
      served.loaded.dataset.library);
  if (!status.ok()) {
    throw std::runtime_error("register_model: " + status.to_string());
  }
  Span span("setup.warmup");
  auto canary = library_request(0xC0FFEE, 0);
  canary.sampling.stride = 2;
  auto result = served.service->generate(canary);
  if (!result.ok()) {
    throw std::runtime_error("warm-up: " + result.status().to_string());
  }
  return hex64(patterns_digest(result.value().patterns));
}

}  // namespace

void run_library_batch(const Options& options, Report& report) {
  const auto threads = plan_threads(0);
  print_env(options, threads, "quick");
  Served served;
  std::vector<std::string> canaries;
  const double setup_s = timed_setups(options.trace ? 1 : kSetupRepeats, [&] {
    canaries.push_back(set_up(options, threads, served));
  });
  report.phase("setup", static_cast<std::int64_t>(canaries.size()),
               static_cast<std::int64_t>(canaries.size()));
  if (std::adjacent_find(canaries.begin(), canaries.end(),
                         std::not_equal_to<>()) != canaries.end()) {
    report.fail("warm-up canary bytes differ between set-ups");
  }
  report.expect_digest(options, "library_batch.canary", canaries.front());
  auto& service = *served.service;

  if (!options.trace) {
    TrainProbe probe(served.loaded, dp::common::derive_seed(options.seed, 12));
    const auto loop = closed_loop(service, options.seed, options.seconds,
                                  report, &probe);
    report.phase("measure", loop.sent, loop.succeeded);
    // Determinism across paths: request 0 again through the pull stream.
    auto handle = service.generate_stream(library_request(options.seed, 0));
    std::vector<dp::service::StreamedPattern> slots;
    while (auto slot = handle.next()) {
      slots.push_back(std::move(*slot));
    }
    const bool stream_ok = handle.finish().ok();
    report.phase("replay", 1, stream_ok ? 1 : 0);
    if (!stream_ok ||
        patterns_digest(dp::service::assemble_stream_patterns(
            std::move(slots))) != patterns_digest(loop.first_output)) {
      report.fail("request 0 replayed through generate_stream differs "
                  "from generate");
    }
    const double p50 = percentile(loop.latency_s, 50);
    const double rate = kMaxFusedBatch / percentile(loop.latency_s, 25);
    std::int64_t within = 0;
    for (const double l : loop.latency_s) {
      within += 1e3 * l <= kLibrarySloMs ? 1 : 0;
    }
    std::cout << "latency: " << loop.latency_s.size()
              << " samples, highest supported percentile p"
              << highest_supported_percentile(
                     static_cast<std::int64_t>(loop.latency_s.size()))
              << "\n";
    report.phase("train_probe", probe.steps(), probe.steps());
    report.set("setup_s", setup_s, "s");
    report.set("topologies_per_s", rate, "1/s");
    report.set("legal_patterns_per_s",
               rate * static_cast<double>(loop.legal_patterns) /
                   static_cast<double>(loop.topologies),
               "1/s");
    report.set("legal_fraction",
               static_cast<double>(loop.legal_patterns) /
                   static_cast<double>(loop.requested_patterns),
               "ratio");
    report.set("latency_p50_ms", 1e3 * p50, "ms");
    report.set("latency_p95_ms", 1e3 * percentile(loop.latency_s, 95), "ms");
    report.set("slo_attainment",
               static_cast<double>(within) / static_cast<double>(loop.sent),
               "ratio");
    report.set("train_iters_per_s", probe.iterations_per_s(), "1/s");
    return;
  }

  // Traced run: the same loop untraced then traced (the overhead), then
  // the per-layer replays at this workload's shapes.
  auto& tracer = Tracer::instance();
  tracer.set_enabled(false);
  const auto plain = closed_loop(service, options.seed, options.seconds / 3,
                                 report);
  report.phase("untraced", plain.sent, plain.succeeded);
  tracer.set_enabled(true);
  const auto counters_before = service.counters();
  const auto allocs_before = dp::tensor::tensor_alloc_stats().heap_allocations;
  LoopResult traced;
  {
    Span root("trace.root");
    traced = closed_loop(service, options.seed, options.seconds / 3, report);
    const auto allocs = dp::tensor::tensor_alloc_stats().heap_allocations;
    const auto after = service.counters();
    report.set("tensor.heap_allocs_per_request",
               static_cast<double>(allocs - allocs_before) /
                   static_cast<double>(traced.sent),
               "count");
    const auto rounds = after.rounds_executed - counters_before.rounds_executed;
    report.set("service.rounds_executed", static_cast<double>(rounds),
               "count");
    report.set("service.fused_fill_ratio",
               rounds > 0 ? static_cast<double>(after.fused_slots_total -
                                                counters_before
                                                    .fused_slots_total) /
                                static_cast<double>(rounds * kMaxFusedBatch)
                          : 0.0,
               "ratio");
    report.set("service.queue_depth_peak",
               static_cast<double>(after.queue_depth_peak), "count");
    report.set("service.admission_pending_peak",
               static_cast<double>(after.admission_pending_peak), "count");
    report.set("service.requests_shed",
               static_cast<double>(after.requests_shed -
                                   counters_before.requests_shed),
               "count");
    report.set("service.stream_pauses",
               static_cast<double>(after.stream_pauses -
                                   counters_before.stream_pauses),
               "count");
    report.set("service.wait_ms", median(traced.wait_ms), "ms");
    report.set("diffusion.net_evals_per_topology",
               static_cast<double>(traced.net_evals) /
                   static_cast<double>(traced.topologies),
               "count");
    report.set("tensor.arena_bytes_reserved",
               static_cast<double>(
                   dp::tensor::arena_stats().bytes_reserved),
               "B");
    replay_legalization(service, served.loaded, kMaxFusedBatch, kGeometries,
                        dp::common::derive_seed(options.seed, 11, 0), report);
    // The workload's own requests over the wire, the third one streamed.
    replay_wire(served.loaded, threads,
                {library_request(options.seed, 0),
                 library_request(options.seed, 1),
                 library_request(options.seed, 2)},
                {false, false, true}, report);
    replay_model_layers(
        served.loaded,
        LayerShapes{.batch = kMaxFusedBatch,
                    .strides = std::vector<std::int64_t>(kMaxFusedBatch, 1)},
        options.seed, report);
  }
  report.phase("traced", traced.sent, traced.succeeded);
  report.set("generator.lag_ms", 0.0, "ms");
  report.set("generator.sent", static_cast<double>(traced.sent), "count");
  report.set("generator.succeeded", static_cast<double>(traced.succeeded),
             "count");
  report.set("generator.failed",
             static_cast<double>(traced.sent - traced.succeeded), "count");
  report.set("trace.overhead_pct",
             100.0 * (median(traced.latency_s) / median(plain.latency_s) - 1),
             "%");
}

}  // namespace perfbench
