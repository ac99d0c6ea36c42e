// online_mixed: open loop with seeded Poisson arrivals at one fixed rate.
// Small mixed requests (count 1-4, strides 1/2/4, a third streamed, mixed
// priorities, no deadlines) go ReplicaRouter -> SocketTransport over
// loopback TCP -> SocketServer -> one WorkerNode. Latency is timed from
// each request's due time.
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <iostream>
#include <mutex>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "dist/router.h"
#include "dist/socket_transport.h"
#include "dist/wire.h"
#include "dist/worker_node.h"
#include "stats.h"
#include "tensor/arena.h"
#include "tensor/tensor.h"
#include "trace.h"

namespace perfbench {

namespace {

using dp::dist::Bytes;

/// Arrival rate, fixed at about two thirds of the rate at which the
/// backlog of this stack starts to grow on the reference host (about
/// 15/s on a 4-vCPU Xeon).
constexpr double kRatePerS = 10.0;
constexpr std::int64_t kGeometries = 4;
/// Latency limit of slo_attainment, from each request's due time.
constexpr double kOnlineSloMs = 1000.0;
constexpr std::int64_t kSenders = 4;
/// Training-probe steps run just before and just after the window.
constexpr std::int64_t kProbeSteps = 100;

struct Arrival {
  double due = 0.0;
  bool stream = false;
  dp::service::GenerateRequest request;
};

/// `values` cycled to length n and shuffled in blocks of `block`: every
/// stretch of `block` requests carries the same mix, only the order inside
/// it depends on the seed.
template <typename T>
std::vector<T> balanced(const std::vector<T>& values, std::int64_t n,
                        std::int64_t block, dp::common::Rng& rng) {
  std::vector<T> out;
  for (std::int64_t i = 0; i < n; ++i) {
    out.push_back(values[static_cast<std::size_t>(i) % values.size()]);
  }
  for (std::int64_t b = 0; b < n; b += block) {
    std::vector<T> part(out.begin() + b,
                        out.begin() + std::min(n, b + block));
    rng.shuffle(part);
    std::copy(part.begin(), part.end(), out.begin() + b);
  }
  return out;
}

/// Poisson arrivals conditioned on their count per second: each one-second
/// bin of the window holds rate arrivals (pro rata in a last partial bin)
/// at uniform random times. Within a second they bunch like Poisson
/// arrivals; across seconds the offered load stays fixed, so runs of
/// different seeds carry the same load.
std::vector<Arrival> arrivals(std::uint64_t seed, double seconds) {
  dp::common::Rng rng(dp::common::derive_seed(seed, 21));
  std::vector<double> dues;
  for (double bin = 0.0; bin < seconds; bin += 1.0) {
    const double width = std::min(1.0, seconds - bin);
    const auto k = std::llround(kRatePerS * width);
    const auto first = dues.size();
    for (std::int64_t i = 0; i < k; ++i) {
      dues.push_back(bin + rng.uniform(0.0, width));
    }
    std::sort(dues.begin() + static_cast<std::ptrdiff_t>(first), dues.end());
  }
  if (dues.empty()) {
    dues.push_back(0.0);
  }
  const auto n = static_cast<std::int64_t>(dues.size());
  const auto counts = balanced<std::int64_t>({1, 2, 3, 4}, n, 12, rng);
  const auto strides = balanced<std::int64_t>({1, 2, 4}, n, 12, rng);
  const auto streamed = balanced<int>({1, 0, 0}, n, 12, rng);
  const auto priorities = balanced<std::int32_t>({0, 1, 2}, n, 12, rng);
  std::vector<Arrival> out(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const auto u = static_cast<std::size_t>(i);
    auto& a = out[u];
    a.due = dues[u];
    a.stream = streamed[u] == 1;
    a.request.model = kModel;
    a.request.count = counts[u];
    a.request.geometries_per_topology = kGeometries;
    a.request.rule_set = deck_for(i);
    a.request.seed = dp::common::derive_seed(seed, 22, i);
    a.request.priority = priorities[u];
    a.request.sampling.stride = strides[u];
  }
  return out;
}

/// What the benchmark's own SocketServer handler saw of one call.
struct HandledCall {
  std::int64_t request = -1;
  double handle_seconds = 0.0;
  Bytes request_frame;
  Bytes response_frame;
};

/// Worker, server, transport and router of one set-up. Members are torn
/// down in reverse: router and channel first, then the server (which
/// drains in-flight calls into the node), then the node.
struct Stack {
  Loaded loaded;
  std::unique_ptr<dp::dist::WorkerNode> node;
  std::unique_ptr<dp::dist::SocketServer> server;
  std::unique_ptr<dp::dist::SocketTransport> transport;
  std::shared_ptr<dp::dist::Channel> channel;
  std::unique_ptr<dp::dist::ReplicaRouter> router;

  // Traced calls, keyed to request slots by seed.
  std::mutex calls_mutex;
  std::map<std::uint64_t, std::int64_t> slot_of_seed;
  std::vector<HandledCall> calls;

  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() { tear_down(); }

  void tear_down() {
    router.reset();
    channel.reset();
    transport.reset();
    if (server) {
      server->shutdown();
    }
    server.reset();
    node.reset();
  }

  Bytes handle(const Bytes& frame) {
    if (!Tracer::instance().enabled()) {
      return node->handle(frame);
    }
    HandledCall call;
    if (auto decoded = dp::dist::decode_generate_request(frame);
        decoded.ok()) {
      std::lock_guard<std::mutex> lock(calls_mutex);
      const auto it = slot_of_seed.find(decoded.value().seed);
      call.request = it == slot_of_seed.end() ? -1 : it->second;
    }
    Bytes response;
    {
      Span span("dist.handle", call.request);
      response = node->handle(frame);
      call.handle_seconds = span.elapsed();
    }
    call.request_frame = frame;
    call.response_frame = response;
    std::lock_guard<std::mutex> lock(calls_mutex);
    calls.push_back(std::move(call));
    return response;
  }
};

struct Outcome {
  DueTimes times;
  bool ok = false;
  std::int64_t legal = 0;
  std::vector<dp::layout::SquishPattern> patterns;
  dp::service::GenerateStats stats;
};

/// Sends one request through the router; fills patterns and stats.
dp::common::Status route(Stack& stack, const Arrival& arrival,
                         std::int64_t slot, Outcome& out,
                         std::int64_t parent = Span::current()) {
  if (!arrival.stream) {
    Span span("dist.router_generate", slot, parent);
    auto result = stack.router->generate(arrival.request);
    if (!result.ok()) {
      return result.status();
    }
    out.patterns = std::move(result.value().patterns);
    out.stats = result.value().stats;
    return dp::common::Status::Ok();
  }
  std::vector<dp::service::StreamedPattern> slots;
  Span span("dist.router_generate", slot, parent);
  auto result = stack.router->generate_stream(
      arrival.request,
      [&](const dp::service::StreamedPattern& s) { slots.push_back(s); });
  if (!result.ok()) {
    return result.status();
  }
  out.patterns = dp::service::assemble_stream_patterns(std::move(slots));
  out.stats = result.value();
  return dp::common::Status::Ok();
}

struct LoopResult {
  std::vector<Arrival> arrivals;
  std::vector<Outcome> outcomes;
  std::int64_t succeeded = 0;
};

LoopResult open_loop(Stack& stack, std::uint64_t seed, double seconds,
                     std::int64_t senders, Report& report) {
  LoopResult loop;
  loop.arrivals = arrivals(seed, seconds);
  const auto n = static_cast<std::int64_t>(loop.arrivals.size());
  loop.outcomes.resize(static_cast<std::size_t>(n));
  {
    std::lock_guard<std::mutex> lock(stack.calls_mutex);
    stack.slot_of_seed.clear();
    for (std::int64_t i = 0; i < n; ++i) {
      stack.slot_of_seed[loop.arrivals[static_cast<std::size_t>(i)]
                             .request.seed] = i;
    }
  }
  std::mutex mutex;
  std::condition_variable ready;
  std::deque<std::int64_t> pending;
  bool generating = true;
  std::vector<std::string> errors;
  const double t0 = process_seconds() + 0.02;
  // Sender spans belong under the span open on the generator thread.
  const std::int64_t parent = Span::current();

  const auto sender = [&] {
    for (;;) {
      std::int64_t slot = 0;
      {
        std::unique_lock<std::mutex> lock(mutex);
        ready.wait(lock, [&] { return !pending.empty() || !generating; });
        if (pending.empty()) {
          return;
        }
        slot = pending.front();
        pending.pop_front();
      }
      const auto& arrival = loop.arrivals[static_cast<std::size_t>(slot)];
      auto& out = loop.outcomes[static_cast<std::size_t>(slot)];
      out.times.due = t0 + arrival.due;
      out.times.sent = process_seconds();
      const auto status = route(stack, arrival, slot, out, parent);
      out.times.done = process_seconds();
      if (!status.ok()) {
        std::lock_guard<std::mutex> lock(mutex);
        errors.push_back("request " + std::to_string(slot) + ": " +
                         status.to_string());
        continue;
      }
      const auto rules =
          stack.node->service().rule_set(arrival.request.rule_set).value();
      out.legal = drc_clean(out.patterns, rules);
      out.ok = true;
      if (out.legal != static_cast<std::int64_t>(out.patterns.size())) {
        std::lock_guard<std::mutex> lock(mutex);
        errors.push_back("request " + std::to_string(slot) +
                         " delivered a pattern that fails DRC under its deck");
      }
    }
  };
  std::vector<std::thread> pool;
  for (std::int64_t i = 0; i < senders; ++i) {
    pool.emplace_back(sender);
  }
  const auto origin = std::chrono::steady_clock::now() -
                      std::chrono::duration_cast<
                          std::chrono::steady_clock::duration>(
                          std::chrono::duration<double>(process_seconds()));
  for (std::int64_t i = 0; i < n; ++i) {
    const double due = t0 + loop.arrivals[static_cast<std::size_t>(i)].due;
    std::this_thread::sleep_until(
        origin + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                     std::chrono::duration<double>(due)));
    {
      std::lock_guard<std::mutex> lock(mutex);
      pending.push_back(i);
    }
    ready.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mutex);
    generating = false;
  }
  ready.notify_all();
  for (auto& t : pool) {
    t.join();
  }
  for (const auto& e : errors) {
    report.fail(e);
  }
  for (const auto& o : loop.outcomes) {
    loop.succeeded += o.ok ? 1 : 0;
  }
  return loop;
}

/// Slot-ordered digest of the outputs of one fixed request set, sent one
/// at a time through the router: the warm-up round of every set-up.
std::string canary(Stack& stack) {
  std::vector<Arrival> set(3);
  const std::int64_t counts[] = {4, 2, 1};
  const std::int64_t strides[] = {1, 2, 4};
  Digest digest;
  for (std::size_t i = 0; i < set.size(); ++i) {
    auto& a = set[i];
    a.stream = i == 1;
    a.request.model = kModel;
    a.request.count = counts[i];
    a.request.geometries_per_topology = kGeometries;
    a.request.rule_set = deck_for(static_cast<std::int64_t>(i));
    a.request.seed = 0xC0FFEE + i;
    a.request.sampling.stride = strides[i];
    Outcome out;
    const auto status = route(stack, a, -1, out);
    if (!status.ok()) {
      throw std::runtime_error("warm-up: " + status.to_string());
    }
    digest.i64(static_cast<std::int64_t>(patterns_digest(out.patterns)));
  }
  return hex64(digest.value());
}

/// Starts the worker (serving a copy of `loaded`'s weights), the server,
/// the transport and the router.
void start_stack(Stack& stack, const Loaded& loaded, const Threads& threads) {
  stack.node = std::make_unique<dp::dist::WorkerNode>("worker-0",
                                                      service_config(threads));
  const auto status = stack.node->service().models().register_model(
      kModel, model_config(), loaded.model->registry(),
      loaded.dataset.library);
  if (!status.ok()) {
    throw std::runtime_error("register_model: " + status.to_string());
  }
  stack.server = std::make_unique<dp::dist::SocketServer>();
  const auto started = stack.server->start(
      "tcp:127.0.0.1:0", [&stack](const Bytes& frame) {
        return stack.handle(frame);
      });
  if (!started.ok()) {
    throw std::runtime_error("SocketServer::start: " + started.to_string());
  }
  dp::dist::SocketTransportConfig transport_cfg;
  transport_cfg.max_connections = static_cast<std::size_t>(threads.senders);
  transport_cfg.call_timeout_ms = 60000;
  stack.transport = std::make_unique<dp::dist::SocketTransport>(transport_cfg);
  stack.channel = stack.transport->connect(stack.server->bound_address());
  stack.router = std::make_unique<dp::dist::ReplicaRouter>();
  stack.router->add_replica(kModel, stack.channel);
}

std::string set_up(const Options& options, const Threads& threads,
                   Stack& stack) {
  stack.tear_down();
  stack.loaded = load_fixture(options.fixture);
  start_stack(stack, stack.loaded, threads);
  Span span("setup.warmup");
  return canary(stack);
}

struct Latency {
  std::vector<double> ok_ms;
  std::vector<double> lag_ms;
  std::int64_t within_slo = 0;
  double topologies = 0.0;
  double legal = 0.0;
  double requested = 0.0;
  double span_s = 0.0;
};

Latency summarize(const LoopResult& loop) {
  Latency s;
  double first_due = 1e300, last_done = 0.0;
  for (std::size_t i = 0; i < loop.outcomes.size(); ++i) {
    const auto& o = loop.outcomes[i];
    const auto& request = loop.arrivals[i].request;
    s.requested += static_cast<double>(request.count * kGeometries);
    s.lag_ms.push_back(1e3 * generator_lag(o.times));
    first_due = std::min(first_due, o.times.due);
    if (!o.ok) {
      continue;
    }
    const double latency_ms = 1e3 * due_latency(o.times);
    s.ok_ms.push_back(latency_ms);
    s.within_slo += latency_ms <= kOnlineSloMs ? 1 : 0;
    s.topologies += static_cast<double>(request.count);
    s.legal += static_cast<double>(o.legal);
    last_done = std::max(last_done, o.times.done);
  }
  s.span_s = last_done - first_due;
  return s;
}

/// dist.* metrics from the calls the traced handler recorded: codec
/// replays on the calls' own frames, handle and hop times (matched to
/// `outcomes` by request slot), and the transport and router counters.
void set_wire_metrics(Stack& stack, const std::vector<Outcome>& outcomes,
                      Report& report) {
  std::vector<HandledCall> calls;
  {
    std::lock_guard<std::mutex> lock(stack.calls_mutex);
    calls = stack.calls;
  }
  std::vector<double> hop_ms;
  for (const auto& call : calls) {
    const auto slot = static_cast<std::size_t>(call.request);
    if (call.request >= 0 && slot < outcomes.size() && outcomes[slot].ok) {
      const auto& t = outcomes[slot].times;
      hop_ms.push_back(1e3 * hop_time(t.done - t.sent, call.handle_seconds));
    }
  }
  report.set("dist.hop_ms", median(hop_ms), "ms");
  report.set("dist.reconnects",
             static_cast<double>(stack.channel->stats().reconnects), "count");
  report.set("dist.pool_peak",
             static_cast<double>(stack.channel->stats().pool_peak), "count");
  report.set("dist.failovers",
             static_cast<double>(stack.router->counters().failovers),
             "count");
  std::map<std::string, std::vector<double>> us;
  std::vector<double> frame_bytes, handle_ms;
  const auto timed = [&](const std::string& name, auto&& fn) {
    Span span("dist.codec");
    fn();
    us[name].push_back(1e6 * span.elapsed());
  };
  for (const auto& call : calls) {
    if (call.request < 0) {
      continue;
    }
    handle_ms.push_back(1e3 * call.handle_seconds);
    frame_bytes.push_back(static_cast<double>(call.response_frame.size()));
    const auto type = dp::dist::peek_type(call.request_frame).value();
    dp::service::GenerateRequest request;
    timed("request.decode", [&] {
      request = dp::dist::decode_generate_request(call.request_frame).value();
    });
    timed("request.encode",
          [&] { dp::dist::encode_generate_request(request, type); });
    const auto frames = dp::dist::split_frames(call.response_frame).value();
    for (const auto& frame : frames) {
      switch (dp::dist::peek_type(frame).value()) {
        case dp::dist::MessageType::kGenerateResult: {
          dp::service::GenerateResult result;
          timed("result.decode", [&] {
            result = dp::dist::decode_generate_result(frame).value();
          });
          timed("result.encode",
                [&] { dp::dist::encode_generate_result(result); });
          break;
        }
        case dp::dist::MessageType::kStreamedPattern: {
          dp::service::StreamedPattern slot;
          timed("streamed_pattern.decode", [&] {
            slot = dp::dist::decode_streamed_pattern(frame).value();
          });
          timed("streamed_pattern.encode",
                [&] { dp::dist::encode_streamed_pattern(slot); });
          break;
        }
        case dp::dist::MessageType::kStreamEnd: {
          dp::dist::StreamEnd end;
          timed("stream_end.decode", [&] {
            end = dp::dist::decode_stream_end(frame).value();
          });
          timed("stream_end.encode", [&] {
            dp::dist::encode_stream_end(end.status, end.stats);
          });
          break;
        }
        default:
          report.fail("unexpected response frame type");
      }
    }
  }
  for (const char* frame : {"request", "result", "streamed_pattern",
                            "stream_end"}) {
    const std::string f = frame;
    report.set("dist.encode_us." + f, median(us[f + ".encode"]), "us");
    report.set("dist.decode_us." + f, median(us[f + ".decode"]), "us");
  }
  report.set("dist.frame_bytes", median(frame_bytes), "B");
  report.set("dist.handle_ms", median(handle_ms), "ms");
}

}  // namespace

void replay_wire(const Loaded& loaded, const Threads& threads,
                 const std::vector<dp::service::GenerateRequest>& requests,
                 const std::vector<bool>& streamed, Report& report) {
  Stack stack;
  start_stack(stack, loaded, threads);
  std::vector<Outcome> outcomes(requests.size());
  {
    std::lock_guard<std::mutex> lock(stack.calls_mutex);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      stack.slot_of_seed[requests[i].seed] = static_cast<std::int64_t>(i);
    }
  }
  std::int64_t succeeded = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    Arrival arrival;
    arrival.request = requests[i];
    arrival.stream = streamed[i];
    auto& out = outcomes[i];
    out.times.sent = process_seconds();
    const auto status =
        route(stack, arrival, static_cast<std::int64_t>(i), out);
    out.times.done = process_seconds();
    out.ok = status.ok();
    succeeded += out.ok ? 1 : 0;
    if (!out.ok) {
      report.fail("routed replay: " + status.to_string());
    }
  }
  report.phase("wire_replay", static_cast<std::int64_t>(requests.size()),
               succeeded);
  set_wire_metrics(stack, outcomes, report);
}

void run_online_mixed(const Options& options, Report& report) {
  const auto threads = plan_threads(kSenders);
  print_env(options, threads, "quick");
  std::cout << "online_mixed: rate " << kRatePerS << "/s, slo "
            << kOnlineSloMs << " ms\n";
  Stack stack;
  std::vector<std::string> canaries;
  const double setup_s = timed_setups(options.trace ? 1 : kSetupRepeats, [&] {
    canaries.push_back(set_up(options, threads, stack));
  });
  report.phase("setup", static_cast<std::int64_t>(canaries.size()),
               static_cast<std::int64_t>(canaries.size()));
  if (std::adjacent_find(canaries.begin(), canaries.end(),
                         std::not_equal_to<>()) != canaries.end()) {
    report.fail("warm-up canary bytes differ between set-ups");
  }
  report.expect_digest(options, "online_mixed.canary", canaries.front());

  if (!options.trace) {
    // The open loop keeps the compute pool busy, so the training probe runs
    // on both sides of the window instead of beside it.
    TrainProbe probe(stack.loaded, dp::common::derive_seed(options.seed, 23));
    probe.run(kProbeSteps);
    const auto loop = open_loop(stack, options.seed, options.seconds,
                                threads.senders, report);
    probe.run(kProbeSteps);
    report.phase("measure", static_cast<std::int64_t>(loop.arrivals.size()),
                 loop.succeeded);
    const auto s = summarize(loop);
    Digest digest;
    for (const auto& o : loop.outcomes) {
      digest.i64(static_cast<std::int64_t>(patterns_digest(o.patterns)));
    }
    std::cout << "digest online_mixed.run (slot order) " << hex64(digest.value())
              << "\n";
    // Determinism across the wire: the first requests again, straight
    // into the worker's service.
    std::int64_t replayed = 0, matched = 0;
    for (std::size_t i = 0; i < loop.outcomes.size() && replayed < 3; ++i) {
      if (!loop.outcomes[i].ok) {
        continue;
      }
      ++replayed;
      auto direct = stack.node->service().generate(loop.arrivals[i].request);
      if (direct.ok() && patterns_digest(direct.value().patterns) ==
                             patterns_digest(loop.outcomes[i].patterns)) {
        ++matched;
      }
    }
    report.phase("replay", replayed, matched);
    if (matched != replayed) {
      report.fail("routed outputs differ from the worker's direct outputs");
    }
    const auto n = static_cast<std::int64_t>(s.ok_ms.size());
    std::cout << "latency: " << n << " samples, highest supported percentile p"
              << highest_supported_percentile(n) << "; generator lag p50 "
              << median(s.lag_ms) << " ms, max "
              << percentile(s.lag_ms, 100) << " ms\n";
    report.phase("train_probe", probe.steps(), probe.steps());
    report.set("setup_s", setup_s, "s");
    report.set("topologies_per_s", s.topologies / s.span_s, "1/s");
    report.set("legal_patterns_per_s", s.legal / s.span_s, "1/s");
    report.set("legal_fraction", s.legal / s.requested, "ratio");
    report.set("latency_p50_ms", percentile(s.ok_ms, 50), "ms");
    report.set("latency_p95_ms", percentile(s.ok_ms, 95), "ms");
    report.set("slo_attainment",
               static_cast<double>(s.within_slo) /
                   static_cast<double>(loop.arrivals.size()),
               "ratio");
    report.set("train_iters_per_s", probe.iterations_per_s(), "1/s");
    return;
  }

  auto& tracer = Tracer::instance();
  tracer.set_enabled(false);
  // Widths 1..16 each get an activation plan; record them before timing.
  const auto warm = open_loop(stack, options.seed + 1, 3.0, threads.senders,
                              report);
  report.phase("warm", static_cast<std::int64_t>(warm.arrivals.size()),
               warm.succeeded);
  const auto plain = open_loop(stack, options.seed, options.seconds / 3,
                               threads.senders, report);
  report.phase("untraced", static_cast<std::int64_t>(plain.arrivals.size()),
               plain.succeeded);
  tracer.set_enabled(true);
  auto& service = stack.node->service();
  const auto before = service.counters();
  const auto allocs_before = dp::tensor::tensor_alloc_stats().heap_allocations;
  LoopResult traced;
  {
    Span root("trace.root");
    traced = open_loop(stack, options.seed, options.seconds / 3,
                       threads.senders, report);
    const auto allocs = dp::tensor::tensor_alloc_stats().heap_allocations;
    const auto after = service.counters();
    const auto n = static_cast<double>(traced.arrivals.size());
    report.set("tensor.heap_allocs_per_request",
               static_cast<double>(allocs - allocs_before) / n, "count");
    const auto rounds = after.rounds_executed - before.rounds_executed;
    report.set("service.rounds_executed", static_cast<double>(rounds),
               "count");
    report.set("service.fused_fill_ratio",
               rounds > 0 ? static_cast<double>(after.fused_slots_total -
                                                before.fused_slots_total) /
                                static_cast<double>(rounds * kMaxFusedBatch)
                          : 0.0,
               "ratio");
    report.set("service.queue_depth_peak",
               static_cast<double>(after.queue_depth_peak), "count");
    report.set("service.admission_pending_peak",
               static_cast<double>(after.admission_pending_peak), "count");
    report.set("service.requests_shed",
               static_cast<double>(after.requests_shed - before.requests_shed),
               "count");
    report.set("service.stream_pauses",
               static_cast<double>(after.stream_pauses - before.stream_pauses),
               "count");
    report.set("tensor.arena_bytes_reserved",
               static_cast<double>(dp::tensor::arena_stats().bytes_reserved),
               "B");
    // Per-request subtractions, matched by request slot.
    std::map<std::int64_t, double> handle_s;
    {
      std::lock_guard<std::mutex> lock(stack.calls_mutex);
      for (const auto& call : stack.calls) {
        if (call.request >= 0) {
          handle_s[call.request] = call.handle_seconds;
        }
      }
    }
    std::vector<double> wait_ms;
    double evals = 0.0, topologies = 0.0;
    for (std::size_t i = 0; i < traced.outcomes.size(); ++i) {
      const auto& o = traced.outcomes[i];
      const auto h = handle_s.find(static_cast<std::int64_t>(i));
      if (!o.ok || h == handle_s.end()) {
        continue;
      }
      wait_ms.push_back(1e3 * service_wait(h->second, o.stats.sampling_seconds,
                                           o.stats.solving_seconds));
      evals += static_cast<double>(o.stats.net_evals);
      topologies += static_cast<double>(o.stats.topologies_admitted);
    }
    report.set("service.wait_ms", median(wait_ms), "ms");
    report.set("diffusion.net_evals_per_topology",
               topologies > 0 ? evals / topologies : 0.0, "count");
    set_wire_metrics(stack, traced.outcomes, report);
    replay_legalization(service, stack.loaded, 4, kGeometries,
                        traced.arrivals.front().request.seed, report);
    // One fused batch shaped like the first arrivals: their slots, each at
    // its request's stride.
    std::vector<std::int64_t> strides;
    for (const auto& a : traced.arrivals) {
      for (std::int64_t c = 0; c < a.request.count; ++c) {
        if (static_cast<std::int64_t>(strides.size()) < 8) {
          strides.push_back(a.request.sampling.stride);
        }
      }
    }
    replay_model_layers(stack.loaded, LayerShapes{.batch = 4, .strides = strides},
                        options.seed, report);
  }
  report.phase("traced", static_cast<std::int64_t>(traced.arrivals.size()),
               traced.succeeded);
  const auto s = summarize(traced);
  report.set("generator.lag_ms", median(s.lag_ms), "ms");
  report.set("generator.sent", static_cast<double>(traced.arrivals.size()),
             "count");
  report.set("generator.succeeded", static_cast<double>(traced.succeeded),
             "count");
  report.set("generator.failed",
             static_cast<double>(static_cast<std::int64_t>(
                                     traced.arrivals.size()) -
                                 traced.succeeded),
             "count");
  report.set("trace.overhead_pct",
             100.0 * (median(s.ok_ms) / median(summarize(plain).ok_ms) - 1),
             "%");
}

}  // namespace perfbench
