// Per-layer replays of the traced run: each layer's public functions called
// at the shapes the workload drives them with, one span per call.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <map>

#include "bench.h"
#include "common/rng.h"
#include "drc/checker.h"
#include "legalize/constraints.h"
#include "legalize/solver.h"
#include "nn/ops.h"
#include "nn/optim.h"
#include "stats.h"
#include "tensor/arena.h"
#include "tensor/tensor_ops.h"
#include "trace.h"

namespace perfbench {

namespace {

using dp::nn::Var;
using dp::tensor::Tensor;

constexpr int kReps = 5;

/// Median wall seconds of `reps` calls of `fn` after one warm-up call.
template <typename Fn>
double time_median(int reps, Fn&& fn) {
  fn();
  std::vector<double> seconds;
  for (int i = 0; i < reps; ++i) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    seconds.push_back(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count());
  }
  return median(seconds);
}

Tensor random_tensor(dp::tensor::Shape shape, dp::common::Rng& rng) {
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.normal());
  }
  return t;
}

// The U-Net's op shapes, read off its parameter registry: every conv,
// group norm and attention block, with the spatial side it runs at.
struct ConvOp {
  Var weight;
  Var bias;
  std::int64_t in_channels = 0;
  std::int64_t kernel = 1;
  std::int64_t stride = 1;
  std::int64_t side = 1;
};
struct NormOp {
  Var gamma;
  Var beta;
  std::int64_t channels = 0;
  std::int64_t side = 1;
  bool then_silu = true;
};
struct AttentionOp {
  std::int64_t channels = 0;
  std::int64_t side = 1;
};
struct Inventory {
  std::vector<ConvOp> convs;
  std::vector<NormOp> norms;
  std::vector<AttentionOp> attentions;
  std::map<std::string, Var> params;
};

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}
bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Spatial side a parameter's op runs at, from its hierarchical name
/// (down.L.* / up.L.* at side M >> L, mid.* at the deepest level, the
/// up-level resample conv after its 2x upsampling).
std::int64_t side_for(const std::string& name, std::int64_t m,
                      std::int64_t levels) {
  const auto level_of = [&](std::size_t at) {
    return static_cast<std::int64_t>(std::stoll(name.substr(at)));
  };
  if (starts_with(name, "down.")) {
    return m >> level_of(5);
  }
  if (starts_with(name, "up.")) {
    const auto level = level_of(3);
    return name.find(".upsample") != std::string::npos ? m >> (level - 1)
                                                       : m >> level;
  }
  if (starts_with(name, "mid.")) {
    return m >> (levels - 1);
  }
  return m;
}

Inventory inventory(dp::unet::UNet& model, std::int64_t m) {
  Inventory inv;
  const auto& reg = model.registry();
  for (std::size_t i = 0; i < reg.size(); ++i) {
    inv.params[reg.names()[i]] = reg.params()[i];
  }
  const auto levels = model.config().levels();
  for (const auto& [name, var] : inv.params) {
    if (ends_with(name, ".weight") && var.value().rank() == 4) {
      const auto base = name.substr(0, name.size() - 7);
      ConvOp op;
      op.weight = var;
      op.bias = inv.params.at(base + ".bias");
      op.in_channels = var.dim(1);
      op.kernel = var.dim(2);
      op.stride = ends_with(base, ".downsample") ? 2 : 1;
      op.side = side_for(name, m, levels);
      inv.convs.push_back(op);
      if (ends_with(base, ".attn.qkv")) {
        inv.attentions.push_back({var.dim(0) / 3, op.side});
      }
    } else if (ends_with(name, ".gamma")) {
      const auto base = name.substr(0, name.size() - 6);
      NormOp op;
      op.gamma = var;
      op.beta = inv.params.at(base + ".beta");
      op.channels = var.dim(0);
      op.side = side_for(name, m, levels);
      op.then_silu = !ends_with(base, ".attn.norm");
      inv.norms.push_back(op);
    }
  }
  return inv;
}

dp::tensor::Conv2dGeometry geometry_of(const ConvOp& op) {
  return dp::tensor::Conv2dGeometry{.in_channels = op.in_channels,
                                    .in_h = op.side,
                                    .in_w = op.side,
                                    .kernel_h = op.kernel,
                                    .kernel_w = op.kernel,
                                    .stride = op.stride,
                                    .padding = op.kernel / 2};
}

double forward_ms(dp::unet::UNet& model, std::int64_t batch, std::int64_t m,
                  dp::common::Rng& rng) {
  const auto x = random_tensor({batch, model.config().in_channels, m, m}, rng);
  std::vector<std::int64_t> k(static_cast<std::size_t>(batch), 20);
  dp::nn::NoGradGuard no_grad;
  // The sampler's inference path: activations from the model's plan for
  // this batch shape.
  return 1e3 * time_median(kReps, [&] {
           Span span("unet.forward");
           const dp::tensor::ArenaScope arena(model.plan_cache(), x.shape());
           model.forward(x, k, false, rng);
         });
}

void replay_nn(Inventory& inv, const dp::unet::UNet& model, std::int64_t batch,
               dp::common::Rng& rng, Report& report) {
  dp::nn::NoGradGuard no_grad;
  double conv = 0.0, im2col = 0.0, gemm = 0.0, flops = 0.0, bytes = 0.0;
  for (const auto& op : inv.convs) {
    const auto x =
        random_tensor({batch, op.in_channels, op.side, op.side}, rng);
    const Var xv(x);
    conv += time_median(kReps, [&] {
      Span span("nn.conv2d");
      dp::nn::conv2d(xv, op.weight, op.bias, op.stride, op.kernel / 2);
    });
    const auto geom = geometry_of(op);
    Tensor cols;
    im2col += time_median(kReps, [&] {
      Span span("tensor.im2col");
      cols = dp::tensor::im2col_batch(x, geom);
    });
    const auto out_channels = op.weight.dim(0);
    const auto w = op.weight.value().reshaped({out_channels, -1});
    gemm += time_median(kReps, [&] {
      Span span("tensor.gemm");
      dp::tensor::matmul(w, cols);
    });
    const double mm = static_cast<double>(out_channels);
    const double kk = static_cast<double>(cols.dim(0));
    const double nn = static_cast<double>(cols.dim(1));
    flops += 2.0 * mm * kk * nn;
    bytes += 4.0 * (mm * kk + kk * nn + mm * nn);
  }
  double norm = 0.0, silu = 0.0;
  for (const auto& op : inv.norms) {
    const Var x(random_tensor({batch, op.channels, op.side, op.side}, rng));
    const auto groups = dp::nn::pick_group_count(op.channels);
    norm += time_median(kReps, [&] {
      Span span("nn.group_norm");
      dp::nn::group_norm(x, op.gamma, op.beta, groups);
    });
    if (op.then_silu) {
      silu += time_median(kReps, [&] {
        Span span("nn.silu");
        dp::nn::silu(x);
      });
    }
  }
  double attention = 0.0;
  for (const auto& op : inv.attentions) {
    const auto tokens = op.side * op.side;
    const Var q(random_tensor({batch, op.channels, tokens}, rng));
    const Var k(random_tensor({batch, op.channels, tokens}, rng));
    const Var v(random_tensor({batch, op.channels, tokens}, rng));
    const float scale = 1.0F / std::sqrt(static_cast<float>(op.channels));
    attention += time_median(kReps, [&] {
      Span span("nn.attention");
      const Var scores = dp::nn::scale(
          dp::nn::bmm(dp::nn::permute(q, {0, 2, 1}), k), scale);
      const Var attn = dp::nn::softmax_last(scores);
      dp::nn::bmm(v, dp::nn::permute(attn, {0, 2, 1}));
    });
  }
  const auto mc = model.config().model_channels;
  std::vector<std::int64_t> steps(static_cast<std::size_t>(batch));
  for (std::size_t i = 0; i < steps.size(); ++i) {
    steps[i] = static_cast<std::int64_t>(1 + i % 40);
  }
  const double time_embed = time_median(kReps, [&] {
    Span span("nn.time_embed");
    Var t(dp::unet::sinusoidal_time_embedding(steps, mc));
    t = dp::nn::linear(t, inv.params.at("time.fc1.weight"),
                       inv.params.at("time.fc1.bias"));
    t = dp::nn::silu(t);
    dp::nn::linear(t, inv.params.at("time.fc2.weight"),
                   inv.params.at("time.fc2.bias"));
  });
  report.set("tensor.gemm_gflops", flops / gemm / 1e9, "GFLOP/s");
  report.set("tensor.im2col_ms", 1e3 * im2col, "ms");
  report.set("tensor.gemm_bytes_moved", bytes, "B-computed");
  report.set("nn.conv2d_ms", 1e3 * conv, "ms");
  report.set("nn.attention_ms", 1e3 * attention, "ms");
  report.set("nn.group_norm_ms", 1e3 * norm, "ms");
  report.set("nn.silu_ms", 1e3 * silu, "ms");
  report.set("nn.time_embed_ms", 1e3 * time_embed, "ms");
}

/// Backward-direction replays on a scratch U-Net (its weights move).
void replay_training(const Loaded& loaded, std::int64_t m,
                     dp::common::Rng& rng, Report& report) {
  const auto cfg = model_config();
  dp::unet::UNet scratch(cfg.unet_config(), 7);
  auto inv = inventory(scratch, m);
  double conv_backward = 0.0;
  for (const auto& op : inv.convs) {
    const Var x(random_tensor({kTrainBatch, op.in_channels, op.side, op.side},
                              rng),
                true);
    // Only the backward pass is timed; the graph is built untimed.
    std::vector<double> seconds;
    for (int rep = 0; rep <= kReps; ++rep) {
      const Var loss = dp::nn::sum_all(
          dp::nn::conv2d(x, op.weight, op.bias, op.stride, op.kernel / 2));
      Span span("nn.conv2d_backward");
      loss.backward();
      if (rep > 0) {
        seconds.push_back(span.elapsed());
      }
    }
    conv_backward += median(seconds);
  }
  const auto x0 = loaded.dataset.sample_training_batch(kTrainBatch, rng);
  const double forward_backward = time_median(kReps, [&] {
    Span span("unet.forward_backward");
    auto loss = dp::diffusion::diffusion_loss(scratch, *loaded.schedule, x0,
                                              {}, rng);
    loss.loss.backward();
  });
  dp::nn::Adam adam(scratch.registry().params(), adam_config());
  const double adam_step = time_median(kReps, [&] {
    Span span("nn.adam_step");
    adam.step();
  });
  adam.zero_grad();
  dp::diffusion::DiffusionTrainer trainer(scratch, *loaded.schedule, {},
                                          adam_config());
  const double train_step = time_median(kReps, [&] {
    Span span("diffusion.train_step");
    trainer.step(x0, rng);
  });
  report.set("nn.conv2d_backward_ms", 1e3 * conv_backward, "ms");
  report.set("nn.adam_step_ms", 1e3 * adam_step, "ms");
  report.set("unet.forward_backward_ms.b8", 1e3 * forward_backward, "ms");
  report.set("diffusion.train_step_ms", 1e3 * train_step, "ms");
}

}  // namespace

void replay_model_layers(Loaded& loaded, const LayerShapes& shapes,
                         std::uint64_t seed, Report& report) {
  dp::common::Rng rng(seed);
  auto& model = *loaded.model;
  const auto m = model_config().folded_side().value();
  auto inv = inventory(model, m);
  replay_nn(inv, model, shapes.batch, rng, report);
  for (const auto batch : {1, 4, 16}) {
    report.set("unet.forward_ms.b" + std::to_string(batch),
               forward_ms(model, batch, m, rng), "ms");
  }
  replay_training(loaded, m, rng, report);

  // One fused strided sampling batch of the workload's shape; the round
  // hook timestamps every round, bucketed by its active width.
  std::vector<dp::common::Rng> streams;
  for (std::size_t i = 0; i < shapes.strides.size(); ++i) {
    streams.emplace_back(dp::common::derive_seed(seed, 41, i));
  }
  std::vector<dp::common::Rng*> stream_ptrs;
  for (auto& s : streams) {
    stream_ptrs.push_back(&s);
  }
  std::vector<std::pair<std::int64_t, double>> rounds;  // (width, seconds)
  {
    Span span("diffusion.sample_streams_strided");
    double last = Tracer::instance().now();
    dp::diffusion::sample_streams_strided(
        model, *loaded.schedule, m, m, {}, stream_ptrs, shapes.strides,
        [&](std::int64_t, std::int64_t width) {
          const double now = Tracer::instance().now();
          rounds.emplace_back(width, now - last);
          last = now;
        });
  }
  std::map<std::int64_t, double> forward_at;  // width -> forward seconds
  std::map<std::string, std::vector<double>> buckets;
  double round_total = 0.0, forward_total = 0.0;
  for (const auto& [width, seconds] : rounds) {
    if (forward_at.count(width) == 0) {
      forward_at[width] = forward_ms(model, width, m, rng) / 1e3;
    }
    round_total += seconds;
    forward_total += forward_at[width];
    const char* bucket = width == 1   ? "diffusion.round_ms.w1"
                         : width <= 4 ? "diffusion.round_ms.w2_4"
                                      : "diffusion.round_ms.w5_16";
    buckets[bucket].push_back(1e3 * seconds);
  }
  for (const char* bucket : {"diffusion.round_ms.w1", "diffusion.round_ms.w2_4",
                             "diffusion.round_ms.w5_16"}) {
    report.set(bucket, median(buckets[bucket]), "ms");
  }
  const double unet_share = round_total > 0 ? forward_total / round_total : 0;
  report.set("trace.unet_share", unet_share, "ratio");
  std::cout << "attribution: unet share of sampling " << unet_share
            << " over " << rounds.size()
            << " rounds (ROADMAP baseline: about 0.96)\n";
}

void replay_legalization(dp::service::PatternService& service,
                         const Loaded& loaded, std::int64_t count,
                         std::int64_t geometries, std::uint64_t seed,
                         Report& report) {
  dp::service::SampleTopologiesRequest request;
  request.model = kModel;
  request.count = count;
  request.seed = seed;
  std::vector<dp::geometry::BinaryGrid> topologies;
  {
    Span span("service.sample_topologies");
    auto result = service.sample_topologies(request);
    if (!result.ok()) {
      report.fail("sample_topologies: " + result.status().to_string());
      return;
    }
    topologies = std::move(result).value().topologies;
  }
  const auto cfg = model_config();
  std::vector<double> prefilter_us, solve_us, check_us;
  std::int64_t passed = 0, solved = 0;
  for (std::size_t i = 0; i < topologies.size(); ++i) {
    const auto rules = service.rule_set(deck_for(static_cast<std::int64_t>(i)))
                           .value();
    dp::legalize::PrefilterVerdict verdict;
    {
      Span span("legalize.prefilter");
      verdict = dp::legalize::prefilter_topology(topologies[i]);
      prefilter_us.push_back(1e6 * span.elapsed());
    }
    if (verdict != dp::legalize::PrefilterVerdict::ok) {
      continue;
    }
    ++passed;
    dp::common::Rng rng(dp::common::derive_seed(seed, 43, i));
    std::vector<dp::layout::SquishPattern> patterns;
    {
      Span span("legalize.solve");
      patterns = dp::legalize::legalize_topology_many(
          topologies[i], rules, cfg.tile, cfg.tile, cfg.solver, geometries,
          rng, &loaded.dataset.library);
      solve_us.push_back(1e6 * span.elapsed());
    }
    solved += patterns.empty() ? 0 : 1;
    for (const auto& pattern : patterns) {
      Span span("drc.check");
      if (!dp::drc::check_pattern(pattern, rules).clean()) {
        report.fail("legalize_topology_many returned a pattern that fails "
                    "DRC");
      }
      check_us.push_back(1e6 * span.elapsed());
    }
  }
  const auto n = static_cast<double>(topologies.size());
  report.set("legalize.prefilter_us", median(prefilter_us), "us");
  report.set("legalize.solve_us", median(solve_us), "us");
  report.set("legalize.prefilter_pass_rate", n > 0 ? passed / n : 0.0,
             "ratio");
  report.set("legalize.solver_success_rate",
             passed > 0 ? static_cast<double>(solved) / passed : 0.0, "ratio");
  report.set("drc.check_us", median(check_us), "us");
}

}  // namespace perfbench
