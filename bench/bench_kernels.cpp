// Kernel microbench, two parts.
//
// 1. Dispatch: the runtime-dispatched SIMD backend vs forced-scalar
//    dispatch, and the parallel pool vs single-thread execution, on a GEMM,
//    a batch-wide convolution and a row softmax. Each kernel verifies the
//    backend-parity contract (forced-scalar and vector dispatch produce
//    bitwise-identical results) and checks the dispatched result against
//    the retained naive reference within a small ULP/absolute envelope (the
//    references round mul and add separately; the canonical kernels fuse).
// 2. U-Net conv shapes: the sampler's convolutions at fused batch 16, one
//    thread, best backend. The old path is the layer as it was built before
//    the implicit GEMM: unroll the column matrix (im2col_batch), one matmul
//    over it, scatter to NCHW with the bias. The new path is the layer
//    itself (nn::conv2d at inference). The bitwise gate requires the two
//    outputs to be equal byte for byte.
//
// Every timing is a sample of kReps repeats reported as median, min and
// interquartile spread. Results land in bench_out/BENCH_kernels.json with
// the thread count, backend and git describe; on a host with no vector
// backend the "simd" rows repeat the scalar backend. The exit code gates
// only on correctness.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/compute_pool.h"
#include "common/float_compare.h"
#include "common/rng.h"
#include "common/timer.h"
#include "nn/autograd.h"
#include "nn/ops.h"
#include "tensor/simd.h"
#include "tensor/tensor_ops.h"

namespace dp = diffpattern;
using dp::tensor::KernelBackend;
using dp::tensor::Tensor;

namespace {

Tensor random_tensor(dp::tensor::Shape shape, dp::common::Rng& rng) {
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.normal());
  }
  return t;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

/// Fused-vs-split rounding envelope against the naive reference. The drift
/// grows with the accumulation length, so the envelope scales with the
/// inner dimension `k` (test_simd_kernels.cpp owns the tight small-k
/// bounds; this gate catches real kernel bugs, which land orders of
/// magnitude outside it).
bool ulp_close(const Tensor& a, const Tensor& b, std::int64_t k) {
  const std::int64_t max_ulp = 4 * k;
  const float atol = 4e-7F * static_cast<float>(k);
  if (!a.same_shape(b)) {
    return false;
  }
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    if (dp::common::ulp_distance(a[i], b[i]) > max_ulp &&
        std::abs(a[i] - b[i]) > atol) {
      return false;
    }
  }
  return true;
}

constexpr int kReps = 7;

/// Timing sample over kReps repeats, in milliseconds per call.
struct Sample {
  double median_ms = 0.0;
  double min_ms = 0.0;
  double iqr_ms = 0.0;
};

Sample summarize(std::vector<double> ms) {
  std::sort(ms.begin(), ms.end());
  const auto at = [&](double q) {
    return ms[static_cast<std::size_t>(q * static_cast<double>(ms.size() - 1) +
                                       0.5)];
  };
  return {at(0.5), ms.front(), at(0.75) - at(0.25)};
}

/// Milliseconds per call of `fn` averaged over `calls` back-to-back calls.
template <typename Fn>
double time_ms(int calls, Fn&& fn) {
  dp::common::Timer timer;
  for (int c = 0; c < calls; ++c) {
    fn();
  }
  return timer.seconds() * 1000.0 / calls;
}

template <typename Fn>
Sample sample_ms(Fn&& fn) {
  std::vector<double> ms;
  for (int r = 0; r < kReps; ++r) {
    ms.push_back(time_ms(1, fn));
  }
  return summarize(std::move(ms));
}

void set_threads_or_die(std::int64_t threads) {
  if (!dp::common::set_global_compute_threads(threads).ok()) {
    std::cerr << "[bench] failed to size compute pool to " << threads << "\n";
    std::abort();
  }
}

void set_backend_or_die(KernelBackend backend) {
  const auto status = dp::tensor::set_kernel_backend(backend);
  if (!status.ok()) {
    std::cerr << "[bench] " << status.to_string() << "\n";
    std::abort();
  }
}

/// Per-kernel measurement: times under forced-scalar and best-backend
/// dispatch at 1 thread, plus best-backend at the ambient pool size, and
/// verifies bitwise backend parity + reference agreement.
struct KernelReport {
  Sample scalar_1t;
  Sample simd_1t;
  Sample simd_nt;
  bool parity_ok = false;
  bool reference_ok = false;

  double simd_speedup() const {
    return simd_1t.median_ms > 0.0 ? scalar_1t.median_ms / simd_1t.median_ms
                                   : 0.0;
  }
};

template <typename Run>
KernelReport measure(KernelBackend best, std::int64_t ambient,
                     const Tensor& reference, std::int64_t inner_dim,
                     Run&& run) {
  KernelReport report;
  set_threads_or_die(1);
  set_backend_or_die(KernelBackend::kScalar);
  const Tensor scalar_out = run();
  report.scalar_1t = sample_ms([&] { run(); });
  set_backend_or_die(best);
  const Tensor simd_out = run();
  report.simd_1t = sample_ms([&] { run(); });
  set_threads_or_die(ambient);
  const Tensor threaded_out = run();
  report.simd_nt = sample_ms([&] { run(); });
  report.parity_ok =
      bitwise_equal(scalar_out, simd_out) && bitwise_equal(simd_out, threaded_out);
  report.reference_ok = ulp_close(simd_out, reference, inner_dim);
  return report;
}

/// One convolution of the U-Net sampler (fused batch 16).
struct UnetConv {
  const char* label;
  std::int64_t side;
  std::int64_t in_channels;
  std::int64_t out_channels;
  std::int64_t kernel;
};

struct UnetConvReport {
  Sample old_path;
  Sample new_path;
  bool bitwise_ok = false;
};

/// Old path (im2col_batch + matmul + scatter) vs new path (nn::conv2d) at
/// one thread, alternating per repeat; each repeat averages kCalls calls.
UnetConvReport measure_unet_conv(const UnetConv& shape,
                                 dp::common::Rng& rng) {
  constexpr std::int64_t kBatch = 16;
  constexpr int kCalls = 20;
  const Tensor x =
      random_tensor({kBatch, shape.in_channels, shape.side, shape.side}, rng);
  const Tensor w = random_tensor(
      {shape.out_channels, shape.in_channels, shape.kernel, shape.kernel}, rng);
  const Tensor b = random_tensor({shape.out_channels}, rng);
  dp::tensor::Conv2dGeometry geom;
  geom.in_channels = shape.in_channels;
  geom.in_h = shape.side;
  geom.in_w = shape.side;
  geom.kernel_h = shape.kernel;
  geom.kernel_w = shape.kernel;
  geom.padding = shape.kernel / 2;
  const Tensor w2d = w.reshaped({shape.out_channels, geom.patch_size()});
  const dp::nn::Var xv(x);
  const dp::nn::Var wv(w);
  const dp::nn::Var bv(b);
  const auto n_out = shape.side * shape.side;
  const auto& kern = dp::tensor::simd::active();
  // The layer as it was: unroll, GEMM, then scatter to NCHW with the bias.
  const auto old_path = [&] {
    const Tensor y =
        dp::tensor::matmul(w2d, dp::tensor::im2col_batch(x, geom));
    Tensor out({kBatch, shape.out_channels, shape.side, shape.side});
    for (std::int64_t n = 0; n < kBatch; ++n) {
      for (std::int64_t o = 0; o < shape.out_channels; ++o) {
        kern.shift(out.data() + (n * shape.out_channels + o) * n_out,
                   y.data() + (o * kBatch + n) * n_out, b[o], n_out);
      }
    }
    return out;
  };
  const auto new_path = [&] {
    return dp::nn::conv2d(xv, wv, bv, /*stride=*/1, geom.padding).value();
  };

  UnetConvReport report;
  report.bitwise_ok = bitwise_equal(old_path(), new_path());
  std::vector<double> old_ms;
  std::vector<double> new_ms;
  for (int r = 0; r < kReps; ++r) {
    old_ms.push_back(time_ms(kCalls, old_path));
    new_ms.push_back(time_ms(kCalls, new_path));
  }
  report.old_path = summarize(std::move(old_ms));
  report.new_path = summarize(std::move(new_ms));
  return report;
}

void add_sample(std::vector<std::pair<std::string, double>>& metrics,
                const std::string& key, const Sample& sample) {
  metrics.emplace_back(key + "_median_ms", sample.median_ms);
  metrics.emplace_back(key + "_min_ms", sample.min_ms);
  metrics.emplace_back(key + "_iqr_ms", sample.iqr_ms);
}

}  // namespace

int main() {
  dp::bench::print_header(
      "Kernel microbench: SIMD dispatch vs scalar, parallel vs single thread, "
      "U-Net conv paths");
  const auto ambient = dp::common::default_thread_count();
  const auto best = dp::tensor::detected_kernel_backend();
  std::cout << "ambient compute pool: " << ambient << " thread(s)\n"
            << "detected kernel backend: "
            << dp::tensor::kernel_backend_label(best) << "\n"
            << "repeats per timing: " << kReps << "\n";
  dp::common::Rng rng(2023);

  // ---- GEMM: C[256,512] = A[256,384] * B[384,512] -------------------------
  const Tensor a = random_tensor({256, 384}, rng);
  const Tensor b = random_tensor({384, 512}, rng);
  const auto mm = measure(best, ambient, dp::tensor::reference::matmul(a, b),
                          /*inner_dim=*/384,
                          [&] { return dp::tensor::matmul(a, b); });

  // ---- conv2d forward: [16,16,32,32] * [32,16,3,3], stride 1, pad 1 -------
  // Run under NoGradGuard — the sample_streams configuration. The reference
  // composes the retained per-sample kernels.
  dp::nn::NoGradGuard no_grad;
  const Tensor cx = random_tensor({16, 16, 32, 32}, rng);
  const Tensor cw = random_tensor({32, 16, 3, 3}, rng);
  const Tensor cb = random_tensor({32}, rng);
  dp::tensor::Conv2dGeometry geom;
  geom.in_channels = 16;
  geom.in_h = 32;
  geom.in_w = 32;
  geom.kernel_h = 3;
  geom.kernel_w = 3;
  geom.stride = 1;
  geom.padding = 1;
  const auto n_out = geom.out_h() * geom.out_w();
  Tensor conv_ref({16, 32, geom.out_h(), geom.out_w()});
  const Tensor w2d = cw.reshaped({32, geom.patch_size()});
  for (std::int64_t n = 0; n < 16; ++n) {
    Tensor image({16, 32, 32});
    std::copy(cx.data() + n * image.numel(),
              cx.data() + (n + 1) * image.numel(), image.data());
    const Tensor y =
        dp::tensor::reference::matmul(w2d, dp::tensor::im2col(image, geom));
    for (std::int64_t o = 0; o < 32; ++o) {
      for (std::int64_t p = 0; p < n_out; ++p) {
        conv_ref[(n * 32 + o) * n_out + p] = y[o * n_out + p] + cb[o];
      }
    }
  }
  const auto conv = measure(best, ambient, conv_ref,
                            /*inner_dim=*/geom.patch_size(), [&] {
    return dp::nn::conv2d(dp::nn::Var(cx), dp::nn::Var(cw), dp::nn::Var(cb),
                          /*stride=*/1, /*padding=*/1)
        .value();
  });

  // ---- softmax over [4096, 256] rows --------------------------------------
  const Tensor logits = random_tensor({4096, 256}, rng);
  const auto sm = measure(best, ambient,
                          dp::tensor::reference::softmax_rows(logits),
                          /*inner_dim=*/256,
                          [&] { return dp::tensor::softmax_rows(logits); });

  // ---- U-Net conv shapes: old path vs new path, 1 thread ------------------
  set_backend_or_die(best);
  set_threads_or_die(1);
  const UnetConv unet_convs[] = {
      {"conv_8x8_c16_o16", 8, 16, 16, 3},  {"conv_8x8_c32_o16", 8, 32, 16, 3},
      {"conv_8x8_c48_o16", 8, 48, 16, 3},  {"conv_4x4_c32_o32", 4, 32, 32, 3},
      {"conv_4x4_c48_o32", 4, 48, 32, 3},  {"qkv_4x4_c32_o96", 4, 32, 96, 1},
  };
  std::vector<std::pair<std::string, double>> unet_metrics;
  bool unet_ok = true;
  double old_total = 0.0;
  double new_total = 0.0;
  std::cout << "U-Net conv shapes, batch 16, 1 thread (median ms, min, iqr):\n";
  for (const auto& shape : unet_convs) {
    const auto r = measure_unet_conv(shape, rng);
    unet_ok = unet_ok && r.bitwise_ok;
    old_total += r.old_path.median_ms;
    new_total += r.new_path.median_ms;
    const std::string key = std::string("unet_") + shape.label;
    add_sample(unet_metrics, key + "_old", r.old_path);
    add_sample(unet_metrics, key + "_new", r.new_path);
    unet_metrics.emplace_back(key + "_speedup",
                              r.old_path.median_ms / r.new_path.median_ms);
    std::cout << "  " << shape.label << ": old " << r.old_path.median_ms
              << " (" << r.old_path.min_ms << ", " << r.old_path.iqr_ms
              << ") -> new " << r.new_path.median_ms << " ("
              << r.new_path.min_ms << ", " << r.new_path.iqr_ms << ")  x"
              << r.old_path.median_ms / r.new_path.median_ms
              << (r.bitwise_ok ? "" : "  [BYTES DIFFER]") << "\n";
  }
  unet_metrics.emplace_back("unet_conv_total_old_median_ms", old_total);
  unet_metrics.emplace_back("unet_conv_total_new_median_ms", new_total);
  unet_metrics.emplace_back("unet_conv_threads", 1.0);
  unet_metrics.emplace_back("unet_conv_bitwise_gate", unet_ok ? 1.0 : 0.0);

  // Restore ambient sizing for any code running after us.
  set_threads_or_die(ambient);

  const bool all_ok = mm.parity_ok && mm.reference_ok && conv.parity_ok &&
                      conv.reference_ok && sm.parity_ok && sm.reference_ok &&
                      unet_ok;
  const auto row = [](const char* name, const KernelReport& r) {
    std::cout << name << "  scalar " << r.scalar_1t.median_ms
              << " ms -> simd " << r.simd_1t.median_ms << " ms (x"
              << r.simd_speedup() << "), threaded " << r.simd_nt.median_ms
              << " ms" << (r.parity_ok ? "" : "  [PARITY BROKEN]")
              << (r.reference_ok ? "" : "  [REFERENCE DRIFT]") << "\n";
  };
  row("matmul  256x384x512: ", mm);
  row("conv2d  16x16x32x32: ", conv);
  row("softmax 4096x256:    ", sm);
  std::cout << "backend parity (scalar == "
            << dp::tensor::kernel_backend_label(best)
            << ", bitwise), reference agreement and U-Net conv byte gate: "
            << (all_ok ? "yes" : "NO") << "\n";

  std::vector<std::pair<std::string, double>> metrics = {
      {"backend_is_vector", best == KernelBackend::kScalar ? 0.0 : 1.0},
      {"repeats", kReps}};
  for (const auto& [name, r] : {std::pair{"matmul", mm}, std::pair{"conv2d", conv},
                                std::pair{"softmax", sm}}) {
    const std::string key = name;
    add_sample(metrics, key + "_scalar_1_thread", r.scalar_1t);
    add_sample(metrics, key + "_simd_1_thread", r.simd_1t);
    add_sample(metrics, key + "_simd_n_threads", r.simd_nt);
    metrics.emplace_back(key + "_simd_speedup", r.simd_speedup());
  }
  metrics.insert(metrics.end(), unet_metrics.begin(), unet_metrics.end());
  metrics.emplace_back("bitwise_backend_parity", all_ok ? 1.0 : 0.0);
  dp::bench::write_bench_json("kernels", metrics);
  return all_ok ? 0 : 1;
}
