// Parallel compute backend tests: ComputePool semantics, thread-count
// resolution (0 is INVALID_ARGUMENT, auto falls back sanely), and the
// blocked/parallel kernels' determinism contract — bitwise-identical output
// at every pool size, and agreement with the retained naive references
// within a tight ULP bound (the dispatched kernels accumulate with fused
// multiply-adds, the references with separate mul/add roundings; see
// tensor/simd.h and tests/test_simd_kernels.cpp for the backend-parity
// half of the contract).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <vector>

#include "common/compute_pool.h"
#include "common/rng.h"
#include "nn/autograd.h"
#include "nn/ops.h"
#include "service/worker_pool.h"
#include "tensor/tensor_ops.h"
#include "ulp_test_util.h"

namespace dc = diffpattern::common;
namespace dt = diffpattern::tensor;
namespace dn = diffpattern::nn;
using dt::Tensor;

namespace {

/// Restores the ambient pool size when a test that resizes it finishes, so
/// test order never matters.
class ThreadsGuard {
 public:
  ThreadsGuard() = default;
  ~ThreadsGuard() {
    EXPECT_TRUE(dc::set_global_compute_threads(-1).ok());
  }
};

Tensor random_tensor(dt::Shape shape, dc::Rng& rng) {
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.normal());
  }
  return t;
}

::testing::AssertionResult bitwise_equal(const Tensor& a, const Tensor& b) {
  if (!a.same_shape(b)) {
    return ::testing::AssertionFailure()
           << "shape mismatch " << a.shape_string() << " vs "
           << b.shape_string();
  }
  if (std::memcmp(a.data(), b.data(),
                  static_cast<std::size_t>(a.numel()) * sizeof(float)) != 0) {
    return ::testing::AssertionFailure() << "tensors differ bitwise";
  }
  return ::testing::AssertionSuccess();
}

const std::int64_t kPoolSizes[] = {1, 2, 8};

/// Reference-agreement bound for the fused-vs-split rounding drift (see
/// tests/test_simd_kernels.cpp, which owns the tighter per-kernel checks).
constexpr std::int64_t kUlpBound = 128;
/// Absolute escape for accumulations cancelling towards zero (huge ULP
/// distance on a tiny result, same absolute drift).
constexpr float kUlpAtol = 1e-5F;

}  // namespace

TEST(ComputePool, ResolveRejectsZeroWithInvalidArgument) {
  const auto resolved = dc::resolve_thread_count(0);
  ASSERT_FALSE(resolved.ok());
  EXPECT_EQ(resolved.status().code(), dc::StatusCode::kInvalidArgument);
}

TEST(ComputePool, ResolveTakesPositiveVerbatimAndAutoFallsBack) {
  const auto explicit_n = dc::resolve_thread_count(5);
  ASSERT_TRUE(explicit_n.ok());
  EXPECT_EQ(*explicit_n, 5);
  const auto auto_n = dc::resolve_thread_count(-1);
  ASSERT_TRUE(auto_n.ok());
  EXPECT_GE(*auto_n, 1);  // >= 1 even when hardware_concurrency() is 0.
  EXPECT_GE(dc::hardware_thread_count(), 1);
}

TEST(ComputePool, ResolveRejectsAbsurdCountsBeforeSpawningThreads) {
  const auto resolved = dc::resolve_thread_count(dc::kMaxComputeThreads + 1);
  ASSERT_FALSE(resolved.ok());
  EXPECT_EQ(resolved.status().code(), dc::StatusCode::kInvalidArgument);
  const auto at_limit = dc::resolve_thread_count(dc::kMaxComputeThreads);
  ASSERT_TRUE(at_limit.ok());
  EXPECT_EQ(*at_limit, dc::kMaxComputeThreads);
}

TEST(ComputePool, SetGlobalThreadsRejectsZero) {
  const auto status = dc::set_global_compute_threads(0);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), dc::StatusCode::kInvalidArgument);
  EXPECT_GE(dc::global_compute_threads(), 1);  // Pool untouched and usable.
}

TEST(ComputePool, ParallelForCoversEveryIndexExactlyOnce) {
  for (const auto threads : kPoolSizes) {
    dc::ComputePool pool(threads);
    constexpr std::int64_t kN = 10'007;  // Prime: uneven chunking.
    std::vector<std::atomic<int>> hits(kN);
    pool.parallel_for(0, kN, /*grain=*/16,
                      [&](std::int64_t b, std::int64_t e) {
                        for (std::int64_t i = b; i < e; ++i) {
                          hits[static_cast<std::size_t>(i)]++;
                        }
                      });
    for (std::int64_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "i=" << i;
    }
  }
}

TEST(ComputePool, NestedParallelForRunsInlineWithoutDeadlock) {
  dc::ComputePool pool(4);
  std::atomic<std::int64_t> total{0};
  pool.parallel_for(0, 8, 1, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      pool.parallel_for(0, 100, 1, [&](std::int64_t ib, std::int64_t ie) {
        total += ie - ib;
      });
    }
  });
  EXPECT_EQ(total.load(), 800);
}

TEST(ComputePool, EmptyRangeIsANoOp) {
  dc::ComputePool pool(2);
  bool ran = false;
  pool.parallel_for(5, 5, 1, [&](std::int64_t, std::int64_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ServiceWorkerPool, DefaultSizeIsAtLeastOne) {
  EXPECT_GE(diffpattern::service::WorkerPool::default_size(), 1);
}

TEST(ParallelKernels, MatmulFamilyBitwiseEqualAcrossPoolSizes) {
  ThreadsGuard guard;
  dc::Rng rng(11);
  // Odd sizes defeat any chunking alignment; include zeros so the sparse
  // skip path is exercised identically.
  Tensor a = random_tensor({65, 47}, rng);
  Tensor b = random_tensor({47, 83}, rng);
  for (std::int64_t i = 0; i < a.numel(); i += 7) {
    a[i] = 0.0F;
  }
  Tensor baseline;
  for (const auto threads : kPoolSizes) {
    ASSERT_TRUE(dc::set_global_compute_threads(threads).ok());
    const Tensor out = dt::matmul(a, b);
    if (baseline.empty()) {
      baseline = out;
    } else {
      EXPECT_TRUE(bitwise_equal(out, baseline)) << threads;
    }
  }
  EXPECT_TRUE(diffpattern::testutil::ulp_close(
      baseline, dt::reference::matmul(a, b), kUlpBound, kUlpAtol));
}

TEST(ParallelKernels, TransposeKernelsBitwiseEqualAcrossPoolSizes) {
  ThreadsGuard guard;
  dc::Rng rng(13);
  const Tensor a = random_tensor({65, 47}, rng);    // [M,K]
  const Tensor b = random_tensor({65, 83}, rng);    // [M,N]
  const Tensor c = random_tensor({29, 47}, rng);    // [K2,N2] for mtb
  const Tensor d = random_tensor({31, 47}, rng);    // [M2,N2]
  Tensor mta_base;
  Tensor mtb_base;
  for (const auto threads : kPoolSizes) {
    ASSERT_TRUE(dc::set_global_compute_threads(threads).ok());
    const Tensor mta = dt::matmul_transpose_a(a, b);
    const Tensor mtb = dt::matmul_transpose_b(d, c);
    if (mta_base.empty()) {
      mta_base = mta;
      mtb_base = mtb;
    } else {
      EXPECT_TRUE(bitwise_equal(mta, mta_base)) << threads;
      EXPECT_TRUE(bitwise_equal(mtb, mtb_base)) << threads;
    }
  }
  EXPECT_TRUE(diffpattern::testutil::ulp_close(
      mta_base, dt::reference::matmul_transpose_a(a, b), kUlpBound,
      kUlpAtol));
  EXPECT_TRUE(diffpattern::testutil::ulp_close(
      mtb_base, dt::reference::matmul_transpose_b(d, c), kUlpBound,
      kUlpAtol));
}

TEST(ParallelKernels, AccumulateMatchesReferenceOnWarmOutput) {
  ThreadsGuard guard;
  dc::Rng rng(17);
  const Tensor a = random_tensor({33, 21}, rng);
  const Tensor b = random_tensor({21, 55}, rng);
  const Tensor warm = random_tensor({33, 55}, rng);
  Tensor ref = warm;
  dt::reference::matmul_accumulate(a, b, ref);
  Tensor baseline;
  for (const auto threads : kPoolSizes) {
    ASSERT_TRUE(dc::set_global_compute_threads(threads).ok());
    Tensor out = warm;
    dt::matmul_accumulate(a, b, out);
    if (baseline.empty()) {
      baseline = out;
    } else {
      EXPECT_TRUE(bitwise_equal(out, baseline)) << threads;
    }
  }
  EXPECT_TRUE(diffpattern::testutil::ulp_close(baseline, ref, kUlpBound,
                                               kUlpAtol));
}

TEST(ParallelKernels, SoftmaxRowsBitwiseEqualAcrossPoolSizes) {
  ThreadsGuard guard;
  dc::Rng rng(19);
  const Tensor logits = random_tensor({129, 37}, rng);
  const Tensor ref = dt::reference::softmax_rows(logits);
  for (const auto threads : kPoolSizes) {
    ASSERT_TRUE(dc::set_global_compute_threads(threads).ok());
    EXPECT_TRUE(bitwise_equal(dt::softmax_rows(logits), ref)) << threads;
  }
}

TEST(ParallelKernels, Im2colBatchMatchesPerSampleBlocks) {
  ThreadsGuard guard;
  dc::Rng rng(23);
  dt::Conv2dGeometry geom;
  geom.in_channels = 3;
  geom.in_h = 9;
  geom.in_w = 7;
  geom.kernel_h = 3;
  geom.kernel_w = 3;
  geom.stride = 2;
  geom.padding = 1;
  const std::int64_t batch = 5;
  const Tensor x = random_tensor({batch, 3, 9, 7}, rng);
  const auto n_out = geom.out_h() * geom.out_w();
  for (const auto threads : kPoolSizes) {
    ASSERT_TRUE(dc::set_global_compute_threads(threads).ok());
    const Tensor cols = dt::im2col_batch(x, geom);
    ASSERT_EQ(cols.dim(0), geom.patch_size());
    ASSERT_EQ(cols.dim(1), batch * n_out);
    for (std::int64_t n = 0; n < batch; ++n) {
      Tensor image({3, 9, 7});
      std::copy(x.data() + n * image.numel(),
                x.data() + (n + 1) * image.numel(), image.data());
      const Tensor single = dt::im2col(image, geom);
      for (std::int64_t r = 0; r < geom.patch_size(); ++r) {
        for (std::int64_t p = 0; p < n_out; ++p) {
          ASSERT_EQ(cols[r * batch * n_out + n * n_out + p],
                    single[r * n_out + p])
              << "thread=" << threads << " n=" << n;
        }
      }
    }
    // Round trip: col2im_batch equals per-sample col2im.
    const Tensor folded = dt::col2im_batch(cols, geom, batch);
    for (std::int64_t n = 0; n < batch; ++n) {
      Tensor block({geom.patch_size(), n_out});
      for (std::int64_t r = 0; r < geom.patch_size(); ++r) {
        std::copy(cols.data() + r * batch * n_out + n * n_out,
                  cols.data() + r * batch * n_out + (n + 1) * n_out,
                  block.data() + r * n_out);
      }
      const Tensor single = dt::col2im(block, geom);
      for (std::int64_t i = 0; i < single.numel(); ++i) {
        ASSERT_EQ(folded[n * single.numel() + i], single[i]);
      }
    }
  }
}

TEST(ParallelKernels, Conv2dForwardBitwiseEqualAcrossPoolSizesAndModes) {
  ThreadsGuard guard;
  dc::Rng rng(29);
  const Tensor x = random_tensor({4, 3, 8, 8}, rng);
  const Tensor w = random_tensor({5, 3, 3, 3}, rng);
  const Tensor b = random_tensor({5}, rng);
  Tensor baseline;
  for (const auto threads : kPoolSizes) {
    ASSERT_TRUE(dc::set_global_compute_threads(threads).ok());
    // Training-mode graph path.
    const Tensor train_out =
        dn::conv2d(dn::Var(x, true), dn::Var(w, true), dn::Var(b, true), 1, 1)
            .value();
    // Inference path (scratch-buffer reuse); run twice so a stale scratch
    // from the previous pool size would be caught.
    Tensor infer_out;
    {
      dn::NoGradGuard no_grad;
      infer_out =
          dn::conv2d(dn::Var(x), dn::Var(w), dn::Var(b), 1, 1).value();
      const Tensor again =
          dn::conv2d(dn::Var(x), dn::Var(w), dn::Var(b), 1, 1).value();
      EXPECT_TRUE(bitwise_equal(infer_out, again));
    }
    EXPECT_TRUE(bitwise_equal(train_out, infer_out)) << threads;
    if (baseline.empty()) {
      baseline = train_out;
    } else {
      EXPECT_TRUE(bitwise_equal(train_out, baseline)) << threads;
    }
  }
}

TEST(ParallelKernels, Conv2dGradientsBitwiseEqualAcrossPoolSizes) {
  ThreadsGuard guard;
  dc::Rng rng(31);
  const Tensor x = random_tensor({3, 2, 6, 6}, rng);
  const Tensor w = random_tensor({4, 2, 3, 3}, rng);
  const Tensor b = random_tensor({4}, rng);
  Tensor gx_ref;
  Tensor gw_ref;
  Tensor gb_ref;
  for (const auto threads : kPoolSizes) {
    ASSERT_TRUE(dc::set_global_compute_threads(threads).ok());
    dn::Var vx(x, true);
    dn::Var vw(w, true);
    dn::Var vb(b, true);
    dn::sum_all(dn::conv2d(vx, vw, vb, 1, 1)).backward();
    if (gx_ref.empty()) {
      gx_ref = vx.grad();
      gw_ref = vw.grad();
      gb_ref = vb.grad();
    } else {
      EXPECT_TRUE(bitwise_equal(vx.grad(), gx_ref)) << threads;
      EXPECT_TRUE(bitwise_equal(vw.grad(), gw_ref)) << threads;
      EXPECT_TRUE(bitwise_equal(vb.grad(), gb_ref)) << threads;
    }
  }
}

TEST(ParallelKernels, ImplicitGemmConvMatchesIm2colMatmulBytewise) {
  ThreadsGuard guard;
  struct Case {
    std::int64_t h;
    std::int64_t w;
    std::int64_t kernel;
    std::int64_t stride;
    std::int64_t padding;
  };
  std::vector<Case> cases;
  // Odd widths (every strip splits into uneven pixel runs) over the full
  // kernel/stride/padding grid.
  for (const std::int64_t w : {5, 7}) {
    for (const std::int64_t kernel : {1, 3}) {
      for (const std::int64_t stride : {1, 2}) {
        for (const std::int64_t padding : {0, 1}) {
          cases.push_back({6, w, kernel, stride, padding});
        }
      }
    }
  }
  // The U-Net's square levels: output rows of 16, 8 and 4 pixels (the
  // fixed-length run copies), and the stride-2 downsample.
  cases.push_back({16, 16, 3, 1, 1});
  cases.push_back({8, 8, 3, 1, 1});
  cases.push_back({4, 4, 3, 1, 1});
  cases.push_back({8, 8, 3, 2, 1});
  cases.push_back({8, 8, 1, 1, 0});
  for (const std::int64_t batch : {1, 3, 16}) {
    for (const auto& c : cases) {
      dc::Rng rng(37);
      dt::Conv2dGeometry geom;
      geom.in_channels = 3;
      geom.in_h = c.h;
      geom.in_w = c.w;
      geom.kernel_h = c.kernel;
      geom.kernel_w = c.kernel;
      geom.stride = c.stride;
      geom.padding = c.padding;
      Tensor x = random_tensor({batch, 3, c.h, c.w}, rng);
      x[0] = -0.0F;  // Padding taps must still run fma(a, +0, c).
      Tensor w2d = random_tensor({7, geom.patch_size()}, rng);
      w2d[1] = 0.0F;  // A zero weight takes the has-zero panel path.
      const Tensor want = dt::matmul(w2d, dt::im2col_batch(x, geom));
      for (const auto threads : kPoolSizes) {
        ASSERT_TRUE(dc::set_global_compute_threads(threads).ok());
        Tensor got;
        dt::conv2d_gemm_into(w2d, x, geom, got);
        EXPECT_TRUE(bitwise_equal(got, want))
            << "batch=" << batch << " " << c.h << "x" << c.w
            << " k=" << c.kernel << " s=" << c.stride << " p=" << c.padding
            << " threads=" << threads;
      }
    }
  }
}
