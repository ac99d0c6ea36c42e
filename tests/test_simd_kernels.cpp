// SIMD kernel tier tests: runtime dispatch plumbing, bitwise parity between
// the scalar (canonical) backend and every vector backend this host can
// run, and ULP-bounded equivalence against the retained tensor::reference
// oracle — at sizes chosen to exercise every remainder/tail path
// (non-multiples of the 8-float / 4-double lane widths, 1x1 convolutions,
// odd channel counts).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/compute_pool.h"
#include "common/rng.h"
#include "nn/autograd.h"
#include "nn/ops.h"
#include "tensor/simd.h"
#include "tensor/tensor_ops.h"
#include "ulp_test_util.h"

namespace dc = diffpattern::common;
namespace dt = diffpattern::tensor;
namespace dn = diffpattern::nn;
namespace du = diffpattern::testutil;
using dt::KernelBackend;
using dt::Tensor;

namespace {

using du::BackendGuard;

/// Every backend this host can run, scalar first (the canonical one).
std::vector<KernelBackend> backends_under_test() {
  std::vector<KernelBackend> backends = {KernelBackend::kScalar};
  for (const auto candidate : {KernelBackend::kAvx2, KernelBackend::kNeon}) {
    if (dt::kernel_backend_supported(candidate)) {
      backends.push_back(candidate);
    }
  }
  return backends;
}

/// Element counts covering full-vector blocks, every tail length of the
/// 8-float and 4-double lane widths, and the degenerate n=1 case.
const std::int64_t kTailSizes[] = {1,  2,  3,  4,  5,  6,  7,  8,  9,  11,
                                   12, 13, 15, 16, 17, 23, 24, 31, 32, 33,
                                   63, 64, 65, 100};

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

/// ULP bound for one fused-vs-split rounding difference per accumulation
/// step, summed over the inner dimensions used below. Observed distances
/// are single digits; the slack guards against unlucky cancellation, not
/// against real bugs (those show up thousands of ULPs away or as shape
/// garbage).
constexpr std::int64_t kGemmUlpBound = 128;

/// Absolute escape hatch for accumulations that cancel towards zero: a
/// fixed absolute drift (~inner_dim * eps * operand scale) is a huge ULP
/// distance on a near-zero result without being any less correct.
constexpr float kGemmAtol = 1e-5F;

}  // namespace

// --------------------------------------------------------------- dispatch

TEST(SimdKernels, ScalarBackendIsAlwaysAvailable) {
  EXPECT_TRUE(dt::kernel_backend_supported(KernelBackend::kScalar));
  ASSERT_NE(dt::simd::table_for(KernelBackend::kScalar), nullptr);
  const auto names = dt::supported_kernel_backend_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "scalar"), names.end());
}

TEST(SimdKernels, ActiveTableMatchesReportedBackend) {
  BackendGuard guard;
  for (const auto backend : backends_under_test()) {
    ASSERT_TRUE(dt::set_kernel_backend(backend).ok());
    EXPECT_EQ(dt::kernel_backend(), backend);
    EXPECT_EQ(dt::kernel_backend_name(), dt::kernel_backend_label(backend));
    EXPECT_EQ(dt::simd::active().backend, backend);
  }
}

TEST(SimdKernels, ParseRejectsUnknownNamesWithInvalidArgument) {
  for (const char* bad : {"warp9", "", "AVX2", "sse", "scalar "}) {
    const auto parsed = dt::parse_kernel_backend(bad);
    ASSERT_FALSE(parsed.ok()) << "'" << bad << "' parsed";
    EXPECT_EQ(parsed.status().code(), dc::StatusCode::kInvalidArgument);
    const auto status = dt::set_kernel_backend_name(bad);
    EXPECT_EQ(status.code(), dc::StatusCode::kInvalidArgument);
  }
}

TEST(SimdKernels, AutoResolvesToDetectedBackend) {
  BackendGuard guard;
  const auto parsed = dt::parse_kernel_backend("auto");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, dt::detected_kernel_backend());
  ASSERT_TRUE(dt::set_kernel_backend_name("auto").ok());
  EXPECT_EQ(dt::kernel_backend(), dt::detected_kernel_backend());
}

TEST(SimdKernels, UnsupportedIsaAnswersInvalidArgumentAndKeepsDispatch) {
  std::string unsupported;
  for (const auto candidate : {KernelBackend::kAvx2, KernelBackend::kNeon}) {
    if (!dt::kernel_backend_supported(candidate)) {
      unsupported = dt::kernel_backend_label(candidate);
      break;
    }
  }
  if (unsupported.empty()) {
    GTEST_SKIP() << "host supports every compiled backend";
  }
  const auto before = dt::kernel_backend();
  const auto status = dt::set_kernel_backend_name(unsupported);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), dc::StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("not supported on this host"),
            std::string::npos);
  EXPECT_EQ(dt::kernel_backend(), before);  // Dispatch untouched.
}

// ------------------------------------------------- raw kernel table parity

TEST(SimdKernels, AxpyBackendParityAndTailCoverage) {
  dc::Rng rng(101);
  const auto* scalar = dt::simd::table_for(KernelBackend::kScalar);
  for (const auto backend : backends_under_test()) {
    const auto* table = dt::simd::table_for(backend);
    ASSERT_NE(table, nullptr);
    for (const auto n : kTailSizes) {
      const Tensor x = random_tensor({n}, rng);
      const Tensor y0 = random_tensor({n}, rng);
      const float a = static_cast<float>(rng.normal());
      Tensor want = y0;
      scalar->axpy(a, x.data(), want.data(), n);
      Tensor got = y0;
      table->axpy(a, x.data(), got.data(), n);
      EXPECT_TRUE(bitwise_equal(got, want))
          << dt::kernel_backend_label(backend) << " n=" << n;
      // One fused rounding vs mul+add: within a couple of ULPs of naive.
      for (std::int64_t i = 0; i < n; ++i) {
        const float naive = y0[i] + a * x[i];
        EXPECT_TRUE(du::ulp_distance(got[i], naive) <= 2 ||
                    std::abs(got[i] - naive) <= 2e-6F)
            << "n=" << n << " i=" << i << ": " << got[i] << " vs " << naive;
      }
    }
  }
}

namespace {

/// Equal bit for bit, except that any two NaNs match (an inf - inf inside
/// an fma yields the host's default NaN, whose payload is not part of the
/// canonical semantics).
bool same_bits_or_both_nan(float got, float want) {
  if (std::isnan(got) || std::isnan(want)) {
    return std::isnan(got) && std::isnan(want);
  }
  return std::memcmp(&got, &want, sizeof(float)) == 0;
}

/// The canonical GEMM written out in full: one fma per k, k ascending,
/// every zero A entry skipped — the oracle for the packed micro-kernel.
Tensor canonical_gemm(const Tensor& a, const Tensor& b, const Tensor& c0) {
  Tensor c = c0;
  const auto m = a.dim(0);
  const auto k = a.dim(1);
  const auto n = b.dim(1);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = c[i * n + j];
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float av = a[i * k + kk];
        if (av != 0.0F) {
          acc = std::fma(av, b[kk * n + j], acc);
        }
      }
      c[i * n + j] = acc;
    }
  }
  return c;
}

}  // namespace

TEST(SimdKernels, GemmTileBackendParityAtEveryTail) {
  dc::Rng rng(211);
  constexpr auto kMr = dt::simd::kGemmMr;
  constexpr auto kNr = dt::simd::kGemmNr;
  constexpr std::int64_t kLdc = kNr + 3;  // Wider than a tile: no overrun.
  const auto* scalar = dt::simd::table_for(KernelBackend::kScalar);
  for (const std::int64_t k : {1, 7, 33}) {
    const Tensor a = random_tensor({k * kMr}, rng);
    Tensor a_zero = a;
    for (std::int64_t i = 0; i < a_zero.numel(); i += 5) {
      a_zero[i] = 0.0F;
    }
    const Tensor b = random_tensor({k * kNr}, rng);
    const Tensor c0 = random_tensor({kMr * kLdc}, rng);
    for (std::int64_t mr = 1; mr <= kMr; ++mr) {
      for (std::int64_t nr = 1; nr <= kNr; ++nr) {
        Tensor want = c0;
        scalar->gemm_tile(k, a.data(), b.data(), want.data(), kLdc, mr, nr,
                          false);
        Tensor want_zero = c0;
        scalar->gemm_tile(k, a_zero.data(), b.data(), want_zero.data(), kLdc,
                          mr, nr, true);
        for (std::int64_t i = 0; i < c0.numel(); ++i) {
          if (i % kLdc >= nr || i / kLdc >= mr) {
            ASSERT_EQ(want[i], c0[i]) << "wrote outside the tile";
          }
        }
        for (const auto backend : backends_under_test()) {
          const auto* table = dt::simd::table_for(backend);
          const auto label = std::string(dt::kernel_backend_label(backend)) +
                             " k=" + std::to_string(k) +
                             " mr=" + std::to_string(mr) +
                             " nr=" + std::to_string(nr);
          Tensor got = c0;
          table->gemm_tile(k, a.data(), b.data(), got.data(), kLdc, mr, nr,
                           false);
          EXPECT_TRUE(bitwise_equal(got, want)) << label;
          // The has-zero form is the same function of the data.
          got = c0;
          table->gemm_tile(k, a.data(), b.data(), got.data(), kLdc, mr, nr,
                           true);
          EXPECT_TRUE(bitwise_equal(got, want)) << label << " flagged";
          got = c0;
          table->gemm_tile(k, a_zero.data(), b.data(), got.data(), kLdc, mr,
                           nr, true);
          EXPECT_TRUE(bitwise_equal(got, want_zero)) << label << " zeros";
        }
      }
    }
  }
}

TEST(SimdKernels, GemmZeroSkipMatchesCanonicalLoop) {
  BackendGuard guard;
  dc::Rng rng(223);
  // 13 rows = panels of 6, 6 and 1; 19 columns = a full strip and a tail.
  constexpr std::int64_t kM = 13;
  constexpr std::int64_t kK = 9;
  constexpr std::int64_t kN = 19;
  Tensor a = random_tensor({kM, kK}, rng);
  Tensor b = random_tensor({kK, kN}, rng);
  Tensor c0 = random_tensor({kM, kN}, rng);
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // Row 0 is all zeros over -0.0 accumulators: fma(0, b, -0) would give +0.
  for (std::int64_t kk = 0; kk < kK; ++kk) {
    a[kk] = 0.0F;
  }
  for (std::int64_t j = 0; j < kN; ++j) {
    c0[j] = -0.0F;
    c0[5 * kN + j] = -0.0F;
  }
  // Rows 1-5 (same panel) carry zeros exactly where B holds inf/NaN; the
  // second panel (rows 6-11) has no zero at all; row 12 is a zero-only-
  // at-k=2 tail panel.
  for (std::int64_t i = 1; i < 6; ++i) {
    a[i * kK + 2] = 0.0F;
    a[i * kK + 4] = -0.0F;
  }
  a[5 * kK + 0] = 0.0F;
  a[12 * kK + 2] = 0.0F;
  b[2 * kN + 0] = inf;
  b[2 * kN + 7] = -inf;
  b[2 * kN + 17] = nan;
  b[4 * kN + 3] = nan;
  b[4 * kN + 16] = -inf;
  const Tensor want = canonical_gemm(a, b, c0);
  ASSERT_TRUE(std::signbit(want[0]));  // Row 0 kept its -0.0.
  for (const auto backend : backends_under_test()) {
    ASSERT_TRUE(dt::set_kernel_backend(backend).ok());
    Tensor got = c0;
    dt::matmul_accumulate(a, b, got);
    for (std::int64_t i = 0; i < got.numel(); ++i) {
      ASSERT_TRUE(same_bits_or_both_nan(got[i], want[i]))
          << dt::kernel_backend_label(backend) << " (" << i / kN << ","
          << i % kN << "): " << got[i] << " vs " << want[i];
    }
    // Zero-filled output: matmul starts every element at +0.0.
    const Tensor fresh = dt::matmul(a, b);
    const Tensor want_fresh = canonical_gemm(a, b, Tensor({kM, kN}, 0.0F));
    for (std::int64_t i = 0; i < fresh.numel(); ++i) {
      ASSERT_TRUE(same_bits_or_both_nan(fresh[i], want_fresh[i]))
          << dt::kernel_backend_label(backend) << " fresh i=" << i;
    }
  }
}

TEST(SimdKernels, DotBackendParityAndDoubleReference) {
  dc::Rng rng(103);
  const auto* scalar = dt::simd::table_for(KernelBackend::kScalar);
  for (const auto n : kTailSizes) {
    const Tensor x = random_tensor({n}, rng);
    const Tensor y = random_tensor({n}, rng);
    const float want = scalar->dot(x.data(), y.data(), n);
    double exact = 0.0;
    for (std::int64_t i = 0; i < n; ++i) {
      exact += static_cast<double>(x[i]) * static_cast<double>(y[i]);
    }
    EXPECT_TRUE(du::ulp_distance(want, static_cast<float>(exact)) <=
                    kGemmUlpBound ||
                std::abs(want - static_cast<float>(exact)) <= kGemmAtol)
        << "n=" << n << ": " << want << " vs " << exact;
    for (const auto backend : backends_under_test()) {
      const auto* table = dt::simd::table_for(backend);
      const float got = table->dot(x.data(), y.data(), n);
      EXPECT_EQ(du::ulp_distance(got, want), 0)
          << dt::kernel_backend_label(backend) << " n=" << n << ": " << got
          << " vs " << want;
    }
  }
}

TEST(SimdKernels, ElementwiseKernelsExactAcrossBackends) {
  dc::Rng rng(107);
  for (const auto backend : backends_under_test()) {
    const auto* table = dt::simd::table_for(backend);
    for (const auto n : kTailSizes) {
      const Tensor x = random_tensor({n}, rng);
      const Tensor y0 = random_tensor({n}, rng);
      const float s = static_cast<float>(rng.normal());

      Tensor got = y0;
      table->add(got.data(), x.data(), n);
      for (std::int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], y0[i] + x[i]) << "add n=" << n;
      }
      got = y0;
      table->mul(got.data(), x.data(), n);
      for (std::int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], y0[i] * x[i]) << "mul n=" << n;
      }
      got = y0;
      table->scale(got.data(), s, n);
      for (std::int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], y0[i] * s) << "scale n=" << n;
      }
      Tensor shifted({n});
      table->shift(shifted.data(), x.data(), s, n);
      for (std::int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(shifted[i], x[i] + s) << "shift n=" << n;
      }
      got = y0;
      table->relu(got.data(), n);
      for (std::int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], y0[i] > 0.0F ? y0[i] : 0.0F) << "relu n=" << n;
      }
    }
  }
}

TEST(SimdKernels, MaxKernelExactAcrossBackends) {
  dc::Rng rng(109);
  for (const auto backend : backends_under_test()) {
    const auto* table = dt::simd::table_for(backend);
    for (const auto n : kTailSizes) {
      const Tensor x = random_tensor({n}, rng);
      float want = x[0];
      for (std::int64_t i = 1; i < n; ++i) {
        want = std::max(want, x[i]);
      }
      EXPECT_EQ(table->max(x.data(), n), want)
          << dt::kernel_backend_label(backend) << " n=" << n;
    }
  }
}

TEST(SimdKernels, MomentKernelsBackendParityAndDoubleReference) {
  dc::Rng rng(113);
  const auto* scalar = dt::simd::table_for(KernelBackend::kScalar);
  for (const auto n : kTailSizes) {
    const Tensor x = random_tensor({n}, rng);
    const double sum_want = scalar->sum(x.data(), n);
    double exact = 0.0;
    for (std::int64_t i = 0; i < n; ++i) {
      exact += static_cast<double>(x[i]);
    }
    EXPECT_NEAR(sum_want, exact, 1e-9 * std::max(1.0, std::abs(exact)));
    const double mean = sum_want / static_cast<double>(n);
    const double sq_want = scalar->sumsq_centered(x.data(), mean, n);
    for (const auto backend : backends_under_test()) {
      const auto* table = dt::simd::table_for(backend);
      // Double lanes reduce in a fixed tree: bitwise across backends.
      EXPECT_EQ(table->sum(x.data(), n), sum_want)
          << dt::kernel_backend_label(backend) << " n=" << n;
      EXPECT_EQ(table->sumsq_centered(x.data(), mean, n), sq_want)
          << dt::kernel_backend_label(backend) << " n=" << n;
    }
  }
}

TEST(SimdKernels, NormalizeAffineBackendParity) {
  dc::Rng rng(127);
  const auto* scalar = dt::simd::table_for(KernelBackend::kScalar);
  for (const auto backend : backends_under_test()) {
    const auto* table = dt::simd::table_for(backend);
    for (const auto n : kTailSizes) {
      const Tensor x = random_tensor({n}, rng);
      const Tensor gamma = random_tensor({n}, rng);
      const Tensor beta = random_tensor({n}, rng);
      const float mean = static_cast<float>(rng.normal());
      const float istd = std::abs(static_cast<float>(rng.normal())) + 0.5F;

      Tensor want_xhat({n});
      Tensor want_y({n});
      scalar->normalize_affine(x.data(), mean, istd, gamma[0], beta[0],
                               want_xhat.data(), want_y.data(), n);
      Tensor got_xhat({n});
      Tensor got_y({n});
      table->normalize_affine(x.data(), mean, istd, gamma[0], beta[0],
                              got_xhat.data(), got_y.data(), n);
      EXPECT_TRUE(bitwise_equal(got_xhat, want_xhat)) << "n=" << n;
      EXPECT_TRUE(bitwise_equal(got_y, want_y)) << "n=" << n;

      scalar->normalize_affine_rows(x.data(), mean, istd, gamma.data(),
                                    beta.data(), want_xhat.data(),
                                    want_y.data(), n);
      table->normalize_affine_rows(x.data(), mean, istd, gamma.data(),
                                   beta.data(), got_xhat.data(),
                                   got_y.data(), n);
      EXPECT_TRUE(bitwise_equal(got_xhat, want_xhat)) << "rows n=" << n;
      EXPECT_TRUE(bitwise_equal(got_y, want_y)) << "rows n=" << n;
    }
  }
}

// ------------------------------------------- tensor-op level equivalence

TEST(SimdKernels, MatmulFamilyBackendInvariantAndUlpCloseToReference) {
  BackendGuard guard;
  dc::Rng rng(131);
  // Odd inner/outer sizes defeat lane alignment; zeros exercise the sparse
  // skip path identically in every backend.
  Tensor a = random_tensor({65, 47}, rng);
  const Tensor b = random_tensor({47, 83}, rng);
  for (std::int64_t i = 0; i < a.numel(); i += 7) {
    a[i] = 0.0F;
  }
  const Tensor ta = random_tensor({65, 83}, rng);  // For transpose_a.
  const Tensor tb = random_tensor({29, 47}, rng);  // For transpose_b.

  Tensor mm_base;
  Tensor mta_base;
  Tensor mtb_base;
  for (const auto backend : backends_under_test()) {
    ASSERT_TRUE(dt::set_kernel_backend(backend).ok());
    const Tensor mm = dt::matmul(a, b);
    const Tensor mta = dt::matmul_transpose_a(a, ta);
    const Tensor mtb = dt::matmul_transpose_b(a, tb);
    if (mm_base.empty()) {
      mm_base = mm;
      mta_base = mta;
      mtb_base = mtb;
    } else {
      EXPECT_TRUE(bitwise_equal(mm, mm_base))
          << dt::kernel_backend_label(backend);
      EXPECT_TRUE(bitwise_equal(mta, mta_base))
          << dt::kernel_backend_label(backend);
      EXPECT_TRUE(bitwise_equal(mtb, mtb_base))
          << dt::kernel_backend_label(backend);
    }
  }
  EXPECT_TRUE(du::ulp_close(mm_base, dt::reference::matmul(a, b),
                            kGemmUlpBound, kGemmAtol));
  EXPECT_TRUE(du::ulp_close(mta_base, dt::reference::matmul_transpose_a(a, ta),
                            kGemmUlpBound, kGemmAtol));
  EXPECT_TRUE(du::ulp_close(mtb_base, dt::reference::matmul_transpose_b(a, tb),
                            kGemmUlpBound, kGemmAtol));
}

TEST(SimdKernels, MatmulSingleColumnAndSingleElementShapes) {
  BackendGuard guard;
  dc::Rng rng(137);
  // N=1 puts every axpy on the tail path; 1x1x1 is the degenerate GEMM.
  const Tensor a = random_tensor({9, 13}, rng);
  const Tensor b = random_tensor({13, 1}, rng);
  const Tensor a1 = random_tensor({1, 1}, rng);
  const Tensor b1 = random_tensor({1, 1}, rng);
  Tensor col_base;
  Tensor one_base;
  for (const auto backend : backends_under_test()) {
    ASSERT_TRUE(dt::set_kernel_backend(backend).ok());
    const Tensor col = dt::matmul(a, b);
    const Tensor one = dt::matmul(a1, b1);
    if (col_base.empty()) {
      col_base = col;
      one_base = one;
    } else {
      EXPECT_TRUE(bitwise_equal(col, col_base));
      EXPECT_TRUE(bitwise_equal(one, one_base));
    }
  }
  EXPECT_TRUE(du::ulp_close(col_base, dt::reference::matmul(a, b),
                            kGemmUlpBound, kGemmAtol));
  EXPECT_TRUE(du::ulp_close(one_base, dt::reference::matmul(a1, b1), 2));
}

TEST(SimdKernels, SoftmaxRowsBackendInvariant) {
  BackendGuard guard;
  dc::Rng rng(139);
  const Tensor logits = random_tensor({33, 37}, rng);  // Odd row width.
  Tensor base;
  for (const auto backend : backends_under_test()) {
    ASSERT_TRUE(dt::set_kernel_backend(backend).ok());
    const Tensor out = dt::softmax_rows(logits);
    if (base.empty()) {
      base = out;
    } else {
      EXPECT_TRUE(bitwise_equal(out, base))
          << dt::kernel_backend_label(backend);
    }
  }
  // Max and the final scale are exact in every backend; the whole op stays
  // bitwise equal to the reference.
  EXPECT_TRUE(bitwise_equal(base, dt::reference::softmax_rows(logits)));
}

namespace {

/// Per-sample conv reference composed from the retained naive kernels
/// (reference GEMM over per-sample im2col), the oracle bench_kernels uses.
Tensor conv_reference(const Tensor& x, const Tensor& w, const Tensor& b,
                      std::int64_t stride, std::int64_t padding) {
  dt::Conv2dGeometry geom;
  geom.in_channels = x.dim(1);
  geom.in_h = x.dim(2);
  geom.in_w = x.dim(3);
  geom.kernel_h = w.dim(2);
  geom.kernel_w = w.dim(3);
  geom.stride = stride;
  geom.padding = padding;
  const auto batch = x.dim(0);
  const auto out_ch = w.dim(0);
  const auto n_out = geom.out_h() * geom.out_w();
  const Tensor w2d = w.reshaped({out_ch, geom.patch_size()});
  Tensor out({batch, out_ch, geom.out_h(), geom.out_w()});
  for (std::int64_t n = 0; n < batch; ++n) {
    Tensor image({x.dim(1), x.dim(2), x.dim(3)});
    std::copy(x.data() + n * image.numel(),
              x.data() + (n + 1) * image.numel(), image.data());
    const Tensor y = dt::reference::matmul(w2d, dt::im2col(image, geom));
    for (std::int64_t o = 0; o < out_ch; ++o) {
      for (std::int64_t p = 0; p < n_out; ++p) {
        out[(n * out_ch + o) * n_out + p] = y[o * n_out + p] + b[o];
      }
    }
  }
  return out;
}

}  // namespace

TEST(SimdKernels, ConvolutionTailShapesBackendInvariantAndUlpClose) {
  BackendGuard guard;
  dc::Rng rng(149);
  dn::NoGradGuard no_grad;
  struct Case {
    dt::Shape x;
    dt::Shape w;
    std::int64_t stride;
    std::int64_t padding;
  };
  // Odd channel counts, 1x1 kernels, and widths straddling the 8-lane
  // boundary — the shapes whose tails hide out-of-bounds bugs.
  const Case cases[] = {
      {{2, 3, 5, 7}, {5, 3, 3, 3}, 1, 1},   // Odd channels, W=7 tail.
      {{1, 1, 8, 9}, {3, 1, 1, 1}, 1, 0},   // 1x1 conv, single channel.
      {{3, 5, 4, 4}, {7, 5, 1, 1}, 1, 0},   // 1x1 conv, odd channels.
      {{2, 2, 9, 9}, {4, 2, 3, 3}, 2, 1},   // Strided, odd output width.
      {{1, 4, 3, 3}, {2, 4, 3, 3}, 1, 0},   // Output collapses to 1x1.
  };
  for (const auto& c : cases) {
    dc::Rng data_rng(151);
    const Tensor x = random_tensor(c.x, data_rng);
    const Tensor w = random_tensor(c.w, data_rng);
    const Tensor b = random_tensor({c.w[0]}, data_rng);
    Tensor base;
    for (const auto backend : backends_under_test()) {
      ASSERT_TRUE(dt::set_kernel_backend(backend).ok());
      const Tensor out =
          dn::conv2d(dn::Var(x), dn::Var(w), dn::Var(b), c.stride, c.padding)
              .value();
      if (base.empty()) {
        base = out;
      } else {
        EXPECT_TRUE(bitwise_equal(out, base))
            << dt::kernel_backend_label(backend);
      }
    }
    EXPECT_TRUE(du::ulp_close(base, conv_reference(x, w, b, c.stride,
                                                   c.padding),
                              kGemmUlpBound, kGemmAtol));
  }
}

TEST(SimdKernels, NormalizationOpsBackendInvariant) {
  BackendGuard guard;
  dc::Rng rng(157);
  // Plane of 3x3 = 9 elements and 37-wide rows keep every normalize call on
  // a tail path.
  const Tensor x4 = random_tensor({2, 6, 3, 3}, rng);
  const Tensor gamma = random_tensor({6}, rng);
  const Tensor beta = random_tensor({6}, rng);
  const Tensor x2 = random_tensor({5, 37}, rng);
  const Tensor lg = random_tensor({37}, rng);
  const Tensor lb = random_tensor({37}, rng);
  Tensor gn_base;
  Tensor ln_base;
  Tensor relu_base;
  for (const auto backend : backends_under_test()) {
    ASSERT_TRUE(dt::set_kernel_backend(backend).ok());
    const Tensor gn =
        dn::group_norm(dn::Var(x4), dn::Var(gamma), dn::Var(beta),
                       /*groups=*/3, /*eps=*/1e-5F)
            .value();
    const Tensor ln =
        dn::layer_norm(dn::Var(x2), dn::Var(lg), dn::Var(lb), 1e-5F).value();
    const Tensor re = dn::relu(dn::Var(x2)).value();
    if (gn_base.empty()) {
      gn_base = gn;
      ln_base = ln;
      relu_base = re;
    } else {
      EXPECT_TRUE(bitwise_equal(gn, gn_base))
          << dt::kernel_backend_label(backend);
      EXPECT_TRUE(bitwise_equal(ln, ln_base))
          << dt::kernel_backend_label(backend);
      EXPECT_TRUE(bitwise_equal(re, relu_base))
          << dt::kernel_backend_label(backend);
    }
  }
}

TEST(SimdKernels, ForcedScalarDispatchServesTheWholeGemmPath) {
  // Forced-scalar parity on the same build: the portable code path must
  // produce the same bytes the vector backend produces (it is the
  // canonical semantics, not a second implementation).
  BackendGuard guard;
  dc::Rng rng(163);
  const Tensor a = random_tensor({17, 31}, rng);
  const Tensor b = random_tensor({31, 9}, rng);
  ASSERT_TRUE(dt::set_kernel_backend(KernelBackend::kScalar).ok());
  const Tensor scalar_out = dt::matmul(a, b);
  const auto detected = dt::detected_kernel_backend();
  if (detected == KernelBackend::kScalar) {
    GTEST_SKIP() << "host has no vector backend to compare against";
  }
  ASSERT_TRUE(dt::set_kernel_backend(detected).ok());
  EXPECT_TRUE(bitwise_equal(dt::matmul(a, b), scalar_out));
}
