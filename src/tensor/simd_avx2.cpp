// AVX2 + FMA kernel table.
//
// This translation unit is compiled with -mavx2 -mfma (see the dp_simd_avx2
// object library in CMakeLists.txt) even in the portable build, so binaries
// built without -march=native still carry the vector path; runtime CPU
// detection in simd.cpp decides whether it may be selected. Everything here
// reproduces the scalar canonical semantics bit for bit: fused ops use FMA
// instructions exactly where the scalar backend calls std::fma, reductions
// keep the 8-float / 4-double lane split with the fixed reduction tree, and
// tails run the scalar canonical code on the stored lanes. Do not introduce
// re-associations here — bitwise backend parity is load-bearing
// (tests/test_simd_kernels.cpp, the sampling golden digest).
#include "tensor/simd.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>

namespace diffpattern::tensor::simd {
namespace {

void avx2_axpy(float a, const float* x, float* y, std::int64_t n) {
  const __m256 va = _mm256_set1_ps(a);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vy = _mm256_loadu_ps(y + i);
    _mm256_storeu_ps(y + i,
                     _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i), vy));
  }
  for (; i < n; ++i) {
    y[i] = std::fma(a, x[i], y[i]);
  }
}

/// kRows x 16 register tile: 2*kRows accumulators, two B vectors and one
/// broadcast A entry per k step (kRows = 6 fills 15 of the 16 ymm
/// registers). The has-zero form blends the old accumulator back wherever
/// the broadcast A entry is zero, which is the canonical skip without a
/// branch.
template <int kRows>
void avx2_tile_rows(std::int64_t k, const float* a, const float* b, float* c,
                    std::int64_t ldc, bool a_has_zero) {
  __m256 lo[kRows];
  __m256 hi[kRows];
#pragma GCC unroll 6
  for (int r = 0; r < kRows; ++r) {
    lo[r] = _mm256_loadu_ps(c + r * ldc);
    hi[r] = _mm256_loadu_ps(c + r * ldc + 8);
  }
  if (!a_has_zero) {
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const __m256 b0 = _mm256_loadu_ps(b + kk * kGemmNr);
      const __m256 b1 = _mm256_loadu_ps(b + kk * kGemmNr + 8);
#pragma GCC unroll 6
      for (int r = 0; r < kRows; ++r) {
        const __m256 av = _mm256_broadcast_ss(a + kk * kGemmMr + r);
        lo[r] = _mm256_fmadd_ps(av, b0, lo[r]);
        hi[r] = _mm256_fmadd_ps(av, b1, hi[r]);
      }
    }
  } else {
    const __m256 zero = _mm256_setzero_ps();
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const __m256 b0 = _mm256_loadu_ps(b + kk * kGemmNr);
      const __m256 b1 = _mm256_loadu_ps(b + kk * kGemmNr + 8);
#pragma GCC unroll 6
      for (int r = 0; r < kRows; ++r) {
        const __m256 av = _mm256_broadcast_ss(a + kk * kGemmMr + r);
        const __m256 skip = _mm256_cmp_ps(av, zero, _CMP_EQ_OQ);
        lo[r] = _mm256_blendv_ps(_mm256_fmadd_ps(av, b0, lo[r]), lo[r], skip);
        hi[r] = _mm256_blendv_ps(_mm256_fmadd_ps(av, b1, hi[r]), hi[r], skip);
      }
    }
  }
#pragma GCC unroll 6
  for (int r = 0; r < kRows; ++r) {
    _mm256_storeu_ps(c + r * ldc, lo[r]);
    _mm256_storeu_ps(c + r * ldc + 8, hi[r]);
  }
}

void avx2_tile(std::int64_t k, const float* a, const float* b, float* c,
               std::int64_t ldc, std::int64_t mr, bool a_has_zero) {
  switch (mr) {
    case 1:
      return avx2_tile_rows<1>(k, a, b, c, ldc, a_has_zero);
    case 2:
      return avx2_tile_rows<2>(k, a, b, c, ldc, a_has_zero);
    case 3:
      return avx2_tile_rows<3>(k, a, b, c, ldc, a_has_zero);
    case 4:
      return avx2_tile_rows<4>(k, a, b, c, ldc, a_has_zero);
    case 5:
      return avx2_tile_rows<5>(k, a, b, c, ldc, a_has_zero);
    default:
      return avx2_tile_rows<6>(k, a, b, c, ldc, a_has_zero);
  }
}

void avx2_gemm_tile(std::int64_t k, const float* a, const float* b, float* c,
                    std::int64_t ldc, std::int64_t mr, std::int64_t nr,
                    bool a_has_zero) {
  static_assert(kGemmMr == 6 && kGemmNr == 16, "tile shape is hard-wired");
  if (nr == kGemmNr) {
    avx2_tile(k, a, b, c, ldc, mr, a_has_zero);
    return;
  }
  // Column tail: run the full-width tile on a local copy (packed B columns
  // past nr are zeros) and store back only the nr valid columns.
  alignas(32) float tile[kGemmMr * kGemmNr] = {};
  for (std::int64_t r = 0; r < mr; ++r) {
    std::copy(c + r * ldc, c + r * ldc + nr, tile + r * kGemmNr);
  }
  avx2_tile(k, a, b, tile, kGemmNr, mr, a_has_zero);
  for (std::int64_t r = 0; r < mr; ++r) {
    std::copy(tile + r * kGemmNr, tile + r * kGemmNr + nr, c + r * ldc);
  }
}

float avx2_dot(const float* x, const float* y, std::int64_t n) {
  __m256 vacc = _mm256_setzero_ps();
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    vacc = _mm256_fmadd_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i),
                           vacc);
  }
  alignas(32) float acc[8];
  _mm256_store_ps(acc, vacc);
  for (const std::int64_t base = i; i < n; ++i) {
    acc[i - base] = std::fma(x[i], y[i], acc[i - base]);
  }
  const float t0 = acc[0] + acc[4];
  const float t1 = acc[1] + acc[5];
  const float t2 = acc[2] + acc[6];
  const float t3 = acc[3] + acc[7];
  return (t0 + t2) + (t1 + t3);
}

void avx2_add(float* y, const float* x, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) {
    y[i] += x[i];
  }
}

void avx2_mul(float* y, const float* x, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_mul_ps(_mm256_loadu_ps(y + i), _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) {
    y[i] *= x[i];
  }
}

void avx2_scale(float* y, float s, std::int64_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_mul_ps(_mm256_loadu_ps(y + i), vs));
  }
  for (; i < n; ++i) {
    y[i] *= s;
  }
}

void avx2_shift(float* y, const float* x, float s, std::int64_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(x + i), vs));
  }
  for (; i < n; ++i) {
    y[i] = x[i] + s;
  }
}

void avx2_relu(float* y, std::int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // max_ps(v, 0) = (v > 0) ? v : +0 — NaN and -0 map to +0, matching the
    // scalar canonical ternary.
    _mm256_storeu_ps(y + i, _mm256_max_ps(_mm256_loadu_ps(y + i), zero));
  }
  for (; i < n; ++i) {
    y[i] = y[i] > 0.0F ? y[i] : 0.0F;
  }
}

float avx2_max(const float* x, std::int64_t n) {
  __m256 vm = _mm256_set1_ps(x[0]);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // max_ps(m, v) = (m > v) ? m : v — the canonical lane combine.
    vm = _mm256_max_ps(vm, _mm256_loadu_ps(x + i));
  }
  alignas(32) float m[8];
  _mm256_store_ps(m, vm);
  for (const std::int64_t base = i; i < n; ++i) {
    float& lane = m[i - base];
    lane = lane > x[i] ? lane : x[i];
  }
  const float t0 = m[0] > m[4] ? m[0] : m[4];
  const float t1 = m[1] > m[5] ? m[1] : m[5];
  const float t2 = m[2] > m[6] ? m[2] : m[6];
  const float t3 = m[3] > m[7] ? m[3] : m[7];
  const float u0 = t0 > t2 ? t0 : t2;
  const float u1 = t1 > t3 ? t1 : t3;
  return u0 > u1 ? u0 : u1;
}

double avx2_sum(const float* x, std::int64_t n) {
  __m256d vacc = _mm256_setzero_pd();
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // Plain add (two roundings) — the canonical op here is NOT fused.
    vacc = _mm256_add_pd(vacc, _mm256_cvtps_pd(_mm_loadu_ps(x + i)));
  }
  alignas(32) double acc[4];
  _mm256_store_pd(acc, vacc);
  for (const std::int64_t base = i; i < n; ++i) {
    acc[i - base] += static_cast<double>(x[i]);
  }
  return (acc[0] + acc[2]) + (acc[1] + acc[3]);
}

double avx2_sumsq_centered(const float* x, double mean, std::int64_t n) {
  const __m256d vmean = _mm256_set1_pd(mean);
  __m256d vacc = _mm256_setzero_pd();
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d d =
        _mm256_sub_pd(_mm256_cvtps_pd(_mm_loadu_ps(x + i)), vmean);
    vacc = _mm256_add_pd(vacc, _mm256_mul_pd(d, d));  // mul+add, not FMA.
  }
  alignas(32) double acc[4];
  _mm256_store_pd(acc, vacc);
  for (const std::int64_t base = i; i < n; ++i) {
    const double d = static_cast<double>(x[i]) - mean;
    acc[i - base] += d * d;
  }
  return (acc[0] + acc[2]) + (acc[1] + acc[3]);
}

void avx2_normalize_affine(const float* x, float mean, float istd,
                           float gamma, float beta, float* xhat, float* y,
                           std::int64_t n) {
  const __m256 vmean = _mm256_set1_ps(mean);
  const __m256 vistd = _mm256_set1_ps(istd);
  const __m256 vgamma = _mm256_set1_ps(gamma);
  const __m256 vbeta = _mm256_set1_ps(beta);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 xn = _mm256_mul_ps(
        _mm256_sub_ps(_mm256_loadu_ps(x + i), vmean), vistd);
    _mm256_storeu_ps(xhat + i, xn);
    _mm256_storeu_ps(y + i, _mm256_fmadd_ps(xn, vgamma, vbeta));
  }
  for (; i < n; ++i) {
    const float xn = (x[i] - mean) * istd;
    xhat[i] = xn;
    y[i] = std::fma(xn, gamma, beta);
  }
}

void avx2_normalize_affine_rows(const float* x, float mean, float istd,
                                const float* gamma, const float* beta,
                                float* xhat, float* y, std::int64_t n) {
  const __m256 vmean = _mm256_set1_ps(mean);
  const __m256 vistd = _mm256_set1_ps(istd);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 xn = _mm256_mul_ps(
        _mm256_sub_ps(_mm256_loadu_ps(x + i), vmean), vistd);
    _mm256_storeu_ps(xhat + i, xn);
    _mm256_storeu_ps(y + i,
                     _mm256_fmadd_ps(xn, _mm256_loadu_ps(gamma + i),
                                     _mm256_loadu_ps(beta + i)));
  }
  for (; i < n; ++i) {
    const float xn = (x[i] - mean) * istd;
    xhat[i] = xn;
    y[i] = std::fma(xn, gamma[i], beta[i]);
  }
}

constexpr Kernels kAvx2Table = {
    .backend = KernelBackend::kAvx2,
    .axpy = avx2_axpy,
    .gemm_tile = avx2_gemm_tile,
    .dot = avx2_dot,
    .add = avx2_add,
    .mul = avx2_mul,
    .scale = avx2_scale,
    .shift = avx2_shift,
    .relu = avx2_relu,
    .max = avx2_max,
    .sum = avx2_sum,
    .sumsq_centered = avx2_sumsq_centered,
    .normalize_affine = avx2_normalize_affine,
    .normalize_affine_rows = avx2_normalize_affine_rows,
};

}  // namespace

namespace detail {
const Kernels* avx2_table() { return &kAvx2Table; }
}  // namespace detail

}  // namespace diffpattern::tensor::simd

#else  // !(__AVX2__ && __FMA__)

namespace diffpattern::tensor::simd::detail {
// Compiled without AVX2+FMA codegen (non-x86 target, or a toolchain that
// rejects -mavx2 -mfma): the backend is simply absent at runtime.
const Kernels* avx2_table() { return nullptr; }
}  // namespace diffpattern::tensor::simd::detail

#endif
