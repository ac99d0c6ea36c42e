#include "tensor/simd.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>

#if defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace diffpattern::tensor {

namespace simd {
namespace {

// ---- scalar backend: the canonical semantics ------------------------------
//
// Every loop below is written in the exact lane structure the vector
// backends use (8 float lanes / 4 double lanes, tails folded into the low
// lanes, fixed reduction trees), with std::fma wherever the canonical op is
// fused. The vector implementations then reproduce these bits instruction
// for instruction; -ffp-contract=off (set project-wide) keeps the compiler
// from fusing or splitting anything on its own.

void scalar_axpy(float a, const float* x, float* y, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    y[i] = std::fma(a, x[i], y[i]);
  }
}

void scalar_gemm_tile(std::int64_t k, const float* a, const float* b,
                      float* c, std::int64_t ldc, std::int64_t mr,
                      std::int64_t nr, bool /*a_has_zero*/) {
  for (std::int64_t r = 0; r < mr; ++r) {
    float acc[kGemmNr] = {};
    float* crow = c + r * ldc;
    std::copy(crow, crow + nr, acc);
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float av = a[kk * kGemmMr + r];
      if (av == 0.0F) {
        continue;
      }
      const float* brow = b + kk * kGemmNr;
      for (std::int64_t j = 0; j < kGemmNr; ++j) {
        acc[j] = std::fma(av, brow[j], acc[j]);
      }
    }
    std::copy(acc, acc + nr, crow);
  }
}

float scalar_dot(const float* x, const float* y, std::int64_t n) {
  float acc[8] = {0.0F, 0.0F, 0.0F, 0.0F, 0.0F, 0.0F, 0.0F, 0.0F};
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (int l = 0; l < 8; ++l) {
      acc[l] = std::fma(x[i + l], y[i + l], acc[l]);
    }
  }
  for (const std::int64_t base = i; i < n; ++i) {
    acc[i - base] = std::fma(x[i], y[i], acc[i - base]);
  }
  const float t0 = acc[0] + acc[4];
  const float t1 = acc[1] + acc[5];
  const float t2 = acc[2] + acc[6];
  const float t3 = acc[3] + acc[7];
  return (t0 + t2) + (t1 + t3);
}

void scalar_add(float* y, const float* x, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    y[i] += x[i];
  }
}

void scalar_mul(float* y, const float* x, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    y[i] *= x[i];
  }
}

void scalar_scale(float* y, float s, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    y[i] *= s;
  }
}

void scalar_shift(float* y, const float* x, float s, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    y[i] = x[i] + s;
  }
}

void scalar_relu(float* y, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    y[i] = y[i] > 0.0F ? y[i] : 0.0F;
  }
}

float scalar_max(const float* x, std::int64_t n) {
  float m[8];
  for (int l = 0; l < 8; ++l) {
    m[l] = x[0];
  }
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (int l = 0; l < 8; ++l) {
      m[l] = m[l] > x[i + l] ? m[l] : x[i + l];
    }
  }
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

double scalar_sum(const float* x, std::int64_t n) {
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (int l = 0; l < 4; ++l) {
      acc[l] += static_cast<double>(x[i + l]);
    }
  }
  for (const std::int64_t base = i; i < n; ++i) {
    acc[i - base] += static_cast<double>(x[i]);
  }
  return (acc[0] + acc[2]) + (acc[1] + acc[3]);
}

double scalar_sumsq_centered(const float* x, double mean, std::int64_t n) {
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (int l = 0; l < 4; ++l) {
      const double d = static_cast<double>(x[i + l]) - mean;
      acc[l] += d * d;
    }
  }
  for (const std::int64_t base = i; i < n; ++i) {
    const double d = static_cast<double>(x[i]) - mean;
    acc[i - base] += d * d;
  }
  return (acc[0] + acc[2]) + (acc[1] + acc[3]);
}

void scalar_normalize_affine(const float* x, float mean, float istd,
                             float gamma, float beta, float* xhat, float* y,
                             std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float xn = (x[i] - mean) * istd;
    xhat[i] = xn;
    y[i] = std::fma(xn, gamma, beta);
  }
}

void scalar_normalize_affine_rows(const float* x, float mean, float istd,
                                  const float* gamma, const float* beta,
                                  float* xhat, float* y, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float xn = (x[i] - mean) * istd;
    xhat[i] = xn;
    y[i] = std::fma(xn, gamma[i], beta[i]);
  }
}

constexpr Kernels kScalarTable = {
    .backend = KernelBackend::kScalar,
    .axpy = scalar_axpy,
    .gemm_tile = scalar_gemm_tile,
    .dot = scalar_dot,
    .add = scalar_add,
    .mul = scalar_mul,
    .scale = scalar_scale,
    .shift = scalar_shift,
    .relu = scalar_relu,
    .max = scalar_max,
    .sum = scalar_sum,
    .sumsq_centered = scalar_sumsq_centered,
    .normalize_affine = scalar_normalize_affine,
    .normalize_affine_rows = scalar_normalize_affine_rows,
};

// ---- NEON backend (AArch64 baseline) --------------------------------------
//
// Mirrors the canonical 8-float / 4-double lane structure with paired
// 128-bit registers (lanes 0-3 in the A register, 4-7 in B); tails and
// reductions drop to the scalar canonical code on the stored lanes, so the
// result is bit-identical to the scalar backend.
#if defined(__aarch64__)

void neon_axpy(float a, const float* x, float* y, std::int64_t n) {
  const float32x4_t va = vdupq_n_f32(a);
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(y + i, vfmaq_f32(vld1q_f32(y + i), va, vld1q_f32(x + i)));
  }
  for (; i < n; ++i) {
    y[i] = std::fma(a, x[i], y[i]);
  }
}

float neon_dot(const float* x, const float* y, std::int64_t n) {
  float32x4_t acc_a = vdupq_n_f32(0.0F);
  float32x4_t acc_b = vdupq_n_f32(0.0F);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc_a = vfmaq_f32(acc_a, vld1q_f32(x + i), vld1q_f32(y + i));
    acc_b = vfmaq_f32(acc_b, vld1q_f32(x + i + 4), vld1q_f32(y + i + 4));
  }
  float acc[8];
  vst1q_f32(acc, acc_a);
  vst1q_f32(acc + 4, acc_b);
  for (const std::int64_t base = i; i < n; ++i) {
    acc[i - base] = std::fma(x[i], y[i], acc[i - base]);
  }
  const float t0 = acc[0] + acc[4];
  const float t1 = acc[1] + acc[5];
  const float t2 = acc[2] + acc[6];
  const float t3 = acc[3] + acc[7];
  return (t0 + t2) + (t1 + t3);
}

void neon_add(float* y, const float* x, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(y + i, vaddq_f32(vld1q_f32(y + i), vld1q_f32(x + i)));
  }
  for (; i < n; ++i) {
    y[i] += x[i];
  }
}

void neon_mul(float* y, const float* x, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(y + i, vmulq_f32(vld1q_f32(y + i), vld1q_f32(x + i)));
  }
  for (; i < n; ++i) {
    y[i] *= x[i];
  }
}

void neon_scale(float* y, float s, std::int64_t n) {
  const float32x4_t vs = vdupq_n_f32(s);
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(y + i, vmulq_f32(vld1q_f32(y + i), vs));
  }
  for (; i < n; ++i) {
    y[i] *= s;
  }
}

void neon_shift(float* y, const float* x, float s, std::int64_t n) {
  const float32x4_t vs = vdupq_n_f32(s);
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(y + i, vaddq_f32(vld1q_f32(x + i), vs));
  }
  for (; i < n; ++i) {
    y[i] = x[i] + s;
  }
}

void neon_relu(float* y, std::int64_t n) {
  const float32x4_t zero = vdupq_n_f32(0.0F);
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // vbsl on (y > 0): keep y where strictly positive, else +0 — matches
    // the scalar canonical (NaN and -0 map to +0).
    const float32x4_t v = vld1q_f32(y + i);
    vst1q_f32(y + i, vbslq_f32(vcgtq_f32(v, zero), v, zero));
  }
  for (; i < n; ++i) {
    y[i] = y[i] > 0.0F ? y[i] : 0.0F;
  }
}

float neon_max(const float* x, std::int64_t n) {
  float32x4_t m_a = vdupq_n_f32(x[0]);
  float32x4_t m_b = m_a;
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const float32x4_t va = vld1q_f32(x + i);
    const float32x4_t vb = vld1q_f32(x + i + 4);
    // Select m where m > v, else v — the canonical (m > v ? m : v).
    m_a = vbslq_f32(vcgtq_f32(m_a, va), m_a, va);
    m_b = vbslq_f32(vcgtq_f32(m_b, vb), m_b, vb);
  }
  float m[8];
  vst1q_f32(m, m_a);
  vst1q_f32(m + 4, m_b);
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

double neon_sum(const float* x, std::int64_t n) {
  float64x2_t acc_a = vdupq_n_f64(0.0);  // Lanes 0, 1.
  float64x2_t acc_b = vdupq_n_f64(0.0);  // Lanes 2, 3.
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t v = vld1q_f32(x + i);
    acc_a = vaddq_f64(acc_a, vcvt_f64_f32(vget_low_f32(v)));
    acc_b = vaddq_f64(acc_b, vcvt_f64_f32(vget_high_f32(v)));
  }
  double acc[4];
  vst1q_f64(acc, acc_a);
  vst1q_f64(acc + 2, acc_b);
  for (const std::int64_t base = i; i < n; ++i) {
    acc[i - base] += static_cast<double>(x[i]);
  }
  return (acc[0] + acc[2]) + (acc[1] + acc[3]);
}

double neon_sumsq_centered(const float* x, double mean, std::int64_t n) {
  const float64x2_t vmean = vdupq_n_f64(mean);
  float64x2_t acc_a = vdupq_n_f64(0.0);
  float64x2_t acc_b = vdupq_n_f64(0.0);
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t v = vld1q_f32(x + i);
    const float64x2_t da = vsubq_f64(vcvt_f64_f32(vget_low_f32(v)), vmean);
    const float64x2_t db = vsubq_f64(vcvt_f64_f32(vget_high_f32(v)), vmean);
    acc_a = vaddq_f64(acc_a, vmulq_f64(da, da));
    acc_b = vaddq_f64(acc_b, vmulq_f64(db, db));
  }
  double acc[4];
  vst1q_f64(acc, acc_a);
  vst1q_f64(acc + 2, acc_b);
  for (const std::int64_t base = i; i < n; ++i) {
    const double d = static_cast<double>(x[i]) - mean;
    acc[i - base] += d * d;
  }
  return (acc[0] + acc[2]) + (acc[1] + acc[3]);
}

void neon_normalize_affine(const float* x, float mean, float istd,
                           float gamma, float beta, float* xhat, float* y,
                           std::int64_t n) {
  const float32x4_t vmean = vdupq_n_f32(mean);
  const float32x4_t vistd = vdupq_n_f32(istd);
  const float32x4_t vgamma = vdupq_n_f32(gamma);
  const float32x4_t vbeta = vdupq_n_f32(beta);
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t xn =
        vmulq_f32(vsubq_f32(vld1q_f32(x + i), vmean), vistd);
    vst1q_f32(xhat + i, xn);
    vst1q_f32(y + i, vfmaq_f32(vbeta, xn, vgamma));
  }
  for (; i < n; ++i) {
    const float xn = (x[i] - mean) * istd;
    xhat[i] = xn;
    y[i] = std::fma(xn, gamma, beta);
  }
}

void neon_normalize_affine_rows(const float* x, float mean, float istd,
                                const float* gamma, const float* beta,
                                float* xhat, float* y, std::int64_t n) {
  const float32x4_t vmean = vdupq_n_f32(mean);
  const float32x4_t vistd = vdupq_n_f32(istd);
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t xn =
        vmulq_f32(vsubq_f32(vld1q_f32(x + i), vmean), vistd);
    vst1q_f32(xhat + i, xn);
    vst1q_f32(y + i,
              vfmaq_f32(vld1q_f32(beta + i), xn, vld1q_f32(gamma + i)));
  }
  for (; i < n; ++i) {
    const float xn = (x[i] - mean) * istd;
    xhat[i] = xn;
    y[i] = std::fma(xn, gamma[i], beta[i]);
  }
}

constexpr Kernels kNeonTable = {
    .backend = KernelBackend::kNeon,
    .axpy = neon_axpy,
    .gemm_tile = scalar_gemm_tile,
    .dot = neon_dot,
    .add = neon_add,
    .mul = neon_mul,
    .scale = neon_scale,
    .shift = neon_shift,
    .relu = neon_relu,
    .max = neon_max,
    .sum = neon_sum,
    .sumsq_centered = neon_sumsq_centered,
    .normalize_affine = neon_normalize_affine,
    .normalize_affine_rows = neon_normalize_affine_rows,
};

#endif  // defined(__aarch64__)

// ---- dispatch --------------------------------------------------------------

std::atomic<const Kernels*> g_active{nullptr};

/// Initial backend: DIFFPATTERN_KERNEL_BACKEND when set to a name the host
/// supports (following the DIFFPATTERN_THREADS precedent, malformed or
/// unsupported values are ignored), else the best detected backend.
const Kernels* resolve_initial() {
  if (const char* env = std::getenv("DIFFPATTERN_KERNEL_BACKEND")) {
    const auto parsed = parse_kernel_backend(env);
    if (parsed.ok()) {
      if (const Kernels* table = table_for(*parsed)) {
        return table;
      }
    }
  }
  return table_for(detected_kernel_backend());
}

}  // namespace

const Kernels& active() {
  const Kernels* table = g_active.load(std::memory_order_acquire);
  if (table == nullptr) {
    // Benign race: every initializer computes the same table; first CAS
    // wins and the others adopt it.
    const Kernels* resolved = resolve_initial();
    const Kernels* expected = nullptr;
    g_active.compare_exchange_strong(expected, resolved,
                                     std::memory_order_acq_rel);
    table = g_active.load(std::memory_order_acquire);
  }
  return *table;
}

const Kernels* table_for(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kScalar:
      return &kScalarTable;
    case KernelBackend::kAvx2:
      return kernel_backend_supported(KernelBackend::kAvx2)
                 ? detail::avx2_table()
                 : nullptr;
    case KernelBackend::kNeon:
#if defined(__aarch64__)
      return &kNeonTable;
#else
      return nullptr;
#endif
  }
  return nullptr;
}

}  // namespace simd

const char* kernel_backend_label(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kScalar:
      return "scalar";
    case KernelBackend::kAvx2:
      return "avx2";
    case KernelBackend::kNeon:
      return "neon";
  }
  return "unknown";
}

KernelBackend kernel_backend() { return simd::active().backend; }

std::string kernel_backend_name() {
  return kernel_backend_label(kernel_backend());
}

bool kernel_backend_supported(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kScalar:
      return true;
    case KernelBackend::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      return simd::detail::avx2_table() != nullptr &&
             __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
      return false;
#endif
    case KernelBackend::kNeon:
#if defined(__aarch64__)
      return true;
#else
      return false;
#endif
  }
  return false;
}

KernelBackend detected_kernel_backend() {
  if (kernel_backend_supported(KernelBackend::kAvx2)) {
    return KernelBackend::kAvx2;
  }
  if (kernel_backend_supported(KernelBackend::kNeon)) {
    return KernelBackend::kNeon;
  }
  return KernelBackend::kScalar;
}

std::vector<std::string> supported_kernel_backend_names() {
  std::vector<std::string> names;
  for (const auto backend : {KernelBackend::kScalar, KernelBackend::kAvx2,
                             KernelBackend::kNeon}) {
    if (kernel_backend_supported(backend)) {
      names.emplace_back(kernel_backend_label(backend));
    }
  }
  return names;
}

common::Result<KernelBackend> parse_kernel_backend(const std::string& name) {
  if (name == "scalar") {
    return KernelBackend::kScalar;
  }
  if (name == "avx2") {
    return KernelBackend::kAvx2;
  }
  if (name == "neon") {
    return KernelBackend::kNeon;
  }
  if (name == "auto") {
    return detected_kernel_backend();
  }
  return common::Status::InvalidArgument(
      "unknown kernel backend '" + name +
      "' (expected scalar|avx2|neon|auto)");
}

common::Status set_kernel_backend(KernelBackend backend) {
  const simd::Kernels* table = simd::table_for(backend);
  if (table == nullptr) {
    std::string supported;
    for (const auto& name : supported_kernel_backend_names()) {
      supported += supported.empty() ? name : ", " + name;
    }
    return common::Status::InvalidArgument(
        std::string("kernel backend '") + kernel_backend_label(backend) +
        "' is not supported on this host (supported: " + supported + ")");
  }
  simd::g_active.store(table, std::memory_order_release);
  return common::Status::Ok();
}

common::Status set_kernel_backend_name(const std::string& name) {
  auto parsed = parse_kernel_backend(name);
  if (!parsed.ok()) {
    return parsed.status();
  }
  return set_kernel_backend(*parsed);
}

}  // namespace diffpattern::tensor
