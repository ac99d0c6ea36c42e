// SIMD kernel tier: runtime-dispatched vectorized inner loops.
//
// The packed GEMM and the other kernels in tensor_ops.cpp, and the NN
// forward loops in nn/ops.cpp, call through the per-backend kernel table
// returned by simd::active(). Three backends exist:
//
//   * scalar — portable C++, runs everywhere. This is also the *canonical
//     semantics*: every kernel's accumulation order and rounding (fused
//     multiply-add via std::fma, lane-split reductions with a fixed
//     reduction tree) is defined by the scalar implementation.
//   * avx2   — AVX2 + FMA (x86-64), compiled into a separate object library
//     with -mavx2 -mfma so the portable build still carries it; selected at
//     runtime only when the CPU reports both features.
//   * neon   — AArch64 NEON (baseline on that architecture). Its GEMM
//     micro-kernel is the scalar one: no aarch64 host exists to test a
//     NEON tile against.
//
// Determinism contract: the vector backends implement the scalar canonical
// order *exactly* — same per-element fused operations, same lane-split
// partial accumulators, same reduction tree — so results are bitwise
// identical across backends, thread counts, and runs (IEEE-754 fma is
// correctly rounded whether it comes from vfmadd231ps, NEON fmla, or libm
// fmaf). The retained tensor::reference kernels keep the historic
// mul-then-add rounding and therefore agree only within a small ULP bound;
// tests/test_simd_kernels.cpp asserts both relations. The whole library is
// compiled with -ffp-contract=off so the compiler cannot re-fuse (or
// un-fuse) any of this behind our back.
//
// Dispatch: the process-wide backend starts at DIFFPATTERN_KERNEL_BACKEND
// (scalar|avx2|neon|auto; malformed or host-unsupported values are ignored)
// else the best backend the host supports. set_kernel_backend* follows the
// set_global_compute_threads precedent: unknown names and ISAs the host
// cannot run answer INVALID_ARGUMENT instead of aborting or silently
// falling back.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace diffpattern::tensor {

enum class KernelBackend {
  kScalar = 0,
  kAvx2 = 1,
  kNeon = 2,
};

/// "scalar", "avx2", or "neon".
const char* kernel_backend_label(KernelBackend backend);

/// Backend the current dispatch choice routes to.
KernelBackend kernel_backend();

/// kernel_backend_label(kernel_backend()).
std::string kernel_backend_name();

/// Best backend this host can execute (what "auto" resolves to).
KernelBackend detected_kernel_backend();

/// True when the host CPU (and this binary) can run `backend`.
bool kernel_backend_supported(KernelBackend backend);

/// Labels of every backend the host supports ("scalar" is always present).
std::vector<std::string> supported_kernel_backend_names();

/// Maps "scalar" / "avx2" / "neon" / "auto" onto a backend ("auto" resolves
/// to detected_kernel_backend()). Unknown names answer INVALID_ARGUMENT.
common::Result<KernelBackend> parse_kernel_backend(const std::string& name);

/// Switches the process-wide dispatch. INVALID_ARGUMENT when the host does
/// not support the requested backend. Like set_global_compute_threads, this
/// is a between-requests configuration knob: kernels already running keep
/// the table they grabbed.
common::Status set_kernel_backend(KernelBackend backend);

/// parse_kernel_backend + set_kernel_backend in one call (the CLI
/// --kernel-backend and ServiceConfig::kernel_backend entry point).
common::Status set_kernel_backend_name(const std::string& name);

namespace simd {

/// Register tile of the packed GEMM micro-kernel: kGemmMr rows of A times
/// kGemmNr columns of B. The packing layout (tensor_ops.cpp) follows it for
/// every backend: an A panel stores kGemmMr rows k-major
/// (a[kk * kGemmMr + r]), a B panel stores kGemmNr columns k-major
/// (b[kk * kGemmNr + j]); rows and columns past the matrix edge are packed
/// as zeros and their results are never stored.
inline constexpr std::int64_t kGemmMr = 6;
inline constexpr std::int64_t kGemmNr = 16;

/// Per-backend kernel table. Every function implements the canonical
/// semantics documented at the top of this header; `n` is an element count
/// and all pointers may overlap only where a parameter is documented as
/// in-place capable.
struct Kernels {
  KernelBackend backend;

  /// y[i] = fma(a, x[i], y[i]) for i in [0,n) — the A^T·B GEMM row update.
  void (*axpy)(float a, const float* x, float* y, std::int64_t n);

  /// Packed GEMM micro-kernel over one tile: for r < mr, j < nr and kk
  /// ascending in [0,k), c[r*ldc + j] = fma(a[kk*kGemmMr + r],
  /// b[kk*kGemmNr + j], c[r*ldc + j]), skipping every kk whose A entry is
  /// zero (so an accumulator never passes through fma(0, b, c): that would
  /// turn -0 into +0 and an inf/NaN in B into NaN). Zero entries of B are
  /// not skipped. `a_has_zero` is false only when no A entry of the mr
  /// valid rows is zero, letting a backend drop the per-entry test; the
  /// result is the same either way. mr in [1, kGemmMr], nr in [1, kGemmNr].
  void (*gemm_tile)(std::int64_t k, const float* a, const float* b,
                    float* c, std::int64_t ldc, std::int64_t mr,
                    std::int64_t nr, bool a_has_zero);

  /// Canonical lane-split fused dot product: 8 partial accumulators
  /// (lane l owns i ≡ l mod 8 over full 8-blocks, the tail folds into
  /// lanes 0..), reduced as ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)) —
  /// matching one 256-bit FMA register reduced hi-onto-lo.
  float (*dot)(const float* x, const float* y, std::int64_t n);

  /// y[i] += x[i].
  void (*add)(float* y, const float* x, std::int64_t n);
  /// y[i] *= x[i].
  void (*mul)(float* y, const float* x, std::int64_t n);
  /// y[i] *= s.
  void (*scale)(float* y, float s, std::int64_t n);
  /// y[i] = x[i] + s (y == x allowed: in-place bias add).
  void (*shift)(float* y, const float* x, float s, std::int64_t n);
  /// y[i] = y[i] > 0 ? y[i] : 0 (NaN and -0 map to +0, like vmaxps).
  void (*relu)(float* y, std::int64_t n);

  /// Canonical lane-split max (8 lanes seeded with x[0], combined with
  /// (m > v ? m : v), reduced with the dot tree). n must be >= 1. Exact
  /// for every non-NaN input.
  float (*max)(const float* x, std::int64_t n);

  /// Canonical 4-lane double-precision sum of x[0..n) (lane l owns
  /// i ≡ l mod 4 over full 4-blocks, tail folds into lanes 0..; reduced
  /// as (l0+l2) + (l1+l3)) — the group/layer-norm mean reduction.
  double (*sum)(const float* x, std::int64_t n);

  /// Same lane structure over d = double(x[i]) - mean, accumulating d*d —
  /// the group/layer-norm variance reduction.
  double (*sumsq_centered)(const float* x, double mean, std::int64_t n);

  /// xn = (x[i] - mean) * istd; xhat[i] = xn; y[i] = fma(xn, gamma, beta).
  /// Scalar gamma/beta: one group-norm channel plane per call.
  void (*normalize_affine)(const float* x, float mean, float istd,
                           float gamma, float beta, float* xhat, float* y,
                           std::int64_t n);

  /// Row variant with per-element gamma/beta (layer norm): y[i] =
  /// fma((x[i] - mean) * istd, gamma[i], beta[i]), xhat recorded likewise.
  void (*normalize_affine_rows)(const float* x, float mean, float istd,
                                const float* gamma, const float* beta,
                                float* xhat, float* y, std::int64_t n);
};

/// Table for the active backend (one relaxed atomic load — grab the
/// reference once per tensor op, not per element).
const Kernels& active();

/// Table for a specific backend, or nullptr when this host/binary cannot
/// run it. table_for(kScalar) never returns nullptr.
const Kernels* table_for(KernelBackend backend);

namespace detail {
/// Defined in simd_avx2.cpp (compiled with -mavx2 -mfma when the toolchain
/// targets x86); returns nullptr when the path is compiled out.
const Kernels* avx2_table();
}  // namespace detail

}  // namespace simd
}  // namespace diffpattern::tensor
