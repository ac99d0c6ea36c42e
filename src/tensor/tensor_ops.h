// Raw numeric kernels over Tensor: GEMM, im2col/col2im, reductions.
//
// These are the non-differentiable building blocks; gradient bookkeeping is
// layered on top in src/nn. matmul, matmul_accumulate, gemm and the
// convolution forward all run one packed GEMM: A is packed into
// kGemmMr-row panels, B one kGemmNr-column strip at a time (from a matrix,
// or straight from the zero-padded image for conv2d_gemm_into), and the
// runtime-dispatched register-tile micro-kernel (src/tensor/simd.h: scalar,
// AVX2/FMA, NEON) accumulates each tile. Strips, and the other kernels'
// rows or samples, are spread over the process-wide compute pool
// (src/tensor/parallel.h). Every kernel keeps the canonical fused
// accumulation order defined by the scalar backend, so results are
// byte-identical for any thread count and any backend. The original
// single-threaded mul-then-add kernels are retained under tensor::reference
// as the test oracle; the canonical fused kernels agree with them within a
// small ULP bound (tests/test_simd_kernels.cpp), not bitwise.
#pragma once

#include <cstdint>

#include "tensor/tensor.h"

namespace diffpattern::tensor {

/// C[M,N] += A[M,K] * B[K,N] over raw row-major buffers — the packed GEMM
/// every matmul form (and each bmm slice) runs through.
void gemm(const float* a, const float* b, float* c, std::int64_t m,
          std::int64_t k, std::int64_t n);

/// C[M,N] = A[M,K] * B[K,N].
Tensor matmul(const Tensor& a, const Tensor& b);

/// C[M,N] += A[M,K] * B[K,N] accumulated into `out` (shapes must match).
void matmul_accumulate(const Tensor& a, const Tensor& b, Tensor& out);

/// C[K,N] = A[M,K]^T * B[M,N].
Tensor matmul_transpose_a(const Tensor& a, const Tensor& b);

/// C[M,K] = A[M,N] * B[K,N]^T.
Tensor matmul_transpose_b(const Tensor& a, const Tensor& b);

struct Conv2dGeometry {
  std::int64_t in_channels = 0;
  std::int64_t in_h = 0;
  std::int64_t in_w = 0;
  std::int64_t kernel_h = 0;
  std::int64_t kernel_w = 0;
  std::int64_t stride = 1;
  std::int64_t padding = 0;

  std::int64_t out_h() const {
    return (in_h + 2 * padding - kernel_h) / stride + 1;
  }
  std::int64_t out_w() const {
    return (in_w + 2 * padding - kernel_w) / stride + 1;
  }
  std::int64_t patch_size() const { return in_channels * kernel_h * kernel_w; }
};

/// Unrolls one image [C,H,W] into columns [C*kh*kw, OH*OW]. Out-of-bounds
/// (padding) positions contribute zeros.
Tensor im2col(const Tensor& image, const Conv2dGeometry& geom);

/// Batch-wide unroll: [N,C,H,W] -> [C*kh*kw, N*OH*OW], sample-major columns
/// (sample n owns columns [n*OH*OW, (n+1)*OH*OW)). One matmul against the
/// flattened conv weight then convolves the whole batch; each column block
/// is byte-identical to im2col of that sample, so batched convolution is
/// bit-equal to the per-sample path.
Tensor im2col_batch(const Tensor& images, const Conv2dGeometry& geom);

/// y[O, N*OH*OW] = w2d[O, C*kh*kw] * im2col_batch(images, geom) as an
/// implicit GEMM: B strips are packed straight from a zero-padded copy of
/// the NCHW batch, so the column matrix is never built. Byte-identical to
/// matmul(w2d, im2col_batch(images, geom)). Resizes `y` (reusing its
/// storage) and overwrites every entry.
void conv2d_gemm_into(const Tensor& w2d, const Tensor& images,
                      const Conv2dGeometry& geom, Tensor& y);

/// Adjoint of im2col: folds columns [C*kh*kw, OH*OW] back into an image
/// [C,H,W], accumulating overlapping contributions.
Tensor col2im(const Tensor& columns, const Conv2dGeometry& geom);

/// Adjoint of im2col_batch: folds [C*kh*kw, N*OH*OW] back into [N,C,H,W],
/// one independent (parallel) fold per sample.
Tensor col2im_batch(const Tensor& columns, const Conv2dGeometry& geom,
                    std::int64_t batch);

/// Sum of all elements (sequential double accumulation — deterministic).
double sum(const Tensor& t);

/// Maximum element (requires non-empty tensor).
float max_value(const Tensor& t);

/// out[i] = a[i] + b[i] (shapes must match).
Tensor add(const Tensor& a, const Tensor& b);

/// out[i] = a[i] * b[i] (shapes must match).
Tensor mul(const Tensor& a, const Tensor& b);

/// out[i] = a[i] * s.
Tensor scale(const Tensor& a, float s);

/// Numerically stable row-wise softmax over the last axis of a 2-D tensor.
Tensor softmax_rows(const Tensor& logits);

/// Retained naive single-threaded kernels: the oracle for the
/// blocked/parallel implementations above (tests assert agreement within a
/// tight ULP bound — the dispatched kernels accumulate with fused
/// multiply-adds, these keep separate mul/add roundings), and a readable
/// spec of the arithmetic.
namespace reference {
Tensor matmul(const Tensor& a, const Tensor& b);
void matmul_accumulate(const Tensor& a, const Tensor& b, Tensor& out);
Tensor matmul_transpose_a(const Tensor& a, const Tensor& b);
Tensor matmul_transpose_b(const Tensor& a, const Tensor& b);
Tensor softmax_rows(const Tensor& logits);
}  // namespace reference

}  // namespace diffpattern::tensor
