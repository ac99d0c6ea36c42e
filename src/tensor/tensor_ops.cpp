#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/contracts.h"
#include "tensor/parallel.h"
#include "tensor/simd.h"

namespace diffpattern::tensor {

namespace {

void require_matrix(const Tensor& t, const char* name) {
  DP_REQUIRE(t.rank() == 2, std::string(name) + ": expected rank-2 tensor, got " +
                                t.shape_string());
}

/// Minimum multiply-accumulates per parallel chunk; rows are cheap enough
/// below this that pool dispatch dominates.
constexpr std::int64_t kGemmGrainFlops = 32 * 1024;

std::int64_t row_grain(std::int64_t flops_per_row) {
  return std::max<std::int64_t>(1,
                                kGemmGrainFlops / std::max<std::int64_t>(
                                                      1, flops_per_row));
}

using simd::kGemmMr;
using simd::kGemmNr;

/// Grow-only, 64-byte-aligned float scratch. The packing buffers below are
/// thread-local instances: sized once by the largest GEMM a thread runs,
/// then reused by every call (no per-call allocation, and no tensor
/// storage, so the inference arena's allocation counts never see them).
class PackBuffer {
 public:
  float* get(std::int64_t n) {
    const auto need = static_cast<std::size_t>(n) + kAlignFloats;
    if (storage_.size() < need) {
      storage_.resize(need);
    }
    const auto addr = reinterpret_cast<std::uintptr_t>(storage_.data());
    return reinterpret_cast<float*>((addr + kAlignBytes - 1) &
                                    ~std::uintptr_t{kAlignBytes - 1});
  }

 private:
  static constexpr std::uintptr_t kAlignBytes = 64;
  static constexpr std::size_t kAlignFloats = kAlignBytes / sizeof(float);
  std::vector<float> storage_;
};

/// B strip source for a row-major matrix B[k, n]: strip columns
/// [j0, j0 + nr) copied k-major into kGemmNr-wide rows, zero-padded.
struct MatrixStrips {
  const float* b;
  std::int64_t k;
  std::int64_t n;

  void pack(std::int64_t j0, std::int64_t nr, float* dst) const {
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float* src = b + kk * n + j0;
      float* d = dst + kk * kGemmNr;
      std::copy(src, src + nr, d);
      std::fill(d + nr, d + kGemmNr, 0.0F);
    }
  }
};

/// C[m, n] += A[m, k] · B[k, n] through the packed micro-kernel. A is packed
/// once into kGemmMr-row panels (k-major, flagged when a panel holds a zero
/// entry); B is packed one kGemmNr-column strip at a time by `strips`, into
/// a thread-local buffer that stays in L1 while every A panel runs over it.
/// Each output element is owned by exactly one tile and accumulates k
/// ascending with one fma per nonzero A entry, so the bytes are the same
/// for every backend, thread count and strip partition.
template <typename Strips>
void packed_gemm(const float* a, float* c, std::int64_t m, std::int64_t k,
                 std::int64_t n, const Strips& strips) {
  if (m == 0 || n == 0 || k == 0) {
    return;
  }
  const auto& kern = simd::active();
  const auto panels = (m + kGemmMr - 1) / kGemmMr;
  thread_local PackBuffer t_a_pack;
  thread_local std::vector<unsigned char> t_a_zero;
  float* apack = t_a_pack.get(panels * k * kGemmMr);
  t_a_zero.assign(static_cast<std::size_t>(panels), 0);
  for (std::int64_t p = 0; p < panels; ++p) {
    const auto rows = std::min(kGemmMr, m - p * kGemmMr);
    float* dst = apack + p * k * kGemmMr;
    bool has_zero = false;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      for (std::int64_t r = 0; r < kGemmMr; ++r) {
        const float v = r < rows ? a[(p * kGemmMr + r) * k + kk] : 0.0F;
        has_zero = has_zero || (r < rows && v == 0.0F);
        dst[kk * kGemmMr + r] = v;
      }
    }
    t_a_zero[static_cast<std::size_t>(p)] = has_zero ? 1 : 0;
  }
  const unsigned char* a_zero = t_a_zero.data();
  const auto n_strips = (n + kGemmNr - 1) / kGemmNr;
  parallel_for(
      0, n_strips,
      [&](std::int64_t s0, std::int64_t s1) {
        thread_local PackBuffer t_b_pack;
        float* bpack = t_b_pack.get(k * kGemmNr);
        for (std::int64_t s = s0; s < s1; ++s) {
          const auto j0 = s * kGemmNr;
          const auto nr = std::min(kGemmNr, n - j0);
          strips.pack(j0, nr, bpack);
          for (std::int64_t p = 0; p < panels; ++p) {
            kern.gemm_tile(k, apack + p * k * kGemmMr, bpack,
                           c + p * kGemmMr * n + j0, n,
                           std::min(kGemmMr, m - p * kGemmMr), nr,
                           a_zero[p] != 0);
          }
        }
      },
      row_grain(m * k * kGemmNr));
}

}  // namespace

// ---- GEMM family (packed, strip-parallel) ---------------------------------

void gemm(const float* a, const float* b, float* c, std::int64_t m,
          std::int64_t k, std::int64_t n) {
  packed_gemm(a, c, m, k, n, MatrixStrips{b, k, n});
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  require_matrix(a, "matmul(a)");
  require_matrix(b, "matmul(b)");
  const auto m = a.dim(0);
  const auto k = a.dim(1);
  DP_REQUIRE(b.dim(0) == k, "matmul: inner dimension mismatch " +
                                a.shape_string() + " x " + b.shape_string());
  const auto n = b.dim(1);
  Tensor out({m, n}, 0.0F);
  matmul_accumulate(a, b, out);
  return out;
}

void matmul_accumulate(const Tensor& a, const Tensor& b, Tensor& out) {
  const auto m = a.dim(0);
  const auto k = a.dim(1);
  const auto n = b.dim(1);
  DP_REQUIRE(out.dim(0) == m && out.dim(1) == n,
             "matmul_accumulate: bad output shape");
  gemm(a.data(), b.data(), out.data(), m, k, n);
}

Tensor matmul_transpose_a(const Tensor& a, const Tensor& b) {
  require_matrix(a, "matmul_transpose_a(a)");
  require_matrix(b, "matmul_transpose_a(b)");
  const auto m = a.dim(0);
  const auto k = a.dim(1);
  DP_REQUIRE(b.dim(0) == m, "matmul_transpose_a: row mismatch");
  const auto n = b.dim(1);
  Tensor out({k, n}, 0.0F);
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = out.data();
  const auto& kern = simd::active();
  // Each task owns whole output rows (a column of A); the per-element
  // fused accumulation order over i is the same for every backend.
  parallel_for(
      0, k,
      [&](std::int64_t row_begin, std::int64_t row_end) {
        for (std::int64_t kk = row_begin; kk < row_end; ++kk) {
          float* crow = pc + kk * n;
          for (std::int64_t i = 0; i < m; ++i) {
            const float av = pa[i * k + kk];
            if (av == 0.0F) {
              continue;
            }
            kern.axpy(av, pb + i * n, crow, n);
          }
        }
      },
      row_grain(m * n));
  return out;
}

Tensor matmul_transpose_b(const Tensor& a, const Tensor& b) {
  require_matrix(a, "matmul_transpose_b(a)");
  require_matrix(b, "matmul_transpose_b(b)");
  const auto m = a.dim(0);
  const auto n = a.dim(1);
  DP_REQUIRE(b.dim(1) == n, "matmul_transpose_b: column mismatch");
  const auto k = b.dim(0);
  Tensor out({m, k}, 0.0F);
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = out.data();
  const auto& kern = simd::active();
  parallel_for(
      0, m,
      [&](std::int64_t row_begin, std::int64_t row_end) {
        for (std::int64_t i = row_begin; i < row_end; ++i) {
          const float* arow = pa + i * n;
          float* crow = pc + i * k;
          for (std::int64_t kk = 0; kk < k; ++kk) {
            crow[kk] = kern.dot(arow, pb + kk * n, n);
          }
        }
      },
      row_grain(k * n));
  return out;
}

// ---- im2col / col2im ------------------------------------------------------

namespace {

/// Unrolls sample `image` into the column block starting at column `col0`
/// of `cols` (row stride `ncols`), overwriting the whole block. The block's
/// contents are independent of the other samples, so batch unrolls can run
/// one sample per task.
void im2col_block(const float* src, const Conv2dGeometry& geom, float* dst,
                  std::int64_t col0, std::int64_t ncols) {
  const auto oh = geom.out_h();
  const auto ow = geom.out_w();
  const auto n_out = oh * ow;
  for (std::int64_t c = 0; c < geom.in_channels; ++c) {
    for (std::int64_t ky = 0; ky < geom.kernel_h; ++ky) {
      for (std::int64_t kx = 0; kx < geom.kernel_w; ++kx) {
        const auto row = (c * geom.kernel_h + ky) * geom.kernel_w + kx;
        float* drow = dst + row * ncols + col0;
        std::fill(drow, drow + n_out, 0.0F);  // Padding contributes zeros.
        for (std::int64_t oy = 0; oy < oh; ++oy) {
          const auto iy = oy * geom.stride - geom.padding + ky;
          if (iy < 0 || iy >= geom.in_h) {
            continue;
          }
          const float* srow = src + (c * geom.in_h + iy) * geom.in_w;
          for (std::int64_t ox = 0; ox < ow; ++ox) {
            const auto ix = ox * geom.stride - geom.padding + kx;
            if (ix < 0 || ix >= geom.in_w) {
              continue;
            }
            drow[oy * ow + ox] = srow[ix];
          }
        }
      }
    }
  }
}

/// Adjoint of im2col_block: folds one sample's column block back into its
/// image slice (pre-zeroed by the caller).
void col2im_block(const float* src, const Conv2dGeometry& geom, float* dst,
                  std::int64_t col0, std::int64_t ncols) {
  const auto oh = geom.out_h();
  const auto ow = geom.out_w();
  for (std::int64_t c = 0; c < geom.in_channels; ++c) {
    for (std::int64_t ky = 0; ky < geom.kernel_h; ++ky) {
      for (std::int64_t kx = 0; kx < geom.kernel_w; ++kx) {
        const auto row = (c * geom.kernel_h + ky) * geom.kernel_w + kx;
        const float* srow = src + row * ncols + col0;
        for (std::int64_t oy = 0; oy < oh; ++oy) {
          const auto iy = oy * geom.stride - geom.padding + ky;
          if (iy < 0 || iy >= geom.in_h) {
            continue;
          }
          float* drow = dst + (c * geom.in_h + iy) * geom.in_w;
          for (std::int64_t ox = 0; ox < ow; ++ox) {
            const auto ix = ox * geom.stride - geom.padding + kx;
            if (ix < 0 || ix >= geom.in_w) {
              continue;
            }
            drow[ix] += srow[oy * ow + ox];
          }
        }
      }
    }
  }
}

}  // namespace

Tensor im2col(const Tensor& image, const Conv2dGeometry& geom) {
  DP_REQUIRE(image.rank() == 3, "im2col: expected [C,H,W]");
  DP_REQUIRE(image.dim(0) == geom.in_channels && image.dim(1) == geom.in_h &&
                 image.dim(2) == geom.in_w,
             "im2col: geometry mismatch with image " + image.shape_string());
  const auto oh = geom.out_h();
  const auto ow = geom.out_w();
  DP_REQUIRE(oh > 0 && ow > 0, "im2col: empty output window");
  Tensor cols({geom.patch_size(), oh * ow});
  im2col_block(image.data(), geom, cols.data(), 0, oh * ow);
  return cols;
}

Tensor im2col_batch(const Tensor& images, const Conv2dGeometry& geom) {
  DP_REQUIRE(images.rank() == 4, "im2col_batch: expected [N,C,H,W]");
  DP_REQUIRE(images.dim(1) == geom.in_channels &&
                 images.dim(2) == geom.in_h && images.dim(3) == geom.in_w,
             "im2col_batch: geometry mismatch with batch " +
                 images.shape_string());
  const auto batch = images.dim(0);
  const auto n_out = geom.out_h() * geom.out_w();
  DP_REQUIRE(n_out > 0, "im2col_batch: empty output window");
  const auto ncols = batch * n_out;
  Tensor cols({geom.patch_size(), ncols});
  const auto per_sample = images.numel() / batch;
  const float* src = images.data();
  float* dst = cols.data();
  parallel_for(0, batch, [&](std::int64_t nb, std::int64_t ne) {
    for (std::int64_t n = nb; n < ne; ++n) {
      im2col_block(src + n * per_sample, geom, dst, n * n_out, ncols);
    }
  });
  return cols;
}

Tensor col2im(const Tensor& columns, const Conv2dGeometry& geom) {
  DP_REQUIRE(columns.rank() == 2, "col2im: expected rank-2 columns");
  const auto oh = geom.out_h();
  const auto ow = geom.out_w();
  DP_REQUIRE(columns.dim(0) == geom.patch_size() &&
                 columns.dim(1) == oh * ow,
             "col2im: column shape mismatch");
  Tensor image({geom.in_channels, geom.in_h, geom.in_w}, 0.0F);
  col2im_block(columns.data(), geom, image.data(), 0, oh * ow);
  return image;
}

Tensor col2im_batch(const Tensor& columns, const Conv2dGeometry& geom,
                    std::int64_t batch) {
  DP_REQUIRE(columns.rank() == 2, "col2im_batch: expected rank-2 columns");
  DP_REQUIRE(batch >= 1, "col2im_batch: batch must be >= 1");
  const auto n_out = geom.out_h() * geom.out_w();
  DP_REQUIRE(columns.dim(0) == geom.patch_size() &&
                 columns.dim(1) == batch * n_out,
             "col2im_batch: column shape mismatch");
  Tensor images({batch, geom.in_channels, geom.in_h, geom.in_w}, 0.0F);
  const auto per_sample = images.numel() / batch;
  const float* src = columns.data();
  float* dst = images.data();
  parallel_for(0, batch, [&](std::int64_t nb, std::int64_t ne) {
    for (std::int64_t n = nb; n < ne; ++n) {
      col2im_block(src, geom, dst + n * per_sample, n * n_out,
                   batch * n_out);
    }
  });
  return images;
}

// ---- implicit-GEMM convolution --------------------------------------------

namespace {

/// Columns of one B strip that are consecutive output pixels of one image
/// row: they read `len` taps `stride` apart starting at padded-input offset
/// `src`, into strip columns [col, col + len).
struct PixelRun {
  std::int64_t src;
  std::int64_t col;
  std::int64_t len;
};

/// B strip source for the implicit convolution GEMM. Column j of the
/// virtual im2col_batch matrix is output pixel j = (n*OH + oy)*OW + ox and
/// row kk = (c*kh + ky)*kw + kx; its value is read straight from a
/// zero-padded [N, C, H+2p, W+2p] copy of the input, so padding taps pack
/// as +0.0 exactly as im2col writes them and no row needs a bounds test.
struct ConvStrips {
  const float* padded;
  Conv2dGeometry geom;
  std::int64_t hp;
  std::int64_t wp;

  /// Copies every (c, ky, kx) row of the strip run by run. kLen > 0 is the
  /// stride-1 case where all runs have that length (a whole output row, or
  /// a strip-wide piece of one), so each copy is a fixed-size move.
  template <std::int64_t kLen>
  void pack_rows(const PixelRun* runs, int count, std::int64_t nr,
                 float* dst) const {
    const auto plane = hp * wp;
    std::int64_t kk = 0;
    for (std::int64_t c = 0; c < geom.in_channels; ++c) {
      for (std::int64_t ky = 0; ky < geom.kernel_h; ++ky) {
        for (std::int64_t kx = 0; kx < geom.kernel_w; ++kx, ++kk) {
          const float* src = padded + c * plane + ky * wp + kx;
          float* d = dst + kk * kGemmNr;
          for (int r = 0; r < count; ++r) {
            const float* from = src + runs[r].src;
            float* to = d + runs[r].col;
            if constexpr (kLen > 0) {
              std::copy(from, from + kLen, to);
            } else {
              for (std::int64_t t = 0; t < runs[r].len; ++t) {
                to[t] = from[t * geom.stride];
              }
            }
          }
          std::fill(d + nr, d + kGemmNr, 0.0F);
        }
      }
    }
  }

  void pack(std::int64_t j0, std::int64_t nr, float* dst) const {
    const auto ow = geom.out_w();
    const auto n_out = geom.out_h() * ow;
    const auto sample = geom.in_channels * hp * wp;
    PixelRun runs[kGemmNr];
    int count = 0;
    bool uniform = geom.stride == 1 && nr == kGemmNr;
    for (std::int64_t col = 0; col < nr; ++count) {
      const auto j = j0 + col;
      const auto pix = j % n_out;
      const auto oy = pix / ow;
      const auto ox = pix % ow;
      const auto len = std::min(nr - col, ow - ox);
      runs[count] = {(j / n_out) * sample + (oy * wp + ox) * geom.stride,
                     col, len};
      uniform = uniform && len == runs[0].len;
      col += len;
    }
    switch (uniform ? runs[0].len : 0) {
      case 16:
        pack_rows<16>(runs, count, nr, dst);
        break;
      case 8:
        pack_rows<8>(runs, count, nr, dst);
        break;
      case 4:
        pack_rows<4>(runs, count, nr, dst);
        break;
      default:
        pack_rows<0>(runs, count, nr, dst);
        break;
    }
  }
};

}  // namespace

void conv2d_gemm_into(const Tensor& w2d, const Tensor& images,
                      const Conv2dGeometry& geom, Tensor& y) {
  require_matrix(w2d, "conv2d_gemm_into(w2d)");
  DP_REQUIRE(images.rank() == 4, "conv2d_gemm_into: expected [N,C,H,W]");
  DP_REQUIRE(images.dim(1) == geom.in_channels &&
                 images.dim(2) == geom.in_h && images.dim(3) == geom.in_w,
             "conv2d_gemm_into: geometry mismatch with batch " +
                 images.shape_string());
  DP_REQUIRE(w2d.dim(1) == geom.patch_size(),
             "conv2d_gemm_into: weight is not [O, C*kh*kw]");
  const auto batch = images.dim(0);
  const auto n_out = geom.out_h() * geom.out_w();
  DP_REQUIRE(n_out > 0, "conv2d_gemm_into: empty output window");
  const auto m = w2d.dim(0);
  const auto ncols = batch * n_out;
  y.resize({m, ncols});
  y.fill(0.0F);

  ConvStrips strips{images.data(), geom, geom.in_h, geom.in_w};
  if (geom.padding > 0) {
    // Zero-padded copy of the input: (H+2p)(W+2p)/(HW) of the input bytes,
    // against kh*kw times them for the column matrix.
    const auto pad = geom.padding;
    strips.hp = geom.in_h + 2 * pad;
    strips.wp = geom.in_w + 2 * pad;
    const auto planes = batch * geom.in_channels;
    const auto plane = strips.hp * strips.wp;
    thread_local PackBuffer t_padded;
    float* padded = t_padded.get(planes * plane);
    const float* src = images.data();
    parallel_for(
        0, planes,
        [&](std::int64_t q0, std::int64_t q1) {
          for (std::int64_t q = q0; q < q1; ++q) {
            float* dplane = padded + q * plane;
            std::fill(dplane, dplane + plane, 0.0F);
            for (std::int64_t iy = 0; iy < geom.in_h; ++iy) {
              const float* srow = src + (q * geom.in_h + iy) * geom.in_w;
              std::copy(srow, srow + geom.in_w,
                        dplane + (iy + pad) * strips.wp + pad);
            }
          }
        },
        std::max<std::int64_t>(1, kElementwiseGrain / plane));
    strips.padded = padded;
  }
  packed_gemm(w2d.data(), y.data(), m, geom.patch_size(), ncols, strips);
}

// ---- reductions / elementwise ---------------------------------------------

double sum(const Tensor& t) {
  // Sequential double accumulation: the fixed order keeps the value
  // independent of thread count (this is a cold path next to the GEMMs).
  double acc = 0.0;
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    acc += t[i];
  }
  return acc;
}

float max_value(const Tensor& t) {
  DP_REQUIRE(!t.empty(), "max_value: empty tensor");
  float m = t[0];
  for (std::int64_t i = 1; i < t.numel(); ++i) {
    m = std::max(m, t[i]);
  }
  return m;
}

Tensor add(const Tensor& a, const Tensor& b) {
  DP_REQUIRE(a.same_shape(b), "add: shape mismatch " + a.shape_string() +
                                  " vs " + b.shape_string());
  Tensor out = a;
  float* po = out.data();
  const float* pb = b.data();
  const auto& kern = simd::active();
  parallel_elements(out.numel(), [&](std::int64_t i0, std::int64_t i1) {
    kern.add(po + i0, pb + i0, i1 - i0);
  });
  return out;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  DP_REQUIRE(a.same_shape(b), "mul: shape mismatch " + a.shape_string() +
                                  " vs " + b.shape_string());
  Tensor out = a;
  float* po = out.data();
  const float* pb = b.data();
  const auto& kern = simd::active();
  parallel_elements(out.numel(), [&](std::int64_t i0, std::int64_t i1) {
    kern.mul(po + i0, pb + i0, i1 - i0);
  });
  return out;
}

Tensor scale(const Tensor& a, float s) {
  Tensor out = a;
  float* po = out.data();
  const auto& kern = simd::active();
  parallel_elements(out.numel(), [&](std::int64_t i0, std::int64_t i1) {
    kern.scale(po + i0, s, i1 - i0);
  });
  return out;
}

Tensor softmax_rows(const Tensor& logits) {
  require_matrix(logits, "softmax_rows");
  const auto rows = logits.dim(0);
  const auto cols = logits.dim(1);
  Tensor out = logits;
  const auto& kern = simd::active();
  // Row-parallel: the max and final scale go through the dispatched
  // kernels (exact for every backend); the exp/denominator loop keeps its
  // fixed sequential double accumulation so the value is independent of
  // thread count and backend alike.
  parallel_for(
      0, rows,
      [&](std::int64_t row_begin, std::int64_t row_end) {
        for (std::int64_t i = row_begin; i < row_end; ++i) {
          float* row = out.data() + i * cols;
          const float m = kern.max(row, cols);
          double denom = 0.0;
          for (std::int64_t j = 0; j < cols; ++j) {
            row[j] = std::exp(row[j] - m);
            denom += row[j];
          }
          const auto inv = static_cast<float>(1.0 / denom);
          kern.scale(row, inv, cols);
        }
      },
      std::max<std::int64_t>(1, kElementwiseGrain / std::max<std::int64_t>(
                                                        1, cols)));
  return out;
}

// ---- retained naive reference kernels -------------------------------------

namespace reference {

void matmul_accumulate(const Tensor& a, const Tensor& b, Tensor& out) {
  const auto m = a.dim(0);
  const auto k = a.dim(1);
  const auto n = b.dim(1);
  DP_REQUIRE(out.dim(0) == m && out.dim(1) == n,
             "reference::matmul_accumulate: bad output shape");
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = out.data();
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    float* crow = pc + i * n;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0F) {
        continue;
      }
      const float* brow = pb + kk * n;
      for (std::int64_t j = 0; j < n; ++j) {
        crow[j] += av * brow[j];
      }
    }
  }
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  require_matrix(a, "reference::matmul(a)");
  require_matrix(b, "reference::matmul(b)");
  DP_REQUIRE(b.dim(0) == a.dim(1), "reference::matmul: inner mismatch");
  Tensor out({a.dim(0), b.dim(1)}, 0.0F);
  reference::matmul_accumulate(a, b, out);
  return out;
}

Tensor matmul_transpose_a(const Tensor& a, const Tensor& b) {
  require_matrix(a, "reference::matmul_transpose_a(a)");
  require_matrix(b, "reference::matmul_transpose_a(b)");
  const auto m = a.dim(0);
  const auto k = a.dim(1);
  DP_REQUIRE(b.dim(0) == m, "reference::matmul_transpose_a: row mismatch");
  const auto n = b.dim(1);
  Tensor out({k, n}, 0.0F);
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = out.data();
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    const float* brow = pb + i * n;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0F) {
        continue;
      }
      float* crow = pc + kk * n;
      for (std::int64_t j = 0; j < n; ++j) {
        crow[j] += av * brow[j];
      }
    }
  }
  return out;
}

Tensor matmul_transpose_b(const Tensor& a, const Tensor& b) {
  require_matrix(a, "reference::matmul_transpose_b(a)");
  require_matrix(b, "reference::matmul_transpose_b(b)");
  const auto m = a.dim(0);
  const auto n = a.dim(1);
  DP_REQUIRE(b.dim(1) == n, "reference::matmul_transpose_b: column mismatch");
  const auto k = b.dim(0);
  Tensor out({m, k}, 0.0F);
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = out.data();
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = pa + i * n;
    float* crow = pc + i * k;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float* brow = pb + kk * n;
      float acc = 0.0F;
      for (std::int64_t j = 0; j < n; ++j) {
        acc += arow[j] * brow[j];
      }
      crow[kk] = acc;
    }
  }
  return out;
}

Tensor softmax_rows(const Tensor& logits) {
  require_matrix(logits, "reference::softmax_rows");
  const auto rows = logits.dim(0);
  const auto cols = logits.dim(1);
  Tensor out = logits;
  for (std::int64_t i = 0; i < rows; ++i) {
    float* row = out.data() + i * cols;
    float m = row[0];
    for (std::int64_t j = 1; j < cols; ++j) {
      m = std::max(m, row[j]);
    }
    double denom = 0.0;
    for (std::int64_t j = 0; j < cols; ++j) {
      row[j] = std::exp(row[j] - m);
      denom += row[j];
    }
    const auto inv = static_cast<float>(1.0 / denom);
    for (std::int64_t j = 0; j < cols; ++j) {
      row[j] *= inv;
    }
  }
  return out;
}

}  // namespace reference

}  // namespace diffpattern::tensor
