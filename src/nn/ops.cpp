#include "nn/ops.h"

#include <cmath>
#include <numeric>

#include "common/contracts.h"
#include "tensor/parallel.h"
#include "tensor/simd.h"
#include "tensor/tensor_ops.h"

namespace diffpattern::nn {

namespace {

using detail::accumulate_grad;
using detail::graph_needed;
using detail::make_op_node;
using detail::make_value_node;
using tensor::parallel_elements;

void require_same_shape(const Var& a, const Var& b, const char* op) {
  DP_REQUIRE(a.value().same_shape(b.value()),
             std::string(op) + ": shape mismatch " +
                 a.value().shape_string() + " vs " + b.value().shape_string());
}

/// Overflow-free logistic sigmoid with a single libm exp: e = exp(-|v|) is
/// the value the two-sided form 1/(1+exp(-v)) | exp(v)/(1+exp(v)) computes
/// on each side, so the bits match it for every finite v (±0 included).
float logistic(float v) {
  const float e = std::exp(-std::fabs(v));
  return v >= 0.0F ? 1.0F / (1.0F + e) : e / (1.0F + e);
}

Tensor map_unary(const Tensor& x, float (*f)(float)) {
  Tensor out = x;
  float* po = out.data();
  parallel_elements(out.numel(), [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      po[i] = f(po[i]);
    }
  });
  return out;
}

}  // namespace

// ---- arithmetic -----------------------------------------------------------

Var add(const Var& a, const Var& b) {
  require_same_shape(a, b, "add");
  Tensor out = tensor::add(a.value(), b.value());
  if (!graph_needed({&a, &b})) {
    return make_value_node(std::move(out));
  }
  auto pa = a.node();
  auto pb = b.node();
  return make_op_node(std::move(out), {a, b}, [pa, pb](const Tensor& g) {
    if (pa->requires_grad) accumulate_grad(*pa, g);
    if (pb->requires_grad) accumulate_grad(*pb, g);
  });
}

Var sub(const Var& a, const Var& b) {
  require_same_shape(a, b, "sub");
  Tensor out = a.value();
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    out[i] -= b.value()[i];
  }
  if (!graph_needed({&a, &b})) {
    return make_value_node(std::move(out));
  }
  auto pa = a.node();
  auto pb = b.node();
  return make_op_node(std::move(out), {a, b}, [pa, pb](const Tensor& g) {
    if (pa->requires_grad) accumulate_grad(*pa, g);
    if (pb->requires_grad) accumulate_grad(*pb, tensor::scale(g, -1.0F));
  });
}

Var mul(const Var& a, const Var& b) {
  require_same_shape(a, b, "mul");
  Tensor out = tensor::mul(a.value(), b.value());
  if (!graph_needed({&a, &b})) {
    return make_value_node(std::move(out));
  }
  auto pa = a.node();
  auto pb = b.node();
  Tensor av = a.value();
  Tensor bv = b.value();
  return make_op_node(
      std::move(out), {a, b},
      [pa, pb, av = std::move(av), bv = std::move(bv)](const Tensor& g) {
        if (pa->requires_grad) accumulate_grad(*pa, tensor::mul(g, bv));
        if (pb->requires_grad) accumulate_grad(*pb, tensor::mul(g, av));
      });
}

Var neg(const Var& a) { return scale(a, -1.0F); }

Var scale(const Var& a, float s) {
  Tensor out = tensor::scale(a.value(), s);
  if (!graph_needed({&a})) {
    return make_value_node(std::move(out));
  }
  auto pa = a.node();
  return make_op_node(std::move(out), {a}, [pa, s](const Tensor& g) {
    accumulate_grad(*pa, tensor::scale(g, s));
  });
}

Var add_scalar(const Var& a, float s) {
  Tensor out = a.value();
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    out[i] += s;
  }
  if (!graph_needed({&a})) {
    return make_value_node(std::move(out));
  }
  auto pa = a.node();
  return make_op_node(std::move(out), {a}, [pa](const Tensor& g) {
    accumulate_grad(*pa, g);
  });
}

Var mul_const(const Var& a, const Tensor& c) {
  DP_REQUIRE(a.value().same_shape(c), "mul_const: shape mismatch");
  Tensor out = tensor::mul(a.value(), c);
  if (!graph_needed({&a})) {
    return make_value_node(std::move(out));
  }
  auto pa = a.node();
  Tensor cc = c;
  return make_op_node(std::move(out), {a},
                      [pa, cc = std::move(cc)](const Tensor& g) {
                        accumulate_grad(*pa, tensor::mul(g, cc));
                      });
}

Var add_const(const Var& a, const Tensor& c) {
  DP_REQUIRE(a.value().same_shape(c), "add_const: shape mismatch");
  Tensor out = tensor::add(a.value(), c);
  if (!graph_needed({&a})) {
    return make_value_node(std::move(out));
  }
  auto pa = a.node();
  return make_op_node(std::move(out), {a}, [pa](const Tensor& g) {
    accumulate_grad(*pa, g);
  });
}

// ---- activations ----------------------------------------------------------

Var relu(const Var& a) {
  Tensor out = a.value();
  float* po = out.data();
  const auto& kern = tensor::simd::active();
  parallel_elements(out.numel(), [&](std::int64_t i0, std::int64_t i1) {
    kern.relu(po + i0, i1 - i0);
  });
  if (!graph_needed({&a})) {
    return make_value_node(std::move(out));
  }
  auto pa = a.node();
  Tensor x = a.value();
  return make_op_node(std::move(out), {a},
                      [pa, x = std::move(x)](const Tensor& g) {
                        Tensor d = g;
                        for (std::int64_t i = 0; i < d.numel(); ++i) {
                          if (x[i] <= 0.0F) d[i] = 0.0F;
                        }
                        accumulate_grad(*pa, d);
                      });
}

Var sigmoid(const Var& a) {
  Tensor out = map_unary(a.value(), logistic);
  if (!graph_needed({&a})) {
    return make_value_node(std::move(out));
  }
  auto pa = a.node();
  Tensor s = out;
  return make_op_node(std::move(out), {a},
                      [pa, s = std::move(s)](const Tensor& g) {
                        Tensor d = g;
                        for (std::int64_t i = 0; i < d.numel(); ++i) {
                          d[i] *= s[i] * (1.0F - s[i]);
                        }
                        accumulate_grad(*pa, d);
                      });
}

Var silu(const Var& a) {
  const Tensor& x = a.value();
  Tensor out = x;
  float* po = out.data();
  const float* px = x.data();
  if (!graph_needed({&a})) {
    // Inference: same per-element formula, no sigmoid stash and no capture
    // copies — bytes are identical to the training path below.
    parallel_elements(x.numel(), [&](std::int64_t i0, std::int64_t i1) {
      for (std::int64_t i = i0; i < i1; ++i) {
        const float v = px[i];
        po[i] = v * logistic(v);
      }
    });
    return make_value_node(std::move(out));
  }
  Tensor s(x.shape());
  float* ps = s.data();
  parallel_elements(x.numel(), [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      const float v = px[i];
      const float sig = logistic(v);
      ps[i] = sig;
      po[i] = v * sig;
    }
  });
  auto pa = a.node();
  Tensor xc = x;
  return make_op_node(
      std::move(out), {a},
      [pa, xc = std::move(xc), s = std::move(s)](const Tensor& g) {
        Tensor d = g;
        float* pd = d.data();
        parallel_elements(d.numel(), [&](std::int64_t i0, std::int64_t i1) {
          for (std::int64_t i = i0; i < i1; ++i) {
            const float sig = s[i];
            pd[i] *= sig * (1.0F + xc[i] * (1.0F - sig));
          }
        });
        accumulate_grad(*pa, d);
      });
}

Var gelu(const Var& a) {
  // tanh approximation; matches common framework implementations closely.
  constexpr float kC = 0.7978845608028654F;  // sqrt(2/pi)
  constexpr float kA = 0.044715F;
  const Tensor& x = a.value();
  Tensor out = x;
  float* po = out.data();
  parallel_elements(x.numel(), [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      const float v = po[i];
      const float t = std::tanh(kC * (v + kA * v * v * v));
      po[i] = 0.5F * v * (1.0F + t);
    }
  });
  if (!graph_needed({&a})) {
    return make_value_node(std::move(out));
  }
  auto pa = a.node();
  Tensor xc = x;
  return make_op_node(std::move(out), {a},
                      [pa, xc = std::move(xc)](const Tensor& g) {
                        Tensor d = g;
                        for (std::int64_t i = 0; i < d.numel(); ++i) {
                          const float v = xc[i];
                          const float u = kC * (v + kA * v * v * v);
                          const float t = std::tanh(u);
                          const float du = kC * (1.0F + 3.0F * kA * v * v);
                          d[i] *= 0.5F * (1.0F + t) +
                                  0.5F * v * (1.0F - t * t) * du;
                        }
                        accumulate_grad(*pa, d);
                      });
}

Var tanh_act(const Var& a) {
  Tensor out = map_unary(a.value(), [](float x) { return std::tanh(x); });
  if (!graph_needed({&a})) {
    return make_value_node(std::move(out));
  }
  auto pa = a.node();
  Tensor t = out;
  return make_op_node(std::move(out), {a},
                      [pa, t = std::move(t)](const Tensor& g) {
                        Tensor d = g;
                        for (std::int64_t i = 0; i < d.numel(); ++i) {
                          d[i] *= 1.0F - t[i] * t[i];
                        }
                        accumulate_grad(*pa, d);
                      });
}

Var softplus(const Var& a) {
  Tensor out = map_unary(a.value(), [](float x) {
    return std::max(x, 0.0F) + std::log1p(std::exp(-std::abs(x)));
  });
  if (!graph_needed({&a})) {
    return make_value_node(std::move(out));
  }
  auto pa = a.node();
  Tensor x = a.value();
  return make_op_node(std::move(out), {a},
                      [pa, x = std::move(x)](const Tensor& g) {
                        Tensor d = g;
                        for (std::int64_t i = 0; i < d.numel(); ++i) {
                          d[i] *= logistic(x[i]);
                        }
                        accumulate_grad(*pa, d);
                      });
}

Var log_clamped(const Var& a, float eps) {
  DP_REQUIRE(eps > 0.0F, "log_clamped: eps must be positive");
  const Tensor& x = a.value();
  Tensor out = x;
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    out[i] = std::log(std::max(x[i], eps));
  }
  if (!graph_needed({&a})) {
    return make_value_node(std::move(out));
  }
  auto pa = a.node();
  Tensor xc = x;
  return make_op_node(std::move(out), {a},
                      [pa, xc = std::move(xc), eps](const Tensor& g) {
                        Tensor d = g;
                        for (std::int64_t i = 0; i < d.numel(); ++i) {
                          d[i] = xc[i] > eps ? d[i] / xc[i] : 0.0F;
                        }
                        accumulate_grad(*pa, d);
                      });
}

// ---- shape ----------------------------------------------------------------

Var reshape(const Var& a, Shape shape) {
  Tensor out = a.value().reshaped(std::move(shape));
  if (!graph_needed({&a})) {
    return make_value_node(std::move(out));
  }
  auto pa = a.node();
  Shape original = a.value().shape();
  return make_op_node(std::move(out), {a},
                      [pa, original = std::move(original)](const Tensor& g) {
                        accumulate_grad(*pa, g.reshaped(original));
                      });
}

namespace {

Tensor permute_tensor(const Tensor& x, const std::vector<std::int64_t>& dims) {
  const auto rank = x.rank();
  DP_REQUIRE(static_cast<std::int64_t>(dims.size()) == rank,
             "permute: dims rank mismatch");
  Shape out_shape(dims.size());
  for (std::size_t i = 0; i < dims.size(); ++i) {
    out_shape[i] = x.dim(dims[i]);
  }
  // Strides of the input, then gather.
  std::vector<std::int64_t> in_strides(static_cast<std::size_t>(rank), 1);
  for (std::int64_t i = rank - 2; i >= 0; --i) {
    in_strides[static_cast<std::size_t>(i)] =
        in_strides[static_cast<std::size_t>(i + 1)] * x.dim(i + 1);
  }
  Tensor out(out_shape);
  std::vector<std::int64_t> idx(static_cast<std::size_t>(rank), 0);
  const auto n = x.numel();
  for (std::int64_t flat = 0; flat < n; ++flat) {
    std::int64_t src = 0;
    for (std::int64_t d = 0; d < rank; ++d) {
      src += idx[static_cast<std::size_t>(d)] *
             in_strides[static_cast<std::size_t>(dims[static_cast<std::size_t>(d)])];
    }
    out[flat] = x[src];
    // Increment the multi-index in output (row-major) order.
    for (std::int64_t d = rank - 1; d >= 0; --d) {
      auto& v = idx[static_cast<std::size_t>(d)];
      if (++v < out_shape[static_cast<std::size_t>(d)]) {
        break;
      }
      v = 0;
    }
  }
  return out;
}

std::vector<std::int64_t> inverse_permutation(
    const std::vector<std::int64_t>& dims) {
  std::vector<std::int64_t> inv(dims.size());
  for (std::size_t i = 0; i < dims.size(); ++i) {
    inv[static_cast<std::size_t>(dims[i])] = static_cast<std::int64_t>(i);
  }
  return inv;
}

}  // namespace

Var permute(const Var& a, std::vector<std::int64_t> dims) {
  // Validate that dims is a permutation.
  std::vector<bool> seen(dims.size(), false);
  for (const auto d : dims) {
    DP_REQUIRE(d >= 0 && d < static_cast<std::int64_t>(dims.size()) &&
                   !seen[static_cast<std::size_t>(d)],
               "permute: dims is not a permutation");
    seen[static_cast<std::size_t>(d)] = true;
  }
  Tensor out = permute_tensor(a.value(), dims);
  if (!graph_needed({&a})) {
    return make_value_node(std::move(out));
  }
  auto pa = a.node();
  auto inv = inverse_permutation(dims);
  return make_op_node(std::move(out), {a},
                      [pa, inv = std::move(inv)](const Tensor& g) {
                        accumulate_grad(*pa, permute_tensor(g, inv));
                      });
}

Var slice_channels(const Var& x, std::int64_t c0, std::int64_t count) {
  const Tensor& v = x.value();
  DP_REQUIRE(v.rank() == 4, "slice_channels: expected [N,C,H,W]");
  const auto n = v.dim(0);
  const auto c = v.dim(1);
  const auto h = v.dim(2);
  const auto w = v.dim(3);
  DP_REQUIRE(c0 >= 0 && count > 0 && c0 + count <= c,
             "slice_channels: range out of bounds");
  Tensor out({n, count, h, w});
  const auto plane = h * w;
  for (std::int64_t i = 0; i < n; ++i) {
    const float* src = v.data() + (i * c + c0) * plane;
    float* dst = out.data() + i * count * plane;
    std::copy(src, src + count * plane, dst);
  }
  if (!graph_needed({&x})) {
    return make_value_node(std::move(out));
  }
  auto pa = x.node();
  return make_op_node(
      std::move(out), {x}, [pa, n, c, h, w, c0, count](const Tensor& g) {
        Tensor full({n, c, h, w}, 0.0F);
        const auto plane = h * w;
        for (std::int64_t i = 0; i < n; ++i) {
          const float* src = g.data() + i * count * plane;
          float* dst = full.data() + (i * c + c0) * plane;
          std::copy(src, src + count * plane, dst);
        }
        accumulate_grad(*pa, full);
      });
}

Var concat_channels(const Var& a, const Var& b) {
  const Tensor& va = a.value();
  const Tensor& vb = b.value();
  DP_REQUIRE(va.rank() == 4 && vb.rank() == 4,
             "concat_channels: expected [N,C,H,W]");
  DP_REQUIRE(va.dim(0) == vb.dim(0) && va.dim(2) == vb.dim(2) &&
                 va.dim(3) == vb.dim(3),
             "concat_channels: non-channel dims mismatch");
  const auto n = va.dim(0);
  const auto ca = va.dim(1);
  const auto cb = vb.dim(1);
  const auto h = va.dim(2);
  const auto w = va.dim(3);
  const auto plane = h * w;
  Tensor out({n, ca + cb, h, w});
  for (std::int64_t i = 0; i < n; ++i) {
    const float* sa = va.data() + i * ca * plane;
    const float* sb = vb.data() + i * cb * plane;
    float* dst = out.data() + i * (ca + cb) * plane;
    std::copy(sa, sa + ca * plane, dst);
    std::copy(sb, sb + cb * plane, dst + ca * plane);
  }
  if (!graph_needed({&a, &b})) {
    return make_value_node(std::move(out));
  }
  auto pa = a.node();
  auto pb = b.node();
  return make_op_node(
      std::move(out), {a, b}, [pa, pb, n, ca, cb, plane](const Tensor& g) {
        if (pa->requires_grad) {
          Tensor ga(pa->value.shape());
          for (std::int64_t i = 0; i < n; ++i) {
            const float* src = g.data() + i * (ca + cb) * plane;
            std::copy(src, src + ca * plane, ga.data() + i * ca * plane);
          }
          accumulate_grad(*pa, ga);
        }
        if (pb->requires_grad) {
          Tensor gb(pb->value.shape());
          for (std::int64_t i = 0; i < n; ++i) {
            const float* src = g.data() + (i * (ca + cb) + ca) * plane;
            std::copy(src, src + cb * plane, gb.data() + i * cb * plane);
          }
          accumulate_grad(*pb, gb);
        }
      });
}

Var add_spatial_broadcast(const Var& x, const Var& bias_nc) {
  const Tensor& v = x.value();
  const Tensor& b = bias_nc.value();
  DP_REQUIRE(v.rank() == 4, "add_spatial_broadcast: x must be [N,C,H,W]");
  DP_REQUIRE(b.rank() == 2 && b.dim(0) == v.dim(0) && b.dim(1) == v.dim(1),
             "add_spatial_broadcast: bias must be [N,C]");
  const auto n = v.dim(0);
  const auto c = v.dim(1);
  const auto plane = v.dim(2) * v.dim(3);
  Tensor out = v;
  const auto& kern = tensor::simd::active();
  tensor::parallel_for(
      0, n * c,
      [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
          float* dst = out.data() + i * plane;
          kern.shift(dst, dst, b[i], plane);
        }
      },
      std::max<std::int64_t>(1, tensor::kElementwiseGrain /
                                    std::max<std::int64_t>(1, plane)));
  if (!graph_needed({&x, &bias_nc})) {
    return make_value_node(std::move(out));
  }
  auto px = x.node();
  auto pb = bias_nc.node();
  return make_op_node(std::move(out), {x, bias_nc},
                      [px, pb, n, c, plane](const Tensor& g) {
                        if (px->requires_grad) {
                          accumulate_grad(*px, g);
                        }
                        if (pb->requires_grad) {
                          Tensor gb({n, c}, 0.0F);
                          for (std::int64_t i = 0; i < n * c; ++i) {
                            const float* src = g.data() + i * plane;
                            for (std::int64_t p = 0; p < plane; ++p) {
                              gb[i] += src[p];
                            }
                          }
                          accumulate_grad(*pb, gb);
                        }
                      });
}

Var detach(const Var& a) { return Var(a.value(), /*requires_grad=*/false); }

// ---- linear algebra --------------------------------------------------------

Var matmul(const Var& a, const Var& b) {
  Tensor out = tensor::matmul(a.value(), b.value());
  if (!graph_needed({&a, &b})) {
    return make_value_node(std::move(out));
  }
  auto pa = a.node();
  auto pb = b.node();
  Tensor av = a.value();
  Tensor bv = b.value();
  return make_op_node(
      std::move(out), {a, b},
      [pa, pb, av = std::move(av), bv = std::move(bv)](const Tensor& g) {
        if (pa->requires_grad) {
          accumulate_grad(*pa, tensor::matmul_transpose_b(g, bv));
        }
        if (pb->requires_grad) {
          accumulate_grad(*pb, tensor::matmul_transpose_a(av, g));
        }
      });
}

namespace {

Tensor slice_batch(const Tensor& t, std::int64_t b) {
  const auto rows = t.dim(1);
  const auto cols = t.dim(2);
  Tensor out({rows, cols});
  const float* src = t.data() + b * rows * cols;
  std::copy(src, src + rows * cols, out.data());
  return out;
}

}  // namespace

Var bmm(const Var& a, const Var& b) {
  const Tensor& va = a.value();
  const Tensor& vb = b.value();
  DP_REQUIRE(va.rank() == 3 && vb.rank() == 3, "bmm: expected rank-3 inputs");
  DP_REQUIRE(va.dim(0) == vb.dim(0), "bmm: batch mismatch");
  DP_REQUIRE(va.dim(2) == vb.dim(1), "bmm: inner dimension mismatch");
  const auto batch = va.dim(0);
  const auto m = va.dim(1);
  const auto n = vb.dim(2);
  Tensor out({batch, m, n});
  const auto k = va.dim(2);
  // One independent GEMM per batch slice, read and written in place; the
  // slice GEMMs run inline inside the per-slice tasks (nested regions
  // serialize), so parallelism comes from the batch axis — the natural
  // grain for the attention scores.
  tensor::parallel_for(0, batch, [&](std::int64_t b0, std::int64_t b1) {
    for (std::int64_t i = b0; i < b1; ++i) {
      tensor::gemm(va.data() + i * m * k, vb.data() + i * k * n,
                   out.data() + i * m * n, m, k, n);
    }
  });
  if (!graph_needed({&a, &b})) {
    return make_value_node(std::move(out));
  }
  auto pa = a.node();
  auto pb = b.node();
  Tensor av = va;
  Tensor bv = vb;
  return make_op_node(
      std::move(out), {a, b},
      [pa, pb, av = std::move(av), bv = std::move(bv), batch, m,
       n](const Tensor& g) {
        const auto k = av.dim(2);
        if (pa->requires_grad) {
          Tensor ga(av.shape());
          tensor::parallel_for(0, batch, [&](std::int64_t b0,
                                             std::int64_t b1) {
            for (std::int64_t i = b0; i < b1; ++i) {
              Tensor gi({m, n});
              std::copy(g.data() + i * m * n, g.data() + (i + 1) * m * n,
                        gi.data());
              Tensor d = tensor::matmul_transpose_b(gi, slice_batch(bv, i));
              std::copy(d.data(), d.data() + m * k, ga.data() + i * m * k);
            }
          });
          accumulate_grad(*pa, ga);
        }
        if (pb->requires_grad) {
          Tensor gb(bv.shape());
          tensor::parallel_for(0, batch, [&](std::int64_t b0,
                                             std::int64_t b1) {
            for (std::int64_t i = b0; i < b1; ++i) {
              Tensor gi({m, n});
              std::copy(g.data() + i * m * n, g.data() + (i + 1) * m * n,
                        gi.data());
              Tensor d = tensor::matmul_transpose_a(slice_batch(av, i), gi);
              std::copy(d.data(), d.data() + k * n, gb.data() + i * k * n);
            }
          });
          accumulate_grad(*pb, gb);
        }
      });
}

Var linear(const Var& x, const Var& w, const Var& b) {
  const Tensor& vx = x.value();
  const Tensor& vw = w.value();
  const Tensor& vb = b.value();
  DP_REQUIRE(vx.rank() == 2, "linear: x must be [N,Fin]");
  DP_REQUIRE(vw.rank() == 2, "linear: w must be [Fout,Fin]");
  DP_REQUIRE(vx.dim(1) == vw.dim(1), "linear: feature mismatch");
  DP_REQUIRE(vb.rank() == 1 && vb.dim(0) == vw.dim(0),
             "linear: bias shape mismatch");
  Tensor out = tensor::matmul_transpose_b(vx, vw);
  const auto n = out.dim(0);
  const auto f = out.dim(1);
  const auto& kern = tensor::simd::active();
  const float* pbias = vb.data();
  for (std::int64_t i = 0; i < n; ++i) {
    kern.add(out.data() + i * f, pbias, f);
  }
  if (!graph_needed({&x, &w, &b})) {
    return make_value_node(std::move(out));
  }
  auto px = x.node();
  auto pw = w.node();
  auto pb = b.node();
  Tensor xc = vx;
  Tensor wc = vw;
  return make_op_node(
      std::move(out), {x, w, b},
      [px, pw, pb, xc = std::move(xc), wc = std::move(wc)](const Tensor& g) {
        if (px->requires_grad) {
          accumulate_grad(*px, tensor::matmul(g, wc));
        }
        if (pw->requires_grad) {
          accumulate_grad(*pw, tensor::matmul_transpose_a(g, xc));
        }
        if (pb->requires_grad) {
          const auto n = g.dim(0);
          const auto f = g.dim(1);
          Tensor gb({f}, 0.0F);
          for (std::int64_t i = 0; i < n; ++i) {
            const float* row = g.data() + i * f;
            for (std::int64_t j = 0; j < f; ++j) {
              gb[j] += row[j];
            }
          }
          accumulate_grad(*pb, gb);
        }
      });
}

Var conv2d(const Var& x, const Var& w, const Var& b, std::int64_t stride,
           std::int64_t padding) {
  const Tensor& vx = x.value();
  const Tensor& vw = w.value();
  const Tensor& vb = b.value();
  DP_REQUIRE(vx.rank() == 4, "conv2d: x must be [N,C,H,W]");
  DP_REQUIRE(vw.rank() == 4, "conv2d: w must be [O,C,kh,kw]");
  DP_REQUIRE(vx.dim(1) == vw.dim(1), "conv2d: channel mismatch");
  DP_REQUIRE(vb.rank() == 1 && vb.dim(0) == vw.dim(0),
             "conv2d: bias shape mismatch");
  DP_REQUIRE(stride >= 1 && padding >= 0, "conv2d: bad stride/padding");
  tensor::Conv2dGeometry geom;
  geom.in_channels = vx.dim(1);
  geom.in_h = vx.dim(2);
  geom.in_w = vx.dim(3);
  geom.kernel_h = vw.dim(2);
  geom.kernel_w = vw.dim(3);
  geom.stride = stride;
  geom.padding = padding;
  const auto batch = vx.dim(0);
  const auto out_ch = vw.dim(0);
  const auto oh = geom.out_h();
  const auto ow = geom.out_w();
  DP_REQUIRE(oh > 0 && ow > 0, "conv2d: output would be empty");

  const auto n_out = oh * ow;
  const auto ncols = batch * n_out;
  const Tensor w2d = vw.reshaped({out_ch, geom.patch_size()});

  // Batch-wide implicit-GEMM convolution: ONE GEMM of the flattened weight
  // against the virtual [C*kh*kw, N*OH*OW] column matrix, whose strips are
  // packed straight from the (zero-padded) input — the column matrix is
  // never built. Each output element accumulates in the same k-ascending
  // order as per-sample im2col + matmul, so fused batches stay bit-equal to
  // batch-1 runs. The GEMM output is thread-local scratch reused across
  // calls; the training closure rebuilds the columns it needs from a copy
  // of the input instead of keeping them alive from the forward.
  static thread_local Tensor t_gemm_scratch;
  Tensor& y = t_gemm_scratch;
  tensor::conv2d_gemm_into(w2d, vx, geom, y);  // [O, N*OH*OW]

  // Scatter to [N, O, OH, OW] with the bias folded in.
  Tensor out({batch, out_ch, oh, ow});
  float* po = out.data();
  const float* py = y.data();
  const float* pbias = vb.data();
  const auto& kern = tensor::simd::active();
  tensor::parallel_for(
      0, batch * out_ch,
      [&](std::int64_t p0, std::int64_t p1) {
        for (std::int64_t idx = p0; idx < p1; ++idx) {
          const auto n = idx / out_ch;
          const auto o = idx % out_ch;
          kern.shift(po + idx * n_out, py + o * ncols + n * n_out, pbias[o],
                     n_out);
        }
      },
      std::max<std::int64_t>(1, tensor::kElementwiseGrain / n_out));

  if (!graph_needed({&x, &w, &b})) {
    return make_value_node(std::move(out));
  }
  auto px = x.node();
  auto pw = w.node();
  auto pb = b.node();
  Tensor xc = vx;
  return make_op_node(
      std::move(out), {x, w, b},
      [px, pw, pb, w2d, geom, batch, out_ch, oh, ow,
       xc = std::move(xc)](const Tensor& g) {
        const auto n_out = oh * ow;
        const auto ncols = batch * n_out;
        // Gather g [N,O,OH,OW] into the GEMM layout [O, N*OH*OW] once; the
        // bias, weight, and input gradients all read it.
        Tensor gy2d({out_ch, ncols});
        const float* pg = g.data();
        float* pgy = gy2d.data();
        tensor::parallel_for(0, out_ch, [&](std::int64_t o0, std::int64_t o1) {
          for (std::int64_t o = o0; o < o1; ++o) {
            for (std::int64_t n = 0; n < batch; ++n) {
              const float* src = pg + (n * out_ch + o) * n_out;
              std::copy(src, src + n_out, pgy + o * ncols + n * n_out);
            }
          }
        });
        if (pb->requires_grad) {
          Tensor gb({out_ch}, 0.0F);
          float* pgb = gb.data();
          tensor::parallel_for(
              0, out_ch, [&](std::int64_t o0, std::int64_t o1) {
                for (std::int64_t o = o0; o < o1; ++o) {
                  const float* row = pgy + o * ncols;
                  for (std::int64_t p = 0; p < ncols; ++p) {
                    pgb[o] += row[p];
                  }
                }
              });
          accumulate_grad(*pb, gb);
        }
        if (pw->requires_grad) {
          // gW2d = gy2d * cols^T over the whole batch in one GEMM.
          Tensor gw2d = tensor::matmul_transpose_b(
              gy2d, tensor::im2col_batch(xc, geom));
          accumulate_grad(*pw, gw2d.reshaped(pw->value.shape()));
        }
        if (px->requires_grad) {
          Tensor gcols = tensor::matmul_transpose_a(w2d, gy2d);
          accumulate_grad(*px, tensor::col2im_batch(gcols, geom, batch));
        }
      });
}

// ---- normalization ---------------------------------------------------------

Var group_norm(const Var& x, const Var& gamma, const Var& beta,
               std::int64_t groups, float eps) {
  const Tensor& v = x.value();
  DP_REQUIRE(v.rank() == 4, "group_norm: expected [N,C,H,W]");
  const auto n = v.dim(0);
  const auto c = v.dim(1);
  const auto h = v.dim(2);
  const auto w = v.dim(3);
  DP_REQUIRE(groups >= 1 && c % groups == 0,
             "group_norm: groups must divide channels");
  DP_REQUIRE(gamma.value().rank() == 1 && gamma.value().dim(0) == c,
             "group_norm: gamma shape mismatch");
  DP_REQUIRE(beta.value().rank() == 1 && beta.value().dim(0) == c,
             "group_norm: beta shape mismatch");
  const auto cg = c / groups;
  const auto group_elems = cg * h * w;
  const auto plane = h * w;

  Tensor xhat(v.shape());
  Tensor inv_std({n, groups});
  Tensor out(v.shape());
  const float* gam = gamma.value().data();
  const float* bet = beta.value().data();
  const auto& kern = tensor::simd::active();
  // One task per (sample, group): the mean/variance reductions and the
  // normalize/affine loop run through the dispatched kernels, whose
  // canonical lane-split accumulation order is fixed — the output is
  // byte-identical for any thread count and any backend.
  tensor::parallel_for(0, n * groups, [&](std::int64_t t0, std::int64_t t1) {
    for (std::int64_t t = t0; t < t1; ++t) {
      const auto i = t / groups;
      const auto g = t % groups;
      const float* src = v.data() + (i * c + g * cg) * plane;
      const double mean =
          kern.sum(src, group_elems) / static_cast<double>(group_elems);
      const double var = kern.sumsq_centered(src, mean, group_elems) /
                         static_cast<double>(group_elems);
      const float istd = static_cast<float>(1.0 / std::sqrt(var + eps));
      inv_std.at({i, g}) = istd;
      float* xh = xhat.data() + (i * c + g * cg) * plane;
      float* dst = out.data() + (i * c + g * cg) * plane;
      for (std::int64_t cc = 0; cc < cg; ++cc) {
        const auto ch = g * cg + cc;
        kern.normalize_affine(src + cc * plane, static_cast<float>(mean),
                              istd, gam[ch], bet[ch], xh + cc * plane,
                              dst + cc * plane, plane);
      }
    }
  });

  if (!graph_needed({&x, &gamma, &beta})) {
    return make_value_node(std::move(out));
  }
  auto px = x.node();
  auto pg = gamma.node();
  auto pb = beta.node();
  Tensor gamma_c = gamma.value();
  return make_op_node(
      std::move(out), {x, gamma, beta},
      [px, pg, pb, xhat = std::move(xhat), inv_std = std::move(inv_std),
       gamma_c = std::move(gamma_c), n, c, groups, cg, plane,
       group_elems](const Tensor& g) {
        if (pg->requires_grad || pb->requires_grad) {
          Tensor ggam({c}, 0.0F);
          Tensor gbet({c}, 0.0F);
          // Parallel over channels; each channel's sample-major accumulation
          // order matches the sequential loop exactly.
          tensor::parallel_for(0, c, [&](std::int64_t c0, std::int64_t c1) {
            for (std::int64_t ch = c0; ch < c1; ++ch) {
              for (std::int64_t i = 0; i < n; ++i) {
                const float* grow = g.data() + (i * c + ch) * plane;
                const float* xrow = xhat.data() + (i * c + ch) * plane;
                for (std::int64_t p = 0; p < plane; ++p) {
                  ggam[ch] += grow[p] * xrow[p];
                  gbet[ch] += grow[p];
                }
              }
            }
          });
          if (pg->requires_grad) accumulate_grad(*pg, ggam);
          if (pb->requires_grad) accumulate_grad(*pb, gbet);
        }
        if (px->requires_grad) {
          Tensor gx(xhat.shape());
          tensor::parallel_for(0, n * groups, [&](std::int64_t t0,
                                                  std::int64_t t1) {
            for (std::int64_t t = t0; t < t1; ++t) {
              const auto i = t / groups;
              const auto gr = t % groups;
              const auto base = (i * c + gr * cg) * plane;
              const float* grow = g.data() + base;
              const float* xrow = xhat.data() + base;
              // dxhat = dy * gamma (per channel)
              double sum_dxhat = 0.0;
              double sum_dxhat_xhat = 0.0;
              for (std::int64_t cc = 0; cc < cg; ++cc) {
                const float gam = gamma_c[gr * cg + cc];
                for (std::int64_t p = 0; p < plane; ++p) {
                  const auto e = cc * plane + p;
                  const float dxh = grow[e] * gam;
                  sum_dxhat += dxh;
                  sum_dxhat_xhat += dxh * xrow[e];
                }
              }
              const float m = static_cast<float>(group_elems);
              const float istd = inv_std.at({i, gr});
              const float mean_dxhat = static_cast<float>(sum_dxhat) / m;
              const float mean_dxhat_xhat =
                  static_cast<float>(sum_dxhat_xhat) / m;
              float* dst = gx.data() + base;
              for (std::int64_t cc = 0; cc < cg; ++cc) {
                const float gam = gamma_c[gr * cg + cc];
                for (std::int64_t p = 0; p < plane; ++p) {
                  const auto e = cc * plane + p;
                  const float dxh = grow[e] * gam;
                  dst[e] = istd * (dxh - mean_dxhat -
                                   xrow[e] * mean_dxhat_xhat);
                }
              }
            }
          });
          accumulate_grad(*px, gx);
        }
      });
}

Var layer_norm(const Var& x, const Var& gamma, const Var& beta, float eps) {
  const Tensor& v = x.value();
  DP_REQUIRE(v.rank() >= 2, "layer_norm: rank must be >= 2");
  const auto f = v.dim(-1);
  const auto rows = v.numel() / f;
  DP_REQUIRE(gamma.value().rank() == 1 && gamma.value().dim(0) == f,
             "layer_norm: gamma shape mismatch");
  DP_REQUIRE(beta.value().rank() == 1 && beta.value().dim(0) == f,
             "layer_norm: beta shape mismatch");
  Tensor xhat(v.shape());
  Tensor inv_std({rows});
  Tensor out(v.shape());
  const float* gam = gamma.value().data();
  const float* bet = beta.value().data();
  const auto& kern = tensor::simd::active();
  // Row-parallel; each row's reductions run through the dispatched kernels
  // (canonical lane-split order, backend- and thread-invariant).
  tensor::parallel_for(
      0, rows,
      [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t r = r0; r < r1; ++r) {
          const float* src = v.data() + r * f;
          const double mean = kern.sum(src, f) / static_cast<double>(f);
          const double var =
              kern.sumsq_centered(src, mean, f) / static_cast<double>(f);
          const float istd = static_cast<float>(1.0 / std::sqrt(var + eps));
          inv_std[r] = istd;
          kern.normalize_affine_rows(src, static_cast<float>(mean), istd,
                                     gam, bet, xhat.data() + r * f,
                                     out.data() + r * f, f);
        }
      },
      std::max<std::int64_t>(1, tensor::kElementwiseGrain /
                                    std::max<std::int64_t>(1, f)));
  if (!graph_needed({&x, &gamma, &beta})) {
    return make_value_node(std::move(out));
  }
  auto px = x.node();
  auto pg = gamma.node();
  auto pb = beta.node();
  Tensor gamma_c = gamma.value();
  return make_op_node(
      std::move(out), {x, gamma, beta},
      [px, pg, pb, xhat = std::move(xhat), inv_std = std::move(inv_std),
       gamma_c = std::move(gamma_c), rows, f](const Tensor& g) {
        if (pg->requires_grad || pb->requires_grad) {
          Tensor ggam({f}, 0.0F);
          Tensor gbet({f}, 0.0F);
          for (std::int64_t r = 0; r < rows; ++r) {
            const float* grow = g.data() + r * f;
            const float* xrow = xhat.data() + r * f;
            for (std::int64_t j = 0; j < f; ++j) {
              ggam[j] += grow[j] * xrow[j];
              gbet[j] += grow[j];
            }
          }
          if (pg->requires_grad) accumulate_grad(*pg, ggam);
          if (pb->requires_grad) accumulate_grad(*pb, gbet);
        }
        if (px->requires_grad) {
          Tensor gx(xhat.shape());
          for (std::int64_t r = 0; r < rows; ++r) {
            const float* grow = g.data() + r * f;
            const float* xrow = xhat.data() + r * f;
            double sum_dxhat = 0.0;
            double sum_dxhat_xhat = 0.0;
            for (std::int64_t j = 0; j < f; ++j) {
              const float dxh = grow[j] * gamma_c[j];
              sum_dxhat += dxh;
              sum_dxhat_xhat += dxh * xrow[j];
            }
            const float istd = inv_std[r];
            const float mean_dxhat =
                static_cast<float>(sum_dxhat / static_cast<double>(f));
            const float mean_dxhat_xhat =
                static_cast<float>(sum_dxhat_xhat / static_cast<double>(f));
            float* dst = gx.data() + r * f;
            for (std::int64_t j = 0; j < f; ++j) {
              const float dxh = grow[j] * gamma_c[j];
              dst[j] = istd * (dxh - mean_dxhat - xrow[j] * mean_dxhat_xhat);
            }
          }
          accumulate_grad(*px, gx);
        }
      });
}

// ---- softmax / reductions ---------------------------------------------------

Var softmax_last(const Var& a) {
  const Tensor& v = a.value();
  DP_REQUIRE(v.rank() >= 1, "softmax_last: rank must be >= 1");
  const auto f = v.dim(-1);
  const auto rows = v.numel() / f;
  Tensor out = tensor::softmax_rows(v.reshaped({rows, f})).reshaped(v.shape());
  if (!graph_needed({&a})) {
    return make_value_node(std::move(out));
  }
  auto pa = a.node();
  Tensor y = out;
  return make_op_node(
      std::move(out), {a},
      [pa, y = std::move(y), rows, f](const Tensor& g) {
        Tensor d(y.shape());
        tensor::parallel_for(
            0, rows,
            [&](std::int64_t r0, std::int64_t r1) {
              for (std::int64_t r = r0; r < r1; ++r) {
                const float* grow = g.data() + r * f;
                const float* yrow = y.data() + r * f;
                double dot = 0.0;
                for (std::int64_t j = 0; j < f; ++j) {
                  dot += grow[j] * yrow[j];
                }
                float* drow = d.data() + r * f;
                for (std::int64_t j = 0; j < f; ++j) {
                  drow[j] = yrow[j] * (grow[j] - static_cast<float>(dot));
                }
              }
            },
            std::max<std::int64_t>(1, tensor::kElementwiseGrain /
                                          std::max<std::int64_t>(1, f)));
        accumulate_grad(*pa, d);
      });
}

Var sum_all(const Var& a) {
  Tensor out = Tensor::scalar(static_cast<float>(tensor::sum(a.value())));
  if (!graph_needed({&a})) {
    return make_value_node(std::move(out));
  }
  auto pa = a.node();
  Shape shape = a.value().shape();
  return make_op_node(std::move(out), {a},
                      [pa, shape = std::move(shape)](const Tensor& g) {
                        Tensor d(shape, g[0]);
                        accumulate_grad(*pa, d);
                      });
}

Var mean_all(const Var& a) {
  const auto n = a.numel();
  DP_REQUIRE(n > 0, "mean_all: empty tensor");
  return scale(sum_all(a), 1.0F / static_cast<float>(n));
}

// ---- resize -----------------------------------------------------------------

Var upsample_nearest2(const Var& x) {
  const Tensor& v = x.value();
  DP_REQUIRE(v.rank() == 4, "upsample_nearest2: expected [N,C,H,W]");
  const auto n = v.dim(0);
  const auto c = v.dim(1);
  const auto h = v.dim(2);
  const auto w = v.dim(3);
  Tensor out({n, c, 2 * h, 2 * w});
  for (std::int64_t i = 0; i < n * c; ++i) {
    const float* src = v.data() + i * h * w;
    float* dst = out.data() + i * 4 * h * w;
    for (std::int64_t y = 0; y < h; ++y) {
      for (std::int64_t xx = 0; xx < w; ++xx) {
        const float val = src[y * w + xx];
        const auto base = (2 * y) * (2 * w) + 2 * xx;
        dst[base] = val;
        dst[base + 1] = val;
        dst[base + 2 * w] = val;
        dst[base + 2 * w + 1] = val;
      }
    }
  }
  if (!graph_needed({&x})) {
    return make_value_node(std::move(out));
  }
  auto px = x.node();
  return make_op_node(std::move(out), {x}, [px, n, c, h, w](const Tensor& g) {
    Tensor d({n, c, h, w});
    for (std::int64_t i = 0; i < n * c; ++i) {
      const float* src = g.data() + i * 4 * h * w;
      float* dst = d.data() + i * h * w;
      for (std::int64_t y = 0; y < h; ++y) {
        for (std::int64_t xx = 0; xx < w; ++xx) {
          const auto base = (2 * y) * (2 * w) + 2 * xx;
          dst[y * w + xx] = src[base] + src[base + 1] + src[base + 2 * w] +
                            src[base + 2 * w + 1];
        }
      }
    }
    accumulate_grad(*px, d);
  });
}

Var avg_pool2(const Var& x) {
  const Tensor& v = x.value();
  DP_REQUIRE(v.rank() == 4, "avg_pool2: expected [N,C,H,W]");
  const auto n = v.dim(0);
  const auto c = v.dim(1);
  const auto h = v.dim(2);
  const auto w = v.dim(3);
  DP_REQUIRE(h % 2 == 0 && w % 2 == 0, "avg_pool2: H and W must be even");
  Tensor out({n, c, h / 2, w / 2});
  for (std::int64_t i = 0; i < n * c; ++i) {
    const float* src = v.data() + i * h * w;
    float* dst = out.data() + i * (h / 2) * (w / 2);
    for (std::int64_t y = 0; y < h / 2; ++y) {
      for (std::int64_t xx = 0; xx < w / 2; ++xx) {
        const auto base = (2 * y) * w + 2 * xx;
        dst[y * (w / 2) + xx] = 0.25F * (src[base] + src[base + 1] +
                                         src[base + w] + src[base + w + 1]);
      }
    }
  }
  if (!graph_needed({&x})) {
    return make_value_node(std::move(out));
  }
  auto px = x.node();
  return make_op_node(std::move(out), {x}, [px, n, c, h, w](const Tensor& g) {
    Tensor d({n, c, h, w});
    for (std::int64_t i = 0; i < n * c; ++i) {
      const float* src = g.data() + i * (h / 2) * (w / 2);
      float* dst = d.data() + i * h * w;
      for (std::int64_t y = 0; y < h / 2; ++y) {
        for (std::int64_t xx = 0; xx < w / 2; ++xx) {
          const float val = 0.25F * src[y * (w / 2) + xx];
          const auto base = (2 * y) * w + 2 * xx;
          dst[base] = val;
          dst[base + 1] = val;
          dst[base + w] = val;
          dst[base + w + 1] = val;
        }
      }
    }
    accumulate_grad(*px, d);
  });
}

// ---- regularization / lookup -------------------------------------------------

Var dropout(const Var& x, float p, bool training, common::Rng& rng) {
  DP_REQUIRE(p >= 0.0F && p < 1.0F, "dropout: p must be in [0, 1)");
  if (!training || p == 0.0F) {
    return x;
  }
  const Tensor& v = x.value();
  Tensor mask(v.shape());
  const float keep_scale = 1.0F / (1.0F - p);
  for (std::int64_t i = 0; i < mask.numel(); ++i) {
    mask[i] = rng.bernoulli(static_cast<double>(p)) ? 0.0F : keep_scale;
  }
  Tensor out = tensor::mul(v, mask);
  if (!graph_needed({&x})) {
    return make_value_node(std::move(out));
  }
  auto px = x.node();
  return make_op_node(std::move(out), {x},
                      [px, mask = std::move(mask)](const Tensor& g) {
                        accumulate_grad(*px, tensor::mul(g, mask));
                      });
}

Var embedding_lookup(const Var& table, const std::vector<std::int64_t>& ids) {
  const Tensor& v = table.value();
  DP_REQUIRE(v.rank() == 2, "embedding_lookup: table must be [V,D]");
  const auto vocab = v.dim(0);
  const auto d = v.dim(1);
  const auto t = static_cast<std::int64_t>(ids.size());
  Tensor out({t, d});
  for (std::int64_t i = 0; i < t; ++i) {
    const auto id = ids[static_cast<std::size_t>(i)];
    DP_REQUIRE(id >= 0 && id < vocab, "embedding_lookup: id out of range");
    std::copy(v.data() + id * d, v.data() + (id + 1) * d, out.data() + i * d);
  }
  if (!graph_needed({&table})) {
    return make_value_node(std::move(out));
  }
  auto pt = table.node();
  std::vector<std::int64_t> ids_copy = ids;
  return make_op_node(
      std::move(out), {table},
      [pt, ids_copy = std::move(ids_copy), vocab, d](const Tensor& g) {
        Tensor gt({vocab, d}, 0.0F);
        for (std::size_t i = 0; i < ids_copy.size(); ++i) {
          const auto id = ids_copy[i];
          const float* src = g.data() + static_cast<std::int64_t>(i) * d;
          float* dst = gt.data() + id * d;
          for (std::int64_t j = 0; j < d; ++j) {
            dst[j] += src[j];
          }
        }
        accumulate_grad(*pt, gt);
      });
}

}  // namespace diffpattern::nn
