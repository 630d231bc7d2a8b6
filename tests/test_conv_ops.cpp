// Tier-1: the threaded conv-pipeline kernels (tensor/conv_ops.h) against
// naive references on odd pad/stride/kernel combos, the col2im
// determinism contract (gather form: no scatter races, no atomics —
// bit-identical for any thread count), max pooling, the fused conv
// forward and the conv backward against the old im2col/GEMM compositions
// (bit-equal at 1, 2 and 5 threads), batched-eval thread bit-identity,
// and the workspace zero-alloc steady-state invariant.
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "core/models/models.h"
#include "core/quant/qlayers.h"
#include "eval/evaluator.h"
#include "tensor/conv_ops.h"
#include "tensor/ops.h"
#include "tensor/parallel_for.h"
#include "tensor/workspace.h"
#include "tests/test_common.h"

using namespace qavat;

// Heap accounting for the steady-state test: every global new/delete in
// this binary goes through these counters (the array and sized forms
// forward here by default).
namespace {
std::atomic<long long> g_heap_allocs{0};  // operator new calls
std::atomic<long long> g_heap_bytes{0};   // bytes requested from new
std::atomic<long long> g_heap_live{0};    // allocations not yet freed
}  // namespace

void* operator new(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  g_heap_bytes.fetch_add(static_cast<long long>(n), std::memory_order_relaxed);
  g_heap_live.fetch_add(1, std::memory_order_relaxed);
  return p;
}
void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  g_heap_live.fetch_sub(1, std::memory_order_relaxed);
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }

namespace {

bool bits_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(float)) == 0;
}

// Naive per-element im2col gather (the algorithm, no schedule).
Tensor naive_im2col(const Tensor& x, const ConvGeom& g) {
  Tensor cols({g.rows(), g.ckk()});
  for (index_t ni = 0; ni < g.n; ++ni) {
    for (index_t y = 0; y < g.oh; ++y) {
      for (index_t xo = 0; xo < g.ow; ++xo) {
        float* row = cols.data() + ((ni * g.oh + y) * g.ow + xo) * g.ckk();
        for (index_t ci = 0; ci < g.c; ++ci) {
          const float* plane = x.data() + (ni * g.c + ci) * g.h * g.w;
          for (index_t ky = 0; ky < g.k; ++ky) {
            const index_t iy = y * g.stride - g.pad + ky;
            for (index_t kx = 0; kx < g.k; ++kx) {
              const index_t ix = xo * g.stride - g.pad + kx;
              const bool in = iy >= 0 && iy < g.h && ix >= 0 && ix < g.w;
              row[(ci * g.k + ky) * g.k + kx] = in ? plane[iy * g.w + ix] : 0.0f;
            }
          }
        }
      }
    }
  }
  return cols;
}

// Naive scatter-add col2im (the PR-2-era serial reference). Run serially
// only — as a scatter over overlapping windows it would race if split
// across threads, which is exactly the hazard the production gather-form
// col2im is restructured to avoid.
Tensor naive_col2im(const Tensor& cols, const ConvGeom& g) {
  Tensor gx({g.n, g.c, g.h, g.w});
  for (index_t ni = 0; ni < g.n; ++ni) {
    for (index_t y = 0; y < g.oh; ++y) {
      for (index_t xo = 0; xo < g.ow; ++xo) {
        const float* row = cols.data() + ((ni * g.oh + y) * g.ow + xo) * g.ckk();
        for (index_t ci = 0; ci < g.c; ++ci) {
          float* plane = gx.data() + (ni * g.c + ci) * g.h * g.w;
          for (index_t ky = 0; ky < g.k; ++ky) {
            const index_t iy = y * g.stride - g.pad + ky;
            if (iy < 0 || iy >= g.h) continue;
            for (index_t kx = 0; kx < g.k; ++kx) {
              const index_t ix = xo * g.stride - g.pad + kx;
              if (ix < 0 || ix >= g.w) continue;
              plane[iy * g.w + ix] += row[(ci * g.k + ky) * g.k + kx];
            }
          }
        }
      }
    }
  }
  return gx;
}

double max_rel_diff(const Tensor& a, const Tensor& b) {
  double m = 0.0;
  for (index_t i = 0; i < a.size(); ++i) {
    const double d = std::fabs(static_cast<double>(a[i]) - b[i]);
    const double s = std::max(1.0, std::fabs(static_cast<double>(b[i])));
    m = std::max(m, d / s);
  }
  return m;
}

ConvGeom geom_of(index_t n, index_t c, index_t h, index_t w, index_t k,
                 index_t stride, index_t pad) {
  ConvGeom g{n, c, h, w, k, stride, pad, 0, 0};
  g.oh = (h + 2 * pad - k) / stride + 1;
  g.ow = (w + 2 * pad - k) / stride + 1;
  return g;
}

void check_im2col_col2im(const ConvGeom& g, Rng& rng) {
  Tensor x({g.n, g.c, g.h, g.w});
  fill_normal(x, rng);

  // im2col is a pure gather: bitwise equal to the naive loop nest.
  Tensor cols;
  im2col(x, g, cols);
  Tensor ref = naive_im2col(x, g);
  CHECK(bits_equal(cols, ref));

  // col2im round trip: the gather form sums the same <= K*K floats per
  // element as the scatter reference, in a different (but fixed) order —
  // equal up to reassociation.
  Tensor dcols({g.rows(), g.ckk()});
  fill_normal(dcols, rng);
  Tensor gx;
  col2im(dcols, g, gx);
  Tensor gref = naive_col2im(dcols, g);
  CHECK(gx.shape() == gref.shape());
  CHECK(max_rel_diff(gx, gref) < 1e-5);

  // Thread bit-identity for both kernels (determinism contract).
  const index_t saved = num_threads();
  set_num_threads(1);
  Tensor cols1, gx1;
  im2col(x, g, cols1);
  col2im(dcols, g, gx1);
  for (index_t nt : {2, 5}) {
    set_num_threads(nt);
    Tensor colsn, gxn;
    im2col(x, g, colsn);
    col2im(dcols, g, gxn);
    CHECK(bits_equal(colsn, cols1));
    CHECK(bits_equal(gxn, gx1));
  }
  set_num_threads(saved);
}

void check_maxpool(Rng& rng) {
  // Odd spatial sizes exercise the floor semantics (trailing rows/cols
  // that do not fill a window are dropped).
  for (index_t h : {8, 7}) {
    const index_t n = 2, c = 3, w = h + 1, k = 2;
    Tensor x({n, c, h, w});
    fill_normal(x, rng);
    Tensor y;
    std::vector<index_t> arg;
    maxpool2d(x, k, y, arg);
    const index_t oh = h / k, ow = w / k;
    CHECK(y.shape() == std::vector<index_t>({n, c, oh, ow}));
    // Reference: direct window max + first-max tie break.
    for (index_t nc = 0; nc < n * c; ++nc) {
      for (index_t oy = 0; oy < oh; ++oy) {
        for (index_t ox = 0; ox < ow; ++ox) {
          index_t best = (oy * k) * w + ox * k;
          float bv = x[nc * h * w + best];
          for (index_t dy = 0; dy < k; ++dy) {
            for (index_t dx = 0; dx < k; ++dx) {
              const index_t idx = (oy * k + dy) * w + ox * k + dx;
              if (x[nc * h * w + idx] > bv) {
                bv = x[nc * h * w + idx];
                best = idx;
              }
            }
          }
          const index_t oi = nc * oh * ow + oy * ow + ox;
          CHECK(y[oi] == bv);
          CHECK(arg[static_cast<std::size_t>(oi)] == nc * h * w + best);
        }
      }
    }
    // Backward scatters gy through argmax; everything else is zero.
    Tensor gy(y.shape());
    fill_normal(gy, rng);
    Tensor gx;
    maxpool2d_backward(gy, arg, x.shape(), gx);
    double sum_gx = 0.0, sum_gy = 0.0;
    for (index_t i = 0; i < gx.size(); ++i) sum_gx += gx[i];
    for (index_t i = 0; i < gy.size(); ++i) sum_gy += gy[i];
    CHECK(std::fabs(sum_gx - sum_gy) < 1e-3);
    for (index_t i = 0; i < gy.size(); ++i) {
      CHECK(gx[arg[static_cast<std::size_t>(i)]] == gy[i]);
    }
    // Thread bit-identity.
    const index_t saved = num_threads();
    for (index_t nt : {1, 2, 5}) {
      set_num_threads(nt);
      Tensor yn, gxn;
      std::vector<index_t> argn;
      maxpool2d(x, k, yn, argn);
      maxpool2d_backward(gy, argn, x.shape(), gxn);
      CHECK(bits_equal(yn, y));
      CHECK(argn == arg);
      CHECK(bits_equal(gxn, gx));
    }
    set_num_threads(saved);
  }
}

// Full conv layer forward+backward must be bit-identical for any thread
// count: output, input gradient, weight and bias gradients.
void check_conv_layer_thread_identity(Rng& rng) {
  const index_t saved = num_threads();
  Tensor x({4, 3, 11, 11});
  fill_normal(x, rng);

  auto run = [&](index_t nt, Tensor& y, Tensor& gx, Tensor& wg, Tensor& bg) {
    set_num_threads(nt);
    Rng wrng(7);  // same init per thread count
    QuantConv2d conv(3, 8, 3, 2, 1, 4, 2, wrng);
    conv.refresh_weight_scale();
    conv.act_quantizer().set_scale(0.2f);
    conv.set_training(true);
    conv.weight().ensure_grad();
    conv.weight().grad.zero();
    conv.bias().ensure_grad();
    conv.bias().grad.zero();
    y = conv.forward(x);
    Tensor gy(y.shape());
    Rng grng(9);
    fill_normal(gy, grng);
    gx = conv.backward(gy);
    wg = conv.weight().grad;
    bg = conv.bias().grad;
  };

  Tensor y1, gx1, wg1, bg1;
  run(1, y1, gx1, wg1, bg1);
  for (index_t nt : {2, 5}) {
    Tensor y, gx, wg, bg;
    run(nt, y, gx, wg, bg);
    CHECK(bits_equal(y, y1));
    CHECK(bits_equal(gx, gx1));
    CHECK(bits_equal(wg, wg1));
    CHECK(bits_equal(bg, bg1));
  }
  set_num_threads(saved);
}

// One conv layer configuration for the backward oracle checks.
struct ConvCase {
  index_t n, cin, cout, h, w, k, stride, pad;
};

struct ConvGrads {
  Tensor gx, wg, bg;
};

// The layer for `c` with nonzero running gradients (as after earlier
// variation samples of a step), so backward's accumulation onto them is
// checked too.
std::unique_ptr<QuantConv2d> make_case_conv(const ConvCase& c) {
  Rng wrng(7);
  auto conv = std::make_unique<QuantConv2d>(c.cin, c.cout, c.k, c.stride,
                                            c.pad, 4, 2, wrng);
  conv->refresh_weight_scale();
  conv->act_quantizer().set_scale(0.2f);
  conv->set_training(true);
  conv->weight().ensure_grad();
  fill_normal(conv->weight().grad, wrng);
  conv->bias().ensure_grad();
  fill_normal(conv->bias().grad, wrng);
  return conv;
}

// The conv backward as it was before the per-image rewrite, composed
// from the public kernels: permute gy to {N*OH*OW, cout}, a serial
// ascending-row bias reduction, matmul_tn for the weight gradient,
// matmul + col2im for the input gradient, then the STE masks — each
// parameter gradient accumulated onto the layer's running value exactly
// as the layer does. Uses the layer's post-forward state (weights,
// weight scale, observed activation scale, running gradients), which is
// what its own backward sees.
ConvGrads oracle_conv_backward(QuantConv2d& conv, const ConvCase& c,
                               const Tensor& x, const Tensor& gy) {
  const ConvGeom g = geom_of(c.n, c.cin, c.h, c.w, c.k, c.stride, c.pad);
  Tensor xq, xmask;
  conv.act_quantizer().quantize(x, xq, &xmask);
  Tensor weff, wmask;
  quantize_dequantize(conv.weight().value, conv.weight_scale(),
                      conv.weight_bits(), weff, &wmask);
  Tensor cols;
  im2col(xq, g, cols);
  const index_t ohw = g.oh * g.ow, cout = c.cout;
  Tensor gy2d({g.rows(), cout});
  for (index_t r = 0; r < g.rows(); ++r) {
    const index_t ni = r / ohw, pos = r % ohw;
    for (index_t co = 0; co < cout; ++co) {
      gy2d[r * cout + co] = gy[(ni * cout + co) * ohw + pos];
    }
  }
  ConvGrads o;
  o.bg = conv.bias().grad;
  for (index_t r = 0; r < g.rows(); ++r) {
    for (index_t co = 0; co < cout; ++co) o.bg[co] += gy2d[r * cout + co];
  }
  Tensor dw;
  matmul_tn_into(gy2d, cols, dw);
  o.wg = conv.weight().grad;
  for (index_t i = 0; i < dw.size(); ++i) o.wg[i] += dw[i] * wmask[i];
  Tensor dcols;
  matmul_into(gy2d, weff, dcols);
  col2im(dcols, g, o.gx);
  for (index_t i = 0; i < o.gx.size(); ++i) o.gx[i] *= xmask[i];
  return o;
}

// QuantConv2d::backward must be bit-equal to the oracle — weight, bias
// and input gradients — at 1, 2 and 5 threads; with the input gradient
// switched off (a model's first layer) it returns an empty tensor and
// leaves the parameter gradients unchanged.
void check_conv_backward_oracle(const ConvCase& c, std::uint64_t seed) {
  const ConvGeom g = geom_of(c.n, c.cin, c.h, c.w, c.k, c.stride, c.pad);
  Rng rng(seed);
  Tensor x({c.n, c.cin, c.h, c.w});
  fill_normal(x, rng);
  Tensor gy({c.n, c.cout, g.oh, g.ow});
  fill_normal(gy, rng);

  auto ref_conv = make_case_conv(c);
  ref_conv->forward(x);
  const ConvGrads ref = oracle_conv_backward(*ref_conv, c, x, gy);

  const index_t saved = num_threads();
  for (index_t nt : {1, 2, 5}) {
    set_num_threads(nt);
    for (bool input_grad : {true, false}) {
      auto conv = make_case_conv(c);
      conv->set_input_grad(input_grad);
      conv->forward(x);
      const Tensor gx = conv->backward(gy);
      bool ok = bits_equal(conv->weight().grad, ref.wg) &&
                bits_equal(conv->bias().grad, ref.bg);
      ok = ok && (input_grad ? bits_equal(gx, ref.gx) : gx.size() == 0);
      if (!ok) {
        std::printf("FAIL conv backward vs oracle: n%lld c%lld->%lld %lldx%lld "
                    "k%lld s%lld p%lld threads %lld input_grad %d\n",
                    c.n, c.cin, c.cout, c.h, c.w, c.k, c.stride, c.pad, nt,
                    input_grad ? 1 : 0);
        ++qavat::test::failures;
      }
    }
  }
  set_num_threads(saved);
}

// Every conv layer of the three models (batch 8; the 16x16 ResNet block
// also at the training batch of 32): OH*OW from 16 to 256, fan-outs 8 to
// 32, the 1x1 projection, and shapes big enough to take the threaded
// paths.
std::vector<ConvCase> model_conv_cases() {
  return {
      {8, 1, 8, 12, 12, 3, 1, 1},  {8, 8, 16, 6, 6, 3, 1, 1},     // lenet5s
      {8, 3, 16, 16, 16, 3, 1, 1}, {8, 16, 32, 8, 8, 3, 1, 1},    // vgg11s
      {8, 32, 32, 4, 4, 3, 1, 1},                                 //
      {8, 16, 16, 16, 16, 3, 1, 1}, {32, 16, 16, 16, 16, 3, 1, 1},  // resnet18s
      {8, 16, 32, 8, 8, 3, 1, 1},  {8, 32, 32, 8, 8, 3, 1, 1},    //
      {8, 16, 32, 8, 8, 1, 1, 0},
  };
}

// Odd shapes: every k in {1,2,3,5} x stride in {1,2,3} x pad in {0,1,2}
// on a small image (OH*OW below 64) and a larger non-square one (above
// 64 at stride 1), odd channel counts (ragged 4-row bands and 32-column
// tiles), plus two with 13 and 9 output channels, one big enough to
// thread.
std::vector<ConvCase> odd_conv_cases() {
  std::vector<ConvCase> cases;
  for (index_t k : {1, 2, 3, 5}) {
    for (index_t stride : {1, 2, 3}) {
      for (index_t pad : {0, 1, 2}) {
        for (index_t side : {7, 19}) {
          const ConvCase c{3, 3, 5, side, side - 2, k, stride, pad};
          if (c.h + 2 * pad < k || c.w + 2 * pad < k) continue;
          cases.push_back(c);
        }
      }
    }
  }
  cases.push_back({6, 5, 13, 23, 21, 5, 1, 2});
  cases.push_back({5, 7, 9, 11, 13, 2, 1, 0});
  return cases;
}

void check_conv_backward_shapes() {
  std::uint64_t seed = 100;
  int cases = 0;
  for (const ConvCase& c : model_conv_cases()) {
    check_conv_backward_oracle(c, seed++);
    ++cases;
  }
  for (const ConvCase& c : odd_conv_cases()) {
    check_conv_backward_oracle(c, seed++);
    ++cases;
  }
  CHECK(cases == 10 + 72 + 2);
}

// The conv forward as it was before the fused kernel, composed from the
// public kernels: quantize the whole input, im2col, the plain / batched /
// shared NT GEMM into {rows, cout}, the per-slot correction (scale() for
// a gain; per row the ascending row sum of cols, its product with the
// slot's offset, then one subtraction per element), then the permute to
// NCHW plus the bias. `cols` receives the im2col matrix.
Tensor oracle_conv_forward(const Tensor& x, const ConvGeom& g, const Tensor& w,
                           const ConvForward& f, Tensor& cols) {
  Tensor xq = x;
  if (f.act_scale > 0.0f) {
    ActQuantizer aq(4);
    CHECK(unsigned_qmax(aq.bits()) == f.act_qmax);
    aq.set_scale(f.act_scale);
    aq.quantize(x, xq, nullptr);
  }
  im2col(xq, g, cols);
  Tensor y2d;
  if (f.groups == 1) {
    matmul_nt_into(cols, w, y2d);
  } else if (f.shared) {
    matmul_nt_shared_into(cols, w, f.groups, y2d);
  } else {
    matmul_nt_batched_into(cols, w, f.groups, y2d);
  }
  const index_t cout = y2d.dim(1), rows = y2d.dim(0);
  const index_t rows_per = rows / f.groups, ckk = g.ckk();
  for (index_t slot = 0; slot < f.groups; ++slot) {
    float* ys = y2d.data() + slot * rows_per * cout;
    if (f.gain != nullptr) scale(ys, rows_per * cout, f.gain[slot]);
    if (f.offset == nullptr) continue;
    for (index_t r = 0; r < rows_per; ++r) {
      const index_t cr = f.shared ? r : slot * rows_per + r;
      float sum = 0.0f;
      for (index_t p = 0; p < ckk; ++p) sum += cols[cr * ckk + p];
      const float off = f.offset[slot] * sum;
      for (index_t co = 0; co < cout; ++co) ys[r * cout + co] -= off;
    }
  }
  const index_t ohw = g.oh * g.ow;
  Tensor y({rows / ohw, cout, g.oh, g.ow});
  for (index_t r = 0; r < rows; ++r) {
    const index_t ni = r / ohw, pos = r % ohw;
    for (index_t co = 0; co < cout; ++co) {
      y[(ni * cout + co) * ohw + pos] = y2d[r * cout + co] + f.bias[co];
    }
  }
  return y;
}

// conv2d_forward must be bit-equal to the oracle composition at 1, 2 and
// 5 threads, for every chip layout (nb 1; nb 3 unshared and shared),
// correction (none, gain, offset) and gather (raw, quantizing), and the
// rows it keeps in `cols` must equal im2col of the quantized input.
// `per_chip` images per chip slot.
void check_conv_forward_oracle(const ConvCase& c, index_t per_chip,
                               std::uint64_t seed) {
  Rng rng(seed);
  const index_t saved = num_threads();
  int bad = 0;
  for (index_t nb : {1, 3}) {
    for (bool shared : {false, true}) {
      if (nb == 1 && shared) continue;
      // The shared layout gathers one block of per_chip images; the
      // unshared one all nb blocks.
      const ConvGeom g = geom_of(shared ? per_chip : nb * per_chip, c.cin,
                                 c.h, c.w, c.k, c.stride, c.pad);
      Tensor x({nb * per_chip, c.cin, c.h, c.w});
      fill_normal(x, rng);
      if (shared) {  // nb identical chip blocks, as the layer detects them
        const index_t block = x.size() / nb;
        for (index_t i = block; i < x.size(); ++i) x[i] = x[i % block];
      }
      Tensor w({nb * c.cout, g.ckk()});
      fill_normal(w, rng, 0.0, 0.3);
      Tensor bias({c.cout});
      fill_normal(bias, rng);
      std::vector<float> gain(static_cast<std::size_t>(nb));
      std::vector<float> offset(static_cast<std::size_t>(nb));
      for (index_t b = 0; b < nb; ++b) {
        gain[static_cast<std::size_t>(b)] =
            1.0f / (1.0f + static_cast<float>(rng.normal(0.0, 0.1)));
        offset[static_cast<std::size_t>(b)] =
            static_cast<float>(rng.normal(0.0, 0.05));
      }
      for (int corr = 0; corr < 3; ++corr) {
        for (bool quant : {false, true}) {
          ConvForward f;
          f.act_scale = quant ? 0.17f : 0.0f;
          f.act_qmax = unsigned_qmax(4);
          f.groups = nb;
          f.shared = shared;
          f.bias = bias.data();
          f.gain = corr == 1 ? gain.data() : nullptr;
          f.offset = corr == 2 ? offset.data() : nullptr;
          set_num_threads(saved);
          Tensor ref_cols;
          const Tensor ref = oracle_conv_forward(x, g, w, f, ref_cols);
          for (index_t nt : {1, 2, 5}) {
            set_num_threads(nt);
            // Training keeps the gathered rows; every other call stores
            // none.
            const bool keep = nb == 1 || nt == 2;
            Tensor y, cols;
            conv2d_forward(x, g, w, f, keep ? &cols : nullptr, y);
            if (!bits_equal(y, ref) || (keep && !bits_equal(cols, ref_cols))) {
              if (bad++ == 0) {
                std::printf("FAIL conv forward vs oracle: n%lld c%lld->%lld "
                            "%lldx%lld k%lld s%lld p%lld nb %lld shared %d "
                            "corr %d quant %d threads %lld\n",
                            g.n, c.cin, c.cout, c.h, c.w, c.k, c.stride, c.pad,
                            nb, shared ? 1 : 0, corr, quant ? 1 : 0, nt);
              }
            }
          }
        }
      }
    }
  }
  set_num_threads(saved);
  qavat::test::failures += bad;
}

void check_conv_forward_shapes() {
  std::uint64_t seed = 500;
  int cases = 0;
  for (const ConvCase& c : model_conv_cases()) {
    check_conv_forward_oracle(c, std::max<index_t>(1, c.n / 3), seed++);
    ++cases;
  }
  for (const ConvCase& c : odd_conv_cases()) {
    check_conv_forward_oracle(c, 2, seed++);
    ++cases;
  }
  CHECK(cases == 10 + 72 + 2);
  // Operands that disagree throw.
  const ConvGeom g = geom_of(2, 3, 6, 6, 3, 1, 1);
  Tensor x({2, 3, 6, 6}), w({4, g.ckk()}), bias({4}), y;
  ConvForward f;
  f.bias = bias.data();
  f.groups = 3;  // 4 weight rows do not split into 3 slots
  bool threw = false;
  try {
    conv2d_forward(x, g, w, f, nullptr, y);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);
}

// A steady-state conv forward allocates nothing big but the output it
// returns — the fused kernel keeps no im2col matrix in inference and
// writes training's rows into the layer's cols_ — and a steady-state
// backward nothing big but the gradient it returns: its channel-major
// copy and weight gradient are workspace slots and its per-thread slabs
// persist (none of it when the input gradient is skipped). Only small
// shape vectors reach the heap beside. At one thread, so every slab and
// packed panel belongs to this thread.
void check_conv_allocation() {
  const index_t saved = num_threads();
  set_num_threads(1);
  const ConvCase c{8, 16, 16, 16, 16, 3, 1, 1};
  const ConvGeom g = geom_of(c.n, c.cin, c.h, c.w, c.k, c.stride, c.pad);
  Rng rng(55);
  Tensor x({c.n, c.cin, c.h, c.w});
  fill_normal(x, rng);
  Tensor gy({c.n, c.cout, g.oh, g.ow});
  fill_normal(gy, rng);
  const long long y_bytes = static_cast<long long>(gy.size() * sizeof(float));
  for (bool input_grad : {true, false}) {
    auto conv = make_case_conv(c);
    conv->set_input_grad(input_grad);
    conv->forward(x);
    conv->backward(gy);  // warm-up: workspace slots and slabs sized
    long long b0 = g_heap_bytes.load();
    conv->forward(x);
    long long bytes = g_heap_bytes.load() - b0;
    CHECK(bytes >= y_bytes && bytes <= y_bytes + 1024);
    b0 = g_heap_bytes.load();
    const Tensor gx = conv->backward(gy);
    bytes = g_heap_bytes.load() - b0;
    const long long gx_bytes =
        input_grad ? static_cast<long long>(x.size() * sizeof(float)) : 0;
    CHECK(gx.size() == (input_grad ? x.size() : 0));
    CHECK(bytes >= gx_bytes);
    CHECK(bytes <= gx_bytes + 1024);
  }
  // Inference, plain and with a chip batch of 3 under the offset
  // correction: again only the returned output.
  for (index_t nb : {1, 3}) {
    auto conv = make_case_conv(c);
    conv->set_training(false);
    Tensor xb({nb * c.n, c.cin, c.h, c.w});
    fill_normal(xb, rng);
    if (nb > 1) {
      NoiseState& ns = conv->noise_state();
      ns.active = true;
      ns.batch = nb;
      ns.eps.resize({nb * c.cout, g.ckk()});
      fill_normal(ns.eps, rng, 0.0, 0.05);
      ns.eps_b_v.assign(static_cast<std::size_t>(nb), 0.01f);
      ns.eps_hat_v.assign(static_cast<std::size_t>(nb), 0.02f);
      ns.ltm_err_v.assign(static_cast<std::size_t>(nb), 0.0f);
      ns.correction = CorrectionKind::kOffset;
      ++ns.revision;
    }
    conv->forward(xb);
    const long long b0 = g_heap_bytes.load();
    const Tensor y = conv->forward(xb);
    const long long bytes = g_heap_bytes.load() - b0;
    const auto out_bytes = static_cast<long long>(y.size() * sizeof(float));
    CHECK(y.dim(0) == nb * c.n);
    CHECK(bytes >= out_bytes && bytes <= out_bytes + 1024);
  }
  set_num_threads(saved);
}

// The first layer of every model skips its input gradient; that must
// leave every parameter gradient bit-identical to a backward that
// computes it.
void check_first_layer_skip() {
  for (ModelKind kind :
       {ModelKind::kLeNet5s, ModelKind::kVGG11s, ModelKind::kResNet18s}) {
    ModelConfig mcfg;
    if (kind != ModelKind::kLeNet5s) {
      mcfg.in_channels = 3;
      mcfg.image_size = 16;
    }
    Rng rng(31);
    Tensor x({8, mcfg.in_channels, mcfg.image_size, mcfg.image_size});
    fill_normal(x, rng);
    std::vector<index_t> labels(8);
    for (auto& l : labels) l = rng.below(mcfg.num_classes);

    auto grads = [&](bool skip) {
      auto model = make_model(kind, mcfg);
      std::vector<QuantLayerBase*> q = model->quant_layers();
      CHECK(!q[0]->input_grad());
      for (std::size_t i = 1; i < q.size(); ++i) CHECK(q[i]->input_grad());
      if (!skip) q[0]->set_input_grad(true);
      for (QuantLayerBase* l : q) l->refresh_weight_scale();
      model->set_training(true);
      model->zero_grad();
      Tensor logits = model->forward(x);
      Tensor g;
      softmax_xent(logits, labels, &g, nullptr);
      model->backward(g);
      std::vector<Tensor> out;
      for (Param* p : model->parameters()) out.push_back(p->grad);
      return out;
    };
    const std::vector<Tensor> skipped = grads(true);
    const std::vector<Tensor> full = grads(false);
    CHECK(skipped.size() == full.size());
    for (std::size_t i = 0; i < skipped.size() && i < full.size(); ++i) {
      CHECK(bits_equal(skipped[i], full[i]));
    }
  }
}

// Batched Monte-Carlo evaluation: per-chip accuracies must be identical
// for any thread count (and match the sequential chip loop, which
// test_eval_batched already pins down).
void check_batched_eval_thread_identity() {
  const index_t saved = num_threads();
  SynthDigitsConfig dcfg;
  dcfg.n_train = 8;
  dcfg.n_test = 48;
  SplitDataset data = make_synth_digits(dcfg);
  ModelConfig mcfg;
  auto model = make_model(ModelKind::kLeNet5s, mcfg);
  for (QuantLayerBase* q : model->quant_layers()) {
    q->refresh_weight_scale();
    q->act_quantizer().set_scale(0.25f);
  }
  model->set_training(false);
  const VariabilityConfig vcfg =
      VariabilityConfig::mixed(VarianceModel::kWeightProportional, 0.4);
  EvalConfig ecfg;
  ecfg.n_chips = 5;
  ecfg.max_test_samples = 48;
  ecfg.chip_batch = 4;  // one full group of 4 + a ragged single-chip tail

  set_num_threads(1);
  EvalStats ref = evaluate_under_variability(*model, data.test, vcfg, ecfg);
  for (index_t nt : {2, 5}) {
    set_num_threads(nt);
    EvalStats stats = evaluate_under_variability(*model, data.test, vcfg, ecfg);
    CHECK(stats.per_chip_acc == ref.per_chip_acc);
  }
  set_num_threads(saved);
}

// Zero-alloc steady state: after the first forward/backward sized the
// workspace (and the conv backward's per-thread slabs), repeated
// same-shape passes must not grow it — and, at one thread (pool dormant,
// so every allocation counted is the pipeline's own), must make the same
// heap allocations every pass and leave none behind.
void check_workspace_steady_state(ModelKind kind, Rng& rng) {
  ModelConfig mcfg;
  if (kind != ModelKind::kLeNet5s) {
    mcfg.in_channels = 3;
    mcfg.image_size = 16;
  }
  auto model = make_model(kind, mcfg);
  for (QuantLayerBase* q : model->quant_layers()) {
    q->refresh_weight_scale();
    q->act_quantizer().set_scale(0.25f);
  }
  model->set_training(true);
  Tensor x({8, mcfg.in_channels, mcfg.image_size, mcfg.image_size});
  fill_normal(x, rng);
  std::vector<index_t> labels(8, 3);

  auto pass = [&] {
    model->zero_grad();
    Tensor logits = model->forward(x);
    Tensor grad;
    softmax_xent(logits, labels, &grad, nullptr);
    model->backward(grad);
  };
  pass();
  const std::size_t warm = model->workspace().retained_bytes();
  CHECK(warm > 0);
  pass();
  pass();
  CHECK(model->workspace().retained_bytes() == warm);

  // Heap: the per-pass allocation count and the live count are stable.
  const index_t saved = num_threads();
  set_num_threads(1);
  pass();  // warm the calling thread's slabs at this budget
  auto counted_pass = [&](long long* allocs, long long* live) {
    const long long a0 = g_heap_allocs.load();
    pass();
    *allocs = g_heap_allocs.load() - a0;
    *live = g_heap_live.load();
  };
  long long allocs1 = 0, live1 = 0, allocs2 = 0, live2 = 0;
  counted_pass(&allocs1, &live1);
  counted_pass(&allocs2, &live2);
  CHECK(allocs1 == allocs2);
  CHECK(live1 == live2);
  set_num_threads(saved);

  // The QAVAT_WORKSPACE_MB cap is enforced by trim().
  model->workspace().trim(0);
  CHECK(model->workspace().retained_bytes() == 0);
  pass();  // re-grows transparently
  CHECK(model->workspace().retained_bytes() == warm);

  // Same invariant on the inference path (calibrated quantizer, fused /
  // quantize-into-scratch gathers — different slots than training).
  model->set_training(false);
  auto eval_pass = [&] {
    Tensor logits = model->forward(x);
    CHECK(logits.dim(0) == 8);
  };
  eval_pass();
  const std::size_t eval_warm = model->workspace().retained_bytes();
  CHECK(eval_warm > 0);
  eval_pass();
  eval_pass();
  CHECK(model->workspace().retained_bytes() == eval_warm);
}

}  // namespace

int main() {
  Rng rng(1234);

  // Odd pad/stride/kernel combos around the common 3x3-s1-p1 case,
  // including k > h, pad 2, stride 3, non-square images and 1x1 kernels.
  const index_t combos[][7] = {
      // n, c, h, w, k, stride, pad
      {2, 3, 12, 12, 3, 1, 1}, {1, 1, 5, 7, 3, 2, 1},  {3, 2, 9, 6, 2, 2, 0},
      {1, 4, 7, 7, 5, 1, 2},   {2, 1, 6, 11, 1, 1, 0}, {1, 2, 8, 8, 3, 3, 2},
      {4, 3, 11, 11, 3, 2, 1}, {1, 1, 4, 4, 5, 1, 2},
      // k > w + pad reaches taps no output window can supply at stride 2
      // (col2im's truncating-division edge: a negative xo numerator must
      // skip the tap, not clamp to xo = 0).
      {1, 1, 2, 2, 5, 2, 2},
      // pad >= k puts whole windows left or right of the image: the
      // gather must zero exactly its own row (an unclamped tap bound
      // once zeroed a neighbouring row's last element).
      {1, 2, 5, 5, 1, 2, 2}, {2, 3, 4, 7, 1, 3, 2}, {1, 2, 6, 5, 2, 3, 2},
  };
  for (const auto& s : combos) {
    const ConvGeom g = geom_of(s[0], s[1], s[2], s[3], s[4], s[5], s[6]);
    check_im2col_col2im(g, rng);
  }

  check_maxpool(rng);
  check_conv_layer_thread_identity(rng);
  check_conv_backward_shapes();
  check_conv_forward_shapes();
  check_first_layer_skip();
  check_conv_allocation();
  check_batched_eval_thread_identity();
  check_workspace_steady_state(ModelKind::kLeNet5s, rng);
  check_workspace_steady_state(ModelKind::kResNet18s, rng);

  return qavat::test::finish("test_conv_ops");
}
