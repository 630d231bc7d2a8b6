#include "tensor/conv_ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "tensor/gemm_tile.h"
#include "tensor/parallel_for.h"

namespace qavat {

namespace {

// Thread grain targets, mirroring the GEMM constants in ops.cpp: chunks
// carry at least kMinElemsPerChunk elements of traffic and ranges below
// kSerialElems never fork. Both are pure functions of shape, so the
// fork-or-not decision (and therefore the code path) never depends on the
// thread count.
constexpr index_t kMinElemsPerChunk = index_t{1} << 15;
constexpr index_t kSerialElems = index_t{1} << 17;

// GEMM-shaped kernels (fused forward, conv backward) mirror the
// tensor/ops.cpp grains: chunks carry at least kMinMacsPerChunk MACs and
// problems below kSerialMacs never fork — pure functions of shape, so the
// split never depends on the thread count.
constexpr index_t kMinMacsPerChunk = index_t{1} << 19;
constexpr index_t kSerialMacs = index_t{1} << 21;

inline index_t grain_for(index_t per_item) {
  return std::max<index_t>(1, (kMinElemsPerChunk + per_item - 1) / per_item);
}

// Lanes moved per tap-run copy in the interior gather (kernel sides 2, 3).
constexpr index_t kRunWidth = 4;

// One im2col output row (one output position): gather the C*K*K window,
// zero-padding out-of-image taps, applying `xf` to every in-image value.
// KS is the compile-time kernel size (0 = runtime-sized fallback): with a
// constant trip count the per-tap loops fully unroll, which is what makes
// the gather bandwidth-bound instead of loop-overhead-bound at the small
// K (1/2/3/5) every model here uses. Interior positions (no clipping)
// take a branch-free path.
template <index_t KS, typename Xf>
inline void gather_row(const float* px, const ConvGeom& g, float* row,
                       index_t ni, index_t y, index_t xo, const Xf& xf) {
  const index_t k = KS > 0 ? KS : g.k;
  const index_t h = g.h, w = g.w, c = g.c;
  const index_t iy0 = y * g.stride - g.pad;
  const index_t ix0 = xo * g.stride - g.pad;
  if (iy0 >= 0 && iy0 + k <= h && ix0 >= 0 && ix0 + k <= w) {
    const float* base = px + ni * c * h * w + iy0 * w + ix0;
    // Offset of the row's last tap run in x.
    const index_t last_run =
        ((ni + 1) * c - 1) * h * w + (iy0 + k - 1) * w + ix0;
    if (KS > 1 && KS < kRunWidth && last_run + kRunWidth <= g.n * c * h * w) {
      // Each k-tap run moves as one kRunWidth-lane copy: its surplus lanes
      // land in the next run's slots, which that run overwrites, and the
      // row's last run is exact, so nothing past the row is written. The
      // guard keeps the read-ahead inside the gathered images.
      auto wide = [&xf](const float* s, float* d) {
        float v[kRunWidth];
        for (index_t j = 0; j < kRunWidth; ++j) v[j] = xf(s[j]);
        for (index_t j = 0; j < kRunWidth; ++j) d[j] = v[j];
      };
      for (index_t ci = 0; ci < c; ++ci) {
        const float* src = base + ci * h * w;
        float* dst = row + ci * k * k;
        for (index_t ky = 0; ky < k; ++ky) {
          const float* s = src + ky * w;
          float* d = dst + ky * k;
          if (ci + 1 < c || ky + 1 < k) {
            wide(s, d);
          } else {
            for (index_t kx = 0; kx < k; ++kx) d[kx] = xf(s[kx]);
          }
        }
      }
      return;
    }
    for (index_t ci = 0; ci < c; ++ci) {
      const float* src = base + ci * h * w;
      float* dst = row + ci * k * k;
      for (index_t ky = 0; ky < k; ++ky) {
        const float* s = src + ky * w;
        float* d = dst + ky * k;
        for (index_t kx = 0; kx < k; ++kx) d[kx] = xf(s[kx]);
      }
    }
    return;
  }
  // Clipped window: each tap selects the in-image value or the zero
  // padding. The read index is clamped into the row, so no pointer ever
  // leaves the image (ix0 can be negative, or past the row when pad >= k),
  // and the unrolled taps carry no data-dependent branch.
  for (index_t ci = 0; ci < c; ++ci) {
    const float* plane = px + (ni * c + ci) * h * w;
    for (index_t ky = 0; ky < k; ++ky) {
      float* dst = row + (ci * k + ky) * k;
      const index_t iy = iy0 + ky;
      if (iy < 0 || iy >= h) {
        for (index_t kx = 0; kx < k; ++kx) dst[kx] = 0.0f;
        continue;
      }
      const float* srow = plane + iy * w;
      for (index_t kx = 0; kx < k; ++kx) {
        const index_t ix = ix0 + kx;
        const bool in = ix >= 0 && ix < w;
        const float v = xf(srow[in ? ix : 0]);
        dst[kx] = in ? v : 0.0f;
      }
    }
  }
}

// Threaded sweep over im2col output rows [r0, r1). Each row is written by
// exactly one thread with a fixed gather order — bit-identical for any
// partition.
template <index_t KS, typename Xf>
void im2col_sweep(const Tensor& x, const ConvGeom& g, Tensor& cols,
                  const Xf& xf) {
  const index_t ckk = g.ckk(), rows = g.rows();
  cols.resize_for_overwrite({rows, ckk});
  const float* px = x.data();
  float* pc = cols.data();
  auto run = [&, px, pc](index_t r0, index_t r1) {
    for (index_t r = r0; r < r1; ++r) {
      const index_t ni = r / (g.oh * g.ow);
      const index_t rem = r - ni * g.oh * g.ow;
      gather_row<KS>(px, g, pc + r * ckk, ni, rem / g.ow, rem % g.ow, xf);
    }
  };
  if (rows * ckk < kSerialElems) {
    run(index_t{0}, rows);
  } else {
    parallel_for(index_t{0}, rows, grain_for(ckk), run);
  }
}

// Kernel-size dispatch (values are identical across instantiations; only
// the unrolling changes, so this is a pure schedule decision).
template <typename Xf>
void im2col_impl(const Tensor& x, const ConvGeom& g, Tensor& cols,
                 const Xf& xf) {
  switch (g.k) {
    case 1: im2col_sweep<1>(x, g, cols, xf); break;
    case 2: im2col_sweep<2>(x, g, cols, xf); break;
    case 3: im2col_sweep<3>(x, g, cols, xf); break;
    case 5: im2col_sweep<5>(x, g, cols, xf); break;
    default: im2col_sweep<0>(x, g, cols, xf); break;
  }
}

}  // namespace

void im2col(const Tensor& x, const ConvGeom& g, Tensor& cols) {
  im2col_impl(x, g, cols, [](float v) { return v; });
}

namespace {

// Output positions per fused-forward block: the block's gathered rows
// (kPosBlock * ckk floats) stay in L1 while every output-channel panel
// and every chip slot reuses them.
constexpr index_t kPosBlock = 8;

// t {rc, jr} (row stride kJTile) = rows [0, rc) of the gathered block a
// (row stride ckk) times one packed NT panel. Full blocks of 16- and
// 32-wide panels run 8 x 16 tiles; short blocks and ragged panels run
// the 4-row band kernels. Every path sums ascending p from 0.0f.
inline void block_tile(const float* a, index_t ckk, index_t rc,
                       const float* pk, index_t jr, float* t) {
  auto load = [a, ckk](index_t p, index_t r) { return a[r * ckk + p]; };
  constexpr index_t kHalf = gemm::kJTile / 2;
  if (rc == kPosBlock && jr % kHalf == 0) {
    for (index_t j0 = 0; j0 < jr; j0 += kHalf) {
      gemm::mul_tile_r<kPosBlock, kHalf>(load, pk, gemm::kJTile, j0, t + j0,
                                         gemm::kJTile, ckk);
    }
    return;
  }
  for (index_t i = 0; i < rc; i += gemm::kRowBlock) {
    const float* ai = a + i * ckk;
    auto load_i = [ai, ckk](index_t p, index_t r) { return ai[r * ckk + p]; };
    gemm::mul_band(load_i, pk, gemm::kJTile, index_t{0}, t, i,
                   std::min(gemm::kRowBlock, rc - i), index_t{0}, jr, ckk,
                   gemm::kJTile);
  }
}

// Fused conv forward over position blocks [b0, b1) (conv2d_forward). Per
// block: gather its rows (into cols, or a per-thread L1 block), their
// LTM row sums when an offset correction is on, then per chip slot and
// output-channel panel one register-tile product, the correction and
// the bias, stored straight into NCHW y. Each pass of the epilogue is a
// separate loop over the tile buffer so no multiply is contracted into
// the following add: per element the operations are exactly the old
// GEMM chain, `*= gain`, `-= offset * rowsum` (the product rounded
// first), `+ bias`.
template <index_t KS, typename Xf>
void conv_forward_sweep(const float* px, const ConvGeom& g, const Xf& xf,
                        const float* pk, index_t cout, const ConvForward& f,
                        float* cols, float* y) {
  constexpr index_t kJ = gemm::kJTile;
  const index_t ckk = g.ckk(), ohw = g.oh * g.ow;
  const index_t npanels = (cout + kJ - 1) / kJ;
  const index_t row_chips = f.shared ? 1 : f.groups;
  const index_t rows_per = g.rows() / row_chips;
  const index_t bpc = (rows_per + kPosBlock - 1) / kPosBlock;
  const index_t blocks = row_chips * bpc;
  auto run = [&, px, pk, cols, y](index_t b0, index_t b1) {
    thread_local std::vector<float> scratch;
    if (cols == nullptr &&
        scratch.size() < static_cast<std::size_t>(kPosBlock * ckk)) {
      scratch.resize(static_cast<std::size_t>(kPosBlock * ckk));
    }
    float t[kPosBlock * kJ];
    float rsum[kPosBlock], off[kPosBlock];
    float* dst[kPosBlock];
    for (index_t blk = b0; blk < b1; ++blk) {
      const index_t chip = blk / bpc;
      const index_t r0 = chip * rows_per + (blk - chip * bpc) * kPosBlock;
      const index_t rc = std::min(kPosBlock, (chip + 1) * rows_per - r0);
      float* a = cols != nullptr ? cols + r0 * ckk : scratch.data();
      for (index_t rr = 0; rr < rc; ++rr) {
        const index_t r = r0 + rr;
        const index_t ni = r / ohw, pos = r - ni * ohw;
        gather_row<KS>(px, g, a + rr * ckk, ni, pos / g.ow, pos % g.ow, xf);
      }
      if (f.offset != nullptr) {
        for (index_t rr = 0; rr < rc; ++rr) {
          const float* row = a + rr * ckk;
          float acc = 0.0f;
          for (index_t p = 0; p < ckk; ++p) acc += row[p];
          rsum[rr] = acc;
        }
      }
      const index_t s0 = f.shared ? 0 : chip;
      const index_t s1 = f.shared ? f.groups : chip + 1;
      for (index_t slot = s0; slot < s1; ++slot) {
        for (index_t rr = 0; rr < rc; ++rr) {
          const index_t r = r0 + rr;
          const index_t ni = r / ohw;
          const index_t img = f.shared ? slot * g.n + ni : ni;
          dst[rr] = y + img * cout * ohw + (r - ni * ohw);
        }
        if (f.offset != nullptr) {
          for (index_t rr = 0; rr < rc; ++rr) {
            off[rr] = f.offset[slot] * rsum[rr];
          }
        }
        for (index_t pi = 0; pi < npanels; ++pi) {
          const index_t j0 = pi * kJ;
          const index_t jr = std::min(kJ, cout - j0);
          block_tile(a, ckk, rc, pk + (slot * npanels + pi) * ckk * kJ, jr,
                     t);
          if (f.gain != nullptr) {
            const float gs = f.gain[slot];
            for (index_t rr = 0; rr < rc; ++rr) {
              for (index_t jj = 0; jj < jr; ++jj) t[rr * kJ + jj] *= gs;
            }
          }
          if (f.offset != nullptr) {
            for (index_t rr = 0; rr < rc; ++rr) {
              for (index_t jj = 0; jj < jr; ++jj) t[rr * kJ + jj] -= off[rr];
            }
          }
          for (index_t jj = 0; jj < jr; ++jj) {
            const index_t co = j0 + jj;
            const float bias = f.bias[co];
            for (index_t rr = 0; rr < rc; ++rr) {
              dst[rr][co * ohw] = t[rr * kJ + jj] + bias;
            }
          }
        }
      }
    }
  };
  const index_t macs_per_block =
      kPosBlock * ckk * cout * (f.shared ? f.groups : 1);
  if (blocks * macs_per_block < kSerialMacs) {
    run(index_t{0}, blocks);
  } else {
    parallel_for(index_t{0}, blocks,
                 std::max<index_t>(1, kMinMacsPerChunk / macs_per_block), run);
  }
}

template <typename Xf>
void conv_forward_impl(const float* px, const ConvGeom& g, const Xf& xf,
                       const float* pk, index_t cout, const ConvForward& f,
                       float* cols, float* y) {
  switch (g.k) {
    case 1: conv_forward_sweep<1>(px, g, xf, pk, cout, f, cols, y); break;
    case 2: conv_forward_sweep<2>(px, g, xf, pk, cout, f, cols, y); break;
    case 3: conv_forward_sweep<3>(px, g, xf, pk, cout, f, cols, y); break;
    case 5: conv_forward_sweep<5>(px, g, xf, pk, cout, f, cols, y); break;
    default: conv_forward_sweep<0>(px, g, xf, pk, cout, f, cols, y); break;
  }
}

}  // namespace

void conv2d_forward(const Tensor& x, const ConvGeom& g, const Tensor& w,
                    const ConvForward& f, Tensor* cols, Tensor& y) {
  const index_t ckk = g.ckk();
  if (f.groups < 1 || w.ndim() != 2 || w.dim(1) != ckk ||
      w.dim(0) % f.groups != 0 || x.ndim() != 4 || x.dim(1) != g.c ||
      x.dim(2) != g.h || x.dim(3) != g.w || x.dim(0) < g.n ||
      (!f.shared && g.n % f.groups != 0) || f.bias == nullptr) {
    throw std::invalid_argument("conv2d_forward: operand shapes disagree");
  }
  const index_t cout = w.dim(0) / f.groups;
  // Pack every chip slot's weight panels once ({ckk, kJTile} each, slot
  // major); the pack depends only on w, so workers share it read-only.
  constexpr index_t kJ = gemm::kJTile;
  const index_t npanels = (cout + kJ - 1) / kJ;
  thread_local std::vector<float> pack;
  const auto pack_size =
      static_cast<std::size_t>(f.groups * npanels * ckk * kJ);
  if (pack.size() < pack_size) pack.resize(pack_size);
  for (index_t slot = 0; slot < f.groups; ++slot) {
    for (index_t pi = 0; pi < npanels; ++pi) {
      gemm::pack_nt_panel(w.data() + slot * cout * ckk, ckk, pi * kJ,
                          std::min(kJ, cout - pi * kJ),
                          pack.data() + (slot * npanels + pi) * ckk * kJ);
    }
  }
  float* pc = nullptr;
  if (cols != nullptr) {
    cols->resize_for_overwrite({g.rows(), ckk});
    pc = cols->data();
  }
  y.resize_for_overwrite(
      {f.shared ? g.n * f.groups : g.n, cout, g.oh, g.ow});
  if (f.act_scale > 0.0f) {
    const float scale = f.act_scale, inv = 1.0f / scale;
    const float qm = static_cast<float>(f.act_qmax);
    // Same expression as ActQuantizer::quantize, applied per gathered
    // element; zero-padding commutes (quantize(0) == 0).
    conv_forward_impl(
        x.data(), g,
        [inv, scale, qm](float v) {
          const float q = std::nearbyint(v * inv);
          const bool inside = q >= 0.0f && q <= qm;
          const float clamped = q < 0.0f ? 0.0f : qm;
          return (inside ? q : clamped) * scale;
        },
        pack.data(), cout, f, pc, y.data());
  } else {
    conv_forward_impl(x.data(), g, [](float v) { return v; }, pack.data(),
                      cout, f, pc, y.data());
  }
}

namespace {

// Owner-computes gather: input row index r = (ni*C + ci)*H + iy; each
// thread fully produces its rows. Per element, window contributions
// accumulate in ascending (ky, kx) order — a pure function of shape —
// so any thread count (and any chunking) is bit-identical. KS as in
// gather_row: compile-time kernel size, 0 = runtime fallback.
template <index_t KS>
void col2im_sweep(const Tensor& cols, const ConvGeom& g, Tensor& gx) {
  gx.resize_for_overwrite({g.n, g.c, g.h, g.w});
  const index_t k = KS > 0 ? KS : g.k;
  const index_t stride = g.stride, pad = g.pad;
  const index_t w = g.w, oh = g.oh, ow = g.ow, ckk = g.ckk();
  const float* pc = cols.data();
  float* pg = gx.data();
  const index_t in_rows = g.n * g.c * g.h;
  auto run = [&, pc, pg](index_t r0, index_t r1) {
    for (index_t r = r0; r < r1; ++r) {
      const index_t ni = r / (g.c * g.h);
      const index_t rem = r - ni * g.c * g.h;
      const index_t ci = rem / g.h, iy = rem % g.h;
      float* out = pg + r * w;
      for (index_t ix = 0; ix < w; ++ix) out[ix] = 0.0f;
      for (index_t ky = 0; ky < k; ++ky) {
        const index_t t = iy + pad - ky;
        if (t < 0 || t % stride != 0) continue;
        const index_t y = t / stride;
        if (y >= oh) continue;
        const float* cbase = pc + (ni * oh + y) * ow * ckk + (ci * k + ky) * k;
        for (index_t kx = 0; kx < k; ++kx) {
          // ix = xo*stride - pad + kx in [0, w)  =>  xo range. A negative
          // upper numerator means no xo can reach the image (C++ division
          // truncates toward zero, so -1/stride would wrongly allow
          // xo = 0); skip the tap.
          const index_t hi_num = w - 1 + pad - kx;
          if (hi_num < 0) continue;
          const index_t xo_lo =
              pad > kx ? (pad - kx + stride - 1) / stride : index_t{0};
          const index_t xo_hi = std::min<index_t>(ow - 1, hi_num / stride);
          // Index `out` with the full expression (>= 0 for xo >= xo_lo):
          // pre-offsetting by kx - pad would form a before-the-array
          // pointer (UB) whenever pad > kx.
          const float* src = cbase + kx;
          for (index_t xo = xo_lo; xo <= xo_hi; ++xo) {
            out[xo * stride + kx - pad] += src[xo * ckk];
          }
        }
      }
    }
  };
  if (in_rows * w * k < kSerialElems) {
    run(index_t{0}, in_rows);
  } else {
    parallel_for(index_t{0}, in_rows, grain_for(w * k * k), run);
  }
}

}  // namespace

void col2im(const Tensor& cols, const ConvGeom& g, Tensor& gx) {
  switch (g.k) {
    case 1: col2im_sweep<1>(cols, g, gx); break;
    case 2: col2im_sweep<2>(cols, g, gx); break;
    case 3: col2im_sweep<3>(cols, g, gx); break;
    case 5: col2im_sweep<5>(cols, g, gx); break;
    default: col2im_sweep<0>(cols, g, gx); break;
  }
}

namespace {

// Conv backward schedule (GEMM grains: kMinMacsPerChunk, kSerialMacs).
// Contraction rows (image positions) per weight-gradient block: the
// block's kJTile-column slice of cols (kKBlock * 128 B) stays in L1 while
// every row band of dW reuses it, and the whole block (kKBlock * ckk
// floats) stays in L2 across the column tiles.
constexpr index_t kKBlock = 256;
// Minimum input-gradient slab width in positions: planes narrower than
// this are batched several images per slab so the TN GEMM runs
// full-width column tiles instead of a ragged remainder per image.
constexpr index_t kMinSlabCols = 128;

// dW {m, n} = gyt {m, L} * cols {L, n}, the contraction blocked into
// kKBlock-row segments chained through dW with the Acc tile kernels:
// every element sums in ascending (image, position) order from 0.0f,
// exactly one unblocked pass. Threads split the output tiles (4 rows x
// kJTile columns, column-tile-major so a chunk shares its cols slices);
// within a chunk the contraction blocks go outermost.
void conv_weight_grad(const float* gyt, const float* cols, float* dw, index_t m,
                      index_t l, index_t n) {
  const index_t bands = (m + gemm::kRowBlock - 1) / gemm::kRowBlock;
  const index_t tiles = bands * ((n + gemm::kJTile - 1) / gemm::kJTile);
  auto run = [=](index_t t0, index_t t1) {
    for (index_t p0 = 0; p0 < l; p0 += kKBlock) {
      const index_t kb = std::min(kKBlock, l - p0);
      const float* b = cols + p0 * n;
      for (index_t t = t0; t < t1; ++t) {
        const index_t jt = t / bands;
        const index_t i = (t - jt * bands) * gemm::kRowBlock;
        const index_t rows = std::min(gemm::kRowBlock, m - i);
        const index_t j0 = jt * gemm::kJTile;
        const index_t jr = std::min(gemm::kJTile, n - j0);
        const float* a0 = gyt + i * l + p0;
        auto load_a = [a0, l](index_t p, index_t r) { return a0[r * l + p]; };
        if (p0 == 0) {
          gemm::mul_band<false>(load_a, b, n, j0, dw, i, rows, j0, jr, kb, n);
        } else {
          gemm::mul_band<true>(load_a, b, n, j0, dw, i, rows, j0, jr, kb, n);
        }
      }
    }
  };
  const index_t macs_per_tile = gemm::kRowBlock * gemm::kJTile * l;
  if (m * n * l < kSerialMacs) {
    run(index_t{0}, tiles);
  } else {
    parallel_for(index_t{0}, tiles,
                 std::max<index_t>(1, kMinMacsPerChunk / macs_per_tile), run);
  }
}

// Channel-major col2im of one slab {ckk, ld} holding `gn` images' input
// gradient columns (image i at column offset i*OH*OW) into gx images
// [n0, n0+gn), multiplied by the STE mask on write. Per element: 0.0f,
// then the window contributions in ascending (ky, kx), then the mask —
// the same operation order as col2im followed by a mask pass. Each
// (ky, kx) tap adds one slab row, run by run, contiguous along x; the tap
// bounds are computed once per (plane, tap), not per input row.
template <index_t KS>
void col2im_slab(const float* slab, index_t ld, const ConvGeom& g, index_t n0,
                 index_t gn, const float* mask, float* gx) {
  const index_t k = KS > 0 ? KS : g.k;
  const index_t stride = g.stride, pad = g.pad;
  const index_t h = g.h, w = g.w, oh = g.oh, ow = g.ow, hw = h * w;
  for (index_t gi = 0; gi < gn; ++gi) {
    for (index_t ci = 0; ci < g.c; ++ci) {
      const index_t off = ((n0 + gi) * g.c + ci) * hw;
      float* plane = gx + off;
      for (index_t i = 0; i < hw; ++i) plane[i] = 0.0f;
      for (index_t ky = 0; ky < k; ++ky) {
        // Output rows y with iy = y*stride - pad + ky in [0, h). A
        // negative upper numerator means no y reaches the image (C++
        // division truncates toward zero); likewise for xo below.
        const index_t yhi_num = h - 1 + pad - ky;
        if (yhi_num < 0) continue;
        const index_t y_lo =
            pad > ky ? (pad - ky + stride - 1) / stride : index_t{0};
        const index_t y_hi = std::min<index_t>(oh - 1, yhi_num / stride);
        for (index_t kx = 0; kx < k; ++kx) {
          const index_t xhi_num = w - 1 + pad - kx;
          if (xhi_num < 0) continue;
          const index_t xo_lo =
              pad > kx ? (pad - kx + stride - 1) / stride : index_t{0};
          const index_t cnt =
              std::min<index_t>(ow - 1, xhi_num / stride) - xo_lo + 1;
          if (cnt <= 0) continue;
          const float* src =
              slab + ((ci * k + ky) * k + kx) * ld + gi * oh * ow + xo_lo;
          for (index_t y = y_lo; y <= y_hi; ++y) {
            // xo_lo*stride + kx - pad >= 0: never a before-the-row pointer.
            float* dst =
                plane + (y * stride - pad + ky) * w + xo_lo * stride + kx - pad;
            const float* s = src + y * ow;
            if (stride == 1) {
              QAVAT_SIMD
              for (index_t t = 0; t < cnt; ++t) dst[t] += s[t];
            } else {
              for (index_t t = 0; t < cnt; ++t) dst[t * stride] += s[t];
            }
          }
        }
      }
      if (mask != nullptr) {
        const float* m = mask + off;
        QAVAT_SIMD
        for (index_t i = 0; i < hw; ++i) plane[i] *= m[i];
      }
    }
  }
}

// gx = col2im(w^T * gy) * mask, owner-computes over groups of whole
// images: per group, the TN GEMM slab {ckk, gn*OH*OW} = w^T * the
// group's columns of gyt (each element an ascending-co chain from 0.0f),
// then col2im_slab. Each thread keeps its slab (thread_local: sized once
// per shape, no per-call allocation) and writes only its own images.
template <index_t KS>
void conv_input_grad(const float* gyt, index_t l, const float* w,
                     const ConvGeom& g, index_t cout, const float* mask,
                     float* gx) {
  const index_t ohw = g.oh * g.ow, ckk = g.ckk();
  const index_t per = std::min(g.n, std::max<index_t>(
                                        1, (kMinSlabCols + ohw - 1) / ohw));
  const index_t groups = (g.n + per - 1) / per;
  auto run = [=, &g](index_t q0, index_t q1) {
    thread_local std::vector<float> cslab;
    if (cslab.size() < static_cast<std::size_t>(ckk * per * ohw)) {
      cslab.resize(static_cast<std::size_t>(ckk * per * ohw));
    }
    float* pcs = cslab.data();
    for (index_t q = q0; q < q1; ++q) {
      const index_t n0 = q * per, gn = std::min(per, g.n - n0);
      const index_t ld = gn * ohw;
      for (index_t i = 0; i < ckk; i += gemm::kRowBlock) {
        const index_t rows = std::min(gemm::kRowBlock, ckk - i);
        auto load_a = [w, ckk, i](index_t p, index_t r) {
          return w[p * ckk + i + r];
        };
        for (index_t j0 = 0; j0 < ld; j0 += gemm::kJTile) {
          const index_t jr = std::min(gemm::kJTile, ld - j0);
          gemm::mul_band(load_a, gyt, l, n0 * ohw + j0, pcs, i, rows, j0, jr,
                         cout, ld);
        }
      }
      col2im_slab<KS>(pcs, ld, g, n0, gn, mask, gx);
    }
  };
  const index_t macs_per_group = ckk * cout * per * ohw;
  if (ckk * cout * g.n * ohw < kSerialMacs) {
    run(index_t{0}, groups);
  } else {
    parallel_for(index_t{0}, groups,
                 std::max<index_t>(1, kMinMacsPerChunk / macs_per_group), run);
  }
}

}  // namespace

void conv2d_backward(const Tensor& gy, const Tensor& cols, const Tensor& w,
                     const ConvGeom& g, const Tensor* x_mask, Tensor& gyt,
                     Tensor& dw, float* bias_grad, Tensor* gx) {
  const index_t cout = w.dim(0), ckk = g.ckk();
  const index_t ohw = g.oh * g.ow, l = g.n * ohw;
  if (gy.ndim() != 4 || gy.dim(0) != g.n || gy.dim(1) != cout ||
      gy.dim(2) != g.oh || gy.dim(3) != g.ow || w.dim(1) != ckk ||
      cols.size() != l * ckk) {
    throw std::invalid_argument("conv2d_backward: operand shapes disagree");
  }
  // gyt {cout, L}: each image's {cout, OH*OW} block laid side by side, so
  // one row holds a channel's gradient over every (image, position) in
  // ascending order — contiguous runs, no transpose.
  gyt.resize_for_overwrite({cout, l});
  const float* pg = gy.data();
  float* pt = gyt.data();
  auto pack = [=](index_t r0, index_t r1) {
    for (index_t r = r0; r < r1; ++r) {
      const index_t ni = r / cout, co = r - ni * cout;
      std::memcpy(pt + co * l + ni * ohw, pg + r * ohw,
                  static_cast<std::size_t>(ohw) * sizeof(float));
    }
  };
  if (cout * l < kSerialElems) {
    pack(index_t{0}, g.n * cout);
  } else {
    parallel_for(index_t{0}, g.n * cout, grain_for(ohw), pack);
  }
  // Bias gradient: serial, each channel summed in ascending (image,
  // position) order onto the caller's value; eight channels interleave
  // so the add latency overlaps.
  for (index_t co0 = 0; co0 < cout; co0 += 8) {
    const index_t nc = std::min<index_t>(8, cout - co0);
    float acc[8];
    for (index_t c = 0; c < nc; ++c) acc[c] = bias_grad[co0 + c];
    for (index_t j = 0; j < l; ++j) {
      for (index_t c = 0; c < nc; ++c) acc[c] += pt[(co0 + c) * l + j];
    }
    for (index_t c = 0; c < nc; ++c) bias_grad[co0 + c] = acc[c];
  }
  dw.resize_for_overwrite({cout, ckk});
  conv_weight_grad(pt, cols.data(), dw.data(), cout, l, ckk);
  if (gx == nullptr) return;
  gx->resize_for_overwrite({g.n, g.c, g.h, g.w});
  const float* pm = nullptr;
  if (x_mask != nullptr) {
    if (x_mask->size() != gx->size()) {
      throw std::invalid_argument("conv2d_backward: mask shape disagrees");
    }
    pm = x_mask->data();
  }
  const float* pw = w.data();
  float* px = gx->data();
  switch (g.k) {
    case 1: conv_input_grad<1>(pt, l, pw, g, cout, pm, px); break;
    case 2: conv_input_grad<2>(pt, l, pw, g, cout, pm, px); break;
    case 3: conv_input_grad<3>(pt, l, pw, g, cout, pm, px); break;
    case 5: conv_input_grad<5>(pt, l, pw, g, cout, pm, px); break;
    default: conv_input_grad<0>(pt, l, pw, g, cout, pm, px); break;
  }
}

void maxpool2d(const Tensor& x, index_t k, Tensor& y,
               std::vector<index_t>& argmax) {
  const index_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const index_t oh = h / k, ow = w / k;
  y.resize_for_overwrite({n, c, oh, ow});
  argmax.resize(static_cast<std::size_t>(y.size()));
  const float* px = x.data();
  float* py = y.data();
  index_t* parg = argmax.data();
  auto run = [&, px, py, parg](index_t nc0, index_t nc1) {
    for (index_t nc = nc0; nc < nc1; ++nc) {
      const float* plane = px + nc * h * w;
      for (index_t oy = 0; oy < oh; ++oy) {
        for (index_t ox = 0; ox < ow; ++ox) {
          index_t best = (oy * k) * w + ox * k;
          float bv = plane[best];
          for (index_t dy = 0; dy < k; ++dy) {
            for (index_t dx = 0; dx < k; ++dx) {
              const index_t idx = (oy * k + dy) * w + ox * k + dx;
              if (plane[idx] > bv) {  // strict > : first max wins the tie
                bv = plane[idx];
                best = idx;
              }
            }
          }
          const index_t oidx = nc * oh * ow + oy * ow + ox;
          py[oidx] = bv;
          parg[oidx] = nc * h * w + best;
        }
      }
    }
  };
  const index_t planes = n * c;
  if (planes * h * w < kSerialElems) {
    run(index_t{0}, planes);
  } else {
    parallel_for(index_t{0}, planes, grain_for(h * w), run);
  }
}

void maxpool2d_backward(const Tensor& gy, const std::vector<index_t>& argmax,
                        const std::vector<index_t>& in_shape, Tensor& gx) {
  gx.resize_for_overwrite(in_shape);
  const index_t n = in_shape[0], c = in_shape[1];
  const index_t hw = in_shape[2] * in_shape[3];
  const index_t ohw = gy.size() / (n * c);
  const float* pgy = gy.data();
  const index_t* parg = argmax.data();
  float* pgx = gx.data();
  // Pooling windows are disjoint and argmax indices stay inside their own
  // plane, so a plane split scatters race-free; each gx element is
  // written (zero or one scatter after the zero-fill) by its plane's
  // owner thread only.
  auto run = [&, pgy, parg, pgx](index_t nc0, index_t nc1) {
    for (index_t nc = nc0; nc < nc1; ++nc) {
      float* plane = pgx + nc * hw;
      for (index_t i = 0; i < hw; ++i) plane[i] = 0.0f;
      const index_t base = nc * ohw;
      for (index_t i = 0; i < ohw; ++i) {
        pgx[parg[base + i]] += pgy[base + i];
      }
    }
  };
  const index_t planes = n * c;
  if (planes * hw < kSerialElems) {
    run(index_t{0}, planes);
  } else {
    parallel_for(index_t{0}, planes, grain_for(hw), run);
  }
}

}  // namespace qavat
