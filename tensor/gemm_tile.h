// Register-tile GEMM kernels shared by the GEMM entry points
// (tensor/ops.cpp) and the conv backward schedule (tensor/conv_ops.cpp).
// Internal header: not part of the public tensor API.
//
// Every kernel here is pure serial code over one C tile; callers own the
// loop order and the threading. The per-element accumulation order is
// ascending over the contraction index p, starting from 0.0f (or from
// C's current value in the Acc form), with no value-dependent branches —
// the determinism contract of tensor/ops.h.
#pragma once

#include <algorithm>

#include "tensor/tensor.h"

// SIMD hints for the inner loops. -fopenmp-simd (no OpenMP runtime) turns
// these into vectorization directives; without it they expand to nothing
// and the plain loops still auto-vectorize where the compiler can prove it.
#if defined(QAVAT_OMP_SIMD)
#define QAVAT_PRAGMA(x) _Pragma(#x)
#define QAVAT_SIMD QAVAT_PRAGMA(omp simd)
#else
#define QAVAT_SIMD
#endif

namespace qavat {
namespace gemm {

constexpr index_t kRowBlock = 4;   // register-blocked output rows
constexpr index_t kJTile = 32;     // C columns accumulated in registers

// 4 x kJTile register tile shared by all GEMM kernels: the C tile stays
// in vector registers across the whole contraction, the p-th B row slice
// is read at `pb + p*bstride + bj0`, and the per-element accumulation
// order (ascending p from 0.0f) matches a naive triple loop. `LoadA` maps
// (p, r) to the A element for C row i+r — the only difference between
// the NN (row-major A) and TN (transposed A) kernels; the NT kernel feeds
// a transposed-packed B panel instead. `n` is C's row stride.
//
// When `Acc` is set the accumulators initialize from C instead of 0.0f,
// so the per-element chain CONTINUES from C's value: splitting the
// contraction dimension into segments and chaining Acc calls is
// bit-identical to one full-width pass. That exact-reassociation
// property is what makes the crossbar column-tiling (pim/tiling.h) and
// the contraction-blocked conv weight gradient (tensor/conv_ops.cpp)
// bit-identical to an unblocked GEMM.
template <index_t JR, bool Acc, typename LoadA>
inline void mul_tile4(const LoadA& load_a, const float* pb, index_t bstride,
                      index_t bj0, float* pc, index_t i, index_t j0, index_t jr,
                      index_t k, index_t n) {
  float acc0[JR], acc1[JR], acc2[JR], acc3[JR];
  if (Acc) {
    const float* c0 = pc + (i + 0) * n + j0;
    const float* c1 = pc + (i + 1) * n + j0;
    const float* c2 = pc + (i + 2) * n + j0;
    const float* c3 = pc + (i + 3) * n + j0;
    for (index_t jj = 0; jj < jr; ++jj) {
      acc0[jj] = c0[jj];
      acc1[jj] = c1[jj];
      acc2[jj] = c2[jj];
      acc3[jj] = c3[jj];
    }
  } else {
    for (index_t jj = 0; jj < jr; ++jj) {
      acc0[jj] = acc1[jj] = acc2[jj] = acc3[jj] = 0.0f;
    }
  }
  for (index_t p = 0; p < k; ++p) {
    const float* brow = pb + p * bstride + bj0;
    const float av0 = load_a(p, 0), av1 = load_a(p, 1);
    const float av2 = load_a(p, 2), av3 = load_a(p, 3);
    QAVAT_SIMD
    for (index_t jj = 0; jj < jr; ++jj) {
      acc0[jj] += av0 * brow[jj];
      acc1[jj] += av1 * brow[jj];
      acc2[jj] += av2 * brow[jj];
      acc3[jj] += av3 * brow[jj];
    }
  }
  float* c0 = pc + (i + 0) * n + j0;
  float* c1 = pc + (i + 1) * n + j0;
  float* c2 = pc + (i + 2) * n + j0;
  float* c3 = pc + (i + 3) * n + j0;
  for (index_t jj = 0; jj < jr; ++jj) {
    c0[jj] = acc0[jj];
    c1[jj] = acc1[jj];
    c2[jj] = acc2[jj];
    c3[jj] = acc3[jj];
  }
}

// Single-row remainder of the tile kernel, same accumulation order.
template <index_t JR, bool Acc, typename LoadA>
inline void mul_tile1(const LoadA& load_a, const float* pb, index_t bstride,
                      index_t bj0, float* pc, index_t i, index_t j0, index_t jr,
                      index_t k, index_t n) {
  float acc[JR];
  if (Acc) {
    const float* crow = pc + i * n + j0;
    for (index_t jj = 0; jj < jr; ++jj) acc[jj] = crow[jj];
  } else {
    for (index_t jj = 0; jj < jr; ++jj) acc[jj] = 0.0f;
  }
  for (index_t p = 0; p < k; ++p) {
    const float* brow = pb + p * bstride + bj0;
    const float av = load_a(p, 0);
    QAVAT_SIMD
    for (index_t jj = 0; jj < jr; ++jj) acc[jj] += av * brow[jj];
  }
  float* crow = pc + i * n + j0;
  for (index_t jj = 0; jj < jr; ++jj) crow[jj] = acc[jj];
}

// R x JR generalisation of mul_tile4 for taller tiles over a packed NT
// panel (the fused conv forward's position blocks, tensor/conv_ops.cpp):
// full-width only (every one of the R rows and JR columns is real),
// overwrite form, the same per-element order — ascending p from 0.0f —
// so its results equal mul_tile4/mul_tile1 bit for bit. A 4 x 16 tile
// keeps only four independent FMA chains (one 16-lane vector per row);
// 8 x 16 keeps eight, enough to cover the FMA latency.
template <index_t R, index_t JR, typename LoadA>
inline void mul_tile_r(const LoadA& load_a, const float* pb, index_t bstride,
                       index_t bj0, float* pc, index_t n, index_t k) {
  float acc[R][JR];
  for (index_t r = 0; r < R; ++r) {
    for (index_t jj = 0; jj < JR; ++jj) acc[r][jj] = 0.0f;
  }
  for (index_t p = 0; p < k; ++p) {
    const float* brow = pb + p * bstride + bj0;
    for (index_t r = 0; r < R; ++r) {
      const float av = load_a(p, r);
      QAVAT_SIMD
      for (index_t jj = 0; jj < JR; ++jj) acc[r][jj] += av * brow[jj];
    }
  }
  for (index_t r = 0; r < R; ++r) {
    for (index_t jj = 0; jj < JR; ++jj) pc[r * n + jj] = acc[r][jj];
  }
}

// Transpose one kJTile-column panel of B {n, k} (rows [j0, j0+jr)) into a
// packed {k, kJTile} buffer so the register-tile kernels run at full SIMD
// width on an NT product. The pack depends only on (B, j0), never on the
// row range, so results stay thread-count independent no matter who packs.
inline void pack_nt_panel(const float* pb, index_t k, index_t j0, index_t jr,
                          float* pk) {
  for (index_t jj = 0; jj < jr; ++jj) {
    const float* brow = pb + (j0 + jj) * k;
    for (index_t p = 0; p < k; ++p) pk[p * kJTile + jj] = brow[p];
  }
}

// Tile sweep over one C row band [i, i+rows) for C columns [j0, j0+jr);
// `rows` is 4 or the final remainder. Full-width (32) and half-width (16)
// tiles run with compile-time constant trip counts so the accumulators
// stay in registers — the 16-wide case is the narrow-fan-out conv/linear
// layers (cout 16), where a 32-wide tile would waste half its lanes.
// JR only sizes the accumulator array; the per-element accumulation
// order (ascending p) is identical across instantiations.
template <bool Acc = false, typename LoadA>
inline void mul_band(const LoadA& load_a, const float* pb, index_t bstride,
                     index_t bj0, float* pc, index_t i, index_t rows,
                     index_t j0, index_t jr, index_t k, index_t n) {
  if (rows == kRowBlock) {
    if (jr == kJTile) {
      mul_tile4<kJTile, Acc>(load_a, pb, bstride, bj0, pc, i, j0, kJTile, k, n);
    } else if (jr == kJTile / 2) {
      mul_tile4<kJTile / 2, Acc>(load_a, pb, bstride, bj0, pc, i, j0, jr, k, n);
    } else {
      mul_tile4<kJTile, Acc>(load_a, pb, bstride, bj0, pc, i, j0, jr, k, n);
    }
  } else {
    for (index_t r = 0; r < rows; ++r) {
      const index_t ir = i + r;
      auto load_r = [&](index_t p, index_t) { return load_a(p, r); };
      if (jr == kJTile) {
        mul_tile1<kJTile, Acc>(load_r, pb, bstride, bj0, pc, ir, j0, kJTile, k, n);
      } else if (jr == kJTile / 2) {
        mul_tile1<kJTile / 2, Acc>(load_r, pb, bstride, bj0, pc, ir, j0, jr, k, n);
      } else {
        mul_tile1<kJTile, Acc>(load_r, pb, bstride, bj0, pc, ir, j0, jr, k, n);
      }
    }
  }
}

}  // namespace gemm
}  // namespace qavat
