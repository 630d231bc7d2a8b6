// Convolution/pooling loop nests: im2col, col2im, max-pooling, the fused
// conv forward (gather + register-tile GEMM + correction/bias epilogue,
// NCHW out) and the conv backward (per-image weight and input gradients),
// DESIGN.md §8. Following the Halide schedule/algorithm separation, this
// file owns the SCHEDULE (threading grain, loop order, padding
// specialization) for the conv pipeline, while the algorithms stay
// naive-loop-equivalent — the same determinism contract tensor/ops.h
// establishes for the GEMM kernels.
//
// Determinism contract (tested by tests/test_conv_ops.cpp):
//  * Every output element is produced by exactly one thread with a fixed
//    per-element operation order, so results are bit-identical for any
//    QAVAT_THREADS, including 1.
//  * col2im is the dangerous one: as a scatter-add over overlapping
//    windows, a naive row split races (adjacent output-row chunks
//    scatter into the same input rows) and atomics would "fix" the race
//    only by making the float accumulation ORDER scheduling-dependent —
//    both are banned. A parallel scatter formulation must instead use
//    per-chunk partial buffers (one per FIXED grain chunk, not per
//    thread) combined in a deterministic serial reduction. We avoid even
//    that cost by restructuring to owner-computes GATHER form: each
//    thread owns whole input rows and accumulates the <= K*K window
//    contributions per element in fixed (ky, kx) ascending order. No
//    shared writes, no atomics, no partials.
//  * im2col/pooling threading grains are whole output rows / whole
//    (image, channel) planes, and the fused forward's are whole blocks of
//    output positions, so chunk boundaries can never split one output
//    element's work.
//
// conv2d_forward can apply the unsigned activation quantizer elementwise
// while gathering — arithmetic identical to ActQuantizer::quantize
// followed by im2col (quantize(0) == 0, so padding commutes with the
// quantizer) — removing one full tensor pass and one scratch tensor.
// Because the gather visits each input element once per covering window,
// that only pays off when windows do not overlap (stride >= k; e.g. 1x1
// convs); QuantConv2d shape-gates it accordingly and otherwise quantizes
// once (vectorized) before a pure-copy gather.
#pragma once

#include <vector>

#include "tensor/tensor.h"

namespace qavat {

/// Geometry of one conv application over NCHW images. `n` is the number
/// of images actually gathered — pass n = x.dim(0) / nb to read only the
/// first chip block of a noise-batched input that is known to be nb
/// identical blocks. All fields are element counts (pixels/taps).
struct ConvGeom {
  index_t n, c, h, w;       ///< input images (leading prefix of x, NCHW)
  index_t k, stride, pad;   ///< square kernel side, stride, zero padding
  index_t oh, ow;           ///< output spatial dims

  index_t ckk() const { return c * k * k; }     ///< im2col row width
  index_t rows() const { return n * oh * ow; }  ///< im2col rows
};

/// x (NCHW, first g.n images) -> cols {g.n*g.oh*g.ow, g.ckk()}; row index
/// = (n*OH + oh)*OW + ow, zero padding. Threaded over output rows
/// (QAVAT_THREADS), bit-identical for any thread count.
void im2col(const Tensor& x, const ConvGeom& g, Tensor& cols);

/// Everything conv2d_forward needs beyond its operands: the activation
/// grid fused into the gather, the noise-batch layout, and the epilogue.
struct ConvForward {
  /// When > 0, every gathered value v becomes act_scale *
  /// clamp(nearbyint(v / act_scale), 0, act_qmax) — ActQuantizer's
  /// arithmetic; 0 gathers x as is.
  float act_scale = 0.0f;
  index_t act_qmax = 0;  ///< top unsigned activation code
  /// Chip slots: w stacks `groups` {cout, ckk} weight blocks.
  index_t groups = 1;
  /// false: the g.n images are `groups` equal chip-major blocks, block b
  /// multiplied by weight block b. true: the g.n images are every slot's
  /// input — gathered once, one output block of g.n images per slot.
  bool shared = false;
  const float* bias = nullptr;    ///< {cout}, added last (required)
  const float* gain = nullptr;    ///< {groups}: y *= gain[slot], or null
  /// {groups}: y -= offset[slot] * (the element's gathered-row sum,
  /// ascending from 0.0f), the product rounded first; or null.
  const float* offset = nullptr;
};

/// Fused conv forward (DESIGN.md §8): per block of output positions,
/// gather the im2col rows, multiply them by the chip slot's weights in
/// register tiles, apply the self-tuning correction and the bias, and
/// store NCHW y (resized to {g.n, cout, g.oh, g.ow}, times `groups` when
/// shared). w is {groups * cout, g.ckk()}. `cols` (resized to {g.rows(),
/// g.ckk()}) receives the gathered rows when non-null — the training
/// cache the backward reads; otherwise no im2col matrix is stored. Each
/// element is bit-identical to im2col + matmul_nt (per chip block) +
/// `*= gain` / `-= offset * rowsum` + permute + bias. Threaded over
/// position blocks, bit-identical for any thread count. Throws
/// std::invalid_argument on a shape mismatch.
void conv2d_forward(const Tensor& x, const ConvGeom& g, const Tensor& w,
                    const ConvForward& f, Tensor* cols, Tensor& y);

/// Transpose of im2col: scatter-add the cols-layout gradient back to the
/// input image layout (gather form, see the contract above). Writes every
/// element of gx (resized to {g.n, g.c, g.h, g.w}); threaded over input
/// rows, bit-identical for any thread count.
void col2im(const Tensor& cols, const ConvGeom& g, Tensor& gx);

/// Backward of a convolution lowered by im2col (QuantConv2d::backward).
/// gy is the NCHW upstream gradient {g.n, cout, g.oh, g.ow}, cols the
/// forward's im2col matrix {g.rows(), g.ckk()}, w the forward's
/// effective weights {cout, g.ckk()}. Writes:
///  * gyt (scratch, resized to {cout, g.n*g.oh*g.ow}): gy with each
///    image's {cout, OH*OW} block laid side by side;
///  * dw (resized to {cout, g.ckk()}): dW[co][j] = sum over (image,
///    position) of gy * cols, ascending (image, position) from 0.0f —
///    bit-identical to matmul_tn of the {N*OH*OW, cout} permuted gy with
///    cols;
///  * bias_grad[co] += the same gy values in the same order (accumulates
///    onto the caller's {cout} buffer);
///  * gx, unless null (resized to {g.n, g.c, g.h, g.w}): col2im of
///    gy_perm * w times `x_mask` (if non-null; same shape as gx) —
///    per element the ascending-co dot products summed in ascending
///    (ky, kx), then masked, bit-identical to matmul + col2im + mask.
/// Threaded (dW over output tiles, gx over whole images), bit-identical
/// for any thread count. Throws std::invalid_argument on a shape mismatch.
void conv2d_backward(const Tensor& gy, const Tensor& cols, const Tensor& w,
                     const ConvGeom& g, const Tensor* x_mask, Tensor& gyt,
                     Tensor& dw, float* bias_grad, Tensor* gx);

/// Non-overlapping k x k max pooling over NCHW (floor semantics: trailing
/// rows/cols that do not fill a window are dropped). `argmax` records the
/// flat input index of each selected element for the backward scatter.
/// Ties break to the first (lowest-index) element, value-independent of
/// threading. Threaded over (image, channel) planes.
void maxpool2d(const Tensor& x, index_t k, Tensor& y,
               std::vector<index_t>& argmax);

/// Scatter gy through argmax into gx (resized + zeroed to in_shape).
/// Window positions are disjoint, so plane-parallel scatter is race-free.
void maxpool2d_backward(const Tensor& gy, const std::vector<index_t>& argmax,
                        const std::vector<index_t>& in_shape, Tensor& gx);

}  // namespace qavat
