// Convolution/pooling loop nests: im2col, col2im, max-pooling, the fused
// act-quantize + im2col gather used by the inference path, and the conv
// backward (per-image weight and input gradients, DESIGN.md §8). Following
// the Halide schedule/algorithm separation, this file owns the SCHEDULE
// (threading grain, loop order, padding specialization) for the conv
// pipeline, while the algorithms stay naive-loop-equivalent — the same
// determinism contract tensor/ops.h establishes for the GEMM kernels.
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
//    (image, channel) planes, so chunk boundaries can never split one
//    output element's work.
//
// The fused im2col_quant applies the unsigned activation quantizer
// elementwise while gathering — arithmetic identical to
// ActQuantizer::quantize followed by im2col (quantize(0) == 0, so padding
// commutes with the quantizer) — removing one full tensor pass and one
// scratch tensor. Because the gather visits each input element once per
// covering window, the fusion only pays off when windows do not overlap
// (stride >= k; e.g. 1x1 convs); QuantConv2d shape-gates it accordingly
// and otherwise quantizes once (vectorized) before a pure-copy gather.
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

/// im2col with the unsigned activation quantizer fused into the gather:
/// every gathered element v becomes scale * clamp(nearbyint(v / scale),
/// 0, qmax). Bit-identical to ActQuantizer::quantize + im2col.
void im2col_quant(const Tensor& x, const ConvGeom& g, float scale,
                  index_t qmax, Tensor& cols);

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
