#include "core/quant/quantizer.h"

#include <cmath>

#include "tensor/parallel_for.h"

namespace qavat {

void quantize_dequantize(const Tensor& x, float scale, index_t bits, Tensor& out,
                         Tensor* ste_mask) {
  out.resize_for_overwrite(x.shape());
  if (ste_mask != nullptr) ste_mask->resize_for_overwrite(x.shape());
  const float qmax = static_cast<float>(signed_qmax(bits));
  const float* px = x.data();
  float* po = out.data();
  float* pm = ste_mask != nullptr ? ste_mask->data() : nullptr;
  if (scale <= 0.0f) {  // degenerate scale: quantize everything to 0
    out.zero();
    if (pm != nullptr) ste_mask->zero();
    return;
  }
  const float inv = 1.0f / scale;
  // Pure elementwise map: any thread partition is bit-identical. Select
  // form, the mask test hoisted out of the loop: no branch on the data.
  auto code = [inv, qmax](float v, bool* inside) {
    const float q = std::nearbyint(v * inv);
    *inside = q >= -qmax && q <= qmax;
    const float clamped = q < -qmax ? -qmax : qmax;
    return *inside ? q : clamped;
  };
  parallel_for_elems(x.size(), [=](index_t i0, index_t i1) {
    bool inside = false;
    if (pm != nullptr) {
      for (index_t i = i0; i < i1; ++i) {
        po[i] = code(px[i], &inside) * scale;
        pm[i] = inside ? 1.0f : 0.0f;
      }
    } else {
      for (index_t i = i0; i < i1; ++i) po[i] = code(px[i], &inside) * scale;
    }
  });
}

float mmse_scale(const Tensor& x, index_t bits) {
  const float amax = x.abs_max();
  if (amax <= 0.0f || signed_qmax(bits) <= 0) return 1.0f;
  const float qmax = static_cast<float>(signed_qmax(bits));
  const float base = amax / qmax;
  float best_scale = base;
  double best_err = -1.0;
  // Multiplicative sweep: t in [0.15, 1.0] of the max-based scale.
  for (int i = 0; i < 60; ++i) {
    const float t = 0.15f + 0.85f * static_cast<float>(i) / 59.0f;
    const float scale = base * t;
    const float inv = 1.0f / scale;
    double err = 0.0;
    const float* px = x.data();
    for (index_t j = 0; j < x.size(); ++j) {
      float q = std::nearbyint(px[j] * inv);
      if (q > qmax) q = qmax;
      if (q < -qmax) q = -qmax;
      const double d = static_cast<double>(px[j]) - static_cast<double>(q * scale);
      err += d * d;
    }
    if (best_err < 0.0 || err < best_err) {
      best_err = err;
      best_scale = scale;
    }
  }
  return best_scale;
}

void ActQuantizer::observe(const Tensor& x) {
  const float amax = x.abs_max();
  if (amax <= 0.0f) return;
  const float fresh = amax / static_cast<float>(unsigned_qmax(bits_));
  scale_ = calibrated() ? ema_ * scale_ + (1.0f - ema_) * fresh : fresh;
}

void ActQuantizer::quantize(const Tensor& x, Tensor& out, Tensor* ste_mask) const {
  out.resize_for_overwrite(x.shape());
  if (ste_mask != nullptr) ste_mask->resize_for_overwrite(x.shape());
  const float* px = x.data();
  float* po = out.data();
  float* pm = ste_mask != nullptr ? ste_mask->data() : nullptr;
  if (!calibrated()) {  // identity fallback for uncalibrated tracing
    for (index_t i = 0; i < x.size(); ++i) {
      po[i] = px[i];
      if (pm != nullptr) pm[i] = 1.0f;
    }
    return;
  }
  const float qmax = static_cast<float>(unsigned_qmax(bits_));
  const float inv = 1.0f / scale_;
  const float s = scale_;
  // Elementwise; the quantizing gather of the fused conv forward
  // (tensor/conv_ops.cpp conv2d_forward) must stay arithmetic-identical
  // to this loop. Select form, the mask test hoisted out of the loop: no
  // branch on the data.
  auto code = [inv, qmax](float v, bool* inside) {
    const float q = std::nearbyint(v * inv);
    *inside = q >= 0.0f && q <= qmax;
    const float clamped = q < 0.0f ? 0.0f : qmax;
    return *inside ? q : clamped;
  };
  parallel_for_elems(x.size(), [=](index_t i0, index_t i1) {
    bool inside = false;
    if (pm != nullptr) {
      for (index_t i = i0; i < i1; ++i) {
        po[i] = code(px[i], &inside) * s;
        pm[i] = inside ? 1.0f : 0.0f;
      }
    } else {
      for (index_t i = i0; i < i1; ++i) po[i] = code(px[i], &inside) * s;
    }
  });
}

}  // namespace qavat
