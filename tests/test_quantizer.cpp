// Tier-1: quantize_dequantize round-trip and STE mask, mmse_scale
// scale-equivariance/monotonicity, activation quantizer behavior, and the
// vectorized quantizers / abs_max against their elementwise definitions.
#include "core/quant/quantizer.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "tensor/ops.h"
#include "tests/test_common.h"

using namespace qavat;

namespace {

double qdq_mse(const Tensor& x, float scale, index_t bits) {
  Tensor out;
  quantize_dequantize(x, scale, bits, out);
  double err = 0.0;
  for (index_t i = 0; i < x.size(); ++i) {
    const double d = static_cast<double>(x[i]) - static_cast<double>(out[i]);
    err += d * d;
  }
  return err / static_cast<double>(x.size());
}

bool same_bits(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// The quantizers and abs_max against their one-element-at-a-time
// definitions, bit for bit, on data with the awkward values (-0, NaN,
// +-inf, far out of range, exact ties) at every position of a 16-lane
// group and in a ragged tail.
void check_elementwise_definitions(Rng& rng) {
  Tensor x({16 * 64 + 5});
  fill_normal(x, rng, 0.0, 3.0);
  const float odd[] = {-0.0f, std::numeric_limits<float>::quiet_NaN(),
                       INFINITY, -INFINITY, 1e30f, -1e30f, 0.125f, -0.01f};
  for (index_t i = 0; i < x.size(); i += 7) x[i] = odd[(i / 7) % 8];
  for (index_t bits : {index_t{2}, index_t{4}, index_t{8}}) {
    for (float scale : {0.05f, 0.25f, 2.0f}) {
      const float inv = 1.0f / scale;
      ActQuantizer aq(bits);
      aq.set_scale(scale);
      Tensor a, am, b, bm, bn;
      aq.quantize(x, a, &am);
      quantize_dequantize(x, scale, bits, b, &bm);
      quantize_dequantize(x, scale, bits, bn);
      const float uq = static_cast<float>(unsigned_qmax(bits));
      const float sq = static_cast<float>(signed_qmax(bits));
      for (index_t i = 0; i < x.size(); ++i) {
        float q = std::nearbyint(x[i] * inv);
        bool inside = q >= 0.0f && q <= uq;
        if (!inside) q = q < 0.0f ? 0.0f : uq;
        CHECK(same_bits(a[i], q * scale));
        CHECK(am[i] == (inside ? 1.0f : 0.0f));
        q = std::nearbyint(x[i] * inv);
        inside = q >= -sq && q <= sq;
        if (!inside) q = q < -sq ? -sq : sq;
        CHECK(same_bits(b[i], q * scale) && same_bits(bn[i], b[i]));
        CHECK(bm[i] == (inside ? 1.0f : 0.0f));
      }
    }
  }
  for (index_t n : {0, 1, 15, 16, 17, 16 * 64 + 5}) {
    Tensor t({n});
    float m = 0.0f;
    for (index_t i = 0; i < n; ++i) {
      t[i] = x[(i * 5) % x.size()];
      m = std::max(m, std::fabs(t[i]));  // NaN never replaces m
    }
    CHECK(same_bits(t.abs_max(), m));
  }
}

}  // namespace

int main() {
  // Round-trip: values already on the grid are reproduced exactly and the
  // quantization is idempotent.
  const float scale = 0.25f;
  Tensor grid({7});
  const float vals[7] = {-0.75f, -0.5f, -0.25f, 0.0f, 0.25f, 0.5f, 0.75f};
  for (index_t i = 0; i < 7; ++i) grid[i] = vals[i];
  Tensor out, mask;
  quantize_dequantize(grid, scale, 4, out, &mask);
  for (index_t i = 0; i < 7; ++i) {
    CHECK_NEAR(out[i], grid[i], 1e-6);
    CHECK(mask[i] == 1.0f);
  }
  Tensor out2;
  quantize_dequantize(out, scale, 4, out2);
  for (index_t i = 0; i < 7; ++i) CHECK_NEAR(out2[i], out[i], 0.0);

  // Ternary (2-bit): grid is {-s, 0, +s}; out-of-range values clip and
  // fall outside the STE pass region.
  Tensor t({3});
  t[0] = 0.9f;
  t[1] = -0.04f;
  t[2] = 0.06f;
  quantize_dequantize(t, 0.1f, 2, out, &mask);
  CHECK_NEAR(out[0], 0.1f, 1e-6);   // clipped to +s
  CHECK(mask[0] == 0.0f);
  CHECK_NEAR(out[1], 0.0f, 1e-6);
  CHECK(mask[1] == 1.0f);
  CHECK_NEAR(out[2], 0.1f, 1e-6);
  CHECK(mask[2] == 1.0f);

  // mmse_scale: equivariant under input scaling, beats the max-based
  // scale for ternary on heavy-tailed data, and its MSE is monotonically
  // non-increasing in bit width.
  Rng rng(3);
  Tensor w({4096});
  fill_normal(w, rng);
  const float s1 = mmse_scale(w, 2);
  Tensor w2 = w;
  for (index_t i = 0; i < w2.size(); ++i) w2[i] *= 3.0f;
  const float s2 = mmse_scale(w2, 2);
  CHECK_NEAR(s2 / s1, 3.0, 0.1);

  const float max_based = w.abs_max() / static_cast<float>(signed_qmax(2));
  CHECK(qdq_mse(w, s1, 2) <= qdq_mse(w, max_based, 2) + 1e-9);

  double prev = 1e9;
  for (index_t bits : {index_t{2}, index_t{3}, index_t{4}, index_t{6}}) {
    const double err = qdq_mse(w, mmse_scale(w, bits), bits);
    CHECK(err <= prev + 1e-12);
    prev = err;
  }

  // Activation quantizer: EMA calibration then unsigned quantization.
  ActQuantizer aq(4);
  CHECK(!aq.calibrated());
  Tensor x({100});
  fill_uniform(x, rng, 0.0, 2.0);
  aq.observe(x);
  CHECK(aq.calibrated());
  Tensor xq;
  aq.quantize(x, xq);
  for (index_t i = 0; i < x.size(); ++i) {
    CHECK(xq[i] >= 0.0f);
    CHECK_NEAR(xq[i], x[i], aq.scale() * 0.51);
  }
  check_elementwise_definitions(rng);
  return qavat::test::finish("test_quantizer");
}
