// Tier-1: integer GEMM + quantization kernels (tensor/int_ops.h) and the
// int8 inference backend (core/quant/int8_backend.h). The integer kernels
// carry a stronger determinism contract than the float path — results are
// bit-identical for ANY thread count and for both kernel modes (VNNI and
// portable) — so every comparison here is exact except the int8-vs-float
// logit checks, which are bounded by the requant grid step.
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "core/quant/int8_backend.h"
#include "core/variability/variability.h"
#include "eval/evaluator.h"
#include "tensor/int_ops.h"
#include "tensor/parallel_for.h"
#include "tests/test_common.h"

using namespace qavat;

namespace {

// Reference s8 x s8 -> s32 NT GEMM. k stays small enough here that the
// true accumulator fits int32 (|acc| <= 128 * 127 * k).
void naive_gemm(const std::int8_t* a, const std::int8_t* b, std::int32_t* c,
                index_t m, index_t k, index_t n) {
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < n; ++j) {
      std::int32_t s = 0;
      for (index_t p = 0; p < k; ++p) {
        s += static_cast<std::int32_t>(a[i * k + p]) *
             static_cast<std::int32_t>(b[j * k + p]);
      }
      c[i * n + j] = s;
    }
  }
}

void fill_codes(std::vector<std::int8_t>& v, Rng& rng, int lo, int hi) {
  for (auto& x : v) {
    x = static_cast<std::int8_t>(lo + rng.below(hi - lo + 1));
  }
}

bool same_ints(const std::vector<std::int32_t>& a,
               const std::vector<std::int32_t>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(std::int32_t)) == 0;
}

// gemm_s8s8_s32 == naive reference == prepacked form, on one shape.
void check_gemm_shape(index_t m, index_t k, index_t n, Rng& rng) {
  std::vector<std::int8_t> a(static_cast<std::size_t>(m * k));
  std::vector<std::int8_t> b(static_cast<std::size_t>(n * k));
  fill_codes(a, rng, -128, 127);
  fill_codes(b, rng, -127, 127);
  std::vector<std::int32_t> want(static_cast<std::size_t>(m * n));
  naive_gemm(a.data(), b.data(), want.data(), m, k, n);

  std::vector<std::int32_t> got(static_cast<std::size_t>(m * n), -1);
  gemm_s8s8_s32(a.data(), b.data(), got.data(), m, k, n);
  CHECK(same_ints(got, want));

  // Prepacked form: identical integers, and the emitted row sums are the
  // per-row code sums.
  std::vector<std::uint8_t> packed(
      static_cast<std::size_t>(packed_b_s8_bytes(n, k)));
  std::vector<std::int32_t> bsum(static_cast<std::size_t>(n), -1);
  pack_b_s8(b.data(), n, k, packed.data(), bsum.data());
  for (index_t j = 0; j < n; ++j) {
    std::int32_t s = 0;
    for (index_t p = 0; p < k; ++p) s += b[j * k + p];
    CHECK(bsum[static_cast<std::size_t>(j)] == s);
  }
  std::vector<std::int32_t> got2(static_cast<std::size_t>(m * n), -1);
  gemm_s8s8_s32_prepacked(a.data(), packed.data(), bsum.data(), got2.data(), m,
                          k, n);
  CHECK(same_ints(got2, want));
}

}  // namespace

int main() {
  Rng rng(1234);

  // --- kernel correctness across shapes (degenerate, 1xN, Nx1, odd k/n
  // tails that exercise the VNNI k-group and column masks) ---
  const index_t shapes[][3] = {
      {1, 1, 1},   {1, 7, 1},   {5, 1, 3},    {1, 64, 9},
      {3, 5, 2},   {17, 33, 9}, {33, 261, 47}, {64, 128, 48},
  };
  for (const auto& s : shapes) check_gemm_shape(s[0], s[1], s[2], rng);

  // --- VNNI and portable kernels produce identical integers ---
  if (detail::int8_kernel_is_vnni()) {
    const index_t m = 19, k = 77, n = 23;
    std::vector<std::int8_t> a(static_cast<std::size_t>(m * k));
    std::vector<std::int8_t> b(static_cast<std::size_t>(n * k));
    fill_codes(a, rng, -128, 127);
    fill_codes(b, rng, -127, 127);
    std::vector<std::int32_t> vnni(static_cast<std::size_t>(m * n));
    gemm_s8s8_s32(a.data(), b.data(), vnni.data(), m, k, n);
    detail::set_int8_force_portable(true);
    CHECK(!detail::int8_kernel_is_vnni());
    std::vector<std::int32_t> portable(static_cast<std::size_t>(m * n));
    gemm_s8s8_s32(a.data(), b.data(), portable.data(), m, k, n);
    detail::set_int8_force_portable(false);
    CHECK(same_ints(vnni, portable));
  }

  // --- thread-count bit-identity on a shape above the serial cutoff
  // (512 * 128 * 128 = 2^23 MACs > kSerialMacs) ---
  {
    const index_t m = 512, k = 128, n = 128;
    std::vector<std::int8_t> a(static_cast<std::size_t>(m * k));
    std::vector<std::int8_t> b(static_cast<std::size_t>(n * k));
    fill_codes(a, rng, -128, 127);
    fill_codes(b, rng, -127, 127);
    const index_t saved = num_threads();
    set_num_threads(1);
    std::vector<std::int32_t> ref(static_cast<std::size_t>(m * n));
    gemm_s8s8_s32(a.data(), b.data(), ref.data(), m, k, n);
    for (index_t nt : {index_t{2}, index_t{3}, index_t{5}}) {
      set_num_threads(nt);
      std::vector<std::int32_t> got(static_cast<std::size_t>(m * n), -1);
      gemm_s8s8_s32(a.data(), b.data(), got.data(), m, k, n);
      CHECK(same_ints(got, ref));
    }
    set_num_threads(saved);
  }

  // --- quantize_to_s8: half-to-even rounding, bias, clamping, and exact
  // recovery of activation-grid values ---
  {
    const float xs[] = {0.5f, 1.5f, 2.5f, -0.5f, -1.5f, -2.5f, 200.0f,
                        -200.0f};
    std::int8_t out[8];
    quantize_to_s8(xs, 8, 1.0f, 0, -128, 127, out);
    const std::int8_t want[] = {0, 2, 2, 0, -2, -2, 127, -128};
    for (int i = 0; i < 8; ++i) CHECK(out[i] == want[i]);

    // Grid values scale * q, q in [0, 255], recover q - 128 exactly under
    // the a8 biased mapping.
    const float scale = 0.0123f;
    std::vector<float> grid(256);
    std::vector<std::int8_t> codes(256);
    for (int q = 0; q < 256; ++q) grid[q] = scale * static_cast<float>(q);
    quantize_to_s8(grid.data(), 256, 1.0f / scale, -128, -128, 127,
                   codes.data());
    for (int q = 0; q < 256; ++q) CHECK(codes[q] == q - 128);

    // Narrower clamp window (the w8 symmetric range).
    quantize_to_s8(xs, 8, 100.0f, 0, -127, 127, out);
    CHECK(out[0] == 50 && out[6] == 127 && out[7] == -127);
  }

  // --- Int8Backend vs the float weight-domain forward, exact grid
  // (noise-free): logits agree to float accumulation error ---
  {
    Rng lrng(7);
    QuantLinear layer(48, 12, 8, 8, lrng);
    layer.set_training(false);
    layer.refresh_weight_scale();
    const float a_scale = 0.01f;
    layer.act_quantizer().set_scale(a_scale);

    Tensor x({6, 48});
    for (index_t i = 0; i < x.size(); ++i) {
      x[i] = a_scale * static_cast<float>(lrng.below(256));  // on-grid input
    }
    Tensor y_float = layer.forward(x);

    Workspace ws;
    Int8Backend backend(layer, ws);
    layer.set_analog_backend(&backend);
    Tensor y_int = layer.forward(x);
    layer.set_analog_backend(nullptr);

    CHECK(backend.planes_exact_grid());
    CHECK(y_int.dim(0) == 6 && y_int.dim(1) == 12);
    for (index_t i = 0; i < y_int.size(); ++i) {
      CHECK_NEAR(y_int[i], y_float[i], 1e-4 * (1.0 + std::fabs(y_float[i])));
    }

    // Uncalibrated activation scale: the backend refuses.
    Rng lrng2(8);
    QuantLinear raw(8, 4, 8, 8, lrng2);
    raw.set_training(false);
    raw.refresh_weight_scale();
    Int8Backend backend2(raw, ws);
    raw.set_analog_backend(&backend2);
    Tensor xr({2, 8});
    bool threw = false;
    try {
      raw.forward(xr);
    } catch (const std::logic_error&) {
      threw = true;
    }
    raw.set_analog_backend(nullptr);
    CHECK(threw);
  }

  // --- Int8Backend grouped (noise-batched) forward under injected
  // variability: per-element error bounded by the per-slot requant grid
  // step (0.5 * unit * sum|x|), and the planes report the max-scaled grid ---
  {
    Rng lrng(9);
    QuantLinear layer(32, 10, 8, 8, lrng);
    layer.set_training(false);
    layer.refresh_weight_scale();
    const float a_scale = 0.02f;
    layer.act_quantizer().set_scale(a_scale);
    const index_t nb = 4, rows_per = 3;
    ensure_noise_batch(layer, nb);
    const VariabilityConfig vcfg =
        VariabilityConfig::within_only(VarianceModel::kWeightProportional, 0.3);
    Rng noise_rng(10);
    for (index_t s = 0; s < nb; ++s) {
      sample_variability_slot(layer, vcfg, noise_rng, s);
    }

    Tensor x({nb * rows_per, 32});
    for (index_t i = 0; i < x.size(); ++i) {
      x[i] = a_scale * static_cast<float>(lrng.below(256));
    }
    Tensor y_float = layer.forward(x);

    Workspace ws;
    Int8Backend backend(layer, ws);
    layer.set_analog_backend(&backend);
    Tensor y_int = layer.forward(x);
    layer.set_analog_backend(nullptr);
    CHECK(!backend.planes_exact_grid());  // noisy weights: max-scaled grid

    // Per-slot error bound from that slot's |w|max / 127 grid step.
    const Tensor& weff = layer.backend_effective_weight();
    CHECK(weff.dim(0) == nb * 10 && weff.dim(1) == 32);
    for (index_t g = 0; g < nb; ++g) {
      float wmax = 0.0f;
      for (index_t i = 0; i < 10 * 32; ++i) {
        const float v = std::fabs(weff[g * 10 * 32 + i]);
        if (v > wmax) wmax = v;
      }
      const double unit = (wmax > 0.0f ? wmax : 1.0f) / 127.0;
      for (index_t r = 0; r < rows_per; ++r) {
        const index_t row = g * rows_per + r;
        double xsum = 0.0;
        for (index_t p = 0; p < 32; ++p) xsum += std::fabs(x[row * 32 + p]);
        const double tol = 0.5 * unit * xsum * 1.05 + 1e-4;
        for (index_t j = 0; j < 10; ++j) {
          CHECK_NEAR(y_int[row * 10 + j], y_float[row * 10 + j], tol);
        }
      }
    }
  }

  // --- evaluate_under_variability through the int8 backend: per-chip
  // accuracies invariant to chip_batch and thread count, and equal to the
  // float weight-domain backend on the noise-free (exact-grid) path ---
  {
    SynthDigitsConfig dcfg;
    dcfg.n_train = 16;
    dcfg.n_test = 96;
    SplitDataset data = make_synth_digits(dcfg);
    ModelConfig mcfg;
    mcfg.a_bits = 4;
    mcfg.w_bits = 2;
    mcfg.in_channels = 1;
    mcfg.image_size = 12;
    auto model = make_model(ModelKind::kLeNet5s, mcfg);
    for (QuantLayerBase* q : model->quant_layers()) {
      q->refresh_weight_scale();
      q->act_quantizer().set_scale(0.25f);
    }
    model->set_training(false);

    EvalConfig base;
    base.n_chips = 5;
    base.max_test_samples = 96;
    base.batch_size = 32;
    base.seed = 321;
    base.backend = EvalBackend::kInt8;

    const VariabilityConfig vcfg =
        VariabilityConfig::mixed(VarianceModel::kWeightProportional, 0.4);
    EvalConfig seq = base;
    seq.chip_batch = 1;
    const EvalStats ref =
        evaluate_under_variability(*model, data.test, vcfg, seq);
    CHECK(static_cast<index_t>(ref.per_chip_acc.size()) == base.n_chips);
    for (index_t cb : {index_t{2}, index_t{4}, index_t{0}}) {
      EvalConfig batched = base;
      batched.chip_batch = cb;
      const EvalStats got =
          evaluate_under_variability(*model, data.test, vcfg, batched);
      CHECK(got.per_chip_acc == ref.per_chip_acc);
    }
    const index_t saved = num_threads();
    for (index_t nt : {index_t{2}, index_t{3}}) {
      set_num_threads(nt);
      EvalConfig batched = base;
      batched.chip_batch = 4;
      const EvalStats got =
          evaluate_under_variability(*model, data.test, vcfg, batched);
      CHECK(got.per_chip_acc == ref.per_chip_acc);
    }
    set_num_threads(saved);

    // Noise-free: requant grid exact, so int8 and weight-domain chips
    // classify identically.
    const VariabilityConfig off;  // sigma_w = sigma_b = 0
    EvalConfig wd = base;
    wd.backend = EvalBackend::kWeightDomain;
    const EvalStats a = evaluate_under_variability(*model, data.test, off, wd);
    const EvalStats b =
        evaluate_under_variability(*model, data.test, off, base);
    CHECK(a.per_chip_acc == b.per_chip_acc);
  }

  // --- eval_backend_from_env re-reads the environment every call
  // (scenario sweeps flip it between runs) ---
  {
    setenv("QAVAT_EVAL_BACKEND", "int8", 1);
    CHECK(eval_backend_from_env() == EvalBackend::kInt8);
    setenv("QAVAT_EVAL_BACKEND", "circuit", 1);
    CHECK(eval_backend_from_env() == EvalBackend::kCircuit);
    setenv("QAVAT_EVAL_BACKEND", "weight_domain", 1);
    CHECK(eval_backend_from_env() == EvalBackend::kWeightDomain);
    unsetenv("QAVAT_EVAL_BACKEND");
    CHECK(eval_backend_from_env() == EvalBackend::kWeightDomain);
    CHECK(std::strcmp(to_string(EvalBackend::kInt8), "int8") == 0);
  }

  return qavat::test::finish("test_int_ops");
}
