// Tier-1: the tiled/threaded GEMM layer against a naive reference across
// odd/non-tile-multiple shapes and all three transpose variants, the
// always-on shape checks (must throw in Release builds too), thread-count
// bit-identity, and the grouped (noise-batched) NT kernel.
#include <cstring>
#include <stdexcept>

#include "tensor/ops.h"
#include "tensor/parallel_for.h"
#include "tests/test_common.h"

using namespace qavat;

namespace {

Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  const index_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (index_t p = 0; p < k; ++p) {
        acc += static_cast<double>(a[i * k + p]) * static_cast<double>(b[p * n + j]);
      }
      c[i * n + j] = static_cast<float>(acc);
    }
  }
  return c;
}

Tensor transpose(const Tensor& a) {
  const index_t m = a.dim(0), n = a.dim(1);
  Tensor t({n, m});
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < n; ++j) t[j * m + i] = a[i * n + j];
  }
  return t;
}

double max_abs_diff(const Tensor& a, const Tensor& b) {
  double m = 0.0;
  for (index_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::fabs(static_cast<double>(a[i]) - static_cast<double>(b[i])));
  }
  return m;
}

bool bit_identical(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(float)) == 0;
}

// Max |reference| so tolerances scale with the contraction length.
double scale_of(const Tensor& t) {
  double s = 1.0;
  for (index_t i = 0; i < t.size(); ++i) {
    s = std::max(s, std::fabs(static_cast<double>(t[i])));
  }
  return s;
}

void check_all_variants(index_t m, index_t k, index_t n, Rng& rng) {
  Tensor a({m, k}), b({k, n});
  fill_normal(a, rng);
  fill_normal(b, rng);
  Tensor ref = naive_matmul(a, b);
  const double tol = 1e-5 * scale_of(ref) * std::sqrt(static_cast<double>(k));

  Tensor c = matmul(a, b);
  CHECK(c.shape() == ref.shape());
  CHECK(max_abs_diff(c, ref) < tol);
  CHECK(max_abs_diff(matmul_nt(a, transpose(b)), ref) < tol);
  CHECK(max_abs_diff(matmul_tn(transpose(a), b), ref) < tol);
}

template <typename Fn>
bool throws_invalid_argument(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument&) {
    return true;
  } catch (...) {
    return false;
  }
  return false;
}

}  // namespace

int main() {
  Rng rng(42);

  // Odd / non-tile-multiple shapes around the register (4) and column (64)
  // tile sizes, plus degenerate and skinny cases.
  const index_t shapes[][3] = {
      {1, 1, 1},   {3, 5, 7},    {7, 13, 5},  {4, 4, 4},    {16, 16, 16},
      {17, 31, 9}, {64, 48, 33}, {5, 257, 3}, {33, 1, 65},  {1, 96, 130},
      {66, 66, 66}, {31, 7, 127},
  };
  for (const auto& s : shapes) check_all_variants(s[0], s[1], s[2], rng);

  // Shape mismatches throw std::invalid_argument in EVERY build type
  // (the old assert-only checks compiled out under NDEBUG).
  Tensor a23({2, 3}), b45({4, 5}), v3({3});
  CHECK(throws_invalid_argument([&] { matmul(a23, b45); }));
  CHECK(throws_invalid_argument([&] { matmul(a23, v3); }));
  CHECK(throws_invalid_argument([&] { matmul_nt(a23, b45); }));
  CHECK(throws_invalid_argument([&] { matmul_tn(a23, b45); }));
  {
    Tensor c;
    CHECK(throws_invalid_argument(
        [&] { matmul_nt_batched_into(a23, a23, 0, c); }));
    CHECK(throws_invalid_argument(
        [&] { matmul_nt_shared_into(a23, a23, 0, c); }));
    Tensor a63({6, 3}), b43({4, 3});
    CHECK(throws_invalid_argument(
        [&] { matmul_nt_batched_into(a63, b43, 4, c); }));
    CHECK(throws_invalid_argument(
        [&] { matmul_nt_shared_into(a63, b43, 3, c); }));
  }

  // Zero entries must not change the accumulation order: a GEMM where some
  // weights are exactly 0 must equal the same GEMM with those positions
  // contributing 0.0f products (no value-dependent skip branch).
  {
    Tensor a({9, 33}), b({33, 17});
    fill_normal(a, rng);
    fill_normal(b, rng);
    for (index_t i = 0; i < a.size(); i += 3) a[i] = 0.0f;
    Tensor dense = naive_matmul(a, b);
    CHECK(max_abs_diff(matmul(a, b), dense) <
          1e-5 * scale_of(dense) * std::sqrt(33.0));
  }

  // Thread-count bit-identity: the same product computed with 1, 2, 3 and
  // 5 threads must match bit for bit (deterministic row partitioning).
  {
    const index_t saved = num_threads();
    Tensor a({67, 129}), b({129, 43});
    fill_normal(a, rng);
    fill_normal(b, rng);
    Tensor bt = transpose(b);
    Tensor at = transpose(a);
    set_num_threads(1);
    Tensor c1 = matmul(a, b), c1nt = matmul_nt(a, bt), c1tn = matmul_tn(at, b);
    for (index_t nt : {2, 3, 5}) {
      set_num_threads(nt);
      CHECK(bit_identical(matmul(a, b), c1));
      CHECK(bit_identical(matmul_nt(a, bt), c1nt));
      CHECK(bit_identical(matmul_tn(at, b), c1tn));
    }
    set_num_threads(saved);
  }

  // Grouped NT GEMMs == per-group matmul_nt, bit for bit, for any thread
  // count (the batched Monte-Carlo effective-weight path): batched with
  // its own A block per group, shared with one A block for every group.
  {
    const index_t saved = num_threads();
    const index_t groups = 3, rows = 5, k = 37, n = 11;
    Tensor a({groups * rows, k}), b({groups * n, k});
    fill_normal(a, rng);
    fill_normal(b, rng);
    Tensor a0({rows, k});
    std::memcpy(a0.data(), a.data(),
                static_cast<std::size_t>(rows * k) * sizeof(float));
    for (index_t nt : {1, 4}) {
      set_num_threads(nt);
      Tensor c, cs;
      matmul_nt_batched_into(a, b, groups, c);
      matmul_nt_shared_into(a0, b, groups, cs);
      CHECK(c.dim(0) == groups * rows && c.dim(1) == n);
      CHECK(cs.shape() == c.shape());
      for (index_t g = 0; g < groups; ++g) {
        Tensor ag({rows, k}), bg({n, k});
        std::memcpy(ag.data(), a.data() + g * rows * k,
                    static_cast<std::size_t>(rows * k) * sizeof(float));
        std::memcpy(bg.data(), b.data() + g * n * k,
                    static_cast<std::size_t>(n * k) * sizeof(float));
        const auto bytes = static_cast<std::size_t>(rows * n) * sizeof(float);
        Tensor cg = matmul_nt(ag, bg);
        CHECK(std::memcmp(c.data() + g * rows * n, cg.data(), bytes) == 0);
        Tensor cg0 = matmul_nt(a0, bg);
        CHECK(std::memcmp(cs.data() + g * rows * n, cg0.data(), bytes) == 0);
      }
    }
    set_num_threads(saved);
  }

  return qavat::test::finish("test_gemm");
}
