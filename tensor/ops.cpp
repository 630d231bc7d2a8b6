#include "tensor/ops.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "tensor/gemm_tile.h"
#include "tensor/parallel_for.h"

namespace qavat {

using gemm::kJTile;
using gemm::kRowBlock;
using gemm::mul_band;
using gemm::pack_nt_panel;

namespace {

// ---------------------------------------------------------------- checks

std::string shape_str(const Tensor& t) {
  std::ostringstream os;
  os << "{";
  for (int i = 0; i < t.ndim(); ++i) os << (i ? "," : "") << t.dim(i);
  os << "}";
  return os.str();
}

// Always-on (independent of NDEBUG): a mismatched GEMM must fail loudly
// in Release builds instead of silently reading out of bounds.
void check_gemm_2d(const char* name, const Tensor& a, const Tensor& b,
                   int a_match, int b_match) {
  if (a.ndim() != 2 || b.ndim() != 2) {
    throw std::invalid_argument(std::string(name) + ": operands must be 2-D, got " +
                                shape_str(a) + " and " + shape_str(b));
  }
  if (a.dim(a_match) != b.dim(b_match)) {
    throw std::invalid_argument(std::string(name) + ": inner dimensions differ, got " +
                                shape_str(a) + " and " + shape_str(b));
  }
}

// ---------------------------------------------------------------- kernels
//
// All cores operate on a row range [i0, i1) of the output and are pure
// serial code; parallel_for splits rows across threads with boundaries
// aligned to kRowBlock, so each row is always processed by the same code
// path (block vs. remainder) with the same per-element operation order —
// the bit-identity guarantee in ops.h.

constexpr index_t kMinMacsPerChunk = index_t{1} << 19;  // thread grain target
constexpr index_t kSerialMacs = index_t{1} << 21;       // below: never fork

// C rows [i0,i1) = A rows * B  (A {m,k} row-major, B {k,n} row-major).
// Row bands outermost: the 4 A rows stay hot while B streams through.
void gemm_nn_rows(const float* pa, const float* pb, float* pc, index_t i0,
                  index_t i1, index_t k, index_t n) {
  index_t i = i0;
  for (; i + kRowBlock <= i1; i += kRowBlock) {
    const float* a0 = pa + i * k;
    auto load_a = [&](index_t p, index_t r) { return a0[r * k + p]; };
    for (index_t j0 = 0; j0 < n; j0 += kJTile) {
      const index_t jr = std::min(kJTile, n - j0);
      mul_band(load_a, pb, n, j0, pc, i, kRowBlock, j0, jr, k, n);
    }
  }
  if (i < i1) {
    const float* a0 = pa + i * k;
    auto load_a = [&](index_t p, index_t r) { return a0[r * k + p]; };
    for (index_t j0 = 0; j0 < n; j0 += kJTile) {
      const index_t jr = std::min(kJTile, n - j0);
      mul_band(load_a, pb, n, j0, pc, i, i1 - i, j0, jr, k, n);
    }
  }
}

// C rows [i0,i1) = A rows * B_packed^T over one packed panel; with Acc
// the per-element chain continues from C's current values.
template <bool Acc = false>
void gemm_nt_panel_rows(const float* pa, const float* pk, float* pc,
                        index_t i0, index_t i1, index_t j0, index_t jr,
                        index_t k, index_t n) {
  index_t i = i0;
  for (; i + kRowBlock <= i1; i += kRowBlock) {
    const float* a0 = pa + i * k;
    auto load_a = [&](index_t p, index_t r) { return a0[r * k + p]; };
    mul_band<Acc>(load_a, pk, kJTile, index_t{0}, pc, i, kRowBlock, j0, jr, k, n);
  }
  if (i < i1) {
    const float* a0 = pa + i * k;
    auto load_a = [&](index_t p, index_t r) { return a0[r * k + p]; };
    mul_band<Acc>(load_a, pk, kJTile, index_t{0}, pc, i, i1 - i, j0, jr, k, n);
  }
}

// C rows [i0,i1) = A rows * B^T  (A {m,k}, B {n,k}, both row-major),
// packing each panel locally — for callers that process the whole row
// range in one call (the grouped/batched paths pack once per group).
template <bool Acc = false>
void gemm_nt_rows(const float* pa, const float* pb, float* pc, index_t i0,
                  index_t i1, index_t k, index_t n) {
  // thread_local: reused across the many small NT GEMMs of an eval loop
  // without a heap allocation per call, and safe under parallel_for.
  thread_local std::vector<float> pack;
  pack.resize(static_cast<std::size_t>(k * kJTile));
  for (index_t j0 = 0; j0 < n; j0 += kJTile) {
    const index_t jr = std::min(kJTile, n - j0);
    pack_nt_panel(pb, k, j0, jr, pack.data());
    gemm_nt_panel_rows<Acc>(pa, pack.data(), pc, i0, i1, j0, jr, k, n);
  }
}

// C rows [i0,i1) = A^T rows * B  (A {k,m}, B {k,n}, both row-major).
void gemm_tn_rows(const float* pa, const float* pb, float* pc, index_t i0,
                  index_t i1, index_t k, index_t m, index_t n) {
  index_t i = i0;
  for (; i + kRowBlock <= i1; i += kRowBlock) {
    const float* a0 = pa + i;
    auto load_a = [&](index_t p, index_t r) { return a0[p * m + r]; };
    for (index_t j0 = 0; j0 < n; j0 += kJTile) {
      const index_t jr = std::min(kJTile, n - j0);
      mul_band(load_a, pb, n, j0, pc, i, kRowBlock, j0, jr, k, n);
    }
  }
  if (i < i1) {
    const float* a0 = pa + i;
    auto load_a = [&](index_t p, index_t r) { return a0[p * m + r]; };
    for (index_t j0 = 0; j0 < n; j0 += kJTile) {
      const index_t jr = std::min(kJTile, n - j0);
      mul_band(load_a, pb, n, j0, pc, i, i1 - i, j0, jr, k, n);
    }
  }
}

// Row-partition dispatch: grain sized so each chunk carries at least
// kMinMacsPerChunk of work, rounded up to kRowBlock so chunk boundaries
// never change a row's block-vs-remainder path.
template <typename Core>
void launch_rows(index_t m, index_t macs_per_row, Core&& core) {
  if (m <= 0) return;
  if (m * macs_per_row < kSerialMacs) {
    core(index_t{0}, m);
    return;
  }
  index_t grain =
      (kMinMacsPerChunk + macs_per_row - 1) / std::max<index_t>(1, macs_per_row);
  grain = ((std::max<index_t>(grain, 1) + kRowBlock - 1) / kRowBlock) * kRowBlock;
  parallel_for(index_t{0}, m, grain, core);
}

// Shared body of matmul_nt_into / matmul_nt_acc_into: serial cutoff,
// pack every B panel once up front so row-split worker threads share the
// transposed panels, then the row-partition sweep. One definition keeps
// the overwrite and accumulate paths schedule-identical — the chained
// bit-equality contract of the acc form depends on that.
template <bool Acc>
void gemm_nt_dispatch(const float* pa, const float* pb, float* pc, index_t m,
                      index_t k, index_t n) {
  if (m * k * n < kSerialMacs) {
    gemm_nt_rows<Acc>(pa, pb, pc, index_t{0}, m, k, n);
    return;
  }
  // thread_local (one buffer per Acc instantiation): reused by the many
  // same-shape NT GEMMs of an eval or training loop without a heap
  // allocation per call.
  const index_t npanels = (n + kJTile - 1) / kJTile;
  thread_local std::vector<float> pack;
  if (pack.size() < static_cast<std::size_t>(npanels * k * kJTile)) {
    pack.resize(static_cast<std::size_t>(npanels * k * kJTile));
  }
  for (index_t j0 = 0; j0 < n; j0 += kJTile) {
    pack_nt_panel(pb, k, j0, std::min(kJTile, n - j0),
                  pack.data() + (j0 / kJTile) * k * kJTile);
  }
  const float* pk_all = pack.data();
  launch_rows(m, k * n, [=](index_t i0, index_t i1) {
    for (index_t j0 = 0; j0 < n; j0 += kJTile) {
      gemm_nt_panel_rows<Acc>(pa, pk_all + (j0 / kJTile) * k * kJTile, pc, i0,
                              i1, j0, std::min(kJTile, n - j0), k, n);
    }
  });
}

}  // namespace

void matmul_into(const Tensor& a, const Tensor& b, Tensor& c) {
  check_gemm_2d("matmul", a, b, 1, 0);
  const index_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  c.resize_for_overwrite({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  launch_rows(m, k * n, [=](index_t i0, index_t i1) {
    gemm_nn_rows(pa, pb, pc, i0, i1, k, n);
  });
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  Tensor c;
  matmul_into(a, b, c);
  return c;
}

void matmul_nt_into(const Tensor& a, const Tensor& b, Tensor& c) {
  check_gemm_2d("matmul_nt", a, b, 1, 1);
  const index_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  c.resize_for_overwrite({m, n});
  gemm_nt_dispatch<false>(a.data(), b.data(), c.data(), m, k, n);
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  Tensor c;
  matmul_nt_into(a, b, c);
  return c;
}

void matmul_nt_acc_into(const Tensor& a, const Tensor& b, Tensor& c) {
  check_gemm_2d("matmul_nt_acc", a, b, 1, 1);
  const index_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  if (c.ndim() != 2 || c.dim(0) != m || c.dim(1) != n) {
    throw std::invalid_argument(
        "matmul_nt_acc: C must be pre-sized to {m,n}, got " + shape_str(c) +
        " for " + shape_str(a) + " * " + shape_str(b) + "^T");
  }
  gemm_nt_dispatch<true>(a.data(), b.data(), c.data(), m, k, n);
}

void matmul_tn_into(const Tensor& a, const Tensor& b, Tensor& c) {
  check_gemm_2d("matmul_tn", a, b, 0, 0);
  const index_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  c.resize_for_overwrite({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  launch_rows(m, k * n, [=](index_t i0, index_t i1) {
    gemm_tn_rows(pa, pb, pc, i0, i1, k, m, n);
  });
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  Tensor c;
  matmul_tn_into(a, b, c);
  return c;
}

void matmul_nt_shared_into(const Tensor& a, const Tensor& b, index_t groups,
                           Tensor& c) {
  check_gemm_2d("matmul_nt_shared", a, b, 1, 1);
  if (groups < 1) {
    throw std::invalid_argument("matmul_nt_shared: groups must be >= 1");
  }
  if (b.dim(0) % groups != 0) {
    throw std::invalid_argument(
        "matmul_nt_shared: B rows not divisible by groups, got " + shape_str(b) +
        " with groups=" + std::to_string(groups));
  }
  const index_t rows = a.dim(0), k = a.dim(1), n = b.dim(0) / groups;
  c.resize_for_overwrite({groups * rows, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  // Each group goes through the full NT dispatch: a group big enough to
  // clear the serial cutoff splits its rows as a NESTED job on the same
  // pool, so group x row parallelism composes without oversubscription
  // (nested dispatches enqueue; the worker budget never multiplies).
  // Either split is bit-identical by the chunking contract.
  auto run = [=](index_t g0, index_t g1) {
    for (index_t g = g0; g < g1; ++g) {
      gemm_nt_dispatch<false>(pa, pb + g * n * k, pc + g * rows * n, rows, k, n);
    }
  };
  if (groups * rows * k * n < kSerialMacs) {
    run(index_t{0}, groups);  // too small to pay a pool dispatch
  } else {
    parallel_for(index_t{0}, groups, index_t{1}, run);
  }
}

void matmul_nt_batched_into(const Tensor& a, const Tensor& b, index_t groups,
                            Tensor& c) {
  check_gemm_2d("matmul_nt_batched", a, b, 1, 1);
  if (groups < 1) {
    throw std::invalid_argument("matmul_nt_batched: groups must be >= 1");
  }
  if (a.dim(0) % groups != 0 || b.dim(0) % groups != 0) {
    throw std::invalid_argument(
        "matmul_nt_batched: rows not divisible by groups, got " + shape_str(a) +
        " and " + shape_str(b) + " with groups=" + std::to_string(groups));
  }
  const index_t rows = a.dim(0) / groups;  // rows per group
  const index_t k = a.dim(1), n = b.dim(0) / groups;
  c.resize_for_overwrite({a.dim(0), n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  // Parallelize across groups with the same local row origin as a
  // standalone matmul_nt, so per-block results are bit-identical to
  // per-group calls. Each group runs the full NT dispatch: big groups
  // split their rows as a NESTED pool job (chip batch x GEMM rows share
  // one worker budget — nested dispatches enqueue, never spawn).
  auto run = [=](index_t g0, index_t g1) {
    for (index_t g = g0; g < g1; ++g) {
      gemm_nt_dispatch<false>(pa + g * rows * k, pb + g * n * k,
                              pc + g * rows * n, rows, k, n);
    }
  };
  if (groups * rows * k * n < kSerialMacs) {
    run(index_t{0}, groups);  // too small to pay a pool dispatch
  } else {
    parallel_for(index_t{0}, groups, index_t{1}, run);
  }
}

void fill_normal(Tensor& t, Rng& rng) { fill_normal(t, rng, 0.0, 1.0); }

void fill_normal(Tensor& t, Rng& rng, double mean, double stddev) {
  float* p = t.data();
  for (index_t i = 0; i < t.size(); ++i) {
    p[i] = static_cast<float>(rng.normal(mean, stddev));
  }
}

void fill_uniform(Tensor& t, Rng& rng, double lo, double hi) {
  float* p = t.data();
  for (index_t i = 0; i < t.size(); ++i) {
    p[i] = static_cast<float>(rng.uniform(lo, hi));
  }
}

void relu_inplace(Tensor& x, Tensor* mask) {
  if (mask != nullptr) mask->resize_for_overwrite(x.shape());
  float* p = x.data();
  float* m = mask != nullptr ? mask->data() : nullptr;
  parallel_for_elems(x.size(), [p, m](index_t i0, index_t i1) {
    if (m != nullptr) {
      for (index_t i = i0; i < i1; ++i) {
        const bool pos = p[i] > 0.0f;
        if (!pos) p[i] = 0.0f;
        m[i] = pos ? 1.0f : 0.0f;
      }
    } else {
      QAVAT_SIMD
      for (index_t i = i0; i < i1; ++i) {
        if (p[i] < 0.0f) p[i] = 0.0f;
      }
    }
  });
}

void scale(float* p, index_t n, float s) {
  parallel_for_elems(n, [p, s](index_t i0, index_t i1) {
    QAVAT_SIMD
    for (index_t i = i0; i < i1; ++i) p[i] *= s;
  });
}

void scale(Tensor& t, float s) { scale(t.data(), t.size(), s); }

double softmax_xent(const Tensor& logits, const std::vector<index_t>& labels,
                    Tensor* grad, index_t* correct) {
  assert(logits.ndim() == 2);
  const index_t n = logits.dim(0), c = logits.dim(1);
  assert(static_cast<index_t>(labels.size()) == n);
  if (grad != nullptr) grad->resize(logits.shape());
  double loss = 0.0;
  index_t hits = 0;
  const float* pl = logits.data();
  for (index_t i = 0; i < n; ++i) {
    const float* row = pl + i * c;
    float mx = row[0];
    index_t arg = 0;
    for (index_t j = 1; j < c; ++j) {
      if (row[j] > mx) {
        mx = row[j];
        arg = j;
      }
    }
    if (arg == labels[static_cast<std::size_t>(i)]) ++hits;
    double z = 0.0;
    for (index_t j = 0; j < c; ++j) z += std::exp(static_cast<double>(row[j] - mx));
    const index_t y = labels[static_cast<std::size_t>(i)];
    const double logp = static_cast<double>(row[y] - mx) - std::log(z);
    loss -= logp;
    if (grad != nullptr) {
      float* grow = grad->data() + i * c;
      for (index_t j = 0; j < c; ++j) {
        const double p = std::exp(static_cast<double>(row[j] - mx)) / z;
        grow[j] = static_cast<float>((p - (j == y ? 1.0 : 0.0)) /
                                     static_cast<double>(n));
      }
    }
  }
  if (correct != nullptr) *correct = hits;
  return loss / static_cast<double>(n);
}

}  // namespace qavat
