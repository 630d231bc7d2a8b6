#include "tensor/int_ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "tensor/parallel_for.h"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__) && \
    defined(__AVX512VNNI__)
#include <immintrin.h>
#define QAVAT_INT8_VNNI 1
#endif

// Same SIMD-hint convention as tensor/ops.cpp: vectorization directives
// under -fopenmp-simd, plain loops otherwise.
#if defined(QAVAT_OMP_SIMD)
#define QAVAT_PRAGMA(x) _Pragma(#x)
#define QAVAT_SIMD_RED QAVAT_PRAGMA(omp simd reduction(+ : s))
#else
#define QAVAT_SIMD_RED
#endif

namespace qavat {

namespace {

// Register-blocked output rows (grain alignment for the row partition) and
// fork thresholds. The integer kernel moves ~4x the MACs/cycle of the
// float path, so the cutoffs sit higher than ops.cpp's: forking earlier
// would spend more on thread spawns than the saved arithmetic.
constexpr index_t kRowBlock = 4;
constexpr index_t kMinMacsPerChunk = index_t{1} << 21;
constexpr index_t kSerialMacs = index_t{1} << 22;

bool g_force_portable = false;

bool use_vnni() {
#if defined(QAVAT_INT8_VNNI)
  return !g_force_portable;
#else
  return false;
#endif
}

// Always-on (independent of NDEBUG), mirroring tensor/ops.cpp: a bad GEMM
// extent must fail loudly in Release builds instead of reading out of
// bounds.
void check_dims(const char* name, index_t m, index_t k, index_t n) {
  if (m < 0 || k < 0 || n < 0) {
    throw std::invalid_argument(std::string(name) + ": negative extent {" +
                                std::to_string(m) + "," + std::to_string(k) +
                                "," + std::to_string(n) + "}");
  }
}

// Row-partition dispatch, ops.cpp launch_rows with the integer cutoffs:
// grain carries at least kMinMacsPerChunk of work, rounded up to kRowBlock.
// (For integers any partition is exact anyway — the alignment only keeps
// rows on the cheaper 4-row code path.)
template <typename Core>
void launch_int_rows(index_t m, index_t macs_per_row, Core&& core) {
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

// ------------------------------------------------------------- portable
//
// The portable "packed" B image is simply the row-major s8 matrix. Dot
// products accumulate s32 in ascending p; omp simd reduction lets the
// compiler widen to whatever the target offers (pmaddwd on SSE/AVX).

void gemm_rows_portable(const std::int8_t* a, const std::int8_t* b,
                        std::int32_t* c, index_t i0, index_t i1, index_t k,
                        index_t n) {
  for (index_t i = i0; i < i1; ++i) {
    const std::int8_t* ar = a + i * k;
    for (index_t j = 0; j < n; ++j) {
      const std::int8_t* br = b + j * k;
      std::int32_t s = 0;
      QAVAT_SIMD_RED
      for (index_t p = 0; p < k; ++p) {
        s += static_cast<std::int32_t>(ar[p]) * static_cast<std::int32_t>(br[p]);
      }
      c[i * n + j] = s;
    }
  }
}

#if defined(QAVAT_INT8_VNNI)

// ------------------------------------------------------------ AVX-512 VNNI
//
// vpdpbusd multiplies u8 by s8, so activations are biased to u8 by +128
// (x ^ 0x80) at pack time and the bias removed exactly in the epilogue:
// sum((a+128) * b) - 128 * sum(b), with sum(b) precomputed per B row by
// pack_b_s8. A rows are padded with 0x00 pre-bias = 0x80 biased... no:
// padding stores literal 0, which as a u8 operand contributes 0 * b_pad
// and b_pad bytes are 0 too, so k padding adds exactly nothing.
//
// Packed-B layout (per 16-column tile): kg = ceil(k/4) groups of 64 bytes,
// byte (p, j_lane) at [ (p/4)*64 + j_lane*4 + (p%4) ] — one zmm load per
// group feeds 16 lanes of vpdpbusd.

index_t vnni_kg(index_t k) { return (k + 3) / 4; }

void pack_a_u8(const std::int8_t* a, index_t m, index_t k,
               std::vector<std::uint8_t>& apack) {
  const index_t ku4 = vnni_kg(k) * 4;
  apack.resize(static_cast<std::size_t>(m * ku4));
  for (index_t i = 0; i < m; ++i) {
    const std::int8_t* ar = a + i * k;
    std::uint8_t* dst = apack.data() + i * ku4;
    index_t p = 0;
    for (; p < k; ++p) dst[p] = static_cast<std::uint8_t>(ar[p] ^ 0x80);
    for (; p < ku4; ++p) dst[p] = 0;
  }
}

// C rows [i0, i1): 4-row x 2-tile (32-column) register tiles over the
// packed operands; row_sums has exactly n entries, so tail tiles load it
// masked. Bit-exact regardless of the row partition or tile path — the
// accumulation is integer.
void gemm_rows_vnni(const std::uint8_t* apack, const std::int8_t* bpack,
                    const std::int32_t* row_sums, std::int32_t* c, index_t i0,
                    index_t i1, index_t kg, index_t n, index_t ntiles) {
  const index_t ku4 = kg * 4;
  index_t i = i0;
  for (; i + 4 <= i1; i += 4) {
    const std::uint32_t* a0 =
        reinterpret_cast<const std::uint32_t*>(apack + (i + 0) * ku4);
    const std::uint32_t* a1 =
        reinterpret_cast<const std::uint32_t*>(apack + (i + 1) * ku4);
    const std::uint32_t* a2 =
        reinterpret_cast<const std::uint32_t*>(apack + (i + 2) * ku4);
    const std::uint32_t* a3 =
        reinterpret_cast<const std::uint32_t*>(apack + (i + 3) * ku4);
    index_t jt = 0;
    for (; jt + 2 <= ntiles; jt += 2) {
      const __m512i* bp0 = reinterpret_cast<const __m512i*>(bpack + jt * kg * 64);
      const __m512i* bp1 =
          reinterpret_cast<const __m512i*>(bpack + (jt + 1) * kg * 64);
      __m512i v00 = _mm512_setzero_si512(), v01 = v00, v10 = v00, v11 = v00,
              v20 = v00, v21 = v00, v30 = v00, v31 = v00;
      for (index_t p = 0; p < kg; ++p) {
        const __m512i b0 = _mm512_loadu_si512(bp0 + p);
        const __m512i b1 = _mm512_loadu_si512(bp1 + p);
        const __m512i w0 = _mm512_set1_epi32(static_cast<int>(a0[p]));
        const __m512i w1 = _mm512_set1_epi32(static_cast<int>(a1[p]));
        const __m512i w2 = _mm512_set1_epi32(static_cast<int>(a2[p]));
        const __m512i w3 = _mm512_set1_epi32(static_cast<int>(a3[p]));
        v00 = _mm512_dpbusd_epi32(v00, w0, b0);
        v01 = _mm512_dpbusd_epi32(v01, w0, b1);
        v10 = _mm512_dpbusd_epi32(v10, w1, b0);
        v11 = _mm512_dpbusd_epi32(v11, w1, b1);
        v20 = _mm512_dpbusd_epi32(v20, w2, b0);
        v21 = _mm512_dpbusd_epi32(v21, w2, b1);
        v30 = _mm512_dpbusd_epi32(v30, w3, b0);
        v31 = _mm512_dpbusd_epi32(v31, w3, b1);
      }
      const index_t j0 = jt * 16, j1 = j0 + 16;
      // Tile 0 of a pair is always full (j1 <= n here), tile 1 may be the
      // ragged tail; 128 * sum(b) leaves via one shift-and-subtract.
      const __mmask16 m1 = static_cast<__mmask16>(
          (n - j1 >= 16) ? 0xFFFF : ((1u << (n - j1)) - 1));
      const __m512i s0 = _mm512_slli_epi32(
          _mm512_loadu_si512(reinterpret_cast<const __m512i*>(row_sums + j0)), 7);
      const __m512i s1 =
          _mm512_slli_epi32(_mm512_maskz_loadu_epi32(m1, row_sums + j1), 7);
      _mm512_storeu_si512(reinterpret_cast<__m512i*>(c + (i + 0) * n + j0),
                          _mm512_sub_epi32(v00, s0));
      _mm512_mask_storeu_epi32(c + (i + 0) * n + j1, m1, _mm512_sub_epi32(v01, s1));
      _mm512_storeu_si512(reinterpret_cast<__m512i*>(c + (i + 1) * n + j0),
                          _mm512_sub_epi32(v10, s0));
      _mm512_mask_storeu_epi32(c + (i + 1) * n + j1, m1, _mm512_sub_epi32(v11, s1));
      _mm512_storeu_si512(reinterpret_cast<__m512i*>(c + (i + 2) * n + j0),
                          _mm512_sub_epi32(v20, s0));
      _mm512_mask_storeu_epi32(c + (i + 2) * n + j1, m1, _mm512_sub_epi32(v21, s1));
      _mm512_storeu_si512(reinterpret_cast<__m512i*>(c + (i + 3) * n + j0),
                          _mm512_sub_epi32(v30, s0));
      _mm512_mask_storeu_epi32(c + (i + 3) * n + j1, m1, _mm512_sub_epi32(v31, s1));
    }
    for (; jt < ntiles; ++jt) {
      const __m512i* bp = reinterpret_cast<const __m512i*>(bpack + jt * kg * 64);
      __m512i v0 = _mm512_setzero_si512(), v1 = v0, v2 = v0, v3 = v0;
      for (index_t p = 0; p < kg; ++p) {
        const __m512i bv = _mm512_loadu_si512(bp + p);
        v0 = _mm512_dpbusd_epi32(v0, _mm512_set1_epi32(static_cast<int>(a0[p])), bv);
        v1 = _mm512_dpbusd_epi32(v1, _mm512_set1_epi32(static_cast<int>(a1[p])), bv);
        v2 = _mm512_dpbusd_epi32(v2, _mm512_set1_epi32(static_cast<int>(a2[p])), bv);
        v3 = _mm512_dpbusd_epi32(v3, _mm512_set1_epi32(static_cast<int>(a3[p])), bv);
      }
      const index_t j0 = jt * 16;
      const __mmask16 mk = static_cast<__mmask16>(
          (n - j0 >= 16) ? 0xFFFF : ((1u << (n - j0)) - 1));
      const __m512i sv =
          _mm512_slli_epi32(_mm512_maskz_loadu_epi32(mk, row_sums + j0), 7);
      _mm512_mask_storeu_epi32(c + (i + 0) * n + j0, mk, _mm512_sub_epi32(v0, sv));
      _mm512_mask_storeu_epi32(c + (i + 1) * n + j0, mk, _mm512_sub_epi32(v1, sv));
      _mm512_mask_storeu_epi32(c + (i + 2) * n + j0, mk, _mm512_sub_epi32(v2, sv));
      _mm512_mask_storeu_epi32(c + (i + 3) * n + j0, mk, _mm512_sub_epi32(v3, sv));
    }
  }
  for (; i < i1; ++i) {
    const std::uint32_t* a0 =
        reinterpret_cast<const std::uint32_t*>(apack + i * ku4);
    for (index_t jt = 0; jt < ntiles; ++jt) {
      const __m512i* bp = reinterpret_cast<const __m512i*>(bpack + jt * kg * 64);
      __m512i v0 = _mm512_setzero_si512();
      for (index_t p = 0; p < kg; ++p) {
        v0 = _mm512_dpbusd_epi32(v0, _mm512_set1_epi32(static_cast<int>(a0[p])),
                                 _mm512_loadu_si512(bp + p));
      }
      const index_t j0 = jt * 16;
      const __mmask16 mk = static_cast<__mmask16>(
          (n - j0 >= 16) ? 0xFFFF : ((1u << (n - j0)) - 1));
      const __m512i sv =
          _mm512_slli_epi32(_mm512_maskz_loadu_epi32(mk, row_sums + j0), 7);
      _mm512_mask_storeu_epi32(c + i * n + j0, mk, _mm512_sub_epi32(v0, sv));
    }
  }
}

#endif  // QAVAT_INT8_VNNI

}  // namespace

index_t packed_b_s8_bytes(index_t n, index_t k) {
  check_dims("packed_b_s8_bytes", 0, k, n);
#if defined(QAVAT_INT8_VNNI)
  if (use_vnni()) {
    const index_t ntiles = (n + 15) / 16;
    return std::max<index_t>(1, ntiles * vnni_kg(k) * 64);
  }
#endif
  return std::max<index_t>(1, n * k);
}

void pack_b_s8(const std::int8_t* b, index_t n, index_t k, void* packed,
               std::int32_t* row_sums) {
  check_dims("pack_b_s8", 0, k, n);
  if (n <= 0) return;
#if defined(QAVAT_INT8_VNNI)
  if (use_vnni()) {
    const index_t kg = vnni_kg(k);
    std::int8_t* dst_all = static_cast<std::int8_t*>(packed);
    const index_t ntiles = (n + 15) / 16;
    std::memset(dst_all, 0, static_cast<std::size_t>(ntiles * kg * 64));
    for (index_t j = 0; j < n; ++j) {
      const std::int8_t* br = b + j * k;
      const index_t jt = j / 16, jl = j % 16;
      std::int8_t* dst = dst_all + jt * kg * 64;
      std::int32_t s = 0;
      for (index_t p = 0; p < k; ++p) {
        dst[(p / 4) * 64 + jl * 4 + (p % 4)] = br[p];
        s += br[p];
      }
      row_sums[j] = s;
    }
    return;
  }
#endif
  if (k > 0) {
    std::memcpy(packed, b, static_cast<std::size_t>(n * k));
  }
  for (index_t j = 0; j < n; ++j) {
    const std::int8_t* br = b + j * k;
    std::int32_t s = 0;
    for (index_t p = 0; p < k; ++p) s += br[p];
    row_sums[j] = s;
  }
}

void gemm_s8s8_s32_prepacked(const std::int8_t* a, const void* packed,
                             const std::int32_t* row_sums, std::int32_t* c,
                             index_t m, index_t k, index_t n) {
  check_dims("gemm_s8s8_s32_prepacked", m, k, n);
  if (m <= 0 || n <= 0) return;
#if defined(QAVAT_INT8_VNNI)
  if (use_vnni()) {
    const index_t kg = vnni_kg(k);
    const index_t ntiles = (n + 15) / 16;
    // thread_local: reused across the many same-shape GEMMs of an eval
    // loop without per-call heap traffic; packed before the fork so row
    // workers share it read-only.
    thread_local std::vector<std::uint8_t> apack;
    pack_a_u8(a, m, k, apack);
    const std::uint8_t* ap = apack.data();
    const std::int8_t* bp = static_cast<const std::int8_t*>(packed);
    launch_int_rows(m, k * n, [=](index_t i0, index_t i1) {
      gemm_rows_vnni(ap, bp, row_sums, c, i0, i1, kg, n, ntiles);
    });
    return;
  }
#endif
  (void)row_sums;  // only the VNNI epilogue needs the u8 bias correction
  const std::int8_t* bp = static_cast<const std::int8_t*>(packed);
  launch_int_rows(m, k * n, [=](index_t i0, index_t i1) {
    gemm_rows_portable(a, bp, c, i0, i1, k, n);
  });
}

void gemm_s8s8_s32(const std::int8_t* a, const std::int8_t* b, std::int32_t* c,
                   index_t m, index_t k, index_t n) {
  check_dims("gemm_s8s8_s32", m, k, n);
  if (m <= 0 || n <= 0) return;
#if defined(QAVAT_INT8_VNNI)
  if (use_vnni()) {
    thread_local std::vector<std::int8_t> bpack;
    thread_local std::vector<std::int32_t> bsum;
    bpack.resize(static_cast<std::size_t>(packed_b_s8_bytes(n, k)));
    bsum.resize(static_cast<std::size_t>(n));
    pack_b_s8(b, n, k, bpack.data(), bsum.data());
    gemm_s8s8_s32_prepacked(a, bpack.data(), bsum.data(), c, m, k, n);
    return;
  }
#endif
  // Portable mode: the row-major matrix IS the packed image — no copy.
  launch_int_rows(m, k * n, [=](index_t i0, index_t i1) {
    gemm_rows_portable(a, b, c, i0, i1, k, n);
  });
}

void quantize_to_s8(const float* x, index_t count, float inv_scale,
                    std::int32_t bias, std::int32_t lo, std::int32_t hi,
                    std::int8_t* out) {
  if (count < 0) {
    throw std::invalid_argument("quantize_to_s8: negative count");
  }
  if (lo < -128 || hi > 127 || lo > hi) {
    throw std::invalid_argument("quantize_to_s8: clamp range outside s8");
  }
  parallel_for_elems(count, [=](index_t i0, index_t i1) {
    for (index_t i = i0; i < i1; ++i) {
      std::int32_t v =
          static_cast<std::int32_t>(std::nearbyintf(x[i] * inv_scale)) + bias;
      v = std::min(std::max(v, lo), hi);
      out[i] = static_cast<std::int8_t>(v);
    }
  });
}

namespace detail {

bool int8_kernel_is_vnni() { return use_vnni(); }

void set_int8_force_portable(bool on) { g_force_portable = on; }

const char* int8_kernel_name() {
  return use_vnni() ? "avx512-vnni" : "portable";
}

}  // namespace detail

}  // namespace qavat
