// Integer GEMM + quantization kernels for the int8 inference backend
// (DESIGN.md §12). s8 x s8 -> s32 in the same NT layout as the float path
// (A {m,k} row-major activations, B {n,k} row-major weight rows), register
// tiled, with parallel_for row partitioning. Integer accumulation is
// associative, so results are bit-identical for ANY thread count and for
// any register-tile schedule — stronger than the float contract, which
// only pins one schedule.
//
// Two kernel modes share one packed-B format chosen at runtime:
//  * AVX-512 VNNI (when compiled in and supported): B packed per 16-column
//    tile into k-groups of 4 interleaved bytes, A biased to u8 by +128 and
//    the bias removed exactly via precomputed B row sums.
//  * Portable: plain omp-simd dot products on the unpacked s8 rows.
// The packed-B layout is MODE-SPECIFIC: a buffer produced by pack_b_s8()
// is only valid for the mode active when it was packed (see
// detail::set_int8_force_portable).
#pragma once

#include <cstdint>

#include "tensor/tensor.h"

namespace qavat {

/// Bytes required for pack_b_s8()'s packed image of a {n, k} s8 weight
/// matrix under the currently active kernel mode. Always >= 1 so a
/// zero-sized matrix still has a valid (unused) buffer address.
index_t packed_b_s8_bytes(index_t n, index_t k);

/// Pack B {n, k} (s8 row-major weight rows, NT layout) into `packed`
/// (>= packed_b_s8_bytes(n, k) bytes, 4-byte aligned) and write the per-row
/// code sums into row_sums[0..n) — used by the VNNI kernel's u8 bias
/// correction and by callers folding activation zero-points
/// (acc + zero_point * row_sums[j] shifts u8 codes back to signed).
void pack_b_s8(const std::int8_t* b, index_t n, index_t k, void* packed,
               std::int32_t* row_sums);

/// C {m, n} (s32) = A {m, k} (s8) * B^T where `packed`/`row_sums` came from
/// pack_b_s8 on B {n, k} under the SAME kernel mode. This is the fast path
/// for weights reused across many activation batches (the per-chip plane
/// cache): per-call work is one u8 repack of A plus the multiply.
void gemm_s8s8_s32_prepacked(const std::int8_t* a, const void* packed,
                             const std::int32_t* row_sums, std::int32_t* c,
                             index_t m, index_t k, index_t n);

/// Self-contained C {m, n} (s32) = A {m, k} (s8) * B {n, k} (s8)^T — packs
/// B into thread-local scratch, then runs the prepacked kernel. Same exact
/// integer result as the prepacked form.
void gemm_s8s8_s32(const std::int8_t* a, const std::int8_t* b, std::int32_t* c,
                   index_t m, index_t k, index_t n);

/// out[i] = clamp(nearbyint(x[i] * inv_scale) + bias, lo, hi) as s8, for
/// i in [0, count). nearbyint (round-half-to-even) matches the float
/// quantizers, so grid values x = scale * q with |q| <= 255 recover q
/// exactly. [lo, hi] must lie within [-128, 127]. Thread-count
/// deterministic (pure elementwise).
void quantize_to_s8(const float* x, index_t count, float inv_scale,
                    std::int32_t bias, std::int32_t lo, std::int32_t hi,
                    std::int8_t* out);

namespace detail {
/// True when the AVX-512 VNNI kernel is compiled in and not overridden —
/// i.e. the mode pack_b_s8 / gemm_s8s8_s32_prepacked currently use.
bool int8_kernel_is_vnni();

/// Test hook: force the portable kernel even when VNNI is available (used
/// to assert both kernels produce identical integers). Packed-B buffers do
/// NOT survive a mode flip — only toggle between complete GEMM + pack
/// cycles, never while a packed plane is live.
void set_int8_force_portable(bool on);

/// Human-readable name of the active kernel mode ("avx512-vnni" or
/// "portable"), for bench output.
const char* int8_kernel_name();
}  // namespace detail

}  // namespace qavat
