// The blocked kernel set: cache-blocked, panel-packed SGEMM behind the
// runtime ISA dispatch (cpu_dispatch.h), plus Conv2d lowered onto it via
// im2col/col2im.
//
// The blocking structure lives in gemm_driver.h, templated on the
// microkernel policy; this TU instantiates the portable tiers:
//   - scalar 4x8: the original C++ register tile, auto-vectorized at -O3.
//     Always available; the reference the SIMD tiers are tested against.
//   - sse2 4x8: explicit 128-bit intrinsics, mul-then-add per lane in the
//     same order as the scalar tile — bit-identical results, but the
//     hand-scheduled loads/broadcasts beat what -O3 extracts from the
//     scalar loop on some compilers.
// The avx2 8x8 FMA tier lives in simd_avx2.cpp (built with -mavx2 -mfma,
// selected only when cpuid reports the CPU can run it).
//
// Shape-special-case routing decides the ALGORITHM (packed microkernel
// vs streaming loops) before the ISA tier decides the instructions: tiny
// problems always run the shared naive loops (bit-identical across
// tiers), while the shallow/wide and long-dot streaming paths dispatch
// per tier like the microkernel does — the conv GEMMs live almost
// entirely on those paths, so they must vectorize too.
//
// Determinism: per tier, results are bit-identical run-to-run and across
// thread counts (every kernel runs single-threaded on the calling thread).
// Across tiers, scalar == sse2 bitwise; avx2 GEMM differs only by the FMA
// rounding and stays inside the cross-set tolerance. The reduction order
// differs from the naive set's (float tiles vs double dot products),
// which is why the two SETS agree only to elementwise tolerance and the
// kernel KIND — never the dispatch tier — is checkpoint-fingerprinted.
#include <algorithm>
#include <cstring>

#include "kernels/conv_lower.h"
#include "kernels/cpu_dispatch.h"
#include "kernels/gemm_driver.h"
#include "kernels/ops_internal.h"
#include "kernels/workspace.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace collapois::kernels::detail {

namespace {

// --- microkernel policies ----------------------------------------------

// C_tile accumulators for one MR x NR tile over a packed KC slice.
// ap: MR-row panel (ap[p * MR + i]), bp: NR-column panel (bp[p * NR + j]).
struct ScalarMicro4x8 {
  static constexpr std::size_t MR = 4;
  static constexpr std::size_t NR = 8;
  static void micro(std::size_t kc, const float* ap, const float* bp,
                    float* acc) {
    for (std::size_t x = 0; x < MR * NR; ++x) acc[x] = 0.0f;
    for (std::size_t p = 0; p < kc; ++p) {
      const float* b = bp + p * NR;
      const float* a = ap + p * MR;
      for (std::size_t i = 0; i < MR; ++i) {
        const float av = a[i];
        float* row = acc + i * NR;
        for (std::size_t j = 0; j < NR; ++j) row[j] += av * b[j];
      }
    }
  }
};

#if defined(__SSE2__)
// Same tile, same per-lane mul-then-add order, 128-bit registers: two
// xmm accumulators per row (cols 0..3 and 4..7), broadcast of a[i] via
// set1. Bit-identical to ScalarMicro4x8 — mulps/addps round exactly like
// the scalar multiply and add.
struct Sse2Micro4x8 {
  static constexpr std::size_t MR = 4;
  static constexpr std::size_t NR = 8;
  static void micro(std::size_t kc, const float* ap, const float* bp,
                    float* acc) {
    __m128 c[MR][2];
    for (std::size_t i = 0; i < MR; ++i) {
      c[i][0] = _mm_setzero_ps();
      c[i][1] = _mm_setzero_ps();
    }
    for (std::size_t p = 0; p < kc; ++p) {
      const __m128 b0 = _mm_loadu_ps(bp + p * NR);
      const __m128 b1 = _mm_loadu_ps(bp + p * NR + 4);
      const float* a = ap + p * MR;
      for (std::size_t i = 0; i < MR; ++i) {
        const __m128 av = _mm_set1_ps(a[i]);
        c[i][0] = _mm_add_ps(c[i][0], _mm_mul_ps(av, b0));
        c[i][1] = _mm_add_ps(c[i][1], _mm_mul_ps(av, b1));
      }
    }
    for (std::size_t i = 0; i < MR; ++i) {
      _mm_storeu_ps(acc + i * NR, c[i][0]);
      _mm_storeu_ps(acc + i * NR + 4, c[i][1]);
    }
  }
};
#endif

// --- streaming paths (scalar/sse2 tiers) --------------------------------
//
// These are forward declarations; definitions follow the routing cutoffs
// below. scalar and sse2 share them (the compiler's SSE2 auto-
// vectorization of these plain streams is already as good as hand-held
// 128-bit intrinsics), which keeps the two tiers bit-identical. The avx2
// tier overrides them with FMA versions in simd_avx2.cpp.
void dot_abt_accum(const float* a, const float* b, float* c, std::size_t m,
                   std::size_t k, std::size_t n, const float* col_bias,
                   float* a_row_sums);
void axpy_atb_accum(const float* a, const float* b, float* c, std::size_t k,
                    std::size_t m, std::size_t n, float* a_col_sums,
                    bool overwrite);

// Baseline-ISA instantiations of the shared conv lowering.
void base_im2col(const Conv2dShape& s, const float* image, float* col,
                 std::size_t ldcol) {
  lower::im2col(s, image, col, ldcol);
}
void base_col2im_add(const Conv2dShape& s, const float* col, std::size_t ldcol,
                     float* grad_image) {
  lower::col2im_add(s, col, ldcol, grad_image);
}

// --- tier dispatch ------------------------------------------------------

constexpr TierOps kScalarTier{TierGemm<ScalarMicro4x8>::gemm,
                              TierGemm<ScalarMicro4x8>::gemm_a_bt_accum,
                              TierGemm<ScalarMicro4x8>::gemm_at_b_accum,
                              naive_gemm,
                              dot_abt_accum,
                              axpy_atb_accum,
                              base_im2col,
                              base_col2im_add};

#if defined(__SSE2__)
constexpr TierOps kSse2Tier{TierGemm<Sse2Micro4x8>::gemm,
                            TierGemm<Sse2Micro4x8>::gemm_a_bt_accum,
                            TierGemm<Sse2Micro4x8>::gemm_at_b_accum,
                            naive_gemm,
                            dot_abt_accum,
                            axpy_atb_accum,
                            base_im2col,
                            base_col2im_add};
#endif

const TierOps& tier_ops() {
  switch (active_tier()) {
#if defined(__SSE2__)
    case IsaTier::sse2:
      return kSse2Tier;
#endif
    case IsaTier::avx2:
      if (avx2_tier_compiled()) return avx2_tier_ops();
      break;  // built without the AVX2 TU: cpu_dispatch caps the tier,
              // but fall back rather than crash if it didn't
    default:
      break;
  }
  return kScalarTier;
}

// Below this many multiply-adds, panel packing costs more than it saves
// (a [16 x 32] x [32 x 2] head GEMM wastes 3/4 of every NR-wide tile on
// zero padding) and the reference loops win. The cutoff is a pure
// function of (m, k, n), so dispatch stays deterministic; problems under
// it run the shared naive loops on EVERY tier, bit-identical to the
// naive set, which only tightens the cross-set tolerance.
constexpr std::size_t kSmallMacCutoff = 4096;

inline bool small_problem(std::size_t m, std::size_t k, std::size_t n) {
  return m * k * n <= kSmallMacCutoff;
}

// C[m x n] += A * B^T with both operands row-major [.. x k]. For a
// handful of outputs over a long reduction (conv weight gradients:
// m = cout, n = cin*k*k, k = batch*oh*ow) panel packing moves more data
// than the microkernel reads back; eight independent float lanes per dot
// product vectorize directly off the contiguous source rows instead. The
// lane split and reduction tree are fixed, so results stay deterministic.
// The avx2 tier's override (simd_avx2.cpp) keeps the same lane split and
// the same final reduction tree, so it differs from this one only at FMA
// rounding inside a lane — inside the cross-set tolerance like the
// microkernel.
void dot_abt_accum(const float* a, const float* b, float* c, std::size_t m,
                   std::size_t k, std::size_t n, const float* col_bias,
                   float* a_row_sums) {
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      float lanes[8] = {};
      std::size_t p = 0;
      for (; p + 8 <= k; p += 8) {
        for (std::size_t l = 0; l < 8; ++l) {
          lanes[l] += arow[p + l] * brow[p + l];
        }
      }
      for (std::size_t l = 0; p + l < k; ++l) {
        lanes[l] += arow[p + l] * brow[p + l];
      }
      const float s = ((lanes[0] + lanes[4]) + (lanes[2] + lanes[6])) +
                      ((lanes[1] + lanes[5]) + (lanes[3] + lanes[7]));
      c[i * n + j] += s + (col_bias != nullptr ? col_bias[j] : 0.0f);
    }
    if (a_row_sums != nullptr) {
      float lanes[8] = {};
      std::size_t p = 0;
      for (; p + 8 <= k; p += 8) {
        for (std::size_t l = 0; l < 8; ++l) lanes[l] += arow[p + l];
      }
      for (std::size_t l = 0; p + l < k; ++l) lanes[l] += arow[p + l];
      a_row_sums[i] += ((lanes[0] + lanes[4]) + (lanes[2] + lanes[6])) +
                       ((lanes[1] + lanes[5]) + (lanes[3] + lanes[7]));
    }
  }
}

// C[m x n] += A^T * B with A stored [k x m], for tiny reduction depths
// over long rows (conv input gradients: k = cout, n = batch*oh*ow). Each
// output row is a fixed-order sum of k scaled contiguous rows of B — pure
// axpy streams, nothing to pack, nothing wasted on padding.
void axpy_atb_accum(const float* a, const float* b, float* c, std::size_t k,
                    std::size_t m, std::size_t n, float* a_col_sums,
                    bool overwrite) {
  for (std::size_t i = 0; i < m; ++i) {
    float* crow = c + i * n;
    std::size_t p0 = 0;
    if (overwrite) {
      // The p = 0 term assigns instead of accumulating, which replaces a
      // caller-side memset + read-modify-write with a single write pass.
      if (k == 0) {
        for (std::size_t j = 0; j < n; ++j) crow[j] = 0.0f;
        continue;
      }
      const float ai = a[i];
      for (std::size_t j = 0; j < n; ++j) crow[j] = ai * b[j];
      p0 = 1;
    }
    for (std::size_t p = p0; p < k; ++p) {
      const float api = a[p * m + i];
      const float* brow = b + p * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += api * brow[j];
    }
  }
  if (a_col_sums != nullptr) {
    for (std::size_t p = 0; p < k; ++p) {
      for (std::size_t i = 0; i < m; ++i) a_col_sums[i] += a[p * m + i];
    }
  }
}

}  // namespace

void blocked_gemm(const float* a, const float* b, float* c, std::size_t m,
                  std::size_t k, std::size_t n, const float* row_bias) {
  if (small_problem(m, k, n)) {
    naive_gemm(a, b, c, m, k, n, row_bias);
    return;
  }
  if (k <= 16 && n >= 256) {
    // Shallow reductions over wide C (conv1's 9-tap forward GEMM) are
    // axpy-bound: nothing to pack, so the tier streams them directly.
    tier_ops().wide_gemm(a, b, c, m, k, n, row_bias);
    return;
  }
  tier_ops().gemm(a, b, c, m, k, n, row_bias);
}

void blocked_gemm_a_bt_accum(const float* a, const float* b, float* c,
                             std::size_t m, std::size_t k, std::size_t n,
                             const float* col_bias, float* a_row_sums) {
  if (small_problem(m, k, n)) {
    naive_gemm_a_bt_accum(a, b, c, m, k, n, col_bias, a_row_sums);
    return;
  }
  if (m * n <= 512 && k >= 512) {
    tier_ops().dot_abt(a, b, c, m, k, n, col_bias, a_row_sums);
    return;
  }
  tier_ops().gemm_a_bt_accum(a, b, c, m, k, n, col_bias, a_row_sums);
}

void blocked_gemm_at_b_accum(const float* a, const float* b, float* c,
                             std::size_t k, std::size_t m, std::size_t n,
                             float* a_col_sums) {
  if (small_problem(m, k, n)) {
    naive_gemm_at_b_accum(a, b, c, k, m, n, a_col_sums);
    return;
  }
  if (k <= 16 && n >= 256) {
    tier_ops().axpy_atb(a, b, c, k, m, n, a_col_sums, /*overwrite=*/false);
    return;
  }
  tier_ops().gemm_at_b_accum(a, b, c, k, m, n, a_col_sums);
}

namespace {

// C = A^T * B into a buffer whose prior contents are dead (the conv
// backward's column-gradient workspace). On the axpy route the tier
// overwrites directly; off it, fall back to zero-then-accumulate so the
// routing cutoffs stay the single source of truth.
void gemm_at_b_overwrite(const float* a, const float* b, float* c,
                         std::size_t k, std::size_t m, std::size_t n,
                         float* a_col_sums) {
  if (!small_problem(m, k, n) && k <= 16 && n >= 256) {
    tier_ops().axpy_atb(a, b, c, k, m, n, a_col_sums, /*overwrite=*/true);
    return;
  }
  std::memset(c, 0, m * n * sizeof(float));
  blocked_gemm_at_b_accum(a, b, c, k, m, n, a_col_sums);
}

}  // namespace

// The whole batch is lowered into ONE column matrix col[K x batch*oh*ow]
// (image b's columns at offset b*oh*ow) so each conv op is a single
// well-shaped GEMM instead of `batch` packing-dominated slivers. The GEMM
// runs in [cout x batch*oh*ow] layout; a row-segment memcpy pass converts
// to/from the tensor's [batch][cout][oh*ow] layout. The lowering order is
// a pure function of the shape and each batch image packs a disjoint
// column range. The per-image passes run inline on the calling thread: a
// pool fan-out of these microsecond-sized bodies costs more in queueing
// and wake-ups than it saves (DESIGN.md §9).
void blocked_conv2d_forward(const Conv2dShape& s, const float* in,
                            const float* weights, const float* bias,
                            float* out) {
  const std::size_t kdim = s.cin * s.k * s.k;
  const std::size_t ohow = s.oh * s.ow;
  const std::size_t n_all = s.batch * ohow;
  Workspace& ws = Workspace::tls();
  float* col = ws.floats(Workspace::kIm2col, kdim * n_all).data();
  float* out_all = ws.floats(Workspace::kConvIo, s.cout * n_all).data();
  const TierOps& ops = tier_ops();
  for (std::size_t b = 0; b < s.batch; ++b) {
    ops.im2col(s, in + b * s.cin * s.h * s.w, col + b * ohow, n_all);
  }
  // out_all[cout x batch*oh*ow] = W[cout x K] * col + bias (fused per-row).
  blocked_gemm(weights, col, out_all, s.cout, kdim, n_all, bias);
  for (std::size_t b = 0; b < s.batch; ++b) {
    for (std::size_t c = 0; c < s.cout; ++c) {
      std::memcpy(out + (b * s.cout + c) * ohow, out_all + c * n_all + b * ohow,
                  ohow * sizeof(float));
    }
  }
}

void blocked_conv2d_backward(const Conv2dShape& s, const float* in,
                             const float* weights, const float* go, float* gw,
                             float* gb, float* gi) {
  const std::size_t kdim = s.cin * s.k * s.k;
  const std::size_t ohow = s.oh * s.ow;
  const std::size_t n_all = s.batch * ohow;
  Workspace& ws = Workspace::tls();
  float* col = ws.floats(Workspace::kIm2col, kdim * n_all).data();
  float* go_all = ws.floats(Workspace::kConvIo, s.cout * n_all).data();
  const TierOps& ops = tier_ops();
  for (std::size_t b = 0; b < s.batch; ++b) {
    ops.im2col(s, in + b * s.cin * s.h * s.w, col + b * ohow, n_all);
    for (std::size_t c = 0; c < s.cout; ++c) {
      std::memcpy(go_all + c * n_all + b * ohow, go + (b * s.cout + c) * ohow,
                  ohow * sizeof(float));
    }
  }
  // gw[cout x K] += go_all * col^T; the bias gradient rides the packing
  // pass as go_all's row sums.
  blocked_gemm_a_bt_accum(go_all, col, gw, s.cout, n_all, kdim, nullptr, gb);
  if (gi == nullptr) return;  // first-layer backward: input grad unused
  // colgrad[K x batch*oh*ow] = W^T * go_all, then scatter-add onto gi.
  float* colgrad = ws.floats(Workspace::kColGrad, kdim * n_all).data();
  gemm_at_b_overwrite(weights, go_all, colgrad, s.cout, kdim, n_all, nullptr);
  // Each image's column gradient scatters onto a disjoint gi plane.
  for (std::size_t b = 0; b < s.batch; ++b) {
    ops.col2im_add(s, colgrad + b * ohow, n_all, gi + b * s.cin * s.h * s.w);
  }
}

}  // namespace collapois::kernels::detail
