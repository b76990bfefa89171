// The avx2 dispatch tier: an 8x8 FMA broadcast-and-accumulate GEMM
// microkernel instantiated into the shared blocked driver
// (gemm_driver.h), plus FMA overrides of the streaming shape-routes
// (wide_gemm / dot_abt / axpy_atb) that carry most conv-GEMM FLOPs.
// This is the only translation unit in the tree built
// with -mavx2 -mfma (see src/kernels/CMakeLists.txt) — everything else
// stays baseline-ISA, and the cpuid dispatcher (cpu_dispatch.h)
// guarantees these functions are only ever CALLED on CPUs that can
// execute them. Keep AVX2 code out of headers this TU shares with the
// rest of the tree.
//
// Microkernel shape: MR=8 rows x NR=8 columns = 8 ymm accumulators, one
// per row, fed by one ymm load of the B panel row and eight broadcasts
// from the A panel per reduction step — 16 FMAs per 2 loads at the
// unroll-by-2 steady state, comfortably inside the 16-register budget.
//
// Numerics: vfmadd rounds the multiply-add once where the scalar/sse2
// tiers round twice, so GEMM results differ from those tiers at the
// last-ulp level (inside the cross-set tolerance the property suites
// enforce). The reduction ORDER is identical — same KC/MC/NC blocking,
// same p-ascending accumulation — so the difference never compounds
// beyond rounding. Results are still bit-identical run-to-run on this
// tier.
//
// On non-x86 targets (or builds where the compiler cannot target AVX2)
// this TU compiles to a stub: avx2_tier_compiled() returns false and the
// dispatcher caps the active tier below avx2.
#include "kernels/ops_internal.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <vector>

#include "kernels/conv_lower.h"
#include "kernels/gemm_driver.h"

namespace collapois::kernels::detail {

namespace {

struct Avx2Micro8x8 {
  static constexpr std::size_t MR = 8;
  static constexpr std::size_t NR = 8;
  static void micro(std::size_t kc, const float* ap, const float* bp,
                    float* acc) {
    __m256 c0 = _mm256_setzero_ps();
    __m256 c1 = _mm256_setzero_ps();
    __m256 c2 = _mm256_setzero_ps();
    __m256 c3 = _mm256_setzero_ps();
    __m256 c4 = _mm256_setzero_ps();
    __m256 c5 = _mm256_setzero_ps();
    __m256 c6 = _mm256_setzero_ps();
    __m256 c7 = _mm256_setzero_ps();
    for (std::size_t p = 0; p < kc; ++p) {
      const __m256 b = _mm256_loadu_ps(bp + p * NR);
      const float* a = ap + p * MR;
      c0 = _mm256_fmadd_ps(_mm256_broadcast_ss(a + 0), b, c0);
      c1 = _mm256_fmadd_ps(_mm256_broadcast_ss(a + 1), b, c1);
      c2 = _mm256_fmadd_ps(_mm256_broadcast_ss(a + 2), b, c2);
      c3 = _mm256_fmadd_ps(_mm256_broadcast_ss(a + 3), b, c3);
      c4 = _mm256_fmadd_ps(_mm256_broadcast_ss(a + 4), b, c4);
      c5 = _mm256_fmadd_ps(_mm256_broadcast_ss(a + 5), b, c5);
      c6 = _mm256_fmadd_ps(_mm256_broadcast_ss(a + 6), b, c6);
      c7 = _mm256_fmadd_ps(_mm256_broadcast_ss(a + 7), b, c7);
    }
    _mm256_storeu_ps(acc + 0 * NR, c0);
    _mm256_storeu_ps(acc + 1 * NR, c1);
    _mm256_storeu_ps(acc + 2 * NR, c2);
    _mm256_storeu_ps(acc + 3 * NR, c3);
    _mm256_storeu_ps(acc + 4 * NR, c4);
    _mm256_storeu_ps(acc + 5 * NR, c5);
    _mm256_storeu_ps(acc + 6 * NR, c6);
    _mm256_storeu_ps(acc + 7 * NR, c7);
  }
};

// --- streaming paths ----------------------------------------------------
//
// The conv GEMMs mostly route AROUND the microkernel (shallow k, long
// dots — see the cutoffs in blocked.cpp), so the avx2 tier must also
// override the streaming loops or conv throughput would not move at all.
// Each keeps the scalar version's loop structure; only the instruction
// width and the fused multiply-add rounding differ.

// All three streams are L2-bandwidth-bound if B is re-read per output
// row (the flop:byte ratio of a k<=16 GEMM is too low for a row-at-a-
// time loop to beat auto-vectorized SSE2 — measured flat). The overrides
// therefore block over STRIPS of kStrip C rows: one pass over B updates
// the whole strip from registers, cutting B traffic by kStrip x and
// giving kStrip independent FMA chains. Per element the reduction is
// still p-ascending, so only the FMA rounding differs from the scalar
// route.
constexpr std::size_t kStrip = 4;

// The ROWS template parameter makes every strip loop trip count a
// compile-time constant so the accumulators live in ymm registers — with
// a runtime row count the compiler indexes an __m256 array through the
// stack and every fmadd round-trips through memory.
template <std::size_t ROWS>
void wide_gemm_strip(const float* a, const float* b, float* c, std::size_t i0,
                     std::size_t k, std::size_t n, const float* row_bias) {
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    __m256 acc[ROWS];
    for (std::size_t s = 0; s < ROWS; ++s) {
      acc[s] = _mm256_set1_ps(row_bias != nullptr ? row_bias[i0 + s] : 0.0f);
    }
    for (std::size_t p = 0; p < k; ++p) {
      const __m256 bv = _mm256_loadu_ps(b + p * n + j);
      for (std::size_t s = 0; s < ROWS; ++s) {
        acc[s] = _mm256_fmadd_ps(_mm256_broadcast_ss(a + (i0 + s) * k + p), bv,
                                 acc[s]);
      }
    }
    for (std::size_t s = 0; s < ROWS; ++s) {
      _mm256_storeu_ps(c + (i0 + s) * n + j, acc[s]);
    }
  }
  for (; j < n; ++j) {
    for (std::size_t s = 0; s < ROWS; ++s) {
      const std::size_t i = i0 + s;
      float v = row_bias != nullptr ? row_bias[i] : 0.0f;
      for (std::size_t p = 0; p < k; ++p) v += a[i * k + p] * b[p * n + j];
      c[i * n + j] = v;
    }
  }
}

// C = A * B + bias for k <= 16, n >= 256.
void avx2_wide_gemm(const float* a, const float* b, float* c, std::size_t m,
                    std::size_t k, std::size_t n, const float* row_bias) {
  std::size_t i0 = 0;
  for (; i0 + kStrip <= m; i0 += kStrip) {
    wide_gemm_strip<kStrip>(a, b, c, i0, k, n, row_bias);
  }
  switch (m - i0) {
    case 1: wide_gemm_strip<1>(a, b, c, i0, k, n, row_bias); break;
    case 2: wide_gemm_strip<2>(a, b, c, i0, k, n, row_bias); break;
    case 3: wide_gemm_strip<3>(a, b, c, i0, k, n, row_bias); break;
    default: break;
  }
}

// C += A * B^T for m*n <= 512, k >= 512. Same eight-lane split and same
// final reduction tree as the scalar dot_abt_accum; the strip gives
// kStrip independent fmadd chains sharing each B-row load, which both
// hides the FMA latency and keeps B traffic down.
inline float lane_tree(const float* l) {
  return ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]));
}

// One strip of ROWS A-rows against all n B-rows. k can be long (the
// route fires at k >= 512), so the strip's A working set may exceed L1;
// the reduction therefore walks k in L1-sized chunks with the lane
// accumulators PERSISTED across chunks (acc[j*ROWS+s] carries between
// passes), which keeps the per-element fmadd order identical to an
// unchunked loop while each A chunk is read from L2 once and then served
// from L1 for all n columns. ROWS*n <= m*n <= 512 by the route cutoff,
// so the accumulator array is bounded.
template <std::size_t ROWS>
void dot_abt_strip(const float* a, const float* b, float* c, std::size_t i0,
                   std::size_t k, std::size_t n, const float* col_bias) {
  constexpr std::size_t kChunkK = 2048;  // 8 KiB per row, 32 KiB per strip
  __m256 acc[512];
  for (std::size_t x = 0; x < ROWS * n; ++x) acc[x] = _mm256_setzero_ps();
  const std::size_t kvec = k & ~std::size_t{7};
  for (std::size_t p0 = 0; p0 < kvec; p0 += kChunkK) {
    const std::size_t pend = std::min(kvec, p0 + kChunkK);
    // Columns go two at a time: each A load feeds both columns' fmadds,
    // which doubles the independent accumulator chains (2*ROWS) — with
    // only ROWS chains the loop is FMA-latency-bound, not throughput-
    // bound. Each (row, column) still has its own single 8-lane chain,
    // so the per-element reduction order is untouched.
    std::size_t j = 0;
    for (; j + 2 <= n; j += 2) {
      const float* brow0 = b + j * k;
      const float* brow1 = brow0 + k;
      __m256 l0[ROWS], l1[ROWS];
      for (std::size_t s = 0; s < ROWS; ++s) {
        l0[s] = acc[j * ROWS + s];
        l1[s] = acc[(j + 1) * ROWS + s];
      }
      for (std::size_t p = p0; p < pend; p += 8) {
        const __m256 bv0 = _mm256_loadu_ps(brow0 + p);
        const __m256 bv1 = _mm256_loadu_ps(brow1 + p);
        for (std::size_t s = 0; s < ROWS; ++s) {
          const __m256 av = _mm256_loadu_ps(a + (i0 + s) * k + p);
          l0[s] = _mm256_fmadd_ps(av, bv0, l0[s]);
          l1[s] = _mm256_fmadd_ps(av, bv1, l1[s]);
        }
      }
      for (std::size_t s = 0; s < ROWS; ++s) {
        acc[j * ROWS + s] = l0[s];
        acc[(j + 1) * ROWS + s] = l1[s];
      }
    }
    for (; j < n; ++j) {
      const float* brow = b + j * k;
      __m256 l[ROWS];
      for (std::size_t s = 0; s < ROWS; ++s) l[s] = acc[j * ROWS + s];
      for (std::size_t p = p0; p < pend; p += 8) {
        const __m256 bv = _mm256_loadu_ps(brow + p);
        for (std::size_t s = 0; s < ROWS; ++s) {
          l[s] = _mm256_fmadd_ps(_mm256_loadu_ps(a + (i0 + s) * k + p), bv,
                                 l[s]);
        }
      }
      for (std::size_t s = 0; s < ROWS; ++s) acc[j * ROWS + s] = l[s];
    }
  }
  for (std::size_t j = 0; j < n; ++j) {
    const float* brow = b + j * k;
    for (std::size_t s = 0; s < ROWS; ++s) {
      alignas(32) float lanes[8];
      _mm256_store_ps(lanes, acc[j * ROWS + s]);
      const float* arow = a + (i0 + s) * k;
      for (std::size_t l = 0; kvec + l < k; ++l) {
        lanes[l] += arow[kvec + l] * brow[kvec + l];
      }
      c[(i0 + s) * n + j] +=
          lane_tree(lanes) + (col_bias != nullptr ? col_bias[j] : 0.0f);
    }
  }
}

void avx2_dot_abt(const float* a, const float* b, float* c, std::size_t m,
                  std::size_t k, std::size_t n, const float* col_bias,
                  float* a_row_sums) {
  std::size_t i0 = 0;
  for (; i0 + kStrip <= m; i0 += kStrip) {
    dot_abt_strip<kStrip>(a, b, c, i0, k, n, col_bias);
  }
  switch (m - i0) {
    case 1: dot_abt_strip<1>(a, b, c, i0, k, n, col_bias); break;
    case 2: dot_abt_strip<2>(a, b, c, i0, k, n, col_bias); break;
    case 3: dot_abt_strip<3>(a, b, c, i0, k, n, col_bias); break;
    default: break;
  }
  if (a_row_sums != nullptr) {
    for (std::size_t i = 0; i < m; ++i) {
      const float* arow = a + i * k;
      __m256 acc = _mm256_setzero_ps();
      std::size_t p = 0;
      for (; p + 8 <= k; p += 8) {
        acc = _mm256_add_ps(acc, _mm256_loadu_ps(arow + p));
      }
      alignas(32) float lanes[8];
      _mm256_store_ps(lanes, acc);
      for (std::size_t l = 0; p + l < k; ++l) lanes[l] += arow[p + l];
      a_row_sums[i] += lane_tree(lanes);
    }
  }
}

// C += A^T * B for k <= 16, n >= 256: axpy stacks over long rows of B,
// strip-blocked like wide_gemm. Accumulate mode loads C into the
// register accumulators; overwrite mode starts them at zero, saving the
// read of C (and the caller's memset) when C's prior contents are dead.
template <std::size_t ROWS>
void axpy_atb_strip(const float* a, const float* b, float* c, std::size_t i0,
                    std::size_t k, std::size_t m, std::size_t n,
                    bool overwrite) {
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    __m256 acc[ROWS];
    for (std::size_t s = 0; s < ROWS; ++s) {
      acc[s] = overwrite ? _mm256_setzero_ps()
                         : _mm256_loadu_ps(c + (i0 + s) * n + j);
    }
    for (std::size_t p = 0; p < k; ++p) {
      const __m256 bv = _mm256_loadu_ps(b + p * n + j);
      const float* ap = a + p * m + i0;
      for (std::size_t s = 0; s < ROWS; ++s) {
        acc[s] = _mm256_fmadd_ps(_mm256_broadcast_ss(ap + s), bv, acc[s]);
      }
    }
    for (std::size_t s = 0; s < ROWS; ++s) {
      _mm256_storeu_ps(c + (i0 + s) * n + j, acc[s]);
    }
  }
  for (; j < n; ++j) {
    for (std::size_t s = 0; s < ROWS; ++s) {
      const std::size_t i = i0 + s;
      float v = overwrite ? 0.0f : c[i * n + j];
      for (std::size_t p = 0; p < k; ++p) v += a[p * m + i] * b[p * n + j];
      c[i * n + j] = v;
    }
  }
}

void avx2_axpy_atb(const float* a, const float* b, float* c, std::size_t k,
                   std::size_t m, std::size_t n, float* a_col_sums,
                   bool overwrite) {
  std::size_t i0 = 0;
  for (; i0 + kStrip <= m; i0 += kStrip) {
    axpy_atb_strip<kStrip>(a, b, c, i0, k, m, n, overwrite);
  }
  switch (m - i0) {
    case 1: axpy_atb_strip<1>(a, b, c, i0, k, m, n, overwrite); break;
    case 2: axpy_atb_strip<2>(a, b, c, i0, k, m, n, overwrite); break;
    case 3: axpy_atb_strip<3>(a, b, c, i0, k, m, n, overwrite); break;
    default: break;
  }
  if (a_col_sums != nullptr) {
    for (std::size_t p = 0; p < k; ++p) {
      for (std::size_t i = 0; i < m; ++i) a_col_sums[i] += a[p * m + i];
    }
  }
}

// --- pairwise dot products ----------------------------------------------
//
// kernels::pairwise_dots on this tier: register tiles of 4 rows x 8 panel
// lanes. Rows j0 .. j0+7 are widened to double once, into one transposed
// panel (element p of lane l at [p*8 + l], 8*d doubles, the only
// scratch); every earlier 4-row block then sweeps it with 8 ymm
// accumulators, two per row. Each pair is still one chain summed in
// order p = 0..d-1 from 0.0, and each term is the product of two widened
// floats: at most 48 significant bits, magnitude in [2^-298, 2^256), so
// double holds it exactly. The explicit fmadd therefore rounds the same
// real number s + x*y as the reference tier's s += x * y, and every
// output is bit-identical to base_pairwise_dots (vecmath.cpp). Whether
// or not the compiler contracts other multiply-adds in this TU, this
// argument is what makes the tile exact.
void avx2_pairwise_dots(const float* const* rows, std::size_t n,
                        std::size_t d, double* out) {
  constexpr std::size_t R = 4;
  constexpr std::size_t L = 8;
  std::vector<double> panel(L * d);
  for (std::size_t j0 = 1; j0 < n; j0 += L) {
    for (std::size_t l = 0; l < L; ++l) {
      const std::size_t j = j0 + l;
      double* lane = panel.data() + l;
      for (std::size_t p = 0; p < d; ++p) {
        lane[p * L] = j < n ? static_cast<double>(rows[j][p]) : 0.0;
      }
    }
    const std::size_t i_end = std::min(j0 + L - 1, n - 1);
    for (std::size_t i0 = 0; i0 < i_end; i0 += R) {
      // A block that runs past i_end repeats its last row; the repeats
      // are swept but never emitted.
      const float* a[R];
      for (std::size_t r = 0; r < R; ++r) {
        a[r] = rows[std::min(i0 + r, i_end - 1)];
      }
      __m256d lo[R];
      __m256d hi[R];
      for (std::size_t r = 0; r < R; ++r) {
        lo[r] = _mm256_setzero_pd();
        hi[r] = _mm256_setzero_pd();
      }
      const double* bp = panel.data();
      for (std::size_t p = 0; p < d; ++p, bp += L) {
        const __m256d b0 = _mm256_loadu_pd(bp);
        const __m256d b1 = _mm256_loadu_pd(bp + 4);
        for (std::size_t r = 0; r < R; ++r) {
          const __m256d x = _mm256_set1_pd(static_cast<double>(a[r][p]));
          lo[r] = _mm256_fmadd_pd(x, b0, lo[r]);
          hi[r] = _mm256_fmadd_pd(x, b1, hi[r]);
        }
      }
      for (std::size_t r = 0; r < R && i0 + r < i_end; ++r) {
        const std::size_t i = i0 + r;
        alignas(32) double s[L];
        _mm256_store_pd(s, lo[r]);
        _mm256_store_pd(s + 4, hi[r]);
        for (std::size_t l = 0; l < L; ++l) {
          const std::size_t j = j0 + l;
          if (j > i && j < n) out[i * (2 * n - i - 1) / 2 + (j - i - 1)] = s[l];
        }
      }
    }
  }
}

// This TU's instantiation of the shared conv lowering auto-vectorizes
// its span loops at AVX2 width; output is bit-identical to the baseline
// instantiation (copies and pure adds only — see conv_lower.h).
void avx2_im2col(const Conv2dShape& s, const float* image, float* col,
                 std::size_t ldcol) {
  lower::im2col(s, image, col, ldcol);
}
void avx2_col2im_add(const Conv2dShape& s, const float* col, std::size_t ldcol,
                     float* grad_image) {
  lower::col2im_add(s, col, ldcol, grad_image);
}

constexpr TierOps kAvx2Tier{TierGemm<Avx2Micro8x8>::gemm,
                            TierGemm<Avx2Micro8x8>::gemm_a_bt_accum,
                            TierGemm<Avx2Micro8x8>::gemm_at_b_accum,
                            avx2_wide_gemm,
                            avx2_dot_abt,
                            avx2_axpy_atb,
                            avx2_im2col,
                            avx2_col2im_add,
                            avx2_pairwise_dots};

}  // namespace

bool avx2_tier_compiled() { return true; }

const TierOps& avx2_tier_ops() { return kAvx2Tier; }

}  // namespace collapois::kernels::detail

#else  // stub: target cannot compile AVX2 — the dispatcher never selects it

#include <cstdlib>

namespace collapois::kernels::detail {

bool avx2_tier_compiled() { return false; }

const TierOps& avx2_tier_ops() {
  // Unreachable by contract: blocked.cpp checks avx2_tier_compiled()
  // before calling, and cpu_dispatch caps the tier on non-x86.
  std::abort();
}

}  // namespace collapois::kernels::detail

#endif
