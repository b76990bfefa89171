// Flat-vector aggregation math behind tensor/vecops.h. These are not
// kernel-set-dispatched — aggregation numerics are identical under both
// --kernels modes — but they live in this library so the hot loops
// compile under the kernels' optimization flags. pairwise_dots alone
// dispatches, on the ISA tier, to a tile that rounds like the reference
// loop below.
#include <algorithm>
#include <vector>

#include "kernels/ops_internal.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace collapois::kernels {

void axpy_inplace(float* a, double s, const float* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = static_cast<float>(a[i] + s * b[i]);
  }
}

void weighted_accumulate(double* acc, double w, const float* v,
                         std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) acc[i] += w * v[i];
}

void scaled_round(const double* acc, double inv_scale, float* out,
                  std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<float>(acc[i] * inv_scale);
  }
}

void pairwise_dots(const float* const* rows, std::size_t n, std::size_t d,
                   double* out) {
  detail::tier_ops().pairwise_dots(rows, n, d, out);
}

namespace detail {

namespace {

// Two pair sums per register. GCC's generic vectors lower to SSE2
// mulpd/addpd on x86-64 and to scalar code elsewhere, elementwise either
// way. Spelled out because -O3 leaves the equivalent plain lane loop
// scalar, ~1.3x slower at 512 x 2178 than its -O2 build.
using Pair = double __attribute__((vector_size(16)));

}  // namespace

void base_pairwise_dots(const float* const* rows, std::size_t n,
                        std::size_t d, double* out) {
  // Rows j0 .. j0+3 are packed transposed into one panel, element p of
  // lane l at [p*4 + l], so one contiguous load feeds 4 pairs; every
  // earlier row then sweeps it. Lanes past the last row stay zero and are
  // never emitted. 4 lanes measured fastest (2 and 8 were slower at the
  // MLP head's parameter count).
  constexpr std::size_t L = 4;
  std::vector<float> panel(L * d);
  for (std::size_t j0 = 1; j0 < n; j0 += L) {
    for (std::size_t l = 0; l < L; ++l) {
      const std::size_t j = j0 + l;
      for (std::size_t p = 0; p < d; ++p) {
        panel[p * L + l] = j < n ? rows[j][p] : 0.0f;
      }
    }
    const std::size_t i_end = std::min(j0 + L - 1, n - 1);
    for (std::size_t i = 0; i < i_end; ++i) {
      const float* a = rows[i];
      const float* b = panel.data();
      // One independent accumulator per pair, each a separate multiply
      // and add in order p = 0..d-1. The lanes run across pairs, never
      // across p, so vectorizing them reorders nothing.
      Pair lo = {0.0, 0.0};
      Pair hi = {0.0, 0.0};
      for (std::size_t p = 0; p < d; ++p, b += L) {
        const double x = a[p];
        const Pair xx = {x, x};
        lo += xx * Pair{b[0], b[1]};
        hi += xx * Pair{b[2], b[3]};
      }
      const double s[L] = {lo[0], lo[1], hi[0], hi[1]};
      for (std::size_t l = 0; l < L; ++l) {
        const std::size_t j = j0 + l;
        if (j > i && j < n) out[i * (2 * n - i - 1) / 2 + (j - i - 1)] = s[l];
      }
    }
  }
}

}  // namespace detail

void relu_forward_mask(float* x, std::size_t n, std::uint64_t* mask) {
  std::size_t i = 0;
  std::size_t w = 0;
#if defined(__SSE2__)
  // 16 compares fill one 64-bit mask word: cmpgt + movemask yields 4 bits
  // per vector, maxps clamps the same lanes (max(x, +0) == x > 0 ? x : +0
  // for every float including -0 and NaN, matching the scalar fallback).
  const __m128 zero = _mm_setzero_ps();
  for (; i + 64 <= n; i += 64, ++w) {
    std::uint64_t bits = 0;
    for (std::size_t j = 0; j < 64; j += 4) {
      const __m128 v = _mm_loadu_ps(x + i + j);
      bits |= static_cast<std::uint64_t>(
                  _mm_movemask_ps(_mm_cmpgt_ps(v, zero)))
              << j;
      _mm_storeu_ps(x + i + j, _mm_max_ps(v, zero));
    }
    mask[w] = bits;
  }
#endif
  for (; i < n; i += 64, ++w) {
    const std::size_t lanes = std::min<std::size_t>(64, n - i);
    std::uint64_t bits = 0;
    for (std::size_t j = 0; j < lanes; ++j) {
      const bool active = x[i + j] > 0.0f;
      bits |= std::uint64_t{active} << j;
      x[i + j] = active ? x[i + j] : 0.0f;
    }
    mask[w] = bits;
  }
}

void relu_backward_mask(float* g, std::size_t n, const std::uint64_t* mask) {
  std::size_t i = 0;
  std::size_t w = 0;
#if defined(__SSE2__)
  // Expand 4 mask bits at a time into lane masks via a tiny LUT and AND
  // the gradient lanes — no per-element branches.
  alignas(16) static const std::uint32_t kLaneLut[16][4] = {
      {0, 0, 0, 0},    {~0u, 0, 0, 0},    {0, ~0u, 0, 0},    {~0u, ~0u, 0, 0},
      {0, 0, ~0u, 0},  {~0u, 0, ~0u, 0},  {0, ~0u, ~0u, 0},  {~0u, ~0u, ~0u, 0},
      {0, 0, 0, ~0u},  {~0u, 0, 0, ~0u},  {0, ~0u, 0, ~0u},  {~0u, ~0u, 0, ~0u},
      {0, 0, ~0u, ~0u}, {~0u, 0, ~0u, ~0u}, {0, ~0u, ~0u, ~0u},
      {~0u, ~0u, ~0u, ~0u}};
  for (; i + 64 <= n; i += 64, ++w) {
    const std::uint64_t bits = mask[w];
    for (std::size_t j = 0; j < 64; j += 4) {
      const __m128 lanes = _mm_load_ps(
          reinterpret_cast<const float*>(kLaneLut[(bits >> j) & 0xF]));
      _mm_storeu_ps(g + i + j, _mm_and_ps(_mm_loadu_ps(g + i + j), lanes));
    }
  }
#endif
  for (; i < n; i += 64, ++w) {
    const std::size_t lanes = std::min<std::size_t>(64, n - i);
    const std::uint64_t bits = mask[w];
    for (std::size_t j = 0; j < lanes; ++j) {
      g[i + j] = (bits >> j & 1) != 0 ? g[i + j] : 0.0f;
    }
  }
}

}  // namespace collapois::kernels
