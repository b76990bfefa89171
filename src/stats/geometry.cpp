#include "stats/geometry.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "kernels/kernels.h"
#include "runtime/parallel.h"

namespace collapois::stats {

namespace {

void check_same_size(std::size_t a, std::size_t b, const char* who) {
  if (a != b) throw std::invalid_argument(std::string(who) + ": size mismatch");
}

}  // namespace

double dot(std::span<const float> a, std::span<const float> b) {
  check_same_size(a.size(), b.size(), "dot");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    s += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return s;
}

double l2_norm(std::span<const float> v) {
  double s = 0.0;
  for (float x : v) s += static_cast<double>(x) * static_cast<double>(x);
  return std::sqrt(s);
}

double l2_distance(std::span<const float> a, std::span<const float> b) {
  check_same_size(a.size(), b.size(), "l2_distance");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    s += d * d;
  }
  return std::sqrt(s);
}

double cosine_similarity(std::span<const float> a, std::span<const float> b) {
  const double na = l2_norm(a);
  const double nb = l2_norm(b);
  if (na <= 0.0 || nb <= 0.0) return 0.0;
  return std::clamp(dot(a, b) / (na * nb), -1.0, 1.0);
}

double angle_between(std::span<const float> a, std::span<const float> b) {
  return std::acos(cosine_similarity(a, b));
}

double dot(std::span<const double> a, std::span<const double> b) {
  check_same_size(a.size(), b.size(), "dot");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double l2_norm(std::span<const double> v) {
  double s = 0.0;
  for (double x : v) s += x * x;
  return std::sqrt(s);
}

double cosine_similarity(std::span<const double> a,
                         std::span<const double> b) {
  const double na = l2_norm(a);
  const double nb = l2_norm(b);
  if (na <= 0.0 || nb <= 0.0) return 0.0;
  return std::clamp(dot(a, b) / (na * nb), -1.0, 1.0);
}

void pairwise_sq_distances_naive(const float* rows, std::size_t n,
                                 std::size_t d, double* out) {
  for (std::size_t i = 0; i < n; ++i) out[i * n + i] = 0.0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const float* a = rows + i * d;
    for (std::size_t j = i + 1; j < n; ++j) {
      const float* b = rows + j * d;
      double s = 0.0;
      for (std::size_t p = 0; p < d; ++p) {
        const double diff =
            static_cast<double>(a[p]) - static_cast<double>(b[p]);
        s += diff * diff;
      }
      out[i * n + j] = out[j * n + i] = s;
    }
  }
}

namespace {

// Row-block edge for the Gram decomposition. Fixed (never derived from
// the pool size) so the set of GEMM calls — and therefore every float —
// is a pure function of n.
constexpr std::size_t kGramBlock = 64;

}  // namespace

void pairwise_sq_distances_gram(const float* rows, std::size_t n,
                                std::size_t d, const double* row_sqnorms,
                                double* out, runtime::ThreadPool* pool) {
  const std::size_t n_blocks = (n + kGramBlock - 1) / kGramBlock;
  // Upper-triangle block pairs (bi <= bj), each an independent task
  // writing the disjoint [bi, bj] and mirrored [bj, bi] regions of `out`.
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  pairs.reserve(n_blocks * (n_blocks + 1) / 2);
  for (std::size_t bi = 0; bi < n_blocks; ++bi) {
    for (std::size_t bj = bi; bj < n_blocks; ++bj) pairs.emplace_back(bi, bj);
  }
  // The Gram product always runs on the blocked kernel set: this helper
  // IS the fast path (the registry's naive defense set routes to the
  // scalar loops above), so it must not degrade when an experiment
  // selects --kernels naive for the NN substrate.
  const kernels::KernelOps& ops =
      kernels::ops_for(kernels::KernelKind::blocked);
  runtime::parallel_for(pool, pairs.size(), [&](std::size_t t) {
    const auto [bi, bj] = pairs[t];
    const std::size_t i0 = bi * kGramBlock;
    const std::size_t j0 = bj * kGramBlock;
    const std::size_t mi = std::min(kGramBlock, n - i0);
    const std::size_t mj = std::min(kGramBlock, n - j0);
    // G = A_I * A_J^T for this block pair, accumulated by the blocked
    // GEMM into a zeroed scratch tile.
    std::vector<float> g(mi * mj, 0.0f);
    ops.gemm_a_bt_accum(rows + i0 * d, rows + j0 * d, g.data(), mi, d, mj,
                        nullptr, nullptr);
    for (std::size_t i = 0; i < mi; ++i) {
      const std::size_t gi = i0 + i;
      for (std::size_t j = 0; j < mj; ++j) {
        const std::size_t gj = j0 + j;
        if (gj == gi) {
          out[gi * n + gi] = 0.0;
          continue;
        }
        const double d2 =
            std::max(0.0, row_sqnorms[gi] + row_sqnorms[gj] -
                              2.0 * static_cast<double>(g[i * mj + j]));
        out[gi * n + gj] = d2;
        if (bi != bj) out[gj * n + gi] = d2;
      }
    }
  });
}

std::vector<double> pairwise_angles(
    std::span<const std::span<const float>> rows) {
  const std::size_t n = rows.size();
  std::vector<double> out;
  if (n < 2) return out;
  const std::size_t d = rows[0].size();
  for (const auto& r : rows) check_same_size(r.size(), d, "pairwise_angles");

  // Each row's norm once, by the same l2_norm angle_between calls per pair.
  std::vector<double> norms(n);
  std::vector<const float*> ptrs(n);
  for (std::size_t i = 0; i < n; ++i) {
    norms[i] = l2_norm(rows[i]);
    ptrs[i] = rows[i].data();
  }

  // The tier kernel sums every pair exactly as dot() does (kernels.h),
  // reading the rows in place; the tail below overwrites each dot product
  // with angle_between's zero-norm / clamp / acos on the same operands.
  out.resize(n * (n - 1) / 2);
  kernels::pairwise_dots(ptrs.data(), n, d, out.data());
  std::size_t k = 0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j, ++k) {
      const double na = norms[i];
      const double nb = norms[j];
      const double c = (na <= 0.0 || nb <= 0.0)
                           ? 0.0
                           : std::clamp(out[k] / (na * nb), -1.0, 1.0);
      out[k] = std::acos(c);
    }
  }
  return out;
}

std::vector<double> pairwise_angles(
    const std::vector<std::vector<float>>& vectors) {
  const std::vector<std::span<const float>> rows(vectors.begin(),
                                                 vectors.end());
  return pairwise_angles(std::span<const std::span<const float>>(rows));
}

std::vector<double> angles_to_reference(
    const std::vector<std::vector<float>>& vectors,
    std::span<const float> reference) {
  std::vector<double> out;
  out.reserve(vectors.size());
  for (const auto& v : vectors) {
    out.push_back(angle_between(v, reference));
  }
  return out;
}

}  // namespace collapois::stats
