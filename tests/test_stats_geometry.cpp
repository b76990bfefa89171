// Tests for flat-vector geometry: the angle machinery behind Theorem 1
// and Figs. 3/6.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "kernels/cpu_dispatch.h"
#include "stats/geometry.h"
#include "stats/rng.h"
#include "tier_sweep.h"

namespace collapois::stats {
namespace {

TEST(Geometry, DotAndNorm) {
  const std::vector<float> a = {1.0f, 2.0f, 3.0f};
  const std::vector<float> b = {4.0f, -5.0f, 6.0f};
  EXPECT_DOUBLE_EQ(dot(std::span<const float>(a), b), 4.0 - 10.0 + 18.0);
  EXPECT_DOUBLE_EQ(l2_norm(std::span<const float>(a)),
                   std::sqrt(1.0 + 4.0 + 9.0));
}

TEST(Geometry, DotRejectsSizeMismatch) {
  const std::vector<float> a = {1.0f};
  const std::vector<float> b = {1.0f, 2.0f};
  EXPECT_THROW(dot(std::span<const float>(a), b), std::invalid_argument);
}

TEST(Geometry, L2Distance) {
  const std::vector<float> a = {0.0f, 0.0f};
  const std::vector<float> b = {3.0f, 4.0f};
  EXPECT_DOUBLE_EQ(l2_distance(std::span<const float>(a), b), 5.0);
}

TEST(Geometry, CosineOfParallelAndOrthogonal) {
  const std::vector<float> x = {1.0f, 0.0f};
  const std::vector<float> x2 = {2.0f, 0.0f};
  const std::vector<float> y = {0.0f, 3.0f};
  const std::vector<float> neg = {-1.0f, 0.0f};
  EXPECT_NEAR(cosine_similarity(std::span<const float>(x), x2), 1.0, 1e-9);
  EXPECT_NEAR(cosine_similarity(std::span<const float>(x), y), 0.0, 1e-9);
  EXPECT_NEAR(cosine_similarity(std::span<const float>(x), neg), -1.0, 1e-9);
}

TEST(Geometry, CosineOfZeroVectorIsZero) {
  const std::vector<float> z = {0.0f, 0.0f};
  const std::vector<float> x = {1.0f, 1.0f};
  EXPECT_DOUBLE_EQ(cosine_similarity(std::span<const float>(z), x), 0.0);
}

TEST(Geometry, AngleValues) {
  const std::vector<float> x = {1.0f, 0.0f};
  const std::vector<float> d = {1.0f, 1.0f};
  const std::vector<float> y = {0.0f, 1.0f};
  const std::vector<float> neg = {-1.0f, 0.0f};
  EXPECT_NEAR(angle_between(std::span<const float>(x), d), M_PI / 4.0, 1e-6);
  EXPECT_NEAR(angle_between(std::span<const float>(x), y), M_PI / 2.0, 1e-6);
  EXPECT_NEAR(angle_between(std::span<const float>(x), neg), M_PI, 1e-6);
}

TEST(Geometry, DoubleOverloads) {
  const std::vector<double> a = {1.0, 2.0};
  const std::vector<double> b = {2.0, 4.0};
  EXPECT_NEAR(cosine_similarity(std::span<const double>(a), b), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(l2_norm(std::span<const double>(a)), std::sqrt(5.0));
}

TEST(Geometry, AngleWithZeroVectorIsHalfPi) {
  // acos of cosine_similarity's zero, not 0: the value every reported
  // angle summary has always used for a zero update.
  const std::vector<float> z = {0.0f, 0.0f};
  const std::vector<float> x = {1.0f, 1.0f};
  EXPECT_DOUBLE_EQ(angle_between(std::span<const float>(z), x), M_PI / 2.0);
  EXPECT_DOUBLE_EQ(angle_between(std::span<const float>(x), z), M_PI / 2.0);
  const auto angles = pairwise_angles({x, z, x});
  ASSERT_EQ(angles.size(), 3u);
  EXPECT_DOUBLE_EQ(angles[0], M_PI / 2.0);  // x vs zero row
  EXPECT_DOUBLE_EQ(angles[2], M_PI / 2.0);  // zero row vs x
}

TEST(Geometry, PairwiseAnglesCountAndValues) {
  const std::vector<std::vector<float>> vs = {
      {1.0f, 0.0f}, {0.0f, 1.0f}, {1.0f, 0.0f}};
  const auto angles = pairwise_angles(vs);
  ASSERT_EQ(angles.size(), 3u);  // C(3,2)
  EXPECT_NEAR(angles[0], M_PI / 2.0, 1e-6);  // v0 vs v1
  EXPECT_NEAR(angles[1], 0.0, 1e-6);         // v0 vs v2
  EXPECT_NEAR(angles[2], M_PI / 2.0, 1e-6);  // v1 vs v2

  // Bitwise equal to the per-pair angle_between on random rows, on every
  // ISA tier the host runs (the tier picks kernels::pairwise_dots' tile).
  // n covers every tile tail (rows mod 4, lanes mod 8) and cohorts below
  // one panel; d covers the MLP head and LeNet-small. Rows 2-4 are
  // duplicate, anti-parallel and zero rows, and rows 5-7 put entries at
  // float's extremes, +-2^127 and +-2^-149, whose products (2^254 down to
  // 2^-298) double still holds exactly: a tile that rounded a product,
  // e.g. by multiplying in float before widening, fails here.
  const float huge = std::ldexp(1.0f, 127);
  const float tiny = std::ldexp(1.0f, -149);
  TierGuard guard;
  stats::Rng rng(13);
  for (std::size_t n : {2, 3, 4, 5, 8, 9, 13, 33, 64, 100}) {
    for (std::size_t d : {1, 7, 2178, 4794}) {
      std::vector<std::vector<float>> rows(n, std::vector<float>(d));
      for (auto& r : rows) {
        for (auto& v : r) v = static_cast<float>(rng.normal(0.0, 1.0));
      }
      if (n > 2) rows[2] = rows[0];
      if (n > 3) {
        for (std::size_t p = 0; p < d; ++p) rows[3][p] = -rows[1][p];
      }
      if (n > 4) std::fill(rows[4].begin(), rows[4].end(), 0.0f);
      if (n > 7) {
        for (std::size_t p = 0; p < d; ++p) {
          const float sign = rng.uniform() < 0.5 ? -1.0f : 1.0f;
          if (p % 3 == 0) rows[5][p] = sign * huge;
          rows[6][p] = -sign * tiny;
          rows[7][p] = sign * (p % 2 == 0 ? tiny : huge);
        }
      }
      std::vector<double> want;
      for (std::size_t i = 0; i + 1 < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
          want.push_back(angle_between(rows[i], rows[j]));
        }
      }
      for (const auto tier : available_tiers()) {
        kernels::set_active_tier(tier);
        const auto got = pairwise_angles(rows);
        ASSERT_EQ(got.size(), n * (n - 1) / 2);
        std::size_t k = 0;
        for (std::size_t i = 0; i + 1 < n; ++i) {
          for (std::size_t j = i + 1; j < n; ++j, ++k) {
            EXPECT_EQ(got[k], want[k])
                << kernels::isa_tier_name(tier) << " n=" << n << " d=" << d
                << " pair (" << i << ", " << j << ")";
          }
        }
      }
    }
  }

  EXPECT_THROW(pairwise_angles({{1.0f, 2.0f}, {1.0f}, {3.0f, 4.0f}}),
               std::invalid_argument);
}

TEST(Geometry, PairwiseAnglesDegenerate) {
  EXPECT_TRUE(pairwise_angles(std::vector<std::vector<float>>{}).empty());
  EXPECT_TRUE(pairwise_angles({{1.0f}}).empty());
}

TEST(Geometry, AnglesToReference) {
  const std::vector<std::vector<float>> vs = {{1.0f, 0.0f}, {0.0f, 2.0f}};
  const std::vector<float> ref = {1.0f, 0.0f};
  const auto angles = angles_to_reference(vs, ref);
  ASSERT_EQ(angles.size(), 2u);
  EXPECT_NEAR(angles[0], 0.0, 1e-6);
  EXPECT_NEAR(angles[1], M_PI / 2.0, 1e-6);
}

}  // namespace
}  // namespace collapois::stats
