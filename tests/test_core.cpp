// Tests for the core contribution: the CollaPois client (Eq. 4), the
// Trojan model trainer (Eq. 1), the stealth tuner (Section IV-D), and the
// theory module (Theorems 1-3), including parameterized monotonicity
// properties of the Theorem 1 bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/collapois_client.h"
#include "core/stealth.h"
#include "core/theory.h"
#include "core/trojan_trainer.h"
#include "data/synthetic_text.h"
#include "nn/eval.h"
#include "nn/zoo.h"
#include "stats/geometry.h"
#include "trojan/embedding_trigger.h"
#include "trojan/poison.h"

namespace collapois::core {
namespace {

tensor::FlatVec constant_vec(std::size_t n, float v) {
  return tensor::FlatVec(n, v);
}

TEST(CollaPoisClient, UpdateIsPsiTimesDirection) {
  const tensor::FlatVec x = constant_vec(8, 1.0f);
  CollaPoisConfig cfg;  // psi ~ U[0.9, 1.0]
  CollaPoisClient client(0, x, cfg, stats::Rng(1));
  EXPECT_TRUE(client.is_compromised());
  EXPECT_TRUE(client.armed());

  const tensor::FlatVec global = constant_vec(8, 3.0f);
  fl::RoundContext ctx{0, global};
  for (int i = 0; i < 20; ++i) {
    const fl::ClientUpdate u = client.compute_update(ctx);
    const double psi = client.last_psi();
    EXPECT_GE(psi, 0.9);
    EXPECT_LT(psi, 1.0);
    // g = psi (theta - X) = psi * 2 in every coordinate.
    for (float v : u.delta) EXPECT_NEAR(v, 2.0 * psi, 1e-5);
  }
}

TEST(CollaPoisClient, AppliedUpdateMovesTowardX) {
  const tensor::FlatVec x = constant_vec(4, 5.0f);
  CollaPoisClient client(0, x, {}, stats::Rng(2));
  tensor::FlatVec global = constant_vec(4, 1.0f);
  fl::RoundContext ctx{0, global};
  const fl::ClientUpdate u = client.compute_update(ctx);
  const double before = stats::l2_distance(global, x);
  tensor::axpy_inplace(global, -1.0, u.delta);
  EXPECT_LT(stats::l2_distance(global, x), before);
}

TEST(CollaPoisClient, ClipBoundsUpdateNorm) {
  const tensor::FlatVec x = constant_vec(16, 10.0f);
  CollaPoisConfig cfg;
  cfg.clip = 0.5;
  CollaPoisClient client(0, x, cfg, stats::Rng(3));
  const tensor::FlatVec global = constant_vec(16, 0.0f);
  fl::RoundContext ctx{0, global};
  const fl::ClientUpdate u = client.compute_update(ctx);
  EXPECT_NEAR(stats::l2_norm(u.delta), 0.5, 1e-5);
}

TEST(CollaPoisClient, TauUpscalesTinyUpdates) {
  const tensor::FlatVec x = constant_vec(16, 0.001f);
  CollaPoisConfig cfg;
  cfg.tau = 2.0;
  CollaPoisClient client(0, x, cfg, stats::Rng(4));
  const tensor::FlatVec global = constant_vec(16, 0.0f);
  fl::RoundContext ctx{0, global};
  const fl::ClientUpdate u = client.compute_update(ctx);
  EXPECT_NEAR(stats::l2_norm(u.delta), 2.0, 1e-4);
}

TEST(CollaPoisClient, ValidatesConfig) {
  const tensor::FlatVec x = constant_vec(4, 1.0f);
  CollaPoisConfig bad;
  bad.psi_a = 0.0;
  EXPECT_THROW(CollaPoisClient(0, x, bad, stats::Rng(5)),
               std::invalid_argument);
  bad = {};
  bad.psi_b = 1.5;
  EXPECT_THROW(CollaPoisClient(0, x, bad, stats::Rng(5)),
               std::invalid_argument);
  EXPECT_THROW(CollaPoisClient(0, {}, CollaPoisConfig{}, stats::Rng(5)),
               std::invalid_argument);
}

TEST(CollaPoisClient, DormantThenArmed) {
  stats::Rng rng(6);
  data::SyntheticTextGenerator gen({}, 7);
  const std::vector<std::size_t> counts = {20, 20};
  data::Dataset local = gen.generate(counts, rng);
  nn::Model model = nn::make_mlp_head({.input_dim = 32, .hidden = 8,
                                       .num_classes = 2,
                                       .num_hidden_layers = 1});
  model.init(rng);
  auto dormant = std::make_unique<fl::BenignClient>(
      0, &local, model,
      nn::SgdConfig{.learning_rate = 0.05, .batch_size = 16, .epochs = 1},
      0.5, rng.fork());
  CollaPoisClient client(0, {}, {}, rng.fork(), std::move(dormant));
  EXPECT_FALSE(client.armed());
  const tensor::FlatVec global = model.get_parameters();
  fl::RoundContext ctx{0, global};
  const fl::ClientUpdate u = client.compute_update(ctx);
  EXPECT_EQ(u.client_id, 0u);
  EXPECT_GT(stats::l2_norm(u.delta), 0.0);

  tensor::FlatVec x = global;
  x[0] += 1.0f;
  client.set_trojaned_model(x);
  EXPECT_TRUE(client.armed());
  const fl::ClientUpdate armed = client.compute_update(ctx);
  // Only coordinate 0 differs between theta and X.
  EXPECT_LT(armed.delta[0], 0.0f);
  EXPECT_EQ(armed.delta[1], 0.0f);
}

TEST(TrojanTrainer, ProducesWorkingBackdoor) {
  stats::Rng rng(8);
  data::SyntheticTextGenerator gen({}, 9);
  const std::vector<std::size_t> counts = {100, 100};
  const data::Dataset aux = gen.generate(counts, rng);
  trojan::EmbeddingTrigger trigger({}, 10);
  nn::Model model = nn::make_mlp_head({});
  model.init(rng);
  const auto res =
      train_trojaned_model(model, aux, trigger, TrojanTrainConfig{}, rng);
  ASSERT_EQ(res.x.size(), model.num_parameters());

  nn::Model x_model = nn::make_mlp_head({});
  x_model.set_parameters(res.x);
  const data::Dataset test = gen.generate(counts, rng);
  EXPECT_GT(nn::accuracy(x_model, test), 0.75);  // clean task learned
  const data::Dataset trojaned = trojan::apply_trigger_all(test, trigger, 0);
  EXPECT_GT(nn::accuracy(x_model, trojaned), 0.9);  // backdoor installed
}

TEST(TrojanTrainer, PoolsAuxiliaryData) {
  data::Dataset a(2);
  data::Dataset b(2);
  for (int i = 0; i < 3; ++i) {
    data::Example e{tensor::Tensor({2}, {float(i), float(-i)}), i % 2};
    (i == 0 ? a : b).add(e);
  }
  const data::Dataset empty(2);
  const data::Dataset pooled = pool_auxiliary_data({&empty, &a, &b});
  ASSERT_EQ(pooled.size(), 3u);
  EXPECT_EQ(pooled.example_shape(), a.example_shape());
  // a's row, then b's, each with its label.
  for (std::size_t i = 0; i < 3; ++i) {
    const data::Dataset& src = i == 0 ? a : b;
    const std::size_t j = i == 0 ? 0 : i - 1;
    EXPECT_TRUE(std::ranges::equal(pooled.row(i), src.row(j)));
    EXPECT_EQ(pooled.label(i), src.label(j));
  }
  EXPECT_THROW(pool_auxiliary_data({}), std::invalid_argument);
  EXPECT_THROW(pool_auxiliary_data({nullptr}), std::invalid_argument);
}

// ----------------------------------------------------------- Theorem 1

TEST(Theorem1, MatchesClosedForm) {
  // mu = sigma = 0 (perfectly aligned benign gradients — hardest case):
  // |C|/|N| = 2 / (a + b + 2).
  EXPECT_NEAR(theory::theorem1_fraction(0.0, 0.0, 0.9, 1.0),
              2.0 / 3.9, 1e-12);
}

TEST(Theorem1, ZeroWhenGradientsFullyScattered) {
  // 2 - sigma^2 - mu^2 <= 0 -> no compromised clients needed in the bound.
  EXPECT_DOUBLE_EQ(theory::theorem1_fraction(1.5, 0.5, 0.9, 1.0), 0.0);
}

TEST(Theorem1, MinCompromisedCeiling) {
  const double frac = theory::theorem1_fraction(0.5, 0.3, 0.9, 1.0);
  const std::size_t c = theory::theorem1_min_compromised(0.5, 0.3, 0.9, 1.0,
                                                         1000);
  EXPECT_EQ(c, static_cast<std::size_t>(std::ceil(frac * 1000.0 - 1e-9)));
}

TEST(Theorem1, RejectsBadPsiRange) {
  EXPECT_THROW(theory::theorem1_fraction(0.5, 0.3, 0.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW(theory::theorem1_fraction(0.5, 0.3, 0.9, 0.8),
               std::invalid_argument);
}

// The paper's qualitative claim (Fig. 5): more scatter (larger mu or
// sigma) lowers the required fraction of compromised clients, for any
// valid psi range.
class Theorem1Monotonicity
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(Theorem1Monotonicity, FractionDecreasesWithScatter) {
  const auto [a, b] = GetParam();
  double prev_mu = theory::theorem1_fraction(0.0, 0.2, a, b);
  for (double mu = 0.2; mu <= 1.4; mu += 0.2) {
    const double f = theory::theorem1_fraction(mu, 0.2, a, b);
    EXPECT_LE(f, prev_mu + 1e-12) << "mu=" << mu;
    prev_mu = f;
  }
  double prev_sigma = theory::theorem1_fraction(0.5, 0.0, a, b);
  for (double sigma = 0.1; sigma <= 1.2; sigma += 0.1) {
    const double f = theory::theorem1_fraction(0.5, sigma, a, b);
    EXPECT_LE(f, prev_sigma + 1e-12) << "sigma=" << sigma;
    prev_sigma = f;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PsiRanges, Theorem1Monotonicity,
    ::testing::Values(std::make_pair(0.9, 1.0), std::make_pair(0.5, 0.9),
                      std::make_pair(0.95, 0.99), std::make_pair(0.1, 0.2)));

TEST(Theorem1, AngleStatsEstimator) {
  // Gradients at a known angle to the reference.
  std::vector<tensor::FlatVec> grads = {
      {1.0f, 0.0f}, {0.0f, 1.0f}, {1.0f, 1.0f}};
  const tensor::FlatVec ref = {1.0f, 0.0f};
  const auto s = theory::estimate_angle_stats(grads, ref);
  EXPECT_EQ(s.count, 3u);
  const double expected_mu = (0.0 + M_PI / 2.0 + M_PI / 4.0) / 3.0;
  EXPECT_NEAR(s.mu, expected_mu, 1e-6);
  EXPECT_GT(s.sigma, 0.0);
  EXPECT_THROW(theory::estimate_angle_stats({}, ref), std::invalid_argument);
}

TEST(Theorem1, RelativeErrorZeroWhenStatsMatch) {
  theory::AngleStats s{0.8, 0.3, 10};
  EXPECT_DOUBLE_EQ(theory::theorem1_relative_error(s, s, 0.9, 1.0, 100), 0.0);
  theory::AngleStats off{0.9, 0.3, 10};
  EXPECT_GT(theory::theorem1_relative_error(off, s, 0.9, 1.0, 100), 0.0);
}

TEST(Theorem1, HoeffdingHalfwidthShrinks) {
  const double e10 = theory::theorem1_hoeffding_halfwidth(10, 0.05);
  const double e1000 = theory::theorem1_hoeffding_halfwidth(1000, 0.05);
  EXPECT_LT(e1000, e10);
  EXPECT_NEAR(e1000 / e10, std::sqrt(10.0 / 1000.0), 1e-9);
}

// ----------------------------------------------------------- Theorem 2

TEST(Theorem2, BoundFormula) {
  EXPECT_NEAR(theory::theorem2_distance_bound(0.5, 2.0, 0.1),
              (1.0 / 0.5 - 1.0) * 2.0 + 0.1, 1e-12);
  // a = 1 (psi = 1 deterministic): bound collapses to the error term.
  EXPECT_NEAR(theory::theorem2_distance_bound(1.0, 5.0, 0.2), 0.2, 1e-12);
  EXPECT_THROW(theory::theorem2_distance_bound(0.0, 1.0, 0.0),
               std::invalid_argument);
  EXPECT_THROW(theory::theorem2_distance_bound(0.5, -1.0, 0.0),
               std::invalid_argument);
}

TEST(Theorem2, CheckAgainstConstructedRound) {
  // Build the exact relationship of the proof: theta^t = X + (1 - 1/psi)
  // * delta + zeta, with delta = psi (X - theta^{t'}).
  const double psi = 0.9;
  const tensor::FlatVec x = constant_vec(4, 2.0f);
  tensor::FlatVec theta_prev = constant_vec(4, 0.0f);
  tensor::FlatVec delta = tensor::sub(x, theta_prev);
  tensor::scale_inplace(delta, psi);
  tensor::FlatVec theta = x;
  tensor::axpy_inplace(theta, 1.0 - 1.0 / psi, delta);
  const auto check = theory::theorem2_check(
      theta, x, 0.9, stats::l2_norm(delta), 0.0);
  EXPECT_TRUE(check.holds());
  EXPECT_NEAR(check.distance, (1.0 / psi - 1.0) * stats::l2_norm(delta),
              1e-4);
}

// ----------------------------------------------------------- Theorem 3

TEST(Theorem3, LowerAtMostUpper) {
  stats::Rng rng(11);
  tensor::FlatVec x(32);
  for (auto& v : x) v = static_cast<float>(rng.normal());
  std::vector<tensor::FlatVec> detected;
  for (int i = 0; i < 3; ++i) {
    tensor::FlatVec u(32);
    for (auto& v : u) v = static_cast<float>(rng.normal(0.0, 0.2));
    detected.push_back(u);
  }
  std::vector<tensor::FlatVec> models;
  for (int i = 0; i < 12; ++i) {
    tensor::FlatVec m = x;
    for (auto& v : m) v = static_cast<float>(v + rng.normal(0.0, 1.0));
    models.push_back(m);
  }
  const auto b = theory::theorem3_error_bounds(detected, 1.0, 3, 1.0, models,
                                               x);
  EXPECT_GT(b.lower, 0.0);
  EXPECT_LE(b.lower, b.upper);
}

TEST(Theorem3, SmallerBRaisesLowerBound) {
  // Claim (2) after Theorem 3: a smaller upper bound b of psi increases
  // the estimation error's lower bound.
  std::vector<tensor::FlatVec> detected = {{1.0f, 0.0f}, {1.0f, 0.0f}};
  std::vector<tensor::FlatVec> models;
  const tensor::FlatVec x = {0.0f, 0.0f};
  const auto high_b =
      theory::theorem3_error_bounds(detected, 1.0, 2, 1.0, models, x);
  const auto low_b =
      theory::theorem3_error_bounds(detected, 1.0, 2, 0.5, models, x);
  EXPECT_GT(low_b.lower, high_b.lower);
}

TEST(Theorem3, LowerPrecisionRaisesLowerBound) {
  std::vector<tensor::FlatVec> detected = {{1.0f, 0.0f}};
  std::vector<tensor::FlatVec> models;
  const tensor::FlatVec x = {0.0f, 0.0f};
  const auto p_full =
      theory::theorem3_error_bounds(detected, 1.0, 2, 1.0, models, x);
  const auto p_half =
      theory::theorem3_error_bounds(detected, 0.5, 2, 1.0, models, x);
  EXPECT_GT(p_half.lower, p_full.lower);
}

TEST(Theorem3, EstimationError) {
  const std::vector<tensor::FlatVec> believed = {{2.0f, 0.0f}, {0.0f, 2.0f}};
  const tensor::FlatVec x = {1.0f, 1.0f};
  EXPECT_NEAR(theory::estimation_error(believed, x), 0.0, 1e-6);
  EXPECT_THROW(theory::estimation_error({}, x), std::invalid_argument);
}

// ----------------------------------------------------------- Stealth

TEST(Stealth, MeasureBlendSeparatesObviousOutliers) {
  stats::Rng rng(12);
  std::vector<tensor::FlatVec> background;
  for (int i = 0; i < 30; ++i) {
    tensor::FlatVec g(16, 1.0f);
    for (auto& v : g) v = static_cast<float>(v + rng.normal(0.0, 0.1));
    background.push_back(g);
  }
  // Malicious set pointing the opposite way: blend report must show a
  // much larger angle.
  std::vector<tensor::FlatVec> opposite;
  for (int i = 0; i < 5; ++i) {
    opposite.push_back(tensor::FlatVec(16, -1.0f));
  }
  const auto rep = measure_blend(background, opposite);
  EXPECT_GT(rep.malicious_angle_mean, rep.benign_angle_mean + 1.0);
}

TEST(Stealth, TunerMatchesBackgroundStats) {
  stats::Rng rng(13);
  // Background gradients scattered around a direction.
  std::vector<tensor::FlatVec> background;
  for (int i = 0; i < 40; ++i) {
    tensor::FlatVec g(16);
    for (std::size_t j = 0; j < g.size(); ++j) {
      g[j] = static_cast<float>(0.5 + rng.normal(0.0, 0.3));
    }
    background.push_back(g);
  }
  tensor::FlatVec global(16, 2.0f);
  tensor::FlatVec x(16, 0.0f);
  const std::vector<std::pair<double, double>> ranges = {
      {0.9, 1.0}, {0.95, 0.99}, {0.5, 0.6}};
  const auto choice = tune_stealth(background, global, x, ranges, 25, rng);
  EXPECT_GT(choice.config.clip, 0.0);
  EXPECT_GE(choice.config.psi_a, 0.5);
  // The tuned malicious magnitude must sit at the benign envelope.
  EXPECT_NEAR(choice.report.malicious_norm_mean, choice.config.clip, 0.2);
  EXPECT_THROW(tune_stealth(background, global, x, {}, 5, rng),
               std::invalid_argument);
}

TEST(Stealth, BackgroundGradientsComeFromCleanData) {
  stats::Rng rng(14);
  data::SyntheticTextGenerator gen({}, 15);
  const std::vector<std::size_t> counts = {20, 20};
  const data::Dataset d1 = gen.generate(counts, rng);
  const data::Dataset d2 = gen.generate(counts, rng);
  nn::Model model = nn::make_mlp_head({.input_dim = 32, .hidden = 8,
                                       .num_classes = 2,
                                       .num_hidden_layers = 1});
  model.init(rng);
  const tensor::FlatVec global = model.get_parameters();
  const auto grads = sample_background_gradients(
      {&d1, &d2}, model, global,
      nn::SgdConfig{.learning_rate = 0.05, .batch_size = 16, .epochs = 1},
      rng);
  ASSERT_EQ(grads.size(), 2u);
  for (const auto& g : grads) {
    EXPECT_EQ(g.size(), global.size());
    EXPECT_GT(stats::l2_norm(g), 0.0);
  }
  EXPECT_THROW(sample_background_gradients({}, model, global, {}, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace collapois::core
