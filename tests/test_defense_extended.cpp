// Tests for the Table I completion defenses: FLARE (trust-weighted
// aggregation), CRFL (model clipping + noise + certified radius),
// Ditto (personalization defense), and user-level DP.
#include <gtest/gtest.h>

#include "data/partition.h"
#include "data/synthetic_text.h"
#include "defense/crfl.h"
#include "defense/ditto.h"
#include "defense/flare.h"
#include "defense/normbound.h"
#include "defense/registry.h"
#include "fl/server_algorithm.h"
#include "nn/eval.h"
#include "nn/zoo.h"
#include "sim/runner.h"
#include "stats/geometry.h"
#include "stats/special.h"

namespace collapois::defense {
namespace {

std::vector<fl::ClientUpdate> crowd_with_outlier() {
  std::vector<fl::ClientUpdate> updates;
  stats::Rng rng(1);
  for (int i = 0; i < 8; ++i) {
    fl::ClientUpdate u;
    u.client_id = static_cast<std::size_t>(i);
    u.delta = tensor::FlatVec(16);
    for (auto& v : u.delta) v = static_cast<float>(1.0 + rng.normal(0, 0.05));
    updates.push_back(std::move(u));
  }
  fl::ClientUpdate outlier;
  outlier.client_id = 8;
  outlier.delta = tensor::FlatVec(16, -50.0f);
  updates.push_back(std::move(outlier));
  return updates;
}

TEST(Flare, DownWeightsOutlier) {
  FlareAggregator flare(FlareConfig{1.0});
  const auto updates = crowd_with_outlier();
  const auto out = flare.aggregate(updates, {});
  // Aggregate close to the crowd, not dragged by the outlier.
  for (float v : out) EXPECT_NEAR(v, 1.0f, 0.2f);
  const auto& trust = flare.last_trust();
  ASSERT_EQ(trust.size(), updates.size());
  double max_crowd = 0.0;
  for (std::size_t i = 0; i < 8; ++i) max_crowd = std::max(max_crowd, trust[i]);
  EXPECT_LT(trust[8], max_crowd * 1e-3);
  double total = 0.0;
  for (double t : trust) total += t;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Flare, SingleUpdatePassthroughAndValidation) {
  FlareAggregator flare(FlareConfig{0.5});
  std::vector<fl::ClientUpdate> one(1);
  one[0].delta = {2.0f};
  EXPECT_EQ(flare.aggregate(one, {}), (tensor::FlatVec{2.0f}));
  EXPECT_THROW(flare.aggregate({}, {}), std::invalid_argument);
  EXPECT_THROW(FlareAggregator(FlareConfig{0.0}), std::invalid_argument);
}

TEST(Flare, TemperatureControlsSharpness) {
  const auto updates = crowd_with_outlier();
  FlareAggregator sharp(FlareConfig{0.1});
  FlareAggregator soft(FlareConfig{100.0});
  sharp.aggregate(updates, {});
  soft.aggregate(updates, {});
  EXPECT_LT(sharp.last_trust()[8], soft.last_trust()[8]);
}

TEST(Crfl, PostUpdateClipsAndPerturbs) {
  CrflAggregator crfl(CrflConfig{1.0, 0.0},
                      std::make_unique<fl::FedAvgAggregator>(),
                      stats::Rng(2));
  tensor::FlatVec params(64, 10.0f);  // norm 80 >> clip 1
  crfl.post_update(params);
  EXPECT_NEAR(stats::l2_norm(params), 1.0, 1e-5);

  CrflAggregator noisy(CrflConfig{100.0, 0.1},
                       std::make_unique<fl::FedAvgAggregator>(),
                       stats::Rng(3));
  tensor::FlatVec zero(64, 0.0f);
  noisy.post_update(zero);
  EXPECT_GT(stats::l2_norm(zero), 0.0);
}

TEST(Crfl, AggregationDelegatesToInner) {
  CrflAggregator crfl(CrflConfig{10.0, 0.0},
                      std::make_unique<fl::FedAvgAggregator>(),
                      stats::Rng(4));
  std::vector<fl::ClientUpdate> updates(2);
  updates[0].delta = {2.0f};
  updates[1].delta = {4.0f};
  EXPECT_EQ(crfl.aggregate(updates, {}), (tensor::FlatVec{3.0f}));
}

TEST(Crfl, CertifiedRadiusMatchesGaussianArgument) {
  CrflAggregator crfl(CrflConfig{10.0, 0.5},
                      std::make_unique<fl::FedAvgAggregator>(),
                      stats::Rng(5));
  EXPECT_NEAR(crfl.certified_radius(0.9),
              0.5 * stats::normal_quantile(0.9), 1e-9);
  EXPECT_THROW(crfl.certified_radius(0.5), std::invalid_argument);
  EXPECT_THROW(crfl.certified_radius(1.0), std::invalid_argument);
}

TEST(Crfl, ServerAppliesPostUpdateHook) {
  // A server with CRFL must keep the global parameter norm at the clip
  // bound even when clients push it far.
  stats::Rng rng(6);
  data::SyntheticTextGenerator gen({}, 7);
  data::FederatedData fed = data::build_federation(gen, 4, 40, 1.0, rng);
  nn::Model model = nn::make_mlp_head({.input_dim = 32, .hidden = 8,
                                       .num_classes = 2,
                                       .num_hidden_layers = 1});
  model.init(rng);
  const double clip = 0.8 * stats::l2_norm(model.get_parameters());
  std::vector<std::unique_ptr<fl::Client>> clients;
  for (std::size_t i = 0; i < 4; ++i) {
    clients.push_back(std::make_unique<fl::BenignClient>(
        i, &fed.clients[i].train, model,
        nn::SgdConfig{.learning_rate = 0.05, .batch_size = 16, .epochs = 1},
        0.5, rng.fork()));
  }
  fl::ServerAlgorithm algo(
      "fedavg", model.get_parameters(),
      std::make_unique<CrflAggregator>(
          CrflConfig{clip, 0.0}, std::make_unique<fl::FedAvgAggregator>(),
          stats::Rng(8)),
      fl::ServerConfig{.learning_rate = 1.0, .sample_prob = 1.0},
      std::move(clients), stats::Rng(9));
  algo.run_round();
  EXPECT_LE(stats::l2_norm(algo.global_params()), clip + 1e-4);
}

TEST(UserDp, NoiseAtFullSensitivity) {
  // User-level: sigma = z * clip regardless of participant count.
  auto run = [](bool user_level, std::size_t n) {
    DpAggregator dp(DpConfig{1.0, 1.0, user_level},
                    std::make_unique<fl::FedAvgAggregator>(), stats::Rng(10));
    std::vector<fl::ClientUpdate> updates(n);
    for (auto& u : updates) u.delta = tensor::FlatVec(512, 0.0f);
    return stats::l2_norm(dp.aggregate(updates, {}));
  };
  // Central DP noise shrinks with n; user-level stays flat.
  EXPECT_GT(run(false, 2), run(false, 32) * 4.0);
  EXPECT_NEAR(run(true, 2) / run(true, 32), 1.0, 0.3);
}

TEST(Ditto, PersonalModelBeatsCorruptGlobalLocally) {
  stats::Rng rng(11);
  data::SyntheticTextGenerator gen({}, 12);
  data::FederatedData fed = data::build_federation(gen, 3, 80, 1.0, rng);
  nn::Model model = nn::make_mlp_head({.input_dim = 32, .hidden = 8,
                                       .num_classes = 2,
                                       .num_hidden_layers = 1});
  model.init(rng);
  DittoClient client(0, &fed.clients[0].train,
                     std::make_shared<const nn::Model>(model),
                     nn::SgdConfig{.learning_rate = 0.05, .batch_size = 16,
                                   .epochs = 3},
                     DittoConfig{0.01, 3}, 0.5, rng.fork());
  // A "corrupt" global: random weights.
  const tensor::FlatVec corrupt = model.get_parameters();
  const tensor::FlatVec personal = client.eval_params(corrupt);
  nn::Model probe = model;
  probe.set_parameters(corrupt);
  const double global_acc = nn::accuracy(probe, fed.clients[0].test);
  probe.set_parameters(personal);
  const double personal_acc = nn::accuracy(probe, fed.clients[0].test);
  EXPECT_GT(personal_acc, global_acc);
}

TEST(RegistryExtended, NewKindsRoundTripAndConstruct) {
  for (DefenseKind k : {DefenseKind::user_dp, DefenseKind::flare,
                        DefenseKind::crfl, DefenseKind::ditto}) {
    EXPECT_EQ(parse_defense(defense_name(k)), k);
    auto agg = make_defense(k, {}, stats::Rng(13));
    ASSERT_NE(agg, nullptr);
  }
  // The Table I registry covers all four new rows.
  const auto table = defense_registry();
  EXPECT_GE(table.size(), 11u);
}

TEST(RegistryExtended, DittoRunsEndToEnd) {
  sim::ExperimentConfig cfg;
  cfg.dataset = sim::DatasetKind::sentiment_like;
  cfg.attack = sim::AttackKind::collapois;
  cfg.defense = DefenseKind::ditto;
  cfg.n_clients = 10;
  cfg.samples_per_client = 40;
  cfg.compromised_fraction = 0.2;
  cfg.sample_prob = 0.4;
  cfg.rounds = 10;
  cfg.attack_start_round = 3;
  cfg.seed = 5;
  const auto r = sim::run_experiment(cfg);
  EXPECT_EQ(r.final_evals.size(), 10u);
  // Ditto + non-FedAvg is rejected.
  cfg.algorithm = sim::AlgorithmKind::feddc;
  EXPECT_THROW(sim::run_experiment(cfg), std::invalid_argument);
}

TEST(RegistryExtended, FlareAndCrflRunEndToEnd) {
  for (DefenseKind k : {DefenseKind::flare, DefenseKind::crfl,
                        DefenseKind::user_dp}) {
    sim::ExperimentConfig cfg;
    cfg.dataset = sim::DatasetKind::sentiment_like;
    cfg.attack = sim::AttackKind::collapois;
    cfg.defense = k;
    cfg.n_clients = 10;
    cfg.samples_per_client = 40;
    cfg.compromised_fraction = 0.2;
    cfg.sample_prob = 0.4;
    cfg.rounds = 10;
    cfg.attack_start_round = 3;
    cfg.seed = 6;
    const auto r = sim::run_experiment(cfg);
    EXPECT_EQ(r.final_evals.size(), 10u) << defense_name(k);
  }
}

}  // namespace
}  // namespace collapois::defense
