// Tests for the client-level metrics: Benign AC / Attack SR evaluation,
// Eq. 8 score ranking, top-k aggregation, the disjoint risk clusters and
// Eq. 9's cumulative-label cosine, and the round telemetry summaries.
#include <gtest/gtest.h>

#include <cmath>

#include "data/partition.h"
#include "data/synthetic_text.h"
#include "fl/server_algorithm.h"
#include "metrics/client_metrics.h"
#include "metrics/clusters.h"
#include "metrics/telemetry.h"
#include "nn/sgd.h"
#include "nn/zoo.h"
#include "trojan/embedding_trigger.h"

namespace collapois::metrics {
namespace {

ClientEval make_eval(std::size_t idx, double ac, double sr,
                     bool compromised = false) {
  ClientEval e;
  e.client_index = idx;
  e.compromised = compromised;
  e.has_test_data = true;
  e.benign_ac = ac;
  e.attack_sr = sr;
  return e;
}

TEST(PopulationMetrics, AveragesBenignOnly) {
  std::vector<ClientEval> evals = {
      make_eval(0, 0.8, 0.2),
      make_eval(1, 0.6, 0.4),
      make_eval(2, 0.0, 1.0, /*compromised=*/true),
  };
  const auto m = average_benign(evals);
  EXPECT_EQ(m.clients, 2u);
  EXPECT_NEAR(m.benign_ac, 0.7, 1e-12);
  EXPECT_NEAR(m.attack_sr, 0.3, 1e-12);
}

TEST(PopulationMetrics, SkipsClientsWithoutTestData) {
  std::vector<ClientEval> evals = {make_eval(0, 0.9, 0.1)};
  ClientEval no_data;
  no_data.client_index = 1;
  evals.push_back(no_data);
  const auto m = average_benign(evals);
  EXPECT_EQ(m.clients, 1u);
}

TEST(TopK, SelectsHighestScores) {
  std::vector<ClientEval> evals;
  for (int i = 0; i < 10; ++i) {
    evals.push_back(make_eval(static_cast<std::size_t>(i), 0.5,
                              0.1 * static_cast<double>(i)));
  }
  const auto top20 = average_top_k(evals, 20.0);  // top 2 by score
  EXPECT_EQ(top20.clients, 2u);
  EXPECT_NEAR(top20.attack_sr, (0.9 + 0.8) / 2.0, 1e-12);
  const auto top_all = average_top_k(evals, 100.0);
  EXPECT_EQ(top_all.clients, 10u);
  EXPECT_THROW(average_top_k(evals, 0.0), std::invalid_argument);
  EXPECT_THROW(average_top_k(evals, 150.0), std::invalid_argument);
}

TEST(TopK, AlwaysAtLeastOneClient) {
  std::vector<ClientEval> evals = {make_eval(0, 0.5, 0.5),
                                   make_eval(1, 0.4, 0.1)};
  const auto m = average_top_k(evals, 1.0);
  EXPECT_EQ(m.clients, 1u);
  EXPECT_NEAR(m.attack_sr, 0.5, 1e-12);
}

TEST(FractionInfected, ThresholdCounting) {
  std::vector<ClientEval> evals = {
      make_eval(0, 0.9, 0.9), make_eval(1, 0.9, 0.5), make_eval(2, 0.9, 0.1),
      make_eval(3, 0.0, 1.0, true)};
  EXPECT_NEAR(fraction_infected(evals, 0.7), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(fraction_infected(evals, 0.05), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(fraction_infected({}, 0.5), 0.0);
}

TEST(CumulativeLabelCosine, IdenticalDistributionsAreOne) {
  const std::vector<double> h = {3.0, 1.0, 2.0};
  EXPECT_NEAR(cumulative_label_cosine(h, h), 1.0, 1e-12);
}

TEST(CumulativeLabelCosine, UsesCumulativeNotRaw) {
  // Raw histograms orthogonal, but cumulative distributions overlap —
  // the Eq. 9 design (prefix sums) must be reflected.
  const std::vector<double> a = {1.0, 0.0};
  const std::vector<double> b = {0.0, 1.0};
  const double cs = cumulative_label_cosine(a, b);
  // Cumulative: a -> (1, 1), b -> (0, 1); cosine = 1/sqrt(2).
  EXPECT_NEAR(cs, 1.0 / std::sqrt(2.0), 1e-12);
  EXPECT_THROW(cumulative_label_cosine(a, std::vector<double>{1.0}),
               std::invalid_argument);
}

TEST(RiskClusters, DisjointAndOrdered) {
  std::vector<ClientEval> evals;
  std::vector<std::vector<double>> hists;
  for (int i = 0; i < 100; ++i) {
    evals.push_back(make_eval(static_cast<std::size_t>(i), 0.5,
                              static_cast<double>(i) / 100.0));
    hists.push_back({1.0, 1.0});
  }
  const std::vector<double> aux = {1.0, 1.0};
  const auto clusters = risk_clusters(evals, {1, 25, 50}, hists, aux);
  ASSERT_EQ(clusters.size(), 4u);
  EXPECT_EQ(clusters[0].name, "top-1%");
  EXPECT_EQ(clusters[3].name, "bottom");
  // Disjoint cover of the population.
  std::size_t total = 0;
  std::set<std::size_t> seen;
  for (const auto& c : clusters) {
    total += c.client_indices.size();
    for (std::size_t idx : c.client_indices) {
      EXPECT_TRUE(seen.insert(idx).second) << "client in two clusters";
    }
  }
  EXPECT_EQ(total, 100u);
  // Risk ordering: Attack SR non-increasing across clusters.
  for (std::size_t k = 1; k < clusters.size(); ++k) {
    EXPECT_GE(clusters[k - 1].mean_attack_sr, clusters[k].mean_attack_sr);
  }
  // Identical label hists -> CS == 1 everywhere.
  for (const auto& c : clusters) EXPECT_NEAR(c.label_cosine, 1.0, 1e-9);
}

TEST(RiskClusters, RejectsNonIncreasingKs) {
  std::vector<ClientEval> evals = {make_eval(0, 1, 1)};
  EXPECT_THROW(risk_clusters(evals, {25, 25}, {{1.0}}, std::vector<double>{1.0}),
               std::invalid_argument);
}

TEST(Telemetry, SummarizesAngleSeparately) {
  fl::RoundTelemetry t;
  // Two aligned benign, two anti-aligned malicious.
  for (int i = 0; i < 2; ++i) {
    fl::ClientUpdate u;
    u.delta = {1.0f, 0.0f};
    t.updates.push_back(std::move(u));
    t.compromised.push_back(false);
  }
  fl::ClientUpdate m1;
  m1.delta = {0.0f, 1.0f};
  fl::ClientUpdate m2;
  m2.delta = {0.0f, -1.0f};
  t.updates.push_back(std::move(m1));
  t.compromised.push_back(true);
  t.updates.push_back(std::move(m2));
  t.compromised.push_back(true);

  const auto s = summarize_round_angles(t);
  EXPECT_EQ(s.n_benign, 2u);
  EXPECT_EQ(s.n_malicious, 2u);
  EXPECT_NEAR(s.benign_pairwise_mean, 0.0, 1e-6);
  EXPECT_NEAR(s.malicious_pairwise_mean, M_PI, 1e-6);
}

TEST(Telemetry, EmptyUpdatesAreFine) {
  fl::RoundTelemetry t;
  t.compromised = {true, false};  // MetaFed-style: flags but no updates
  const auto s = summarize_round_angles(t);
  EXPECT_EQ(s.n_benign, 0u);
  EXPECT_EQ(s.n_malicious, 0u);
}

TEST(Telemetry, FlagSizeMismatchThrows) {
  fl::RoundTelemetry t;
  for (int i = 0; i < 3; ++i) {
    fl::ClientUpdate u;
    u.delta = {1.0f, static_cast<float>(i)};
    t.updates.push_back(std::move(u));
  }
  t.compromised = {false, true};
  EXPECT_THROW(summarize_round_angles(t), std::invalid_argument);
  AngleAccumulator acc;
  EXPECT_THROW(acc.add(t), std::invalid_argument);
}

TEST(Telemetry, AccumulatorAggregatesRounds) {
  AngleAccumulator acc;
  fl::RoundTelemetry t;
  for (int i = 0; i < 3; ++i) {
    fl::ClientUpdate u;
    u.delta = {1.0f, static_cast<float>(i)};
    t.updates.push_back(std::move(u));
    t.compromised.push_back(false);
  }
  acc.add(t);
  acc.add(t);
  EXPECT_EQ(acc.benign().count(), 6u);  // 2 rounds x C(3,2)
  EXPECT_EQ(acc.malicious().count(), 0u);
}

TEST(EvaluateClients, EndToEndOnTinyFederation) {
  stats::Rng rng(3);
  data::SyntheticTextGenerator gen({}, 4);
  data::FederatedData fed = data::build_federation(gen, 5, 40, 10.0, rng);

  nn::Model model = nn::make_mlp_head(
      {.input_dim = 32, .hidden = 8, .num_classes = 2,
       .num_hidden_layers = 1});
  model.init(rng);
  std::vector<std::unique_ptr<fl::Client>> clients;
  for (std::size_t i = 0; i < 5; ++i) {
    clients.push_back(std::make_unique<fl::BenignClient>(
        i, &fed.clients[i].train, model,
        nn::SgdConfig{.learning_rate = 0.05, .batch_size = 16, .epochs = 1},
        0.5, rng.fork()));
  }
  fl::ServerAlgorithm algo("fedavg", model.get_parameters(),
                           std::make_unique<fl::FedAvgAggregator>(),
                           fl::ServerConfig{.learning_rate = 1.0,
                                            .sample_prob = 0.6},
                           std::move(clients), stats::Rng(5));
  for (int r = 0; r < 15; ++r) algo.run_round();

  trojan::EmbeddingTrigger trigger({}, 6);
  const std::vector<bool> compromised(5, false);
  EvalConfig cfg;
  const auto evals =
      evaluate_clients(algo, fed, trigger, model, compromised, cfg);
  ASSERT_EQ(evals.size(), 5u);
  for (const auto& e : evals) {
    EXPECT_GE(e.benign_ac, 0.0);
    EXPECT_LE(e.benign_ac, 1.0);
    EXPECT_GE(e.attack_sr, 0.0);
    EXPECT_LE(e.attack_sr, 1.0);
  }
  // A trained, un-attacked model classifies well.
  EXPECT_GT(average_benign(evals).benign_ac, 0.7);

  // Strided evaluation bounds the client count.
  EvalConfig limited;
  limited.max_clients = 2;
  const auto few =
      evaluate_clients(algo, fed, trigger, model, compromised, limited);
  EXPECT_EQ(few.size(), 2u);

  const std::vector<bool> wrong(3, false);
  EXPECT_THROW(evaluate_clients(algo, fed, trigger, model, wrong, cfg),
               std::invalid_argument);
}

}  // namespace
}  // namespace collapois::metrics
