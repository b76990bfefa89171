// Tests for the federated engine: aggregation math, the server round
// loop, the sign convention (fl/update.h), FedDC personalization, and
// MetaFed's cyclic protocol.
#include <gtest/gtest.h>

#include <memory>

#include "data/partition.h"
#include "data/synthetic_text.h"
#include "fl/metafed.h"
#include "fl/server_algorithm.h"
#include "nn/eval.h"
#include "nn/zoo.h"
#include "stats/geometry.h"

namespace collapois::fl {
namespace {

nn::Model small_model(stats::Rng& rng) {
  nn::Model m = nn::make_mlp_head(
      {.input_dim = 32, .hidden = 8, .num_classes = 2,
       .num_hidden_layers = 1});
  m.init(rng);
  return m;
}

TEST(FedAvg, WeightedMeanOfUpdates) {
  FedAvgAggregator agg;
  std::vector<ClientUpdate> updates(2);
  updates[0].delta = {2.0f, 0.0f};
  updates[0].weight = 3.0;
  updates[1].delta = {0.0f, 4.0f};
  updates[1].weight = 1.0;
  const auto out = agg.aggregate(updates, {});
  EXPECT_NEAR(out[0], 1.5f, 1e-6);
  EXPECT_NEAR(out[1], 1.0f, 1e-6);
  EXPECT_THROW(agg.aggregate({}, {}), std::invalid_argument);
}

class ServerFixture : public ::testing::Test {
 protected:
  ServerFixture() : rng_(77), gen_({}, 3) {
    fed_ = data::build_federation(gen_, 6, 60, 10.0, rng_);
    model_ = small_model(rng_);
  }

  std::vector<std::unique_ptr<Client>> make_benign_clients() {
    std::vector<std::unique_ptr<Client>> clients;
    for (std::size_t i = 0; i < fed_.num_clients(); ++i) {
      clients.push_back(std::make_unique<BenignClient>(
          i, &fed_.clients[i].train, model_,
          nn::SgdConfig{.learning_rate = 0.05, .batch_size = 16, .epochs = 1},
          0.5, rng_.fork()));
    }
    return clients;
  }

  stats::Rng rng_;
  data::SyntheticTextGenerator gen_;
  data::FederatedData fed_;
  nn::Model model_;
};

TEST_F(ServerFixture, BenignUpdateIsDescentDirection) {
  // Sign convention: applying theta - g with g = theta - theta_local lands
  // exactly on theta_local; the local model has lower local loss.
  BenignClient client(0, &fed_.clients[0].train, model_,
                      nn::SgdConfig{.learning_rate = 0.05,
                                    .batch_size = 16,
                                    .epochs = 3},
                      0.5, rng_.fork());
  const tensor::FlatVec global = model_.get_parameters();
  RoundContext ctx{0, global};
  const ClientUpdate u = client.compute_update(ctx);
  ASSERT_EQ(u.delta.size(), global.size());

  tensor::FlatVec landed = global;
  tensor::axpy_inplace(landed, -1.0, u.delta);
  nn::Model probe = model_;
  probe.set_parameters(global);
  const double loss_before = nn::mean_loss(probe, fed_.clients[0].train);
  probe.set_parameters(landed);
  const double loss_after = nn::mean_loss(probe, fed_.clients[0].train);
  EXPECT_LT(loss_after, loss_before);
}

TEST_F(ServerFixture, RoundUpdatesGlobalAndTelemetry) {
  auto clients = make_benign_clients();
  std::vector<Client*> raw;
  for (auto& c : clients) raw.push_back(c.get());

  Server server(model_.get_parameters(),
                std::make_unique<FedAvgAggregator>(),
                ServerConfig{.learning_rate = 1.0, .sample_prob = 0.5},
                stats::Rng(5));
  const tensor::FlatVec before = server.global_params();
  const RoundTelemetry t = server.run_round(raw);
  EXPECT_EQ(t.round, 0u);
  EXPECT_EQ(server.round(), 1u);
  EXPECT_FALSE(t.updates.empty());
  EXPECT_EQ(t.updates.size(), t.sampled_ids.size());
  EXPECT_EQ(t.updates.size(), t.compromised.size());
  EXPECT_EQ(t.aggregated.size(), before.size());
  EXPECT_GT(stats::l2_distance(server.global_params(), before), 0.0);
}

TEST_F(ServerFixture, AlwaysSamplesAtLeastOneClient) {
  auto clients = make_benign_clients();
  std::vector<Client*> raw;
  for (auto& c : clients) raw.push_back(c.get());
  Server server(model_.get_parameters(),
                std::make_unique<FedAvgAggregator>(),
                ServerConfig{.learning_rate = 1.0, .sample_prob = 1e-9},
                stats::Rng(6));
  for (int r = 0; r < 5; ++r) {
    const RoundTelemetry t = server.run_round(raw);
    EXPECT_GE(t.updates.size(), 1u);
  }
}

TEST_F(ServerFixture, RejectsBadConstruction) {
  const ServerConfig half{.learning_rate = 1.0, .sample_prob = 0.5};
  EXPECT_THROW(Server({}, std::make_unique<FedAvgAggregator>(), half,
                      stats::Rng(1)),
               std::invalid_argument);
  EXPECT_THROW(Server({1.0f}, nullptr, half, stats::Rng(1)),
               std::invalid_argument);
  EXPECT_THROW(Server({1.0f}, std::make_unique<FedAvgAggregator>(),
                      ServerConfig{.learning_rate = 1.0, .sample_prob = 0.0},
                      stats::Rng(1)),
               std::invalid_argument);
}

TEST_F(ServerFixture, FedAvgTrainingImprovesAccuracy) {
  auto clients = make_benign_clients();
  ServerAlgorithm algo("fedavg", model_.get_parameters(),
                       std::make_unique<FedAvgAggregator>(),
                       ServerConfig{.learning_rate = 1.0, .sample_prob = 0.5},
                       std::move(clients), stats::Rng(7));
  nn::Model probe = model_;
  probe.set_parameters(algo.global_params());
  const double before = nn::accuracy(probe, fed_.clients[0].test);
  for (int r = 0; r < 30; ++r) algo.run_round();
  probe.set_parameters(algo.global_params());
  const double after = nn::accuracy(probe, fed_.clients[0].test);
  EXPECT_GT(after, before + 0.1);
  EXPECT_GT(after, 0.75);
}

TEST_F(ServerFixture, FedDcPersonalizationBeatsGlobalOnSkewedData) {
  stats::Rng rng(8);
  // Strongly skewed federation so personalization matters.
  data::FederatedData skewed = data::build_federation(gen_, 6, 60, 0.05, rng);
  std::vector<std::unique_ptr<Client>> clients;
  const auto architecture = std::make_shared<const nn::Model>(model_);
  for (std::size_t i = 0; i < skewed.num_clients(); ++i) {
    clients.push_back(std::make_unique<FedDcClient>(
        i, &skewed.clients[i].train, architecture,
        nn::SgdConfig{.learning_rate = 0.05, .batch_size = 16, .epochs = 2},
        0.1, 0.5, rng.fork()));
  }
  ServerAlgorithm algo("feddc", model_.get_parameters(),
                       std::make_unique<FedAvgAggregator>(),
                       ServerConfig{.learning_rate = 1.0, .sample_prob = 0.6},
                       std::move(clients), stats::Rng(9));
  for (int r = 0; r < 20; ++r) algo.run_round();

  nn::Model probe = model_;
  double personal_acc = 0.0;
  double global_acc = 0.0;
  int counted = 0;
  for (std::size_t i = 0; i < skewed.num_clients(); ++i) {
    if (skewed.clients[i].test.empty()) continue;
    probe.set_parameters(algo.client_eval_params(i));
    personal_acc += nn::accuracy(probe, skewed.clients[i].test);
    probe.set_parameters(algo.global_params());
    global_acc += nn::accuracy(probe, skewed.clients[i].test);
    ++counted;
  }
  ASSERT_GT(counted, 0);
  EXPECT_GE(personal_acc, global_acc);
}

TEST_F(ServerFixture, MetaFedRunsAndLearns) {
  std::vector<std::unique_ptr<Client>> clients;
  for (std::size_t i = 0; i < fed_.num_clients(); ++i) {
    clients.push_back(std::make_unique<BenignClient>(
        i, &fed_.clients[i].train, model_,
        nn::SgdConfig{.learning_rate = 0.05, .batch_size = 16, .epochs = 1},
        0.3, rng_.fork()));
  }
  MetaFedAlgorithm algo(std::move(clients), model_,
                        MetaFedConfig{.sample_prob = 0.8}, stats::Rng(10));
  for (int r = 0; r < 20; ++r) {
    const RoundTelemetry t = algo.run_round();
    EXPECT_TRUE(t.updates.empty());  // no transmitted update vectors
    EXPECT_FALSE(t.sampled_ids.empty());
  }
  nn::Model probe = model_;
  double acc = 0.0;
  int counted = 0;
  for (std::size_t i = 0; i < fed_.num_clients(); ++i) {
    if (fed_.clients[i].test.empty()) continue;
    probe.set_parameters(algo.client_eval_params(i));
    acc += nn::accuracy(probe, fed_.clients[i].test);
    ++counted;
  }
  EXPECT_GT(acc / counted, 0.7);
}

TEST_F(ServerFixture, MetaFedClipAndNoiseBoundKnowledgeTransfer) {
  std::vector<std::unique_ptr<Client>> clients;
  for (std::size_t i = 0; i < fed_.num_clients(); ++i) {
    clients.push_back(std::make_unique<BenignClient>(
        i, &fed_.clients[i].train, model_,
        nn::SgdConfig{.learning_rate = 0.05, .batch_size = 16, .epochs = 1},
        0.3, rng_.fork()));
  }
  MetaFedConfig cfg;
  cfg.sample_prob = 1.0;
  cfg.clip = 1e-6;  // essentially freeze the models
  MetaFedAlgorithm algo(std::move(clients), model_, cfg, stats::Rng(11));
  const tensor::FlatVec before = algo.client_eval_params(0);
  algo.run_round();
  const tensor::FlatVec after = algo.client_eval_params(0);
  EXPECT_LT(stats::l2_distance(before, after), 1e-4);
}

TEST(FedAvgAlgorithm, RejectsEmptyPopulation) {
  EXPECT_THROW(ServerAlgorithm("x", {1.0f},
                               std::make_unique<FedAvgAggregator>(),
                               ServerConfig{.learning_rate = 1.0,
                                            .sample_prob = 0.5},
                               std::vector<std::unique_ptr<Client>>{},
                               stats::Rng(1)),
               std::invalid_argument);
}

}  // namespace
}  // namespace collapois::fl
