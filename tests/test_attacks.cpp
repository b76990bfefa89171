// Tests for the baseline attacks: DPois, MRepl (incl. dormant mode), DBA.
#include <gtest/gtest.h>

#include "attacks/dba.h"
#include "attacks/dpois.h"
#include "attacks/mrepl.h"
#include "data/partition.h"
#include "data/synthetic_image.h"
#include "data/synthetic_text.h"
#include "fl/client.h"
#include "nn/zoo.h"
#include "stats/geometry.h"
#include "trojan/embedding_trigger.h"

namespace collapois::attacks {
namespace {

struct AttackFixture : ::testing::Test {
  AttackFixture() : rng(5), gen({}, 9) {
    const std::vector<std::size_t> counts = {30, 30};
    local = gen.generate(counts, rng);
    model = nn::make_mlp_head({.input_dim = 32, .hidden = 8, .num_classes = 2,
                               .num_hidden_layers = 1});
    model.init(rng);
    global = model.get_parameters();
    architecture = std::make_shared<const nn::Model>(model);
  }

  stats::Rng rng;
  data::SyntheticTextGenerator gen;
  data::Dataset local;
  nn::Model model;
  std::shared_ptr<const nn::Model> architecture;
  tensor::FlatVec global;
  nn::SgdConfig sgd{.learning_rate = 0.05, .batch_size = 16, .epochs = 2};
};

TEST_F(AttackFixture, DPoisClientIsCompromisedAndProducesUpdate) {
  trojan::EmbeddingTrigger trigger({}, 1);
  auto client = make_dpois_client(3, local, trigger, DPoisConfig{0, 0.5},
                                  architecture, sgd, 0.5, rng.fork());
  EXPECT_EQ(client->id(), 3u);
  EXPECT_TRUE(client->is_compromised());
  fl::RoundContext ctx{0, global};
  const fl::ClientUpdate u = client->compute_update(ctx);
  EXPECT_EQ(u.delta.size(), global.size());
  EXPECT_GT(stats::l2_norm(u.delta), 0.0);
}

TEST_F(AttackFixture, PoisonTrainingClientRejectsEmptyData) {
  EXPECT_THROW(PoisonTrainingClient(0, data::Dataset(2), architecture, sgd,
                                    0.5, rng.fork()),
               std::invalid_argument);
}

TEST_F(AttackFixture, MReplUpdateIsBoostedPullTowardX) {
  tensor::FlatVec x = global;
  x[0] += 10.0f;  // X differs from the global model in one coordinate
  MReplClient client(1, x, MReplConfig{.boost = 5.0, .clip = 0.0});
  fl::RoundContext ctx{0, global};
  const fl::ClientUpdate u = client.compute_update(ctx);
  // g = boost * (theta - X): only coordinate 0 is nonzero, = -50.
  EXPECT_NEAR(u.delta[0], -50.0f, 1e-4);
  for (std::size_t i = 1; i < u.delta.size(); ++i) {
    EXPECT_EQ(u.delta[i], 0.0f);
  }
  // Applying theta - g/1 with a single-client round lands past X by the
  // boost factor; the replacement direction is toward X.
}

TEST_F(AttackFixture, MReplClipBoundsUpdate) {
  tensor::FlatVec x = global;
  for (auto& v : x) v += 1.0f;
  MReplClient client(1, x, MReplConfig{.boost = 100.0, .clip = 2.0});
  fl::RoundContext ctx{0, global};
  const fl::ClientUpdate u = client.compute_update(ctx);
  EXPECT_NEAR(stats::l2_norm(u.delta), 2.0, 1e-4);
}

TEST_F(AttackFixture, MReplDormantBehavesBenignly) {
  auto dormant = std::make_unique<fl::BenignClient>(
      2, &local, architecture, sgd, 0.5, rng.fork());
  MReplClient client(2, {}, MReplConfig{.boost = 5.0}, std::move(dormant));
  EXPECT_FALSE(client.armed());
  fl::RoundContext ctx{0, global};
  const fl::ClientUpdate u = client.compute_update(ctx);
  // Dormant update is a genuine training update, far smaller than a
  // boosted replacement would be.
  EXPECT_LT(stats::l2_norm(u.delta), 5.0);
  tensor::FlatVec x = global;
  x[0] += 1.0f;
  client.set_trojaned_model(x);
  EXPECT_TRUE(client.armed());
  const fl::ClientUpdate armed = client.compute_update(ctx);
  EXPECT_NEAR(armed.delta[0], -5.0f, 1e-5);
}

TEST_F(AttackFixture, MReplRejectsBadConstruction) {
  EXPECT_THROW(MReplClient(0, {}, MReplConfig{.boost = 5.0}),
               std::invalid_argument);
  EXPECT_THROW(MReplClient(0, global, MReplConfig{.boost = 0.0}),
               std::invalid_argument);
  MReplClient ok(0, global, MReplConfig{.boost = 1.0});
  EXPECT_THROW(ok.set_trojaned_model({}), std::invalid_argument);
  tensor::FlatVec short_global = {1.0f};
  fl::RoundContext ctx{0, short_global};
  EXPECT_THROW(ok.compute_update(ctx), std::invalid_argument);
}

TEST_F(AttackFixture, DbaClientUsesAssignedPart) {
  trojan::EmbeddingTrigger whole({}, 2);
  std::vector<trojan::PatchTrigger> parts =
      trojan::PatchTrigger::dba_parts(16, 16);
  // DBA over images is covered in the sim integration test; here check
  // the factory wiring with patch parts on an image federation.
  stats::Rng r2(6);
  data::SyntheticImageGenerator igen({}, 11);
  const std::vector<std::size_t> counts = {5, 5, 5, 5, 5, 5, 5, 5, 5, 5};
  const data::Dataset img_local = igen.generate(counts, r2);
  nn::Model lenet = nn::make_lenet_small({});
  lenet.init(r2);
  auto client = make_dba_client(4, img_local, parts, 2, DbaConfig{0, 0.5},
                                std::make_shared<const nn::Model>(lenet), sgd,
                                0.5, r2.fork());
  EXPECT_TRUE(client->is_compromised());
  const tensor::FlatVec g = lenet.get_parameters();
  fl::RoundContext ctx{0, g};
  const fl::ClientUpdate u = client->compute_update(ctx);
  EXPECT_EQ(u.delta.size(), g.size());
}

TEST_F(AttackFixture, DbaRejectsEmptyParts) {
  std::vector<trojan::PatchTrigger> none;
  EXPECT_THROW(make_dba_client(0, local, none, 0, DbaConfig{}, architecture,
                               sgd, 0.5, rng.fork()),
               std::invalid_argument);
}

}  // namespace
}  // namespace collapois::attacks
