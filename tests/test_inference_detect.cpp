// Tests for the inference-time Trojan detectors (STRIP, Fine-Pruning,
// Neural Cleanse) — built against a deliberately *detectable* patch
// backdoor, where each method must fire; evasion by the warp trigger is
// exercised in `bench_paper inference`.
#include <gtest/gtest.h>

#include "core/trojan_trainer.h"
#include "data/synthetic_image.h"
#include "defense/inference_detect.h"
#include "nn/eval.h"
#include "nn/zoo.h"
#include "trojan/patch_trigger.h"
#include "trojan/poison.h"

namespace collapois::defense {
namespace {

// Shared expensive fixture: one patch-backdoored LeNet.
class InferenceDetectFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    state_ = new State();
    stats::Rng& rng = state_->rng;
    data::SyntheticImageGenerator gen({}, 31);
    std::vector<std::size_t> counts(10, 30);
    state_->train = gen.generate(counts, rng);
    std::vector<std::size_t> eval_counts(10, 10);
    state_->clean_eval = gen.generate(eval_counts, rng);

    state_->trigger = std::make_unique<trojan::PatchTrigger>(
        trojan::PatchTrigger::global_dba(16, 16));
    nn::Model m = nn::make_lenet_small({});
    m.init(rng);
    core::TrojanTrainConfig cfg;
    cfg.sgd.epochs = 30;
    const auto trained = core::train_trojaned_model(
        std::move(m), state_->train, *state_->trigger, cfg, rng);
    state_->model = nn::make_lenet_small({});
    state_->model.set_parameters(trained.x);
    state_->trojan_eval =
        trojan::apply_trigger_all(state_->clean_eval, *state_->trigger, 0);
  }

  static void TearDownTestSuite() {
    delete state_;
    state_ = nullptr;
  }

  struct State {
    stats::Rng rng{17};
    data::Dataset train;
    data::Dataset clean_eval;
    data::Dataset trojan_eval;
    std::unique_ptr<trojan::PatchTrigger> trigger;
    nn::Model model;
  };
  static State* state_;
};

InferenceDetectFixture::State* InferenceDetectFixture::state_ = nullptr;

TEST_F(InferenceDetectFixture, BackdoorIsInstalled) {
  EXPECT_GT(nn::accuracy(state_->model, state_->clean_eval), 0.8);
  EXPECT_GT(nn::accuracy(state_->model, state_->trojan_eval), 0.9);
}

TEST_F(InferenceDetectFixture, StripSeparatesPatchTrojans) {
  StripConfig cfg;
  const StripReport r =
      strip_evaluate(state_->model, state_->clean_eval, state_->trojan_eval,
                     state_->train, cfg, state_->rng);
  // Trojaned probes keep confidently predicting the target class under
  // superposition: lower entropy than clean probes.
  EXPECT_LT(r.trojan_entropy_mean, r.clean_entropy_mean);
  EXPECT_GT(r.detection_rate, 0.3);
}

TEST_F(InferenceDetectFixture, StripValidation) {
  StripConfig cfg;
  EXPECT_THROW(strip_entropy(state_->model, state_->clean_eval.example(0).x,
                             data::Dataset(10), cfg, state_->rng),
               std::invalid_argument);
  EXPECT_THROW(strip_evaluate(state_->model, data::Dataset(10),
                              state_->trojan_eval, state_->train, cfg,
                              state_->rng),
               std::invalid_argument);
}

TEST_F(InferenceDetectFixture, FinePruningDegradesBackdoorFirst) {
  const auto sweep = fine_prune_sweep(state_->model, state_->clean_eval,
                                      state_->clean_eval,
                                      state_->trojan_eval, {0, 8, 16, 24});
  ASSERT_EQ(sweep.size(), 4u);
  EXPECT_EQ(sweep[0].pruned_units, 0u);
  // No pruning reproduces the raw model's metrics.
  EXPECT_GT(sweep[0].attack_sr, 0.9);
  // Heavy pruning must reduce the backdoor (paper: prune dormant units).
  EXPECT_LT(sweep.back().attack_sr, sweep.front().attack_sr);
}

TEST_F(InferenceDetectFixture, FinePruneZeroesUnits) {
  nn::Model pruned = fine_prune(state_->model, state_->clean_eval, 32);
  // Pruning everything in the hidden layer kills the model's confidence:
  // logits become input-independent (bias only).
  tensor::Tensor x({1, 1, 16, 16});
  const auto a = pruned.forward(x);
  tensor::Tensor y({1, 1, 16, 16});
  y.fill(1.0f);
  const auto b = pruned.forward(y);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], 1e-5);
  }
  EXPECT_THROW(fine_prune(state_->model, data::Dataset(10), 4),
               std::invalid_argument);
}

TEST_F(InferenceDetectFixture, NeuralCleanseFlagsTargetClass) {
  CleanseConfig cfg;
  const CleanseReport r =
      neural_cleanse(state_->model, state_->clean_eval, cfg, state_->rng);
  ASSERT_EQ(r.mask_norms.size(), 10u);
  // The patch-backdoored class 0 admits the smallest reverse-engineered
  // mask and an anomalous index.
  EXPECT_EQ(r.flagged_class, 0);
  EXPECT_GT(r.anomaly_index, 2.0);
}

TEST(NeuralCleanse, Validation) {
  stats::Rng rng(1);
  nn::Model m = nn::make_lenet_small({});
  EXPECT_THROW(neural_cleanse(m, data::Dataset(10), {}, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace collapois::defense
