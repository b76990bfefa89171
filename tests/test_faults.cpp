// Tests for the fault-injection layer (fl/faults.h) and the hardened
// server: deterministic fault decisions, dropout/straggler/corruption
// semantics, update quarantine, whole-cohort skip, and the acceptance
// scenario — a full experiment with heavy churn and pinned always-bad
// clients that completes without throwing.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "data/partition.h"
#include "data/synthetic_text.h"
#include "fl/faults.h"
#include "fl/server_algorithm.h"
#include "nn/zoo.h"
#include "sim/runner.h"
#include "stats/geometry.h"

namespace collapois::fl {
namespace {

// A deterministic scripted client: returns a constant update so fault
// transformations are observable exactly.
class ConstClient : public Client {
 public:
  ConstClient(std::size_t id, tensor::FlatVec delta)
      : id_(id), delta_(std::move(delta)) {}
  std::size_t id() const override { return id_; }
  ClientUpdate compute_update(const RoundContext& ctx) override {
    last_global_.assign(ctx.global.begin(), ctx.global.end());
    ++calls_;
    ClientUpdate u;
    u.client_id = id_;
    u.delta = delta_;
    return u;
  }
  void distill_round(nn::Model&, nn::Model&) override {}

  int calls() const { return calls_; }
  const tensor::FlatVec& last_global() const { return last_global_; }

 private:
  std::size_t id_;
  tensor::FlatVec delta_;
  tensor::FlatVec last_global_;
  int calls_ = 0;
};

TEST(FaultModel, DecisionsAreDeterministicAndOrderFree) {
  FaultConfig cfg;
  cfg.dropout_prob = 0.3;
  cfg.straggler_prob = 0.2;
  cfg.corrupt_prob = 0.1;
  const FaultModel a(cfg);
  const FaultModel b(cfg);
  for (std::size_t client = 0; client < 20; ++client) {
    for (std::size_t round = 0; round < 50; ++round) {
      EXPECT_EQ(a.decide(client, round), b.decide(client, round));
    }
  }
  // A different seed faults different cells.
  cfg.seed ^= 0x1234;
  const FaultModel c(cfg);
  int diffs = 0;
  for (std::size_t client = 0; client < 20; ++client) {
    for (std::size_t round = 0; round < 50; ++round) {
      diffs += a.decide(client, round) != c.decide(client, round);
    }
  }
  EXPECT_GT(diffs, 0);
}

TEST(FaultModel, RatesMatchProbabilities) {
  FaultConfig cfg;
  cfg.dropout_prob = 0.3;
  const FaultModel m(cfg);
  int dropped = 0;
  const int cells = 20000;
  for (int i = 0; i < cells; ++i) {
    dropped += m.decide(static_cast<std::size_t>(i % 100),
                        static_cast<std::size_t>(i / 100)) ==
               FaultKind::dropout;
  }
  EXPECT_NEAR(static_cast<double>(dropped) / cells, 0.3, 0.02);
}

TEST(FaultModel, PinnedFaultOverridesEveryRound) {
  FaultConfig cfg;
  cfg.pinned[7] = FaultKind::corrupt_nan;
  const FaultModel m(cfg);
  for (std::size_t round = 0; round < 30; ++round) {
    EXPECT_EQ(m.decide(7, round), FaultKind::corrupt_nan);
    EXPECT_EQ(m.decide(8, round), FaultKind::none);
  }
}

TEST(FaultModel, RejectsInvalidProbabilities) {
  FaultConfig bad;
  bad.dropout_prob = 0.8;
  bad.straggler_prob = 0.5;
  EXPECT_THROW(FaultModel{bad}, std::invalid_argument);
  bad = FaultConfig{};
  bad.corrupt_prob = -0.1;
  EXPECT_THROW(FaultModel{bad}, std::invalid_argument);
}

// --- watermark pruning of the stale-model history ------------------------
// The history is pruned by a virtual-clock watermark (newest observed
// round minus the retention window), not by entry count. Size-based
// pruning was wrong for overlapping cohorts: a late observe_global() from
// an older in-flight cohort either evicted history a deeper straggler
// still needed or was immediately evicted itself, silently shrinking the
// lookback below straggler_staleness.

FaultConfig watermark_config(std::size_t staleness) {
  FaultConfig cfg;
  cfg.straggler_prob = 1e-12;  // enable history recording
  cfg.straggler_staleness = staleness;
  return cfg;
}

TEST(FaultModelWatermark, ConsecutiveRoundsKeepExactlyTheLookbackWindow) {
  // The sync engine's monotone round sequence: the retained set matches
  // the old size bound (straggler_staleness + 1 newest rounds) exactly.
  FaultModel model(watermark_config(2));
  for (std::size_t t = 0; t < 6; ++t) {
    const tensor::FlatVec g{static_cast<float>(t)};
    model.observe_global(t, g);
  }
  std::size_t staleness = 0;
  const tensor::FlatVec& stale = model.stale_global(5, &staleness);
  EXPECT_EQ(staleness, 2u);
  EXPECT_EQ(stale[0], 3.f);
  // Rounds below the watermark (3 = 5 - window) are pruned: a lookback
  // that deep falls back to the newest entry at or before the wanted
  // round — here round 8 wants round 6, and the newest retained round
  // not past it is 5.
  const tensor::FlatVec& deepest = model.stale_global(8, &staleness);
  EXPECT_EQ(staleness, 3u);
  EXPECT_EQ(deepest[0], 5.f);
}

TEST(FaultModelWatermark, LateObservationFromOverlappingCohortIsRetained) {
  FaultModel model(watermark_config(1));
  model.set_extra_retention(2);  // async: window = 1 + 2 = 3 rounds
  model.observe_global(1, tensor::FlatVec{1.f});
  model.observe_global(2, tensor::FlatVec{2.f});
  // A delayed cohort's observation for round 0 arrives AFTER rounds 1 and
  // 2 were recorded. Size-based pruning (bound = staleness + 1 = 2
  // entries) would insert it and immediately evict it; the watermark
  // (2 - 3 < 0 -> keep everything) retains it.
  model.observe_global(0, tensor::FlatVec{0.f});
  std::size_t staleness = 0;
  const tensor::FlatVec& stale = model.stale_global(1, &staleness);
  EXPECT_EQ(staleness, 1u);
  EXPECT_EQ(stale[0], 0.f);
}

TEST(FaultModelWatermark, ObservationBelowTheWatermarkIsIgnored) {
  FaultModel model(watermark_config(1));
  model.observe_global(10, tensor::FlatVec{10.f});
  // window = 1, watermark = 9: a round-5 observation is unreachable by
  // any straggler and must not be recorded (the watermark never regresses).
  model.observe_global(5, tensor::FlatVec{5.f});
  std::size_t staleness = 0;
  const tensor::FlatVec& stale = model.stale_global(10, &staleness);
  EXPECT_EQ(staleness, 0u);
  EXPECT_EQ(stale[0], 10.f);
}

TEST(FaultModelWatermark, WatermarkSurvivesSaveLoad) {
  FaultModel model(watermark_config(1));
  model.observe_global(4, tensor::FlatVec{4.f});
  model.observe_global(5, tensor::FlatVec{5.f});
  StateWriter w;
  model.save_state(w);
  FaultModel restored(watermark_config(1));
  StateReader r(w.bytes());
  restored.load_state(r);
  // max_round_seen_ is re-derived from the restored history: a below-
  // watermark observation stays ignored after resume.
  restored.observe_global(2, tensor::FlatVec{2.f});
  std::size_t staleness = 0;
  const tensor::FlatVec& stale = restored.stale_global(5, &staleness);
  EXPECT_EQ(staleness, 1u);
  EXPECT_EQ(stale[0], 4.f);
}

TEST(FaultyClient, DropoutNeverInvokesInner) {
  FaultConfig cfg;
  cfg.pinned[1] = FaultKind::dropout;
  auto model = std::make_shared<FaultModel>(cfg);
  auto inner = std::make_unique<ConstClient>(1, tensor::FlatVec{1.f, 2.f});
  ConstClient* raw = inner.get();
  FaultyClient faulty(std::move(inner), model);

  const tensor::FlatVec global{0.f, 0.f};
  const ClientUpdate u = faulty.compute_update({0, global});
  EXPECT_EQ(u.status, UpdateStatus::dropped);
  EXPECT_TRUE(u.delta.empty());
  EXPECT_EQ(raw->calls(), 0);
}

TEST(FaultyClient, StragglerTrainsAgainstStaleGlobal) {
  FaultConfig cfg;
  cfg.straggler_prob = 1e-12;  // enable history recording
  cfg.straggler_staleness = 2;
  cfg.pinned[1] = FaultKind::straggler;
  cfg.pinned[2] = FaultKind::none;
  auto model = std::make_shared<FaultModel>(cfg);

  auto observer = std::make_unique<ConstClient>(2, tensor::FlatVec{0.f});
  FaultyClient recorder(std::move(observer), model);
  auto inner = std::make_unique<ConstClient>(1, tensor::FlatVec{1.f});
  ConstClient* raw = inner.get();
  FaultyClient straggler(std::move(inner), model);

  // Rounds 0..3 broadcast distinguishable globals via the recorder.
  for (std::size_t t = 0; t < 4; ++t) {
    const tensor::FlatVec global{static_cast<float>(t)};
    recorder.compute_update({t, global});
  }
  const tensor::FlatVec global{4.f};
  const ClientUpdate u = straggler.compute_update({4, global});
  EXPECT_EQ(u.status, UpdateStatus::straggler);
  EXPECT_EQ(u.staleness, 2u);
  ASSERT_EQ(raw->last_global().size(), 1u);
  // Round 4 minus staleness 2 = the round-2 broadcast.
  EXPECT_FLOAT_EQ(raw->last_global()[0], 2.f);
}

TEST(FaultyClient, CorruptionsProduceInvalidUpdates) {
  const tensor::FlatVec global(40, 0.f);
  auto make = [&](FaultKind kind) {
    FaultConfig cfg;
    cfg.pinned[1] = kind;
    auto model = std::make_shared<FaultModel>(cfg);
    auto inner =
        std::make_unique<ConstClient>(1, tensor::FlatVec(40, 0.5f));
    return std::make_unique<FaultyClient>(std::move(inner), model);
  };

  ClientUpdate u = make(FaultKind::corrupt_nan)->compute_update({0, global});
  EXPECT_TRUE(std::isnan(u.delta[0]));
  u = make(FaultKind::corrupt_inf)->compute_update({0, global});
  EXPECT_TRUE(std::isinf(u.delta[0]));
  u = make(FaultKind::corrupt_truncate)->compute_update({0, global});
  EXPECT_EQ(u.delta.size(), 20u);
  u = make(FaultKind::corrupt_blowup)->compute_update({0, global});
  EXPECT_GT(stats::l2_norm(u.delta), 1e5);
}

class HardenedServerFixture : public ::testing::Test {
 protected:
  static std::unique_ptr<Client> scripted(std::size_t id,
                                          tensor::FlatVec delta) {
    return std::make_unique<ConstClient>(id, std::move(delta));
  }

  // A server over scripted clients with sample_prob = 1 (deterministic
  // full-cohort rounds).
  static Server make_server(double norm_ceiling = 0.0) {
    return Server(tensor::FlatVec{0.f, 0.f},
                  std::make_unique<FedAvgAggregator>(),
                  ServerConfig{.learning_rate = 1.0,
                               .sample_prob = 1.0,
                               .update_norm_ceiling = norm_ceiling},
                  stats::Rng(3));
  }
};

TEST_F(HardenedServerFixture, QuarantinesMalformedUpdatesWithoutThrowing) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  auto good = scripted(0, {1.f, 1.f});
  auto nan_client = scripted(1, {nan, 1.f});
  auto short_client = scripted(2, {1.f});
  std::vector<Client*> raw{good.get(), nan_client.get(), short_client.get()};

  Server server = make_server();
  const tensor::FlatVec before = server.global_params();
  const RoundTelemetry t = server.run_round(raw);

  ASSERT_EQ(t.sampled_ids.size(), 1u);
  EXPECT_EQ(t.sampled_ids[0], 0u);
  ASSERT_EQ(t.rejected_ids.size(), 2u);
  EXPECT_EQ(t.rejected_ids[0], 1u);
  EXPECT_EQ(t.reject_reasons[0], RejectReason::non_finite);
  EXPECT_EQ(t.rejected_ids[1], 2u);
  EXPECT_EQ(t.reject_reasons[1], RejectReason::dim_mismatch);
  EXPECT_FALSE(t.aggregate_skipped);
  // The aggregate is the single good update.
  EXPECT_FLOAT_EQ(t.aggregated[0], 1.f);
  EXPECT_GT(stats::l2_distance(server.global_params(), before), 0.0);
}

TEST_F(HardenedServerFixture, NormCeilingQuarantinesBlowups) {
  auto good = scripted(0, {1.f, 0.f});
  auto blown = scripted(1, {1e7f, 0.f});
  std::vector<Client*> raw{good.get(), blown.get()};

  Server server = make_server(/*norm_ceiling=*/100.0);
  const RoundTelemetry t = server.run_round(raw);
  ASSERT_EQ(t.rejected_ids.size(), 1u);
  EXPECT_EQ(t.rejected_ids[0], 1u);
  EXPECT_EQ(t.reject_reasons[0], RejectReason::norm_exceeded);
  EXPECT_FLOAT_EQ(t.aggregated[0], 1.f);
}

TEST_F(HardenedServerFixture, SkipsRoundWhenWholeCohortFails) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  auto a = scripted(0, {nan, 0.f});
  auto b = scripted(1, {0.f});
  std::vector<Client*> raw{a.get(), b.get()};

  Server server = make_server();
  const tensor::FlatVec before = server.global_params();
  const RoundTelemetry t = server.run_round(raw);
  EXPECT_TRUE(t.aggregate_skipped);
  EXPECT_TRUE(t.sampled_ids.empty());
  EXPECT_EQ(t.rejected_ids.size(), 2u);
  EXPECT_EQ(server.round(), 1u);  // the round still advances
  EXPECT_EQ(server.global_params(), before);  // but the model is untouched
}

TEST_F(HardenedServerFixture, StragglerWeightIsDamped) {
  FaultConfig cfg;
  cfg.straggler_prob = 1e-12;
  cfg.straggler_staleness = 3;
  cfg.pinned[1] = FaultKind::straggler;
  auto model = std::make_shared<FaultModel>(cfg);
  auto faulty = std::make_unique<FaultyClient>(scripted(1, {2.f, 0.f}), model);
  auto fresh = scripted(0, {1.f, 0.f});
  std::vector<Client*> raw{fresh.get(), faulty.get()};

  Server server = make_server();
  // Round 0: no history yet, the straggler falls back to the current
  // global (staleness 0, no damping).
  RoundTelemetry t = server.run_round(raw);
  ASSERT_EQ(t.updates.size(), 2u);
  EXPECT_EQ(t.n_stragglers, 1u);
  EXPECT_DOUBLE_EQ(t.updates[1].weight, 1.0);

  // A few rounds later the history is deep enough for full staleness and
  // the damped weight 1 / (1 + 3).
  for (int i = 0; i < 4; ++i) t = server.run_round(raw);
  ASSERT_EQ(t.updates.size(), 2u);
  EXPECT_EQ(t.updates[1].staleness, 3u);
  EXPECT_DOUBLE_EQ(t.updates[1].weight, 0.25);
}

}  // namespace
}  // namespace collapois::fl

namespace collapois::sim {
namespace {

// Acceptance scenario: 50 rounds, 30% dropout, one always-NaN client and
// one dimension-truncating client — completes without throwing and the
// telemetry accounts for every fault.
TEST(FaultToleranceIntegration, ChurnAndPoisonRunCompletes) {
  ExperimentConfig cfg;
  cfg.dataset = DatasetKind::sentiment_like;
  cfg.attack = AttackKind::collapois;
  cfg.n_clients = 16;
  cfg.samples_per_client = 40;
  cfg.rounds = 50;
  cfg.sample_prob = 0.4;
  cfg.attack_start_round = 10;
  cfg.faults.dropout_prob = 0.3;
  cfg.faults.pinned[3] = fl::FaultKind::corrupt_nan;
  cfg.faults.pinned[5] = fl::FaultKind::corrupt_truncate;
  cfg.seed = 99;

  const ExperimentResult result = run_experiment(cfg);
  ASSERT_EQ(result.rounds.size(), 50u);
  std::size_t dropped = 0;
  std::size_t rejected = 0;
  for (const auto& r : result.rounds) {
    dropped += r.n_dropped;
    rejected += r.n_rejected;
  }
  // 30% dropout over 50 rounds of ~6-7 sampled clients.
  EXPECT_GT(dropped, 20u);
  // The pinned clients are quarantined whenever sampled.
  EXPECT_GT(rejected, 5u);
  // Training still made progress.
  EXPECT_GT(result.population.benign_ac, 0.5);
}

TEST(FaultToleranceIntegration, MetaFedRejectsFaultInjection) {
  ExperimentConfig cfg;
  cfg.dataset = DatasetKind::sentiment_like;
  cfg.algorithm = AlgorithmKind::metafed;
  cfg.attack = AttackKind::none;
  cfg.n_clients = 6;
  cfg.rounds = 2;
  cfg.faults.dropout_prob = 0.1;
  EXPECT_THROW(run_experiment(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace collapois::sim
