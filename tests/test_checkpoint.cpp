// Checkpoint/resume determinism and server sampling edge cases.
//
// The headline property: a straight 2N-round experiment and an N-round
// run + checkpoint + N-round resume are BIT-IDENTICAL — final global
// params and every final client-level evaluation — across FedAvg,
// attacks, noise-adding defenses, FedDC drift state, and fault
// injection.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>

#include "data/partition.h"
#include "data/synthetic_text.h"
#include "defense/registry.h"
#include "fl/server_algorithm.h"
#include "fl/state.h"
#include "kernels/cpu_dispatch.h"
#include "kernels/kernels.h"
#include "nn/zoo.h"
#include "sim/checkpoint.h"
#include "sim/runner.h"

namespace collapois {
namespace {

class TempFile {
 public:
  explicit TempFile(std::string name)
      : path_(::testing::TempDir() + std::move(name)) {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(StateBuffer, RoundTripsEveryPrimitive) {
  stats::Rng rng(7);
  rng.normal();  // populate the Box-Muller cache
  fl::StateWriter w;
  w.write_u64(0xdeadbeefULL);
  w.write_double(-1.5e300);
  w.write_bool(true);
  w.write_floats(tensor::FlatVec{1.f, -2.5f, 3e-30f});
  w.write_bytes(std::vector<std::uint8_t>{9, 8, 7});
  w.write_rng(rng);

  fl::StateReader r(w.bytes());
  EXPECT_EQ(r.read_u64(), 0xdeadbeefULL);
  EXPECT_EQ(r.read_double(), -1.5e300);
  EXPECT_TRUE(r.read_bool());
  EXPECT_EQ(r.read_floats(), (tensor::FlatVec{1.f, -2.5f, 3e-30f}));
  EXPECT_EQ(r.read_bytes(), (std::vector<std::uint8_t>{9, 8, 7}));
  stats::Rng restored(0);
  r.read_rng(restored);
  EXPECT_TRUE(r.exhausted());
  // The restored stream continues identically, cached normal included.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(rng.normal(), restored.normal());
    EXPECT_EQ(rng.next_u64(), restored.next_u64());
  }
}

TEST(StateBuffer, ThrowsOnTruncatedBlob) {
  fl::StateWriter w;
  w.write_floats(tensor::FlatVec(10, 1.f));
  std::vector<std::uint8_t> bytes = w.bytes();
  bytes.resize(bytes.size() / 2);
  fl::StateReader r(bytes);
  EXPECT_THROW(r.read_floats(), std::runtime_error);
}

TEST(CheckpointFile, RoundTripsAndValidates) {
  sim::Checkpoint ck;
  ck.fingerprint = 0x1234;
  ck.rounds_completed = 17;
  ck.run_rng = stats::Rng(3).state();
  ck.trojaned_model = {1.f, 2.f};
  ck.algo_state = {5, 6};
  const TempFile file("ckpt_roundtrip.bin");
  sim::save_checkpoint_file(file.path(), ck);
  const sim::Checkpoint loaded = sim::load_checkpoint_file(file.path());
  EXPECT_EQ(loaded.fingerprint, ck.fingerprint);
  EXPECT_EQ(loaded.rounds_completed, 17u);
  EXPECT_EQ(loaded.trojaned_model, ck.trojaned_model);
  EXPECT_EQ(loaded.algo_state, ck.algo_state);
  EXPECT_EQ(stats::Rng(3).state().s[0], loaded.run_rng.s[0]);

  EXPECT_THROW(sim::load_checkpoint_file(file.path() + ".missing"),
               std::runtime_error);
}

TEST(ConfigFingerprint, SeparatesRunsButNotRoundBudgets) {
  sim::ExperimentConfig a;
  sim::ExperimentConfig b = a;
  EXPECT_EQ(sim::config_fingerprint(a), sim::config_fingerprint(b));
  b.rounds += 10;  // extending the budget is a supported resume
  EXPECT_EQ(sim::config_fingerprint(a), sim::config_fingerprint(b));
  b.seed += 1;
  EXPECT_NE(sim::config_fingerprint(a), sim::config_fingerprint(b));
  b = a;
  b.faults.dropout_prob = 0.2;
  EXPECT_NE(sim::config_fingerprint(a), sim::config_fingerprint(b));
}

TEST(ConfigFingerprint, SeparatesKernelSets) {
  // naive and blocked kernels round differently, so a checkpoint taken
  // under one set must not resume under the other (unlike threads, which
  // never changes numerics and is excluded from the fingerprint).
  sim::ExperimentConfig a;
  sim::ExperimentConfig b = a;
  b.kernels = kernels::KernelKind::naive;
  ASSERT_NE(a.kernels, b.kernels);
  EXPECT_NE(sim::config_fingerprint(a), sim::config_fingerprint(b));
}

TEST(ConfigFingerprint, IgnoresDispatchTier) {
  // The runtime ISA tier (kernels/cpu_dispatch.h) is deliberately NOT
  // part of the fingerprint: only the kernel KIND pins a trajectory, so
  // one binary can write a checkpoint on an AVX2 host and resume it on a
  // scalar-only host. Pin that by computing the fingerprint under every
  // available tier.
  sim::ExperimentConfig cfg;
  const kernels::IsaTier entry = kernels::active_tier();
  kernels::set_active_tier(kernels::IsaTier::scalar);
  const std::uint64_t scalar_fp = sim::config_fingerprint(cfg);
  kernels::set_active_tier(kernels::detected_tier());
  EXPECT_EQ(sim::config_fingerprint(cfg), scalar_fp);
  kernels::set_active_tier(entry);
}

// The cross-host regression the fingerprint exclusion promises: write a
// checkpoint under the host's best tier (AVX2 in CI), resume under the
// forced scalar tier, and demand bit identity with a straight scalar
// run. The config keeps every tier-dispatched float path on a bit-exact
// route: naive training kernels (not tier-dispatched) + a coordinate
// defense through the fast SIMD tiles (bit-exact across tiers by the
// DefenseKernelDispatch suites).
TEST(CheckpointResume, BitExactWhenTierChangesAcrossResume) {
  sim::ExperimentConfig cfg;
  cfg.dataset = sim::DatasetKind::sentiment_like;
  cfg.n_clients = 8;
  cfg.samples_per_client = 30;
  cfg.rounds = 6;
  cfg.sample_prob = 0.5;
  cfg.attack = sim::AttackKind::none;
  cfg.seed = 99;
  cfg.kernels = kernels::KernelKind::naive;
  cfg.defense = defense::DefenseKind::coord_median;
  cfg.defense_impl = defense::DefenseImpl::fast;

  const kernels::IsaTier entry = kernels::active_tier();
  const kernels::IsaTier best = kernels::detected_tier();

  // Straight run entirely on the scalar tier.
  kernels::set_active_tier(kernels::IsaTier::scalar);
  const sim::ExperimentResult straight = sim::run_experiment(cfg);

  // Checkpoint half the run on the best tier the host has...
  kernels::set_active_tier(best);
  const TempFile file("ckpt_cross_tier.bin");
  sim::RunOptions save;
  save.checkpoint_save_path = file.path();
  save.checkpoint_round = cfg.rounds / 2;
  (void)sim::run_experiment(cfg, save);

  // ...and resume it on the scalar tier.
  kernels::set_active_tier(kernels::IsaTier::scalar);
  sim::RunOptions resume;
  resume.checkpoint_load_path = file.path();
  const sim::ExperimentResult resumed = sim::run_experiment(cfg, resume);
  kernels::set_active_tier(entry);

  ASSERT_EQ(resumed.final_global.size(), straight.final_global.size());
  EXPECT_EQ(resumed.final_global, straight.final_global);  // bit-exact
}

TEST(CheckpointFile, RejectsResumeUnderOtherKernelSet) {
  sim::ExperimentConfig cfg;
  cfg.dataset = sim::DatasetKind::sentiment_like;
  cfg.n_clients = 8;
  cfg.samples_per_client = 30;
  cfg.rounds = 4;
  cfg.sample_prob = 0.5;
  cfg.attack = sim::AttackKind::none;
  cfg.kernels = kernels::KernelKind::blocked;

  const TempFile file("ckpt_kernel_mismatch.bin");
  sim::RunOptions save;
  save.checkpoint_save_path = file.path();
  save.checkpoint_round = 2;
  (void)sim::run_experiment(cfg, save);

  sim::RunOptions resume;
  resume.checkpoint_load_path = file.path();
  cfg.kernels = kernels::KernelKind::naive;
  EXPECT_THROW(sim::run_experiment(cfg, resume), std::invalid_argument);
  cfg.kernels = kernels::KernelKind::blocked;
  (void)sim::run_experiment(cfg, resume);  // same set resumes fine
}

// Run the experiment three ways and demand bit identity.
void expect_resume_bit_exact(sim::ExperimentConfig cfg,
                             const std::string& tag) {
  SCOPED_TRACE(tag);
  const TempFile file("ckpt_" + tag + ".bin");
  const std::size_t half = cfg.rounds / 2;

  const sim::ExperimentResult straight = sim::run_experiment(cfg);

  sim::RunOptions first;
  first.checkpoint_save_path = file.path();
  first.checkpoint_round = half;
  const sim::ExperimentResult partial = sim::run_experiment(cfg, first);
  EXPECT_EQ(partial.rounds.size(), half);

  sim::RunOptions second;
  second.checkpoint_load_path = file.path();
  const sim::ExperimentResult resumed = sim::run_experiment(cfg, second);

  ASSERT_EQ(resumed.final_global.size(), straight.final_global.size());
  EXPECT_EQ(resumed.final_global, straight.final_global);  // bit-exact
  ASSERT_EQ(resumed.final_evals.size(), straight.final_evals.size());
  for (std::size_t i = 0; i < straight.final_evals.size(); ++i) {
    EXPECT_EQ(resumed.final_evals[i].benign_ac,
              straight.final_evals[i].benign_ac);
    EXPECT_EQ(resumed.final_evals[i].attack_sr,
              straight.final_evals[i].attack_sr);
  }
  EXPECT_EQ(resumed.rounds.size(), cfg.rounds - half);
}

sim::ExperimentConfig small_config() {
  sim::ExperimentConfig cfg;
  cfg.dataset = sim::DatasetKind::sentiment_like;
  cfg.n_clients = 10;
  cfg.samples_per_client = 40;
  cfg.rounds = 16;
  cfg.sample_prob = 0.5;
  cfg.attack = sim::AttackKind::none;
  cfg.seed = 77;
  return cfg;
}

TEST(CheckpointResume, BitExactFedAvgBenign) {
  expect_resume_bit_exact(small_config(), "fedavg_benign");
}

TEST(CheckpointResume, BitExactCollaPoisAcrossArming) {
  sim::ExperimentConfig cfg = small_config();
  cfg.attack = sim::AttackKind::collapois;
  cfg.compromised_fraction = 0.2;
  // Checkpoint at rounds/2 = 8, after the round-6 arming: X must survive
  // the resume without retraining.
  cfg.attack_start_round = 6;
  expect_resume_bit_exact(cfg, "collapois_armed");
  // And before arming: the resumed run trains X itself.
  cfg.attack_start_round = 12;
  expect_resume_bit_exact(cfg, "collapois_unarmed");
}

TEST(CheckpointResume, BitExactFedDcDriftState) {
  sim::ExperimentConfig cfg = small_config();
  cfg.algorithm = sim::AlgorithmKind::feddc;
  expect_resume_bit_exact(cfg, "feddc");
}

TEST(CheckpointResume, BitExactUnderNoiseDefense) {
  sim::ExperimentConfig cfg = small_config();
  cfg.attack = sim::AttackKind::collapois;
  cfg.compromised_fraction = 0.2;
  cfg.attack_start_round = 4;
  cfg.defense = defense::DefenseKind::norm_bound;
  expect_resume_bit_exact(cfg, "normbound_noise");
}

TEST(CheckpointResume, BitExactUnderFaultInjection) {
  sim::ExperimentConfig cfg = small_config();
  cfg.faults.dropout_prob = 0.2;
  cfg.faults.straggler_prob = 0.2;
  cfg.faults.corrupt_prob = 0.1;
  expect_resume_bit_exact(cfg, "faults");
}

TEST(CheckpointResume, RejectsMismatchedConfig) {
  sim::ExperimentConfig cfg = small_config();
  const TempFile file("ckpt_mismatch.bin");
  sim::RunOptions save;
  save.checkpoint_save_path = file.path();
  save.checkpoint_round = 4;
  sim::run_experiment(cfg, save);

  sim::RunOptions load;
  load.checkpoint_load_path = file.path();
  sim::ExperimentConfig other = cfg;
  other.seed += 1;
  EXPECT_THROW(sim::run_experiment(other, load), std::invalid_argument);
}

// --- server sampling edge cases -----------------------------------------

namespace flns = collapois::fl;

class TinyClient : public flns::Client {
 public:
  explicit TinyClient(std::size_t id) : id_(id) {}
  std::size_t id() const override { return id_; }
  flns::ClientUpdate compute_update(const flns::RoundContext&) override {
    flns::ClientUpdate u;
    u.client_id = id_;
    u.delta = {0.1f};
    return u;
  }
  void distill_round(nn::Model&, nn::Model&) override {}

 private:
  std::size_t id_;
};

TEST(ServerSampling, FullParticipationAtProbabilityOne) {
  std::vector<std::unique_ptr<flns::Client>> owned;
  std::vector<flns::Client*> raw;
  for (std::size_t i = 0; i < 8; ++i) {
    owned.push_back(std::make_unique<TinyClient>(i));
    raw.push_back(owned.back().get());
  }
  flns::Server server({0.f}, std::make_unique<flns::FedAvgAggregator>(),
                      flns::ServerConfig{.learning_rate = 1.0,
                                         .sample_prob = 1.0},
                      stats::Rng(1));
  for (int round = 0; round < 3; ++round) {
    const flns::RoundTelemetry t = server.run_round(raw);
    ASSERT_EQ(t.sampled_ids.size(), 8u);
    for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(t.sampled_ids[i], i);
  }
}

TEST(ServerSampling, EmptyCohortFallsBackToOneUniformClient) {
  std::vector<std::unique_ptr<flns::Client>> owned;
  std::vector<flns::Client*> raw;
  for (std::size_t i = 0; i < 8; ++i) {
    owned.push_back(std::make_unique<TinyClient>(i));
    raw.push_back(owned.back().get());
  }
  flns::Server server({0.f}, std::make_unique<flns::FedAvgAggregator>(),
                      flns::ServerConfig{.learning_rate = 1.0,
                                         .sample_prob = 1e-12},
                      stats::Rng(2));
  for (int round = 0; round < 20; ++round) {
    const flns::RoundTelemetry t = server.run_round(raw);
    EXPECT_EQ(t.sampled_ids.size(), 1u);
    EXPECT_FALSE(t.aggregate_skipped);
  }
}

}  // namespace
}  // namespace collapois
