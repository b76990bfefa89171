// Integration tests: the full experiment pipeline at miniature scale,
// across every (algorithm x attack x defense-representative) combination,
// checking structural invariants and the headline behaviours (backdoor
// takes hold without defense; reports are well-formed).
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "sim/report.h"
#include "sim/runner.h"

namespace collapois::sim {
namespace {

ExperimentConfig tiny_config() {
  ExperimentConfig cfg;
  cfg.dataset = DatasetKind::sentiment_like;  // cheapest substrate
  cfg.n_clients = 12;
  cfg.samples_per_client = 40;
  cfg.alpha = 1.0;
  cfg.compromised_fraction = 0.2;  // 2-3 clients at this scale
  cfg.sample_prob = 0.4;
  cfg.rounds = 12;
  cfg.attack_start_round = 4;
  cfg.seed = 77;
  return cfg;
}

void check_invariants(const ExperimentConfig& cfg,
                      const ExperimentResult& r) {
  EXPECT_EQ(r.final_evals.size(), cfg.n_clients);
  EXPECT_EQ(r.rounds.size(), cfg.rounds);
  for (const auto& e : r.final_evals) {
    EXPECT_GE(e.benign_ac, 0.0);
    EXPECT_LE(e.benign_ac, 1.0);
    EXPECT_GE(e.attack_sr, 0.0);
    EXPECT_LE(e.attack_sr, 1.0);
  }
  if (cfg.attack != AttackKind::none) {
    EXPECT_FALSE(r.compromised_ids.empty());
    std::set<std::size_t> uniq(r.compromised_ids.begin(),
                               r.compromised_ids.end());
    EXPECT_EQ(uniq.size(), r.compromised_ids.size());
    EXPECT_FALSE(r.auxiliary_histogram.empty());
  } else {
    EXPECT_TRUE(r.compromised_ids.empty());
  }
  // Clusters partition the benign-with-data population.
  std::set<std::size_t> seen;
  for (const auto& c : r.clusters) {
    for (std::size_t idx : c.client_indices) {
      EXPECT_TRUE(seen.insert(idx).second);
    }
  }
}

class AttackSweep : public ::testing::TestWithParam<AttackKind> {};

TEST_P(AttackSweep, FedAvgPipelineInvariants) {
  ExperimentConfig cfg = tiny_config();
  cfg.attack = GetParam();
  const ExperimentResult r = run_experiment(cfg);
  check_invariants(cfg, r);
}

INSTANTIATE_TEST_SUITE_P(Attacks, AttackSweep,
                         ::testing::Values(AttackKind::none,
                                           AttackKind::collapois,
                                           AttackKind::dpois,
                                           AttackKind::mrepl,
                                           AttackKind::dba));

class AlgorithmSweep : public ::testing::TestWithParam<AlgorithmKind> {};

TEST_P(AlgorithmSweep, CollaPoisRunsOnEveryAlgorithm) {
  ExperimentConfig cfg = tiny_config();
  cfg.algorithm = GetParam();
  cfg.attack = AttackKind::collapois;
  const ExperimentResult r = run_experiment(cfg);
  check_invariants(cfg, r);
  EXPECT_FALSE(r.trojaned_model.empty());
}

INSTANTIATE_TEST_SUITE_P(Algorithms, AlgorithmSweep,
                         ::testing::Values(AlgorithmKind::fedavg,
                                           AlgorithmKind::feddc,
                                           AlgorithmKind::metafed));

class DefenseSweep : public ::testing::TestWithParam<defense::DefenseKind> {};

TEST_P(DefenseSweep, CollaPoisUnderEveryDefense) {
  ExperimentConfig cfg = tiny_config();
  cfg.attack = AttackKind::collapois;
  cfg.defense = GetParam();
  const ExperimentResult r = run_experiment(cfg);
  check_invariants(cfg, r);
}

INSTANTIATE_TEST_SUITE_P(
    Defenses, DefenseSweep,
    ::testing::Values(defense::DefenseKind::none, defense::DefenseKind::dp,
                      defense::DefenseKind::norm_bound,
                      defense::DefenseKind::krum,
                      defense::DefenseKind::multi_krum,
                      defense::DefenseKind::coord_median,
                      defense::DefenseKind::trimmed_mean,
                      defense::DefenseKind::rlr,
                      defense::DefenseKind::sign_sgd));

TEST(SimIntegration, CollaPoisBeatsNoAttackBaseline) {
  ExperimentConfig cfg = tiny_config();
  cfg.attack = AttackKind::none;
  const double base_sr = run_experiment(cfg).population.attack_sr;
  cfg.attack = AttackKind::collapois;
  const ExperimentResult attacked = run_experiment(cfg);
  EXPECT_GT(attacked.population.attack_sr, base_sr);
  // Stealthiness: clean accuracy does not collapse.
  EXPECT_GT(attacked.population.benign_ac, 0.6);
}

TEST(SimIntegration, ImageSubstrateEndToEnd) {
  ExperimentConfig cfg = tiny_config();
  cfg.dataset = DatasetKind::femnist_like;
  cfg.attack = AttackKind::collapois;
  cfg.rounds = 10;
  const ExperimentResult r = run_experiment(cfg);
  check_invariants(cfg, r);
}

TEST(SimIntegration, DistanceToXShrinksAfterStrike) {
  ExperimentConfig cfg = tiny_config();
  cfg.attack = AttackKind::collapois;
  cfg.rounds = 25;
  const ExperimentResult r = run_experiment(cfg);
  double at_strike = 0.0;
  for (const auto& rec : r.rounds) {
    if (rec.distance_to_x > 0.0) {
      at_strike = rec.distance_to_x;
      break;
    }
  }
  ASSERT_GT(at_strike, 0.0);
  EXPECT_LT(r.rounds.back().distance_to_x, at_strike);
}

TEST(SimIntegration, PeriodicEvalPopulatesRecords) {
  ExperimentConfig cfg = tiny_config();
  cfg.eval_every = 4;
  cfg.eval_max_clients = 4;
  const ExperimentResult r = run_experiment(cfg);
  int populated = 0;
  for (const auto& rec : r.rounds) {
    if (rec.population.has_value()) ++populated;
  }
  EXPECT_EQ(populated, static_cast<int>(cfg.rounds / cfg.eval_every));
}

TEST(SimIntegration, TelemetryRetention) {
  ExperimentConfig cfg = tiny_config();
  RunOptions opt;
  opt.keep_telemetry = true;
  const ExperimentResult r = run_experiment(cfg, opt);
  EXPECT_EQ(r.telemetry.size(), cfg.rounds);
  const ExperimentResult r2 = run_experiment(cfg);
  EXPECT_TRUE(r2.telemetry.empty());
}

TEST(SimIntegration, DeterministicAcrossRuns) {
  ExperimentConfig cfg = tiny_config();
  cfg.attack = AttackKind::collapois;
  const ExperimentResult a = run_experiment(cfg);
  const ExperimentResult b = run_experiment(cfg);
  EXPECT_EQ(a.population.benign_ac, b.population.benign_ac);
  EXPECT_EQ(a.population.attack_sr, b.population.attack_sr);
  EXPECT_EQ(a.compromised_ids, b.compromised_ids);
}

TEST(SimIntegration, SeedChangesOutcome) {
  ExperimentConfig cfg = tiny_config();
  cfg.attack = AttackKind::collapois;
  const ExperimentResult a = run_experiment(cfg);
  cfg.seed = 78;
  const ExperimentResult b = run_experiment(cfg);
  EXPECT_NE(a.population.benign_ac, b.population.benign_ac);
}

TEST(SimIntegration, MetaFedRejectsAggregationDefenses) {
  ExperimentConfig cfg = tiny_config();
  cfg.algorithm = AlgorithmKind::metafed;
  cfg.defense = defense::DefenseKind::krum;
  EXPECT_THROW(run_experiment(cfg), std::invalid_argument);
  cfg.defense = defense::DefenseKind::rlr;
  EXPECT_THROW(run_experiment(cfg), std::invalid_argument);
  // DP and NormBound compose (via the knowledge-transfer analogue).
  cfg.defense = defense::DefenseKind::dp;
  EXPECT_NO_THROW(run_experiment(cfg));
}

// Every combination of the simulator's planes, at tiny scale, either runs
// with cohort == accepted + dropped + rejected on every round, or is
// refused before round 0 ends with a message that names a --flag.
// sim::validate refuses exactly the cells run_experiment refuses.
TEST(ConfigSweep, EveryKnobCombinationRunsOrIsRejectedBeforeRoundZero) {
  using defense::DefenseKind;
  const AlgorithmKind algorithms[] = {AlgorithmKind::fedavg,
                                      AlgorithmKind::feddc,
                                      AlgorithmKind::metafed};
  const AttackKind attacks[] = {AttackKind::none, AttackKind::collapois,
                                AttackKind::dba};
  const DefenseKind defenses[] = {DefenseKind::none, DefenseKind::dp,
                                  DefenseKind::krum, DefenseKind::coord_median,
                                  DefenseKind::ditto};
  constexpr std::size_t kCells = 3 * 3 * 5 * 2 * 2 * 2 * 2 * 2 * 2 * 2;

  std::size_t completed = 0;
  std::size_t rejected = 0;
  std::set<std::string> messages;
  for (std::size_t cell = 0; cell < kCells; ++cell) {
    std::size_t digits = cell;
    auto pick = [&](std::size_t radix) {
      const std::size_t d = digits % radix;
      digits /= radix;
      return d;
    };
    ExperimentConfig cfg;
    cfg.dataset = DatasetKind::sentiment_like;
    cfg.n_clients = 16;
    cfg.samples_per_client = 10;
    cfg.sample_prob = 0.5;
    cfg.rounds = 4;
    cfg.attack_start_round = 1;
    cfg.threads = 1;
    cfg.algorithm = algorithms[pick(3)];
    cfg.attack = attacks[pick(3)];
    cfg.defense = defenses[pick(5)];
    if (pick(2) == 1) {
      cfg.round_engine = fl::RoundEngineKind::buffered_async;
      cfg.async.k = 3;
      cfg.async.max_staleness = 2;
    }
    cfg.shards = 1 + pick(2);
    if (pick(2) == 1) {
      cfg.lazy_clients = true;
      cfg.eval_max_clients = 4;
    }
    if (pick(2) == 1) {
      cfg.net.enabled = true;
      cfg.net.loss_prob = 0.1;
      if (cfg.round_engine == fl::RoundEngineKind::sync) {
        cfg.net.deadline_ms = 45.0;
        cfg.net.over_sample = 0.25;
      }
    }
    if (pick(2) == 1) cfg.codec.kind = net::CodecKind::int8;
    if (pick(2) == 1) {
      cfg.faults.dropout_prob = 0.1;
      cfg.faults.straggler_prob = 0.1;
      cfg.faults.corrupt_prob = 0.1;
    }
    if (pick(2) == 1) cfg.shard_faults.crash_prob = 0.2;
    auto describe = [&] {
      std::ostringstream os;
      os << "cell " << cell << ": " << experiment_tag(cfg) << " engine="
         << fl::round_engine_name(cfg.round_engine)
         << " shards=" << cfg.shards << " lazy=" << cfg.lazy_clients
         << " net=" << cfg.net.enabled
         << " codec=" << net::codec_kind_name(cfg.codec.kind)
         << " faults=" << cfg.faults.any()
         << " shard_faults=" << cfg.shard_faults.any();
      return os.str();
    };

    bool validate_rejects = false;
    try {
      validate(cfg);
    } catch (const std::invalid_argument&) {
      validate_rejects = true;
    }
    try {
      const ExperimentResult r = run_experiment(cfg);
      ++completed;
      EXPECT_FALSE(validate_rejects) << describe();
      for (const RoundRecord& rec : r.rounds) {
        EXPECT_EQ(rec.cohort_size,
                  rec.n_accepted + rec.n_dropped + rec.n_rejected)
            << describe() << ", round " << rec.round;
      }
    } catch (const std::invalid_argument& e) {
      ++rejected;
      const std::string what = e.what();
      messages.insert(what);
      EXPECT_NE(what.find("--"), std::string::npos)
          << describe() << ": " << what;
      EXPECT_TRUE(validate_rejects) << describe() << ": " << what;
      // Before round 0 ends: with a crash scheduled at the end of round 0
      // the config still fails the same way instead of crashing.
      RunOptions crash;
      crash.crash_round = 0;
      try {
        (void)run_experiment(cfg, crash);
        ADD_FAILURE() << describe() << ": ran under a scheduled crash";
      } catch (const std::invalid_argument& again) {
        EXPECT_EQ(std::string(again.what()), what) << describe();
      } catch (const std::exception& other) {
        ADD_FAILURE() << describe() << ": rejected after round 0 ("
                      << other.what() << ")";
      }
    } catch (const std::exception& e) {
      ADD_FAILURE() << describe() << ": threw " << e.what();
    }
  }
  EXPECT_EQ(completed + rejected, kCells);
  EXPECT_GT(completed, 0u);
  RecordProperty("completed", static_cast<int>(completed));
  RecordProperty("rejected", static_cast<int>(rejected));
  RecordProperty("distinct_messages", static_cast<int>(messages.size()));
}

// Library callers reach the gate without the CLI's parse-site range
// checks: an out-of-range q must be refused, not converted to a cohort
// size (a NaN or huge double cast to an integer is undefined).
TEST(ConfigSweep, ValidateRefusesOutOfRangeSampleProb) {
  ExperimentConfig cfg = tiny_config();
  cfg.shards = 2;
  for (double q : {std::nan(""), 1e300, 1.5, 0.0, -0.5}) {
    cfg.sample_prob = q;
    try {
      validate(cfg);
      ADD_FAILURE() << "q = " << q << " passed the gate";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--q"), std::string::npos);
    }
  }
}

TEST(SimIntegration, ConfigParsersRoundTrip) {
  EXPECT_EQ(parse_dataset(dataset_name(DatasetKind::femnist_like)),
            DatasetKind::femnist_like);
  EXPECT_EQ(parse_algorithm(algorithm_name(AlgorithmKind::metafed)),
            AlgorithmKind::metafed);
  EXPECT_EQ(parse_attack(attack_name(AttackKind::dba)), AttackKind::dba);
  EXPECT_THROW(parse_dataset("x"), std::invalid_argument);
  EXPECT_THROW(parse_algorithm("x"), std::invalid_argument);
  EXPECT_THROW(parse_attack("x"), std::invalid_argument);
  EXPECT_THROW(run_experiment([] {
    ExperimentConfig c = tiny_config();
    c.rounds = 0;
    return c;
  }()), std::invalid_argument);
}

TEST(SimIntegration, ReportRendering) {
  std::ostringstream os;
  print_series(os, "demo", {{"row-a", 0.91, 0.55}, {"row-b", 0.80, 0.10}});
  const std::string s = os.str();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("row-a"), std::string::npos);
  EXPECT_NE(s.find("0.9100"), std::string::npos);

  std::ostringstream csv;
  write_series_csv(csv, {{"r", 0.5, 0.25}});
  EXPECT_EQ(csv.str(), "series,benign_ac,attack_sr\nr,0.5,0.25\n");

  ExperimentConfig cfg = tiny_config();
  const std::string tag = experiment_tag(cfg);
  EXPECT_NE(tag.find("sentiment"), std::string::npos);
  EXPECT_NE(tag.find("collapois"), std::string::npos);
}

}  // namespace
}  // namespace collapois::sim
