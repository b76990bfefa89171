// Tests for the reporting layer and a few runner-level behavioural
// regressions that only need tiny federations.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "sim/report.h"
#include "sim/runner.h"

namespace collapois::sim {
namespace {

TEST(Report, ClusterTableRendersAllColumns) {
  metrics::ClusterResult c;
  c.name = "top-1%";
  c.client_indices = {3, 7};
  c.mean_benign_ac = 0.875;
  c.mean_attack_sr = 0.5;
  c.label_cosine = 0.9;
  std::ostringstream os;
  print_clusters(os, "clusters", {c});
  const std::string s = os.str();
  EXPECT_NE(s.find("top-1%"), std::string::npos);
  EXPECT_NE(s.find("0.8750"), std::string::npos);
  EXPECT_NE(s.find("0.9000"), std::string::npos);
  EXPECT_NE(s.find("2"), std::string::npos);  // client count
}

TEST(Report, RoundTableHandlesMissingPopulation) {
  RoundRecord with_pop;
  with_pop.round = 3;
  metrics::PopulationMetrics m;
  m.benign_ac = 0.5;
  m.attack_sr = 0.25;
  with_pop.population = m;
  with_pop.distance_to_x = 1.5;
  RoundRecord without_pop;
  without_pop.round = 4;

  std::ostringstream os;
  print_rounds(os, "rounds", {with_pop, without_pop});
  const std::string s = os.str();
  EXPECT_NE(s.find("0.5000"), std::string::npos);
  EXPECT_NE(s.find("1.5000"), std::string::npos);
  // The round without metrics renders placeholders, not garbage.
  EXPECT_NE(s.find("-"), std::string::npos);
}

TEST(Report, CsvEscapesNothingButIsWellFormed) {
  std::ostringstream os;
  write_series_csv(os, {{"a", 1.0, 0.0}, {"b", 0.5, 0.25}});
  EXPECT_EQ(os.str(),
            "series,benign_ac,attack_sr\na,1,0\nb,0.5,0.25\n");
}

TEST(Report, RoundsJsonCarriesTheAngleSummary) {
  RoundRecord r;
  r.round = 2;
  r.angles.benign_pairwise_mean = 1.5;
  r.angles.benign_pairwise_std = 0.25;
  // A diverged run: non-finite angles must serialize as null.
  r.angles.malicious_pairwise_mean = std::nan("");
  r.angles.malicious_pairwise_std = std::numeric_limits<double>::infinity();
  r.angles.n_benign = 7;
  r.angles.n_malicious = 3;
  std::ostringstream os;
  write_rounds_json(os, ExperimentConfig{}, {r, RoundRecord{}});
  const std::string s = os.str();
  EXPECT_NE(s.find("\"angles\": {\"benign_mean\": 1.5, \"benign_std\": 0.25, "
                   "\"malicious_mean\": null, \"malicious_std\": null, "
                   "\"n_benign\": 7, \"n_malicious\": 3}"),
            std::string::npos)
      << s;
  // The block is there on every round, also when nothing was measured.
  EXPECT_NE(s.find("\"angles\": {\"benign_mean\": 0, \"benign_std\": 0, "
                   "\"malicious_mean\": 0, \"malicious_std\": 0, "
                   "\"n_benign\": 0, \"n_malicious\": 0}"),
            std::string::npos)
      << s;
}

TEST(Report, ExperimentTagContainsEveryAxis) {
  ExperimentConfig cfg;
  cfg.dataset = DatasetKind::femnist_like;
  cfg.algorithm = AlgorithmKind::feddc;
  cfg.attack = AttackKind::mrepl;
  cfg.defense = defense::DefenseKind::krum;
  cfg.alpha = 0.25;
  const std::string tag = experiment_tag(cfg);
  EXPECT_NE(tag.find("femnist"), std::string::npos);
  EXPECT_NE(tag.find("feddc"), std::string::npos);
  EXPECT_NE(tag.find("mrepl"), std::string::npos);
  EXPECT_NE(tag.find("krum"), std::string::npos);
  EXPECT_NE(tag.find("0.25"), std::string::npos);
}

// --------------------------------------------------------- runner regressions

ExperimentConfig micro() {
  ExperimentConfig cfg;
  cfg.dataset = DatasetKind::sentiment_like;
  cfg.n_clients = 10;
  cfg.samples_per_client = 40;
  cfg.compromised_fraction = 0.2;
  cfg.sample_prob = 0.4;
  cfg.rounds = 10;
  cfg.attack_start_round = 3;
  cfg.seed = 21;
  return cfg;
}

TEST(Runner, StrikeAfterHorizonMeansNoPoisoning) {
  // Attack start beyond the round budget: compromised clients stay
  // dormant the whole campaign, so no Trojaned model exists and the
  // outcome matches the benign baseline.
  ExperimentConfig cfg = micro();
  cfg.attack = AttackKind::collapois;
  cfg.attack_start_round = 1000;
  const ExperimentResult r = run_experiment(cfg);
  EXPECT_TRUE(r.trojaned_model.empty());

  ExperimentConfig clean = micro();
  clean.attack = AttackKind::none;
  const ExperimentResult base = run_experiment(clean);
  EXPECT_NEAR(r.population.benign_ac, base.population.benign_ac, 0.15);
}

TEST(Runner, StrikeAtRoundZeroWorks) {
  ExperimentConfig cfg = micro();
  cfg.attack = AttackKind::collapois;
  cfg.attack_start_round = 0;
  const ExperimentResult r = run_experiment(cfg);
  EXPECT_FALSE(r.trojaned_model.empty());
  // The distance telemetry exists from the first round.
  EXPECT_GT(r.rounds.front().distance_to_x, 0.0);
}

TEST(Runner, AuxValidationOnlyModeRespected) {
  ExperimentConfig cfg = micro();
  cfg.attack = AttackKind::collapois;
  cfg.aux_validation_only = true;
  const ExperimentResult r = run_experiment(cfg);
  // Validation split is 15% of 40 = 6 samples per compromised client
  // (2 clients at this scale): the auxiliary histogram mass must match.
  double mass = 0.0;
  for (double v : r.auxiliary_histogram) mass += v;
  EXPECT_NEAR(mass, 6.0 * static_cast<double>(r.compromised_ids.size()),
              1e-9);

  ExperimentConfig full = micro();
  full.attack = AttackKind::collapois;
  full.aux_validation_only = false;
  const ExperimentResult rf = run_experiment(full);
  double full_mass = 0.0;
  for (double v : rf.auxiliary_histogram) full_mass += v;
  EXPECT_GT(full_mass, mass);
}

TEST(Runner, CompromisedCountRounding) {
  ExperimentConfig cfg = micro();
  cfg.attack = AttackKind::collapois;
  cfg.compromised_fraction = 0.001;  // rounds to 0 -> clamped to 1
  const ExperimentResult r = run_experiment(cfg);
  EXPECT_EQ(r.compromised_ids.size(), 1u);
  cfg.compromised_fraction = 1.0;  // everyone compromised
  ExperimentConfig all = cfg;
  all.rounds = 4;
  const ExperimentResult ra = run_experiment(all);
  EXPECT_EQ(ra.compromised_ids.size(), all.n_clients);
}

}  // namespace
}  // namespace collapois::sim
