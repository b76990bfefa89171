// The paper's evaluation in one binary: every figure, Table I, Section V's
// statistical bypass tests, the inference-time detectors, the design
// ablation, the seed variance and the fault-tolerance table.
//
//   bench_paper [NAME...]
//
// Each NAME (fig01, fig03 ... fig16, fig25, table1, bypass, inference,
// ablation, variance, faults) prints that figure's table; with no NAME
// every figure runs, in EXPERIMENTS.md's order. An unknown NAME exits 2.
// A figure whose verdict is checked (Fig. 7's Theorem 2 bound) makes the
// run exit 1 when the verdict breaks, after every requested table has
// printed.
//
// COLLAPOIS_SCALE=k (k = 1, 2, 3, ...) multiplies clients and rounds for
// higher-fidelity runs; defaults are sized for a 1-core CI box.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/stealth.h"
#include "core/theory.h"
#include "core/trojan_trainer.h"
#include "data/partition.h"
#include "data/synthetic_image.h"
#include "defense/detector.h"
#include "defense/inference_detect.h"
#include "defense/registry.h"
#include "metrics/telemetry.h"
#include "nn/eval.h"
#include "nn/zoo.h"
#include "sim/report.h"
#include "stats/geometry.h"
#include "stats/summary.h"
#include "trojan/patch_trigger.h"
#include "trojan/poison.h"
#include "trojan/warp_trigger.h"

namespace {

using namespace collapois;

constexpr sim::AlgorithmKind kAlgorithms[] = {sim::AlgorithmKind::fedavg,
                                              sim::AlgorithmKind::feddc,
                                              sim::AlgorithmKind::metafed};

// One labelled campaign of a figure's grid.
struct Campaign {
  std::string label;
  sim::ExperimentConfig cfg;
};

// The (label -> Benign AC, Attack SR) table of Figs. 1, 8/15, 9/16 and
// the ablation, one campaign per row in grid order.
void print_series_grid(const std::string& title,
                       const std::vector<Campaign>& grid) {
  std::vector<sim::SeriesRow> rows;
  for (const auto& [label, cfg] : grid) {
    const sim::ExperimentResult r = sim::run_experiment(cfg);
    rows.push_back({label, r.population.benign_ac, r.population.attack_sr});
  }
  sim::print_series(std::cout, title, rows);
}

// Figs. 10/25: the population's Attack SR beside its top-1% / 25% / 50%
// infected clients (Eq. 8 ranking).
void print_topk_grid(const std::string& title, int label_width,
                     const std::vector<Campaign>& grid,
                     const std::string& shape) {
  struct Row {
    std::string label;
    double all_sr;
    double top1_sr;
    double top25_sr;
    double top50_sr;
    double benign_ac;
  };
  std::vector<Row> rows;
  for (const auto& [label, cfg] : grid) {
    const sim::ExperimentResult r = sim::run_experiment(cfg);
    rows.push_back({label, r.population.attack_sr,
                    metrics::average_top_k(r.final_evals, 1).attack_sr,
                    metrics::average_top_k(r.final_evals, 25).attack_sr,
                    metrics::average_top_k(r.final_evals, 50).attack_sr,
                    r.population.benign_ac});
  }
  std::cout << "== " << title << " ==\n";
  std::cout << std::left << std::setw(label_width) << "series" << std::right
            << std::setw(10) << "benign_ac" << std::setw(9) << "all_sr"
            << std::setw(9) << "top1" << std::setw(9) << "top25"
            << std::setw(9) << "top50" << "\n";
  for (const auto& r : rows) {
    std::cout << std::left << std::setw(label_width) << r.label << std::right
              << std::fixed << std::setprecision(3) << std::setw(10)
              << r.benign_ac << std::setw(9) << r.all_sr << std::setw(9)
              << r.top1_sr << std::setw(9) << r.top25_sr << std::setw(9)
              << r.top50_sr << "\n";
    std::cout.unsetf(std::ios::fixed);
  }
  std::cout << shape << "\n";
}

// Fig. 1 — Motivation: existing DPois and MRepl attacks show only modest
// changes between 0.1% and 1% compromised clients across non-IID levels
// (alpha in [0.01, 100]) on the Sentiment dataset.
bool fig01() {
  std::vector<Campaign> grid;
  for (sim::AttackKind attack :
       {sim::AttackKind::dpois, sim::AttackKind::mrepl}) {
    for (const char* level : {"0.1%", "1%"}) {
      for (double alpha : {0.01, 0.1, 1.0, 10.0, 100.0}) {
        sim::ExperimentConfig cfg =
            bench::base_config(sim::DatasetKind::sentiment_like);
        cfg.attack = attack;
        cfg.compromised_fraction = bench::paper_fraction(level);
        cfg.alpha = alpha;
        grid.push_back({std::string(sim::attack_name(attack)) + " c=" +
                            level + " a=" + std::to_string(alpha),
                        cfg});
      }
    }
  }
  print_series_grid("Fig. 1 — DPois/MRepl Attack SR vs alpha (Sentiment)",
                    grid);
  return true;
}

// Fig. 3 — Average angles among client gradients as a function of alpha
// (FEMNIST): (a) benign clients scatter more as alpha shrinks while
// CollaPois compromised clients stay tightly aligned; (b) DPois
// compromised clients scatter like benign ones.
bool fig03() {
  struct Row {
    double alpha;
    const char* attack;
    double benign_mean;
    double benign_std;
    double malicious_mean;
    double malicious_std;
  };
  std::vector<Row> rows;
  for (sim::AttackKind attack :
       {sim::AttackKind::collapois, sim::AttackKind::dpois}) {
    for (double alpha : {0.01, 1.0, 100.0}) {
      sim::ExperimentConfig cfg =
          bench::base_config(sim::DatasetKind::femnist_like);
      cfg.attack = attack;
      cfg.alpha = alpha;
      cfg.compromised_fraction = bench::paper_fraction("1%");
      // Angle statistics only need the early/mid campaign; shorten the
      // run and raise the participation rate so rounds contain enough
      // updates for pairwise angles.
      cfg.rounds = 60 * bench::scale();
      cfg.sample_prob = 0.15;
      sim::RunOptions opt;
      opt.keep_telemetry = true;
      const sim::ExperimentResult r = sim::run_experiment(cfg, opt);
      metrics::AngleAccumulator acc;
      for (const auto& t : r.telemetry) acc.add(t);
      rows.push_back({alpha, sim::attack_name(attack), acc.benign().mean(),
                      acc.benign().stddev(), acc.malicious().mean(),
                      acc.malicious().stddev()});
    }
  }

  std::cout << "== Fig. 3 — pairwise gradient angles (radians) vs alpha "
               "(FEMNIST-like) ==\n";
  std::cout << std::left << std::setw(12) << "attack" << std::right
            << std::setw(8) << "alpha" << std::setw(14) << "benign_mean"
            << std::setw(12) << "benign_sd" << std::setw(14) << "mal_mean"
            << std::setw(12) << "mal_sd" << "\n";
  for (const auto& r : rows) {
    std::cout << std::left << std::setw(12) << r.attack << std::right
              << std::setw(8) << r.alpha << std::fixed << std::setprecision(4)
              << std::setw(14) << r.benign_mean << std::setw(12)
              << r.benign_std << std::setw(14) << r.malicious_mean
              << std::setw(12) << r.malicious_std << "\n";
    std::cout.unsetf(std::ios::fixed);
  }
  std::cout << "(expected shape: benign angles grow as alpha -> 0; CollaPois "
               "malicious angles stay near 0; DPois malicious angles track "
               "the benign scatter)\n";
  return true;
}

// Fig. 4 — Relative approximation error of the Theorem 1 lower bound on
// |C| as a function of alpha (FEMNIST). The "exact" bound uses the angle
// statistics of all benign clients' gradients against the malicious
// direction; the attacker's estimate uses only data held by compromised
// clients (partitioned into pseudo-clients with the same skew), exactly
// as the threat model allows. The paper reports marginal errors
// (2.23% at alpha = 0.01 down to 0.57% at alpha = 100).
struct BoundErrorRow {
  double alpha;
  double exact_fraction;
  double estimated_fraction;
  double relative_error;
  double hoeffding_eps;
};

BoundErrorRow bound_error(double alpha) {
  stats::Rng rng(42);
  data::SyntheticImageGenerator gen({}, 7);
  const std::size_t n = 60 * bench::scale();
  data::FederatedData fed = data::build_federation(gen, n, 80, alpha, rng);

  nn::Model arch = nn::make_lenet_small({});
  arch.init(rng);
  const tensor::FlatVec theta = arch.get_parameters();

  // Compromised subset and the malicious direction theta - X.
  const std::size_t n_comp = std::max<std::size_t>(6, n / 10);
  const auto comp_ids = rng.sample_without_replacement(n, n_comp);
  std::vector<const data::Dataset*> comp_data;
  for (std::size_t id : comp_ids) comp_data.push_back(&fed.clients[id].train);
  data::Dataset pooled = core::pool_auxiliary_data(comp_data);

  trojan::WarpTrigger trigger({}, 9);
  core::TrojanTrainConfig tcfg;
  tcfg.sgd.epochs = 10;  // direction only; full convergence not needed
  auto trained = core::train_trojaned_model(arch, pooled, trigger, tcfg, rng);
  const tensor::FlatVec direction = tensor::sub(theta, trained.x);

  const nn::SgdConfig one_pass{.learning_rate = 0.05, .batch_size = 16,
                               .epochs = 1};

  // Exact stats: every benign client's gradient vs the direction.
  std::vector<const data::Dataset*> benign_data;
  for (std::size_t i = 0; i < n; ++i) {
    bool comp = false;
    for (std::size_t id : comp_ids) comp |= (id == i);
    if (!comp) benign_data.push_back(&fed.clients[i].train);
  }
  nn::Model scratch = nn::make_lenet_small({});
  std::vector<tensor::FlatVec> benign_grads;
  for (int rep = 0; rep < 2; ++rep) {
    auto g = core::sample_background_gradients(benign_data, scratch, theta,
                                               one_pass, rng);
    benign_grads.insert(benign_grads.end(),
                        std::make_move_iterator(g.begin()),
                        std::make_move_iterator(g.end()));
  }
  const auto exact =
      core::theory::estimate_angle_stats(benign_grads, direction);

  // Attacker estimate: pseudo-clients carved out of the compromised pool
  // with the same Dirichlet skew, re-drawn several times to grow the
  // angle sample (the attacker can resample its own data freely).
  std::vector<tensor::FlatVec> est_grads;
  for (int rep = 0; rep < 4; ++rep) {
    const auto pseudo =
        data::partition_dirichlet(pooled, n_comp * 3, alpha, rng);
    std::vector<const data::Dataset*> pseudo_ptrs;
    for (const auto& p : pseudo) {
      if (!p.empty()) pseudo_ptrs.push_back(&p);
    }
    auto g = core::sample_background_gradients(pseudo_ptrs, scratch, theta,
                                               one_pass, rng);
    est_grads.insert(est_grads.end(), std::make_move_iterator(g.begin()),
                     std::make_move_iterator(g.end()));
  }
  const auto est = core::theory::estimate_angle_stats(est_grads, direction);

  // At simulator scale the benign angles sit near pi/2 and the clamped
  // Eq. 5 bound collapses to 0 for both sides; compare the *unclamped*
  // bound values so the estimate's accuracy is visible (the paper's
  // plotted quantity is the relative gap of the estimated bound).
  const double exact_raw =
      core::theory::theorem1_fraction_raw(exact.mu, exact.sigma, 0.9, 1.0);
  const double est_raw =
      core::theory::theorem1_fraction_raw(est.mu, est.sigma, 0.9, 1.0);
  const double rel_err = std::fabs(est_raw - exact_raw) /
                         std::max(std::fabs(exact_raw), 1e-9);
  return {alpha, exact_raw, est_raw, rel_err,
          core::theory::theorem1_hoeffding_halfwidth(est.count, 0.05)};
}

bool fig04() {
  std::vector<BoundErrorRow> rows;
  for (double alpha : {0.01, 0.1, 1.0, 10.0, 100.0}) {
    rows.push_back(bound_error(alpha));
  }
  std::cout << "== Fig. 4 — Theorem 1 bound approximation error vs alpha ==\n";
  std::cout << std::right << std::setw(10) << "alpha" << std::setw(14)
            << "exact_raw" << std::setw(14) << "est_raw" << std::setw(12)
            << "rel_error" << std::setw(16) << "hoeffding_eps" << "\n";
  for (const auto& r : rows) {
    std::cout << std::right << std::setw(10) << r.alpha << std::fixed
              << std::setprecision(4) << std::setw(14) << r.exact_fraction
              << std::setw(14) << r.estimated_fraction << std::setw(12)
              << r.relative_error << std::setw(16) << r.hoeffding_eps << "\n";
    std::cout.unsetf(std::ios::fixed);
  }
  std::cout << "(paper shape: error is marginal at every alpha and largest "
               "at the most diverse alpha = 0.01)\n";
  return true;
}

// Fig. 5 — The Theorem 1 lower bound |C|/|N| as a 3-D surface over
// (mu_alpha, sigma), with psi ~ U[0.9, 1.0]: Eq. 5 in closed form,
// printed as a grid table.
bool fig05() {
  constexpr double kA = 0.9;
  constexpr double kB = 1.0;
  std::cout << "== Fig. 5 — |C|/|N| lower bound over (mu, sigma), psi~U[0.9,1] ==\n";
  std::cout << std::setw(8) << "mu\\sig";
  for (double sigma = 0.0; sigma <= 1.01; sigma += 0.2) {
    std::cout << std::setw(9) << std::setprecision(1) << std::fixed << sigma;
  }
  std::cout << "\n";
  for (double mu = 0.0; mu <= 1.41; mu += 0.2) {
    std::cout << std::setw(8) << std::setprecision(1) << std::fixed << mu;
    for (double sigma = 0.0; sigma <= 1.01; sigma += 0.2) {
      std::cout << std::setw(9) << std::setprecision(4)
                << core::theory::theorem1_fraction(mu, sigma, kA, kB);
    }
    std::cout << "\n";
  }
  std::cout.unsetf(std::ios::fixed);
  std::cout << "(monotone decreasing in both axes: more gradient scatter -> "
               "fewer compromised clients needed)\n";
  return true;
}

// Fig. 6 — Attack stealthiness: with psi ~ U[0.95, 0.99] and a tuned
// clip bound, the angles (and magnitudes) of malicious gradients against
// a sampled-gradient background blend into the benign population.
bool fig06() {
  struct Row {
    const char* series;
    double angle_mean;
    double angle_var;
    double norm_mean;
  };
  sim::ExperimentConfig cfg =
      bench::base_config(sim::DatasetKind::femnist_like);
  cfg.attack = sim::AttackKind::collapois;
  cfg.compromised_fraction = bench::paper_fraction("1%");
  cfg.alpha = 0.1;
  cfg.collapois.psi_a = 0.95;
  cfg.collapois.psi_b = 0.99;
  // Full Section IV-D blending: direction mixed with the clean gradient,
  // magnitude drawn from the clean-gradient distribution.
  cfg.collapois.blend_fraction = 0.3;
  cfg.collapois.mimic_benign_norm = true;
  cfg.rounds = 80 * bench::scale();
  cfg.sample_prob = 0.15;
  sim::RunOptions opt;
  opt.keep_telemetry = true;

  const sim::ExperimentResult r = sim::run_experiment(cfg, opt);
  // Pool every round's updates after the strike; compare malicious and
  // benign features against the benign (background) population.
  std::vector<tensor::FlatVec> benign;
  std::vector<tensor::FlatVec> malicious;
  for (const auto& t : r.telemetry) {
    const auto split = metrics::split_updates(t);
    benign.insert(benign.end(), split.benign.begin(), split.benign.end());
    malicious.insert(malicious.end(), split.malicious.begin(),
                     split.malicious.end());
  }
  std::vector<Row> rows;
  if (benign.size() >= 2 && !malicious.empty()) {
    const core::BlendReport rep = core::measure_blend(benign, malicious);
    rows.push_back({"benign", rep.benign_angle_mean, rep.benign_angle_var,
                    rep.benign_norm_mean});
    rows.push_back({"malicious (psi~U[0.95,0.99], blended)",
                    rep.malicious_angle_mean, rep.malicious_angle_var,
                    rep.malicious_norm_mean});
  }

  std::cout << "== Fig. 6 — angle/magnitude blending of malicious vs benign "
               "gradients ==\n";
  std::cout << std::left << std::setw(40) << "series" << std::right
            << std::setw(12) << "angle_mean" << std::setw(12) << "angle_var"
            << std::setw(12) << "norm_mean" << "\n";
  for (const auto& row : rows) {
    std::cout << std::left << std::setw(40) << row.series << std::right
              << std::fixed << std::setprecision(4) << std::setw(12)
              << row.angle_mean << std::setw(12) << row.angle_var
              << std::setw(12) << row.norm_mean << "\n";
    std::cout.unsetf(std::ios::fixed);
  }
  std::cout << "(paper shape: compromised and benign rows blended — similar "
               "means and variances)\n";
  return true;
}

// Fig. 7 — The server's estimation error ||X' - X|| over training rounds
// under tau-upscaling (tau = 2), for several numbers of compromised
// clients, at full detection precision p = 1 (FEMNIST). Also checks the
// Theorem 2 distance bound on every post-strike round: a violation fails
// the run.
//
// The server's best estimate of X from detected compromised updates is
// X' = theta^t - mean(delta_c) (it cannot divide by the secret psi).
// Hence ||X' - X|| = ||(theta^t - X) - mean(delta_c)||, which is bounded
// below by | ||theta^t - X|| - ||mean(delta_c)|| |; with tau-upscaling the
// update norm never collapses, keeping that floor away from zero.
bool fig07() {
  struct Row {
    std::size_t n_compromised;
    std::size_t round_bucket;  // round / 40
    double estimation_error;
    double distance_to_x;
  };
  std::vector<Row> rows;
  int theorem2_violations = 0;
  for (const char* level : {"0.1%", "0.5%", "1%"}) {
    sim::ExperimentConfig cfg =
        bench::base_config(sim::DatasetKind::femnist_like);
    cfg.attack = sim::AttackKind::collapois;
    cfg.compromised_fraction = bench::paper_fraction(level);
    cfg.alpha = 0.1;
    cfg.collapois.tau = 2.0;  // the tau floor of Theorem 3 / Fig. 7
    cfg.sample_prob = 0.15;
    sim::RunOptions opt;
    opt.keep_telemetry = true;

    const sim::ExperimentResult r = sim::run_experiment(cfg, opt);
    for (std::size_t t = 0; t < r.telemetry.size(); ++t) {
      const auto split = metrics::split_updates(r.telemetry[t]);
      if (split.malicious.empty() || r.rounds[t].distance_to_x <= 0.0) {
        continue;
      }
      const double mean_delta_norm =
          stats::l2_norm(tensor::mean_of(split.malicious));
      const double dist = r.rounds[t].distance_to_x;
      // Lower bound on ||X' - X|| (see header comment).
      const double err = std::fabs(dist - mean_delta_norm);
      rows.push_back({r.compromised_ids.size(), t / 40, err, dist});

      // Theorem 2: ||theta - X|| <= (1/a - 1)||delta_c|| + ||zeta||. The
      // residual zeta covers the benign aggregate's displacement; bound it
      // by the sum of benign update norms of the round.
      double zeta = 0.0;
      for (const auto& b : split.benign) zeta += stats::l2_norm(b);
      const double delta_norm = stats::l2_norm(split.malicious[0]);
      const double bound = core::theory::theorem2_distance_bound(
          cfg.collapois.psi_a, delta_norm / cfg.collapois.psi_a, zeta);
      // delta = psi (theta - X) => ||theta - X|| = ||delta|| / psi <=
      // ||delta|| / a; the bound statement must not be violated by more
      // than the residual.
      if (dist > bound + delta_norm / cfg.collapois.psi_a + 1e-3) {
        ++theorem2_violations;
      }
    }
  }

  std::cout << "== Fig. 7 — server estimation error of X over rounds "
               "(tau = 2, p = 1) ==\n";
  std::cout << std::right << std::setw(8) << "|C|" << std::setw(14)
            << "round>=" << std::setw(14) << "est_error" << std::setw(14)
            << "||theta-X||" << "\n";
  std::map<std::pair<std::size_t, std::size_t>, std::pair<double, int>> err;
  std::map<std::pair<std::size_t, std::size_t>, double> dist;
  for (const auto& r : rows) {
    const auto key = std::make_pair(r.n_compromised, r.round_bucket);
    err[key].first += r.estimation_error;
    err[key].second += 1;
    dist[key] += r.distance_to_x;
  }
  for (const auto& [key, val] : err) {
    std::cout << std::right << std::setw(8) << key.first << std::setw(14)
              << key.second * 40 << std::fixed << std::setprecision(4)
              << std::setw(14) << val.first / val.second << std::setw(14)
              << dist[key] / val.second << "\n";
    std::cout.unsetf(std::ios::fixed);
  }
  std::cout << "Theorem 2 bound violations observed: " << theorem2_violations
            << "\n";
  std::cout << "(paper shape: the error stabilises at a tau-controlled floor "
               "instead of decaying to zero)\n";
  return theorem2_violations == 0;
}

// Figs. 8 / 15 — FedAvg, FedDC and MetaFed under CollaPois / DPois /
// MRepl / DBA with 1% compromised clients, across alpha. The paper's
// headline comparison: CollaPois achieves the highest Attack SR without a
// notable Benign AC drop, on every algorithm.
bool attacks_grid(sim::DatasetKind dataset, const std::string& title) {
  std::vector<Campaign> grid;
  for (sim::AlgorithmKind algo : kAlgorithms) {
    for (sim::AttackKind attack :
         {sim::AttackKind::collapois, sim::AttackKind::dpois,
          sim::AttackKind::mrepl, sim::AttackKind::dba}) {
      for (double alpha : {0.01, 1.0, 100.0}) {
        sim::ExperimentConfig cfg = bench::base_config(dataset);
        cfg.algorithm = algo;
        cfg.attack = attack;
        cfg.alpha = alpha;
        cfg.compromised_fraction = bench::paper_fraction("1%");
        grid.push_back({std::string(sim::algorithm_name(algo)) + "/" +
                            sim::attack_name(attack) +
                            " a=" + std::to_string(alpha),
                        cfg});
      }
    }
  }
  print_series_grid(title, grid);
  return true;
}

bool fig08() {
  return attacks_grid(
      sim::DatasetKind::sentiment_like,
      "Fig. 8 — attacks x FL algorithms x alpha (Sentiment, 1% compromised)");
}

bool fig15() {
  return attacks_grid(
      sim::DatasetKind::femnist_like,
      "Fig. 15 — attacks x FL algorithms x alpha (FEMNIST, 1% compromised)");
}

// Figs. 9 / 16 — CollaPois (1% compromised) against the four SOTA robust
// training defenses (DP, NormBound, Krum, RLR) across FL algorithms and
// alpha; MetaFed skips the defenses Table I marks inapplicable to it.
//
// Paper finding: no defense both keeps Benign AC and suppresses Attack
// SR — DP and NormBound stay vulnerable; Krum and RLR pay with utility;
// MetaFed + DP/NormBound on FEMNIST is the one promising combination.
bool applicable_to_metafed(defense::DefenseKind kind) {
  for (const auto& info : defense::defense_registry()) {
    if (info.kind == kind) return info.applicable_to_metafed;
  }
  return false;
}

bool defenses_grid(sim::DatasetKind dataset, const std::string& title) {
  std::vector<Campaign> grid;
  for (sim::AlgorithmKind algo : kAlgorithms) {
    for (defense::DefenseKind def :
         {defense::DefenseKind::dp, defense::DefenseKind::norm_bound,
          defense::DefenseKind::krum, defense::DefenseKind::rlr}) {
      if (algo == sim::AlgorithmKind::metafed && !applicable_to_metafed(def)) {
        continue;
      }
      for (double alpha : {0.01, 1.0, 100.0}) {
        sim::ExperimentConfig cfg = bench::base_config(dataset);
        cfg.algorithm = algo;
        cfg.attack = sim::AttackKind::collapois;
        cfg.defense = def;
        cfg.alpha = alpha;
        cfg.compromised_fraction = bench::paper_fraction("1%");
        grid.push_back({std::string(sim::algorithm_name(algo)) + "/" +
                            defense::defense_name(def) +
                            " a=" + std::to_string(alpha),
                        cfg});
      }
    }
  }
  print_series_grid(title, grid);
  return true;
}

bool fig09() {
  return defenses_grid(
      sim::DatasetKind::sentiment_like,
      "Fig. 9 — CollaPois under defenses (Sentiment, 1% compromised)");
}

bool fig16() {
  return defenses_grid(
      sim::DatasetKind::femnist_like,
      "Fig. 16 — CollaPois under defenses (FEMNIST, 1% compromised)");
}

// Figs. 10 / 17–25 — CollaPois with small compromised fractions (0.1%
// and 0.5% analogues) under defenses, with client-level reporting.
//
// Paper finding: population averages look safe, but the top-25% infected
// clients still suffer ~86% Attack SR at 0.5% compromised — defenses that
// "work" on average leave a heavily-infected tail.
sim::ExperimentConfig topk_config(sim::DatasetKind dataset,
                                  sim::AlgorithmKind algo,
                                  const std::string& level,
                                  defense::DefenseKind def, double alpha) {
  sim::ExperimentConfig cfg = bench::base_config(dataset);
  cfg.algorithm = algo;
  cfg.attack = sim::AttackKind::collapois;
  cfg.defense = def;
  cfg.alpha = alpha;
  cfg.compromised_fraction = bench::paper_fraction(level);
  return cfg;
}

// Sentiment, FedAvg, across the three non-aggregation defenses.
bool fig10() {
  std::vector<Campaign> grid;
  for (const char* level : {"0.1%", "0.5%"}) {
    for (defense::DefenseKind def :
         {defense::DefenseKind::none, defense::DefenseKind::dp,
          defense::DefenseKind::norm_bound}) {
      for (double alpha : {0.01, 1.0, 100.0}) {
        grid.push_back(
            {std::string(defense::defense_name(def)) + " c=" + level +
                 " a=" + std::to_string(alpha),
             topk_config(sim::DatasetKind::sentiment_like,
                         sim::AlgorithmKind::fedavg, level, def, alpha)});
      }
    }
  }
  print_topk_grid(
      "Figs. 10/17/19/21/23 — top-k% infected clients (Sentiment, "
      "CollaPois)",
      36, grid,
      "(paper shape: top-1 >= top-25 >= top-50 >= all; the top-25% tail "
      "stays heavily infected even at 0.1-0.5% compromised)");
  return true;
}

// FEMNIST under DP, across the three FL algorithms.
bool fig25() {
  const defense::DefenseKind def = defense::DefenseKind::dp;
  std::vector<Campaign> grid;
  for (sim::AlgorithmKind algo : kAlgorithms) {
    for (const char* level : {"0.1%", "0.5%"}) {
      for (double alpha : {0.01, 1.0, 100.0}) {
        grid.push_back(
            {std::string(sim::algorithm_name(algo)) + "/" +
                 defense::defense_name(def) + " c=" + level +
                 " a=" + std::to_string(alpha),
             topk_config(sim::DatasetKind::femnist_like, algo, level, def,
                         alpha)});
      }
    }
  }
  print_topk_grid(
      "Figs. 25/18/20/22/24 — top-k% infected clients (FEMNIST, CollaPois, "
      "DP defense)",
      40, grid,
      "(paper shape: even small compromised fractions leave a heavily "
      "infected top-k tail; MetaFed's top-1% exceeds 99% in the paper)");
  return true;
}

// Fig. 11 — the per-client scatter of (Benign AC, Attack SR) for all
// clients under FedAvg + DP on FEMNIST: the population hides a spectrum
// of infection levels. Printed as a 2-D histogram over (AC, SR) buckets
// plus the risk-cluster assignment counts.
bool fig11() {
  sim::ExperimentConfig cfg =
      bench::base_config(sim::DatasetKind::femnist_like);
  cfg.attack = sim::AttackKind::collapois;
  cfg.defense = defense::DefenseKind::dp;
  cfg.alpha = 0.1;
  cfg.compromised_fraction = bench::paper_fraction("1%");
  const sim::ExperimentResult r = sim::run_experiment(cfg);
  if (r.final_evals.empty()) return true;

  // 2-D histogram over (benign AC, attack SR) in 0.2-wide buckets.
  int hist[5][5] = {};
  for (const auto& e : r.final_evals) {
    if (e.compromised || !e.has_test_data) continue;
    const int i = std::min(4, static_cast<int>(e.benign_ac * 5.0));
    const int j = std::min(4, static_cast<int>(e.attack_sr * 5.0));
    ++hist[i][j];
  }
  std::cout << "== Fig. 11 — client distribution over (Benign AC, Attack "
               "SR), FedAvg+DP, FEMNIST ==\n";
  std::cout << "rows: Benign AC buckets (low->high); cols: Attack SR "
               "buckets (low->high); cells: #clients\n";
  std::cout << std::setw(10) << "AC\\SR";
  for (int j = 0; j < 5; ++j) {
    std::cout << std::setw(8) << (j * 0.2);
  }
  std::cout << "\n";
  for (int i = 0; i < 5; ++i) {
    std::cout << std::setw(10) << std::fixed << std::setprecision(1)
              << (i * 0.2);
    std::cout.unsetf(std::ios::fixed);
    for (int j = 0; j < 5; ++j) std::cout << std::setw(8) << hist[i][j];
    std::cout << "\n";
  }

  sim::print_clusters(std::cout, "risk-cluster assignment (Eq. 8 ranking)",
                      r.clusters);
  std::cout << "(paper shape: a wide spread of Attack SR at similar Benign "
               "AC — the average masks an infected tail)\n";
  return true;
}

// Fig. 12 — why some clients are more vulnerable: the cosine similarity
// (Eq. 9) between each risk cluster's cumulative label distribution and
// the attacker's auxiliary data D_a predicts the cluster's Attack SR,
// on both datasets.
bool fig12() {
  struct Row {
    std::string dataset;
    std::string cluster;
    double cs;
    double attack_sr;
    double benign_ac;
  };
  std::vector<Row> rows;
  for (sim::DatasetKind dataset :
       {sim::DatasetKind::femnist_like, sim::DatasetKind::sentiment_like}) {
    sim::ExperimentConfig cfg = bench::base_config(dataset);
    cfg.attack = sim::AttackKind::collapois;
    cfg.alpha = 0.1;
    cfg.compromised_fraction = bench::paper_fraction("1%");
    const sim::ExperimentResult r = sim::run_experiment(cfg);
    for (const auto& c : r.clusters) {
      rows.push_back({sim::dataset_name(dataset), c.name, c.label_cosine,
                      c.mean_attack_sr, c.mean_benign_ac});
    }
  }

  std::cout << "== Fig. 12 — label-distribution proximity (CS_k, Eq. 9) vs "
               "cluster Attack SR ==\n";
  std::cout << std::left << std::setw(12) << "dataset" << std::setw(12)
            << "cluster" << std::right << std::setw(10) << "CS_k"
            << std::setw(12) << "attack_sr" << std::setw(12) << "benign_ac"
            << "\n";
  for (const auto& r : rows) {
    std::cout << std::left << std::setw(12) << r.dataset << std::setw(12)
              << r.cluster << std::right << std::fixed << std::setprecision(4)
              << std::setw(10) << r.cs << std::setw(12) << r.attack_sr
              << std::setw(12) << r.benign_ac << "\n";
    std::cout.unsetf(std::ios::fixed);
  }
  std::cout << "(paper shape: clusters whose label distributions align with "
               "D_a — higher CS_k — show higher Attack SR; the gradient of "
               "CS across clusters is flatter on Sentiment)\n";
  return true;
}

// Fig. 13 — Benign AC and Attack SR as a function of training round
// (FEMNIST, 1% compromised): CollaPois converges fast and holds; MRepl
// spikes abruptly (the detectable shift); DPois and DBA build slowly.
bool fig13() {
  struct Point {
    std::size_t round;
    double benign_ac;
    double attack_sr;
  };
  std::map<std::string, std::vector<Point>> curves;
  for (sim::AttackKind attack :
       {sim::AttackKind::collapois, sim::AttackKind::mrepl,
        sim::AttackKind::dpois, sim::AttackKind::dba}) {
    sim::ExperimentConfig cfg =
        bench::base_config(sim::DatasetKind::femnist_like);
    cfg.attack = attack;
    // The paper plots alpha = 0.01; at simulator scale that regime hits
    // the auxiliary class-coverage artifact (see EXPERIMENTS.md, Fig. 15
    // note) and every attack's trajectory is dominated by it, so the
    // longevity comparison is run at the next diversity level.
    cfg.alpha = 0.1;
    cfg.compromised_fraction = bench::paper_fraction("1%");
    cfg.eval_every = 20;
    cfg.eval_max_clients = 30;  // per-round tracking on a client subsample
    const sim::ExperimentResult r = sim::run_experiment(cfg);
    auto& curve = curves[sim::attack_name(attack)];
    for (const auto& rec : r.rounds) {
      if (rec.population.has_value()) {
        curve.push_back({rec.round, rec.population->benign_ac,
                         rec.population->attack_sr});
      }
    }
  }

  std::cout << "== Fig. 13 — Benign AC / Attack SR vs round (FEMNIST, "
               "alpha=0.1, 1% compromised) ==\n";
  for (const auto& [attack, curve] : curves) {
    std::cout << "-- " << attack << " --\n";
    std::cout << std::right << std::setw(8) << "round" << std::setw(12)
              << "benign_ac" << std::setw(12) << "attack_sr" << "\n";
    for (const auto& p : curve) {
      std::cout << std::right << std::setw(8) << p.round << std::fixed
                << std::setprecision(4) << std::setw(12) << p.benign_ac
                << std::setw(12) << p.attack_sr << "\n";
      std::cout.unsetf(std::ios::fixed);
    }
  }
  std::cout << "(paper shape: CollaPois rises quickly after the strike and "
               "stays high; MRepl shows abrupt jumps; DPois/DBA climb "
               "slowly)\n";
  return true;
}

// Fig. 14 — WaNet trigger imperceptibility: backdoored and legitimate
// samples are nearly identical. We quantify the visual gap as per-sample
// L2 / L-infinity pixel distortion of the warp trigger, compared against
// the same statistics for the BadNets-style patch trigger (which *is*
// visible) and against the image noise floor.
bool fig14() {
  stats::Rng rng(17);
  data::SyntheticImageGenerator gen({}, 21);
  trojan::WarpTrigger warp({}, 23);
  const trojan::PatchTrigger patch = trojan::PatchTrigger::global_dba(16, 16);

  stats::RunningStats warp_l2, warp_linf, patch_l2, patch_linf, noise_l2;
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    const auto e = gen.sample(i % 10, rng);
    const auto dw = warp.distortion(e.x);
    warp_l2.add(dw.l2);
    warp_linf.add(dw.linf);
    const auto dp = patch.distortion(e.x);
    patch_l2.add(dp.l2);
    patch_linf.add(dp.linf);
    // Noise floor: distance between two samples of the same class.
    const auto e2 = gen.sample(i % 10, rng);
    double d2 = 0.0;
    for (std::size_t k = 0; k < e.x.size(); ++k) {
      const double d = e.x[k] - e2.x[k];
      d2 += d * d;
    }
    noise_l2.add(std::sqrt(d2));
  }
  struct Row {
    const char* series;
    double l2_mean;
    double linf_mean;
  };
  const Row rows[] = {
      {"warp trigger (WaNet)", warp_l2.mean(), warp_linf.mean()},
      {"patch trigger (BadNets/DBA)", patch_l2.mean(), patch_linf.mean()},
      {"same-class sampling noise floor", noise_l2.mean(), 0.0},
  };

  std::cout << "== Fig. 14 — trigger imperceptibility (per-sample pixel "
               "distortion, 16x16 images) ==\n";
  std::cout << std::left << std::setw(36) << "series" << std::right
            << std::setw(12) << "L2_mean" << std::setw(12) << "Linf_mean"
            << "\n";
  for (const auto& r : rows) {
    std::cout << std::left << std::setw(36) << r.series << std::right
              << std::fixed << std::setprecision(4) << std::setw(12)
              << r.l2_mean << std::setw(12) << r.linf_mean << "\n";
    std::cout.unsetf(std::ios::fixed);
  }
  std::cout << "(paper shape: the warp's distortion sits at/below the "
               "natural sampling noise floor, unlike the visible patch)\n";
  return true;
}

// Table I — the robust federated training taxonomy, printed from the
// implemented defense registry. bench_defense_throughput times each
// rule's aggregate().
bool table1() {
  std::cout << "== Table I — robust federated training algorithms ==\n";
  std::cout << std::left << std::setw(22) << "approach" << std::setw(28)
            << "method" << std::setw(10) << "metafed?" << "description\n";
  for (const auto& info : defense::defense_registry()) {
    std::cout << std::left << std::setw(22) << info.approach << std::setw(28)
              << info.method << std::setw(10)
              << (info.applicable_to_metafed ? "yes" : "no")
              << info.description << "\n";
  }
  return true;
}

// Section V, "Bypassing Defenses" — can a MESAS-style statistical
// defender separate CollaPois updates from benign ones?
//
// A defender can only compare gradients submitted against the *same*
// broadcast model, so the tests run per round (on rounds where at least
// two compromised and two benign clients were sampled) and we report the
// distribution of outcomes across rounds. Three attacker configurations
// show the stealth-effectiveness tradeoff:
//   aggressive — plain Eq. 4 updates (maximum pull);
//   clipped    — a shared magnitude bound A at the benign envelope;
//   blended    — Section IV-D in full: direction blended with the
//                client's own clean gradient and magnitude drawn from the
//                clean-gradient distribution.
// The paper reports the blended regime: no significant test differences
// and ~3.5% 3-sigma outliers. At the simulator's round budget the fully
// blended attack is correspondingly slower (see EXPERIMENTS.md).
bool bypass() {
  struct Config {
    const char* label;
    double blend;
    bool mimic;
    double clip;
  };
  struct Row {
    std::string config;
    double attack_sr = 0.0;
    double benign_ac = 0.0;
    int usable_rounds = 0;
    double flagged_fraction = 0.0;  // any of the 6 tests rejects at 5%
    double median_p_angle = 0.0;    // Welch t on the angle feature
    double mean_three_sigma = 0.0;
  };
  std::vector<Row> rows;
  for (const Config c : {Config{"aggressive", 0.0, false, 0.0},
                         Config{"clipped A=0.5", 0.0, false, 0.5},
                         Config{"blended (IV-D)", 0.3, true, 0.0}}) {
    sim::ExperimentConfig cfg =
        bench::base_config(sim::DatasetKind::femnist_like);
    cfg.attack = sim::AttackKind::collapois;
    cfg.alpha = 0.1;
    cfg.compromised_fraction = bench::paper_fraction("1%");
    cfg.sample_prob = 0.15;
    cfg.rounds = 300 * bench::scale();
    cfg.collapois.blend_fraction = c.blend;
    cfg.collapois.mimic_benign_norm = c.mimic;
    cfg.collapois.clip = c.clip;
    sim::RunOptions opt;
    opt.keep_telemetry = true;

    const sim::ExperimentResult r = sim::run_experiment(cfg, opt);
    Row row;
    row.config = c.label;
    row.attack_sr = r.population.attack_sr;
    row.benign_ac = r.population.benign_ac;
    int flagged = 0;
    std::vector<double> p_angle;
    stats::RunningStats sigma_rate;
    for (std::size_t t = cfg.attack_start_round; t < r.telemetry.size();
         ++t) {
      const auto& tele = r.telemetry[t];
      int mal = 0;
      int ben = 0;
      for (bool comp : tele.compromised) (comp ? mal : ben) += 1;
      if (mal < 2 || ben < 2) continue;
      const auto rep = defense::analyze_round(tele.updates, tele.compromised);
      ++row.usable_rounds;
      if (rep.distinguishable()) ++flagged;
      p_angle.push_back(rep.angle_t.p_value);
      sigma_rate.add(rep.three_sigma_rate);
    }
    if (row.usable_rounds > 0) {
      row.flagged_fraction =
          static_cast<double>(flagged) / row.usable_rounds;
      row.median_p_angle = stats::median(p_angle);
      row.mean_three_sigma = sigma_rate.mean();
    }
    rows.push_back(row);
  }

  std::cout << "== Bypassing statistical defenses — per-round tests, "
               "malicious vs benign updates ==\n";
  std::cout << std::left << std::setw(18) << "config" << std::right
            << std::setw(10) << "attack_sr" << std::setw(10) << "benign_ac"
            << std::setw(9) << "rounds" << std::setw(10) << "flagged"
            << std::setw(12) << "med_p(angle)" << std::setw(10) << "3sigma"
            << "\n";
  for (const auto& r : rows) {
    std::cout << std::left << std::setw(18) << r.config << std::right
              << std::fixed << std::setprecision(3) << std::setw(10)
              << r.attack_sr << std::setw(10) << r.benign_ac << std::setw(9)
              << r.usable_rounds << std::setw(10) << r.flagged_fraction
              << std::setw(12) << r.median_p_angle << std::setw(10)
              << r.mean_three_sigma << "\n";
    std::cout.unsetf(std::ios::fixed);
  }
  std::cout << "(paper regime = blended: p-values above 0.05 and a ~3.5% "
               "3-sigma outlier rate; note ~26% of rounds flag by chance "
               "when 6 tests run at the 5% level)\n";
  return true;
}

// Section II-B claim check: "warping techniques enable Trojans to evade
// commonly used detection methods like Neural Cleanse, Fine-Pruning, and
// STRIP". Two centrally-trained Trojaned models — one with the WaNet-
// style warp trigger, one with a BadNets-style patch — are put through
// all three inference-time detectors, beside an un-poisoned control. The
// patch backdoor should be caught; the warp backdoor should slip through.
struct DetectionRow {
  std::string trigger;
  double clean_ac;
  double attack_sr;
  double strip_detection;
  double strip_entropy_gap;
  double prune16_sr;  // backdoor survival after pruning 16/32 units
  double prune16_ac;
  double nc_anomaly;
  int nc_flagged;
};

DetectionRow detection(const std::string& name, const trojan::Trigger& trigger,
                       bool poison) {
  stats::Rng rng(55);
  data::SyntheticImageGenerator gen({}, 56);
  std::vector<std::size_t> counts(10, 40);
  const data::Dataset train = gen.generate(counts, rng);
  std::vector<std::size_t> eval_counts(10, 15);
  const data::Dataset clean_eval = gen.generate(eval_counts, rng);
  const data::Dataset trojan_eval =
      trojan::apply_trigger_all(clean_eval, trigger, 0);

  nn::Model m = nn::make_lenet_small({});
  m.init(rng);
  core::TrojanTrainConfig tcfg;
  if (!poison) tcfg.poison_fraction = 0.0;  // clean-model control
  const auto trained =
      core::train_trojaned_model(std::move(m), train, trigger, tcfg, rng);
  nn::Model model = nn::make_lenet_small({});
  model.set_parameters(trained.x);

  DetectionRow row;
  row.trigger = name;
  row.clean_ac = nn::accuracy(model, clean_eval);
  row.attack_sr = nn::accuracy(model, trojan_eval);

  const defense::StripReport strip = defense::strip_evaluate(
      model, clean_eval, trojan_eval, train, {}, rng);
  row.strip_detection = strip.detection_rate;
  row.strip_entropy_gap = strip.clean_entropy_mean - strip.trojan_entropy_mean;

  const auto sweep = defense::fine_prune_sweep(model, clean_eval, clean_eval,
                                               trojan_eval, {16});
  row.prune16_sr = sweep[0].attack_sr;
  row.prune16_ac = sweep[0].clean_accuracy;

  const defense::CleanseReport nc =
      defense::neural_cleanse(model, clean_eval, {}, rng);
  row.nc_anomaly = nc.anomaly_index;
  row.nc_flagged = nc.flagged_class;
  return row;
}

bool inference() {
  const trojan::WarpTrigger warp({}, 57);
  const trojan::PatchTrigger patch = trojan::PatchTrigger::global_dba(16, 16);
  // The un-poisoned model, probed with the warp trigger, is the
  // detectors' false-alarm baseline on this substrate.
  const DetectionRow rows[] = {
      detection("none (control)", warp, false),
      detection("warp (WaNet)", warp, true),
      detection("patch (BadNets)", patch, true),
  };

  std::cout << "== Inference-time detection: warp vs patch backdoors ==\n";
  std::cout << std::left << std::setw(18) << "trigger" << std::right
            << std::setw(9) << "ac" << std::setw(9) << "sr" << std::setw(12)
            << "STRIP_det" << std::setw(12) << "STRIP_gap" << std::setw(12)
            << "prune16_sr" << std::setw(12) << "NC_anomaly" << std::setw(9)
            << "NC_cls" << "\n";
  for (const auto& r : rows) {
    std::cout << std::left << std::setw(18) << r.trigger << std::right
              << std::fixed << std::setprecision(3) << std::setw(9)
              << r.clean_ac << std::setw(9) << r.attack_sr << std::setw(12)
              << r.strip_detection << std::setw(12) << r.strip_entropy_gap
              << std::setw(12) << r.prune16_sr << std::setw(12)
              << r.nc_anomaly << std::setw(9) << r.nc_flagged << "\n";
    std::cout.unsetf(std::ios::fixed);
  }
  std::cout
      << "(the cited WaNet claim is that the warp trigger evades all three "
         "while the patch is caught. Measured at this 16x16 synthetic "
         "scale: STRIP's clean baseline is 0 and it flags BOTH backdoors — "
         "blending does not destroy the warp signature on smooth prototype "
         "images the way it does on natural images; Neural Cleanse's "
         "anomaly index is unreliable here (the clean control also scores "
         "above the 2.0 threshold). The warp-evasion property is an "
         "artifact of high-dimensional natural-image statistics that this "
         "substrate intentionally does not model — see EXPERIMENTS.md.)\n";
  return true;
}

// Ablation of CollaPois's design choices (DESIGN.md §4): what each knob
// of the attack buys, measured on the FEMNIST-like substrate at alpha=0.1
// with the 1%-analogue compromised fraction.
//
//   psi range  — the dynamic learning rate's support [a, b]: narrow-high
//                ranges pull hardest; wide/low ranges trade speed for
//                randomness (stealth).
//   strike     — attack_start_round: striking near convergence keeps X in
//                the model's loss valley (cf. Theorem 2's regime).
//   tau        — the update-norm floor preserving Theorem 3's estimation-
//                error lower bound; should not change Attack SR.
//   clip       — the shared magnitude bound A blending malicious updates
//                into the benign envelope; costs pull strength.
bool ablation() {
  const auto base = [] {
    sim::ExperimentConfig cfg =
        bench::base_config(sim::DatasetKind::femnist_like);
    cfg.attack = sim::AttackKind::collapois;
    cfg.alpha = 0.1;
    cfg.compromised_fraction = bench::paper_fraction("1%");
    return cfg;
  };
  std::vector<Campaign> grid;
  for (auto [a, b] : {std::pair{0.5, 0.6}, std::pair{0.9, 1.0},
                      std::pair{0.95, 0.99}}) {
    sim::ExperimentConfig cfg = base();
    cfg.collapois.psi_a = a;
    cfg.collapois.psi_b = b;
    grid.push_back(
        {"psi U[" + std::to_string(a) + "," + std::to_string(b) + "]", cfg});
  }
  for (std::size_t strike : {0UL, 20UL, 80UL}) {
    sim::ExperimentConfig cfg = base();
    cfg.attack_start_round = strike;
    grid.push_back({"strike at round " + std::to_string(strike), cfg});
  }
  for (double tau : {0.0, 2.0}) {
    sim::ExperimentConfig cfg = base();
    cfg.collapois.tau = tau;
    grid.push_back({"tau = " + std::to_string(tau), cfg});
  }
  for (double clip : {0.0, 0.5, 2.0}) {
    sim::ExperimentConfig cfg = base();
    cfg.collapois.clip = clip;
    grid.push_back(
        {clip == 0.0 ? "clip off" : "clip A = " + std::to_string(clip), cfg});
  }
  print_series_grid("Ablation — CollaPois design choices (FEMNIST)", grid);
  return true;
}

// Run-to-run variance — the paper reports each experiment repeated 5
// times with small variance (0.01%-0.03% of the metric). This runs the
// core CollaPois-vs-FedAvg experiment over 5 seeds on both substrates
// and reports mean and standard deviation of Benign AC / Attack SR.
bool variance() {
  struct Row {
    std::string dataset;
    double ac_mean, ac_sd;
    double sr_mean, sr_sd;
  };
  std::vector<Row> rows;
  for (sim::DatasetKind dataset :
       {sim::DatasetKind::sentiment_like, sim::DatasetKind::femnist_like}) {
    sim::ExperimentConfig cfg = bench::base_config(dataset);
    cfg.attack = sim::AttackKind::collapois;
    cfg.alpha = 0.1;
    cfg.compromised_fraction = bench::paper_fraction("1%");
    stats::RunningStats ac, sr;
    for (std::uint64_t seed : {11u, 22u, 33u, 44u, 55u}) {
      cfg.seed = seed;
      const sim::ExperimentResult r = sim::run_experiment(cfg);
      ac.add(r.population.benign_ac);
      sr.add(r.population.attack_sr);
    }
    rows.push_back({sim::dataset_name(dataset), ac.mean(), ac.stddev(),
                    sr.mean(), sr.stddev()});
  }

  std::cout << "== Run-to-run variance over 5 seeds (CollaPois, FedAvg, "
               "alpha=0.1, 1% compromised) ==\n";
  std::cout << std::left << std::setw(12) << "dataset" << std::right
            << std::setw(10) << "ac_mean" << std::setw(10) << "ac_sd"
            << std::setw(10) << "sr_mean" << std::setw(10) << "sr_sd"
            << "\n";
  for (const auto& r : rows) {
    std::cout << std::left << std::setw(12) << r.dataset << std::right
              << std::fixed << std::setprecision(4) << std::setw(10)
              << r.ac_mean << std::setw(10) << r.ac_sd << std::setw(10)
              << r.sr_mean << std::setw(10) << r.sr_sd << "\n";
    std::cout.unsetf(std::ios::fixed);
  }
  std::cout << "(the simulator's federation is ~30x smaller than the "
               "paper's, so its seed variance is proportionally larger "
               "than the 0.01-0.03% the paper reports)\n";
  return true;
}

// Fault tolerance — attack efficacy under production conditions:
// CollaPois vs D-Pois with 0% / 10% / 30% client dropout, with and
// without a straggler regime (20% stragglers, 2-round staleness, damped
// weights). Reports Benign AC / Attack SR plus the engine's fault
// accounting (dropped, quarantined, stale, skipped rounds) — the question
// is whether CollaPois's shared-trojan pull survives churn that starves
// per-round participation.
bool faults() {
  struct Regime {
    const char* label;
    double dropout;
    double straggler;
  };
  struct Row {
    std::string label;
    double benign_ac = 0.0;
    double attack_sr = 0.0;
    std::size_t dropped = 0;
    std::size_t rejected = 0;
    std::size_t stale = 0;
    std::size_t skipped_rounds = 0;
  };
  std::vector<Row> rows;
  for (sim::AttackKind attack :
       {sim::AttackKind::collapois, sim::AttackKind::dpois}) {
    for (const Regime& regime : {Regime{"drop0", 0.0, 0.0},
                                 Regime{"drop10", 0.10, 0.0},
                                 Regime{"drop10+strag", 0.10, 0.20},
                                 Regime{"drop30", 0.30, 0.0},
                                 Regime{"drop30+strag", 0.30, 0.20}}) {
      sim::ExperimentConfig cfg =
          bench::base_config(sim::DatasetKind::sentiment_like);
      cfg.attack = attack;
      cfg.compromised_fraction = bench::paper_fraction("1%");
      cfg.faults.dropout_prob = regime.dropout;
      cfg.faults.straggler_prob = regime.straggler;
      const sim::ExperimentResult r = sim::run_experiment(cfg);
      Row row{std::string(sim::attack_name(attack)) + "/" + regime.label,
              r.population.benign_ac, r.population.attack_sr};
      for (const auto& rec : r.rounds) {
        row.dropped += rec.n_dropped;
        row.rejected += rec.n_rejected;
        row.stale += rec.n_stragglers;
        row.skipped_rounds += rec.aggregate_skipped ? 1 : 0;
      }
      rows.push_back(row);
    }
  }

  std::cout << "== Fault tolerance — CollaPois vs D-Pois under dropout / "
               "straggler regimes (Sentiment, 1% compromised) ==\n";
  std::cout << std::right << std::setw(24) << "attack/regime"
            << std::setw(12) << "benign_ac" << std::setw(12) << "attack_sr"
            << std::setw(10) << "dropped" << std::setw(10) << "rejected"
            << std::setw(8) << "stale" << std::setw(10) << "skipped"
            << "\n";
  for (const auto& row : rows) {
    std::cout << std::right << std::setw(24) << row.label << std::fixed
              << std::setprecision(4) << std::setw(12) << row.benign_ac
              << std::setw(12) << row.attack_sr;
    std::cout.unsetf(std::ios::fixed);
    std::cout << std::setw(10) << row.dropped << std::setw(10)
              << row.rejected << std::setw(8) << row.stale << std::setw(10)
              << row.skipped_rounds << "\n";
  }
  std::cout << "(expected: CollaPois's shared-X pull degrades gracefully "
               "with dropout — each surviving compromised client still "
               "pulls toward the same X — while D-Pois's per-round poison "
               "mass shrinks with participation)\n";
  return true;
}

// Every figure, in EXPERIMENTS.md's order. `run` prints the figure's
// table and returns false when its checked verdict breaks.
struct Figure {
  const char* name;
  bool (*run)();
};

constexpr Figure kFigures[] = {
    {"fig01", fig01},         {"fig03", fig03},       {"fig04", fig04},
    {"fig05", fig05},         {"fig06", fig06},       {"fig07", fig07},
    {"fig08", fig08},         {"fig15", fig15},       {"fig09", fig09},
    {"fig16", fig16},         {"fig10", fig10},       {"fig25", fig25},
    {"fig11", fig11},         {"fig12", fig12},       {"fig13", fig13},
    {"fig14", fig14},         {"table1", table1},     {"bypass", bypass},
    {"inference", inference}, {"ablation", ablation}, {"variance", variance},
    {"faults", faults},
};

const Figure* find_figure(const char* name) {
  for (const Figure& f : kFigures) {
    if (std::strcmp(f.name, name) == 0) return &f;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<const Figure*> chosen;
  for (int i = 1; i < argc; ++i) {
    const Figure* f = find_figure(argv[i]);
    if (f == nullptr) {
      std::cerr << "error: unknown figure '" << argv[i] << "' (expected";
      for (const Figure& known : kFigures) std::cerr << ' ' << known.name;
      std::cerr << ")\n";
      return 2;
    }
    chosen.push_back(f);
  }
  if (chosen.empty()) {
    for (const Figure& f : kFigures) chosen.push_back(&f);
  }
  bench::scale();  // a junk COLLAPOIS_SCALE exits 2 before any campaign

  // Each table starts from the stream state a fresh process has, so a
  // figure prints the same bytes alone or in a full run.
  const std::ios_base::fmtflags flags = std::cout.flags();
  const std::streamsize precision = std::cout.precision();
  bool verdicts_hold = true;
  try {
    for (const Figure* f : chosen) {
      std::cout.flags(flags);
      std::cout.precision(precision);
      verdicts_hold &= f->run();
      std::cout.flush();
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return verdicts_hold ? 0 : 1;
}
