// Targeted "semi-ready" CollaPois (the Discussion section's escalation):
// the attacker picks a high-value cohort by label-distribution proximity,
// specializes the Trojaned model toward that cohort, and arms only after
// the federation's drift shows the cohort participating.
//
// This example builds the pieces by hand (no ExperimentRunner) to show
// the lower-level public API: federation building, trojan training,
// target selection, and a custom client population in a ServerAlgorithm.
#include <iostream>
#include <memory>

#include "core/targeted.h"
#include "core/trojan_trainer.h"
#include "data/partition.h"
#include "data/synthetic_image.h"
#include "fl/server_algorithm.h"
#include "metrics/client_metrics.h"
#include "nn/zoo.h"
#include "trojan/warp_trigger.h"

int main() {
  using namespace collapois;
  stats::Rng rng(99);

  // Federation: strongly non-IID so cohorts are well separated.
  data::SyntheticImageGenerator gen({}, 5);
  const std::size_t n = 80;
  data::FederatedData fed = data::build_federation(gen, n, 80, 0.05, rng);

  nn::Model arch = nn::make_lenet_small({});
  arch.init(rng);
  const nn::SgdConfig sgd{.learning_rate = 0.05, .batch_size = 16,
                          .epochs = 1};

  // Attacker: 4 compromised clients pool their data into D_a.
  const auto comp_ids = rng.sample_without_replacement(n, 4);
  std::vector<const data::Dataset*> comp_data;
  for (std::size_t id : comp_ids) comp_data.push_back(&fed.clients[id].train);
  data::Dataset aux = core::pool_auxiliary_data(comp_data);

  // High-value cohort: the 15% of clients whose label mix is closest to
  // D_a (the attacker can estimate this only for distributions it can
  // approximate — exactly the Eq. 9 proximity of Fig. 12).
  const auto histograms = fed.client_label_histograms();
  const auto targets = core::select_high_value_targets(
      histograms, aux.label_histogram(), 0.15);
  std::cout << "high-value cohort: " << targets.size() << " clients\n";

  // Cohort-specialized auxiliary set and Trojaned model X.
  std::vector<double> cohort_hist(fed.num_classes, 0.0);
  for (std::size_t t : targets) {
    for (std::size_t c = 0; c < fed.num_classes; ++c) {
      cohort_hist[c] += histograms[t][c];
    }
  }
  data::Dataset specialized =
      core::reweight_to_distribution(aux, cohort_hist, aux.size() * 2, rng);
  trojan::WarpTrigger trigger({}, 7);
  nn::Model attacker_model = arch;
  core::TrojanTrainConfig tcfg;
  const auto trained = core::train_trojaned_model(
      std::move(attacker_model), specialized, trigger, tcfg, rng);

  // Target direction: the cohort-like pseudo-gradient at theta^1 (one
  // local pass on the specialized data).
  nn::Model probe = arch;
  stats::Rng prng = rng.fork();
  nn::train_sgd(probe, specialized, sgd, prng);
  const tensor::FlatVec target_dir =
      tensor::sub(arch.get_parameters(), probe.get_parameters());

  // Population: benign clients + semi-ready compromised clients, all
  // training per-call clones of one shared architecture.
  const auto shared_arch = std::make_shared<const nn::Model>(arch);
  std::vector<std::unique_ptr<fl::Client>> clients;
  std::vector<bool> compromised(n, false);
  for (std::size_t id : comp_ids) compromised[id] = true;
  for (std::size_t i = 0; i < n; ++i) {
    stats::Rng crng = rng.fork();
    if (!compromised[i]) {
      clients.push_back(std::make_unique<fl::BenignClient>(
          i, &fed.clients[i].train, shared_arch, sgd, 0.5, std::move(crng)));
      continue;
    }
    auto dormant = std::make_unique<fl::BenignClient>(
        i, &fed.clients[i].train, shared_arch, sgd, 0.5, crng.fork());
    auto attack = std::make_unique<core::CollaPoisClient>(
        i, tensor::FlatVec{}, core::CollaPoisConfig{}, crng.fork(),
        std::move(dormant));
    clients.push_back(std::make_unique<core::SemiReadyClient>(
        std::move(attack), trained.x, target_dir, core::SemiReadyConfig{}));
  }

  fl::ServerAlgorithm algo("fedavg", arch.get_parameters(),
                           std::make_unique<fl::FedAvgAggregator>(),
                           fl::ServerConfig{.learning_rate = 1.0,
                                            .sample_prob = 0.1},
                           std::move(clients), rng.fork());
  for (int r = 0; r < 150; ++r) algo.run_round();

  // Cohort vs rest: the targeted attack should infect the cohort harder.
  metrics::EvalConfig ecfg;
  const auto evals = metrics::evaluate_clients(algo, fed, trigger, arch,
                                               compromised, ecfg);
  double cohort_sr = 0.0;
  double rest_sr = 0.0;
  int n_cohort = 0;
  int n_rest = 0;
  for (const auto& e : evals) {
    if (e.compromised || !e.has_test_data) continue;
    const bool in_cohort =
        std::find(targets.begin(), targets.end(), e.client_index) !=
        targets.end();
    if (in_cohort) {
      cohort_sr += e.attack_sr;
      ++n_cohort;
    } else {
      rest_sr += e.attack_sr;
      ++n_rest;
    }
  }
  std::cout << "cohort attack SR:  " << cohort_sr / std::max(n_cohort, 1)
            << " (" << n_cohort << " clients)\n";
  std::cout << "rest attack SR:    " << rest_sr / std::max(n_rest, 1) << " ("
            << n_rest << " clients)\n";
  std::cout << "(expected: cohort >= rest — the strike is aimed)\n";
  return 0;
}
