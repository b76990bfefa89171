// Shared scaffolding for the benches: the run size, the base experiment,
// the paper's compromised levels, and the counters a google-benchmark
// case reports.
//
// COLLAPOIS_SCALE=k (k = 1, 2, 3, ...) multiplies clients and rounds for
// higher-fidelity runs; defaults are sized for a 1-core CI box.
#pragma once

#include <charconv>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "sim/runner.h"

namespace collapois::bench {

// A COLLAPOIS_SCALE that is not a whole positive decimal is a typo that
// would silently run at the wrong size: exit 2 with one `error:` line.
inline std::size_t scale() {
  const char* env = std::getenv("COLLAPOIS_SCALE");
  if (env == nullptr) return 1;
  const std::string_view text(env);
  std::size_t v = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc() || end != text.data() + text.size() || v == 0) {
    std::cerr << "error: COLLAPOIS_SCALE='" << text
              << "': expected a whole number >= 1\n";
    std::exit(2);
  }
  return v;
}

// Base experiment sized to the bench budget; benches override fields.
inline sim::ExperimentConfig base_config(sim::DatasetKind dataset) {
  sim::ExperimentConfig cfg;
  cfg.dataset = dataset;
  const std::size_t s = scale();
  cfg.n_clients = 100 * s;
  cfg.rounds = 200 * s;
  cfg.seed = 1234;
  return cfg;
}

// The paper compromises 0.1% / 0.5% / 1% of 3,400-5,600 clients over
// 1000+ rounds; the scale-preserving quantity is the total malicious
// pull mass T * |C| / N (see EXPERIMENTS.md). These fractions reproduce
// the paper's mass levels at the simulator's round budget.
inline double paper_fraction(const std::string& label) {
  if (label == "0.1%") return 0.01;
  if (label == "0.5%") return 0.025;
  if (label == "1%") return 0.05;
  throw std::invalid_argument("paper_fraction: unknown level " + label);
}

// Exposes a campaign's headline metrics as google-benchmark counters.
// `State` is benchmark::State; taking it as a template parameter keeps
// <benchmark/benchmark.h> out of this header, so bench_paper can include
// it without linking google-benchmark.
template <class State>
void report_counters(State& state, const sim::ExperimentResult& result) {
  state.counters["benign_ac"] = result.population.benign_ac;
  state.counters["attack_sr"] = result.population.attack_sr;
}

}  // namespace collapois::bench
