// The layer harness behind `collapois_bench --trace`.
//
// It assembles a campaign from the simulator's public layer functions in
// the order sim::run_experiment uses them and records a span around each
// call, so every per-layer number comes from outside the program. Its
// final global model must hash equal to run_experiment's for the same
// config; the benchmark checks that, which is what makes the layer
// numbers describe the product rather than a look-alike.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/runner.h"
#include "trace.h"

namespace collapois::bench {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The per-layer metrics, in report order. BENCHMARK.json's per_layer
// list must name exactly these (bench/e2e/run.py checks it).
const std::vector<MetricDef>& layer_metric_defs();

struct TracedCampaign {
  tensor::FlatVec final_global;
  metrics::PopulationMetrics population;
  // Rounds where cohort_size != accepted + dropped + rejected.
  std::size_t invariant_violations = 0;
  // Harness wall time of the campaign; the replays run after it closes.
  double wall_ms = 0.0;
  std::vector<Span> spans;
  // Every layer_metric_defs() name except trace.wall_ratio, which needs
  // a tracing-off run and is filled in by the caller.
  std::map<std::string, double> metrics;
  // nn.L<i>.<kind>.{fwd,bwd}_us for every layer of the workload's model.
  std::vector<std::pair<std::string, double>> nn_layers;
};

// Runs `cfg` under `options` as sim::run_experiment would, traced.
// Supports the benchmark's campaign family: FedAvg with CollaPois, any
// aggregation defense but Ditto, eager or lazy clients, optional
// transport, codec, round engine, shards and periodic checkpoints; no
// client or shard faults, no resume, no halt or crash. Throws
// std::invalid_argument for anything else. Replay files go to
// `work_dir`.
TracedCampaign run_traced_campaign(const sim::ExperimentConfig& cfg,
                                   const sim::RunOptions& options,
                                   const std::string& work_dir);

}  // namespace collapois::bench
