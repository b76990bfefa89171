// Experiment runner: wires data -> trojan -> clients -> attack -> defense
// -> federated algorithm, runs the round loop, and returns everything the
// benches and examples report (per-round telemetry, per-client final
// metrics, risk clusters, the Trojaned model X).
#pragma once

#include <optional>
#include <vector>

#include "fl/server.h"
#include "metrics/client_metrics.h"
#include "metrics/clusters.h"
#include "metrics/telemetry.h"
#include "sim/chaos.h"
#include "sim/config.h"

namespace collapois::sim {

// One round as the runner reports it: the scalar telemetry of the round
// (fl::RoundStats, inherited so readers see one flat record) plus what the
// runner derives from the full telemetry and the model.
struct RoundRecord : fl::RoundStats {
  metrics::RoundAngleSummary angles;
  // ||theta^t - X|| after the round's update (0 when no attack / no X).
  double distance_to_x = 0.0;
  // Population metrics when eval_every hits this round.
  std::optional<metrics::PopulationMetrics> population;

  // The sizes of fl::RoundTelemetry's accepted / dropped / rejected id
  // lists; cohort_size == n_accepted + n_dropped + n_rejected holds every
  // round. n_stale_discarded counts the DropReason::stale_discarded slice
  // of n_dropped (buffered_async only).
  std::size_t n_accepted = 0;
  std::size_t n_dropped = 0;
  std::size_t n_rejected = 0;
  std::size_t n_stale_discarded = 0;
};

struct ExperimentResult {
  // The global model after the last executed round (checkpoint-halted
  // runs included) — the bit-exactness witness for resume tests.
  tensor::FlatVec final_global;
  // Final client-level evaluation over the full population.
  std::vector<metrics::ClientEval> final_evals;
  metrics::PopulationMetrics population;       // benign-client averages
  std::vector<metrics::ClusterResult> clusters;  // top-1/25/50/bottom

  std::vector<RoundRecord> rounds;

  // The attack's shared Trojaned model X (empty when attack == none).
  tensor::FlatVec trojaned_model;
  std::vector<std::size_t> compromised_ids;

  // Raw telemetry of every round (updates are retained only when
  // keep_telemetry was requested; otherwise each record's updates are
  // cleared to save memory).
  std::vector<fl::RoundTelemetry> telemetry;

  // Label histogram of the attacker's auxiliary data D_a.
  std::vector<double> auxiliary_histogram;

  // Recovery provenance (empty / zero unless the run resumed from a
  // checkpoint chain): the slot the run actually restored, and how many
  // newer generations existed but failed verification and were skipped
  // (a torn head after a crash mid-save counts here).
  std::string recovered_from;
  std::size_t recovery_discarded = 0;
};

struct RunOptions {
  // Retain full per-round updates in the result (Figs. 3, 6, 7 and the
  // detector analyses need them).
  bool keep_telemetry = false;

  // Deterministic checkpoint/resume (sim/checkpoint.h). When
  // checkpoint_save_path is set and checkpoint_round is in
  // (0, config.rounds), the run halts after `checkpoint_round` rounds,
  // saves its full state, and returns the partial result. When
  // checkpoint_load_path is set, the run restores that state and
  // continues to config.rounds; the combined run is bit-identical to an
  // uninterrupted one.
  std::string checkpoint_save_path;
  std::size_t checkpoint_round = 0;
  std::string checkpoint_load_path;

  // Durable periodic checkpointing (sim/checkpoint_store.h). When
  // checkpoint_save_path is set and checkpoint_every > 0, the run writes
  // a checkpoint through a rolling keep-last-`checkpoint_keep` chain
  // after every `checkpoint_every`-th round (and keeps running to
  // config.rounds unless checkpoint_round also halts it). Resume reads
  // through the same chain: a damaged head falls back to the newest
  // intact generation, recorded in ExperimentResult::recovered_from /
  // recovery_discarded.
  std::size_t checkpoint_every = 0;
  std::size_t checkpoint_keep = 3;

  // Chaos harness (sim/chaos.h): throw CrashInjected at the end of round
  // `crash_round` (0-based; kNoCrash disables). post_train fires before
  // any checkpoint of the round, mid_buffer right after it, mid_save
  // tears the head checkpoint mid-write; the latter two therefore
  // require periodic checkpointing to be on.
  std::size_t crash_round = kNoCrash;
  CrashPhase crash_phase = CrashPhase::post_train;
};

// The one gate every caller goes through: throws std::invalid_argument,
// naming the CLI flags involved, for any knob combination the simulator
// cannot run with its accounting intact. run_experiment calls it first,
// so a rejected config never builds data or runs round 0; the CLI calls
// it before printing its banner. Checks that need the checkpoint itself
// (fingerprints, the round budget) stay in run_experiment's resume path.
void validate(const ExperimentConfig& config, const RunOptions& options = {});

ExperimentResult run_experiment(const ExperimentConfig& config,
                                const RunOptions& options = {});

}  // namespace collapois::sim
