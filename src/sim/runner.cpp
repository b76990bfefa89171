#include "sim/runner.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>

#include "agg/lazy_federation.h"
#include "agg/lazy_population.h"
#include "agg/sharded_aggregator.h"
#include "attacks/poison_training_client.h"
#include "data/partition.h"
#include "defense/ditto.h"
#include "fl/faults.h"
#include "runtime/thread_pool.h"
#include "sim/chaos.h"
#include "sim/checkpoint.h"
#include "sim/checkpoint_store.h"
#include "data/synthetic_image.h"
#include "data/synthetic_text.h"
#include "fl/metafed.h"
#include "fl/server_algorithm.h"
#include "nn/zoo.h"
#include "stats/geometry.h"
#include "trojan/embedding_trigger.h"
#include "trojan/patch_trigger.h"
#include "trojan/poison.h"
#include "trojan/warp_trigger.h"

namespace collapois::sim {

namespace {

struct Workbench {
  data::FederatedData fed;  // eager mode; empty under lazy_clients
  // Lazy mode: per-client splits generated on first request from derived
  // seeds (agg/lazy_federation.h); null in eager mode.
  std::unique_ptr<agg::LazyFederation> lazy_fed;
  nn::Model architecture;                      // shared structure + theta^1
  std::unique_ptr<trojan::Trigger> eval_trigger;
  // Per-compromised-client training triggers (DBA parts; otherwise clones
  // of the evaluation trigger).
  std::vector<std::unique_ptr<trojan::Trigger>> train_triggers;
  std::size_t image_h = 0;
  std::size_t image_w = 0;

  // Mode-independent access to client i's local data. References stay
  // valid for the workbench's lifetime in both modes (vector built once;
  // map nodes are stable).
  const data::ClientSplit& client_data(std::size_t i) {
    return lazy_fed ? lazy_fed->client_data(i) : fed.clients[i];
  }
  std::size_t num_classes() const {
    return lazy_fed ? lazy_fed->num_classes() : fed.num_classes;
  }
};

Workbench build_workbench(const ExperimentConfig& cfg, stats::Rng& rng) {
  Workbench wb;
  if (cfg.dataset == DatasetKind::femnist_like) {
    data::SyntheticImageConfig icfg;
    const std::uint64_t data_seed = rng.next_u64();
    data::SyntheticImageGenerator gen(icfg, data_seed);
    if (cfg.lazy_clients) {
      wb.lazy_fed = std::make_unique<agg::LazyFederation>(
          cfg.n_clients, icfg.num_classes,
          agg::make_dirichlet_split_factory(gen, data_seed,
                                            cfg.samples_per_client,
                                            cfg.alpha));
    } else {
      wb.fed = data::build_federation(gen, cfg.n_clients,
                                      cfg.samples_per_client, cfg.alpha, rng);
    }
    nn::LeNetConfig mcfg;
    mcfg.height = icfg.height;
    mcfg.width = icfg.width;
    mcfg.num_classes = icfg.num_classes;
    wb.architecture = nn::make_lenet_small(mcfg);
    wb.image_h = icfg.height;
    wb.image_w = icfg.width;

    const std::uint64_t trigger_seed = rng.next_u64();
    if (cfg.attack == AttackKind::dba) {
      wb.eval_trigger = std::make_unique<trojan::PatchTrigger>(
          trojan::PatchTrigger::global_dba(icfg.height, icfg.width));
      for (const auto& part :
           trojan::PatchTrigger::dba_parts(icfg.height, icfg.width)) {
        wb.train_triggers.push_back(part.clone());
      }
    } else {
      trojan::WarpConfig wcfg;
      wcfg.height = icfg.height;
      wcfg.width = icfg.width;
      wb.eval_trigger =
          std::make_unique<trojan::WarpTrigger>(wcfg, trigger_seed);
      wb.train_triggers.push_back(wb.eval_trigger->clone());
    }
  } else {
    data::SyntheticTextConfig tcfg;
    const std::uint64_t data_seed = rng.next_u64();
    data::SyntheticTextGenerator gen(tcfg, data_seed);
    if (cfg.lazy_clients) {
      wb.lazy_fed = std::make_unique<agg::LazyFederation>(
          cfg.n_clients, tcfg.num_classes,
          agg::make_dirichlet_split_factory(gen, data_seed,
                                            cfg.samples_per_client,
                                            cfg.alpha));
    } else {
      wb.fed = data::build_federation(gen, cfg.n_clients,
                                      cfg.samples_per_client, cfg.alpha, rng);
    }
    nn::MlpConfig mcfg;
    mcfg.input_dim = tcfg.embedding_dim;
    mcfg.num_classes = tcfg.num_classes;
    wb.architecture = nn::make_mlp_head(mcfg);

    trojan::EmbeddingTriggerConfig ecfg;
    ecfg.dim = tcfg.embedding_dim;
    const trojan::EmbeddingTrigger whole(ecfg, rng.next_u64());
    wb.eval_trigger = whole.clone();
    if (cfg.attack == AttackKind::dba) {
      for (std::size_t k = 0; k < 4; ++k) {
        wb.train_triggers.push_back(whole.part(k, 4).clone());
      }
    } else {
      wb.train_triggers.push_back(whole.clone());
    }
  }
  wb.architecture.init(rng);
  return wb;
}

bool attack_needs_x(AttackKind kind) {
  return kind == AttackKind::collapois || kind == AttackKind::mrepl;
}

// The five fingerprints a checkpoint pins, each with the flags it covers:
// make_checkpoint writes every row and resume compares every row.
struct PinnedFingerprint {
  std::uint64_t Checkpoint::*saved;
  std::uint64_t current;
  const char* pins;
};

std::array<PinnedFingerprint, 5> pinned_fingerprints(
    const ExperimentConfig& cfg) {
  return {{
      {&Checkpoint::fingerprint, config_fingerprint(cfg),
       "experiment configuration (--dataset, --algorithm, --attack, "
       "--defense, --clients, --samples, --alpha, --fraction, --q, --strike, "
       "--seed, --norm-ceiling, --dropout/--straggler/--corrupt, --kernels, "
       "--defense-impl)"},
      {&Checkpoint::net_fingerprint, net_fingerprint(cfg.net),
       "network model (--net and every --net-* knob)"},
      {&Checkpoint::engine_fingerprint, engine_fingerprint(cfg),
       "round engine (--round-engine, --async-k/--async-t-ms/"
       "--async-max-staleness)"},
      {&Checkpoint::scale_fingerprint, scale_fingerprint(cfg),
       "scale-out topology (--shards, --lazy-clients)"},
      {&Checkpoint::codec_fingerprint, codec_fingerprint(cfg.codec),
       "update codec (--codec, --codec-bits/--codec-topk)"},
  }};
}

}  // namespace

void validate(const ExperimentConfig& cfg, const RunOptions& options) {
  net::validate_codec(cfg.codec);
  const bool metafed = cfg.algorithm == AlgorithmKind::metafed;
  const bool crash = options.crash_round != kNoCrash;
  const bool q_valid = cfg.sample_prob > 0.0 && cfg.sample_prob <= 1.0;
  // Each fault model draws one kind per decision from a stacked edge, so
  // its kinds' probabilities must fit in one unit interval.
  const double fault_mass = cfg.faults.dropout_prob +
                            cfg.faults.straggler_prob +
                            cfg.faults.corrupt_prob;
  const double shard_fault_mass = cfg.shard_faults.crash_prob +
                                  cfg.shard_faults.timeout_prob +
                                  cfg.shard_faults.corrupt_prob;
  // A shard count beyond the expected round cohort, ceil(q * n), means
  // structurally empty shards every round. Only a valid q reaches the
  // integer conversion, and n bounds it, so it cannot overflow.
  const double expected =
      q_valid ? std::ceil(cfg.sample_prob * static_cast<double>(cfg.n_clients))
              : 1.0;
  std::size_t expected_cohort = 1;
  if (expected >= static_cast<double>(cfg.n_clients)) {
    expected_cohort = cfg.n_clients;
  } else if (expected > 1.0) {
    expected_cohort = static_cast<std::size_t>(expected);
  }
  // Pairwise-distance rules (Krum, Multi-Krum, FLARE) declare that they
  // need the whole cohort. Ask the rule itself, as ShardedAggregator
  // does, so the refusal comes before any data is built.
  const bool cohort_only_sharded =
      !metafed && cfg.shards > 1 &&
      defense::make_defense(cfg.defense, cfg.defense_params, stats::Rng())
              ->shard_capability() == fl::ShardCapability::cohort_only;
  // MetaFed has no server round loop and no update channel, so none of
  // the planes built on them applies to it; only the DP-style defenses
  // have a MetaFed analogue (fl::MetaFedConfig).
  const struct {
    bool broken;
    std::string message;
  } rules[] = {
      {cfg.n_clients == 0, "--clients/--population must be at least 1"},
      {cfg.rounds == 0, "--rounds must be at least 1"},
      {!q_valid, "--q must be in (0, 1]"},
      {net::codec_is_lossy(cfg.codec.kind) && !cfg.net.enabled,
       "a lossy --codec requires the simulated transport (--net) — without "
       "a wire there is nothing to compress"},
      {cfg.shards == 0, "--shards must be at least 1"},
      {cfg.shards > cfg.n_clients,
       "--shards must not exceed the registered population "
       "(--clients/--population)"},
      {cfg.shards > expected_cohort,
       "--shards exceeds the expected round cohort (ceil(--q * --clients) = " +
           std::to_string(expected_cohort) +
           ") — shards would sit empty every round"},
      {metafed && (cfg.shards > 1 || cfg.lazy_clients),
       "--shards/--lazy-clients scale the server's round loop and do not "
       "apply to --algorithm metafed"},
      {cohort_only_sharded,
       std::string("--defense ") + defense::defense_name(cfg.defense) +
           " compares updates across the whole cohort and cannot be split "
           "over --shards; run it with --shards 1"},
      {cfg.lazy_clients && cfg.eval_max_clients == 0,
       "--lazy-clients requires --eval-max-clients > 0 — evaluating every "
       "client would materialize the whole registered population"},
      {cfg.net.enabled && cfg.net.latency_min_ms > cfg.net.latency_max_ms,
       "--net-latency-min must not exceed --net-latency-max"},
      {cfg.shard_faults.any() && cfg.shards <= 1,
       "--shard-* flags inject faults into the aggregation tree and require "
       "--shards > 1"},
      {!options.checkpoint_save_path.empty() &&
           options.checkpoint_round == 0 && options.checkpoint_every == 0,
       "--checkpoint also needs --checkpoint-round or --checkpoint-every"},
      {options.checkpoint_every > 0 && options.checkpoint_save_path.empty(),
       "--checkpoint-every needs --checkpoint PATH"},
      {options.checkpoint_keep == 0, "--checkpoint-keep must be at least 1"},
      {crash && options.crash_round >= cfg.rounds,
       "--crash-at round must be below --rounds — the crash would never "
       "fire"},
      {crash && options.crash_phase != CrashPhase::post_train &&
           options.checkpoint_every == 0,
       "--crash-at phases mid-buffer and mid-save interrupt the checkpoint "
       "write and need --checkpoint-every"},
      {metafed && cfg.round_engine != fl::RoundEngineKind::sync,
       "the round engine (--round-engine/--async-*) schedules the server's "
       "round loop and does not apply to --algorithm metafed"},
      {metafed && cfg.faults.any(),
       "client fault injection (--dropout/--straggler/--corrupt) targets the "
       "server's update channel and does not apply to --algorithm metafed"},
      {metafed && cfg.net.enabled,
       "the simulated transport (--net/--net-*) models the server's update "
       "channel and does not apply to --algorithm metafed"},
      {metafed && cfg.defense != defense::DefenseKind::none &&
           cfg.defense != defense::DefenseKind::dp &&
           cfg.defense != defense::DefenseKind::norm_bound,
       "--algorithm metafed supports only --defense none|dp|normbound — "
       "aggregation defenses (Krum/RLR/median/...) have no MetaFed analogue"},
      {cfg.defense == defense::DefenseKind::ditto &&
           cfg.algorithm != AlgorithmKind::fedavg,
       "--defense ditto is a client-side personalization defense and "
       "composes only with --algorithm fedavg"},
      {fault_mass > 1.0,
       "--dropout + --straggler + --corrupt must sum to at most 1 — a "
       "client draws at most one fault per round"},
      {shard_fault_mass > 1.0,
       "--shard-crash + --shard-timeout + --shard-corrupt must sum to at "
       "most 1 — a shard attempt draws at most one fault"},
      {cfg.round_engine == fl::RoundEngineKind::buffered_async &&
           cfg.async.k == 0 && cfg.async.t_ms <= 0.0,
       "--round-engine buffered_async needs an aggregation trigger: "
       "--async-k > 0 or --async-t-ms > 0"},
  };
  for (const auto& rule : rules) {
    if (rule.broken) throw std::invalid_argument(rule.message);
  }
}

ExperimentResult run_experiment(const ExperimentConfig& cfg,
                                const RunOptions& options) {
  validate(cfg, options);
  const auto pins = pinned_fingerprints(cfg);

  // Select the compute-kernel set before any client math runs (and before
  // the pool spawns — workers only ever read the registry).
  kernels::set_active_kernels(cfg.kernels);
  defense::set_active_defense_impl(cfg.defense_impl);

  // Parallel runtime: one pool for the whole experiment (round-loop
  // client dispatch + evaluation sweeps). Created before the algorithm so
  // it outlives every borrower; a resolved count of 1 means no pool at
  // all — the inline path is the sequential baseline.
  const std::size_t n_threads = runtime::resolve_thread_count(cfg.threads);
  std::unique_ptr<runtime::ThreadPool> pool;
  if (n_threads > 1) pool = std::make_unique<runtime::ThreadPool>(n_threads);

  stats::Rng rng(cfg.seed);
  Workbench wb = build_workbench(cfg, rng);
  const std::size_t n = cfg.n_clients;

  ExperimentResult result;

  // --- compromised set ------------------------------------------------
  std::vector<bool> compromised(n, false);
  if (cfg.attack != AttackKind::none) {
    std::size_t c = static_cast<std::size_t>(
        cfg.compromised_fraction * static_cast<double>(n) + 0.5);
    c = std::max<std::size_t>(c, 1);
    c = std::min(c, n);
    result.compromised_ids = rng.sample_without_replacement(n, c);
    for (std::size_t id : result.compromised_ids) compromised[id] = true;
  }

  // --- Trojaned model X (Eq. 1) ----------------------------------------
  data::Dataset auxiliary;
  if (cfg.attack != AttackKind::none) {
    // Under lazy_clients this materializes exactly the compromised
    // clients' splits — which their client objects need cached anyway.
    std::vector<const data::Dataset*> parts;
    for (std::size_t id : result.compromised_ids) {
      parts.push_back(&wb.client_data(id).validation);
      if (!cfg.aux_validation_only) {
        // Threat-model D_a = union of the compromised clients' local
        // datasets (see ExperimentConfig::aux_validation_only).
        parts.push_back(&wb.client_data(id).train);
      }
    }
    auxiliary = core::pool_auxiliary_data(parts);
    if (auxiliary.empty()) {
      // Degenerate split: fall back to the full local data.
      parts.clear();
      for (std::size_t id : result.compromised_ids) {
        parts.push_back(&wb.client_data(id).train);
      }
      auxiliary = core::pool_auxiliary_data(parts);
    }
    result.auxiliary_histogram = auxiliary.label_histogram();
  }
  // --- fault model -------------------------------------------------------
  // Created before the clients so both construction paths (the eager loop
  // below and the lazy factory) can wrap clients in the fault decorator.
  std::shared_ptr<fl::FaultModel> fault_model;
  if (cfg.faults.any()) {
    fault_model = std::make_shared<fl::FaultModel>(cfg.faults);
    if (cfg.round_engine == fl::RoundEngineKind::buffered_async) {
      // Overlapping cohorts observe out of round order and buffered
      // updates can legally be admitted up to max_staleness rounds after
      // launch: widen the stale-model retention window accordingly.
      fault_model->set_extra_retention(cfg.async.max_staleness + 1);
    }
  }

  // --- client population ------------------------------------------------
  // X-based attack clients start dormant (benign behaviour on their own
  // data); the attacker strikes at attack_start_round, training X from the
  // observed global model and arming them (see ExperimentConfig).
  std::vector<std::unique_ptr<fl::Client>> clients;
  std::vector<core::CollaPoisClient*> collapois_clients;
  std::vector<attacks::MReplClient*> mrepl_clients;
  clients.reserve(n);
  double mrepl_boost = cfg.mrepl.boost;
  if (mrepl_boost <= 0.0) {
    mrepl_boost =
        std::max(1.0, cfg.sample_prob * static_cast<double>(n)) /
        cfg.server_lr;
  }
  // Every training client clones this one read-only architecture per
  // call; none keeps a model of its own.
  const auto architecture = std::make_shared<const nn::Model>(wb.architecture);
  auto make_benign = [&](std::size_t i, stats::Rng crng)
      -> std::unique_ptr<fl::Client> {
    if (cfg.defense == defense::DefenseKind::ditto) {
      return std::make_unique<defense::DittoClient>(
          i, &wb.client_data(i).train, architecture, cfg.local_sgd,
          defense::DittoConfig{cfg.defense_params.ditto_lambda, 1},
          cfg.metafed_distill_weight, std::move(crng));
    }
    if (cfg.algorithm == AlgorithmKind::feddc) {
      return std::make_unique<fl::FedDcClient>(
          i, &wb.client_data(i).train, architecture, cfg.local_sgd,
          cfg.feddc_penalty, cfg.metafed_distill_weight, std::move(crng));
    }
    return std::make_unique<fl::BenignClient>(
        i, &wb.client_data(i).train, architecture, cfg.local_sgd,
        cfg.metafed_distill_weight, std::move(crng));
  };
  // Builds client i with its per-client RNG already positioned — shared
  // between the eager loop (forked stream) and the lazy factory (derived
  // seeds). `dba_ordinal` is i's rank among the compromised ids, which
  // for the eager id-order loop reproduces the original running counter.
  auto make_client = [&](std::size_t i, stats::Rng crng,
                         std::size_t dba_ordinal)
      -> std::unique_ptr<fl::Client> {
    if (!compromised[i]) return make_benign(i, std::move(crng));
    switch (cfg.attack) {
      case AttackKind::collapois: {
        // Clients materialized after the strike are born armed:
        // result.trojaned_model is empty until arm_attackers() runs (and
        // is restored before any lazy materialization on resume).
        auto c = std::make_unique<core::CollaPoisClient>(
            i, result.trojaned_model, cfg.collapois, crng.fork(),
            make_benign(i, std::move(crng)));
        collapois_clients.push_back(c.get());
        return c;
      }
      case AttackKind::mrepl: {
        attacks::MReplConfig mc = cfg.mrepl;
        mc.boost = mrepl_boost;
        auto c = std::make_unique<attacks::MReplClient>(
            i, result.trojaned_model, mc, make_benign(i, std::move(crng)));
        mrepl_clients.push_back(c.get());
        return c;
      }
      case AttackKind::dpois:
        return attacks::make_dpois_client(
            i, wb.client_data(i).train, *wb.train_triggers[0], cfg.dpois,
            architecture, cfg.local_sgd, cfg.metafed_distill_weight,
            std::move(crng));
      case AttackKind::dba: {
        const auto& part =
            *wb.train_triggers[dba_ordinal % wb.train_triggers.size()];
        data::Dataset poisoned = trojan::mix_poison(
            wb.client_data(i).train, part, cfg.dba.target_label,
            cfg.dba.poison_fraction, crng);
        return std::make_unique<attacks::PoisonTrainingClient>(
            i, std::move(poisoned), architecture, cfg.local_sgd,
            cfg.metafed_distill_weight, std::move(crng));
      }
      case AttackKind::none:
        break;
    }
    throw std::logic_error("unreachable");
  };
  agg::LazyClientPopulation::Factory lazy_factory;
  if (cfg.lazy_clients) {
    // Lazy universe: per-client RNGs come from index-derived seeds (a
    // client materialized at round 50 is byte-identical to the same
    // client materialized at round 0), and the DBA part is the client's
    // rank among the compromised ids — both pure functions of i, so the
    // materialization order cannot matter.
    const std::uint64_t client_seed_base = rng.next_u64();
    std::vector<std::size_t> sorted_compromised = result.compromised_ids;
    std::sort(sorted_compromised.begin(), sorted_compromised.end());
    lazy_factory = [&, client_seed_base, fault_model,
                    sorted_compromised](std::size_t i)
        -> std::unique_ptr<fl::Client> {
      // Serialized by the population's materialization lock, so the
      // attack-client registries need no extra guard.
      stats::Rng crng(agg::derive_client_seed(client_seed_base, i));
      const std::size_t ordinal = static_cast<std::size_t>(
          std::lower_bound(sorted_compromised.begin(),
                           sorted_compromised.end(), i) -
          sorted_compromised.begin());
      auto c = make_client(i, std::move(crng), ordinal);
      if (fault_model) {
        c = std::make_unique<fl::FaultyClient>(std::move(c), fault_model);
      }
      return c;
    };
  } else {
    std::size_t dba_part = 0;
    for (std::size_t i = 0; i < n; ++i) {
      stats::Rng crng = rng.fork();
      clients.push_back(make_client(i, std::move(crng), dba_part));
      if (compromised[i]) ++dba_part;
    }
  }

  // --- fault injection ---------------------------------------------------
  // Wrap every client (benign and compromised alike — churn is
  // environmental) in the fault decorator. The raw attack-client pointers
  // captured above stay valid: the wrapper owns the inner client without
  // moving it. The lazy factory applies the same wrap per materialized
  // client.
  if (fault_model) {
    for (auto& c : clients) {
      c = std::make_unique<fl::FaultyClient>(std::move(c), fault_model);
    }
  }

  // --- simulated transport ------------------------------------------------
  std::unique_ptr<net::NetworkModel> net_model;
  if (cfg.net.enabled) {
    net_model = std::make_unique<net::NetworkModel>(cfg.net);
  }

  // --- federated algorithm ----------------------------------------------
  std::unique_ptr<fl::FlAlgorithm> algo;
  if (cfg.algorithm == AlgorithmKind::metafed) {
    fl::MetaFedConfig mcfg;
    mcfg.sample_prob = cfg.sample_prob;
    switch (cfg.defense) {
      case defense::DefenseKind::none:
        break;
      case defense::DefenseKind::dp:
        mcfg.clip = cfg.defense_params.clip;
        mcfg.noise_std = cfg.defense_params.noise_multiplier *
                         cfg.defense_params.clip / 10.0;
        break;
      case defense::DefenseKind::norm_bound:
        mcfg.clip = cfg.defense_params.clip;
        mcfg.noise_std = cfg.defense_params.noise_std;
        break;
      default:  // refused by validate()
        break;
    }
    algo = std::make_unique<fl::MetaFedAlgorithm>(
        std::move(clients), wb.architecture, mcfg, rng.fork());
  } else {
    auto aggregator = defense::make_defense(cfg.defense, cfg.defense_params,
                                            rng.fork());
    if (cfg.shards > 1) {
      // The aggregation tree root (agg/sharded_aggregator.h). validate()
      // has already refused cohort_only defenses; the constructor's own
      // check is for library callers. The shard fault model (if any)
      // rides inside the tree: failover keeps degraded rounds
      // bit-identical, so nothing above this line knows faults exist
      // except the telemetry.
      std::shared_ptr<agg::ShardFaultModel> shard_fault_model;
      if (cfg.shard_faults.any()) {
        shard_fault_model =
            std::make_shared<agg::ShardFaultModel>(cfg.shard_faults);
      }
      aggregator = std::make_unique<agg::ShardedAggregator>(
          std::move(aggregator), cfg.shards, std::move(shard_fault_model));
    }
    fl::ServerConfig scfg;
    scfg.learning_rate = cfg.server_lr;
    scfg.sample_prob = cfg.sample_prob;
    scfg.update_norm_ceiling = cfg.update_norm_ceiling;
    scfg.pool = pool.get();
    scfg.net = net_model.get();
    scfg.codec = cfg.codec;
    scfg.engine = cfg.round_engine;
    scfg.async = cfg.async;
    if (cfg.lazy_clients) {
      algo = std::make_unique<fl::ServerAlgorithm>(
          std::string(algorithm_name(cfg.algorithm)),
          wb.architecture.get_parameters(), std::move(aggregator), scfg,
          std::make_unique<agg::LazyClientPopulation>(
              n, std::move(lazy_factory)),
          rng.fork());
    } else {
      algo = std::make_unique<fl::ServerAlgorithm>(
          std::string(algorithm_name(cfg.algorithm)),
          wb.architecture.get_parameters(), std::move(aggregator), scfg,
          std::move(clients), rng.fork());
    }
  }

  // --- round loop ---------------------------------------------------------
  metrics::EvalConfig periodic_eval;
  periodic_eval.target_label = cfg.target_label;
  periodic_eval.max_clients = cfg.eval_max_clients;
  periodic_eval.pool = pool.get();

  // Mode-independent evaluation sweep: eager mode indexes the built
  // federation; lazy mode goes through the split provider so only the
  // evaluated clients' data materializes.
  auto eval_clients = [&](const metrics::EvalConfig& ec) {
    if (cfg.lazy_clients) {
      return metrics::evaluate_clients(
          *algo, n,
          [&](std::size_t i) -> const data::ClientSplit& {
            return wb.client_data(i);
          },
          *wb.eval_trigger, wb.architecture, compromised, ec);
    }
    return metrics::evaluate_clients(*algo, wb.fed, *wb.eval_trigger,
                                     wb.architecture, compromised, ec);
  };

  auto arm_attackers = [&]() {
    if (!attack_needs_x(cfg.attack) || !result.trojaned_model.empty()) return;
    // The attacker warm-starts X from the current global model (received
    // by every compromised client) and fine-tunes on D_a union D_a^Troj.
    nn::Model attacker_model = wb.architecture;
    attacker_model.set_parameters(algo->global_params());
    stats::Rng attacker_rng = rng.fork();
    auto trained = core::train_trojaned_model(std::move(attacker_model),
                                              auxiliary, *wb.train_triggers[0],
                                              cfg.trojan_train, attacker_rng);
    result.trojaned_model = std::move(trained.x);
    for (auto* c : collapois_clients) {
      c->set_trojaned_model(result.trojaned_model);
    }
    for (auto* c : mrepl_clients) c->set_trojaned_model(result.trojaned_model);
  };

  // --- resume ------------------------------------------------------------
  std::size_t start_round = 0;
  if (!options.checkpoint_load_path.empty()) {
    // Resume reads through the rolling chain (sim/checkpoint_store.h):
    // an intact head behaves exactly like the old single-file load; a
    // damaged head falls back to the newest intact generation and the
    // recovery is recorded in the result. keep_last bounds how far back
    // the walk goes.
    const CheckpointStore load_store(options.checkpoint_load_path,
                                     options.checkpoint_keep);
    CheckpointStore::Recovery recovery = load_store.load_newest();
    const Checkpoint ck = std::move(recovery.checkpoint);
    result.recovered_from = recovery.path;
    result.recovery_discarded = recovery.discarded;
    for (const PinnedFingerprint& pin : pins) {
      if (ck.*pin.saved != pin.current) {
        throw std::invalid_argument(
            std::string("run_experiment: checkpoint was saved under a "
                        "different ") +
            pin.pins + "; resume with the configuration it was taken under");
      }
    }
    if (ck.rounds_completed > cfg.rounds) {
      throw std::invalid_argument(
          "run_experiment: the checkpoint has completed more rounds than "
          "--rounds allows");
    }
    start_round = ck.rounds_completed;
    rng.set_state(ck.run_rng);
    if (!ck.trojaned_model.empty()) {
      // Re-arm from the saved X instead of retraining it; the fork the
      // original arming consumed is already reflected in the restored
      // RNG state.
      result.trojaned_model = ck.trojaned_model;
      for (auto* c : collapois_clients) {
        c->set_trojaned_model(result.trojaned_model);
      }
      for (auto* c : mrepl_clients) {
        c->set_trojaned_model(result.trojaned_model);
      }
    }
    if (fault_model) {
      fl::StateReader r(ck.fault_state);
      fault_model->load_state(r);
    }
    if (net_model) {
      fl::StateReader r(ck.net_state);
      net_model->load_state(r);
    }
    fl::StateReader r(ck.algo_state);
    algo->load_state(r);
  }

  const bool periodic_saves =
      !options.checkpoint_save_path.empty() && options.checkpoint_every > 0;
  const bool save_requested =
      !options.checkpoint_save_path.empty() && options.checkpoint_round > 0 &&
      options.checkpoint_round < cfg.rounds;
  const std::size_t stop_round =
      save_requested ? options.checkpoint_round : cfg.rounds;
  if (save_requested && options.checkpoint_round <= start_round) {
    throw std::invalid_argument(
        "run_experiment: --checkpoint-round must be past the --resume "
        "point");
  }

  // The durable rolling chain for periodic saves (and for the one-shot
  // halt save below, so both paths share rotation and atomicity).
  std::unique_ptr<CheckpointStore> store;
  if (!options.checkpoint_save_path.empty()) {
    store = std::make_unique<CheckpointStore>(options.checkpoint_save_path,
                                              options.checkpoint_keep);
  }
  // Every piece of mutable round-loop state, frozen as of
  // `rounds_completed`. Shared by the periodic saves, the chaos
  // mid-save tear, and the one-shot halt save.
  auto make_checkpoint = [&](std::size_t rounds_completed) {
    Checkpoint ck;
    for (const PinnedFingerprint& pin : pins) ck.*pin.saved = pin.current;
    ck.rounds_completed = rounds_completed;
    ck.run_rng = rng.state();
    ck.trojaned_model = result.trojaned_model;
    if (fault_model) {
      fl::StateWriter w;
      fault_model->save_state(w);
      ck.fault_state = w.take();
    }
    if (net_model) {
      fl::StateWriter w;
      net_model->save_state(w);
      ck.net_state = w.take();
    }
    fl::StateWriter w;
    algo->save_state(w);
    ck.algo_state = w.take();
    return ck;
  };

  for (std::size_t t = start_round; t < stop_round; ++t) {
    if (t >= cfg.attack_start_round) arm_attackers();
    fl::RoundTelemetry telemetry = algo->run_round();
    RoundRecord rec;
    static_cast<fl::RoundStats&>(rec) = telemetry;
    rec.angles = metrics::summarize_round_angles(telemetry);
    rec.n_accepted = telemetry.sampled_ids.size();
    rec.n_dropped = telemetry.dropped_ids.size();
    rec.n_rejected = telemetry.rejected_ids.size();
    rec.n_stale_discarded = static_cast<std::size_t>(
        std::count(telemetry.drop_reasons.begin(), telemetry.drop_reasons.end(),
                   fl::DropReason::stale_discarded));
    if (!result.trojaned_model.empty() &&
        cfg.algorithm != AlgorithmKind::metafed) {
      rec.distance_to_x = stats::l2_distance(algo->global_params(),
                                             result.trojaned_model);
    }
    if (cfg.eval_every > 0 && (t + 1) % cfg.eval_every == 0) {
      const auto evals = eval_clients(periodic_eval);
      rec.population = metrics::average_benign(evals);
    }
    result.rounds.push_back(std::move(rec));
    if (options.keep_telemetry) {
      result.telemetry.push_back(std::move(telemetry));
    }

    // --- chaos + periodic durability (DESIGN.md §13) --------------------
    // Ordering is the contract: post_train fires BEFORE the round's
    // checkpoint exists (the round is lost), mid_save tears the write
    // itself, mid_buffer fires right AFTER the save (the newest
    // checkpoint carries the engine's in-flight buffer state).
    const bool crash_here = t == options.crash_round;
    if (crash_here && options.crash_phase == CrashPhase::post_train) {
      throw CrashInjected(t, CrashPhase::post_train);
    }
    const bool periodic_due =
        periodic_saves && (t + 1) % options.checkpoint_every == 0;
    if (periodic_due || crash_here) {
      const Checkpoint ck = make_checkpoint(t + 1);
      if (crash_here && options.crash_phase == CrashPhase::mid_save) {
        store->save_torn(ck, 0.5);
        throw CrashInjected(t, CrashPhase::mid_save);
      }
      store->save(ck);
      if (crash_here) throw CrashInjected(t, CrashPhase::mid_buffer);
    }
  }

  // --- checkpoint ---------------------------------------------------------
  // Saved BEFORE the final evaluation below: evaluation trains personal
  // models off client RNG streams, and those draws belong to the resumed
  // run, not the frozen state.
  if (save_requested) {
    store->save(make_checkpoint(stop_round));
  }

  // --- final client-level evaluation ---------------------------------------
  result.final_global = algo->global_params();
  metrics::EvalConfig final_eval;
  final_eval.target_label = cfg.target_label;
  // Lazy mode keeps the eval_max_clients bound even for the final sweep:
  // evaluating the full registered population would materialize it.
  final_eval.max_clients = cfg.lazy_clients ? cfg.eval_max_clients : 0;
  final_eval.pool = pool.get();
  result.final_evals = eval_clients(final_eval);
  result.population = metrics::average_benign(result.final_evals);

  // The proximity analysis only reads the evaluated clients' histograms,
  // so lazy mode fills exactly those slots (their splits are already
  // cached by the sweep above).
  std::vector<std::vector<double>> histograms;
  if (cfg.lazy_clients) {
    histograms.resize(n);
    for (const auto& e : result.final_evals) {
      histograms[e.client_index] = wb.lazy_fed->client_histogram(e.client_index);
    }
  } else {
    histograms = wb.fed.client_label_histograms();
  }
  std::vector<double> aux_hist = result.auxiliary_histogram;
  if (aux_hist.empty()) aux_hist.assign(wb.num_classes(), 1.0);
  result.clusters = metrics::risk_clusters(result.final_evals, {1, 25, 50},
                                           histograms, aux_hist);
  return result;
}

}  // namespace collapois::sim
