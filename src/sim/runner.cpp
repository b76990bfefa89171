#include "sim/runner.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

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

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& cfg,
                                const RunOptions& options) {
  if (cfg.rounds == 0) throw std::invalid_argument("run_experiment: 0 rounds");

  // --- scale-out validation ----------------------------------------------
  if (cfg.shards == 0) {
    throw std::invalid_argument("run_experiment: --shards must be >= 1");
  }
  if (cfg.shards > cfg.n_clients) {
    throw std::invalid_argument(
        "run_experiment: --shards exceeds the registered population — a "
        "shard without any possible member is a configuration error");
  }
  if ((cfg.shards > 1 || cfg.lazy_clients) &&
      cfg.algorithm == AlgorithmKind::metafed) {
    throw std::invalid_argument(
        "run_experiment: the sharded aggregation tree and lazy populations "
        "scale the server's round loop and do not apply to MetaFed");
  }
  if (cfg.lazy_clients && cfg.eval_max_clients == 0) {
    throw std::invalid_argument(
        "run_experiment: --lazy-clients requires --eval-max-clients > 0 — "
        "evaluating every client would materialize the whole registered "
        "population and defeat lazy instantiation");
  }
  if (cfg.shard_faults.any() && cfg.shards <= 1) {
    throw std::invalid_argument(
        "run_experiment: shard faults need an aggregation tree to fault — "
        "--shard-* flags require --shards > 1");
  }

  // --- chaos / durability validation -------------------------------------
  const bool periodic_saves =
      !options.checkpoint_save_path.empty() && options.checkpoint_every > 0;
  if (options.crash_round != kNoCrash && options.crash_round >= cfg.rounds) {
    throw std::invalid_argument(
        "run_experiment: crash_round is past the round budget — the crash "
        "would never fire");
  }
  if (options.crash_round != kNoCrash &&
      options.crash_phase != CrashPhase::post_train && !periodic_saves) {
    throw std::invalid_argument(
        "run_experiment: crash phases mid-buffer and mid-save interrupt the "
        "checkpoint write and need periodic checkpointing "
        "(checkpoint_save_path + checkpoint_every) to be configured");
  }

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
    if (cfg.algorithm == AlgorithmKind::metafed) {
      throw std::invalid_argument(
          "run_experiment: fault injection targets the server's update "
          "channel and does not apply to MetaFed");
    }
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
  if (cfg.defense == defense::DefenseKind::ditto &&
      cfg.algorithm != AlgorithmKind::fedavg) {
    throw std::invalid_argument(
        "run_experiment: Ditto is a client-side personalization defense "
        "and composes only with FedAvg");
  }
  auto make_benign = [&](std::size_t i, stats::Rng crng)
      -> std::unique_ptr<fl::Client> {
    if (cfg.defense == defense::DefenseKind::ditto) {
      return std::make_unique<defense::DittoClient>(
          i, &wb.client_data(i).train, wb.architecture, cfg.local_sgd,
          defense::DittoConfig{cfg.defense_params.ditto_lambda, 1},
          cfg.metafed_distill_weight, std::move(crng));
    }
    if (cfg.algorithm == AlgorithmKind::feddc) {
      return std::make_unique<fl::FedDcClient>(
          i, &wb.client_data(i).train, wb.architecture, cfg.local_sgd,
          cfg.feddc_penalty, cfg.metafed_distill_weight, std::move(crng));
    }
    return std::make_unique<fl::BenignClient>(
        i, &wb.client_data(i).train, wb.architecture, cfg.local_sgd,
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
            wb.architecture, cfg.local_sgd, cfg.metafed_distill_weight,
            std::move(crng));
      case AttackKind::dba: {
        const auto& part =
            *wb.train_triggers[dba_ordinal % wb.train_triggers.size()];
        data::Dataset poisoned = trojan::mix_poison(
            wb.client_data(i).train, part, cfg.dba.target_label,
            cfg.dba.poison_fraction, crng);
        return std::make_unique<attacks::PoisonTrainingClient>(
            i, std::move(poisoned), wb.architecture, cfg.local_sgd,
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
    if (cfg.algorithm == AlgorithmKind::metafed) {
      throw std::invalid_argument(
          "run_experiment: the simulated transport models the server's "
          "update channel and does not apply to MetaFed");
    }
    net_model = std::make_unique<net::NetworkModel>(cfg.net);
  }
  net::validate_codec(cfg.codec);
  if (net::codec_is_lossy(cfg.codec.kind) && !cfg.net.enabled) {
    throw std::invalid_argument(
        "run_experiment: a lossy --codec requires the simulated transport "
        "(--net) — without a wire there is nothing to compress");
  }

  // --- federated algorithm ----------------------------------------------
  std::unique_ptr<fl::FlAlgorithm> algo;
  if (cfg.algorithm == AlgorithmKind::metafed) {
    if (cfg.round_engine != fl::RoundEngineKind::sync) {
      throw std::invalid_argument(
          "run_experiment: the round engine schedules the server's round "
          "loop and does not apply to MetaFed");
    }
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
      default:
        throw std::invalid_argument(
            "run_experiment: aggregation defenses (Krum/RLR/median/...) are "
            "not applicable to MetaFed");
    }
    algo = std::make_unique<fl::MetaFedAlgorithm>(
        std::move(clients), wb.architecture, mcfg, rng.fork());
  } else {
    auto aggregator = defense::make_defense(cfg.defense, cfg.defense_params,
                                            rng.fork());
    if (cfg.shards > 1) {
      // The aggregation tree root (agg/sharded_aggregator.h). Throws here
      // — before any round runs — when the defense is cohort_only. The
      // shard fault model (if any) rides inside the tree: failover keeps
      // degraded rounds bit-identical, so nothing above this line knows
      // faults exist except the telemetry.
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
                                     std::max<std::size_t>(
                                         options.checkpoint_keep, 1));
    CheckpointStore::Recovery recovery = load_store.load_newest();
    const Checkpoint ck = std::move(recovery.checkpoint);
    result.recovered_from = recovery.path;
    result.recovery_discarded = recovery.discarded;
    if (ck.fingerprint != config_fingerprint(cfg)) {
      throw std::invalid_argument(
          "run_experiment: checkpoint was saved under a different "
          "experiment configuration");
    }
    if (ck.net_fingerprint != net_fingerprint(cfg.net)) {
      throw std::invalid_argument(
          "run_experiment: checkpoint was saved under a different network "
          "model — the transport was toggled or a --net-* parameter "
          "(loss/corruption/duplication/latency/deadline/retry/backoff/"
          "over-sampling/seed) changed since the checkpoint; resume with "
          "the exact transport configuration the checkpoint was taken "
          "under");
    }
    if (ck.engine_fingerprint != engine_fingerprint(cfg)) {
      throw std::invalid_argument(
          "run_experiment: checkpoint was saved under a different round "
          "engine — the engine kind (--round-engine) or a buffered-async "
          "knob (--async-k/--async-t-ms/--async-max-staleness) changed "
          "since the checkpoint; resume with the exact round-engine "
          "configuration the checkpoint was taken under");
    }
    if (ck.scale_fingerprint != scale_fingerprint(cfg)) {
      throw std::invalid_argument(
          "run_experiment: checkpoint was saved under a different scale-out "
          "topology — the shard count (--shards) or the population mode "
          "(--lazy-clients) changed since the checkpoint; lazy and eager "
          "runs are different deterministic universes and the lazy state "
          "blob stores only the materialized subset, so resume with the "
          "exact scale configuration the checkpoint was taken under");
    }
    if (ck.codec_fingerprint != codec_fingerprint(cfg.codec)) {
      throw std::invalid_argument(
          "run_experiment: checkpoint was saved under a different update "
          "codec — the codec kind (--codec) or one of its knobs "
          "(--codec-bits/--codec-topk) changed since the checkpoint; a "
          "lossy codec's quantization noise is part of the trajectory, so "
          "resume with the exact codec configuration the checkpoint was "
          "taken under");
    }
    if (ck.rounds_completed > cfg.rounds) {
      throw std::invalid_argument(
          "run_experiment: checkpoint is past this config's round budget");
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

  const bool save_requested =
      !options.checkpoint_save_path.empty() && options.checkpoint_round > 0 &&
      options.checkpoint_round < cfg.rounds;
  const std::size_t stop_round =
      save_requested ? options.checkpoint_round : cfg.rounds;
  if (save_requested && options.checkpoint_round <= start_round) {
    throw std::invalid_argument(
        "run_experiment: checkpoint_round must be past the resume point");
  }

  // The durable rolling chain for periodic saves (and for the one-shot
  // halt save below, so both paths share rotation and atomicity).
  std::unique_ptr<CheckpointStore> store;
  if (!options.checkpoint_save_path.empty()) {
    store = std::make_unique<CheckpointStore>(
        options.checkpoint_save_path,
        std::max<std::size_t>(options.checkpoint_keep, 1));
  }
  // Every piece of mutable round-loop state, frozen as of
  // `rounds_completed`. Shared by the periodic saves, the chaos
  // mid-save tear, and the one-shot halt save.
  auto make_checkpoint = [&](std::size_t rounds_completed) {
    Checkpoint ck;
    ck.fingerprint = config_fingerprint(cfg);
    ck.net_fingerprint = net_fingerprint(cfg.net);
    ck.engine_fingerprint = engine_fingerprint(cfg);
    ck.scale_fingerprint = scale_fingerprint(cfg);
    ck.codec_fingerprint = codec_fingerprint(cfg.codec);
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
    rec.round = t;
    rec.angles = metrics::summarize_round_angles(telemetry);
    rec.n_accepted = telemetry.sampled_ids.size();
    rec.n_dropped = telemetry.dropped_ids.size();
    rec.n_rejected = telemetry.rejected_ids.size();
    rec.n_stragglers = telemetry.n_stragglers;
    rec.aggregate_skipped = telemetry.aggregate_skipped;
    rec.cohort_size = telemetry.cohort_size;
    rec.transport = telemetry.transport;
    for (fl::DropReason reason : telemetry.drop_reasons) {
      if (reason == fl::DropReason::stale_discarded) ++rec.n_stale_discarded;
    }
    rec.n_dispatched = telemetry.n_dispatched;
    rec.n_buffered = telemetry.n_buffered;
    rec.virtual_now_ms = telemetry.virtual_now_ms;
    rec.staleness_hist = telemetry.staleness_hist;
    rec.wall_ms = telemetry.wall_ms;
    rec.train_ms = telemetry.train_ms;
    rec.agg_ms = telemetry.agg_ms;
    rec.clients_per_sec = telemetry.clients_per_sec;
    rec.peak_rss_bytes = telemetry.peak_rss_bytes;
    rec.n_materialized = telemetry.n_materialized;
    rec.shard_failures = telemetry.infra.shard_failures;
    rec.shard_retries = telemetry.infra.shard_retries;
    rec.shard_failovers = telemetry.infra.shard_failovers;
    rec.shard_backoff_ms = telemetry.infra.backoff_virtual_ms;
    rec.degraded = telemetry.infra.degraded;
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
