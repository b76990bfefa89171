#include "harness.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "agg/lazy_federation.h"
#include "agg/lazy_population.h"
#include "agg/sharded_aggregator.h"
#include "core/collapois_client.h"
#include "core/trojan_trainer.h"
#include "data/partition.h"
#include "data/synthetic_image.h"
#include "data/synthetic_text.h"
#include "fl/server_algorithm.h"
#include "kernels/kernels.h"
#include "metrics/clusters.h"
#include "metrics/telemetry.h"
#include "net/codec.h"
#include "nn/loss.h"
#include "nn/zoo.h"
#include "runtime/rss.h"
#include "runtime/thread_pool.h"
#include "sim/checkpoint.h"
#include "sim/checkpoint_store.h"
#include "stats/geometry.h"
#include "stats/summary.h"
#include "trojan/embedding_trigger.h"
#include "trojan/warp_trigger.h"

namespace collapois::bench {

const std::vector<MetricDef>& layer_metric_defs() {
  static const std::vector<MetricDef> defs = {
      {"data.build_federation_ms", "ms"},
      {"data.clients_materialize_ms", "ms"},
      {"data.clients_materialized", "count"},
      {"core.train_trojaned_model_ms", "ms"},
      {"core.aux_samples", "count"},
      {"fl.run_round_ms.p50", "ms"},
      {"fl.run_round_ms.sum", "ms"},
      {"fl.run_round.calls", "count"},
      {"fl.compute_update_ms.p50", "ms"},
      {"fl.compute_update_ms.sum", "ms"},
      {"fl.compute_update.calls", "count"},
      {"fl.engine_self_ms.sum", "ms"},
      {"fl.accepted_share", "share"},
      {"runtime.worker_busy_share", "share"},
      {"runtime.peak_rss_mib.after_setup", "MiB"},
      {"runtime.peak_rss_mib.after_strike", "MiB"},
      {"runtime.peak_rss_mib.after_rounds", "MiB"},
      {"runtime.peak_rss_mib.after_eval", "MiB"},
      {"defense.aggregate_ms.p50", "ms"},
      {"defense.aggregate_ms.sum", "ms"},
      {"defense.aggregate.rows", "count"},
      {"net.wire_bytes_per_round", "bytes"},
      {"net.compression_ratio", "ratio"},
      {"net.retries_per_round", "count"},
      {"net.dropped_share", "share"},
      {"net.encode_us.p50", "us"},
      {"net.decode_us.p50", "us"},
      {"net.replayed_updates", "count"},
      {"metrics.round_angles_ms.p50", "ms"},
      {"metrics.round_angles_ms.sum", "ms"},
      {"metrics.evaluate_clients_ms.sum", "ms"},
      {"metrics.evaluated_clients", "count"},
      {"sim.checkpoint_save_ms.p50", "ms"},
      {"sim.checkpoint_bytes", "bytes"},
      {"sim.checkpoint_saves", "count"},
      {"nn.fwd_us", "us"},
      {"nn.bwd_us", "us"},
      {"nn.L0.fwd_us", "us"},
      {"nn.L0.bwd_us", "us"},
      {"nn.L1.fwd_us", "us"},
      {"nn.L1.bwd_us", "us"},
      {"nn.L2.fwd_us", "us"},
      {"nn.L2.bwd_us", "us"},
      {"nn.L3.fwd_us", "us"},
      {"nn.L3.bwd_us", "us"},
      {"nn.L4.fwd_us", "us"},
      {"nn.L4.bwd_us", "us"},
      {"trace.coverage", "share"},
      {"trace.wall_ratio", "ratio"},
  };
  return defs;
}

namespace {

// Layers shared by every workload's model: the MLP head has five, LeNet
// ten. Deeper layers appear only in TracedCampaign::nn_layers.
constexpr std::size_t kListedLayers = 5;
constexpr std::size_t kReplayUpdates = 256;
constexpr int kLayerPasses = 50;
constexpr int kCheckpointReplays = 5;

double us_since(runtime::WallInstant start) {
  return runtime::ms_since(start) * 1000.0;
}

double mib(std::size_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

// NaN for no samples, so a p50 whose spans vanished fails the result's
// finiteness check instead of reading 0.
double median_of(const std::vector<double>& xs) {
  return xs.empty() ? std::nan("") : stats::median(xs);
}

double sum_of(const std::vector<double>& xs) {
  return std::accumulate(xs.begin(), xs.end(), 0.0);
}

// fl::Client decorator that times compute_update, in the style of
// fl::FaultyClient. Everything else forwards untouched.
class TimedClient final : public fl::Client {
 public:
  TimedClient(std::unique_ptr<fl::Client> inner, SpanRecorder& rec)
      : inner_(std::move(inner)), rec_(rec) {}

  std::size_t id() const override { return inner_->id(); }
  bool is_compromised() const override { return inner_->is_compromised(); }
  std::uint32_t codec_capabilities() const override {
    return inner_->codec_capabilities();
  }
  fl::ClientUpdate compute_update(const fl::RoundContext& ctx) override {
    const auto start = runtime::wall_now();
    fl::ClientUpdate u = inner_->compute_update(ctx);
    rec_.record("fl.compute_update", start, runtime::wall_now());
    return u;
  }
  tensor::FlatVec eval_params(std::span<const float> global) override {
    return inner_->eval_params(global);
  }
  void distill_round(nn::Model& personal, nn::Model& teacher) override {
    inner_->distill_round(personal, teacher);
  }
  void save_state(fl::StateWriter& w) const override { inner_->save_state(w); }
  void load_state(fl::StateReader& r) override { inner_->load_state(r); }

 private:
  std::unique_ptr<fl::Client> inner_;
  SpanRecorder& rec_;
};

// fl::Aggregator decorator that times aggregate() and forwards every hook
// the round engine and checkpoints use. It sits outermost, so on sharded
// workloads it times the whole tree and is never sharded itself.
class TimedAggregator final : public fl::Aggregator {
 public:
  TimedAggregator(std::unique_ptr<fl::Aggregator> inner, SpanRecorder& rec,
                  std::size_t& rows)
      : inner_(std::move(inner)), rec_(rec), rows_(rows) {}

  void begin_round(std::size_t round) override { inner_->begin_round(round); }
  fl::InfraStats take_infra_stats() override {
    return inner_->take_infra_stats();
  }
  void post_update(tensor::FlatVec& params) override {
    inner_->post_update(params);
  }
  void save_state(fl::StateWriter& w) const override { inner_->save_state(w); }
  void load_state(fl::StateReader& r) override { inner_->load_state(r); }
  std::string name() const override { return inner_->name(); }

 protected:
  tensor::FlatVec do_aggregate(const std::vector<fl::ClientUpdate>& updates,
                               std::span<const float> global,
                               runtime::ThreadPool* pool) override {
    const auto start = runtime::wall_now();
    tensor::FlatVec out = inner_->aggregate(updates, global, pool);
    rec_.record("defense.aggregate", start, runtime::wall_now());
    rows_ += updates.size();
    return out;
  }

 private:
  std::unique_ptr<fl::Aggregator> inner_;
  SpanRecorder& rec_;
  std::size_t& rows_;
};

void check_supported(const sim::ExperimentConfig& cfg,
                     const sim::RunOptions& options) {
  if (cfg.algorithm != sim::AlgorithmKind::fedavg ||
      cfg.attack != sim::AttackKind::collapois ||
      cfg.defense == defense::DefenseKind::ditto || cfg.faults.any() ||
      cfg.shard_faults.any() || !options.checkpoint_load_path.empty() ||
      options.checkpoint_round != 0 || options.crash_round != sim::kNoCrash) {
    throw std::invalid_argument(
        "run_traced_campaign: supports FedAvg + CollaPois without Ditto, "
        "faults, resume, halt or crash");
  }
}

const char* layer_kind(nn::Layer& layer) {
  if (dynamic_cast<nn::Conv2d*>(&layer) != nullptr) return "conv";
  if (dynamic_cast<nn::Dense*>(&layer) != nullptr) return "dense";
  if (dynamic_cast<nn::Relu*>(&layer) != nullptr) return "relu";
  if (dynamic_cast<nn::MaxPool2d*>(&layer) != nullptr) return "pool";
  if (dynamic_cast<nn::Flatten*>(&layer) != nullptr) return "flatten";
  return "layer";
}

// Median forward and backward time of each layer over kLayerPasses
// training passes at batch 16, on the calling thread with no kernel pool
// (the way per-client training runs on a worker).
void replay_layers(nn::Model model, const data::Dataset& train,
                   TracedCampaign& out) {
  std::vector<std::size_t> idx(std::min<std::size_t>(16, train.size()));
  std::iota(idx.begin(), idx.end(), 0);
  const data::Batch batch = data::make_batch(train, idx);
  const std::size_t n_layers = model.num_layers();
  std::vector<std::vector<double>> fwd(n_layers), bwd(n_layers);
  for (int pass = 0; pass < kLayerPasses; ++pass) {
    model.zero_grad();
    tensor::Tensor x = batch.x;
    for (std::size_t i = 0; i < n_layers; ++i) {
      const auto start = runtime::wall_now();
      x = model.layer(i).forward(std::move(x));
      fwd[i].push_back(us_since(start));
    }
    tensor::Tensor g = nn::softmax_cross_entropy(x, batch.labels).grad_logits;
    for (std::size_t i = n_layers; i-- > 0;) {
      const auto start = runtime::wall_now();
      g = i > 0 ? model.layer(i).backward(std::move(g))
                : model.layer(i).backward_params_only(std::move(g));
      bwd[i].push_back(us_since(start));
    }
  }
  double fwd_total = 0.0;
  double bwd_total = 0.0;
  for (std::size_t i = 0; i < n_layers; ++i) {
    const double f = median_of(fwd[i]);
    const double b = median_of(bwd[i]);
    fwd_total += f;
    bwd_total += b;
    const std::string prefix = "nn.L" + std::to_string(i) + ".";
    out.nn_layers.emplace_back(prefix + layer_kind(model.layer(i)) + ".fwd_us",
                               f);
    out.nn_layers.emplace_back(prefix + layer_kind(model.layer(i)) + ".bwd_us",
                               b);
    if (i < kListedLayers) {
      out.metrics[prefix + "fwd_us"] = f;
      out.metrics[prefix + "bwd_us"] = b;
    }
  }
  out.metrics["nn.fwd_us"] = fwd_total;
  out.metrics["nn.bwd_us"] = bwd_total;
}

}  // namespace

TracedCampaign run_traced_campaign(const sim::ExperimentConfig& cfg,
                                   const sim::RunOptions& options,
                                   const std::string& work_dir) {
  check_supported(cfg, options);
  TracedCampaign out;
  SpanRecorder rec;
  runtime::reset_peak_rss();
  const auto wall_start = runtime::wall_now();

  const std::size_t n = cfg.n_clients;
  kernels::set_active_kernels(cfg.kernels);
  defense::set_active_defense_impl(cfg.defense_impl);
  const std::size_t n_threads = runtime::resolve_thread_count(cfg.threads);
  std::unique_ptr<runtime::ThreadPool> pool;
  stats::Rng rng(cfg.seed);

  // --- set-up, in run_experiment's order (the RNG draws must match) ------
  data::FederatedData fed;
  std::unique_ptr<agg::LazyFederation> lazy_fed;
  nn::Model architecture;
  std::unique_ptr<trojan::Trigger> eval_trigger;
  std::unique_ptr<trojan::Trigger> train_trigger;
  std::vector<bool> compromised(n, false);
  std::vector<std::size_t> compromised_ids;
  data::Dataset auxiliary;
  std::vector<double> aux_hist;
  std::vector<core::CollaPoisClient*> collapois_clients;
  // Empty until the strike; clients materialized after it are born armed.
  tensor::FlatVec trojaned_model;
  std::size_t aggregated_rows = 0;
  std::unique_ptr<net::NetworkModel> net_model;
  std::unique_ptr<fl::ServerAlgorithm> algo;
  auto client_data = [&](std::size_t i) -> const data::ClientSplit& {
    return lazy_fed ? lazy_fed->client_data(i) : fed.clients[i];
  };
  auto make_benign = [&](std::size_t i, stats::Rng crng)
      -> std::unique_ptr<fl::Client> {
    return std::make_unique<fl::BenignClient>(
        i, &client_data(i).train, architecture, cfg.local_sgd,
        cfg.metafed_distill_weight, std::move(crng));
  };
  // Written exactly as run_experiment writes it: the order in which the
  // compiler evaluates crng.fork() and make_benign(...) decides which
  // stream each part receives.
  auto make_client = [&](std::size_t i, stats::Rng crng)
      -> std::unique_ptr<fl::Client> {
    if (!compromised[i]) return make_benign(i, std::move(crng));
    auto cp = std::make_unique<core::CollaPoisClient>(
        i, trojaned_model, cfg.collapois, crng.fork(),
        make_benign(i, std::move(crng)));
    collapois_clients.push_back(cp.get());
    return cp;
  };
  {
    SpanRecorder::Scope setup(rec, "sim.setup");
    if (n_threads > 1) pool = std::make_unique<runtime::ThreadPool>(n_threads);
    std::size_t num_classes = 0;
    if (cfg.dataset == sim::DatasetKind::femnist_like) {
      data::SyntheticImageConfig icfg;
      const std::uint64_t data_seed = rng.next_u64();
      data::SyntheticImageGenerator gen(icfg, data_seed);
      {
        SpanRecorder::Scope s(rec, "data.build_federation");
        if (cfg.lazy_clients) {
          lazy_fed = std::make_unique<agg::LazyFederation>(
              n, icfg.num_classes,
              agg::make_dirichlet_split_factory(gen, data_seed,
                                                cfg.samples_per_client,
                                                cfg.alpha));
        } else {
          fed = data::build_federation(gen, n, cfg.samples_per_client,
                                       cfg.alpha, rng);
        }
      }
      num_classes = icfg.num_classes;
      nn::LeNetConfig mcfg;
      mcfg.height = icfg.height;
      mcfg.width = icfg.width;
      mcfg.num_classes = icfg.num_classes;
      architecture = nn::make_lenet_small(mcfg);
      const std::uint64_t trigger_seed = rng.next_u64();
      trojan::WarpConfig wcfg;
      wcfg.height = icfg.height;
      wcfg.width = icfg.width;
      eval_trigger = std::make_unique<trojan::WarpTrigger>(wcfg, trigger_seed);
    } else {
      data::SyntheticTextConfig tcfg;
      const std::uint64_t data_seed = rng.next_u64();
      data::SyntheticTextGenerator gen(tcfg, data_seed);
      {
        SpanRecorder::Scope s(rec, "data.build_federation");
        if (cfg.lazy_clients) {
          lazy_fed = std::make_unique<agg::LazyFederation>(
              n, tcfg.num_classes,
              agg::make_dirichlet_split_factory(gen, data_seed,
                                                cfg.samples_per_client,
                                                cfg.alpha));
        } else {
          fed = data::build_federation(gen, n, cfg.samples_per_client,
                                       cfg.alpha, rng);
        }
      }
      num_classes = tcfg.num_classes;
      nn::MlpConfig mcfg;
      mcfg.input_dim = tcfg.embedding_dim;
      mcfg.num_classes = tcfg.num_classes;
      architecture = nn::make_mlp_head(mcfg);
      trojan::EmbeddingTriggerConfig ecfg;
      ecfg.dim = tcfg.embedding_dim;
      const trojan::EmbeddingTrigger whole(ecfg, rng.next_u64());
      eval_trigger = whole.clone();
    }
    train_trigger = eval_trigger->clone();
    architecture.init(rng);

    std::size_t c = static_cast<std::size_t>(
        cfg.compromised_fraction * static_cast<double>(n) + 0.5);
    c = std::min(std::max<std::size_t>(c, 1), n);
    compromised_ids = rng.sample_without_replacement(n, c);
    for (std::size_t id : compromised_ids) compromised[id] = true;
    {
      SpanRecorder::Scope s(rec, "core.pool_auxiliary_data");
      std::vector<const data::Dataset*> parts;
      for (std::size_t id : compromised_ids) {
        parts.push_back(&client_data(id).validation);
        if (!cfg.aux_validation_only) parts.push_back(&client_data(id).train);
      }
      auxiliary = core::pool_auxiliary_data(parts);
      if (auxiliary.empty()) {
        parts.clear();
        for (std::size_t id : compromised_ids) {
          parts.push_back(&client_data(id).train);
        }
        auxiliary = core::pool_auxiliary_data(parts);
      }
      aux_hist = auxiliary.label_histogram();
    }
    if (aux_hist.empty()) aux_hist.assign(num_classes, 1.0);

    std::unique_ptr<fl::ClientPopulation> population;
    if (cfg.lazy_clients) {
      const std::uint64_t client_seed_base = rng.next_u64();
      auto factory = [&, client_seed_base](std::size_t i)
          -> std::unique_ptr<fl::Client> {
        const auto start = runtime::wall_now();
        auto client = std::make_unique<TimedClient>(
            make_client(i, stats::Rng(agg::derive_client_seed(
                               client_seed_base, i))),
            rec);
        rec.record("data.clients_materialize", start, runtime::wall_now());
        return client;
      };
      population = std::make_unique<agg::LazyClientPopulation>(n, factory);
    } else {
      SpanRecorder::Scope s(rec, "data.clients_materialize");
      std::vector<std::unique_ptr<fl::Client>> clients;
      clients.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        clients.push_back(
            std::make_unique<TimedClient>(make_client(i, rng.fork()), rec));
      }
      population =
          std::make_unique<fl::OwningClientPopulation>(std::move(clients));
    }

    if (cfg.net.enabled) net_model = std::make_unique<net::NetworkModel>(cfg.net);
    net::validate_codec(cfg.codec);
    std::unique_ptr<fl::Aggregator> aggregator =
        defense::make_defense(cfg.defense, cfg.defense_params, rng.fork());
    if (cfg.shards > 1) {
      aggregator = std::make_unique<agg::ShardedAggregator>(
          std::move(aggregator), cfg.shards);
    }
    aggregator = std::make_unique<TimedAggregator>(std::move(aggregator), rec,
                                                   aggregated_rows);
    fl::ServerConfig scfg;
    scfg.learning_rate = cfg.server_lr;
    scfg.sample_prob = cfg.sample_prob;
    scfg.update_norm_ceiling = cfg.update_norm_ceiling;
    scfg.pool = pool.get();
    scfg.net = net_model.get();
    scfg.codec = cfg.codec;
    scfg.engine = cfg.round_engine;
    scfg.async = cfg.async;
    algo = std::make_unique<fl::ServerAlgorithm>(
        std::string(sim::algorithm_name(cfg.algorithm)),
        architecture.get_parameters(), std::move(aggregator), scfg,
        std::move(population), rng.fork());
  }
  const double rss_after_setup = mib(runtime::peak_rss_bytes());
  double rss_after_strike = 0.0;

  auto make_checkpoint = [&](std::size_t rounds_completed) {
    sim::Checkpoint ck;
    ck.fingerprint = sim::config_fingerprint(cfg);
    ck.net_fingerprint = sim::net_fingerprint(cfg.net);
    ck.engine_fingerprint = sim::engine_fingerprint(cfg);
    ck.scale_fingerprint = sim::scale_fingerprint(cfg);
    ck.codec_fingerprint = sim::codec_fingerprint(cfg.codec);
    ck.rounds_completed = rounds_completed;
    ck.run_rng = rng.state();
    ck.trojaned_model = trojaned_model;
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
  std::unique_ptr<sim::CheckpointStore> store;
  const bool periodic_saves =
      !options.checkpoint_save_path.empty() && options.checkpoint_every > 0;
  if (periodic_saves) {
    store = std::make_unique<sim::CheckpointStore>(
        options.checkpoint_save_path,
        std::max<std::size_t>(options.checkpoint_keep, 1));
  }

  metrics::EvalConfig eval_cfg;
  eval_cfg.target_label = cfg.target_label;
  eval_cfg.pool = pool.get();
  std::size_t evaluated_clients = 0;
  auto eval_clients = [&](std::size_t max_clients) {
    SpanRecorder::Scope s(rec, "metrics.evaluate_clients");
    eval_cfg.max_clients = max_clients;
    std::vector<metrics::ClientEval> evals =
        cfg.lazy_clients
            ? metrics::evaluate_clients(
                  *algo, n,
                  [&](std::size_t i) -> const data::ClientSplit& {
                    return client_data(i);
                  },
                  *eval_trigger, architecture, compromised, eval_cfg)
            : metrics::evaluate_clients(*algo, fed, *eval_trigger,
                                        architecture, compromised, eval_cfg);
    evaluated_clients += evals.size();
    return evals;
  };

  // --- rounds -------------------------------------------------------------
  std::size_t accepted = 0;
  std::size_t dropped = 0;
  std::size_t cohort = 0;
  std::size_t saves = 0;
  net::TransportStats transport;
  std::vector<fl::ClientUpdate> replay_updates;
  for (std::size_t t = 0; t < cfg.rounds; ++t) {
    SpanRecorder::Scope round(rec, "sim.round");
    if (t >= cfg.attack_start_round && trojaned_model.empty()) {
      SpanRecorder::Scope s(rec, "core.train_trojaned_model");
      nn::Model attacker_model = architecture;
      attacker_model.set_parameters(algo->global_params());
      stats::Rng attacker_rng = rng.fork();
      kernels::ScopedKernelPool lend(pool.get());
      auto trained = core::train_trojaned_model(
          std::move(attacker_model), auxiliary, *train_trigger,
          cfg.trojan_train, attacker_rng);
      trojaned_model = std::move(trained.x);
      for (auto* c : collapois_clients) c->set_trojaned_model(trojaned_model);
      rss_after_strike = mib(runtime::peak_rss_bytes());
    }
    fl::RoundTelemetry tel;
    {
      SpanRecorder::Scope s(rec, "fl.run_round");
      tel = algo->run_round();
    }
    {
      SpanRecorder::Scope s(rec, "metrics.round_angles");
      metrics::summarize_round_angles(tel);
    }
    if (tel.cohort_size != tel.sampled_ids.size() + tel.dropped_ids.size() +
                               tel.rejected_ids.size()) {
      ++out.invariant_violations;
    }
    accepted += tel.sampled_ids.size();
    dropped += tel.dropped_ids.size();
    cohort += tel.cohort_size;
    transport.accumulate(tel.transport);
    if (!trojaned_model.empty()) {
      stats::l2_distance(algo->global_params(), trojaned_model);
    }
    if (cfg.eval_every > 0 && (t + 1) % cfg.eval_every == 0) {
      metrics::average_benign(eval_clients(cfg.eval_max_clients));
    }
    if (periodic_saves && (t + 1) % options.checkpoint_every == 0) {
      SpanRecorder::Scope s(rec, "sim.checkpoint_save");
      store->save(make_checkpoint(t + 1));
      ++saves;
    }
    // Keep the latest admitted updates for the codec replay (moved, so
    // the campaign pays no copy).
    for (auto& u : tel.updates) replay_updates.push_back(std::move(u));
    if (replay_updates.size() > kReplayUpdates) {
      replay_updates.erase(replay_updates.begin(),
                           replay_updates.end() - kReplayUpdates);
    }
  }
  const double rss_after_rounds = mib(runtime::peak_rss_bytes());

  // --- final client-level evaluation ---------------------------------------
  out.final_global = algo->global_params();
  const std::vector<metrics::ClientEval> final_evals =
      eval_clients(cfg.lazy_clients ? cfg.eval_max_clients : 0);
  out.population = metrics::average_benign(final_evals);
  const double rss_after_eval = mib(runtime::peak_rss_bytes());
  {
    SpanRecorder::Scope s(rec, "metrics.risk_clusters");
    std::vector<std::vector<double>> histograms;
    if (cfg.lazy_clients) {
      histograms.resize(n);
      for (const auto& e : final_evals) {
        histograms[e.client_index] = lazy_fed->client_histogram(e.client_index);
      }
    } else {
      histograms = fed.client_label_histograms();
    }
    metrics::risk_clusters(final_evals, {1, 25, 50}, histograms, aux_hist);
  }
  out.wall_ms = runtime::ms_since(wall_start);
  out.spans = rec.spans();

  // --- metrics from the spans ----------------------------------------------
  std::map<std::string, std::vector<double>> durations;
  for (const Span& s : out.spans) {
    durations[s.name].push_back(s.end_ms - s.start_ms);
  }
  const std::vector<double> self = self_times_ms(out.spans);
  double engine_self = 0.0;
  for (std::size_t i = 0; i < out.spans.size(); ++i) {
    if (std::string(out.spans[i].name) == "fl.run_round") engine_self += self[i];
  }
  auto& m = out.metrics;
  const auto& run_round = durations["fl.run_round"];
  const auto& compute = durations["fl.compute_update"];
  const auto& aggregate = durations["defense.aggregate"];
  const auto& angles = durations["metrics.round_angles"];
  const double rounds = static_cast<double>(cfg.rounds);
  m["data.build_federation_ms"] = sum_of(durations["data.build_federation"]);
  m["data.clients_materialize_ms"] =
      sum_of(durations["data.clients_materialize"]);
  m["data.clients_materialized"] =
      static_cast<double>(algo->population().materialized());
  m["core.train_trojaned_model_ms"] =
      sum_of(durations["core.train_trojaned_model"]);
  m["core.aux_samples"] = static_cast<double>(auxiliary.size());
  m["fl.run_round_ms.p50"] = median_of(run_round);
  m["fl.run_round_ms.sum"] = sum_of(run_round);
  m["fl.run_round.calls"] = static_cast<double>(run_round.size());
  m["fl.compute_update_ms.p50"] = median_of(compute);
  m["fl.compute_update_ms.sum"] = sum_of(compute);
  m["fl.compute_update.calls"] = static_cast<double>(compute.size());
  m["fl.engine_self_ms.sum"] = engine_self;
  m["fl.accepted_share"] =
      compute.empty() ? 0.0
                      : static_cast<double>(accepted) /
                            static_cast<double>(compute.size());
  m["runtime.worker_busy_share"] =
      sum_of(compute) / (static_cast<double>(std::max<std::size_t>(
                             n_threads, 1)) *
                         sum_of(run_round));
  m["runtime.peak_rss_mib.after_setup"] = rss_after_setup;
  m["runtime.peak_rss_mib.after_strike"] = rss_after_strike;
  m["runtime.peak_rss_mib.after_rounds"] = rss_after_rounds;
  m["runtime.peak_rss_mib.after_eval"] = rss_after_eval;
  m["defense.aggregate_ms.p50"] = median_of(aggregate);
  m["defense.aggregate_ms.sum"] = sum_of(aggregate);
  m["defense.aggregate.rows"] = static_cast<double>(aggregated_rows);
  m["net.wire_bytes_per_round"] =
      static_cast<double>(transport.wire_bytes_sent) / rounds;
  m["net.compression_ratio"] =
      transport.wire_bytes_sent == 0
          ? 0.0
          : static_cast<double>(transport.fp32_bytes_sent) /
                static_cast<double>(transport.wire_bytes_sent);
  m["net.retries_per_round"] = static_cast<double>(transport.retried) / rounds;
  m["net.dropped_share"] =
      cohort == 0 ? 0.0
                  : static_cast<double>(dropped) / static_cast<double>(cohort);
  m["metrics.round_angles_ms.p50"] = median_of(angles);
  m["metrics.round_angles_ms.sum"] = sum_of(angles);
  m["metrics.evaluate_clients_ms.sum"] =
      sum_of(durations["metrics.evaluate_clients"]);
  m["metrics.evaluated_clients"] = static_cast<double>(evaluated_clients);
  m["sim.checkpoint_saves"] = static_cast<double>(saves);
  m["trace.coverage"] = top_level_coverage(out.spans, out.wall_ms);

  // --- replays, after the campaign's window --------------------------------
  const net::CodecConfig codec =
      cfg.net.enabled
          ? net::negotiate_codec(cfg.codec, net::codec_capability_all())
          : net::CodecConfig{};
  std::vector<double> encode_us;
  std::vector<double> decode_us;
  for (const fl::ClientUpdate& u : replay_updates) {
    auto start = runtime::wall_now();
    fl::StateWriter w;
    net::encode_delta(w, u.delta, codec);
    encode_us.push_back(us_since(start));
    const std::vector<std::uint8_t> bytes = w.take();
    start = runtime::wall_now();
    fl::StateReader r(bytes);
    const tensor::FlatVec decoded = net::decode_delta(r, codec);
    decode_us.push_back(us_since(start));
  }
  m["net.encode_us.p50"] = median_of(encode_us);
  m["net.decode_us.p50"] = median_of(decode_us);
  m["net.replayed_updates"] = static_cast<double>(replay_updates.size());

  const sim::Checkpoint ck = make_checkpoint(cfg.rounds);
  sim::CheckpointStore replay_store(work_dir + "/replay_checkpoint.bin", 1);
  std::vector<double> save_ms;
  for (int i = 0; i < kCheckpointReplays; ++i) {
    const auto start = runtime::wall_now();
    replay_store.save(ck);
    save_ms.push_back(runtime::ms_since(start));
  }
  std::filesystem::remove(replay_store.head_path());
  m["sim.checkpoint_save_ms.p50"] = median_of(save_ms);
  m["sim.checkpoint_bytes"] =
      static_cast<double>(sim::encode_checkpoint(ck).size());

  nn::Model model = architecture;
  model.set_parameters(out.final_global);
  replay_layers(std::move(model), client_data(0).train, out);
  return out;
}

}  // namespace collapois::bench
