#include "fl/round_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>

#include "net/envelope.h"
#include "runtime/parallel.h"
#include "runtime/rss.h"
#include "runtime/timer.h"

namespace collapois::fl {

namespace {

using runtime::ms_since;
using runtime::wall_now;

// Validation verdict for one incoming update. Checks cheapest-first:
// dimension, finiteness, then the optional norm ceiling.
bool validate_update(const ClientUpdate& u, std::size_t dim,
                     double norm_ceiling, RejectReason* reason) {
  if (u.delta.size() != dim) {
    *reason = RejectReason::dim_mismatch;
    return false;
  }
  double sq = 0.0;
  for (float x : u.delta) {
    if (!std::isfinite(x)) {
      *reason = RejectReason::non_finite;
      return false;
    }
    sq += static_cast<double>(x) * static_cast<double>(x);
  }
  if (!std::isfinite(u.weight) || u.weight < 0.0) {
    *reason = RejectReason::non_finite;
    return false;
  }
  if (norm_ceiling > 0.0 && std::sqrt(sq) > norm_ceiling) {
    *reason = RejectReason::norm_exceeded;
    return false;
  }
  return true;
}

bool all_finite(std::span<const float> v) {
  for (float x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

// Sample the base cohort: one Bernoulli draw per client, in client order,
// regardless of thread count — the sampling stream is part of the
// checkpointable state and must not depend on the pool. Touching
// pop.client(i) only for sampled indices is the lazy-population contract
// (instantiate on sample) and doubles as the null check borrowed
// populations used to do here. Both engines share this draw pattern, so
// switching engines never perturbs the sampling stream's shape per call.
std::vector<std::size_t> sample_base_cohort(stats::Rng& rng, double q,
                                            ClientPopulation& pop) {
  std::vector<std::size_t> picked;
  for (std::size_t i = 0; i < pop.size(); ++i) {
    if (rng.bernoulli(q)) {
      (void)pop.client(i);
      picked.push_back(i);
    }
  }
  if (picked.empty()) {
    // Guarantee progress: sample one client uniformly.
    const std::size_t i =
        static_cast<std::size_t>(rng.uniform_int(pop.size()));
    (void)pop.client(i);
    picked.push_back(i);
  }
  return picked;
}

}  // namespace

const char* round_engine_name(RoundEngineKind kind) {
  switch (kind) {
    case RoundEngineKind::sync: return "sync";
    case RoundEngineKind::buffered_async: return "buffered_async";
  }
  return "unknown";
}

RoundEngineKind parse_round_engine(const std::string& name) {
  if (name == "sync") return RoundEngineKind::sync;
  if (name == "buffered_async") return RoundEngineKind::buffered_async;
  throw std::invalid_argument("unknown round engine: " + name +
                              " (expected sync|buffered_async)");
}

// ---------------------------------------------------------------------------
// SyncRoundEngine — the barrier loop, moved verbatim from the pre-engine
// Server::run_round. Do not "improve" this body: its exact operation
// order is the bit-exactness contract with every existing checkpoint,
// determinism, and transport suite.
// ---------------------------------------------------------------------------

RoundTelemetry SyncRoundEngine::run_round(Server& server,
                                          ClientPopulation& pop) {
  if (pop.size() == 0) throw std::invalid_argument("run_round: no clients");
  const auto round_start = wall_now();

  const ServerConfig& cfg = config(server);
  tensor::FlatVec& params = RoundEngine::params(server);
  stats::Rng& rng = RoundEngine::rng(server);
  Aggregator& agg = aggregator(server);
  std::size_t& round = RoundEngine::round(server);

  RoundTelemetry t;
  t.round = round;

  const bool net_on = cfg.net != nullptr && cfg.net->config().enabled;

  std::vector<std::size_t> picked =
      sample_base_cohort(rng, cfg.sample_prob, pop);
  // The target cohort size k: over-provisioned extras below raise the
  // number of clients that TRAIN, but the server still aggregates at most
  // k arrivals. With the transport disabled k == cohort and nothing here
  // consumes RNG draws, so the sampling stream is unchanged from the
  // pre-transport code path.
  const std::size_t target_cohort = picked.size();
  if (net_on && cfg.net->config().over_sample > 0.0 &&
      picked.size() < pop.size()) {
    const auto want = static_cast<std::size_t>(std::ceil(
        (1.0 + cfg.net->config().over_sample) *
        static_cast<double>(target_cohort)));
    std::vector<char> in_cohort(pop.size(), 0);
    for (std::size_t i : picked) in_cohort[i] = 1;
    std::vector<std::size_t> complement;
    complement.reserve(pop.size() - picked.size());
    for (std::size_t i = 0; i < pop.size(); ++i) {
      if (!in_cohort[i]) complement.push_back(i);
    }
    const std::size_t extras =
        std::min(want - target_cohort, complement.size());
    std::vector<std::size_t> drawn =
        rng.sample_without_replacement(complement.size(), extras);
    // Extras join in client-id order after the base cohort so the
    // dispatch/reduction order is a pure function of WHO was sampled.
    std::sort(drawn.begin(), drawn.end());
    for (std::size_t d : drawn) {
      const std::size_t i = complement[d];
      (void)pop.client(i);
      picked.push_back(i);
    }
  }
  std::vector<Client*> sampled;
  sampled.reserve(picked.size());
  for (std::size_t i : picked) sampled.push_back(&pop.client(i));
  t.cohort_size = sampled.size();
  t.n_dispatched = sampled.size();

  // Dispatch: each sampled client's local training is an independent task
  // (per-client RNG streams, per-call model clones). Results land in
  // `incoming` by sampling index, so the validation/quarantine/reduction
  // loop below sees the same updates in the same order for any pool size.
  RoundContext ctx{round, params};
  const auto train_start = wall_now();
  std::vector<ClientUpdate> incoming = runtime::parallel_map(
      cfg.pool, sampled.size(),
      [&](std::size_t i) { return sampled[i]->compute_update(ctx); });
  t.train_ms = ms_since(train_start);

  // Transport stage: every computed update is enveloped and sent across
  // the simulated network. Deliveries are sorted by (virtual arrival
  // time, sampling index) and the first `target_cohort` intact
  // in-deadline arrivals make the round; the rest are excess. The
  // accepted updates are the DECODED WIRE COPIES (bit-exact under the
  // default identity codec; within tolerance under a lossy one), and
  // the accounting loop below still walks sampling order — arrival order
  // only decides WHO is in, never the reduction order, so the aggregate
  // stays bit-identical across thread counts. Decisions are counter-based
  // per (client, round, attempt), so running transmit() sequentially here
  // costs O(cohort) hash draws — noise next to local training.
  enum class Fate : unsigned char { none, accepted, transport, deadline, excess };
  std::vector<Fate> fate(sampled.size(), Fate::none);
  if (net_on) {
    struct Arrival {
      double arrival_ms;
      std::size_t index;  // sampling index, the tie-break
    };
    std::vector<Arrival> arrivals;
    std::vector<std::optional<ClientUpdate>> wire(sampled.size());
    for (std::size_t i = 0; i < sampled.size(); ++i) {
      if (incoming[i].status == UpdateStatus::dropped) continue;
      // Per-link codec handshake: the server's offer masked against this
      // client's capabilities (identity is the universal fallback).
      const net::CodecConfig link_codec =
          net::negotiate_codec(cfg.codec, sampled[i]->codec_capabilities());
      const net::Envelope env =
          net::encode_update(incoming[i], round, link_codec);
      net::Delivery d = cfg.net->transmit(sampled[i]->id(), round, env,
                                          &t.transport);
      switch (d.status) {
        case net::DeliveryStatus::delivered:
          arrivals.push_back({d.arrival_ms, i});
          wire[i] = std::move(d.update);
          break;
        case net::DeliveryStatus::late:
          fate[i] = Fate::deadline;
          ++t.transport.deadline_dropped;
          break;
        case net::DeliveryStatus::lost:
          fate[i] = Fate::transport;
          ++t.transport.transport_dropped;
          break;
      }
    }
    std::sort(arrivals.begin(), arrivals.end(),
              [](const Arrival& a, const Arrival& b) {
                return a.arrival_ms != b.arrival_ms ? a.arrival_ms < b.arrival_ms
                                                    : a.index < b.index;
              });
    for (std::size_t j = 0; j < arrivals.size(); ++j) {
      const std::size_t i = arrivals[j].index;
      if (j < target_cohort) {
        fate[i] = Fate::accepted;
        incoming[i] = std::move(*wire[i]);
      } else {
        fate[i] = Fate::excess;
        ++t.transport.excess_dropped;
      }
    }
    if (!arrivals.empty()) {
      // Nearest-rank quantiles over ALL intact in-deadline arrivals
      // (excess included — they did arrive; acceptance is a server-side
      // cut, not a network property).
      const auto rank = [&](double q) {
        const auto n = static_cast<double>(arrivals.size());
        auto r = static_cast<std::size_t>(std::ceil(q * n));
        if (r > 0) --r;
        return arrivals[std::min(r, arrivals.size() - 1)].arrival_ms;
      };
      t.transport.arrival_p50_ms = rank(0.50);
      t.transport.arrival_p90_ms = rank(0.90);
      t.transport.arrival_max_ms = arrivals.back().arrival_ms;
    }
  }

  std::size_t n_trained = 0;
  for (std::size_t i = 0; i < sampled.size(); ++i) {
    Client* c = sampled[i];
    ClientUpdate u = std::move(incoming[i]);
    if (u.status == UpdateStatus::dropped) {
      t.dropped_ids.push_back(c->id());
      t.drop_reasons.push_back(DropReason::compute);
      continue;
    }
    ++n_trained;
    if (net_on && fate[i] != Fate::accepted) {
      // The update was computed but never aggregated: charge exactly one
      // drop reason for the transport outcome.
      t.dropped_ids.push_back(c->id());
      switch (fate[i]) {
        case Fate::transport:
          t.drop_reasons.push_back(DropReason::transport);
          break;
        case Fate::deadline:
          t.drop_reasons.push_back(DropReason::deadline);
          break;
        case Fate::excess:
          t.drop_reasons.push_back(DropReason::excess);
          break;
        default:
          throw std::logic_error("run_round: computed update with no fate");
      }
      continue;
    }
    RejectReason reason = RejectReason::non_finite;
    if (!validate_update(u, params.size(), cfg.update_norm_ceiling,
                         &reason)) {
      t.rejected_ids.push_back(c->id());
      t.reject_reasons.push_back(reason);
      continue;
    }
    if (u.status == UpdateStatus::straggler) {
      // Staleness damping: a k-round-late update moves the model with
      // weight 1 / (1 + k) of a fresh one (FedAsync-style polynomial
      // damping with exponent 1).
      u.weight /= 1.0 + static_cast<double>(u.staleness);
      ++t.n_stragglers;
    }
    t.sampled_ids.push_back(c->id());
    t.compromised.push_back(c->is_compromised());
    t.updates.push_back(std::move(u));
  }
  if (t.train_ms > 0.0) {
    t.clients_per_sec =
        static_cast<double>(n_trained) / (t.train_ms / 1000.0);
  }

  // Shared end-of-round bookkeeping for every exit path: fold this
  // round's message counters into the model's checkpointed totals, then
  // advance the round clock.
  const auto finish_round = [&] {
    if (net_on) cfg.net->accumulate_round(t.transport);
    ++round;
    t.wall_ms = ms_since(round_start);
    t.peak_rss_bytes = runtime::peak_rss_bytes();
    t.n_materialized = pop.materialized();
  };

  if (t.updates.empty()) {
    // Whole cohort failed: skip the round, leave the model untouched.
    t.aggregate_skipped = true;
    t.aggregated = tensor::zeros(params.size());
    finish_round();
    return t;
  }

  const auto agg_start = wall_now();
  // Announce the round for counter-based infrastructure fault decisions
  // (DESIGN.md §13), then drain what the aggregation tree recorded.
  agg.begin_round(t.round);
  t.aggregated = agg.aggregate(t.updates, params, cfg.pool);
  t.infra = agg.take_infra_stats();
  t.agg_ms = ms_since(agg_start);
  if (t.aggregated.size() != params.size() || !all_finite(t.aggregated)) {
    // An aggregator that emits garbage from well-formed inputs is treated
    // like a failed cohort: quarantine the round, not the process.
    t.aggregate_skipped = true;
    t.aggregated = tensor::zeros(params.size());
    finish_round();
    return t;
  }
  tensor::axpy_inplace(params, -cfg.learning_rate, t.aggregated);
  agg.post_update(params);
  finish_round();
  return t;
}

void SyncRoundEngine::save_state(StateWriter& /*w*/) const {
  // Nothing: every piece of sync state drains at the round barrier, and
  // writing zero bytes keeps sync blobs byte-identical with the
  // pre-engine checkpoint format.
}

void SyncRoundEngine::load_state(StateReader& /*r*/) {}

// ---------------------------------------------------------------------------
// BufferedAsyncRoundEngine
// ---------------------------------------------------------------------------

BufferedAsyncRoundEngine::BufferedAsyncRoundEngine(AsyncConfig async)
    : async_(async) {
  if (!std::isfinite(async_.t_ms) || async_.t_ms < 0.0) {
    throw std::invalid_argument(
        "BufferedAsyncRoundEngine: t_ms must be finite and non-negative");
  }
  if (async_.k == 0 && async_.t_ms <= 0.0) {
    throw std::invalid_argument(
        "BufferedAsyncRoundEngine: at least one aggregation trigger "
        "(k > 0 or t_ms > 0) must be active");
  }
}

const net::NetworkModel* BufferedAsyncRoundEngine::relaxed_net(
    const Server& s) {
  const net::NetworkModel* base = config(s).net;
  if (base == nullptr || !base->config().enabled) return nullptr;
  if (!relaxed_net_) {
    net::NetConfig relaxed = base->config();
    // No round to close in async mode: a slow update is damped or
    // stale-discarded, never raced against a barrier. Neutralizing the
    // deadline does not perturb the counter-based loss/corruption/latency
    // draws — they hash (seed, client, round, attempt) only.
    relaxed.deadline_ms = 0.0;
    relaxed_net_ = std::make_unique<net::NetworkModel>(relaxed);
  }
  return relaxed_net_.get();
}

RoundTelemetry BufferedAsyncRoundEngine::run_round(Server& server,
                                                   ClientPopulation& pop) {
  if (pop.size() == 0) throw std::invalid_argument("run_round: no clients");
  const auto round_start = wall_now();

  const ServerConfig& cfg = config(server);
  tensor::FlatVec& params = RoundEngine::params(server);
  stats::Rng& rng = RoundEngine::rng(server);
  Aggregator& agg = aggregator(server);
  std::size_t& round = RoundEngine::round(server);

  RoundTelemetry t;
  t.round = round;
  const net::NetworkModel* net = relaxed_net(server);
  const bool net_on = net != nullptr;

  // 1. Sample this cycle's cohort. No over-provisioning: that is a
  // barrier-world mitigation for deadline misses; here a slow update is
  // admitted late instead of replaced.
  const std::vector<std::size_t> picked =
      sample_base_cohort(rng, cfg.sample_prob, pop);
  t.n_dispatched = picked.size();

  // 2. Train the cohort in parallel against the CURRENT global model.
  // Results land by sampling index, so everything downstream is
  // bit-identical for any pool size. The cohort pointers are resolved
  // sequentially first so lazy materialization never races the pool.
  std::vector<Client*> cohort;
  cohort.reserve(picked.size());
  for (std::size_t i : picked) cohort.push_back(&pop.client(i));
  RoundContext ctx{round, params};
  const auto train_start = wall_now();
  std::vector<ClientUpdate> incoming = runtime::parallel_map(
      cfg.pool, cohort.size(),
      [&](std::size_t i) { return cohort[i]->compute_update(ctx); });
  t.train_ms = ms_since(train_start);

  // 3. Resolve dispatch-time fates and enqueue deliveries as future
  // events. A dropout never reports (compute drop); an exhausted retry
  // budget is a transport drop; everything else arrives at
  // (dispatch virtual time + delivery latency).
  const double dispatch_ms = clock_.now_ms;
  std::size_t n_trained = 0;
  for (std::size_t i = 0; i < picked.size(); ++i) {
    Client* c = cohort[i];
    ClientUpdate u = std::move(incoming[i]);
    if (u.status == UpdateStatus::dropped) {
      t.dropped_ids.push_back(c->id());
      t.drop_reasons.push_back(DropReason::compute);
      continue;
    }
    ++n_trained;
    if (net_on) {
      const net::CodecConfig link_codec =
          net::negotiate_codec(cfg.codec, c->codec_capabilities());
      const net::Envelope env = net::encode_update(u, round, link_codec);
      net::Delivery d = net->transmit(c->id(), round, env, &t.transport);
      switch (d.status) {
        case net::DeliveryStatus::delivered:
          buffer_.push(
              net::EventKey{dispatch_ms + d.arrival_ms,
                            static_cast<std::uint64_t>(round),
                            static_cast<std::uint64_t>(i)},
              Pending{picked[i], std::move(*d.update)});
          break;
        case net::DeliveryStatus::lost:
          t.dropped_ids.push_back(c->id());
          t.drop_reasons.push_back(DropReason::transport);
          ++t.transport.transport_dropped;
          break;
        case net::DeliveryStatus::late:
          // Unreachable: the relaxed model has no deadline.
          throw std::logic_error(
              "buffered_async: deadline-free transport returned late");
      }
    } else {
      // Transport disabled: zero-latency delivery at dispatch time.
      buffer_.push(net::EventKey{dispatch_ms,
                                 static_cast<std::uint64_t>(round),
                                 static_cast<std::uint64_t>(i)},
                   Pending{picked[i], std::move(u)});
    }
  }
  if (t.train_ms > 0.0) {
    t.clients_per_sec =
        static_cast<double>(n_trained) / (t.train_ms / 1000.0);
  }

  // 4. Drain the buffer: admit events in (arrival, launch round, sampling
  // index) order until K updates are admitted or the next event lies past
  // the aggregation deadline. Admission resolves each update's fate —
  // stale-discard, quarantine, or acceptance with staleness damping.
  const bool t_trigger = async_.t_ms > 0.0;
  const double agg_deadline =
      t_trigger ? last_agg_ms_ + async_.t_ms
                : std::numeric_limits<double>::infinity();
  double last_admitted_ms = dispatch_ms;
  bool stopped_by_deadline = false;
  while (!buffer_.empty()) {
    if (t_trigger && buffer_.top().key.time_ms > agg_deadline) {
      stopped_by_deadline = true;
      break;
    }
    auto ev = buffer_.pop();
    last_admitted_ms = std::max(last_admitted_ms, ev.key.time_ms);
    const std::size_t launch_round = static_cast<std::size_t>(ev.key.round);
    Client* c = &pop.client(ev.payload.client_index);
    ClientUpdate u = std::move(ev.payload.update);
    // Total staleness: rounds the update sat in the buffer plus the
    // compute-layer straggler lag it already carried.
    const std::size_t buffer_lag = round - launch_round;
    const std::size_t total_staleness = buffer_lag + u.staleness;
    if (total_staleness > async_.max_staleness) {
      t.dropped_ids.push_back(c->id());
      t.drop_reasons.push_back(DropReason::stale_discarded);
      continue;
    }
    RejectReason reason = RejectReason::non_finite;
    if (!validate_update(u, params.size(), cfg.update_norm_ceiling,
                         &reason)) {
      t.rejected_ids.push_back(c->id());
      t.reject_reasons.push_back(reason);
      continue;
    }
    if (total_staleness > 0) {
      // The staleness-damping rule generalized from the quarantine
      // machinery: a k-round-stale update moves the model with weight
      // 1 / (1 + k) of a fresh one, whether the lag came from a slow
      // client (fl/faults.h stragglers) or from the buffer.
      u.weight /= 1.0 + static_cast<double>(total_staleness);
      u.staleness = total_staleness;
      ++t.n_stragglers;
    }
    if (t.staleness_hist.size() <= total_staleness) {
      t.staleness_hist.resize(total_staleness + 1, 0);
    }
    ++t.staleness_hist[total_staleness];
    t.sampled_ids.push_back(c->id());
    t.compromised.push_back(c->is_compromised());
    t.updates.push_back(std::move(u));
    if (async_.k > 0 && t.updates.size() == async_.k) break;
  }

  // Advance the virtual clock: to the aggregation deadline when the T
  // trigger closed the cycle, otherwise to the latest admitted arrival.
  clock_.advance_to(stopped_by_deadline ? agg_deadline : last_admitted_ms);
  last_agg_ms_ = clock_.now_ms;
  t.virtual_now_ms = clock_.now_ms;
  t.n_buffered = buffer_.size();
  // Invariant: every fate RESOLVED this cycle lands in exactly one
  // bucket; in-flight updates resolve in a later cycle.
  t.cohort_size =
      t.sampled_ids.size() + t.dropped_ids.size() + t.rejected_ids.size();

  // 5. Aggregate and apply (same epilogue semantics as sync: malformed
  // aggregator output quarantines the cycle, never the process).
  const auto finish_cycle = [&] {
    if (net_on) config(server).net->accumulate_round(t.transport);
    ++round;
    t.wall_ms = ms_since(round_start);
    t.peak_rss_bytes = runtime::peak_rss_bytes();
    t.n_materialized = pop.materialized();
  };
  if (t.updates.empty()) {
    t.aggregate_skipped = true;
    t.aggregated = tensor::zeros(params.size());
    finish_cycle();
    return t;
  }
  const auto agg_start = wall_now();
  // Same announcement/drain as the sync engine: infrastructure fault
  // decisions key on the cycle's round counter.
  agg.begin_round(t.round);
  t.aggregated = agg.aggregate(t.updates, params, cfg.pool);
  t.infra = agg.take_infra_stats();
  t.agg_ms = ms_since(agg_start);
  if (t.aggregated.size() != params.size() || !all_finite(t.aggregated)) {
    t.aggregate_skipped = true;
    t.aggregated = tensor::zeros(params.size());
    finish_cycle();
    return t;
  }
  tensor::axpy_inplace(params, -cfg.learning_rate, t.aggregated);
  agg.post_update(params);
  finish_cycle();
  return t;
}

void BufferedAsyncRoundEngine::save_state(StateWriter& w) const {
  w.write_double(clock_.now_ms);
  w.write_double(last_agg_ms_);
  w.write_size(buffer_.size());
  // Serialize in key order — deterministic regardless of the standard
  // library's internal heap layout — so the blob is a pure function of
  // the experiment state and mid-buffer checkpoints resume bit-exactly.
  buffer_.for_each_sorted([&](const net::EventQueue<Pending>::Event& e) {
    w.write_double(e.key.time_ms);
    w.write_u64(e.key.round);
    w.write_u64(e.key.seq);
    w.write_size(e.payload.client_index);
    w.write_size(e.payload.update.client_id);
    w.write_floats(e.payload.update.delta);
    w.write_double(e.payload.update.weight);
    w.write_u64(static_cast<std::uint64_t>(e.payload.update.status));
    w.write_size(e.payload.update.staleness);
  });
}

void BufferedAsyncRoundEngine::load_state(StateReader& r) {
  clock_.now_ms = r.read_double();
  last_agg_ms_ = r.read_double();
  buffer_.clear();
  const std::size_t n = r.read_size();
  for (std::size_t i = 0; i < n; ++i) {
    net::EventKey key;
    key.time_ms = r.read_double();
    key.round = r.read_u64();
    key.seq = r.read_u64();
    Pending p;
    p.client_index = r.read_size();
    p.update.client_id = r.read_size();
    p.update.delta = r.read_floats();
    p.update.weight = r.read_double();
    const std::uint64_t status = r.read_u64();
    if (status > static_cast<std::uint64_t>(UpdateStatus::straggler)) {
      throw std::runtime_error(
          "BufferedAsyncRoundEngine::load_state: bad update status");
    }
    p.update.status = static_cast<UpdateStatus>(status);
    p.update.staleness = r.read_size();
    buffer_.push(key, std::move(p));
  }
}

std::unique_ptr<RoundEngine> make_round_engine(RoundEngineKind kind,
                                               const AsyncConfig& async) {
  switch (kind) {
    case RoundEngineKind::sync:
      return std::make_unique<SyncRoundEngine>();
    case RoundEngineKind::buffered_async:
      return std::make_unique<BufferedAsyncRoundEngine>(async);
  }
  throw std::invalid_argument("make_round_engine: unknown engine kind");
}

}  // namespace collapois::fl
