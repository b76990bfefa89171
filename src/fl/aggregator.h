// Server-side aggregation. FedAvg lives here; every robust-training
// defense in defense/ implements the same interface, so experiments swap
// aggregation rules without touching the round loop (Table I's taxonomy).
//
// Sharding capability (DESIGN.md §12): the agg/ shard tree partitions a
// round's cohort across shard aggregators and combines partials at the
// root. Whether that is possible without changing the rule's semantics
// is a property of the rule itself, so aggregators declare it here:
//
//   streaming   — the rule is a left-to-right fold over updates in
//                 admission order (FedAvg and its clip/noise wrappers).
//                 Shards are contiguous row ranges absorbed sequentially
//                 into ONE accumulator stream, so the float operation
//                 sequence — and therefore the result — is bit-identical
//                 to the flat path. Bounded memory: one cohort slice +
//                 one d-vector live at a time.
//   coordinate  — the rule is independent per coordinate (median,
//                 trimmed-mean, RLR, SignSGD). Shards are column ranges
//                 computed in parallel into disjoint output slices; a
//                 column's math never sees other columns, so per-column
//                 results are bit-identical to the flat path.
//   cohort_only — the rule needs the whole cohort at once (Krum-family
//                 and FLARE need all pairwise distances). The shard tree
//                 refuses S > 1 loudly instead of silently changing the
//                 rule's semantics.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "fl/state.h"
#include "fl/update.h"

namespace collapois::runtime {
class ThreadPool;
}

namespace collapois::fl {

enum class ShardCapability { cohort_only, streaming, coordinate };

// Per-round infrastructure accounting (DESIGN.md §13). Produced by
// aggregators that model their own failures (the sharded tree under a
// ShardFaultModel); flat rules report all-zero. Lives in
// RoundStats::infra (inherited by RoundTelemetry and sim::RoundRecord)
// and reaches the JSON "infra" block, mirroring how DropReason accounts
// for the client plane.
struct InfraStats {
  // Failed shard attempts this round (every crash/timeout/corrupt draw,
  // including ones later recovered by retry).
  std::size_t shard_failures = 0;
  // Retry attempts issued after a failed attempt.
  std::size_t shard_retries = 0;
  // Shards that exhausted their retry budget and had their work
  // redistributed across survivors.
  std::size_t shard_failovers = 0;
  // Accumulated virtual backoff time between retry attempts. Virtual:
  // accounted, never slept, so fault injection does not perturb wall
  // timings.
  double backoff_virtual_ms = 0.0;
  // True when at least one shard failed over — the round completed in
  // degraded mode (fewer live shards, identical result).
  bool degraded = false;
};

// Opaque per-aggregation accumulator for the streaming path. Each
// aggregator that declares `streaming` defines its own concrete stream
// type; decorators wrap their inner aggregator's stream.
class ShardStream {
 public:
  virtual ~ShardStream() = default;
};

class Aggregator {
 public:
  virtual ~Aggregator() = default;

  // Combine the round's updates into the pseudo-gradient the server
  // applies. `global` is theta^t (some defenses need it). Must cope with a
  // single update. The optional pool accelerates the defense hot loops
  // (pairwise distances, coordinate tiles); nullptr runs them inline with
  // bit-identical results — see defense/defense_kernels.h. Non-virtual
  // entry so the pool parameter stays optional at every existing call
  // site; implementations override do_aggregate.
  tensor::FlatVec aggregate(const std::vector<ClientUpdate>& updates,
                            std::span<const float> global,
                            runtime::ThreadPool* pool = nullptr) {
    return do_aggregate(updates, global, pool);
  }

  // How this rule may be partitioned by the shard tree. The default is
  // the conservative one: a rule that has not declared otherwise gets the
  // whole cohort or a loud failure, never silently altered semantics.
  virtual ShardCapability shard_capability() const {
    return ShardCapability::cohort_only;
  }

  // --- streaming protocol (shard_capability() == streaming) ----------
  // stream_begin() creates the accumulator; stream_absorb() folds the
  // contiguous row range [row_begin, row_end) of `updates` into it, in
  // order; stream_finish() applies the epilogue (normalization, noise)
  // and returns the result. The flat do_aggregate of a streaming rule is
  // required to be begin + absorb(0, n) + finish, so sharded == flat is
  // structural, not coincidental.
  virtual std::unique_ptr<ShardStream> stream_begin(std::size_t /*dim*/) {
    throw std::logic_error("Aggregator: " + name() +
                           " does not support streaming sharding");
  }
  virtual void stream_absorb(ShardStream& /*stream*/,
                             const std::vector<ClientUpdate>& /*updates*/,
                             std::size_t /*row_begin*/, std::size_t /*row_end*/,
                             std::span<const float> /*global*/,
                             runtime::ThreadPool* /*pool*/) {
    throw std::logic_error("Aggregator: " + name() +
                           " does not support streaming sharding");
  }
  virtual tensor::FlatVec stream_finish(ShardStream& /*stream*/,
                                        std::span<const float> /*global*/) {
    throw std::logic_error("Aggregator: " + name() +
                           " does not support streaming sharding");
  }

  // --- coordinate protocol (shard_capability() == coordinate) --------
  // Computes the rule for columns [col_begin, col_end) of every update
  // into out[0 .. col_end-col_begin). Column j of the slice must equal
  // column col_begin + j of the flat result exactly.
  virtual void aggregate_columns(const std::vector<ClientUpdate>& /*updates*/,
                                 std::span<const float> /*global*/,
                                 std::size_t /*col_begin*/,
                                 std::size_t /*col_end*/, float* /*out*/,
                                 runtime::ThreadPool* /*pool*/) {
    throw std::logic_error("Aggregator: " + name() +
                           " does not support coordinate sharding");
  }

  // --- infrastructure fault plane (DESIGN.md §13) --------------------
  // The round engine announces the round number before each aggregate()
  // so fault-modelling aggregators can key their counter-based decisions
  // on it; plain rules ignore it. Called on the engine thread before the
  // aggregation fan-out, never concurrently with aggregate().
  virtual void begin_round(std::size_t /*round*/) {}

  // Drains the infrastructure counters accumulated since the last call
  // (the engine collects them right after aggregate() into
  // RoundTelemetry::infra). Default: nothing to report.
  virtual InfraStats take_infra_stats() { return {}; }

  // Hook applied to the global parameters *after* the round's update —
  // model-smoothness defenses (CRFL) clip and perturb the model itself
  // here. Default: no-op.
  virtual void post_update(tensor::FlatVec& /*params*/) {}

  // Checkpoint support: serialize mutable state (noise RNG streams).
  // Stateless aggregators keep the no-op default; decorators must include
  // their inner aggregator's state.
  virtual void save_state(StateWriter& /*w*/) const {}
  virtual void load_state(StateReader& /*r*/) {}

  virtual std::string name() const = 0;

 protected:
  virtual tensor::FlatVec do_aggregate(const std::vector<ClientUpdate>& updates,
                                       std::span<const float> global,
                                       runtime::ThreadPool* pool) = 0;
};

// Plain (weighted) averaging — Algorithm 1 line 14 with uniform weights.
// Streaming-capable: do_aggregate is implemented via the stream hooks, so
// the sharded fold runs the exact same axpy sequence as the flat path.
class FedAvgAggregator : public Aggregator {
 public:
  std::string name() const override { return "fedavg"; }

  ShardCapability shard_capability() const override {
    return ShardCapability::streaming;
  }
  std::unique_ptr<ShardStream> stream_begin(std::size_t dim) override;
  void stream_absorb(ShardStream& stream,
                     const std::vector<ClientUpdate>& updates,
                     std::size_t row_begin, std::size_t row_end,
                     std::span<const float> global,
                     runtime::ThreadPool* pool) override;
  tensor::FlatVec stream_finish(ShardStream& stream,
                                std::span<const float> global) override;

 protected:
  tensor::FlatVec do_aggregate(const std::vector<ClientUpdate>& updates,
                               std::span<const float> global,
                               runtime::ThreadPool* pool) override;
};

}  // namespace collapois::fl
