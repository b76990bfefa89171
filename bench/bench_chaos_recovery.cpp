// Chaos harness — crash-injection and recovery under compound faults
// (DESIGN.md §13).
//
// Every cell of {crash phase} x {round engine} runs the same campaign
// under client faults (dropout + stragglers), a lossy transport, and
// shard crash faults inside the 2-shard aggregation tree, then:
//   1. runs uninterrupted for the reference trajectory;
//   2. re-runs with a scheduled CrashInjected at the cell's crash point
//      (post-train / mid-buffer / a torn mid-save write), checkpointing
//      through a rolling keep-last-3 chain every 2 rounds;
//   3. resumes from the chain and compares against the reference.
//
// Three gates make the recovery story executable (exit 1 on failure):
//   1. resume_bit_exact — every cell's resumed run reproduces the
//      reference final global model bit-for-bit and matches the
//      reference per-round ||theta - X|| trajectory over the replayed
//      suffix;
//   2. torn_head_recovered — every mid-save cell discards the torn head
//      (recovery_discarded >= 1) and resumes from the previous intact
//      generation;
//   3. failover_transparent — a campaign with 10% per-attempt shard
//      crashes on a 4-shard tree loses ZERO rounds, actually degrades
//      (failovers observed; fixed seed, so this cannot flake), and ends
//      bit-identical to the fault-free flat run.
// Results land in BENCH_chaos_recovery.json in the working directory.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "sim/chaos.h"

namespace {

using namespace collapois;

constexpr std::size_t kShards = 2;
constexpr std::size_t kCheckpointEvery = 2;
constexpr std::size_t kCheckpointKeep = 3;

std::size_t rounds() { return 6 * bench::scale(); }
std::size_t crash_round() { return rounds() / 2; }

// The compound-fault campaign: unreliable clients, a lossy transport,
// and a faulty shard tree — the full production fault surface at once.
sim::ExperimentConfig workload(fl::RoundEngineKind engine) {
  sim::ExperimentConfig cfg;
  cfg.dataset = sim::DatasetKind::sentiment_like;
  cfg.attack = sim::AttackKind::collapois;
  cfg.defense = defense::DefenseKind::trimmed_mean;
  cfg.n_clients = 40;
  cfg.samples_per_client = 30;
  cfg.sample_prob = 0.3;
  cfg.rounds = rounds();
  cfg.attack_start_round = 1;
  cfg.round_engine = engine;
  cfg.faults.dropout_prob = 0.1;
  cfg.faults.straggler_prob = 0.1;
  cfg.net.enabled = true;
  cfg.net.loss_prob = 0.05;
  cfg.shards = kShards;
  cfg.shard_faults.crash_prob = 0.1;
  cfg.threads = 2;
  cfg.eval_max_clients = 8;
  cfg.seed = 11;
  return cfg;
}

const char* engine_name(fl::RoundEngineKind engine) {
  return engine == fl::RoundEngineKind::sync ? "sync" : "buffered_async";
}

struct Cell {
  std::string engine;
  std::string phase;
  std::size_t crash_round = 0;
  std::size_t resume_round = 0;
  std::size_t discarded = 0;
  std::string recovered_from;
  bool crash_fired = false;
  bool bits_equal = false;
  bool trajectory_equal = false;
};

std::vector<Cell>& cells() {
  static std::vector<Cell> c;
  return c;
}

struct FailoverResult {
  std::size_t failures = 0;
  std::size_t failovers = 0;
  std::size_t degraded_rounds = 0;
  std::size_t skipped_rounds = 0;
  bool bits_equal = false;
  bool recorded = false;
};

FailoverResult& failover() {
  static FailoverResult f;
  return f;
}

// One reference trajectory per engine, shared across that engine's cells.
const sim::ExperimentResult& reference(fl::RoundEngineKind engine) {
  static sim::ExperimentResult sync_ref, async_ref;
  static bool have_sync = false, have_async = false;
  if (engine == fl::RoundEngineKind::sync) {
    if (!have_sync) {
      sync_ref = sim::run_experiment(workload(engine));
      have_sync = true;
    }
    return sync_ref;
  }
  if (!have_async) {
    async_ref = sim::run_experiment(workload(engine));
    have_async = true;
  }
  return async_ref;
}

bool bits_equal(const tensor::FlatVec& a, const tensor::FlatVec& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

void remove_chain(const std::string& head) {
  for (std::size_t age = 0; age < kCheckpointKeep + 1; ++age) {
    const std::string slot =
        age == 0 ? head : head + "." + std::to_string(age);
    std::remove(slot.c_str());
  }
  std::remove((head + ".tmp").c_str());
}

void run_cell(benchmark::State& state, fl::RoundEngineKind engine,
              sim::CrashPhase phase) {
  const sim::ExperimentConfig cfg = workload(engine);
  const std::string chain = std::string("chaos_ck_") + engine_name(engine) +
                            "_" + sim::crash_phase_name(phase) + ".bin";
  for (auto _ : state) {
    const sim::ExperimentResult& ref = reference(engine);

    Cell cell;
    cell.engine = engine_name(engine);
    cell.phase = sim::crash_phase_name(phase);
    cell.crash_round = crash_round();
    remove_chain(chain);

    // Crash cycle: the scheduled kill must actually fire.
    sim::RunOptions crash;
    crash.checkpoint_save_path = chain;
    crash.checkpoint_every = kCheckpointEvery;
    crash.checkpoint_keep = kCheckpointKeep;
    crash.crash_round = crash_round();
    crash.crash_phase = phase;
    try {
      sim::run_experiment(cfg, crash);
    } catch (const sim::CrashInjected&) {
      cell.crash_fired = true;
    }

    // Restart cycle: resume through the chain and replay to the end.
    if (cell.crash_fired) {
      sim::RunOptions resume;
      resume.checkpoint_load_path = chain;
      resume.checkpoint_keep = kCheckpointKeep;
      const sim::ExperimentResult resumed = sim::run_experiment(cfg, resume);
      cell.resume_round = resumed.rounds.empty() ? 0
                                                 : resumed.rounds.front().round;
      cell.discarded = resumed.recovery_discarded;
      cell.recovered_from = resumed.recovered_from;
      cell.bits_equal = bits_equal(ref.final_global, resumed.final_global);
      cell.trajectory_equal = true;
      for (const auto& rec : resumed.rounds) {
        if (rec.round >= ref.rounds.size() ||
            rec.distance_to_x != ref.rounds[rec.round].distance_to_x) {
          cell.trajectory_equal = false;
        }
      }
    }
    cells().push_back(cell);
    remove_chain(chain);

    state.counters["crash_round"] = static_cast<double>(cell.crash_round);
    state.counters["resume_round"] = static_cast<double>(cell.resume_round);
    state.counters["discarded"] = static_cast<double>(cell.discarded);
    state.counters["bit_exact"] = cell.bits_equal ? 1.0 : 0.0;
  }
}

// Gate 3: 10% per-attempt shard crashes on a 4-shard tree vs the
// fault-free flat path — zero lost rounds, observed failovers, identical
// bits.
void run_failover(benchmark::State& state) {
  sim::ExperimentConfig faulty = workload(fl::RoundEngineKind::sync);
  faulty.shards = 4;
  // The harshest recovery policy: no retries, so every fired fault is an
  // immediate failover. At 10% per attempt with retries a failover needs
  // three consecutive faults (~1e-3 per shard-round) — unobservable in a
  // CI-sized campaign. The fault seed is chosen so crashes provably fire
  // inside this run's (shard, round) window; decisions are counter-based,
  // so the count is deterministic and the gate cannot flake.
  faulty.shard_faults.max_retries = 0;
  faulty.shard_faults.seed = 7;
  sim::ExperimentConfig flat = faulty;
  flat.shards = 1;
  flat.shard_faults = {};
  for (auto _ : state) {
    const sim::ExperimentResult f = sim::run_experiment(faulty);
    const sim::ExperimentResult base = sim::run_experiment(flat);
    FailoverResult r;
    for (const auto& rec : f.rounds) {
      r.failures += rec.infra.shard_failures;
      r.failovers += rec.infra.shard_failovers;
      if (rec.infra.degraded) ++r.degraded_rounds;
      if (rec.aggregate_skipped) ++r.skipped_rounds;
    }
    r.bits_equal = bits_equal(f.final_global, base.final_global);
    r.recorded = true;
    failover() = r;

    state.counters["shard_failures"] = static_cast<double>(r.failures);
    state.counters["shard_failovers"] = static_cast<double>(r.failovers);
    state.counters["degraded_rounds"] = static_cast<double>(r.degraded_rounds);
    state.counters["bit_exact"] = r.bits_equal ? 1.0 : 0.0;
  }
}

void register_all() {
  const fl::RoundEngineKind engines[] = {fl::RoundEngineKind::sync,
                                         fl::RoundEngineKind::buffered_async};
  const sim::CrashPhase phases[] = {sim::CrashPhase::post_train,
                                    sim::CrashPhase::mid_buffer,
                                    sim::CrashPhase::mid_save};
  for (fl::RoundEngineKind engine : engines) {
    for (sim::CrashPhase phase : phases) {
      const std::string name = std::string("chaos_recovery/engine:") +
                               engine_name(engine) + "/phase:" +
                               sim::crash_phase_name(phase);
      benchmark::RegisterBenchmark(name.c_str(),
                                   [engine, phase](benchmark::State& s) {
                                     run_cell(s, engine, phase);
                                   })
          ->Iterations(1)
          ->Unit(benchmark::kSecond);
    }
  }
  benchmark::RegisterBenchmark(
      "chaos_recovery/failover_transparency/shards:4",
      [](benchmark::State& s) { run_failover(s); })
      ->Iterations(1)
      ->Unit(benchmark::kSecond);
}

void finalize() {
  if (cells().empty() && !failover().recorded) return;

  std::cout << "== Chaos recovery — crash/restart cycles under client + "
               "transport + shard faults ==\n";
  std::cout << std::left << std::setw(16) << "engine" << std::setw(12)
            << "phase" << std::right << std::setw(7) << "crash"
            << std::setw(8) << "resume" << std::setw(11) << "discarded"
            << std::setw(10) << "bit_exact" << std::setw(12) << "trajectory"
            << "\n";
  // Each gate judges only the cells that actually ran, so a
  // --benchmark_filter'ed run never fails vacuously.
  bool resume_ok = true;
  bool torn_ok = true;
  for (const auto& c : cells()) {
    std::cout << std::left << std::setw(16) << c.engine << std::setw(12)
              << c.phase << std::right << std::setw(7) << c.crash_round
              << std::setw(8) << c.resume_round << std::setw(11)
              << c.discarded << std::setw(10) << (c.bits_equal ? "yes" : "NO")
              << std::setw(12) << (c.trajectory_equal ? "yes" : "NO") << "\n";
    resume_ok = resume_ok && c.crash_fired && c.bits_equal &&
                c.trajectory_equal;
    if (c.phase == "mid-save") torn_ok = torn_ok && c.discarded >= 1;
  }

  const FailoverResult& f = failover();
  const bool failover_ok = !f.recorded ||
                           (f.bits_equal && f.skipped_rounds == 0 &&
                            f.failovers > 0);
  if (f.recorded) {
    std::cout << "failover_transparency: failures=" << f.failures
              << " failovers=" << f.failovers << " degraded_rounds="
              << f.degraded_rounds << " skipped_rounds=" << f.skipped_rounds
              << " bit_exact=" << (f.bits_equal ? "yes" : "NO") << "\n";
  }
  std::cout << "resume_bit_exact=" << (resume_ok ? "yes" : "NO")
            << "  torn_head_recovered=" << (torn_ok ? "yes" : "NO")
            << "  failover_transparent=" << (failover_ok ? "yes" : "NO")
            << "\n";

  std::ofstream out("BENCH_chaos_recovery.json");
  out << "{\"bench\": \"chaos_recovery\",\n"
      << " \"workload\": \"sentiment/collapois/trimmedmean rounds="
      << rounds() << " shards=" << kShards
      << " dropout=0.1 net_loss=0.05 shard_crash=0.1\",\n"
      << " \"resume_bit_exact\": " << (resume_ok ? "true" : "false")
      << ",\n \"torn_head_recovered\": " << (torn_ok ? "true" : "false")
      << ",\n \"failover_transparent\": " << (failover_ok ? "true" : "false")
      << ",\n \"failover\": {\"shard_failures\": " << f.failures
      << ", \"shard_failovers\": " << f.failovers
      << ", \"degraded_rounds\": " << f.degraded_rounds
      << ", \"skipped_rounds\": " << f.skipped_rounds
      << ", \"bit_exact\": " << (f.bits_equal ? "true" : "false")
      << "},\n \"cells\": [";
  bool first = true;
  for (const auto& c : cells()) {
    if (!first) out << ",";
    first = false;
    out << "\n  {\"engine\": \"" << c.engine << "\", \"phase\": \"" << c.phase
        << "\", \"crash_round\": " << c.crash_round
        << ", \"resume_round\": " << c.resume_round
        << ", \"discarded\": " << c.discarded << ", \"recovered_from\": \""
        << c.recovered_from << "\", \"crash_fired\": "
        << (c.crash_fired ? "true" : "false")
        << ", \"bit_exact\": " << (c.bits_equal ? "true" : "false")
        << ", \"trajectory_equal\": "
        << (c.trajectory_equal ? "true" : "false") << "}";
  }
  out << "\n]}\n";
  if (!resume_ok || !torn_ok || !failover_ok) std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  register_all();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  finalize();
  benchmark::Shutdown();
  return 0;
}
