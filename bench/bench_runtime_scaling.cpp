// Runtime scaling — the parallel round loop's speedup curve, under both
// compute-kernel sets.
//
// Sweeps kernels {naive, blocked} x threads {1, 2, 4, 8} on a CollaPois
// FEMNIST-like workload (full-population cohorts so the round loop is
// dominated by client training) and reports, per point:
//   - round_loop_ms:   sum of per-round wall-clock over the campaign;
//   - train_ms:        the client-training slice of it;
//   - clients_per_sec: mean trained-clients-per-second throughput;
//   - speedup:         that kernel set's T=1 round_loop_ms / this point's.
// The curve lands in BENCH_runtime_scaling.json (written to the working
// directory), including the headline end-to-end kernel-layer win:
// blocked vs naive train_ms at threads=1.
//
// Determinism is asserted, not assumed: within each kernel set, every
// point's final global model must be element-exact equal to that set's
// T=1 baseline (ordered reduction, DESIGN.md §7; fixed kernel reduction
// order, DESIGN.md §9); the bench aborts loudly otherwise. The two sets
// are NOT compared to each other — they round differently by design.
#include <algorithm>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <thread>

#include "bench_common.h"
#include "kernels/kernels.h"
#include "runtime/thread_pool.h"

namespace {

using namespace collapois;

const std::vector<std::size_t>& thread_counts() {
  static const std::vector<std::size_t> t = {1, 2, 4, 8};
  return t;
}

const std::vector<kernels::KernelKind>& kernel_kinds() {
  static const std::vector<kernels::KernelKind> k = {
      kernels::KernelKind::naive, kernels::KernelKind::blocked};
  return k;
}

sim::ExperimentConfig workload() {
  sim::ExperimentConfig cfg = bench::base_config(sim::DatasetKind::femnist_like);
  cfg.attack = sim::AttackKind::collapois;
  cfg.compromised_fraction = bench::paper_fraction("1%");
  // Scaling-bench shape: a modest population at full participation so
  // every round trains a full cohort (the dispatch the pool parallelizes)
  // rather than the q*N ~ 5 clients of the figure benches.
  cfg.n_clients = 24 * bench::scale();
  cfg.rounds = 12 * bench::scale();
  cfg.sample_prob = 1.0;
  cfg.attack_start_round = 4;
  return cfg;
}

struct Point {
  kernels::KernelKind kernels = kernels::KernelKind::blocked;
  std::size_t threads = 0;
  double round_loop_ms = 0.0;
  double train_ms = 0.0;
  double clients_per_sec = 0.0;
  double speedup = 1.0;
  bool bit_identical_to_t1 = true;
  // threads > hardware_concurrency: the point asks for more workers than
  // the machine has, so flat/negative scaling here is oversubscription,
  // not a pool regression. Marked in the table and the JSON so a 1-core
  // container's flat curve cannot be misread.
  bool oversubscribed = false;
};

// Keyed by (kernel kind, thread count).
using PointKey = std::pair<kernels::KernelKind, std::size_t>;

std::map<PointKey, Point>& points() {
  static std::map<PointKey, Point> p;
  return p;
}

// Per-kernel-set T=1 reference model for the determinism gate.
std::map<kernels::KernelKind, tensor::FlatVec>& baseline_globals() {
  static std::map<kernels::KernelKind, tensor::FlatVec> g;
  return g;
}

void run_point(benchmark::State& state, kernels::KernelKind kind,
               std::size_t threads) {
  sim::ExperimentConfig cfg = workload();
  cfg.kernels = kind;
  cfg.threads = threads;
  for (auto _ : state) {
    const sim::ExperimentResult r = sim::run_experiment(cfg);
    Point p;
    p.kernels = kind;
    p.threads = threads;
    p.oversubscribed = threads > std::thread::hardware_concurrency();
    double cps_sum = 0.0;
    for (const auto& rec : r.rounds) {
      p.round_loop_ms += rec.wall_ms;
      p.train_ms += rec.train_ms;
      cps_sum += rec.clients_per_sec;
    }
    p.clients_per_sec = r.rounds.empty()
                            ? 0.0
                            : cps_sum / static_cast<double>(r.rounds.size());
    auto& baselines = baseline_globals();
    if (threads == 1) {
      baselines[kind] = r.final_global;
    } else if (baselines.count(kind) != 0) {
      p.bit_identical_to_t1 = r.final_global == baselines[kind];
    }
    points()[{kind, threads}] = p;
    state.counters["round_loop_ms"] = p.round_loop_ms;
    state.counters["clients_per_sec"] = p.clients_per_sec;
    bench::report_counters(state, r);
  }
}

void register_all() {
  for (const auto kind : kernel_kinds()) {
    for (std::size_t t : thread_counts()) {
      const std::string name = std::string("runtime_scaling/kernels:") +
                               kernels::kernel_kind_name(kind) +
                               "/threads:" + std::to_string(t);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [kind, t](benchmark::State& s) { run_point(s, kind, t); })
          ->Iterations(1)
          ->Unit(benchmark::kSecond);
    }
  }
}

void finalize() {
  auto& pts = points();
  if (pts.empty()) return;
  bool deterministic = true;
  for (auto& [key, p] : pts) {
    const auto t1 = pts.find({key.first, 1});
    const double base = t1 != pts.end() ? t1->second.round_loop_ms : 0.0;
    if (base > 0.0 && p.round_loop_ms > 0.0) p.speedup = base / p.round_loop_ms;
    deterministic = deterministic && p.bit_identical_to_t1;
  }

  std::cout << "== Runtime scaling — parallel round loop, CollaPois FEMNIST"
               "-like, full participation ==\n";
  std::cout << std::right << std::setw(9) << "kernels" << std::setw(9)
            << "threads" << std::setw(16) << "round_loop_ms" << std::setw(12)
            << "train_ms" << std::setw(16) << "clients_per_s" << std::setw(10)
            << "speedup" << "\n";
  for (const auto& [key, p] : pts) {
    std::cout << std::right << std::setw(9)
              << kernels::kernel_kind_name(p.kernels) << std::setw(9)
              << p.threads << std::fixed << std::setprecision(1)
              << std::setw(16) << p.round_loop_ms << std::setw(12)
              << p.train_ms << std::setw(16) << p.clients_per_sec
              << std::setprecision(2) << std::setw(10) << p.speedup
              << (p.oversubscribed ? "  [oversubscribed]" : "") << "\n";
    std::cout.unsetf(std::ios::fixed);
  }
  if (std::any_of(pts.begin(), pts.end(),
                  [](const auto& kv) { return kv.second.oversubscribed; })) {
    std::cout << "[oversubscribed] = threads > hardware_concurrency; flat "
                 "speedup there reflects the host, not the pool.\n";
  }
  // End-to-end kernel-layer win: blocked vs naive client training at T=1.
  double kernel_speedup_t1 = 0.0;
  const auto naive_t1 = pts.find({kernels::KernelKind::naive, 1});
  const auto blocked_t1 = pts.find({kernels::KernelKind::blocked, 1});
  if (naive_t1 != pts.end() && blocked_t1 != pts.end() &&
      blocked_t1->second.train_ms > 0.0) {
    kernel_speedup_t1 =
        naive_t1->second.train_ms / blocked_t1->second.train_ms;
    std::cout << "kernel_train_speedup_t1 (naive/blocked train_ms) = "
              << std::fixed << std::setprecision(2) << kernel_speedup_t1
              << "\n";
    std::cout.unsetf(std::ios::fixed);
  }
  std::cout << "hardware_concurrency=" << std::thread::hardware_concurrency()
            << "  deterministic_across_thread_counts="
            << (deterministic ? "yes" : "NO — ORDERED REDUCTION BROKEN")
            << "\n";

  std::ofstream out("BENCH_runtime_scaling.json");
  out << "{\"bench\": \"runtime_scaling\",\n"
      << " \"workload\": \"femnist/collapois q=1.0 clients="
      << workload().n_clients << " rounds=" << workload().rounds << "\",\n"
      << " \"hardware_concurrency\": " << std::thread::hardware_concurrency()
      << ",\n \"deterministic_across_thread_counts\": "
      << (deterministic ? "true" : "false")
      << ",\n \"kernel_train_speedup_t1\": " << kernel_speedup_t1
      << ",\n \"points\": [";
  bool first = true;
  for (const auto& [key, p] : pts) {
    if (!first) out << ",";
    first = false;
    out << "\n  {\"kernels\": \"" << kernels::kernel_kind_name(p.kernels)
        << "\", \"threads\": " << p.threads
        << ", \"round_loop_ms\": " << p.round_loop_ms
        << ", \"train_ms\": " << p.train_ms
        << ", \"clients_per_sec\": " << p.clients_per_sec
        << ", \"speedup\": " << p.speedup
        << ", \"oversubscribed\": " << (p.oversubscribed ? "true" : "false")
        << "}";
  }
  out << "\n]}\n";
  out.close();  // std::exit skips destructors: flush the artifact first
  if (!deterministic) std::exit(1);
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
