// Cross-device scale-out — CollaPois vs a coordinate defense at
// production sampling ratios (DESIGN.md §12).
//
// Sweeps the registered population N over {10^3, 10^4, 10^5} with a
// fixed round cohort of ~512 sampled clients (q = 512/N, the paper's
// cross-device regime where q*N << N), running the lazy population
// behind a 4-shard aggregation tree. Per point it reports:
//   - peak_rss_bytes:  process high-water mark (runtime::peak_rss_bytes),
//                      reset per point via reset_peak_rss when the
//                      kernel allows it (else points run in ascending-N
//                      order and the monotone peaks still bound growth);
//   - materialized:    distinct clients ever instantiated — the lazy
//                      population's working set;
//   - rounds_per_sec:  campaign throughput.
//
// Three gates make the scale-out claims executable (exit 1 on failure):
//   1. shard_eq_flat — at N=10^3 the sharded run's final global model is
//      bit-identical to the flat (--shards 1) run;
//   2. rss_budget — peak RSS at N=10^5 stays under an absolute budget;
//   3. rss_sublinear — peak RSS grows by far less than the 100x
//      population growth (the lazy working set is the distinct clients
//      the run samples, not O(N)).
// The curve lands in BENCH_scale_out.json in the working directory.
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "runtime/rss.h"

namespace {

using namespace collapois;

constexpr std::size_t kCohortTarget = 512;
constexpr std::size_t kShards = 4;
// Absolute peak-RSS budget for the 10^5-client point. The working set is
// the ~1.5k distinct clients three rounds sample plus the materialized
// attackers — measured ~25 MB; the budget leaves headroom without ever
// admitting an O(N) population.
constexpr std::size_t kRssBudgetBytes = 1536ull << 20;  // 1.5 GiB
// Peak RSS may grow with N (bigger sampling bitmaps, more distinct
// clients touched across rounds) but must stay far under the 100x
// population growth between the first and last point.
constexpr double kMaxRssGrowth = 10.0;

const std::vector<std::size_t>& populations() {
  static const std::vector<std::size_t> n = {1'000, 10'000, 100'000};
  return n;
}

sim::ExperimentConfig workload(std::size_t population) {
  sim::ExperimentConfig cfg;
  cfg.dataset = sim::DatasetKind::sentiment_like;
  cfg.attack = sim::AttackKind::collapois;
  cfg.defense = defense::DefenseKind::trimmed_mean;
  cfg.n_clients = population;
  cfg.samples_per_client = 16;
  // Production sampling ratio: a fixed ~512-client cohort regardless of
  // the registered population (q = 512/N), the paper's cross-device shape.
  cfg.sample_prob =
      std::min(1.0, static_cast<double>(kCohortTarget) /
                        static_cast<double>(population));
  // The paper's 0.1% compromise level; under lazy_clients the arming
  // phase materializes exactly this set for the auxiliary pool.
  cfg.compromised_fraction = 0.001;
  cfg.rounds = 3 * bench::scale();
  cfg.attack_start_round = 1;
  cfg.lazy_clients = true;
  cfg.shards = kShards;
  cfg.threads = 4;
  cfg.eval_max_clients = 64;
  cfg.seed = 1234;
  return cfg;
}

struct Point {
  std::size_t population = 0;
  std::size_t cohort = 0;
  std::size_t peak_rss_bytes = 0;
  std::size_t materialized = 0;
  double rounds_per_sec = 0.0;
  double benign_ac = 0.0;
  double attack_sr = 0.0;
};

std::map<std::size_t, Point>& points() {
  static std::map<std::size_t, Point> p;
  return p;
}

bool& shard_eq_flat() {
  static bool ok = true;
  return ok;
}

bool& rss_resettable() {
  static bool ok = true;
  return ok;
}

void run_point(benchmark::State& state, std::size_t population) {
  sim::ExperimentConfig cfg = workload(population);
  for (auto _ : state) {
    // Per-point peak when the kernel lets us clear the watermark; the
    // ascending-N registration order keeps the monotone fallback sound.
    rss_resettable() = runtime::reset_peak_rss() && rss_resettable();
    const sim::ExperimentResult r = sim::run_experiment(cfg);

    Point p;
    p.population = population;
    p.cohort = static_cast<std::size_t>(
        cfg.sample_prob * static_cast<double>(population) + 0.5);
    double wall_ms = 0.0;
    for (const auto& rec : r.rounds) {
      wall_ms += rec.wall_ms;
      p.peak_rss_bytes = std::max(p.peak_rss_bytes, rec.peak_rss_bytes);
      p.materialized = std::max(p.materialized, rec.n_materialized);
    }
    p.rounds_per_sec = wall_ms > 0.0
                           ? static_cast<double>(r.rounds.size()) * 1000.0 /
                                 wall_ms
                           : 0.0;
    p.benign_ac = r.population.benign_ac;
    p.attack_sr = r.population.attack_sr;
    points()[population] = p;

    // Gate 1 at the smallest point: the shard tree must be invisible in
    // the result — bit-identical final global vs the flat path.
    if (population == populations().front()) {
      sim::ExperimentConfig flat = cfg;
      flat.shards = 1;
      const sim::ExperimentResult f = sim::run_experiment(flat);
      shard_eq_flat() =
          f.final_global.size() == r.final_global.size() &&
          std::memcmp(f.final_global.data(), r.final_global.data(),
                      f.final_global.size() * sizeof(float)) == 0;
    }

    state.counters["peak_rss_mb"] =
        static_cast<double>(p.peak_rss_bytes) / (1024.0 * 1024.0);
    state.counters["materialized"] = static_cast<double>(p.materialized);
    state.counters["rounds_per_sec"] = p.rounds_per_sec;
    bench::report_counters(state, r);
  }
}

void register_all() {
  for (std::size_t n : populations()) {
    const std::string name =
        "scale_out/population:" + std::to_string(n) + "/shards:" +
        std::to_string(kShards);
    benchmark::RegisterBenchmark(
        name.c_str(), [n](benchmark::State& s) { run_point(s, n); })
        ->Iterations(1)
        ->Unit(benchmark::kSecond);
  }
}

void finalize() {
  auto& pts = points();
  if (pts.empty()) return;

  std::cout << "== Scale-out — lazy population behind a " << kShards
            << "-shard tree, CollaPois vs trimmed-mean, cohort ~"
            << kCohortTarget << " ==\n";
  std::cout << std::right << std::setw(12) << "population" << std::setw(9)
            << "cohort" << std::setw(14) << "peak_rss_mb" << std::setw(14)
            << "materialized" << std::setw(13) << "rounds_per_s"
            << std::setw(12) << "benign_ac" << std::setw(12) << "attack_sr"
            << "\n";
  for (const auto& [n, p] : pts) {
    std::cout << std::right << std::setw(12) << p.population << std::setw(9)
              << p.cohort << std::fixed << std::setprecision(1)
              << std::setw(14)
              << static_cast<double>(p.peak_rss_bytes) / (1024.0 * 1024.0)
              << std::setprecision(0) << std::setw(14)
              << static_cast<double>(p.materialized) << std::setprecision(2)
              << std::setw(13) << p.rounds_per_sec << std::setprecision(4)
              << std::setw(12) << p.benign_ac << std::setw(12) << p.attack_sr
              << "\n";
    std::cout.unsetf(std::ios::fixed);
  }

  const Point& first = pts.begin()->second;
  const Point& last = pts.rbegin()->second;
  const bool rss_known = first.peak_rss_bytes > 0 && last.peak_rss_bytes > 0;
  const double growth =
      rss_known ? static_cast<double>(last.peak_rss_bytes) /
                      static_cast<double>(first.peak_rss_bytes)
                : 0.0;
  const bool budget_ok = !rss_known || last.peak_rss_bytes <= kRssBudgetBytes;
  const bool sublinear_ok = !rss_known || growth <= kMaxRssGrowth;
  std::cout << "shard_eq_flat=" << (shard_eq_flat() ? "yes" : "NO")
            << "  rss_budget=" << (budget_ok ? "ok" : "EXCEEDED")
            << "  rss_growth_" << first.population << "_to_"
            << last.population << "=" << std::fixed << std::setprecision(2)
            << growth << "x (limit " << kMaxRssGrowth << "x, population 100x)"
            << "  per_point_peaks="
            << (rss_resettable() ? "reset" : "monotone-fallback") << "\n";
  std::cout.unsetf(std::ios::fixed);

  std::ofstream out("BENCH_scale_out.json");
  out << "{\"bench\": \"scale_out\",\n"
      << " \"workload\": \"sentiment/collapois/trimmedmean cohort~"
      << kCohortTarget << " shards=" << kShards << " lazy=true rounds="
      << workload(populations().front()).rounds << "\",\n"
      << " \"shard_eq_flat\": " << (shard_eq_flat() ? "true" : "false")
      << ",\n \"rss_budget_bytes\": " << kRssBudgetBytes
      << ",\n \"rss_budget_ok\": " << (budget_ok ? "true" : "false")
      << ",\n \"rss_growth\": " << growth
      << ",\n \"rss_growth_limit\": " << kMaxRssGrowth
      << ",\n \"per_point_peaks\": \""
      << (rss_resettable() ? "reset" : "monotone-fallback")
      << "\",\n \"points\": [";
  bool first_row = true;
  for (const auto& [n, p] : pts) {
    if (!first_row) out << ",";
    first_row = false;
    out << "\n  {\"population\": " << p.population
        << ", \"cohort\": " << p.cohort
        << ", \"peak_rss_bytes\": " << p.peak_rss_bytes
        << ", \"materialized\": " << p.materialized
        << ", \"rounds_per_sec\": " << p.rounds_per_sec
        << ", \"benign_ac\": " << p.benign_ac
        << ", \"attack_sr\": " << p.attack_sr << "}";
  }
  out << "\n]}\n";
  if (!shard_eq_flat() || !budget_ok || !sublinear_ok) std::exit(1);
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
