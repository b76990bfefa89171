// collapois_bench: the end-to-end campaign benchmark.
//
//   collapois_bench --workload NAME [--seed N] [--seconds S]
//                   [--trace 0|1] [--trace-out FILE] [--out FILE]
//                   [--work-dir DIR] [--bounds name=share,...]
//   collapois_bench --smoke [--workload NAME|all] [--work-dir DIR]
//
// Closed loop: one campaign at a time, threads = min(4, hardware
// concurrency), for --seconds of measuring. One process measures one
// workload, because the peak-RSS high-water mark cannot be reset below
// the heap an earlier workload left resident; run.py runs all four, one
// process each.
//
// Every iteration times set-up probes (sim::run_experiment until the
// injected crash after round 0) and one full campaign, all with tracing
// off; --trace 0 (default) reports these end-to-end metrics. --trace 1
// follows each campaign with a run of the layer harness (harness.h) and
// reports the per-layer metrics instead. --smoke runs tiny copies of the
// workloads once, reports both sets and checks that every metric was
// produced.
//
// The last line of stdout is the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Everything else goes to stderr or to --out (full report, including
// the host stamp) and --trace-out (Chrome trace events). The exit code
// is 1 when any correctness check failed and 2 on bad arguments.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "kernels/cpu_dispatch.h"
#include "runtime/rss.h"
#include "runtime/timer.h"
#include "sim/runner.h"
#include "stats/summary.h"

namespace {

using namespace collapois;
using bench::MetricDef;

// Set-up takes 0.2-0.9 s and is noisy, so every iteration probes it at
// least kMinProbes times and until kProbeSeconds have passed.
constexpr int kMinProbes = 3;
constexpr int kMaxProbes = 50;
constexpr double kProbeSeconds = 1.0;

std::size_t bench_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw, 1, 4);
}

// --- workloads ---------------------------------------------------------------
// Every workload runs CollaPois against FedAvg. `flags` is the same
// campaign as collapois_cli flags (plus --seed and --threads 4), and
// must be kept in step with `make`.
struct Workload {
  const char* name;
  const char* flags;
  // benign_ac below this fails the run. The floors sit well under the
  // lowest value seen over seeds 1-30 and far above chance, so they catch
  // a model that stopped learning, not an unlucky seed. The smoke copies
  // train for three rounds and get their own floor.
  double floor;
  double smoke_floor;
  bool checkpoints;  // --checkpoint DIR/ck.bin --checkpoint-every 2
  sim::ExperimentConfig (*make)(bool smoke);
};

sim::ExperimentConfig base(sim::DatasetKind dataset,
                           defense::DefenseKind defense) {
  sim::ExperimentConfig c;
  c.dataset = dataset;
  c.defense = defense;
  c.algorithm = sim::AlgorithmKind::fedavg;
  c.attack = sim::AttackKind::collapois;
  c.threads = bench_threads();
  return c;
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"lenet-krum-sync",
       "--dataset femnist --defense krum --clients 400 --q 0.16 --rounds 120 "
       "--strike 20 --fraction 0.025",
       0.60, 0.05, false,
       [](bool smoke) {
         auto c = base(sim::DatasetKind::femnist_like,
                       defense::DefenseKind::krum);
         c.n_clients = smoke ? 60 : 400;
         c.sample_prob = 0.16;
         c.rounds = smoke ? 3 : 120;
         c.attack_start_round = smoke ? 1 : 20;
         c.compromised_fraction = smoke ? 0.05 : 0.025;
         return c;
       }},
      {"mlp-median-async-int8",
       "--dataset sentiment --defense median --clients 5000 --q 0.02 "
       "--rounds 600 --strike 20 --round-engine buffered_async --async-k 32 "
       "--net-loss 0.05 --net-latency-max 200 --codec int8",
       0.80, 0.50, false,
       [](bool smoke) {
         auto c = base(sim::DatasetKind::sentiment_like,
                       defense::DefenseKind::coord_median);
         c.n_clients = smoke ? 500 : 5000;
         c.sample_prob = smoke ? 0.05 : 0.02;
         c.rounds = smoke ? 3 : 600;
         c.attack_start_round = smoke ? 1 : 20;
         c.round_engine = fl::RoundEngineKind::buffered_async;
         c.async.k = smoke ? 8 : 32;
         c.net.enabled = true;
         c.net.loss_prob = 0.05;
         c.net.latency_max_ms = 200.0;
         c.codec.kind = net::CodecKind::int8;
         return c;
       }},
      {"mlp-trimmed-lazy100k",
       "--dataset sentiment --defense trimmedmean --population 100000 "
       "--q 0.00512 --rounds 10 --strike 2 --shards 4 --lazy-clients "
       "--eval-max-clients 500 --fraction 0.001",
       0.70, 0.50, false,
       [](bool smoke) {
         auto c = base(sim::DatasetKind::sentiment_like,
                       defense::DefenseKind::trimmed_mean);
         c.n_clients = smoke ? 5000 : 100000;
         c.sample_prob = smoke ? 0.02 : 0.00512;
         c.rounds = smoke ? 3 : 10;
         c.attack_start_round = smoke ? 1 : 2;
         c.shards = 4;
         c.lazy_clients = true;
         c.eval_max_clients = smoke ? 100 : 500;
         c.compromised_fraction = smoke ? 0.002 : 0.001;
         return c;
       }},
      {"lenet-median-async-evalckpt",
       "--dataset femnist --defense median --clients 300 --q 0.1 --rounds 100 "
       "--strike 20 --fraction 0.025 --round-engine buffered_async "
       "--async-k 32 --eval-every 2",
       0.80, 0.05, true,
       [](bool smoke) {
         auto c = base(sim::DatasetKind::femnist_like,
                       defense::DefenseKind::coord_median);
         c.n_clients = smoke ? 60 : 300;
         c.sample_prob = smoke ? 0.2 : 0.1;
         c.rounds = smoke ? 3 : 100;
         c.attack_start_round = smoke ? 1 : 20;
         c.compromised_fraction = smoke ? 0.05 : 0.025;
         c.round_engine = fl::RoundEngineKind::buffered_async;
         c.async.k = smoke ? 8 : 32;
         c.eval_every = 2;
         return c;
       }},
  };
  return all;
}

const std::vector<MetricDef>& end_to_end_defs() {
  static const std::vector<MetricDef> defs = {
      {"campaign_s", "s"},
      {"setup_s", "s"},
      {"peak_rss_mib", "MiB"},
      {"benign_ac", "fraction"},
  };
  return defs;
}

// --- small helpers -------------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// A JSON string literal of `s` (failure messages carry exception text).
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::uint64_t fnv1a(const tensor::FlatVec& v) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (float f : v) {
    unsigned char bytes[sizeof f];
    std::memcpy(bytes, &f, sizeof f);
    for (unsigned char b : bytes) {
      h ^= b;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

std::string hex(std::uint64_t h) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

double median_of(const std::vector<double>& xs) {
  return xs.empty() ? std::nan("") : stats::median(xs);
}

struct Summary {
  double median = 0.0, min = 0.0, max = 0.0, spread = 0.0;
  std::size_t n = 0;
};

Summary summarize(const std::vector<double>& xs) {
  Summary s;
  s.n = xs.size();
  if (xs.empty()) return s;
  s.median = stats::median(xs);
  s.min = *std::min_element(xs.begin(), xs.end());
  s.max = *std::max_element(xs.begin(), xs.end());
  s.spread = s.median != 0.0 ? (s.max - s.min) / s.median : 0.0;
  return s;
}

// --- one workload's measurements -----------------------------------------------

struct Run {
  const Workload* w = nullptr;
  sim::ExperimentConfig cfg;
  sim::RunOptions opts;
  double floor = 0.0;
  double measured_s = 0.0;
  double last_iteration_s = 0.0;
  std::size_t iterations = 0;
  std::map<std::string, std::vector<double>> e2e;  // per metric, per rep
  std::map<std::string, std::vector<double>> layer;
  std::optional<std::uint64_t> hash;
  double attack_sr = 0.0;
  std::size_t rounds = 0;
  std::size_t updates = 0;
  bool rss_reset = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  bench::TracedCampaign last_trace;
};

void fail(Run& r, const std::string& what) {
  std::cerr << "FAIL [" << r.w->name << "] " << what << "\n";
  r.failures.push_back(what);
}

// Checks shared by the product run and the harness: the determinism
// contract (one final_global per seed) and the benign_ac floor.
bool check_outcome(Run& r, const tensor::FlatVec& final_global,
                   double benign_ac, const char* who) {
  bool ok = true;
  const std::uint64_t h = fnv1a(final_global);
  if (!r.hash) {
    r.hash = h;
  } else if (*r.hash != h) {
    fail(r, std::string(who) + ": final_global hash " + hex(h) +
                " differs from the first rep's " + hex(*r.hash));
    ok = false;
  }
  if (!(benign_ac >= r.floor)) {
    fail(r, std::string(who) + ": benign_ac " + num(benign_ac) +
                " below the floor " + num(r.floor));
    ok = false;
  }
  return ok;
}

void setup_probe(Run& r) {
  ++r.attempted;
  sim::RunOptions probe = r.opts;
  probe.crash_round = 0;
  probe.crash_phase = sim::CrashPhase::post_train;
  const auto start = runtime::wall_now();
  try {
    sim::run_experiment(r.cfg, probe);
    fail(r, "setup probe: run_experiment returned instead of crashing");
    ++r.failed;
  } catch (const sim::CrashInjected&) {
    r.e2e["setup_s"].push_back(runtime::ms_since(start) / 1000.0);
  } catch (const std::exception& e) {
    fail(r, std::string("setup probe: ") + e.what());
    ++r.failed;
  }
}

double campaign(Run& r) {
  ++r.attempted;
  r.rss_reset = runtime::reset_peak_rss() && r.rss_reset;
  const auto start = runtime::wall_now();
  try {
    const sim::ExperimentResult res = sim::run_experiment(r.cfg, r.opts);
    const double seconds = runtime::ms_since(start) / 1000.0;
    bool ok = true;
    r.updates = 0;
    for (const sim::RoundRecord& rec : res.rounds) {
      r.updates += rec.n_dispatched;
      if (rec.cohort_size != rec.n_accepted + rec.n_dropped + rec.n_rejected) {
        fail(r, "round " + std::to_string(rec.round) +
                    ": cohort_size != accepted + dropped + rejected");
        ok = false;
      }
    }
    ok = check_outcome(r, res.final_global, res.population.benign_ac,
                       "campaign") && ok;
    if (!ok) ++r.failed;
    r.e2e["campaign_s"].push_back(seconds);
    r.e2e["peak_rss_mib"].push_back(
        static_cast<double>(runtime::peak_rss_bytes()) / (1024.0 * 1024.0));
    r.e2e["benign_ac"].push_back(res.population.benign_ac);
    r.attack_sr = res.population.attack_sr;
    r.rounds = res.rounds.size();
    return seconds;
  } catch (const std::exception& e) {
    fail(r, std::string("campaign: ") + e.what());
    ++r.failed;
    return 0.0;
  }
}

// Returns the harness wall time in ms, 0 when the run failed.
double traced(Run& r, const std::string& work_dir) {
  ++r.attempted;
  try {
    bench::TracedCampaign tc = bench::run_traced_campaign(r.cfg, r.opts,
                                                          work_dir);
    bool ok = check_outcome(r, tc.final_global, tc.population.benign_ac,
                            "harness");
    if (tc.invariant_violations > 0) {
      fail(r, "harness: cohort_size != accepted + dropped + rejected in " +
                  std::to_string(tc.invariant_violations) + " rounds");
      ok = false;
    }
    const double coverage = tc.metrics["trace.coverage"];
    if (coverage < 0.95) {
      fail(r, "harness: trace.coverage " + num(coverage) + " < 0.95");
      ok = false;
    }
    if (!ok) ++r.failed;
    for (const auto& [name, value] : tc.metrics) r.layer[name].push_back(value);
    r.last_trace = std::move(tc);
    return r.last_trace.wall_ms;
  } catch (const std::exception& e) {
    fail(r, std::string("harness: ") + e.what());
    ++r.failed;
    return 0.0;
  }
}

// --- output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string host_json() {
  const kernels::DispatchInfo di = kernels::dispatch_info();
  const unsigned hw = std::thread::hardware_concurrency();
  std::ostringstream os;
  os << "{\"isa_tier\": \"" << kernels::isa_tier_name(di.tier)
     << "\", \"microkernel\": \"" << di.microkernel << "\", \"mr\": " << di.mr
     << ", \"nr\": " << di.nr
     << ", \"forced\": " << (di.forced ? "true" : "false")
     << ", \"cpu_features\": \"" << kernels::cpu_feature_string()
     << "\", \"hardware_concurrency\": " << hw
     << ", \"threads\": " << bench_threads()
     << ", \"oversubscribed\": " << (bench_threads() > hw ? "true" : "false")
     << ", \"build_type\": \"" << COLLAPOIS_BENCH_BUILD_TYPE
     << "\", \"compiler\": \"" << __VERSION__ << "\"}";
  return os.str();
}

void print_table(const Run& r, const std::map<std::string, double>& bounds,
                 bool trace) {
  std::fprintf(stderr, "\n== %s  (%zu iterations, %.1f s measured)\n",
               r.w->name, r.iterations, r.measured_s);
  std::fprintf(stderr, "   flags: %s\n", r.w->flags);
  if (!r.e2e.empty()) {
    std::fprintf(stderr, "   %-14s %14s %14s %14s %3s %8s %7s\n", "metric",
                 "median", "min", "max", "n", "spread", "bound");
    for (const MetricDef& d : end_to_end_defs()) {
      const auto it = r.e2e.find(d.name);
      if (it == r.e2e.end()) continue;
      const Summary s = summarize(it->second);
      const auto b = bounds.find(d.name);
      char bound[16] = "-";
      if (b != bounds.end()) std::snprintf(bound, sizeof bound, "%.3g", b->second);
      std::fprintf(stderr, "   %-14s %14.6g %14.6g %14.6g %3zu %8.4f %7s %s%s\n",
                   d.name, s.median, s.min, s.max, s.n, s.spread, bound, d.unit,
                   b != bounds.end() && s.spread > b->second ? "  UNSTABLE"
                                                             : "");
    }
    std::fprintf(stderr,
                 "   attack_sr %.4f  rounds %zu  client updates %zu  "
                 "final_global %s%s\n",
                 r.attack_sr, r.rounds, r.updates,
                 r.hash ? hex(*r.hash).c_str() : "-",
                 r.rss_reset ? "" : "  (peak RSS unreset)");
  }
  if (trace && !r.last_trace.spans.empty()) {
    std::fprintf(stderr, "   layers by self time (last harness rep):\n");
    const auto layers = bench::layer_times(r.last_trace.spans);
    for (const auto& l : layers) {
      std::fprintf(stderr, "     %-30s %10.2f ms self %10.2f ms total  n=%zu\n",
                   l.name.c_str(), l.self_ms, l.total_ms, l.count);
    }
  }
  for (const auto& f : r.failures) std::fprintf(stderr, "   FAILED: %s\n", f.c_str());
}

void write_run_json(std::ostream& os, const Run& r,
                    const std::map<std::string, double>& bounds,
                    const std::vector<Metric>& metrics) {
  os << "    {\"workload\": \"" << r.w->name << "\", \"flags\": \""
     << r.w->flags << "\", \"threads\": " << r.cfg.threads
     << ", \"iterations\": " << r.iterations
     << ", \"measured_s\": " << num(r.measured_s) << ",\n     \"end_to_end\": {";
  bool first = true;
  for (const MetricDef& d : end_to_end_defs()) {
    const auto it = r.e2e.find(d.name);
    if (it == r.e2e.end()) continue;
    const Summary s = summarize(it->second);
    const auto b = bounds.find(d.name);
    os << (first ? "" : ",") << "\n       \"" << d.name
       << "\": {\"median\": " << num(s.median) << ", \"min\": " << num(s.min)
       << ", \"max\": " << num(s.max) << ", \"n\": " << s.n
       << ", \"unit\": \"" << d.unit << "\", \"spread\": " << num(s.spread)
       << ", \"values\": [";
    for (std::size_t i = 0; i < it->second.size(); ++i) {
      os << (i ? ", " : "") << num(it->second[i]);
    }
    os << "]";
    if (b != bounds.end()) {
      os << ", \"bound\": " << num(b->second) << ", \"unstable\": "
         << (s.spread > b->second ? "true" : "false");
    }
    if (std::string(d.name) == "peak_rss_mib" && !r.rss_reset) {
      os << ", \"unreset\": true";
    }
    os << "}";
    first = false;
  }
  os << "},\n     \"info\": {\"attack_sr\": " << num(r.attack_sr)
     << ", \"rounds\": " << r.rounds << ", \"client_updates\": " << r.updates
     << ", \"final_global_fnv1a\": \"" << (r.hash ? hex(*r.hash) : "")
     << "\", \"ops_attempted\": " << r.attempted
     << ", \"ops_failed\": " << r.failed << "},\n     \"per_layer\": {";
  first = true;
  if (!r.layer.empty()) {
    for (const Metric& m : metrics) {
      os << (first ? "" : ",") << "\n       \"" << m.name
         << "\": {\"value\": " << num(m.value) << ", \"unit\": \"" << m.unit
         << "\"}";
      first = false;
    }
    for (const auto& [name, value] : r.last_trace.nn_layers) {
      os << ",\n       \"" << name << "\": {\"value\": " << num(value)
         << ", \"unit\": \"us\"}";
    }
  }
  os << "},\n     \"top_self_time\": [";
  if (!r.last_trace.spans.empty()) {
    const auto layers = bench::layer_times(r.last_trace.spans);
    for (std::size_t i = 0; i < layers.size() && i < 3; ++i) {
      os << (i ? ", " : "") << "{\"layer\": \"" << layers[i].name
         << "\", \"self_ms\": " << num(layers[i].self_ms) << "}";
    }
  }
  os << "],\n     \"failures\": [";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    os << (i ? ", " : "") << quoted(r.failures[i]);
  }
  os << "]}";
}

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "error: " << error
            << "\nusage: collapois_bench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1]\n"
               "                      [--trace-out FILE] [--out FILE] "
               "[--work-dir DIR]\n"
               "                      [--bounds name=share,...]\n"
               "       collapois_bench --smoke [--workload NAME|all] "
               "[--work-dir DIR]\n";
  std::exit(2);
}

std::uint64_t parse_count(const std::string& flag, const std::string& raw) {
  if (raw.empty() || raw.size() > 18 ||
      raw.find_first_not_of("0123456789") != std::string::npos) {
    usage(flag + " needs a non-negative integer, got '" + raw + "'");
  }
  return std::stoull(raw);
}

double parse_share(const std::string& flag, const std::string& raw) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(raw, &pos);
    if (pos == raw.size() && std::isfinite(v) && v >= 0.0) return v;
  } catch (const std::exception&) {
  }
  usage(flag + " needs a finite non-negative number, got '" + raw + "'");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  std::uint64_t seconds = 20;
  bool trace = false;
  bool smoke = false;
  std::string trace_out;
  std::string out_path;
  std::string work_dir = ".bench_build/e2e/work";
  std::map<std::string, double> bounds;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      workload = value();
    } else if (flag == "--seed") {
      seed = parse_count(flag, value());
    } else if (flag == "--seconds") {
      seconds = parse_count(flag, value());
    } else if (flag == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      trace = v == "1";
    } else if (flag == "--trace-out") {
      trace_out = value();
    } else if (flag == "--out") {
      out_path = value();
    } else if (flag == "--work-dir") {
      work_dir = value();
    } else if (flag == "--bounds") {
      std::stringstream list(value());
      std::string item;
      while (std::getline(list, item, ',')) {
        const auto eq = item.find('=');
        if (eq == std::string::npos) usage("--bounds items are name=share");
        bounds[item.substr(0, eq)] = parse_share(flag, item.substr(eq + 1));
      }
    } else if (flag == "--smoke") {
      smoke = true;
    } else {
      usage("unknown flag " + flag);
    }
  }

  if (smoke && workload.empty()) workload = "all";
  if (!smoke && (workload.empty() || workload == "all")) {
    usage("name one --workload; run.py runs all four, one process each");
  }
  std::vector<Run> runs;
  for (const Workload& w : workloads()) {
    if (workload != "all" && workload != w.name) continue;
    Run r;
    r.w = &w;
    r.cfg = w.make(smoke);
    r.cfg.seed = seed;
    r.floor = smoke ? w.smoke_floor : w.floor;
    if (w.checkpoints) {
      r.opts.checkpoint_save_path = work_dir + "/ck.bin";
      r.opts.checkpoint_every = 2;
    }
    runs.push_back(std::move(r));
  }
  if (runs.empty()) usage("unknown workload '" + workload + "'");
  std::error_code ec;
  std::filesystem::create_directories(work_dir, ec);
  if (ec) usage("cannot create --work-dir " + work_dir + ": " + ec.message());

  // Closed loop. An iteration starts only if the previous one would still
  // fit in the window, and every workload gets at least `min_iterations`
  // (smoke: exactly one, interleaved across the tiny copies).
  const bool report_e2e = !trace || smoke;
  const bool harness = trace || smoke;
  const std::size_t min_iterations = smoke ? 1 : 2;
  const double window = smoke ? 0.0 : static_cast<double>(seconds);
  bool pending = true;
  while (pending) {
    pending = false;
    for (Run& r : runs) {
      const bool more = r.iterations < min_iterations ||
                        r.measured_s + r.last_iteration_s <= window;
      if (!more) continue;
      pending = true;
      const auto start = runtime::wall_now();
      // The probes also run in --trace 1, so the campaign after them meets
      // the same warm heap in both modes.
      for (int i = 0; i < kMinProbes || (i < kMaxProbes &&
                                         runtime::ms_since(start) <
                                             kProbeSeconds * 1000.0);
           ++i) {
        setup_probe(r);
      }
      // Each harness run is compared with the tracing-off campaign next to
      // it, in alternating order, so host speed drift between iterations
      // and within a pair cancels.
      const bool harness_first = harness && r.iterations % 2 == 1;
      double harness_ms = 0.0;
      if (harness_first) harness_ms = traced(r, work_dir);
      const double campaign_s = campaign(r);
      if (harness && !harness_first) harness_ms = traced(r, work_dir);
      if (campaign_s > 0.0 && harness_ms > 0.0) {
        r.layer["trace.wall_ratio"].push_back(harness_ms / 1000.0 / campaign_s);
      }
      r.last_iteration_s = runtime::ms_since(start) / 1000.0;
      r.measured_s += r.last_iteration_s;
      ++r.iterations;
    }
  }

  // --- result --------------------------------------------------------------
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;
  std::vector<Metric> result;
  std::vector<std::vector<Metric>> layer_metrics(runs.size());
  for (std::size_t k = 0; k < runs.size(); ++k) {
    Run& r = runs[k];
    const std::string prefix = runs.size() > 1 ? std::string(r.w->name) + "." : "";
    std::vector<Metric> reported;
    if (harness) {
      // The smoke copies run for a fraction of a second, too short to
      // compare wall times; they check everything else.
      const double ratio = median_of(r.layer["trace.wall_ratio"]);
      if (!smoke && !(ratio >= 0.9 && ratio <= 1.1)) {
        fail(r, "trace.wall_ratio " + num(ratio) + " outside [0.9, 1.1]");
        ++r.failed;
      }
      for (const MetricDef& d : bench::layer_metric_defs()) {
        const auto it = r.layer.find(d.name);
        const double v = it == r.layer.end() ? std::nan("")
                                             : median_of(it->second);
        layer_metrics[k].push_back({d.name, v, d.unit});
        reported.push_back({d.name, v, d.unit});
      }
    }
    // End-to-end metrics are checked in both modes: each must be positive.
    for (const MetricDef& d : end_to_end_defs()) {
      const double v = median_of(r.e2e[d.name]);
      if (!(v > 0.0)) {
        fail(r, std::string(d.name) + " missing or not positive");
        ++r.failed;
      }
      if (report_e2e) reported.push_back({d.name, v, d.unit});
    }
    for (const Metric& m : reported) {
      if (!std::isfinite(m.value)) {
        fail(r, "metric " + m.name + " has no finite value");
        ++r.failed;
      }
      result.push_back({prefix + m.name, m.value, m.unit});
    }
    attempted += r.attempted;
    failed += r.failed;
    correct = correct && r.failures.empty();
  }

  for (const Run& r : runs) print_table(r, bounds, harness);
  std::fprintf(stderr, "\nhost: %s\n", host_json().c_str());

  if (!out_path.empty()) {
    std::ofstream os(out_path);
    os << "{\"seed\": " << seed << ", \"seconds\": " << seconds
       << ", \"trace\": " << (trace ? 1 : 0)
       << ", \"smoke\": " << (smoke ? "true" : "false")
       << ",\n  \"host\": " << host_json() << ",\n  \"workloads\": [\n";
    for (std::size_t k = 0; k < runs.size(); ++k) {
      write_run_json(os, runs[k], bounds, layer_metrics[k]);
      os << (k + 1 < runs.size() ? ",\n" : "\n");
    }
    os << "  ]}\n";
    if (!os) {
      std::cerr << "error: cannot write " << out_path << "\n";
      correct = false;
      ++failed;
    }
  }
  if (!trace_out.empty() && harness) {
    std::ofstream os(trace_out);
    os << "{\"traceEvents\": [\n";
    for (std::size_t k = 0; k < runs.size(); ++k) {
      if (k > 0) os << ",\n";
      bench::write_trace_events(os, runs[k].last_trace.spans,
                                static_cast<int>(k + 1), runs[k].w->name);
    }
    os << "\n]}\n";
    if (!os) {
      std::cerr << "error: cannot write " << trace_out << "\n";
      correct = false;
      ++failed;
    }
  }

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < result.size(); ++i) {
    std::cout << (i ? ", " : "") << "\"" << result[i].name
              << "\": {\"value\": " << num(result[i].value) << ", \"unit\": \""
              << result[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}
