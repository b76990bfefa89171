// Command-line experiment driver: every knob of ExperimentConfig exposed
// as a flag, results printed as tables or CSV. The fastest way to explore
// the attack/defense landscape without writing code.
//
//   collapois_cli --dataset femnist --algorithm fedavg --attack collapois
//                 --defense dp --alpha 0.1 --fraction 0.05 --rounds 200
//
// Every numeric flag is validated at the parse site: probabilities must
// be finite and in [0, 1], rates/durations finite and non-negative,
// counts plain unsigned decimals (a "-1" is rejected rather than
// silently wrapped by std::stoul). Cross-flag rules are sim::validate's,
// checked before the run starts. A bad value or combination prints the
// flag table and exits 2. The same table lives in README.md.
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>

#include "sim/report.h"
#include "sim/runner.h"

namespace {

using namespace collapois;

constexpr const char* kUsage = R"(usage: collapois_cli [flags]

experiment:
  --dataset femnist|sentiment        dataset substitute            [femnist]
  --algorithm fedavg|feddc|metafed   federated algorithm           [fedavg]
  --attack none|collapois|dpois|mrepl|dba                          [collapois]
  --defense none|dp|userdp|normbound|krum|multikrum|median|
            trimmedmean|rlr|signsgd|flare|crfl|ditto               [none]
  --alpha F          Dirichlet concentration, finite > 0           [1.0]
  --clients N        federation size                               [100]
  --samples N        samples per client                            [80]
  --fraction F       compromised fraction, in [0, 1]               [0.05]
  --rounds N         training rounds                               [200]
  --q F              client sampling probability, in (0, 1]        [0.05]
  --strike N         attack start round                            [20]
  --seed N           RNG seed                                      [42]
  --threads N        worker threads; 0 = auto, 1 = sequential      [0]
                     (results are bit-identical for any value)
  --kernels NAME     compute kernels: blocked | naive              [blocked]
                     (blocked = im2col + packed GEMM; naive =
                     reference loops — the two round differently)
  --defense-impl N   defense kernels: fast | naive                 [fast]
                     (fast = GEMM pairwise distances + SIMD
                     coordinate tiles; naive = reference loops)

  The blocked/fast hot paths pick a SIMD microkernel at runtime from
  cpuid (scalar | sse2 | avx2); the selected tier and detected CPU
  features appear in the run report's "kernels" block. Set
  COLLAPOIS_FORCE_ISA=scalar|sse2|avx2 to force a LOWER tier (forcing
  an unsupported tier fails at startup). Coordinate defense rules and
  the per-round angle summary are bit-identical across tiers, avx2's
  FMA included; GEMM results differ at rounding level between avx2
  (FMA) and the other tiers.

fault injection and hardening (DESIGN.md paragraph 6):
  --dropout F        per-round client dropout probability [0, 1]   [0]
  --straggler F      straggler probability [0, 1]                  [0]
  --corrupt F        corrupted-update probability [0, 1]           [0]
  --norm-ceiling F   quarantine updates with L2 norm above F,
                     finite >= 0; 0 disables                       [0]

simulated transport (DESIGN.md paragraph 8; every --net-* flag
implies --net):
  --net                    enable the transport layer              [off]
  --net-loss F             per-attempt message loss prob [0, 1]    [0]
  --net-corrupt F          per-attempt corruption prob [0, 1]      [0]
  --net-duplicate F        duplicate-delivery prob [0, 1]          [0]
  --net-latency-min F      min delivery latency, virtual ms >= 0   [10]
  --net-latency-max F      max delivery latency, virtual ms >= 0   [50]
  --net-deadline F         round deadline, virtual ms >= 0;
                           0 disables the deadline                 [0]
  --net-retries N          re-send attempts per client per round   [3]
  --net-backoff-base F     first re-send backoff, virtual ms >= 0  [20]
  --net-backoff-cap F      backoff ceiling, virtual ms >= 0        [160]
  --net-oversample F       over-provisioning factor, in [0, 16]:
                           sample ceil((1+F)*k), aggregate first k [0]
  --net-seed N             transport decision seed

update codec (DESIGN.md paragraph 15; lossy codecs require --net —
without a wire there is nothing to compress):
  --codec NAME             identity | fp16 | int8 | topk        [identity]
                           (identity = raw fp32 bits, bit-exact;
                           fp16/int8 = per-tensor quantization;
                           topk = magnitude sparsification with
                           varint-delta indices + fp16 values)
  --codec-bits N           quantization width for int8; only 8
                           is supported (rejected loudly otherwise) [8]
  --codec-topk F           kept-coordinate fraction for topk,
                           in (0, 1]                                [0.1]

round engine (DESIGN.md paragraph 11; every --async-* flag implies
--round-engine buffered_async):
  --round-engine NAME      sync | buffered_async                   [sync]
                           (sync = barrier rounds, bit-exact with
                           the pre-engine loop; buffered_async =
                           event-driven cycles on the virtual clock)
  --async-k N              aggregate every N admitted updates;
                           0 disables the count trigger            [8]
  --async-t-ms F           ... or every F virtual ms since the
                           last aggregation, finite >= 0;
                           0 disables the time trigger             [0]
  --async-max-staleness N  discard updates more than N rounds
                           stale (compute lag + buffer lag)        [8]

cross-device scale-out (DESIGN.md paragraph 12):
  --shards N               shard aggregators per round; 1 = flat    [1]
                           (bit-identical to the flat path for
                           FedAvg and the coordinate-wise defenses;
                           Krum/Multi-Krum/FLARE need the whole
                           cohort and reject N > 1)
  --population N           registered federation size — alias of
                           --clients, named for the cross-device
                           regime                                   [100]
  --lazy-clients           materialize clients (and their data) on
                           first sample instead of at startup;
                           requires --eval-max-clients > 0          [off]
  --eval-every N           population eval cadence in rounds;
                           0 = final round only                     [0]
  --eval-max-clients N     bound every eval sweep to N uniformly
                           strided clients; 0 = all                 [0]

infrastructure fault plane (DESIGN.md paragraph 13; every --shard-*
flag requires --shards > 1 — there is no tree to fault otherwise):
  --shard-crash F          per-attempt shard crash prob [0, 1]      [0]
  --shard-timeout F        per-attempt shard timeout prob [0, 1]    [0]
  --shard-corrupt F        per-attempt corrupt-partial prob [0, 1]  [0]
                           (detected by the root's digest check and
                           discarded; failover is bit-exact, so a
                           degraded round matches flat exactly)
  --shard-retries N        retries per shard per round              [2]
  --shard-backoff-base F   first retry backoff, virtual ms >= 0     [10]
  --shard-backoff-cap F    backoff ceiling, virtual ms >= 0         [80]
  --shard-fault-seed N     shard-fault decision seed

checkpoint/resume (sim/checkpoint.h + checkpoint_store.h; a resume is
bit-exact on the same ISA tier, across tiers only with --kernels naive):
  --checkpoint PATH --checkpoint-round N   halt after N rounds, save
  --checkpoint-every N     durable rolling checkpoint every N rounds
                           (atomic temp+flush+rename write, digest-
                           verified on load; needs --checkpoint PATH;
                           the run continues to --rounds)            [0]
  --checkpoint-keep K      checkpoint generations kept/searched
                           (PATH, PATH.1, ... PATH.K-1)             [3]
  --resume PATH            restore the newest INTACT generation and
                           run to --rounds (damaged heads fall back
                           down the chain, reported on stderr)

chaos harness (DESIGN.md paragraph 13):
  --crash-at R[:PHASE]     die deterministically at round R (0-based;
                           exit code 42 marks the scheduled crash).
                           PHASE = post-train (before the round's
                           checkpoint; default) | mid-buffer (right
                           after it) | mid-save (tear the head file
                           mid-write); mid-* phases need
                           --checkpoint-every

output:
  --topk           also print top-1/25/50% infected-client metrics
  --clusters       print the risk-cluster table (Eq. 8 / Eq. 9)
  --csv            emit population metrics as CSV
  --json-rounds    emit per-round telemetry as JSON on stdout
                   (includes the per-round transport block when --net)
)";

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "error: " << error << "\n\n" << kUsage;
  std::exit(2);
}

// std::stod accepts a numeric PREFIX ("0.5x" parses as 0.5); require the
// whole token to be consumed so typos fail loudly.
double parse_double(const std::string& flag, const std::string& raw) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(raw, &pos);
    if (pos != raw.size()) throw std::invalid_argument("trailing garbage");
    return v;
  } catch (const std::exception&) {
    usage(flag + ": '" + raw + "' is not a number");
  }
}

double parse_prob(const std::string& flag, const std::string& raw) {
  const double v = parse_double(flag, raw);
  if (!std::isfinite(v) || v < 0.0 || v > 1.0) {
    usage(flag + " must be a probability in [0, 1], got '" + raw + "'");
  }
  return v;
}

double parse_nonneg(const std::string& flag, const std::string& raw) {
  const double v = parse_double(flag, raw);
  if (!std::isfinite(v) || v < 0.0) {
    usage(flag + " must be finite and non-negative, got '" + raw + "'");
  }
  return v;
}

double parse_pos(const std::string& flag, const std::string& raw) {
  const double v = parse_double(flag, raw);
  if (!std::isfinite(v) || v <= 0.0) {
    usage(flag + " must be finite and positive, got '" + raw + "'");
  }
  return v;
}

// std::stoul silently wraps "-1" to 18446744073709551615; only plain
// unsigned decimals pass.
std::uint64_t parse_count(const std::string& flag, const std::string& raw) {
  if (raw.empty() || raw.find_first_not_of("0123456789") != std::string::npos) {
    usage(flag + " must be a non-negative integer, got '" + raw + "'");
  }
  try {
    return std::stoull(raw);
  } catch (const std::exception&) {
    usage(flag + ": '" + raw + "' is out of range");
  }
}

}  // namespace

int main(int argc, char** argv) {
  sim::ExperimentConfig cfg;
  cfg.attack = sim::AttackKind::collapois;
  sim::RunOptions opts;
  bool shard_fault_flags = false;
  bool want_topk = false;
  bool want_clusters = false;
  bool want_csv = false;
  bool want_json_rounds = false;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + flag);
      return argv[++i];
    };
    try {
      if (flag == "--dataset") {
        cfg.dataset = sim::parse_dataset(value());
      } else if (flag == "--algorithm") {
        cfg.algorithm = sim::parse_algorithm(value());
      } else if (flag == "--attack") {
        cfg.attack = sim::parse_attack(value());
      } else if (flag == "--defense") {
        cfg.defense = defense::parse_defense(value());
      } else if (flag == "--alpha") {
        cfg.alpha = parse_pos(flag, value());
      } else if (flag == "--clients") {
        cfg.n_clients = parse_count(flag, value());
      } else if (flag == "--samples") {
        cfg.samples_per_client = parse_count(flag, value());
      } else if (flag == "--fraction") {
        cfg.compromised_fraction = parse_prob(flag, value());
      } else if (flag == "--rounds") {
        cfg.rounds = parse_count(flag, value());
      } else if (flag == "--q") {
        cfg.sample_prob = parse_prob(flag, value());
      } else if (flag == "--strike") {
        cfg.attack_start_round = parse_count(flag, value());
      } else if (flag == "--seed") {
        cfg.seed = parse_count(flag, value());
      } else if (flag == "--threads") {
        cfg.threads = parse_count(flag, value());
      } else if (flag == "--kernels") {
        cfg.kernels = kernels::parse_kernel_kind(value());
      } else if (flag == "--defense-impl") {
        cfg.defense_impl = defense::parse_defense_impl(value());
      } else if (flag == "--dropout") {
        cfg.faults.dropout_prob = parse_prob(flag, value());
      } else if (flag == "--straggler") {
        cfg.faults.straggler_prob = parse_prob(flag, value());
      } else if (flag == "--corrupt") {
        cfg.faults.corrupt_prob = parse_prob(flag, value());
      } else if (flag == "--norm-ceiling") {
        cfg.update_norm_ceiling = parse_nonneg(flag, value());
      } else if (flag == "--net") {
        cfg.net.enabled = true;
      } else if (flag == "--net-loss") {
        cfg.net.loss_prob = parse_prob(flag, value());
        cfg.net.enabled = true;
      } else if (flag == "--net-corrupt") {
        cfg.net.corrupt_prob = parse_prob(flag, value());
        cfg.net.enabled = true;
      } else if (flag == "--net-duplicate") {
        cfg.net.duplicate_prob = parse_prob(flag, value());
        cfg.net.enabled = true;
      } else if (flag == "--net-latency-min") {
        cfg.net.latency_min_ms = parse_nonneg(flag, value());
        cfg.net.enabled = true;
      } else if (flag == "--net-latency-max") {
        cfg.net.latency_max_ms = parse_nonneg(flag, value());
        cfg.net.enabled = true;
      } else if (flag == "--net-deadline") {
        cfg.net.deadline_ms = parse_nonneg(flag, value());
        cfg.net.enabled = true;
      } else if (flag == "--net-retries") {
        cfg.net.max_retries = parse_count(flag, value());
        cfg.net.enabled = true;
      } else if (flag == "--net-backoff-base") {
        cfg.net.backoff_base_ms = parse_nonneg(flag, value());
        cfg.net.enabled = true;
      } else if (flag == "--net-backoff-cap") {
        cfg.net.backoff_cap_ms = parse_nonneg(flag, value());
        cfg.net.enabled = true;
      } else if (flag == "--net-oversample") {
        const double v = parse_nonneg(flag, value());
        if (v > 16.0) usage(flag + " must be in [0, 16]");
        cfg.net.over_sample = v;
        cfg.net.enabled = true;
      } else if (flag == "--net-seed") {
        cfg.net.seed = parse_count(flag, value());
        cfg.net.enabled = true;
      } else if (flag == "--codec") {
        // parse_codec_kind throws invalid_argument naming the bad codec
        // and the valid set; the catch below turns it into usage().
        cfg.codec.kind = net::parse_codec_kind(value());
      } else if (flag == "--codec-bits") {
        const std::uint64_t bits = parse_count(flag, value());
        if (bits != 8) {
          usage(flag + ": only 8-bit quantization is supported, got '" +
                std::to_string(bits) + "'");
        }
        cfg.codec.bits = bits;
      } else if (flag == "--codec-topk") {
        const std::string raw = value();
        const double v = parse_double(flag, raw);
        if (!std::isfinite(v) || v <= 0.0 || v > 1.0) {
          usage(flag + " must be in (0, 1], got '" + raw + "'");
        }
        cfg.codec.topk_fraction = v;
      } else if (flag == "--shards") {
        cfg.shards = parse_count(flag, value());
      } else if (flag == "--population") {
        cfg.n_clients = parse_count(flag, value());
      } else if (flag == "--lazy-clients") {
        cfg.lazy_clients = true;
      } else if (flag == "--eval-every") {
        cfg.eval_every = parse_count(flag, value());
      } else if (flag == "--eval-max-clients") {
        cfg.eval_max_clients = parse_count(flag, value());
      } else if (flag == "--round-engine") {
        cfg.round_engine = fl::parse_round_engine(value());
      } else if (flag == "--async-k") {
        cfg.async.k = parse_count(flag, value());
        cfg.round_engine = fl::RoundEngineKind::buffered_async;
      } else if (flag == "--async-t-ms") {
        cfg.async.t_ms = parse_nonneg(flag, value());
        cfg.round_engine = fl::RoundEngineKind::buffered_async;
      } else if (flag == "--async-max-staleness") {
        cfg.async.max_staleness = parse_count(flag, value());
        cfg.round_engine = fl::RoundEngineKind::buffered_async;
      } else if (flag == "--shard-crash") {
        cfg.shard_faults.crash_prob = parse_prob(flag, value());
        shard_fault_flags = true;
      } else if (flag == "--shard-timeout") {
        cfg.shard_faults.timeout_prob = parse_prob(flag, value());
        shard_fault_flags = true;
      } else if (flag == "--shard-corrupt") {
        cfg.shard_faults.corrupt_prob = parse_prob(flag, value());
        shard_fault_flags = true;
      } else if (flag == "--shard-retries") {
        cfg.shard_faults.max_retries = parse_count(flag, value());
        shard_fault_flags = true;
      } else if (flag == "--shard-backoff-base") {
        cfg.shard_faults.backoff_base_ms = parse_nonneg(flag, value());
        shard_fault_flags = true;
      } else if (flag == "--shard-backoff-cap") {
        cfg.shard_faults.backoff_cap_ms = parse_nonneg(flag, value());
        shard_fault_flags = true;
      } else if (flag == "--shard-fault-seed") {
        cfg.shard_faults.seed = parse_count(flag, value());
        shard_fault_flags = true;
      } else if (flag == "--checkpoint") {
        opts.checkpoint_save_path = value();
      } else if (flag == "--checkpoint-round") {
        opts.checkpoint_round = parse_count(flag, value());
      } else if (flag == "--checkpoint-every") {
        opts.checkpoint_every = parse_count(flag, value());
      } else if (flag == "--checkpoint-keep") {
        opts.checkpoint_keep = parse_count(flag, value());
      } else if (flag == "--resume") {
        opts.checkpoint_load_path = value();
      } else if (flag == "--crash-at") {
        // R or R:PHASE — both halves validated like any other flag:
        // the round through the unsigned-decimal parser, the phase
        // against the closed name set.
        const std::string raw = value();
        const std::size_t colon = raw.find(':');
        opts.crash_round = parse_count(flag, raw.substr(0, colon));
        if (colon != std::string::npos) {
          opts.crash_phase = sim::parse_crash_phase(raw.substr(colon + 1));
        }
      } else if (flag == "--json-rounds") {
        want_json_rounds = true;
      } else if (flag == "--topk") {
        want_topk = true;
      } else if (flag == "--clusters") {
        want_clusters = true;
      } else if (flag == "--csv") {
        want_csv = true;
      } else if (flag == "--help" || flag == "-h") {
        std::cout << kUsage;
        return 0;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::exception& e) {
      usage(flag + ": " + e.what());
    }
  }

  // Cross-flag rules live in sim::validate, shared with every library
  // caller. The one rule kept here depends on which flags were typed: a
  // --shard-* knob that leaves the fault probabilities at zero is
  // invisible in the config.
  try {
    sim::validate(cfg, opts);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
  if (shard_fault_flags && cfg.shards <= 1) {
    usage("--shard-* flags inject faults into the aggregation tree and "
          "require --shards > 1");
  }
  std::cerr << "running " << sim::experiment_tag(cfg) << " ...\n";
  sim::ExperimentResult result;
  try {
    result = sim::run_experiment(cfg, opts);
  } catch (const sim::CrashInjected& e) {
    // The scheduled chaos crash, not a failure: a distinct exit code so
    // restart harnesses can tell "died as configured" from "usage error"
    // (2) and "clean finish" (0).
    std::cerr << e.what() << "\n";
    return 42;
  } catch (const std::exception& e) {
    usage(std::string("experiment failed: ") + e.what());
  }
  if (!result.recovered_from.empty()) {
    // Recovery provenance for restart harnesses (the chaos-smoke CI job
    // greps this line): which generation actually restored and how many
    // damaged ones were skipped on the way.
    std::cerr << "resumed from " << result.recovered_from << " ("
              << result.recovery_discarded << " damaged generation(s) "
              << "discarded)\n";
  }
  if (!opts.checkpoint_save_path.empty()) {
    std::cerr << "checkpoint saved to " << opts.checkpoint_save_path
              << " after " << result.rounds.size() << " rounds\n";
  }

  if (want_json_rounds) {
    // JSON owns stdout so the output stays machine-parseable; the summary
    // tables still go to stderr for the human running it.
    sim::write_rounds_json(std::cout, cfg, result.rounds);
  }
  std::ostream& out = want_json_rounds ? std::cerr : std::cout;

  std::vector<sim::SeriesRow> rows;
  rows.push_back({"all benign clients", result.population.benign_ac,
                  result.population.attack_sr});
  if (want_topk) {
    for (double k : {1.0, 25.0, 50.0}) {
      const auto m = metrics::average_top_k(result.final_evals, k);
      rows.push_back({"top-" + std::to_string(static_cast<int>(k)) +
                          "% infected",
                      m.benign_ac, m.attack_sr});
    }
  }
  if (want_csv) {
    sim::write_series_csv(out, rows);
  } else {
    sim::print_series(out, sim::experiment_tag(cfg), rows);
    if (want_clusters) {
      sim::print_clusters(out, "risk clusters", result.clusters);
    }
  }
  return 0;
}
