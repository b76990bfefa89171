// Kernel throughput — naive vs blocked GFLOP/s per dispatch tier.
//
// Sweeps every GEMM and Conv2d shape that the simulator's two
// architectures (LeNet-small on 16x16 FEMNIST-like images, the MLP head
// on 32-d sentiment embeddings) actually execute, at the training batch
// size, plus one channel-richer conv at CIFAR-like scale, and times
// forward + backward of each. It also times kernels::pairwise_dots, the
// O(n^2 d) core of the per-round angle summary, at the benign cohorts of
// the e2e workloads (n x d = 512 x 2178, 62 x 4794, 32 x 2178). The
// naive set is measured once (it has no dispatch); the blocked set and
// the pairwise dots are measured once per ISA tier the host can
// run (cpu_dispatch.h), re-pinned with set_active_tier between runs —
// unless COLLAPOIS_FORCE_ISA pins a single tier, in which case only that
// tier is measured and the bench fails loudly if the dispatcher's active
// tier disagrees with the forced name. All variants of a shape take their
// best-of-5 timing windows interleaved, so a contention burst on the
// runner costs every variant one discarded window instead of distorting
// one variant's whole measurement (and with it the gate ratios).
//
// The bench is also a gate (exit 1), always like-for-like tiers:
//   - blocked@scalar must not be slower than naive on any shape (both are
//     baseline-ISA code, so this is the pure algorithmic never-slower);
//   - every higher tier must not be slower than the scalar tier on any
//     shape, GEMM/conv or pairwise dots (vector paths must never lose to
//     the portable ones);
//   - when the avx2 tier is measured, its best speedup over
//     blocked@scalar across the conv shapes must reach 1.5x. The LeNet
//     convs are lowering-bound (cin of 1 and 4 give 9- and 36-deep
//     reductions; im2col/col2im traffic is tier-neutral), so the
//     microkernel-bound cifar-scale conv is where the vector win must
//     show — per-shape numbers for all convs land in the JSON either way;
//   - when the avx2 tier is measured, its pairwise dots must reach 1.5x
//     the scalar tier at 512 x 2178, the population workload's cohort.
//
// Results land in BENCH_kernel_throughput.json with the detected CPU
// features and the tier each measurement ran on.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "kernels/cpu_dispatch.h"
#include "kernels/kernels.h"
#include "stats/rng.h"

namespace {

using namespace collapois;
using Clock = std::chrono::steady_clock;

// One bench shape: either a Conv2d layer (conv true, geometry in `conv`)
// or a Dense layer expressed as its forward GEMM [m x k] * [n x k]^T.
struct ZooShape {
  std::string name;
  bool is_conv = false;
  kernels::Conv2dShape conv;
  std::size_t m = 0, k = 0, n = 0;
};

// Shapes of nn/zoo.cpp at the default training batch size (16), plus
// "cifar/conv": a cin=8 -> cout=16 3x3 layer on 16x16 maps. The zoo's
// LeNet convs have 1 and 4 input channels, so their lowered GEMMs are
// 9 and 36 deep and the pass is dominated by tier-neutral im2col/col2im
// traffic; the CIFAR-scale layer (the paper's other benchmark family)
// has a 72-deep reduction over 4096 columns, which is what the packed
// microkernel path actually sees on non-toy models.
const std::vector<ZooShape>& zoo_shapes() {
  static const std::vector<ZooShape> s = {
      {"lenet/conv1", true, {16, 1, 16, 16, 4, 3, 1, 16, 16}, 0, 0, 0},
      {"lenet/conv2", true, {16, 4, 8, 8, 8, 3, 1, 8, 8}, 0, 0, 0},
      {"cifar/conv", true, {16, 8, 16, 16, 16, 3, 1, 16, 16}, 0, 0, 0},
      {"lenet/fc1", false, {}, 16, 128, 32},
      {"lenet/fc2", false, {}, 16, 32, 10},
      {"mlp/fc1", false, {}, 16, 32, 32},
      {"mlp/fc2", false, {}, 16, 32, 2},
  };
  return s;
}

// Pairwise-dot shapes: the benign cohort x parameter count that the
// round-angle summary sees on the e2e workloads (bench/e2e/README.md):
// mlp-trimmed-lazy100k's ~512-update MLP cohorts, lenet-krum-sync's
// LeNet cohort and mlp-median-async-int8's k = 32 async cycle.
struct DotShape {
  std::string name;
  std::size_t n = 0, d = 0;
};

const std::vector<DotShape>& dot_shapes() {
  static const std::vector<DotShape> s = {
      {"angles/512x2178", 512, 2178},
      {"angles/62x4794", 62, 4794},
      {"angles/32x2178", 32, 2178},
  };
  return s;
}

// The shape the avx2 pairwise-dot floor is judged on.
const char* kDotGateShape = "angles/512x2178";

// Forward + backward FLOPs of one shape (multiply+add counted as 2).
double shape_flops(const ZooShape& z) {
  if (z.is_conv) {
    const auto& c = z.conv;
    const double macs = static_cast<double>(c.batch) * c.cout * c.oh * c.ow *
                        c.cin * c.k * c.k;
    // forward (out) + backward (grad_weights and grad_input).
    return 2.0 * macs * 3.0;
  }
  const double macs = static_cast<double>(z.m) * z.k * z.n;
  // forward GEMM + the two backward GEMMs (dW, dX).
  return 2.0 * macs * 3.0;
}

struct Measurement {
  double gflops = 0.0;
  double us_per_pass = 0.0;
};

// (shape name, variant) -> measurement. Variants: "naive" plus one
// "blocked@<tier>" per measured tier.
std::map<std::pair<std::string, std::string>, Measurement>& results() {
  static std::map<std::pair<std::string, std::string>, Measurement> r;
  return r;
}

const char* kForceEnv = "COLLAPOIS_FORCE_ISA";

// The tiers the blocked set is measured on: the forced tier alone when
// COLLAPOIS_FORCE_ISA is set, else every tier up to detected_tier().
const std::vector<kernels::IsaTier>& tiers_to_measure() {
  static const std::vector<kernels::IsaTier> tiers = [] {
    std::vector<kernels::IsaTier> t;
    if (std::getenv(kForceEnv) != nullptr) {
      t.push_back(kernels::active_tier());
      return t;
    }
    const auto top = static_cast<int>(kernels::detected_tier());
    for (int i = 0; i <= top; ++i) t.push_back(static_cast<kernels::IsaTier>(i));
    return t;
  }();
  return tiers;
}

// Loud-failure check for the forced-ISA path: the dispatcher already
// throws when the forced tier exceeds the CPU, but the bench's whole
// point is pinning, so a silent fallback (or a stale binary that ignores
// the env) must not produce a plausible-looking artifact.
void check_forced_isa_honored() {
  const char* forced = std::getenv(kForceEnv);
  if (forced == nullptr) return;
  kernels::IsaTier want;
  try {
    want = kernels::parse_isa_tier(forced);
  } catch (const std::exception& e) {
    std::cerr << "FATAL: " << kForceEnv << "=" << forced << ": " << e.what()
              << "\n";
    std::exit(2);
  }
  const auto got = kernels::active_tier();
  if (want != got) {
    std::cerr << "FATAL: " << kForceEnv << "=" << forced
              << " but the dispatcher selected tier '"
              << kernels::isa_tier_name(got) << "'\n";
    std::exit(2);
  }
}

struct ShapeBuffers {
  std::vector<float> in, weights, bias, out, go, gw, gb, gi;
};

ShapeBuffers make_buffers(const ZooShape& z, stats::Rng& rng) {
  ShapeBuffers b;
  auto fill = [&](std::vector<float>& v, std::size_t n) {
    v.resize(n);
    for (auto& x : v) x = static_cast<float>(rng.normal());
  };
  if (z.is_conv) {
    const auto& c = z.conv;
    fill(b.in, c.batch * c.cin * c.h * c.w);
    fill(b.weights, c.cout * c.cin * c.k * c.k);
    fill(b.bias, c.cout);
    fill(b.go, c.batch * c.cout * c.oh * c.ow);
    b.out.resize(b.go.size());
    b.gw.assign(b.weights.size(), 0.0f);
    b.gb.assign(b.bias.size(), 0.0f);
    b.gi.assign(b.in.size(), 0.0f);
  } else {
    fill(b.in, z.m * z.k);       // activations [m x k]
    fill(b.weights, z.n * z.k);  // dense W [n x k]
    fill(b.bias, z.n);
    fill(b.go, z.m * z.n);
    b.out.resize(z.m * z.n);
    b.gw.assign(b.weights.size(), 0.0f);
    b.gb.assign(b.bias.size(), 0.0f);
    b.gi.assign(z.m * z.k, 0.0f);
  }
  return b;
}

// One forward + backward pass of the shape under the given kernel set.
void one_pass(const ZooShape& z, const kernels::KernelOps& ops,
              ShapeBuffers& b) {
  if (z.is_conv) {
    ops.conv2d_forward(z.conv, b.in.data(), b.weights.data(), b.bias.data(),
                       b.out.data());
    std::fill(b.gi.begin(), b.gi.end(), 0.0f);
    ops.conv2d_backward(z.conv, b.in.data(), b.weights.data(), b.go.data(),
                        b.gw.data(), b.gb.data(), b.gi.data());
  } else {
    std::fill(b.out.begin(), b.out.end(), 0.0f);
    ops.gemm_a_bt_accum(b.in.data(), b.weights.data(), b.out.data(), z.m, z.k,
                        z.n, b.bias.data(), nullptr);
    ops.gemm_at_b_accum(b.go.data(), b.in.data(), b.gw.data(), z.m, z.n, z.k,
                        b.gb.data());
    ops.gemm(b.go.data(), b.weights.data(), b.gi.data(), z.m, z.n, z.k,
             nullptr);
  }
}

// One timed variant of a shape: the naive set (no dispatch) or the
// blocked set pinned to one ISA tier.
struct VariantSpec {
  std::string name;
  kernels::KernelKind kind;
  bool set_tier = false;
  kernels::IsaTier tier = kernels::IsaTier::scalar;
};

std::vector<VariantSpec> variants_of_shape() {
  std::vector<VariantSpec> v;
  v.push_back({"naive", kernels::KernelKind::naive});
  for (const auto tier : tiers_to_measure()) {
    v.push_back({std::string("blocked@") + kernels::isa_tier_name(tier),
                 kernels::KernelKind::blocked, true, tier});
  }
  return v;
}

// Best-of-5 seconds over `reps` passes of each variant, with the timing
// windows INTERLEAVED across the variants: window w of every variant runs
// before window w+1 of any of them. The gates below are ratios between
// variants, and a contended runner's noise bursts last longer than one
// 50 ms window — interleaving spreads a burst over one window of each
// variant (where the per-variant min discards it) instead of letting it
// swallow a single variant's entire measurement and fake a regression.
// select(v) pins variant v before each of its windows; pass(v) runs one
// pass of it.
struct Timing {
  std::size_t reps = 8;
  double best_s = 0.0;
};

template <typename Select, typename Pass>
std::vector<Timing> time_interleaved(std::size_t n_variants, Select select,
                                     Pass pass) {
  std::vector<Timing> t(n_variants);
  // Per-variant calibration (tiers differ ~10x in speed, so rep counts
  // must too): warm the scratch, then grow reps until one window reaches
  // 50 ms. The calibration window doubles as window 0.
  for (std::size_t v = 0; v < n_variants; ++v) {
    select(v);
    pass(v);
    for (;;) {
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < t[v].reps; ++i) pass(v);
      t[v].best_s = std::chrono::duration<double>(Clock::now() - t0).count();
      if (t[v].best_s >= 0.05 || t[v].reps >= (1u << 20)) break;
      t[v].reps *= 4;
    }
  }
  // Four more windows per variant, interleaved; keep each min.
  for (int w = 1; w < 5; ++w) {
    for (std::size_t v = 0; v < n_variants; ++v) {
      select(v);
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < t[v].reps; ++i) pass(v);
      const double s =
          std::chrono::duration<double>(Clock::now() - t0).count();
      t[v].best_s = std::min(t[v].best_s, s);
    }
  }
  return t;
}

Measurement measured(double flops, const Timing& t) {
  Measurement m;
  m.gflops = flops * static_cast<double>(t.reps) / t.best_s / 1e9;
  m.us_per_pass = t.best_s / static_cast<double>(t.reps) * 1e6;
  return m;
}

// Leaves the dispatcher where an unforced process would run: the highest
// measured tier (the forced tier when pinned).
void restore_top_tier() {
  kernels::set_active_tier(tiers_to_measure().back());
}

void run_shape_all(benchmark::State& state, const ZooShape& z) {
  const std::vector<VariantSpec> variants = variants_of_shape();
  stats::Rng rng(2024);
  ShapeBuffers b = make_buffers(z, rng);
  for (auto _ : state) {
    const auto t = time_interleaved(
        variants.size(),
        [&](std::size_t v) {
          if (variants[v].set_tier) kernels::set_active_tier(variants[v].tier);
        },
        [&](std::size_t v) {
          one_pass(z, kernels::ops_for(variants[v].kind), b);
        });
    benchmark::DoNotOptimize(b.out.data());
    benchmark::DoNotOptimize(b.gi.data());
    for (std::size_t v = 0; v < variants.size(); ++v) {
      results()[{z.name, variants[v].name}] = measured(shape_flops(z), t[v]);
    }
  }
  restore_top_tier();
}

std::string dots_variant_of(kernels::IsaTier tier) {
  return std::string("pairwise_dots@") + kernels::isa_tier_name(tier);
}

// Multiply + add per pair and parameter.
double dot_flops(const DotShape& s) {
  return 2.0 * static_cast<double>(s.n * (s.n - 1) / 2) *
         static_cast<double>(s.d);
}

// kernels::pairwise_dots once per measured tier, on random rows held as
// separate vectors like a round's update deltas.
void run_dots_all(benchmark::State& state, const DotShape& s) {
  const auto& tiers = tiers_to_measure();
  stats::Rng rng(2025);
  std::vector<std::vector<float>> rows(s.n, std::vector<float>(s.d));
  std::vector<const float*> ptrs;
  for (auto& r : rows) {
    for (auto& x : r) x = static_cast<float>(rng.normal());
    ptrs.push_back(r.data());
  }
  std::vector<double> out(s.n * (s.n - 1) / 2);
  for (auto _ : state) {
    const auto t = time_interleaved(
        tiers.size(),
        [&](std::size_t v) { kernels::set_active_tier(tiers[v]); },
        [&](std::size_t) {
          kernels::pairwise_dots(ptrs.data(), s.n, s.d, out.data());
          benchmark::DoNotOptimize(out.data());
          benchmark::ClobberMemory();
        });
    for (std::size_t v = 0; v < tiers.size(); ++v) {
      results()[{s.name, dots_variant_of(tiers[v])}] =
          measured(dot_flops(s), t[v]);
    }
  }
  restore_top_tier();
}

void register_all() {
  for (const auto& z : zoo_shapes()) {
    const std::string name = "kernel_throughput/" + z.name;
    benchmark::RegisterBenchmark(
        name.c_str(), [&z](benchmark::State& s) { run_shape_all(s, z); })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  for (const auto& d : dot_shapes()) {
    const std::string name = "kernel_throughput/" + d.name;
    benchmark::RegisterBenchmark(
        name.c_str(), [&d](benchmark::State& s) { run_dots_all(s, d); })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
}

std::string variant_of(kernels::IsaTier tier) {
  return std::string("blocked@") + kernels::isa_tier_name(tier);
}

void finalize() {
  const auto& res = results();
  if (res.empty()) return;
  const auto& tiers = tiers_to_measure();
  const bool forced = std::getenv(kForceEnv) != nullptr;
  const bool multi_tier = tiers.size() > 1;  // scalar baseline available
  const bool have_avx2 =
      multi_tier && tiers.back() == kernels::IsaTier::avx2;

  std::cout << "== Kernel throughput — GFLOP/s per kernel set and ISA tier, "
               "forward+backward ==\n";
  std::cout << "cpu: " << kernels::cpu_feature_string()
            << "  detected=" << kernels::isa_tier_name(kernels::detected_tier())
            << (forced ? "  FORCED=" : "")
            << (forced ? kernels::isa_tier_name(tiers.front()) : "") << "\n";
  std::cout << std::right << std::setw(14) << "shape" << std::setw(10)
            << "naive";
  for (const auto t : tiers) {
    std::cout << std::setw(16) << variant_of(t);
  }
  std::cout << std::setw(12) << (multi_tier ? "top/scalar" : "top/naive")
            << "\n";

  // Gate state. All comparisons are like-for-like: scalar tier vs naive
  // (same ISA, 3% tolerance — the algorithmic win is 1.3-6x, so any trip
  // is real) and higher tiers vs the scalar tier (same algorithm, 10%
  // tolerance: small-problem shapes like mlp/fc2 route every tier through
  // the identical shared loops, so their ratio measures nothing but the
  // host's timing noise floor, which on shared CI runners exceeds 3% even
  // for best-of-interleaved-windows; a vector path that actually breaks
  // loses far more than 10% on the microkernel-bound shapes).
  bool scalar_never_slower = true;  // blocked@<lowest measured> vs naive
  bool tiers_never_slower = true;   // each higher tier vs the scalar tier
  double best_conv_avx2_speedup = 0.0;

  std::string json;
  for (const auto& z : zoo_shapes()) {
    const auto naive = res.find({z.name, "naive"});
    if (naive == res.end()) continue;
    const auto base = res.find({z.name, variant_of(tiers.front())});
    if (base == res.end()) continue;
    if (base->second.gflops < 0.97 * naive->second.gflops) {
      scalar_never_slower = false;
    }
    std::cout << std::right << std::setw(14) << z.name << std::fixed
              << std::setprecision(2) << std::setw(10)
              << naive->second.gflops;
    std::string tier_json;
    double top_gflops = base->second.gflops;
    for (const auto t : tiers) {
      const auto it = res.find({z.name, variant_of(t)});
      if (it == res.end()) continue;
      std::cout << std::setw(16) << it->second.gflops;
      if (t != tiers.front() &&
          it->second.gflops < 0.90 * base->second.gflops) {
        tiers_never_slower = false;
      }
      top_gflops = it->second.gflops;
      if (!tier_json.empty()) tier_json += ", ";
      tier_json += std::string("\"") + kernels::isa_tier_name(t) +
                   "\": {\"gflops\": " + std::to_string(it->second.gflops) +
                   ", \"us_per_pass\": " +
                   std::to_string(it->second.us_per_pass) + "}";
      if (z.is_conv && have_avx2 && t == kernels::IsaTier::avx2) {
        best_conv_avx2_speedup =
            std::max(best_conv_avx2_speedup,
                     it->second.gflops / base->second.gflops);
      }
    }
    const double top_ratio =
        top_gflops /
        (multi_tier ? base->second.gflops : naive->second.gflops);
    std::cout << std::setw(12) << top_ratio << "\n";
    std::cout.unsetf(std::ios::fixed);
    if (!json.empty()) json += ",";
    json += "\n  {\"shape\": \"" + z.name + "\"";
    json += std::string(", \"is_conv\": ") + (z.is_conv ? "true" : "false");
    json += ", \"flops_per_pass\": " + std::to_string(shape_flops(z));
    json += ", \"naive_gflops\": " + std::to_string(naive->second.gflops);
    json += ", \"blocked\": {" + tier_json + "}}";
  }

  // Pairwise dot products: one variant per tier, judged against the
  // scalar tier by the same 10% rule.
  std::cout << "== Pairwise dot products (round-angle summary) — ms per "
               "call per ISA tier ==\n";
  std::cout << std::right << std::setw(16) << "shape";
  for (const auto t : tiers) std::cout << std::setw(22) << dots_variant_of(t);
  std::cout << std::setw(12) << "top/scalar" << "\n";
  double dots_avx2_speedup = 0.0;  // at kDotGateShape; 0 = not measured
  std::string dots_json;
  for (const auto& d : dot_shapes()) {
    const auto base = res.find({d.name, dots_variant_of(tiers.front())});
    if (base == res.end()) continue;
    std::cout << std::right << std::setw(16) << d.name << std::fixed
              << std::setprecision(3);
    std::string tier_json;
    double top_gflops = base->second.gflops;
    for (const auto t : tiers) {
      const auto it = res.find({d.name, dots_variant_of(t)});
      if (it == res.end()) continue;
      std::cout << std::setw(22) << it->second.us_per_pass / 1e3;
      if (t != tiers.front() &&
          it->second.gflops < 0.90 * base->second.gflops) {
        tiers_never_slower = false;
      }
      if (have_avx2 && t == kernels::IsaTier::avx2 &&
          d.name == kDotGateShape) {
        dots_avx2_speedup = it->second.gflops / base->second.gflops;
      }
      top_gflops = it->second.gflops;
      if (!tier_json.empty()) tier_json += ", ";
      tier_json += std::string("\"") + kernels::isa_tier_name(t) +
                   "\": {\"gflops\": " + std::to_string(it->second.gflops) +
                   ", \"us_per_call\": " +
                   std::to_string(it->second.us_per_pass) + "}";
    }
    std::cout << std::setw(12) << std::setprecision(2)
              << top_gflops / base->second.gflops << "\n";
    std::cout.unsetf(std::ios::fixed);
    if (!dots_json.empty()) dots_json += ",";
    dots_json += "\n  {\"shape\": \"" + d.name +
                 "\", \"n\": " + std::to_string(d.n) +
                 ", \"d\": " + std::to_string(d.d) +
                 ", \"flops_per_call\": " + std::to_string(dot_flops(d)) +
                 ", \"pairwise_dots\": {" + tier_json + "}}";
  }

  // The gates only judge cells that ran: a --benchmark_filter that
  // skipped every conv shape leaves the best speedup at 0.0 and must not
  // fail a run that never measured what the gate is about.
  const bool conv_gate_applies =
      have_avx2 && !forced && best_conv_avx2_speedup > 0.0;
  const bool conv_speedup_ok =
      !conv_gate_applies || best_conv_avx2_speedup >= 1.5;
  const bool dots_gate_applies =
      have_avx2 && !forced && dots_avx2_speedup > 0.0;
  const bool dots_speedup_ok = !dots_gate_applies || dots_avx2_speedup >= 1.5;
  std::cout << "blocked_never_slower="
            << (scalar_never_slower ? "yes" : "NO — BLOCKED REGRESSED")
            << "\n";
  if (multi_tier) {
    std::cout << "tiers_never_slower="
              << (tiers_never_slower ? "yes" : "NO — A TIER REGRESSED")
              << "\n";
  }
  if (conv_gate_applies) {
    std::cout << "avx2_conv_best_speedup=" << std::fixed
              << std::setprecision(2) << best_conv_avx2_speedup
              << (conv_speedup_ok ? " (>= 1.5 ok)" : " — BELOW 1.5x GATE")
              << "\n";
    std::cout.unsetf(std::ios::fixed);
  }
  if (dots_gate_applies) {
    std::cout << "avx2_angles_speedup=" << std::fixed << std::setprecision(2)
              << dots_avx2_speedup
              << (dots_speedup_ok ? " (>= 1.5 ok)" : " — BELOW 1.5x GATE")
              << "\n";
    std::cout.unsetf(std::ios::fixed);
  }

  std::string tier_list;
  for (const auto t : tiers) {
    if (!tier_list.empty()) tier_list += ", ";
    tier_list += std::string("\"") + kernels::isa_tier_name(t) + "\"";
  }
  const auto info = kernels::dispatch_info();
  std::ofstream out("BENCH_kernel_throughput.json");
  out << "{\"bench\": \"kernel_throughput\",\n"
      << " \"workload\": \"zoo shapes + cifar-scale conv, batch=16, "
         "forward+backward; pairwise dots at the e2e angle cohorts\",\n"
      << " \"cpu_features\": \"" << kernels::cpu_feature_string() << "\",\n"
      << " \"hardware_concurrency\": " << std::thread::hardware_concurrency()
      << ",\n"
      << " \"detected_tier\": \""
      << kernels::isa_tier_name(kernels::detected_tier()) << "\",\n"
      << " \"forced_tier\": "
      << (forced ? std::string("\"") +
                       kernels::isa_tier_name(tiers.front()) + "\""
                 : std::string("null"))
      << ",\n"
      << " \"microkernel\": \"" << info.microkernel << "\",\n"
      << " \"tiers_measured\": [" << tier_list << "],\n"
      << " \"blocked_never_slower\": "
      << (scalar_never_slower ? "true" : "false") << ",\n"
      << " \"tiers_never_slower\": " << (tiers_never_slower ? "true" : "false")
      << ",\n"
      << " \"avx2_conv_best_speedup\": "
      << (have_avx2 ? std::to_string(best_conv_avx2_speedup) : "null") << ",\n"
      << " \"avx2_angles_speedup\": "
      << (dots_avx2_speedup > 0.0 ? std::to_string(dots_avx2_speedup)
                                  : "null")
      << ",\n"
      << " \"points\": [" << json << "\n],\n"
      << " \"angle_points\": [" << dots_json << "\n]}\n";
  // std::exit skips local destructors; close explicitly or a failing gate
  // truncates the very artifact needed to diagnose it.
  out.close();
  if (!scalar_never_slower || !tiers_never_slower || !conv_speedup_ok ||
      !dots_speedup_ok) {
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  check_forced_isa_honored();
  register_all();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  finalize();
  benchmark::Shutdown();
  return 0;
}
