// Runtime CPU dispatch for the SIMD microkernels (DESIGN.md §14).
//
// One binary runs correctly everywhere: the instruction-set tier used by
// the blocked GEMM microkernel and the vectorized defense column tiles is
// selected at runtime from cpuid-reported features, never by compile-time
// flags alone. Three tiers exist:
//
//   scalar — the portable C++ microkernels (auto-vectorized at -O3);
//            always available, and the reference the other tiers are
//            property-tested against.
//   sse2   — explicit 128-bit intrinsics. Bit-identical to the scalar
//            tier for every op: the per-lane operation order and
//            mul-then-add rounding are the same, only the register width
//            differs.
//   avx2   — 256-bit intrinsics with FMA. The defense column tiles stay
//            exactly equal to scalar (per-lane identical operation
//            order), and so does the round-angle pairwise-dot tile
//            although it uses FMA: its products of widened floats are
//            exact in double, so one rounding equals the other tiers'
//            two. The GEMM microkernel's fused multiply-add on float
//            products does round differently, so GEMM results agree
//            with the other tiers only to the cross-set elementwise
//            tolerance.
//
// Selection happens once, on first use: the best tier the CPU supports,
// unless the COLLAPOIS_FORCE_ISA environment variable names a LOWER tier
// ("scalar" | "sse2" | "avx2") — the CI dispatch matrix runs the property
// suites under each forced tier. Forcing a tier the CPU cannot execute is
// a loud error, not a crash-later: dispatch initialization throws.
//
// The dispatch tier is deliberately NOT part of the checkpoint
// fingerprint (sim/checkpoint.cpp): only the kernel KIND (naive/blocked)
// pins a trajectory. Coordinate-wise defense aggregation is bit-exact
// across tiers, and a checkpoint written on an AVX2 host must remain
// resumable on a host that only has the scalar tier.
#pragma once

#include <cstddef>
#include <string>

namespace collapois::kernels {

enum class IsaTier { scalar = 0, sse2 = 1, avx2 = 2 };

const char* isa_tier_name(IsaTier tier);
// Throws std::invalid_argument on an unknown name.
IsaTier parse_isa_tier(const std::string& name);

// cpuid-reported features of the executing CPU (all false on non-x86).
// Detection runs once; the result is cached for the process lifetime.
struct CpuFeatures {
  bool sse2 = false;
  bool sse4_2 = false;
  bool avx = false;     // includes the OS XSAVE/YMM-state check
  bool fma = false;
  bool avx2 = false;
  bool avx512f = false;  // detected and reported, not yet targeted
};
const CpuFeatures& cpu_features();

// The best tier cpu_features() supports (avx2 requires AVX2 *and* FMA
// *and* OS YMM state; sse2 requires SSE2; otherwise scalar).
IsaTier detected_tier();

// The tier the kernels actually run. Initialized on first call: the
// COLLAPOIS_FORCE_ISA override when set (throws std::runtime_error if it
// names a tier above detected_tier() or an unknown name), else
// detected_tier().
IsaTier active_tier();

// Re-pin the active tier at runtime — the property suites sweep every
// available tier this way. Throws std::runtime_error when `tier` exceeds
// detected_tier(). NOT thread-safe against concurrent kernel calls: call
// it only from single-threaded setup code, like set_active_kernels().
void set_active_tier(IsaTier tier);

// What the dispatcher selected, for run reports and bench artifacts.
struct DispatchInfo {
  IsaTier tier = IsaTier::scalar;
  const char* microkernel = "";  // e.g. "avx2-fma"
  std::size_t mr = 0;            // microkernel register-tile rows
  std::size_t nr = 0;            // microkernel register-tile cols
  bool forced = false;           // COLLAPOIS_FORCE_ISA was honored
};
DispatchInfo dispatch_info();

// "sse2,sse4.2,avx,fma,avx2" — the detected feature flags, for reports.
std::string cpu_feature_string();

}  // namespace collapois::kernels
