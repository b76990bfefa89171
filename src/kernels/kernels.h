// Compute-kernel layer: the NN substrate's hot loops (GEMM variants, Conv2d
// lowering, flat-vector aggregation math) behind a process-wide registry.
//
// Two kernel sets are registered:
//   - naive:   the original triple-loop GEMM and 7-deep direct convolution,
//              kept verbatim as the reference implementation;
//   - blocked: cache-blocked, panel-packed GEMM with a register-tiled
//              microkernel (compiler-auto-vectorized), Conv2d lowered to
//              im2col/col2im over it, and fused bias / bias-gradient
//              epilogues. The default.
//
// Determinism contract: every kernel is single-threaded per call with a
// FIXED reduction order that depends only on the problem shape — never on
// thread count, workspace contents, or run history. Within one kernel set
// results are bit-identical run-to-run; across sets they agree to tight
// elementwise tolerance (property-tested in tests/test_kernels.cpp). The
// two sets are NOT bit-identical to each other, which is why the kernel
// choice is part of the checkpoint fingerprint (sim/checkpoint.cpp).
//
// Scratch memory comes from a per-thread Workspace (workspace.h): im2col
// buffers and packed panels are reused across batches, so steady-state
// training performs zero per-batch allocations inside the kernels.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace collapois::runtime {
class ThreadPool;
}

namespace collapois::kernels {

enum class KernelKind { naive, blocked };

const char* kernel_kind_name(KernelKind kind);
KernelKind parse_kernel_kind(const std::string& name);

// Problem geometry for the Conv2d kernels: stride-1 convolution of a
// [batch, cin, h, w] input with a [cout, cin, k, k] filter bank and
// symmetric zero padding `pad`, producing [batch, cout, oh, ow].
struct Conv2dShape {
  std::size_t batch = 0;
  std::size_t cin = 0;
  std::size_t h = 0;
  std::size_t w = 0;
  std::size_t cout = 0;
  std::size_t k = 0;
  std::size_t pad = 0;
  std::size_t oh = 0;
  std::size_t ow = 0;
};

// One kernel set. All GEMM epilogue pointers are optional (nullptr = no
// epilogue); epilogues are fused into the packing/store passes of the
// blocked set rather than run as separate sweeps.
struct KernelOps {
  const char* name;

  // C[m x n] = A[m x k] * B[k x n] (C overwritten). If row_bias is given,
  // row_bias[i] is added to every element of C row i (conv-forward bias).
  void (*gemm)(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n, const float* row_bias);

  // C[m x n] += A[m x k] * B^T where B is stored [n x k]. If col_bias is
  // given, col_bias[j] is added once to every element of C column j
  // (dense-forward bias; C is expected to start zeroed). If a_row_sums is
  // given, a_row_sums[i] += sum_k A[i, k] (conv bias-gradient epilogue).
  void (*gemm_a_bt_accum)(const float* a, const float* b, float* c,
                          std::size_t m, std::size_t k, std::size_t n,
                          const float* col_bias, float* a_row_sums);

  // C[m x n] += A^T * B[k x n] where A is stored [k x m]. If a_col_sums is
  // given, a_col_sums[i] += sum_p A[p, i] (dense bias-gradient epilogue).
  void (*gemm_at_b_accum)(const float* a, const float* b, float* c,
                          std::size_t k, std::size_t m, std::size_t n,
                          float* a_col_sums);

  // out[batch, cout, oh, ow] = conv(in, weights) + bias per out-channel.
  void (*conv2d_forward)(const Conv2dShape& s, const float* in,
                         const float* weights, const float* bias, float* out);

  // Given grad_output `go` [batch, cout, oh, ow]: accumulate the weight
  // gradient into gw [cout, cin, k, k] and the bias gradient into
  // gb [cout], and write the input gradient into gi (zero-initialized by
  // the caller, same shape as `in`). gi may be nullptr (first layer of a
  // network) — the input-gradient work is skipped and gw/gb are
  // bit-identical to the gi != nullptr call.
  void (*conv2d_backward)(const Conv2dShape& s, const float* in,
                          const float* weights, const float* go, float* gw,
                          float* gb, float* gi);
};

// Process-wide active kernel set. run_experiment() sets it from
// ExperimentConfig::kernels before any worker thread spawns; the default
// (blocked) covers code that trains models outside an experiment.
void set_active_kernels(KernelKind kind);
KernelKind active_kernels();

const KernelOps& ops();                    // the active set
const KernelOps& ops_for(KernelKind kind); // a specific set

// --- kernel-internal parallelism (none) ---------------------------------
// Every kernel runs single-threaded on the calling thread, and no kernel
// reads kernel_pool(): fanning the conv lowering's per-image passes out
// over a pool makes the Trojan strike slower, not faster (DESIGN.md §9).
//
// The pair below stays only because bench/e2e/harness.cpp, the traced
// copy of sim::run_experiment, still names ScopedKernelPool. Installing a
// pool changes nothing: the pointer is thread-local, recorded and
// restored, and never consulted. Remove both once the harness stops
// mirroring run_experiment (ROADMAP, span-recorder item).
runtime::ThreadPool* kernel_pool();

class ScopedKernelPool {
 public:
  explicit ScopedKernelPool(runtime::ThreadPool* pool);
  ~ScopedKernelPool();
  ScopedKernelPool(const ScopedKernelPool&) = delete;
  ScopedKernelPool& operator=(const ScopedKernelPool&) = delete;

 private:
  runtime::ThreadPool* prev_;
};

// --- flat-vector aggregation math ---------------------------------------
// Hot helpers behind tensor/vecops.h, compiled in this library's optimized
// translation units. Not kernel-set-dispatched: both sets share one
// definition, so aggregation numerics never depend on the --kernels flag.

// a[i] = float(a[i] + s * b[i]).
void axpy_inplace(float* a, double s, const float* b, std::size_t n);

// acc[i] += w * v[i], accumulated in double (the drift-free path under
// mean_of / weighted_mean_of: hundreds of client updates are summed at
// double precision and rounded to float exactly once).
void weighted_accumulate(double* acc, double w, const float* v,
                         std::size_t n);

// out[i] = float(acc[i] * inv_scale).
void scaled_round(const double* acc, double inv_scale, float* out,
                  std::size_t n);

// The dot products of every pair i < j of n float rows of length d, in
// the packed upper triangle: out[i * (2n - i - 1) / 2 + (j - i - 1)] =
// sum over p = 0..d-1 of double(rows[i][p]) * double(rows[j][p]), summed
// in p order from 0.0 — exactly as stats::dot sums one pair. `out` holds
// n(n-1)/2 doubles. Dispatched on the ISA tier (cpu_dispatch.h), never on
// the kernel set, and bit-identical on every tier: a product of two
// widened floats has at most 48 significant bits and lies well inside
// double's normal range, so it is exact, and the avx2 tier's fused
// multiply-add rounds the same sum as the other tiers' multiply then
// add. Single-threaded; scratch is one transposed panel of at most 8
// rows, never a copy of the n rows.
void pairwise_dots(const float* const* rows, std::size_t n, std::size_t d,
                   double* out);

// ReLU forward: clamp x to max(x, 0) in place and record bit i of `mask`
// as x[i] > 0 (packed, 64 activations per word; every touched word is
// fully written). SIMD compare+movemask on x86, scalar elsewhere —
// elementwise either way, so numerics are identical.
void relu_forward_mask(float* x, std::size_t n, std::uint64_t* mask);

// ReLU backward: zero g[i] wherever mask bit i is clear.
void relu_backward_mask(float* g, std::size_t n, const std::uint64_t* mask);

}  // namespace collapois::kernels
