#include <atomic>
#include <stdexcept>

#include "kernels/ops_internal.h"

namespace collapois::kernels {

namespace {

constexpr KernelOps kNaiveOps{
    "naive",
    detail::naive_gemm,
    detail::naive_gemm_a_bt_accum,
    detail::naive_gemm_at_b_accum,
    detail::naive_conv2d_forward,
    detail::naive_conv2d_backward,
};

constexpr KernelOps kBlockedOps{
    "blocked",
    detail::blocked_gemm,
    detail::blocked_gemm_a_bt_accum,
    detail::blocked_gemm_at_b_accum,
    detail::blocked_conv2d_forward,
    detail::blocked_conv2d_backward,
};

// Relaxed atomic: run_experiment() stores the configured kind before the
// thread pool spawns; workers only ever load it. The value selects
// between two immutable op tables, so there is no data to order.
std::atomic<KernelKind> g_active{KernelKind::blocked};

}  // namespace

const char* kernel_kind_name(KernelKind kind) {
  switch (kind) {
    case KernelKind::naive: return "naive";
    case KernelKind::blocked: return "blocked";
  }
  return "unknown";
}

KernelKind parse_kernel_kind(const std::string& name) {
  if (name == "naive") return KernelKind::naive;
  if (name == "blocked") return KernelKind::blocked;
  throw std::invalid_argument("parse_kernel_kind: unknown kernel set '" +
                              name + "'");
}

void set_active_kernels(KernelKind kind) {
  g_active.store(kind, std::memory_order_relaxed);
}

KernelKind active_kernels() {
  return g_active.load(std::memory_order_relaxed);
}

const KernelOps& ops_for(KernelKind kind) {
  return kind == KernelKind::naive ? kNaiveOps : kBlockedOps;
}

const KernelOps& ops() { return ops_for(active_kernels()); }

namespace {

// No kernel reads this pointer; it survives only for the ScopedKernelPool
// that bench/e2e/harness.cpp installs (see kernels.h). Thread-local, so a
// worker thread never sees a pool lent on the main thread.
thread_local runtime::ThreadPool* t_kernel_pool = nullptr;

}  // namespace

runtime::ThreadPool* kernel_pool() { return t_kernel_pool; }

ScopedKernelPool::ScopedKernelPool(runtime::ThreadPool* pool)
    : prev_(t_kernel_pool) {
  t_kernel_pool = pool;
}

ScopedKernelPool::~ScopedKernelPool() { t_kernel_pool = prev_; }

}  // namespace collapois::kernels
