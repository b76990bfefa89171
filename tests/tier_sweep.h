// Shared by the suites that run one property on every ISA tier the host
// can execute (kernels/cpu_dispatch.h): the tier list and a guard that
// restores the entry tier.
#pragma once

#include <vector>

#include "kernels/cpu_dispatch.h"

namespace collapois {

// Every ISA tier the build host can execute, scalar first. A sweep runs
// once per entry; on a scalar-only host that is still a valid (if
// smaller) sweep — the CI dispatch matrix covers the rest.
inline std::vector<kernels::IsaTier> available_tiers() {
  std::vector<kernels::IsaTier> tiers{kernels::IsaTier::scalar};
  if (kernels::detected_tier() >= kernels::IsaTier::sse2) {
    tiers.push_back(kernels::IsaTier::sse2);
  }
  if (kernels::detected_tier() >= kernels::IsaTier::avx2) {
    tiers.push_back(kernels::IsaTier::avx2);
  }
  return tiers;
}

// Restores the entry tier on scope exit so a failing sweep cannot leak a
// forced tier into later tests.
struct TierGuard {
  kernels::IsaTier entry = kernels::active_tier();
  ~TierGuard() { kernels::set_active_tier(entry); }
};

}  // namespace collapois
