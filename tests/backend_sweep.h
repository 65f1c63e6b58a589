// Helpers for tests that repeat a check on every kernel backend the host
// can run.
#pragma once

#include <vector>

#include "kernels/kernels.h"

namespace ldmo::testutil {

/// Restores the kernel backend that was active when constructed.
class BackendGuard {
 public:
  BackendGuard() : saved_(kernels::active()) {}
  ~BackendGuard() { kernels::select(saved_); }

 private:
  kernels::Backend saved_;
};

/// Every backend compiled in and supported by this CPU, generic first.
inline std::vector<kernels::Backend> usable_backends() {
  std::vector<kernels::Backend> out;
  for (kernels::Backend b :
       {kernels::Backend::kGeneric, kernels::Backend::kAvx2,
        kernels::Backend::kAvx512, kernels::Backend::kNeon})
    if (kernels::supported(b)) out.push_back(b);
  return out;
}

}  // namespace ldmo::testutil
