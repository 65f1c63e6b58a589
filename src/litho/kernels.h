// Sum-of-coherent-systems (SOCS) kernels from the TCC spectrum.
//
// The Hopkins bilinear image I = sum_{f1,f2} TCC(f1,f2) M(f1) conj(M(f2))
// is approximated by the rank-K expansion
//     I(x) = sum_k w_k |(M conv h_k)(x)|^2
// where (w_k, h_k) are the leading TCC eigenpairs. Kernels are stored as
// frequency-domain grids on the simulation FFT lattice. Every spectrum is
// zero outside the TCC support |f| <= (1 + sigma_out) NA / lambda, the
// band |kx|, |ky| <= b recorded below, so one band-limited real mask FFT
// plus K band-limited inverse FFTs evaluate the full forward model
// (DESIGN.md, "Band-limited imaging").
//
// Calibration: weights are rescaled once so a large feature's edge intensity
// equals the resist threshold I_th — then big patterns print on target by
// construction and all EPE signal comes from proximity effects, matching the
// behaviour of the paper's industrial model.
#pragma once

#include <vector>

#include "fft/fft.h"
#include "litho/config.h"

namespace ldmo::litho {

/// The rank-K optical model, ready for FFT-based convolution.
struct SocsKernels {
  LithoConfig config;
  /// Frequency-domain kernels on the grid_size^2 FFT lattice.
  std::vector<fft::GridC> kernel_ffts;
  /// Band half-width b of the kept spectra: the smallest b with every
  /// nonzero kernel coefficient at |kx|, |ky| <= b (fft::band_half_width),
  /// derived from kernel_ffts by build_socs_kernels. -1 until then.
  int band = -1;
  /// Corresponding (calibrated) nonnegative weights.
  std::vector<double> weights;
  /// Spatial L1 norms ||h_k||_1 of the kept kernels (same order as
  /// weights). For masks in [0,1] they bound each field: |E_k| <= ||h_k||_1.
  std::vector<double> kernel_l1_norms;
  /// Fraction of total TCC trace captured by the kept kernels (diagnostic).
  double captured_energy = 0.0;
  /// Kernels removed by the kernel_keep_energy truncation (beyond the
  /// kernel_count cap, which is not counted here).
  int dropped_kernel_count = 0;
  /// Provable pointwise intensity-error bound of the truncation, in
  /// calibrated intensity units: sum over dropped kernels of
  /// w_k * ||h_k||_1^2. Zero when nothing was truncated.
  double truncation_error_bound = 0.0;
  /// Scale applied to raw eigenvalues during calibration.
  double calibration_scale = 1.0;

  int kernel_count() const { return static_cast<int>(weights.size()); }
};

/// Builds and calibrates the kernels for `config` (TCC assembly + Jacobi
/// eigendecomposition + edge calibration). Cost is a one-time ~O(dim^3).
SocsKernels build_socs_kernels(const LithoConfig& config);

/// Process-wide cache: builds on first use per distinct kernel_cache_key().
/// Returned reference stays valid for the process lifetime. Thread-safe:
/// lookups and first builds run under one mutex.
const SocsKernels& cached_kernels(const LithoConfig& config);

}  // namespace ldmo::litho
