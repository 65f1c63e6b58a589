// Tests for the lithography substrate: eigensolvers, TCC physics, SOCS
// kernels, aerial imaging, resist model and metrology.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "kernels/kernels.h"
#include "layout/raster.h"
#include "litho/aerial.h"
#include "litho/config.h"
#include "litho/eig.h"
#include "litho/kernels.h"
#include "litho/metrics.h"
#include "litho/resist.h"
#include "litho/simulator.h"
#include "litho/tcc.h"

#include "backend_sweep.h"

namespace ldmo::litho {
namespace {

using testutil::BackendGuard;
using testutil::usable_backends;

// Small test configuration: 64px at 16nm keeps kernel construction fast
// while staying in the same optical regime (1024nm field).
LithoConfig test_config() {
  LithoConfig cfg;
  cfg.grid_size = 64;
  cfg.pixel_nm = 16.0;
  cfg.kernel_count = 5;
  return cfg;
}

layout::Layout single_square_layout(std::int64_t size_nm,
                                    std::int64_t field_nm = 1024) {
  layout::Layout l;
  l.clip = geometry::Rect::from_size({0, 0}, field_nm, field_nm);
  l.add_pattern(geometry::Rect::from_size(
      {(field_nm - size_nm) / 2, (field_nm - size_nm) / 2}, size_nm, size_nm));
  return l;
}

// ---------------------------------------------------------------- eigen --

TEST(JacobiEig, DiagonalMatrixIsItsOwnDecomposition) {
  const std::vector<double> m = {3, 0, 0, 0, 1, 0, 0, 0, 2};
  const SymmetricEig eig = jacobi_eigendecompose(m, 3);
  EXPECT_NEAR(eig.eigenvalues[0], 3.0, 1e-12);
  EXPECT_NEAR(eig.eigenvalues[1], 2.0, 1e-12);
  EXPECT_NEAR(eig.eigenvalues[2], 1.0, 1e-12);
}

TEST(JacobiEig, KnownTwoByTwo) {
  // [[2, 1], [1, 2]] has eigenvalues 3 and 1.
  const SymmetricEig eig = jacobi_eigendecompose({2, 1, 1, 2}, 2);
  EXPECT_NEAR(eig.eigenvalues[0], 3.0, 1e-12);
  EXPECT_NEAR(eig.eigenvalues[1], 1.0, 1e-12);
  // Eigenvector for 3 is (1,1)/sqrt(2) up to sign.
  EXPECT_NEAR(std::abs(eig.eigenvectors[0][0]), 1.0 / std::sqrt(2.0), 1e-10);
}

TEST(JacobiEig, ReconstructsRandomSymmetricMatrix) {
  Rng rng(4);
  const int n = 12;
  std::vector<double> m(static_cast<std::size_t>(n) * n);
  for (int i = 0; i < n; ++i)
    for (int j = i; j < n; ++j) {
      const double v = rng.normal();
      m[static_cast<std::size_t>(i) * n + j] = v;
      m[static_cast<std::size_t>(j) * n + i] = v;
    }
  const SymmetricEig eig = jacobi_eigendecompose(m, n);
  // Check A v = lambda v for every pair.
  for (int k = 0; k < n; ++k) {
    for (int i = 0; i < n; ++i) {
      double av = 0.0;
      for (int j = 0; j < n; ++j)
        av += m[static_cast<std::size_t>(i) * n + j] *
              eig.eigenvectors[static_cast<std::size_t>(k)]
                              [static_cast<std::size_t>(j)];
      EXPECT_NEAR(av,
                  eig.eigenvalues[static_cast<std::size_t>(k)] *
                      eig.eigenvectors[static_cast<std::size_t>(k)]
                                      [static_cast<std::size_t>(i)],
                  1e-8);
    }
  }
}

TEST(JacobiEig, EigenvectorsOrthonormal) {
  Rng rng(8);
  const int n = 10;
  std::vector<double> m(static_cast<std::size_t>(n) * n);
  for (int i = 0; i < n; ++i)
    for (int j = i; j < n; ++j) {
      const double v = rng.uniform(-1, 1);
      m[static_cast<std::size_t>(i) * n + j] = v;
      m[static_cast<std::size_t>(j) * n + i] = v;
    }
  const SymmetricEig eig = jacobi_eigendecompose(m, n);
  for (int a = 0; a < n; ++a)
    for (int b = 0; b < n; ++b) {
      double dot = 0.0;
      for (int i = 0; i < n; ++i)
        dot += eig.eigenvectors[static_cast<std::size_t>(a)]
                               [static_cast<std::size_t>(i)] *
               eig.eigenvectors[static_cast<std::size_t>(b)]
                               [static_cast<std::size_t>(i)];
      EXPECT_NEAR(dot, a == b ? 1.0 : 0.0, 1e-9);
    }
}

TEST(JacobiEig, RejectsAsymmetric) {
  EXPECT_THROW(jacobi_eigendecompose({1, 2, 3, 4}, 2), ldmo::Error);
}

TEST(HermitianEig, RealMatrixMatchesSymmetricPath) {
  const std::vector<std::complex<double>> m = {{2, 0}, {1, 0}, {1, 0}, {2, 0}};
  const HermitianEig eig = hermitian_eigendecompose(m, 2);
  ASSERT_EQ(eig.eigenvalues.size(), 2u);
  EXPECT_NEAR(eig.eigenvalues[0], 3.0, 1e-10);
  EXPECT_NEAR(eig.eigenvalues[1], 1.0, 1e-10);
}

TEST(HermitianEig, ComplexHermitianReconstruction) {
  // H = [[2, i], [-i, 2]] has eigenvalues 3 and 1.
  const std::vector<std::complex<double>> m = {
      {2, 0}, {0, 1}, {0, -1}, {2, 0}};
  const HermitianEig eig = hermitian_eigendecompose(m, 2);
  ASSERT_EQ(eig.eigenvalues.size(), 2u);
  EXPECT_NEAR(eig.eigenvalues[0], 3.0, 1e-10);
  EXPECT_NEAR(eig.eigenvalues[1], 1.0, 1e-10);
  // Verify H v = lambda v for the leading pair.
  for (int i = 0; i < 2; ++i) {
    std::complex<double> hv(0, 0);
    for (int j = 0; j < 2; ++j)
      hv += m[static_cast<std::size_t>(i) * 2 + j] *
            eig.eigenvectors[0][static_cast<std::size_t>(j)];
    EXPECT_NEAR(std::abs(hv - eig.eigenvalues[0] * eig.eigenvectors[0]
                                  [static_cast<std::size_t>(i)]),
                0.0, 1e-9);
  }
}

TEST(HermitianEig, RandomHermitianEigenpairsValid) {
  Rng rng(15);
  const int n = 8;
  std::vector<std::complex<double>> m(static_cast<std::size_t>(n) * n);
  for (int i = 0; i < n; ++i) {
    m[static_cast<std::size_t>(i) * n + i] = {rng.normal(), 0.0};
    for (int j = i + 1; j < n; ++j) {
      const std::complex<double> v(rng.normal(), rng.normal());
      m[static_cast<std::size_t>(i) * n + j] = v;
      m[static_cast<std::size_t>(j) * n + i] = std::conj(v);
    }
  }
  const HermitianEig eig = hermitian_eigendecompose(m, n);
  ASSERT_EQ(eig.eigenvalues.size(), static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    for (int i = 0; i < n; ++i) {
      std::complex<double> hv(0, 0);
      for (int j = 0; j < n; ++j)
        hv += m[static_cast<std::size_t>(i) * n + j] *
              eig.eigenvectors[static_cast<std::size_t>(k)]
                              [static_cast<std::size_t>(j)];
      EXPECT_NEAR(std::abs(hv - eig.eigenvalues[static_cast<std::size_t>(k)] *
                                    eig.eigenvectors[static_cast<std::size_t>(
                                        k)][static_cast<std::size_t>(i)]),
                  0.0, 1e-8)
          << "eigenpair " << k;
    }
  }
  // Orthonormality under the complex inner product.
  for (int a = 0; a < n; ++a)
    for (int b = a; b < n; ++b) {
      std::complex<double> dot(0, 0);
      for (int i = 0; i < n; ++i)
        dot += std::conj(eig.eigenvectors[static_cast<std::size_t>(a)]
                                         [static_cast<std::size_t>(i)]) *
               eig.eigenvectors[static_cast<std::size_t>(b)]
                               [static_cast<std::size_t>(i)];
      EXPECT_NEAR(std::abs(dot), a == b ? 1.0 : 0.0, 1e-8);
    }
}

// ------------------------------------------------------------------ tcc --

TEST(Config, ValidatesAndRejects) {
  LithoConfig ok = test_config();
  EXPECT_NO_THROW(ok.validate());
  LithoConfig bad = test_config();
  bad.grid_size = 100;  // not a power of two
  EXPECT_THROW(bad.validate(), ldmo::Error);
  bad = test_config();
  bad.sigma_inner = 0.9;  // inner >= outer
  EXPECT_THROW(bad.validate(), ldmo::Error);
}

TEST(Pupil, CutoffCircle) {
  const LithoConfig cfg = test_config();
  const double fc = cfg.cutoff_frequency();
  EXPECT_EQ(pupil_value(cfg, fc * 1.01, 0.0), std::complex<double>(0, 0));
  EXPECT_EQ(pupil_value(cfg, fc * 0.99, 0.0), std::complex<double>(1, 0));
  EXPECT_EQ(pupil_value(cfg, 0.0, 0.0), std::complex<double>(1, 0));
}

TEST(Pupil, DefocusAddsPhaseInsideOnly) {
  LithoConfig cfg = test_config();
  cfg.defocus_nm = 50.0;
  const double fc = cfg.cutoff_frequency();
  const std::complex<double> p = pupil_value(cfg, fc * 0.5, 0.0);
  EXPECT_NEAR(std::abs(p), 1.0, 1e-12);
  EXPECT_NE(p.imag(), 0.0);
  EXPECT_EQ(pupil_value(cfg, fc * 1.1, 0.0), std::complex<double>(0, 0));
}

TEST(Source, AnnulusMembership) {
  const LithoConfig cfg = test_config();
  const double fc = cfg.cutoff_frequency();
  const double mid = 0.5 * (cfg.sigma_inner + cfg.sigma_outer);
  EXPECT_FALSE(source_contains(cfg, 0.0, 0.0));  // inside the hole
  EXPECT_TRUE(source_contains(cfg, mid * fc, 0.0));
  EXPECT_FALSE(source_contains(cfg, (cfg.sigma_outer + 0.1) * fc, 0.0));
  EXPECT_FALSE(source_contains(cfg, (cfg.sigma_inner - 0.1) * fc, 0.0));
}

TEST(Tcc, MatrixIsHermitianPsd) {
  const TccResult tcc = build_tcc(test_config(), 2);
  const int dim = tcc.dimension();
  ASSERT_GT(dim, 10);
  for (int i = 0; i < dim; ++i)
    for (int j = 0; j < dim; ++j)
      EXPECT_NEAR(std::abs(tcc.matrix[static_cast<std::size_t>(i) * dim + j] -
                           std::conj(tcc.matrix[static_cast<std::size_t>(j) *
                                                    dim +
                                                i])),
                  0.0, 1e-12);
  // Diagonal (power per frequency) nonnegative, DC strongest.
  int dc_index = -1;
  for (int i = 0; i < dim; ++i) {
    EXPECT_GE(tcc.matrix[static_cast<std::size_t>(i) * dim + i].real(),
              -1e-12);
    if (tcc.support[static_cast<std::size_t>(i)] == std::make_pair(0, 0))
      dc_index = i;
  }
  ASSERT_GE(dc_index, 0);
  const double dc =
      tcc.matrix[static_cast<std::size_t>(dc_index) * dim + dc_index].real();
  EXPECT_NEAR(dc, 1.0, 1e-9);  // whole annular source passes the pupil
  for (int i = 0; i < dim; ++i)
    EXPECT_LE(tcc.matrix[static_cast<std::size_t>(i) * dim + i].real(),
              dc + 1e-9);
}

TEST(Tcc, InFocusMatrixIsReal) {
  const TccResult tcc = build_tcc(test_config(), 2);
  for (const auto& v : tcc.matrix) EXPECT_NEAR(v.imag(), 0.0, 1e-12);
}

TEST(Tcc, SupportRadiusMatchesBand) {
  const LithoConfig cfg = test_config();
  const TccResult tcc = build_tcc(cfg, 2);
  const double band_px =
      (1.0 + cfg.sigma_outer) * cfg.cutoff_frequency() * cfg.field_nm();
  int largest = 0;
  for (const auto& [kx, ky] : tcc.support) {
    EXPECT_LE(kx * kx + ky * ky, band_px * band_px + 1e-9);
    largest = std::max({largest, std::abs(kx), std::abs(ky)});
  }
  // The kernels' recorded band half-width is the support's largest |k|:
  // 6 bins for the 1024 nm field.
  EXPECT_EQ(cached_kernels(cfg).band, largest);
  EXPECT_EQ(largest, 6);
}

// -------------------------------------------------------------- kernels --

TEST(Kernels, WeightsPositiveDescendingAndEnergyCaptured) {
  const SocsKernels k = build_socs_kernels(test_config());
  ASSERT_GE(k.kernel_count(), 3);
  for (int i = 1; i < k.kernel_count(); ++i)
    EXPECT_LE(k.weights[static_cast<std::size_t>(i)],
              k.weights[static_cast<std::size_t>(i - 1)]);
  EXPECT_GT(k.weights.back(), 0.0);
  EXPECT_GT(k.captured_energy, 0.5);  // top-5 kernels carry most energy
}

TEST(Kernels, CalibrationPutsContactEdgeOnThreshold) {
  const LithoConfig cfg = test_config();
  const SocsKernels& k = cached_kernels(cfg);
  AerialSimulator aerial(k);
  const int n = cfg.grid_size;
  // Rebuild the calibration probe: centered square of the contact size.
  layout::Layout probe = single_square_layout(
      static_cast<std::int64_t>(cfg.calibration_feature_nm));
  const GridF intensity = aerial.intensity(layout::rasterize_target(probe, n));
  const layout::RasterTransform transform{probe.clip, n};
  const auto& shape = probe.patterns[0].shape;
  const double edge = sample_bilinear(
      intensity, transform.to_px_x(static_cast<double>(shape.hi.x)),
      transform.to_px_y((shape.lo.y + shape.hi.y) / 2.0));
  EXPECT_NEAR(edge, cfg.intensity_threshold, 1e-9);
  // Contact center prints bright; far corner of the field is dark.
  EXPECT_GT(sample_bilinear(intensity,
                            transform.to_px_x((shape.lo.x + shape.hi.x) / 2.0),
                            transform.to_px_y((shape.lo.y + shape.hi.y) / 2.0)),
            cfg.intensity_threshold);
  EXPECT_LT(intensity.at(n / 8, n / 8), 0.2 * cfg.intensity_threshold);
}

TEST(Kernels, DefocusExercisesComplexHermitianPath) {
  // With defocus the pupil is complex, the TCC genuinely Hermitian, and
  // kernel construction runs through the embedded-Jacobi path end-to-end.
  LithoConfig cfg = test_config();
  cfg.defocus_nm = 60.0;
  const TccResult tcc = build_tcc(cfg, 2);
  bool any_imag = false;
  for (const auto& v : tcc.matrix)
    if (std::abs(v.imag()) > 1e-9) any_imag = true;
  EXPECT_TRUE(any_imag);

  const SocsKernels kernels = build_socs_kernels(cfg);
  EXPECT_GE(kernels.kernel_count(), 3);
  // Defocused image of the calibration contact is still bright at center
  // (calibration holds by construction at the edge).
  AerialSimulator aerial(kernels);
  const layout::Layout probe = single_square_layout(
      static_cast<std::int64_t>(cfg.calibration_feature_nm));
  const GridF intensity =
      aerial.intensity(layout::rasterize_target(probe, cfg.grid_size));
  double max_i = 0.0;
  for (std::size_t i = 0; i < intensity.size(); ++i)
    max_i = std::max(max_i, intensity[i]);
  EXPECT_GT(max_i, cfg.intensity_threshold);
}

TEST(Kernels, CacheKeyDistinguishesDefocus) {
  LithoConfig a = test_config();
  LithoConfig b = test_config();
  b.defocus_nm = 40.0;
  EXPECT_NE(a.kernel_cache_key(), b.kernel_cache_key());
}

TEST(Kernels, DefocusReducesContrast) {
  // Physical sanity: defocus lowers the peak intensity of a small feature.
  LithoConfig focus = test_config();
  LithoConfig blur = test_config();
  blur.defocus_nm = 100.0;
  AerialSimulator a_focus(cached_kernels(focus));
  AerialSimulator a_blur(cached_kernels(blur));
  const layout::Layout probe = single_square_layout(65);
  const GridF raster = layout::rasterize_target(probe, focus.grid_size);
  const GridF i_focus = a_focus.intensity(raster);
  const GridF i_blur = a_blur.intensity(raster);
  double peak_focus = 0.0, peak_blur = 0.0;
  for (std::size_t i = 0; i < i_focus.size(); ++i) {
    peak_focus = std::max(peak_focus, i_focus[i]);
    peak_blur = std::max(peak_blur, i_blur[i]);
  }
  // Both are calibrated to put the feature edge AT threshold, so compare
  // the peak-to-threshold contrast ratio instead of raw peaks.
  EXPECT_LT(peak_blur / blur.intensity_threshold,
            peak_focus / focus.intensity_threshold);
}

TEST(Kernels, CacheReturnsSameInstance) {
  const LithoConfig cfg = test_config();
  const SocsKernels& a = cached_kernels(cfg);
  const SocsKernels& b = cached_kernels(cfg);
  EXPECT_EQ(&a, &b);
}

// ---------------------------------------------------------------- aerial --

TEST(Aerial, EmptyMaskGivesZeroIntensity) {
  AerialSimulator aerial(cached_kernels(test_config()));
  const int n = aerial.grid_size();
  const GridF intensity = aerial.intensity(GridF(n, n, 0.0));
  for (std::size_t i = 0; i < intensity.size(); ++i)
    EXPECT_NEAR(intensity[i], 0.0, 1e-15);
}

TEST(Aerial, IntensityNonNegativeAndBlursEdges) {
  const LithoConfig cfg = test_config();
  AerialSimulator aerial(cached_kernels(cfg));
  const int n = cfg.grid_size;
  GridF mask(n, n, 0.0);
  for (int y = 24; y < 40; ++y)
    for (int x = 24; x < 40; ++x) mask.at(y, x) = 1.0;
  const GridF intensity = aerial.intensity(mask);
  double min_v = 1e9, max_v = -1e9;
  for (std::size_t i = 0; i < intensity.size(); ++i) {
    min_v = std::min(min_v, intensity[i]);
    max_v = std::max(max_v, intensity[i]);
  }
  EXPECT_GE(min_v, -1e-12);
  EXPECT_GT(max_v, cfg.intensity_threshold);
  // Blur: intensity just outside the mask edge is non-zero.
  EXPECT_GT(intensity.at(32, 42), 1e-5);
}

TEST(Aerial, GradientMatchesFiniteDifference) {
  // The adjoint backpropagate() must agree with numeric differentiation of
  // L = sum (I - I0)^2 w.r.t. the mask — this validates the entire ILT
  // gradient chain through the optical model.
  LithoConfig cfg = test_config();
  cfg.kernel_count = 3;
  AerialSimulator aerial(cached_kernels(cfg));
  const int n = cfg.grid_size;
  Rng rng(99);
  GridF mask(n, n, 0.0);
  for (std::size_t i = 0; i < mask.size(); ++i) mask[i] = rng.uniform();

  const AerialFields fields = aerial.intensity_with_fields(mask);
  // L = 0.5 * sum I^2  ->  dL/dI = I.
  GridF dldi = fields.intensity;
  const GridF grad = aerial.backpropagate(dldi, fields);

  double l0 = 0.0;
  for (std::size_t i = 0; i < fields.intensity.size(); ++i)
    l0 += 0.5 * fields.intensity[i] * fields.intensity[i];

  (void)l0;
  // Central differences kill the truncation error of the quartic loss.
  const double eps = 1e-5;
  auto loss_at = [&](const GridF& m) {
    const GridF intensity2 = aerial.intensity(m);
    double l = 0.0;
    for (std::size_t i = 0; i < intensity2.size(); ++i)
      l += 0.5 * intensity2[i] * intensity2[i];
    return l;
  };
  for (const auto& [y, x] : {std::pair{n / 2, n / 2}, {10, 20}, {40, 33}}) {
    GridF plus = mask;
    plus.at(y, x) += eps;
    GridF minus = mask;
    minus.at(y, x) -= eps;
    const double numeric = (loss_at(plus) - loss_at(minus)) / (2.0 * eps);
    EXPECT_NEAR(grad.at(y, x), numeric,
                1e-5 + 1e-5 * std::abs(numeric))
        << "at (" << y << ", " << x << ")";
  }
}

TEST(Aerial, IntensityOnlyPathIsBitIdenticalToFieldsPath) {
  // The streaming intensity-only overload (no AerialFields materialized)
  // must reproduce the fields path bit-for-bit — it is what expose() and
  // the flow's violation checks run on.
  const LithoConfig cfg = test_config();
  AerialSimulator aerial(cached_kernels(cfg));
  const int n = cfg.grid_size;
  Rng rng(123);
  GridF mask(n, n, 0.0);
  for (std::size_t i = 0; i < mask.size(); ++i) mask[i] = rng.uniform();

  const AerialFields fields = aerial.intensity_with_fields(mask);
  GridF streamed;
  aerial.intensity(mask, streamed);
  ASSERT_TRUE(streamed.same_shape(fields.intensity));
  for (std::size_t i = 0; i < streamed.size(); ++i)
    EXPECT_EQ(streamed[i], fields.intensity[i]) << "pixel " << i;
}

TEST(Aerial, OutParamOverloadsReuseWarmBuffersBitIdentically) {
  const LithoConfig cfg = test_config();
  AerialSimulator aerial(cached_kernels(cfg));
  const int n = cfg.grid_size;
  Rng rng(321);
  GridF mask(n, n, 0.0);
  for (std::size_t i = 0; i < mask.size(); ++i) mask[i] = rng.uniform();

  const AerialFields once = aerial.intensity_with_fields(mask);
  AerialFields reused;
  aerial.intensity_with_fields(mask, reused);  // cold fill
  aerial.intensity_with_fields(mask, reused);  // warm refill, same storage
  ASSERT_EQ(reused.fields.size(), once.fields.size());
  for (std::size_t i = 0; i < once.intensity.size(); ++i)
    EXPECT_EQ(reused.intensity[i], once.intensity[i]);

  const GridF grad_once = aerial.backpropagate(once.intensity, once);
  GridF grad_reused;
  aerial.backpropagate(reused.intensity, reused, grad_reused);
  aerial.backpropagate(reused.intensity, reused, grad_reused);
  for (std::size_t i = 0; i < grad_once.size(); ++i)
    EXPECT_EQ(grad_reused[i], grad_once[i]);
}

// ------------------------------------------------- band-limited imaging --

// The full-grid SOCS arithmetic the band path replaced, spelled out: full
// real mask FFT, full-grid kernel products and 2-D inverses, the serial
// intensity fold, and the adjoint's full-grid spectral sum.
struct FullGridImage {
  std::vector<fft::GridC> fields;
  GridF intensity;
};

FullGridImage full_grid_forward(const SocsKernels& k, const GridF& mask) {
  const int n = k.config.grid_size;
  const fft::Fft2DPlan& plan = fft::plan_for(n, n);
  const kernels::KernelTable& kt = kernels::table();
  fft::GridC mask_freq;
  plan.forward_real(mask, mask_freq);
  FullGridImage out;
  out.intensity = GridF(n, n, 0.0);
  for (std::size_t i = 0; i < k.kernel_ffts.size(); ++i) {
    fft::GridC field(n, n);
    kt.cmul_to_f64(mask_freq.data(), k.kernel_ffts[i].data(), field.data(),
                   field.size());
    plan.inverse(field);
    kt.norm_weighted_accum_f64(out.intensity.data(), field.data(),
                               k.weights[i], field.size());
    out.fields.push_back(std::move(field));
  }
  return out;
}

GridF full_grid_backpropagate(const SocsKernels& k, const GridF& dldi,
                              const std::vector<fft::GridC>& fields) {
  const int n = k.config.grid_size;
  const fft::Fft2DPlan& plan = fft::plan_for(n, n);
  const kernels::KernelTable& kt = kernels::table();
  fft::GridC accum(n, n);
  for (std::size_t i = 0; i < fields.size(); ++i) {
    fft::GridC slice(n, n);
    kt.real_mul_f64(dldi.data(), fields[i].data(), slice.data(),
                    slice.size());
    plan.forward(slice);
    kt.cmul_conj_accum_f64(accum.data(), slice.data(),
                           k.kernel_ffts[i].data(), k.weights[i],
                           accum.size());
  }
  plan.inverse(accum);
  GridF grad(n, n);
  kt.scaled_real_f64(accum.data(), 2.0, grad.data(), grad.size());
  return grad;
}

bool same_bits(const GridF& a, const GridF& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// In-focus, defocused (complex Hermitian TCC) and energy-truncated kernel
// sets at 64 and 128 px, all on the 1024 nm field (band b = 6).
std::vector<LithoConfig> band_configs() {
  std::vector<LithoConfig> out;
  for (int n : {64, 128}) {
    LithoConfig cfg;
    cfg.grid_size = n;
    cfg.pixel_nm = 1024.0 / n;
    cfg.kernel_count = 6;
    out.push_back(cfg);
    LithoConfig defocus = cfg;
    defocus.defocus_nm = 60.0;
    out.push_back(defocus);
    LithoConfig truncated = cfg;
    truncated.kernel_keep_energy = 0.9;
    out.push_back(truncated);
  }
  return out;
}

void expect_band_path_matches_full_grid(const SocsKernels& kernels,
                                        const std::string& label) {
  const int n = kernels.config.grid_size;
  BackendGuard guard;
  for (kernels::Backend backend : usable_backends()) {
    kernels::select(backend);
    SCOPED_TRACE(label + " on " + kernels::to_string(backend));
    const AerialSimulator aerial(kernels);
    Rng rng(static_cast<std::uint64_t>(n) + 7);
    GridF mask(n, n);
    for (std::size_t i = 0; i < mask.size(); ++i) mask[i] = rng.uniform();
    GridF dldi(n, n);
    for (std::size_t i = 0; i < dldi.size(); ++i)
      dldi[i] = rng.uniform(-1.0, 1.0);

    const FullGridImage want = full_grid_forward(kernels, mask);
    // Intensities are memcmp-identical on both forward paths.
    EXPECT_TRUE(same_bits(aerial.intensity(mask), want.intensity));
    const AerialFields got = aerial.intensity_with_fields(mask);
    EXPECT_TRUE(same_bits(got.intensity, want.intensity));
    // Fields and gradients compare equal; only an exact zero's sign may
    // differ (a skipped pass would have transformed zeros).
    ASSERT_EQ(got.fields.size(), want.fields.size());
    for (std::size_t k = 0; k < want.fields.size(); ++k)
      for (std::size_t i = 0; i < want.fields[k].size(); ++i)
        ASSERT_EQ(got.fields[k][i], want.fields[k][i])
            << "kernel " << k << " pixel " << i;
    const GridF grad = aerial.backpropagate(dldi, got);
    const GridF want_grad =
        full_grid_backpropagate(kernels, dldi, want.fields);
    for (std::size_t i = 0; i < want_grad.size(); ++i)
      ASSERT_EQ(grad[i], want_grad[i]) << "pixel " << i;
  }
}

TEST(AerialBand, AllPathsMatchFullGridArithmetic) {
  for (const LithoConfig& cfg : band_configs()) {
    const SocsKernels& kernels = cached_kernels(cfg);
    // The band path is really exercised: 13 of n rows and columns, and
    // the truncated sets really drop kernels.
    ASSERT_EQ(kernels.band, 6);
    if (cfg.kernel_keep_energy < 1.0) {
      ASSERT_GT(kernels.dropped_kernel_count, 0);
    }
    const std::string label =
        std::to_string(cfg.grid_size) + "px defocus " +
        std::to_string(cfg.defocus_nm) + " keep " +
        std::to_string(cfg.kernel_keep_energy) + " (" +
        std::to_string(kernels.kernel_count()) + " kernels)";
    expect_band_path_matches_full_grid(kernels, label);
  }
}

TEST(AerialBand, BandCoveringTheGridRunsTheSamePath) {
  // An 8 px grid over the 1024 nm field: the support reaches the Nyquist
  // bins, so the band is clipped to the whole grid.
  LithoConfig cfg;
  cfg.grid_size = 8;
  cfg.pixel_nm = 128.0;
  cfg.kernel_count = 4;
  cfg.calibration_feature_nm = 384.0;
  const SocsKernels& kernels = cached_kernels(cfg);
  EXPECT_EQ(kernels.band, 4);
  expect_band_path_matches_full_grid(kernels, "8px");
}

TEST(Simulator, ExposeAndPrintOutParamsMatchValueOverloads) {
  const LithoSimulator sim(test_config());
  const int n = sim.grid_size();
  Rng rng(456);
  GridF m1(n, n, 0.0), m2(n, n, 0.0);
  for (std::size_t i = 0; i < m1.size(); ++i) {
    m1[i] = rng.uniform();
    m2[i] = rng.uniform();
  }
  const GridF exposed = sim.expose(m1);
  GridF exposed_into;
  sim.expose_into(m1, exposed_into);
  sim.expose_into(m1, exposed_into);  // warm second pass
  for (std::size_t i = 0; i < exposed.size(); ++i)
    EXPECT_EQ(exposed_into[i], exposed[i]);

  const GridF printed = sim.print(m1, m2);
  GridF printed_into;
  sim.print_into(m1, m2, printed_into);
  for (std::size_t i = 0; i < printed.size(); ++i)
    EXPECT_EQ(printed_into[i], printed[i]);

  std::vector<GridF> responses;
  GridF multi;
  sim.print_masks_into({m1, m2}, responses, multi);
  const GridF multi_value = sim.print_masks({m1, m2});
  ASSERT_EQ(responses.size(), 2u);
  for (std::size_t i = 0; i < multi.size(); ++i)
    EXPECT_EQ(multi[i], multi_value[i]);
}

// ---------------------------------------------------------------- resist --

TEST(Resist, SigmoidBasics) {
  EXPECT_DOUBLE_EQ(sigmoid(0.0), 0.5);
  EXPECT_NEAR(sigmoid(100.0), 1.0, 1e-12);
  EXPECT_NEAR(sigmoid(-100.0), 0.0, 1e-12);
  EXPECT_NEAR(sigmoid(1.0) + sigmoid(-1.0), 1.0, 1e-12);
}

TEST(Resist, ResponseCrossesHalfAtThreshold) {
  const LithoConfig cfg = test_config();
  GridF intensity(1, 3);
  intensity.at(0, 0) = cfg.intensity_threshold;
  intensity.at(0, 1) = cfg.intensity_threshold + 0.05;
  intensity.at(0, 2) = cfg.intensity_threshold - 0.05;
  const GridF t = resist_response(intensity, cfg);
  EXPECT_NEAR(t.at(0, 0), 0.5, 1e-12);
  EXPECT_GT(t.at(0, 1), 0.95);
  EXPECT_LT(t.at(0, 2), 0.05);
}

TEST(Resist, DerivativePeaksAtThreshold) {
  const LithoConfig cfg = test_config();
  GridF t(1, 3);
  t.at(0, 0) = 0.5;
  t.at(0, 1) = 0.99;
  t.at(0, 2) = 0.01;
  const GridF d = resist_derivative(t, cfg);
  EXPECT_NEAR(d.at(0, 0), cfg.theta_z * 0.25, 1e-12);
  EXPECT_LT(d.at(0, 1), d.at(0, 0));
  EXPECT_LT(d.at(0, 2), d.at(0, 0));
}

TEST(Resist, CombineExposuresSaturatesAtOne) {
  GridF a(1, 2), b(1, 2);
  a.at(0, 0) = 0.7;
  b.at(0, 0) = 0.6;
  a.at(0, 1) = 0.2;
  b.at(0, 1) = 0.3;
  const GridF t = combine_exposures(a, b);
  EXPECT_DOUBLE_EQ(t.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(t.at(0, 1), 0.5);
}

TEST(Resist, BinarizeThreshold) {
  GridF t(1, 2);
  t.at(0, 0) = 0.51;
  t.at(0, 1) = 0.49;
  const GridU8 b = binarize(t);
  EXPECT_EQ(b.at(0, 0), 1);
  EXPECT_EQ(b.at(0, 1), 0);
}

// --------------------------------------------------------------- metrics --

TEST(Metrics, BilinearSamplingInterpolates) {
  GridF g(2, 2);
  g.at(0, 0) = 0.0;
  g.at(0, 1) = 1.0;
  g.at(1, 0) = 2.0;
  g.at(1, 1) = 3.0;
  // Center of the 2x2 block is the average.
  EXPECT_NEAR(sample_bilinear(g, 1.0, 1.0), 1.5, 1e-12);
  // Exactly at a pixel center.
  EXPECT_NEAR(sample_bilinear(g, 0.5, 0.5), 0.0, 1e-12);
  EXPECT_NEAR(sample_bilinear(g, 1.5, 1.5), 3.0, 1e-12);
}

TEST(Metrics, CheckpointsPerContactAreFourMidpoints) {
  const layout::Layout l = single_square_layout(64);
  const auto cps = make_checkpoints(l, 40.0);
  ASSERT_EQ(cps.size(), 4u);
  for (const auto& cp : cps)
    EXPECT_NEAR(std::hypot(cp.normal_x, cp.normal_y), 1.0, 1e-12);
}

TEST(Metrics, LongEdgesGetMultipleCheckpoints) {
  layout::Layout l;
  l.clip = geometry::Rect::from_size({0, 0}, 1024, 1024);
  l.add_pattern(geometry::Rect::from_size({100, 100}, 200, 64));
  const auto cps = make_checkpoints(l, 40.0);
  // 200nm edges get 5 checkpoints each, 64nm edges get 1: 2*5 + 2*1 = 12.
  EXPECT_EQ(cps.size(), 12u);
}

TEST(Metrics, PerfectPrintHasZeroEpe) {
  // Synthesize an ideal response: exactly the target raster smoothed by
  // nothing — contour lies exactly on the pattern edges.
  const layout::Layout l = single_square_layout(256);
  const LithoConfig cfg = test_config();
  const layout::RasterTransform transform{l.clip, cfg.grid_size};
  const GridF response = layout::rasterize_target(l, cfg.grid_size);
  const EpeReport report = measure_epe(response, l, transform, cfg);
  EXPECT_EQ(report.violation_count, 0);
  EXPECT_LT(report.max_epe_nm, cfg.epe_threshold_nm);
}

TEST(Metrics, UniformlyShrunkPrintMeasuresTheBias) {
  const layout::Layout target = single_square_layout(256);
  layout::Layout shrunk = single_square_layout(224);  // 16nm per side bias
  const LithoConfig cfg = test_config();
  const layout::RasterTransform transform{target.clip, cfg.grid_size};
  const GridF response = layout::rasterize_target(shrunk, cfg.grid_size);
  const EpeReport report = measure_epe(response, target, transform, cfg);
  EXPECT_EQ(report.violation_count,
            static_cast<int>(report.measurements.size()));
  for (const auto& m : report.measurements) EXPECT_NEAR(m.epe_nm, 16.0, 2.5);
}

TEST(Metrics, MissingPatternClampsToSearchRange) {
  const layout::Layout l = single_square_layout(256);
  const LithoConfig cfg = test_config();
  const layout::RasterTransform transform{l.clip, cfg.grid_size};
  const GridF response(cfg.grid_size, cfg.grid_size, 0.0);  // prints nothing
  const EpeReport report = measure_epe(response, l, transform, cfg);
  for (const auto& m : report.measurements) {
    EXPECT_FALSE(m.contour_found);
    EXPECT_DOUBLE_EQ(m.epe_nm, cfg.epe_search_range_nm);
    EXPECT_TRUE(m.violation);
  }
}

TEST(Metrics, EpeTracksUniformShiftOfThePrint) {
  // Shifting the printed image by one pixel along x must register as an
  // ~pixel-sized EPE on the x-normal checkpoints and leave y-normal
  // checkpoints (of a square) nearly unchanged.
  const layout::Layout l = single_square_layout(256);
  const LithoConfig cfg = test_config();
  const layout::RasterTransform transform{l.clip, cfg.grid_size};
  const GridF nominal = layout::rasterize_target(l, cfg.grid_size);
  GridF shifted(cfg.grid_size, cfg.grid_size, 0.0);
  for (int y = 0; y < cfg.grid_size; ++y)
    for (int x = 1; x < cfg.grid_size; ++x)
      shifted.at(y, x) = nominal.at(y, x - 1);
  const EpeReport report = measure_epe(shifted, l, transform, cfg);
  const double px = transform.nm_per_pixel();
  for (const auto& m : report.measurements) {
    if (m.checkpoint.normal_x != 0.0)
      EXPECT_NEAR(m.epe_nm, px, 1.5) << "x-normal checkpoint";
    else
      EXPECT_LT(m.epe_nm, 2.0) << "y-normal checkpoint";
  }
}

TEST(Metrics, L2ErrorOfIdenticalImagesIsZero) {
  GridF a(8, 8, 0.3);
  EXPECT_DOUBLE_EQ(l2_error(a, a), 0.0);
  GridF b = a;
  b.at(0, 0) += 2.0;
  EXPECT_DOUBLE_EQ(l2_error(a, b), 4.0);
}

TEST(Metrics, ViolationDetectorFindsMissing) {
  const layout::Layout l = single_square_layout(256);
  const layout::RasterTransform transform{l.clip, 64};
  const GridU8 printed(64, 64, 0);
  const ViolationReport report = detect_print_violations(printed, l, transform);
  EXPECT_EQ(report.missing, 1);
  EXPECT_EQ(report.bridges, 0);
  EXPECT_EQ(report.extra, 0);
}

TEST(Metrics, ViolationDetectorFindsBridge) {
  layout::Layout l;
  l.clip = geometry::Rect::from_size({0, 0}, 1024, 1024);
  l.add_pattern(geometry::Rect::from_size({256, 448}, 128, 128));
  l.add_pattern(geometry::Rect::from_size({640, 448}, 128, 128));
  const layout::RasterTransform transform{l.clip, 64};
  // Printed: one blob covering both patterns and the gap between them.
  GridU8 printed(64, 64, 0);
  for (int y = 28; y < 36; ++y)
    for (int x = 16; x < 48; ++x) printed.at(y, x) = 1;
  const ViolationReport report = detect_print_violations(printed, l, transform);
  EXPECT_EQ(report.bridges, 1);
  EXPECT_EQ(report.missing, 0);
}

TEST(Metrics, ViolationDetectorFindsExtra) {
  const layout::Layout l = single_square_layout(256);
  const layout::RasterTransform transform{l.clip, 64};
  GridU8 printed(64, 64, 0);
  // Print the real pattern (center 16x16 block = 256nm at 16nm/px).
  for (int y = 24; y < 40; ++y)
    for (int x = 24; x < 40; ++x) printed.at(y, x) = 1;
  // Plus a spurious blob in a corner.
  for (int y = 2; y < 6; ++y)
    for (int x = 2; x < 6; ++x) printed.at(y, x) = 1;
  const ViolationReport report = detect_print_violations(printed, l, transform);
  EXPECT_EQ(report.extra, 1);
  EXPECT_EQ(report.missing, 0);
}

// -------------------------------------------------------------- simulator --

TEST(Simulator, IsolatedContactPrintsOnTarget) {
  // End-to-end physics check: an isolated contact at the calibration size
  // must print with no violations and no EPE violations even without OPC
  // (the dose is anchored to exactly this feature).
  const LithoConfig cfg = test_config();
  LithoSimulator sim(cfg);
  const layout::Layout l = single_square_layout(
      static_cast<std::int64_t>(cfg.calibration_feature_nm));
  const GridF response = sim.print_decomposition(l, {0});
  const PrintabilityReport report = sim.evaluate(response, l);
  EXPECT_EQ(report.violations.total(), 0);
  EXPECT_EQ(report.epe.violation_count, 0)
      << "max EPE " << report.epe.max_epe_nm;
}

TEST(Simulator, ConflictPairPrintsWorseOnOneMaskThanSplit) {
  // The decomposition premise: two contacts at sub-nmin spacing print badly
  // on one mask (pitch below the resolution limit) and fine on two.
  LithoConfig cfg = test_config();
  LithoSimulator sim(cfg);
  layout::Layout l;
  l.clip = geometry::Rect::from_size({0, 0}, 1024, 1024);
  l.add_pattern(geometry::Rect::from_size({412, 480}, 65, 65));
  l.add_pattern(geometry::Rect::from_size({547, 480}, 65, 65));  // 70nm gap

  const GridF same_mask = sim.print_decomposition(l, {0, 0});
  const GridF split = sim.print_decomposition(l, {0, 1});
  const PrintabilityReport same_report = sim.evaluate(same_mask, l);
  const PrintabilityReport split_report = sim.evaluate(split, l);

  // Split pair prints cleanly; same-mask pair shows the proximity failure.
  EXPECT_EQ(split_report.violations.total(), 0);
  EXPECT_GT(same_report.epe.violation_count + same_report.violations.total(),
            split_report.epe.violation_count +
                split_report.violations.total());
  EXPECT_LT(split_report.score(), same_report.score());
}

TEST(Simulator, MismatchedClipThrows) {
  LithoSimulator sim(test_config());
  layout::Layout l = single_square_layout(256, 2048);  // 2048nm clip
  EXPECT_THROW(sim.print_decomposition(l, {0}), ldmo::Error);
}

TEST(Simulator, ScoreFollowsEquationNine) {
  PrintabilityReport report;
  report.l2 = 100.0;
  report.epe.violation_count = 2;
  report.violations.missing = 1;
  EXPECT_DOUBLE_EQ(report.score(), 100.0 + 3500.0 * 2 + 8000.0 * 1);
  const ScoreWeights custom{2.0, 10.0, 100.0};
  EXPECT_DOUBLE_EQ(report.score(custom), 200.0 + 20.0 + 100.0);
}

}  // namespace
}  // namespace ldmo::litho
