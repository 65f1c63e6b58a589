// Unit + property tests for the FFT module: round trips, known transforms,
// Parseval, linearity, the convolution theorem, and the band-limited
// transforms' exactness against the full ones.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "fft/fft.h"
#include "kernels/kernels.h"

#include "backend_sweep.h"

namespace ldmo::fft {
namespace {

using testutil::BackendGuard;
using testutil::usable_backends;

TEST(FftUtil, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1);
  EXPECT_EQ(next_pow2(2), 2);
  EXPECT_EQ(next_pow2(3), 4);
  EXPECT_EQ(next_pow2(129), 256);
  EXPECT_THROW(next_pow2(0), ldmo::Error);
}

TEST(FftUtil, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(48));
}

TEST(FftPlan, RejectsNonPow2) { EXPECT_THROW(FftPlan(12), ldmo::Error); }

TEST(FftPlan, DeltaTransformsToConstant) {
  FftPlan plan(8);
  std::vector<Complex> data(8, Complex(0, 0));
  data[0] = Complex(1, 0);
  plan.forward(data.data());
  for (const Complex& c : data) {
    EXPECT_NEAR(c.real(), 1.0, 1e-12);
    EXPECT_NEAR(c.imag(), 0.0, 1e-12);
  }
}

TEST(FftPlan, ConstantTransformsToScaledDelta) {
  FftPlan plan(8);
  std::vector<Complex> data(8, Complex(1, 0));
  plan.forward(data.data());
  EXPECT_NEAR(data[0].real(), 8.0, 1e-12);
  for (int i = 1; i < 8; ++i) EXPECT_NEAR(std::abs(data[i]), 0.0, 1e-12);
}

TEST(FftPlan, SingleToneLandsInOneBin) {
  const int n = 32;
  FftPlan plan(n);
  std::vector<Complex> data(n);
  const int k = 5;
  for (int i = 0; i < n; ++i) {
    const double angle = 2.0 * M_PI * k * i / n;
    data[i] = Complex(std::cos(angle), std::sin(angle));
  }
  plan.forward(data.data());
  for (int i = 0; i < n; ++i) {
    if (i == k)
      EXPECT_NEAR(data[i].real(), n, 1e-9);
    else
      EXPECT_NEAR(std::abs(data[i]), 0.0, 1e-9);
  }
}

TEST(FftPlan, RoundTripIsIdentity) {
  Rng rng(13);
  FftPlan plan(64);
  std::vector<Complex> data(64), original(64);
  for (int i = 0; i < 64; ++i)
    data[i] = original[i] = Complex(rng.normal(), rng.normal());
  plan.forward(data.data());
  plan.inverse(data.data());
  for (int i = 0; i < 64; ++i)
    EXPECT_NEAR(std::abs(data[i] - original[i]), 0.0, 1e-10);
}

TEST(FftPlan, ParsevalHolds) {
  Rng rng(21);
  const int n = 128;
  FftPlan plan(n);
  std::vector<Complex> data(n);
  double time_energy = 0.0;
  for (int i = 0; i < n; ++i) {
    data[i] = Complex(rng.normal(), rng.normal());
    time_energy += std::norm(data[i]);
  }
  plan.forward(data.data());
  double freq_energy = 0.0;
  for (const Complex& c : data) freq_energy += std::norm(c);
  EXPECT_NEAR(freq_energy / n, time_energy, 1e-8 * time_energy);
}

TEST(FftPlan, Linearity) {
  Rng rng(5);
  const int n = 32;
  FftPlan plan(n);
  std::vector<Complex> a(n), b(n), sum(n);
  for (int i = 0; i < n; ++i) {
    a[i] = Complex(rng.normal(), rng.normal());
    b[i] = Complex(rng.normal(), rng.normal());
    sum[i] = a[i] + 2.0 * b[i];
  }
  plan.forward(a.data());
  plan.forward(b.data());
  plan.forward(sum.data());
  for (int i = 0; i < n; ++i)
    EXPECT_NEAR(std::abs(sum[i] - (a[i] + 2.0 * b[i])), 0.0, 1e-9);
}

TEST(Fft2D, RoundTripIsIdentity) {
  Rng rng(31);
  Fft2DPlan plan(16, 32);
  GridC grid(16, 32);
  GridC original(16, 32);
  for (std::size_t i = 0; i < grid.size(); ++i)
    grid[i] = original[i] = Complex(rng.normal(), rng.normal());
  plan.forward(grid);
  plan.inverse(grid);
  for (std::size_t i = 0; i < grid.size(); ++i)
    EXPECT_NEAR(std::abs(grid[i] - original[i]), 0.0, 1e-10);
}

TEST(Fft2D, ShapeMismatchThrows) {
  Fft2DPlan plan(8, 8);
  GridC wrong(8, 16);
  EXPECT_THROW(plan.forward(wrong), ldmo::Error);
}

TEST(Fft2D, DcBinEqualsSum) {
  Fft2DPlan plan(8, 8);
  GridC grid(8, 8);
  double sum = 0.0;
  for (int y = 0; y < 8; ++y)
    for (int x = 0; x < 8; ++x) {
      grid.at(y, x) = Complex(y + 0.5 * x, 0);
      sum += y + 0.5 * x;
    }
  plan.forward(grid);
  EXPECT_NEAR(grid.at(0, 0).real(), sum, 1e-9);
}

// Convolution theorem: circular convolution via FFT equals direct circular
// convolution. This is the exact operation the litho simulator relies on.
TEST(Fft2D, ConvolutionTheorem) {
  Rng rng(77);
  const int n = 16;
  Fft2DPlan plan(n, n);
  GridF a(n, n), b(n, n);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.uniform();
    b[i] = rng.uniform();
  }
  // Direct circular convolution.
  GridF direct(n, n, 0.0);
  for (int y = 0; y < n; ++y)
    for (int x = 0; x < n; ++x) {
      double acc = 0.0;
      for (int v = 0; v < n; ++v)
        for (int u = 0; u < n; ++u)
          acc += a.at(v, u) * b.at((y - v + n) % n, (x - u + n) % n);
      direct.at(y, x) = acc;
    }
  // FFT path.
  GridC fa = to_complex(a);
  GridC fb = to_complex(b);
  plan.forward(fa);
  plan.forward(fb);
  multiply_inplace(fa, fb);
  plan.inverse(fa);
  const GridF via_fft = real_part(fa);
  for (int y = 0; y < n; ++y)
    for (int x = 0; x < n; ++x)
      EXPECT_NEAR(via_fft.at(y, x), direct.at(y, x), 1e-8);
}

TEST(Fft2D, MultiplyConjMatchesManual) {
  GridC a(1, 2), b(1, 2);
  a.at(0, 0) = Complex(1, 2);
  a.at(0, 1) = Complex(3, -1);
  b.at(0, 0) = Complex(2, 1);
  b.at(0, 1) = Complex(0, 1);
  multiply_conj_inplace(a, b);
  EXPECT_NEAR(std::abs(a.at(0, 0) - Complex(1, 2) * Complex(2, -1)), 0, 1e-12);
  EXPECT_NEAR(std::abs(a.at(0, 1) - Complex(3, -1) * Complex(0, -1)), 0,
              1e-12);
}

TEST(Fft2D, RealPartAndToComplexRoundTrip) {
  GridF g(2, 2);
  g.at(0, 0) = 1.5;
  g.at(1, 1) = -2.5;
  EXPECT_EQ(real_part(to_complex(g)), g);
}

// Parameterized round-trip across all the grid sizes the framework uses.
class FftSizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(FftSizeSweep, RoundTrip) {
  const int n = GetParam();
  Rng rng(1000 + static_cast<std::uint64_t>(n));
  Fft2DPlan plan(n, n);
  GridC grid(n, n), original(n, n);
  for (std::size_t i = 0; i < grid.size(); ++i)
    grid[i] = original[i] = Complex(rng.normal(), rng.normal());
  plan.forward(grid);
  plan.inverse(grid);
  double max_err = 0.0;
  for (std::size_t i = 0; i < grid.size(); ++i)
    max_err = std::max(max_err, std::abs(grid[i] - original[i]));
  EXPECT_LT(max_err, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftSizeSweep,
                         ::testing::Values(2, 4, 8, 16, 32, 64, 128, 256));

TEST(FftPlanCache, PlanForReturnsOneSharedPlanPerShape) {
  const Fft2DPlan& a = plan_for(32, 16);
  const Fft2DPlan& b = plan_for(32, 16);
  const Fft2DPlan& c = plan_for(16, 32);
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &c);
  EXPECT_EQ(a.height(), 32);
  EXPECT_EQ(a.width(), 16);
}

TEST(FftOutParam, ToComplexAndRealPartRoundTrip) {
  GridF real(5, 3);
  for (std::size_t i = 0; i < real.size(); ++i)
    real[i] = static_cast<double>(i) - 6.5;
  GridC complex_out;
  to_complex(real, complex_out);
  ASSERT_EQ(complex_out.height(), real.height());
  ASSERT_EQ(complex_out.width(), real.width());
  GridF back;
  real_part(complex_out, back);
  for (std::size_t i = 0; i < real.size(); ++i) {
    EXPECT_EQ(back[i], real[i]);
    EXPECT_EQ(complex_out[i].imag(), 0.0);
  }
}

TEST(FftRawPointer, MatchesGridTransform) {
  Rng rng(7);
  const int n = 8;
  Fft2DPlan plan(n, n);
  GridC grid(n, n);
  for (std::size_t i = 0; i < grid.size(); ++i)
    grid[i] = Complex(rng.normal(), rng.normal());
  std::vector<Complex> raw(grid.data(), grid.data() + grid.size());
  plan.forward(grid);
  plan.forward(raw.data());
  for (std::size_t i = 0; i < grid.size(); ++i) EXPECT_EQ(raw[i], grid[i]);
}

// ------------------------------------------------------ band transforms --

bool same_bits(const Complex& a, const Complex& b) {
  return std::bit_cast<std::uint64_t>(a.real()) ==
             std::bit_cast<std::uint64_t>(b.real()) &&
         std::bit_cast<std::uint64_t>(a.imag()) ==
             std::bit_cast<std::uint64_t>(b.imag());
}

// Shapes and half-widths: the imaging models' b = 6 at 64 and 128 px,
// non-square grids, b = 0, the widest unclipped band (2b+1 = n-1), bands
// clipped to the grid on one or both axes, and a single-row grid.
struct BandCase {
  int height, width, band;
};
const BandCase kBandCases[] = {{64, 64, 6},  {128, 128, 6}, {16, 32, 3},
                               {32, 16, 0},  {16, 16, 7},   {8, 8, 4},
                               {8, 8, 9},    {2, 4, 1},     {1, 8, 2}};

// Spectrum with random values on the band box and exact zeros elsewhere.
GridC band_limited_spectrum(const BandCase& c, Rng& rng) {
  const BandAxis rows(c.height, c.band), cols(c.width, c.band);
  GridC spectrum(c.height, c.width);
  for (int r = 0; r < rows.size; ++r)
    for (int j = 0; j < cols.size; ++j)
      spectrum.at(rows.bin(r), cols.bin(j)) =
          Complex(rng.normal(), rng.normal());
  return spectrum;
}

// The two kinds of input the band forwards are fed: a band-limited signal
// (what the imaging adjoint transforms) and an arbitrary one.
std::vector<GridC> forward_inputs(const BandCase& c, Rng& rng) {
  GridC limited = band_limited_spectrum(c, rng);
  plan_for(c.height, c.width).inverse(limited);
  GridC arbitrary(c.height, c.width);
  for (std::size_t i = 0; i < arbitrary.size(); ++i)
    arbitrary[i] = Complex(rng.uniform(), rng.normal());
  return {limited, arbitrary};
}

std::size_t box_size(const BandCase& c) {
  return static_cast<std::size_t>(BandAxis(c.height, c.band).size) *
         BandAxis(c.width, c.band).size;
}

TEST(FftBand, AxisListsInBandBinsInFftOrder) {
  const BandAxis a(16, 3);
  EXPECT_EQ(a.size, 7);
  std::vector<int> bins;
  for (int i = 0; i < a.size; ++i) bins.push_back(a.bin(i));
  EXPECT_EQ(bins, (std::vector<int>{0, 1, 2, 3, 13, 14, 15}));
  // 2b+1 = 15 still leaves the Nyquist bin out.
  EXPECT_EQ(BandAxis(16, 7).size, 15);
  EXPECT_EQ(BandAxis(16, 7).bin(8), 9);
  // Clipped to the axis: every bin, in order.
  for (int band : {8, 9, 1000}) {
    const BandAxis full(16, band);
    EXPECT_EQ(full.size, 16);
    for (int i = 0; i < 16; ++i) EXPECT_EQ(full.bin(i), i);
  }
  EXPECT_EQ(BandAxis(1, 0).size, 1);
  EXPECT_THROW(BandAxis(16, -1), ldmo::Error);
}

TEST(FftBand, HalfWidthIsLargestNonzeroFrequency) {
  GridC s(16, 32);
  EXPECT_EQ(band_half_width(s), 0);
  s.at(0, 31) = Complex(0.0, -1e-300);  // kx = -1
  EXPECT_EQ(band_half_width(s), 1);
  s.at(12, 3) = Complex(2.0, 0.0);  // ky = -4
  EXPECT_EQ(band_half_width(s), 4);
  s.at(0, 16) = Complex(1.0, 0.0);  // the Nyquist column
  EXPECT_EQ(band_half_width(s), 16);
}

TEST(FftBand, GatherBandPacksTheBox) {
  const BandCase c{16, 32, 3};
  Rng rng(5);
  const GridC spectrum = band_limited_spectrum(c, rng);
  std::vector<Complex> box(box_size(c));
  plan_for(c.height, c.width).gather_band(spectrum.data(), box.data(), 3);
  const BandAxis rows(16, 3), cols(32, 3);
  for (int r = 0; r < rows.size; ++r)
    for (int j = 0; j < cols.size; ++j)
      EXPECT_EQ(box[static_cast<std::size_t>(r) * cols.size + j],
                spectrum.at(rows.bin(r), cols.bin(j)));
}

TEST(FftBand, ForwardBandMatchesForwardOnEveryInBandBin) {
  BackendGuard guard;
  for (kernels::Backend backend : usable_backends()) {
    kernels::select(backend);
    Rng rng(11);
    for (const BandCase& c : kBandCases) {
      const Fft2DPlan& plan = plan_for(c.height, c.width);
      for (const GridC& input : forward_inputs(c, rng)) {
        GridC full = input;
        plan.forward(full);
        std::vector<Complex> want(box_size(c)), got(box_size(c));
        plan.gather_band(full.data(), want.data(), c.band);
        GridC rows = input;
        plan.forward_band(rows.data(), got.data(), c.band);
        for (std::size_t i = 0; i < got.size(); ++i)
          ASSERT_TRUE(same_bits(got[i], want[i]))
              << kernels::to_string(backend) << " " << c.height << "x"
              << c.width << " b=" << c.band << " bin " << i;
      }
    }
  }
}

TEST(FftBand, ForwardRealBandMatchesForwardRealOnEveryInBandBin) {
  BackendGuard guard;
  for (kernels::Backend backend : usable_backends()) {
    kernels::select(backend);
    Rng rng(12);
    for (const BandCase& c : kBandCases) {
      const Fft2DPlan& plan = plan_for(c.height, c.width);
      for (const GridC& input : forward_inputs(c, rng)) {
        const GridF real = real_part(input);
        GridC full;
        plan.forward_real(real, full);
        std::vector<Complex> want(box_size(c)), got(box_size(c));
        plan.gather_band(full.data(), want.data(), c.band);
        plan.forward_real_band(real.data(), got.data(), c.band);
        for (std::size_t i = 0; i < got.size(); ++i)
          ASSERT_TRUE(same_bits(got[i], want[i]))
              << kernels::to_string(backend) << " " << c.height << "x"
              << c.width << " b=" << c.band << " bin " << i;
      }
    }
  }
}

TEST(FftBand, InverseBandMatchesInverseOnEveryElement) {
  BackendGuard guard;
  for (kernels::Backend backend : usable_backends()) {
    kernels::select(backend);
    Rng rng(13);
    for (const BandCase& c : kBandCases) {
      const Fft2DPlan& plan = plan_for(c.height, c.width);
      GridC full = band_limited_spectrum(c, rng);
      std::vector<Complex> box(box_size(c));
      plan.gather_band(full.data(), box.data(), c.band);
      plan.inverse(full);
      // Stale contents must not leak into the output.
      GridC got(c.height, c.width, Complex(7.0, 7.0));
      plan.inverse_band(box.data(), got.data(), c.band);
      // Skipped passes transform zeros, so only an exact zero's sign may
      // differ: == treats -0 and +0 as equal.
      for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(got[i], full[i])
            << kernels::to_string(backend) << " " << c.height << "x"
            << c.width << " b=" << c.band << " element " << i;
    }
  }
}

TEST(FftBand, InverseStagesComposeToInverseBand) {
  // A caller consuming columns [x0, x1) straight from the two stages sees
  // exactly the columns inverse_band writes.
  const BandCase c{32, 16, 5};
  const Fft2DPlan& plan = plan_for(c.height, c.width);
  Rng rng(14);
  const GridC spectrum = band_limited_spectrum(c, rng);
  std::vector<Complex> box(box_size(c));
  plan.gather_band(spectrum.data(), box.data(), c.band);
  GridC whole(c.height, c.width);
  plan.inverse_band(box.data(), whole.data(), c.band);
  std::vector<Complex> rows(
      static_cast<std::size_t>(BandAxis(c.height, c.band).size) * c.width);
  plan.inverse_band_rows(box.data(), rows.data(), c.band);
  std::vector<Complex> cols(static_cast<std::size_t>(c.height) * 3);
  plan.inverse_band_cols(rows.data(), 6, 9, cols.data(), c.band);
  for (int b = 0; b < 3; ++b)
    for (int y = 0; y < c.height; ++y)
      EXPECT_TRUE(same_bits(cols[static_cast<std::size_t>(b) * c.height + y],
                            whole.at(y, 6 + b)));
}

}  // namespace
}  // namespace ldmo::fft
