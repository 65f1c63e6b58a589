// Radix-2 fast Fourier transforms (1-D and 2-D).
//
// Hopkins imaging evaluates K convolutions of each mask with the SOCS
// kernels per lithography forward pass, and the ILT gradient needs as many
// again with flipped kernels; all of them run through this module as
// frequency-domain products. Plans precompute bit-reversal tables and
// twiddle factors once per size, since the same 2-D shape is transformed
// thousands of times per ILT run. The SOCS kernels are band-limited, so
// the imaging paths use the band transforms below, which run only the 1-D
// passes that touch the kernels' frequency support.
#pragma once

#include <complex>
#include <vector>

#include "common/grid.h"

namespace ldmo::fft {

using Complex = std::complex<double>;
using GridC = Grid<Complex>;

/// Returns the smallest power of two >= n (n >= 1).
int next_pow2(int n);

/// True if n is a power of two (n >= 1).
bool is_pow2(int n);

/// The in-band bins of one transform axis of length `n` for a band
/// half-width `band` >= 0: bins 0..band, then n-band..n-1 — every signed
/// frequency |k| <= band, in FFT order. Once 2*band+1 >= n the band is
/// clipped to the axis and covers every bin. Band-packed data lists the
/// in-band bins of an axis contiguously in this order.
struct BandAxis {
  BandAxis(int n, int band);

  int size;   ///< number of in-band bins
  int low;    ///< packed index i < low is bin i
  int shift;  ///< packed index i >= low is bin i + shift

  int bin(int i) const { return i < low ? i : i + shift; }
};

/// Smallest band half-width b such that every nonzero bin of `spectrum`
/// lies at |kx| <= b and |ky| <= b (0 for an all-zero spectrum).
int band_half_width(const GridC& spectrum);

/// Precomputed plan for 1-D transforms of a fixed power-of-two size.
class FftPlan {
 public:
  explicit FftPlan(int size);

  int size() const { return size_; }

  /// In-place forward DFT (engineering sign convention, no scaling).
  void forward(Complex* data) const;

  /// In-place inverse DFT including the 1/N scaling.
  void inverse(Complex* data) const;

 private:
  void transform(Complex* data, bool inverse) const;

  int size_;
  int log2_size_;
  std::vector<int> bit_reverse_;
  // Stage-major twiddles: the stage with butterfly span `len` owns the
  // len/2 contiguous entries starting at offset len/2 - 1, so each
  // butterfly pass reads its table sequentially (SIMD-friendly) instead of
  // striding through one size/2 table. Values are gathered from the same
  // cos/sin evaluations as the classic layout — bit-identical butterflies.
  std::vector<Complex> stage_twiddle_forward_;
  std::vector<Complex> stage_twiddle_inverse_;
};

/// Precomputed plan for 2-D transforms of a fixed power-of-two shape.
/// Plans are immutable after construction and safe to share across threads
/// (per-call scratch comes from the calling thread's Workspace).
class Fft2DPlan {
 public:
  Fft2DPlan(int height, int width);

  int height() const { return height_; }
  int width() const { return width_; }

  /// In-place 2-D forward DFT of a row-major grid.
  void forward(GridC& grid) const;

  /// In-place 2-D inverse DFT (scaled by 1/(H*W)).
  void inverse(GridC& grid) const;

  /// Raw-pointer variants over row-major height()*width() storage — used
  /// by callers that transform slices of one flat pooled buffer.
  void forward(Complex* data) const;
  void inverse(Complex* data) const;

  /// 2-D forward DFT of a REAL grid (masks, resist targets): packs row
  /// pairs as re+i*im so each row FFT transforms two rows at once, then
  /// transforms only columns [0, W/2] and reconstructs the rest from the
  /// Hermitian symmetry F(v, W-u) = conj(F((H-v) mod H, u)) — just under
  /// half the butterfly work of forward(to_complex(src)). The spectrum is
  /// mathematically identical; rounding differs at the ~1 ulp level
  /// because the pack/unpack reassociates row-transform arithmetic.
  void forward_real(const GridF& src, GridC& out) const;
  void forward_real(const double* src, Complex* out) const;

  // ---- Band-limited transforms ----
  // The band box of an H x W spectrum for half-width b holds its in-band
  // bins: BandAxis(H, b).size rows by BandAxis(W, b).size columns,
  // row-major, each axis in BandAxis order. These transforms run only the
  // 1-D passes that touch the box, in the full transforms' row-then-column
  // order. A skipped pass either transforms exact zeros or makes bins
  // outside the box, and a kept pass sees the same operands as in the full
  // transform. So every box bin of a forward, and every output element of
  // an inverse, equals the full transform's: bit for bit, except that an
  // exact zero may differ in sign.

  /// Packs the in-band bins of a full H x W spectrum into `box`.
  void gather_band(const Complex* grid, Complex* box, int band) const;

  /// Band box of forward(data): transforms every row of `data` in place,
  /// then only the in-band columns. `data` keeps its row transforms.
  void forward_band(Complex* data, Complex* box, int band) const;

  /// Band box of forward_real(src): the Hermitian column stage covers
  /// only columns 0..band, and the mirror supplies columns W-band..W-1.
  void forward_real_band(const double* src, Complex* box, int band) const;

  /// 2-D inverse DFT of a spectrum that is zero outside the band box:
  /// inverse-transforms only the in-band rows, then every column. `out`
  /// (H x W, row-major) is fully overwritten.
  void inverse_band(const Complex* box, Complex* out, int band) const;

  /// The two stages of inverse_band, for callers that consume the result
  /// a block of columns at a time. inverse_band_rows writes the in-band
  /// rows' inverse transforms to `rows` (BandAxis(H, band).size x W,
  /// row-major); inverse_band_cols then inverse-transforms the columns
  /// [x_begin, x_end) of the spectrum those rows hold into `cols`,
  /// column-major with height() entries per column.
  void inverse_band_rows(const Complex* box, Complex* rows, int band) const;
  void inverse_band_cols(const Complex* rows, int x_begin, int x_end,
                         Complex* cols, int band) const;

 private:
  void transform_rows(Complex* data, bool inverse) const;
  void transform_cols(Complex* data, bool inverse) const;
  /// Column FFTs restricted to columns [x_begin, x_end) — the Hermitian
  /// real-input path only transforms the non-redundant half.
  void transform_cols_range(Complex* data, int x_begin, int x_end,
                            bool inverse) const;

  int height_;
  int width_;
  FftPlan row_plan_;
  FftPlan col_plan_;
};

/// Process-wide plan cache: one immutable Fft2DPlan per (height, width),
/// built on first use. The returned reference lives for the process
/// lifetime, so long-lived sessions (FlowEngine) and short-lived
/// simulators share the same tables.
const Fft2DPlan& plan_for(int height, int width);

/// Copies a real grid into a complex grid of the same shape.
GridC to_complex(const GridF& real);

/// Out-param variant: reshapes `out` if needed and fully overwrites it
/// (allocation-free when the shape already matches).
void to_complex(const GridF& real, GridC& out);

/// Extracts the real part.
GridF real_part(const GridC& grid);

/// Out-param variant of real_part (same reuse contract as to_complex).
void real_part(const GridC& grid, GridF& out);

/// Pointwise product: a *= b. Shapes must match.
void multiply_inplace(GridC& a, const GridC& b);

/// Pointwise product with the conjugate of b: a *= conj(b).
void multiply_conj_inplace(GridC& a, const GridC& b);

}  // namespace ldmo::fft
