#include "fft/fft.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "common/error.h"
#include "kernels/kernels.h"
#include "runtime/workspace.h"

namespace ldmo::fft {
namespace {

// Columns moved through pooled scratch together by the column stages, so
// the row-major walk touches each grid cache line once per block instead
// of once per column. The per-column butterflies are unchanged.
constexpr int kColBlock = 8;

}  // namespace

int next_pow2(int n) {
  require(n >= 1, "next_pow2: n must be >= 1");
  int p = 1;
  while (p < n) p <<= 1;
  return p;
}

bool is_pow2(int n) { return n >= 1 && (n & (n - 1)) == 0; }

BandAxis::BandAxis(int n, int band) {
  require(n >= 1 && band >= 0, "BandAxis: bad axis length or band");
  if (band >= n / 2) {  // 2*band+1 >= n: every bin is in band
    size = n;
    low = n;
    shift = 0;
  } else {
    size = 2 * band + 1;
    low = band + 1;
    shift = n - size;
  }
}

int band_half_width(const GridC& spectrum) {
  const int h = spectrum.height();
  const int w = spectrum.width();
  int band = 0;
  for (int y = 0; y < h; ++y) {
    const int ky = std::min(y, h - y);
    for (int x = 0; x < w; ++x)
      if (spectrum.at(y, x) != Complex(0.0, 0.0))
        band = std::max(band, std::max(ky, std::min(x, w - x)));
  }
  return band;
}

FftPlan::FftPlan(int size) : size_(size) {
  require(is_pow2(size), "FftPlan: size must be a power of two");
  log2_size_ = 0;
  while ((1 << log2_size_) < size_) ++log2_size_;

  bit_reverse_.resize(static_cast<std::size_t>(size_));
  for (int i = 0; i < size_; ++i) {
    int rev = 0;
    for (int b = 0; b < log2_size_; ++b)
      if (i & (1 << b)) rev |= 1 << (log2_size_ - 1 - b);
    bit_reverse_[static_cast<std::size_t>(i)] = rev;
  }

  // Classic half-size twiddle table, then regrouped stage-major: the stage
  // with span `len` reads entries k*stride (stride = size/len) — copying
  // them out contiguously keeps the butterfly values bit-identical while
  // letting each pass stream its table.
  std::vector<Complex> forward_tw(static_cast<std::size_t>(size_ / 2));
  std::vector<Complex> inverse_tw(static_cast<std::size_t>(size_ / 2));
  for (int k = 0; k < size_ / 2; ++k) {
    const double angle = -2.0 * M_PI * k / size_;
    forward_tw[static_cast<std::size_t>(k)] =
        Complex(std::cos(angle), std::sin(angle));
    inverse_tw[static_cast<std::size_t>(k)] =
        Complex(std::cos(angle), -std::sin(angle));
  }
  // Stage offsets: span len owns len/2 entries at offset len/2 - 1
  // (1 + 2 + ... + len/4 = len/2 - 1), size-1 entries total.
  stage_twiddle_forward_.resize(size_ > 1 ? static_cast<std::size_t>(size_ - 1)
                                          : 0);
  stage_twiddle_inverse_.resize(stage_twiddle_forward_.size());
  for (int len = 2; len <= size_; len <<= 1) {
    const int half = len >> 1;
    const int stride = size_ / len;
    for (int k = 0; k < half; ++k) {
      const std::size_t dst = static_cast<std::size_t>(half - 1 + k);
      const std::size_t src = static_cast<std::size_t>(k * stride);
      stage_twiddle_forward_[dst] = forward_tw[src];
      stage_twiddle_inverse_[dst] = inverse_tw[src];
    }
  }
}

void FftPlan::transform(Complex* data, bool inverse) const {
  // Bit-reversal permutation.
  for (int i = 0; i < size_; ++i) {
    const int j = bit_reverse_[static_cast<std::size_t>(i)];
    if (i < j) std::swap(data[i], data[j]);
  }
  const auto& twiddle =
      inverse ? stage_twiddle_inverse_ : stage_twiddle_forward_;
  // Iterative Cooley-Tukey: one dispatched butterfly pass per stage.
  const kernels::KernelTable& kt = kernels::table();
  for (int len = 2; len <= size_; len <<= 1) {
    const int half = len >> 1;
    kt.fft_pass_f64(data, twiddle.data() + (half - 1), size_, len);
  }
}

void FftPlan::forward(Complex* data) const { transform(data, false); }

void FftPlan::inverse(Complex* data) const {
  transform(data, true);
  kernels::table().scale_complex_f64(data, 1.0 / size_,
                                     static_cast<std::size_t>(size_));
}

Fft2DPlan::Fft2DPlan(int height, int width)
    : height_(height), width_(width), row_plan_(width), col_plan_(height) {}

void Fft2DPlan::transform_rows(Complex* data, bool inverse) const {
  for (int y = 0; y < height_; ++y) {
    Complex* row = data + static_cast<std::size_t>(y) * width_;
    if (inverse)
      row_plan_.inverse(row);
    else
      row_plan_.forward(row);
  }
}

void Fft2DPlan::transform_cols(Complex* data, bool inverse) const {
  transform_cols_range(data, 0, width_, inverse);
}

void Fft2DPlan::transform_cols_range(Complex* data, int x_begin, int x_end,
                                     bool inverse) const {
  // Blocked gather/scatter (kColBlock): bit-identical to the
  // single-column walk.
  runtime::PooledVector<Complex> scratch =
      runtime::Workspace::this_thread().vec_c128_uninit(
          static_cast<std::size_t>(height_) * kColBlock);
  Complex* buf = scratch.data();
  for (int x0 = x_begin; x0 < x_end; x0 += kColBlock) {
    const int block = std::min(kColBlock, x_end - x0);
    for (int y = 0; y < height_; ++y) {
      const Complex* row = data + static_cast<std::size_t>(y) * width_;
      for (int b = 0; b < block; ++b)
        buf[static_cast<std::size_t>(b) * height_ + y] = row[x0 + b];
    }
    for (int b = 0; b < block; ++b) {
      Complex* column = buf + static_cast<std::size_t>(b) * height_;
      if (inverse)
        col_plan_.inverse(column);
      else
        col_plan_.forward(column);
    }
    for (int y = 0; y < height_; ++y) {
      Complex* row = data + static_cast<std::size_t>(y) * width_;
      for (int b = 0; b < block; ++b)
        row[x0 + b] = buf[static_cast<std::size_t>(b) * height_ + y];
    }
  }
}

void Fft2DPlan::forward(GridC& grid) const {
  require(grid.height() == height_ && grid.width() == width_,
          "Fft2DPlan::forward: shape mismatch");
  forward(grid.data());
}

void Fft2DPlan::inverse(GridC& grid) const {
  require(grid.height() == height_ && grid.width() == width_,
          "Fft2DPlan::inverse: shape mismatch");
  inverse(grid.data());
}

void Fft2DPlan::forward(Complex* data) const {
  transform_rows(data, false);
  transform_cols(data, false);
}

void Fft2DPlan::inverse(Complex* data) const {
  transform_rows(data, true);
  transform_cols(data, true);
}

void Fft2DPlan::forward_real(const GridF& src, GridC& out) const {
  require(src.height() == height_ && src.width() == width_,
          "Fft2DPlan::forward_real: shape mismatch");
  out.resize(height_, width_);
  forward_real(src.data(), out.data());
}

void Fft2DPlan::forward_real(const double* src, Complex* out) const {
  const std::size_t cells =
      static_cast<std::size_t>(height_) * static_cast<std::size_t>(width_);
  if (height_ < 2) {
    // Degenerate single-row grid: no pairing possible.
    for (std::size_t i = 0; i < cells; ++i) out[i] = Complex(src[i], 0.0);
    forward(out);
    return;
  }
  // Row stage: pack rows (y, y+1) as re + i*im, one FFT per pair, then
  // split with A(u) = (Z(u) + conj(Z(W-u)))/2, B(u) = (Z(u) - conj(Z(W-u)))/2i.
  const int w = width_;
  const int half_w = w / 2;
  for (int y = 0; y < height_; y += 2) {
    const double* r0 = src + static_cast<std::size_t>(y) * w;
    const double* r1 = r0 + w;
    Complex* a = out + static_cast<std::size_t>(y) * w;
    Complex* b = a + w;
    for (int x = 0; x < w; ++x) a[x] = Complex(r0[x], r1[x]);
    row_plan_.forward(a);
    // Self-conjugate bins (u = 0 and u = W/2) split without a partner.
    const Complex z0 = a[0];
    a[0] = Complex(z0.real(), 0.0);
    b[0] = Complex(z0.imag(), 0.0);
    if (w >= 2) {
      const Complex zh = a[half_w];
      a[half_w] = Complex(zh.real(), 0.0);
      b[half_w] = Complex(zh.imag(), 0.0);
    }
    for (int u = 1; u < half_w; ++u) {
      const int v = w - u;
      const Complex zu = a[u];
      const Complex zv = a[v];
      a[u] = Complex(0.5 * (zu.real() + zv.real()),
                     0.5 * (zu.imag() - zv.imag()));
      b[u] = Complex(0.5 * (zu.imag() + zv.imag()),
                     0.5 * (zv.real() - zu.real()));
      a[v] = Complex(0.5 * (zv.real() + zu.real()),
                     0.5 * (zv.imag() - zu.imag()));
      b[v] = Complex(0.5 * (zv.imag() + zu.imag()),
                     0.5 * (zu.real() - zv.real()));
    }
  }
  // Column stage: every row above is the spectrum of a real row, so
  // column W-u is the conjugate mirror of column u. Transform only
  // [0, W/2] and reconstruct the rest via
  // F(v, W-u) = conj(F((H-v) mod H, u)).
  transform_cols_range(out, 0, half_w + 1, false);
  for (int u = 1; u < half_w; ++u) {
    const int uc = w - u;
    out[uc] = std::conj(out[u]);
    for (int v = 1; v < height_; ++v)
      out[static_cast<std::size_t>(v) * w + uc] = std::conj(
          out[static_cast<std::size_t>(height_ - v) * w + u]);
  }
}

void Fft2DPlan::gather_band(const Complex* grid, Complex* box,
                            int band) const {
  const BandAxis rows(height_, band);
  const BandAxis cols(width_, band);
  for (int r = 0; r < rows.size; ++r) {
    const Complex* row =
        grid + static_cast<std::size_t>(rows.bin(r)) * width_;
    Complex* out = box + static_cast<std::size_t>(r) * cols.size;
    for (int j = 0; j < cols.size; ++j) out[j] = row[cols.bin(j)];
  }
}

void Fft2DPlan::forward_band(Complex* data, Complex* box, int band) const {
  transform_rows(data, false);
  // Column stage on the in-band columns only, gathered in blocks; each
  // column's in-band rows land in the box.
  const BandAxis rows(height_, band);
  const BandAxis cols(width_, band);
  runtime::PooledVector<Complex> scratch =
      runtime::Workspace::this_thread().vec_c128_uninit(
          static_cast<std::size_t>(height_) * kColBlock);
  Complex* buf = scratch.data();
  for (int j0 = 0; j0 < cols.size; j0 += kColBlock) {
    const int block = std::min(kColBlock, cols.size - j0);
    for (int y = 0; y < height_; ++y) {
      const Complex* row = data + static_cast<std::size_t>(y) * width_;
      for (int b = 0; b < block; ++b)
        buf[static_cast<std::size_t>(b) * height_ + y] =
            row[cols.bin(j0 + b)];
    }
    for (int b = 0; b < block; ++b)
      col_plan_.forward(buf + static_cast<std::size_t>(b) * height_);
    for (int r = 0; r < rows.size; ++r) {
      Complex* out = box + static_cast<std::size_t>(r) * cols.size + j0;
      for (int b = 0; b < block; ++b)
        out[b] = buf[static_cast<std::size_t>(b) * height_ + rows.bin(r)];
    }
  }
}

void Fft2DPlan::forward_real_band(const double* src, Complex* box,
                                  int band) const {
  runtime::Workspace& ws = runtime::Workspace::this_thread();
  const std::size_t h = static_cast<std::size_t>(height_);
  const int w = width_;
  if (height_ < 2) {
    // Degenerate single-row grid: no pairing possible (as forward_real).
    runtime::PooledVector<Complex> grid =
        ws.vec_c128_uninit(h * static_cast<std::size_t>(w));
    for (std::size_t i = 0; i < grid.size(); ++i)
      grid.data()[i] = Complex(src[i], 0.0);
    forward_band(grid.data(), box, band);
    return;
  }
  const BandAxis rows(height_, band);
  const BandAxis cols(width_, band);
  // Columns [0, last] are transformed, exactly as forward_real transforms
  // [0, W/2]; the box's remaining columns come from the Hermitian mirror.
  const int half_w = w / 2;
  const int last = cols.size == w ? half_w : band;
  runtime::PooledVector<Complex> row = ws.vec_c128_uninit(
      static_cast<std::size_t>(w));
  runtime::PooledVector<Complex> half =
      ws.vec_c128_uninit(h * static_cast<std::size_t>(last + 1));
  Complex* z = row.data();
  Complex* col = half.data();  // column-major: column u at col + u*h
  // Row stage: the row pair (y, y+1) packed as re + i*im, one FFT, then
  // split with forward_real's arithmetic — but only for columns [0, last].
  for (int y = 0; y < height_; y += 2) {
    const double* r0 = src + static_cast<std::size_t>(y) * w;
    const double* r1 = r0 + w;
    for (int x = 0; x < w; ++x) z[x] = Complex(r0[x], r1[x]);
    row_plan_.forward(z);
    for (int u = 0; u <= last; ++u) {
      Complex* a = col + static_cast<std::size_t>(u) * h + y;
      const Complex zu = z[u];
      if (u == 0 || u == half_w) {  // self-conjugate bins
        a[0] = Complex(zu.real(), 0.0);
        a[1] = Complex(zu.imag(), 0.0);
      } else {
        const Complex zv = z[w - u];
        a[0] = Complex(0.5 * (zu.real() + zv.real()),
                       0.5 * (zu.imag() - zv.imag()));
        a[1] = Complex(0.5 * (zu.imag() + zv.imag()),
                       0.5 * (zv.real() - zu.real()));
      }
    }
  }
  for (int u = 0; u <= last; ++u)
    col_plan_.forward(col + static_cast<std::size_t>(u) * h);
  // Box assembly; column W-u mirrors column u:
  // F(v, W-u) = conj(F((H-v) mod H, u)).
  for (int r = 0; r < rows.size; ++r) {
    const int y = rows.bin(r);
    const std::size_t y_mirror = static_cast<std::size_t>((height_ - y) %
                                                          height_);
    Complex* out = box + static_cast<std::size_t>(r) * cols.size;
    for (int j = 0; j < cols.size; ++j) {
      const int x = cols.bin(j);
      out[j] = x <= last
                   ? col[static_cast<std::size_t>(x) * h +
                         static_cast<std::size_t>(y)]
                   : std::conj(col[static_cast<std::size_t>(w - x) * h +
                                   y_mirror]);
    }
  }
}

void Fft2DPlan::inverse_band(const Complex* box, Complex* out,
                             int band) const {
  runtime::Workspace& ws = runtime::Workspace::this_thread();
  const BandAxis rows(height_, band);
  runtime::PooledVector<Complex> band_rows = ws.vec_c128_uninit(
      static_cast<std::size_t>(rows.size) * static_cast<std::size_t>(width_));
  inverse_band_rows(box, band_rows.data(), band);
  runtime::PooledVector<Complex> scratch =
      ws.vec_c128_uninit(static_cast<std::size_t>(height_) * kColBlock);
  Complex* buf = scratch.data();
  for (int x0 = 0; x0 < width_; x0 += kColBlock) {
    const int block = std::min(kColBlock, width_ - x0);
    inverse_band_cols(band_rows.data(), x0, x0 + block, buf, band);
    for (int y = 0; y < height_; ++y) {
      Complex* row = out + static_cast<std::size_t>(y) * width_ + x0;
      for (int b = 0; b < block; ++b)
        row[b] = buf[static_cast<std::size_t>(b) * height_ + y];
    }
  }
}

void Fft2DPlan::inverse_band_rows(const Complex* box, Complex* rows,
                                  int band) const {
  const BandAxis ry(height_, band);
  const BandAxis cx(width_, band);
  const Complex zero(0.0, 0.0);
  for (int r = 0; r < ry.size; ++r) {
    const Complex* in = box + static_cast<std::size_t>(r) * cx.size;
    Complex* row = rows + static_cast<std::size_t>(r) * width_;
    // In-band bins at their positions, zeros between them.
    std::copy(in, in + cx.low, row);
    std::fill(row + cx.low, row + cx.low + cx.shift, zero);
    std::copy(in + cx.low, in + cx.size, row + cx.low + cx.shift);
    row_plan_.inverse(row);
  }
}

void Fft2DPlan::inverse_band_cols(const Complex* rows, int x_begin,
                                  int x_end, Complex* cols,
                                  int band) const {
  const BandAxis ry(height_, band);
  const Complex zero(0.0, 0.0);
  for (int x = x_begin; x < x_end; ++x) {
    Complex* col = cols + static_cast<std::size_t>(x - x_begin) * height_;
    // Rows outside the band never held anything but zeros.
    for (int r = 0; r < ry.size; ++r)
      col[ry.bin(r)] = rows[static_cast<std::size_t>(r) * width_ + x];
    std::fill(col + ry.low, col + ry.low + ry.shift, zero);
    col_plan_.inverse(col);
  }
}

const Fft2DPlan& plan_for(int height, int width) {
  static std::mutex mu;
  static std::map<std::pair<int, int>, std::unique_ptr<Fft2DPlan>>* cache =
      new std::map<std::pair<int, int>, std::unique_ptr<Fft2DPlan>>();
  std::lock_guard<std::mutex> lock(mu);
  std::unique_ptr<Fft2DPlan>& slot = (*cache)[{height, width}];
  if (!slot) slot = std::make_unique<Fft2DPlan>(height, width);
  return *slot;
}

GridC to_complex(const GridF& real) {
  GridC out;
  to_complex(real, out);
  return out;
}

void to_complex(const GridF& real, GridC& out) {
  out.resize(real.height(), real.width());
  for (std::size_t i = 0; i < real.size(); ++i) out[i] = Complex(real[i], 0.0);
}

GridF real_part(const GridC& grid) {
  GridF out;
  real_part(grid, out);
  return out;
}

void real_part(const GridC& grid, GridF& out) {
  out.resize(grid.height(), grid.width());
  for (std::size_t i = 0; i < grid.size(); ++i) out[i] = grid[i].real();
}

void multiply_inplace(GridC& a, const GridC& b) {
  require(a.same_shape(b), "multiply_inplace: shape mismatch");
  kernels::table().cmul_f64(a.data(), b.data(), a.size());
}

void multiply_conj_inplace(GridC& a, const GridC& b) {
  require(a.same_shape(b), "multiply_conj_inplace: shape mismatch");
  for (std::size_t i = 0; i < a.size(); ++i) a[i] *= std::conj(b[i]);
}

}  // namespace ldmo::fft
