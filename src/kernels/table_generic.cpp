// Generic (portable scalar) kernel backend.
//
// These loops ARE the pre-SIMD hot loops, moved verbatim so that
// `--backend generic` reproduces the original scalar results bit-for-bit
// on any host. They double as the reference implementations the SIMD
// backends are tested against, and as scalar tails inside the SIMD TUs.
#include <algorithm>
#include <cmath>

#include "kernels/generic_ops.h"
#include "kernels/kernels.h"

namespace ldmo::kernels::generic {

namespace {
constexpr int kBlock = 64;  // fits three GEMM blocks in L1/L2 comfortably
}

void gemm_rows_f32(const float* a, const float* b, float* c, int i_begin,
                   int i_end, int k, int n) {
  for (int i0 = i_begin; i0 < i_end; i0 += kBlock) {
    const int i1 = std::min(i0 + kBlock, i_end);
    for (int p0 = 0; p0 < k; p0 += kBlock) {
      const int p1 = std::min(p0 + kBlock, k);
      for (int j0 = 0; j0 < n; j0 += kBlock) {
        const int j1 = std::min(j0 + kBlock, n);
        for (int i = i0; i < i1; ++i) {
          float* crow = c + static_cast<std::size_t>(i) * n;
          for (int p = p0; p < p1; ++p) {
            const float av = a[static_cast<std::size_t>(i) * k + p];
            const float* brow = b + static_cast<std::size_t>(p) * n;
            for (int j = j0; j < j1; ++j) crow[j] += av * brow[j];
          }
        }
      }
    }
  }
}

void axpy_f32(float alpha, const float* x, float* y, int n) {
  for (int i = 0; i < n; ++i) y[i] += alpha * x[i];
}

float dot_f32(const float* x, const float* y, int n) {
  float acc = 0.0f;
  for (int i = 0; i < n; ++i) acc += x[i] * y[i];
  return acc;
}

void sigmoid_affine_f64(const double* x, double* out, std::size_t n,
                        double scale, double shift) {
  for (std::size_t i = 0; i < n; ++i) {
    const double z = scale * (x[i] - shift);
    if (z >= 0.0) {
      out[i] = 1.0 / (1.0 + std::exp(-z));
    } else {
      const double e = std::exp(z);
      out[i] = e / (1.0 + e);
    }
  }
}

void cis_f64(const double* phase, Complex* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    out[i] = Complex(std::cos(phase[i]), std::sin(phase[i]));
}

void resist_deriv_f64(const double* t, double* out, std::size_t n,
                      double theta) {
  for (std::size_t i = 0; i < n; ++i) out[i] = theta * t[i] * (1.0 - t[i]);
}

void add_clamp1_f64(const double* a, const double* b, double* out,
                    std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = std::min(a[i] + b[i], 1.0);
}

void add_f64(const double* a, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] += a[i];
}

void clamp_max_f64(double* a, std::size_t n, double hi) {
  for (std::size_t i = 0; i < n; ++i) a[i] = std::min(a[i], hi);
}

void gate_lt1_f64(const double* a, const double* b, double* out,
                  std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    out[i] = (a[i] + b[i] < 1.0) ? 1.0 : 0.0;
}

double loss_grad_f64(const double* t, const double* target,
                     const double* weights, double* dldt, std::size_t n) {
  double loss = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double w = weights ? weights[i] : 1.0;
    const double d = t[i] - target[i];
    loss += w * d * d;
    dldt[i] = 2.0 * w * d;
  }
  return loss;
}

double max_abs_f64(const double* x, std::size_t n) {
  double m = 0.0;
  for (std::size_t i = 0; i < n; ++i) m = std::max(m, std::abs(x[i]));
  return m;
}

void descend_f64(double* p, const double* g, double scale, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) p[i] -= scale * g[i];
}

void sigmoid_chain_f64(double* g, const double* m, double theta,
                       std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) g[i] *= theta * m[i] * (1.0 - m[i]);
}

double sq_diff_sum_f64(const double* a, const double* b, std::size_t n) {
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

void cmul_f64(Complex* a, const Complex* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double ar = a[i].real(), ai = a[i].imag();
    const double br = b[i].real(), bi = b[i].imag();
    a[i] = Complex(ar * br - ai * bi, ar * bi + ai * br);
  }
}

void cmul_to_f64(const Complex* a, const Complex* b, Complex* out,
                 std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double ar = a[i].real(), ai = a[i].imag();
    const double br = b[i].real(), bi = b[i].imag();
    out[i] = Complex(ar * br - ai * bi, ar * bi + ai * br);
  }
}

void cmul_conj_accum_f64(Complex* acc, const Complex* a, const Complex* b,
                         double w, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double ar = w * a[i].real(), ai = w * a[i].imag();
    const double br = b[i].real(), bi = -b[i].imag();
    acc[i] += Complex(ar * br - ai * bi, ar * bi + ai * br);
  }
}

void norm_weighted_accum_f64(double* out, const Complex* a, double w,
                             std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double re = a[i].real(), im = a[i].imag();
    out[i] += w * (re * re + im * im);
  }
}

void real_mul_f64(const double* r, const Complex* a, Complex* out,
                  std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    out[i] = Complex(r[i] * a[i].real(), r[i] * a[i].imag());
}

void scaled_real_f64(const Complex* a, double s, double* out,
                     std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = s * a[i].real();
}

void scale_complex_f64(Complex* a, double s, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    a[i] = Complex(s * a[i].real(), s * a[i].imag());
}

void fft_pass_f64(Complex* data, const Complex* twiddle, int size, int len) {
  const int half = len >> 1;
  for (int start = 0; start < size; start += len) {
    for (int k = 0; k < half; ++k) {
      const Complex w = twiddle[k];
      Complex& a = data[start + k];
      Complex& b = data[start + k + half];
      const double tr = w.real() * b.real() - w.imag() * b.imag();
      const double ti = w.real() * b.imag() + w.imag() * b.real();
      b = Complex(a.real() - tr, a.imag() - ti);
      a = Complex(a.real() + tr, a.imag() + ti);
    }
  }
}

double bilinear_one(const double* grid, int h, int w, double px,
                    double py) {
  double fx = px - 0.5;
  if (fx < 0.0) fx = 0.0;
  const double fx_max = static_cast<double>(w - 1);
  if (fx > fx_max) fx = fx_max;
  double fy = py - 0.5;
  if (fy < 0.0) fy = 0.0;
  const double fy_max = static_cast<double>(h - 1);
  if (fy > fy_max) fy = fy_max;
  int x0 = static_cast<int>(fx);
  if (x0 > w - 1) x0 = w - 1;
  int y0 = static_cast<int>(fy);
  if (y0 > h - 1) y0 = h - 1;
  const int x1 = x0 + 1 < w ? x0 + 1 : w - 1;
  const int y1 = y0 + 1 < h ? y0 + 1 : h - 1;
  const double tx = fx - x0;
  const double ty = fy - y0;
  const double* row0 = grid + static_cast<std::size_t>(y0) * w;
  const double* row1 = grid + static_cast<std::size_t>(y1) * w;
  const double bottom = row0[x0] * (1 - tx) + row0[x1] * tx;
  const double top = row1[x0] * (1 - tx) + row1[x1] * tx;
  return bottom * (1 - ty) + top * ty;
}

void bilinear_line_f64(const double* grid, int h, int w, double x0,
                       double y0, double dx, double dy, int count,
                       double* out) {
  for (int i = 0; i < count; ++i)
    out[i] = bilinear_one(grid, h, w, x0 + i * dx, y0 + i * dy);
}

}  // namespace ldmo::kernels::generic

namespace ldmo::kernels::detail {

const KernelTable& generic_table() {
  static const KernelTable t = {
      Backend::kGeneric,
      "generic",
      &generic::gemm_rows_f32,
      &generic::axpy_f32,
      &generic::dot_f32,
      &generic::sigmoid_affine_f64,
      &generic::cis_f64,
      &generic::resist_deriv_f64,
      &generic::add_clamp1_f64,
      &generic::add_f64,
      &generic::clamp_max_f64,
      &generic::gate_lt1_f64,
      &generic::loss_grad_f64,
      &generic::max_abs_f64,
      &generic::descend_f64,
      &generic::sigmoid_chain_f64,
      &generic::sq_diff_sum_f64,
      &generic::cmul_f64,
      &generic::cmul_to_f64,
      &generic::cmul_conj_accum_f64,
      &generic::norm_weighted_accum_f64,
      &generic::real_mul_f64,
      &generic::scaled_real_f64,
      &generic::scale_complex_f64,
      &generic::fft_pass_f64,
      &generic::bilinear_line_f64,
  };
  return t;
}

}  // namespace ldmo::kernels::detail
