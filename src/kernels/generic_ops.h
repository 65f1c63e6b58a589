// Internal: generic (scalar) kernel implementations, shared as tail/
// fallback routines by the SIMD translation units. Not part of the public
// API — include kernels.h and use table() instead.
#pragma once

#include <cstddef>

#include "kernels/kernels.h"

namespace ldmo::kernels::generic {

void gemm_rows_f32(const float* a, const float* b, float* c, int i_begin,
                   int i_end, int k, int n);
void axpy_f32(float alpha, const float* x, float* y, int n);
float dot_f32(const float* x, const float* y, int n);

void sigmoid_affine_f64(const double* x, double* out, std::size_t n,
                        double scale, double shift);
void cis_f64(const double* phase, Complex* out, std::size_t n);
void resist_deriv_f64(const double* t, double* out, std::size_t n,
                      double theta);
void add_clamp1_f64(const double* a, const double* b, double* out,
                    std::size_t n);
void add_f64(const double* a, double* out, std::size_t n);
void clamp_max_f64(double* a, std::size_t n, double hi);
void gate_lt1_f64(const double* a, const double* b, double* out,
                  std::size_t n);
double loss_grad_f64(const double* t, const double* target,
                     const double* weights, double* dldt, std::size_t n);
double max_abs_f64(const double* x, std::size_t n);
void descend_f64(double* p, const double* g, double scale, std::size_t n);
void sigmoid_chain_f64(double* g, const double* m, double theta,
                       std::size_t n);
double sq_diff_sum_f64(const double* a, const double* b, std::size_t n);

void cmul_f64(Complex* a, const Complex* b, std::size_t n);
void cmul_to_f64(const Complex* a, const Complex* b, Complex* out,
                 std::size_t n);
void cmul_conj_accum_f64(Complex* acc, const Complex* a, const Complex* b,
                         double w, std::size_t n);
void norm_weighted_accum_f64(double* out, const Complex* a, double w,
                             std::size_t n);
void real_mul_f64(const double* r, const Complex* a, Complex* out,
                  std::size_t n);
void scaled_real_f64(const Complex* a, double s, double* out, std::size_t n);
void scale_complex_f64(Complex* a, double s, std::size_t n);

void fft_pass_f64(Complex* data, const Complex* twiddle, int size, int len);

void bilinear_line_f64(const double* grid, int h, int w, double x0,
                       double y0, double dx, double dy, int count,
                       double* out);

/// One bilinear sample with the clamped pixel-center convention (shared by
/// every backend's scalar tail so all backends sample identically). Out of
/// line, so it is only ever compiled for the baseline ISA.
double bilinear_one(const double* grid, int h, int w, double px, double py);

}  // namespace ldmo::kernels::generic
