// Runtime-dispatched SIMD compute kernels (`ldmo_kernels`).
//
// Every hot loop in the system — GEMM tiles, FFT butterfly passes, complex
// spectrum products, sigmoid resist evaluation, ILT gradient algebra, EPE
// line sampling — funnels through one table of function pointers selected
// once at startup from the CPU's capabilities (mirroring the `plan_for`
// FFT-plan-cache pattern: resolve once, then lock-free reads forever).
//
// Backends: a generic scalar baseline (always present, bit-identical to the
// pre-SIMD scalar code) plus AVX2 / AVX-512 / NEON translation units that
// are compiled with per-file -march flags and registered only when both the
// compiler and the running CPU support them, so one binary is safe on any
// host. The AVX2 and AVX-512 tables instantiate one width-generic source
// (simd.h: each op written once against a per-ISA struct); NEON is
// hand-written.
//
// Determinism contract (DESIGN.md §14): results are bit-identical within a
// backend regardless of thread count. Across backends, the ops fall in two
// classes:
//   * exact ops — elementwise arithmetic with no reassociation and no FMA
//     contraction (complex multiplies, FFT passes, GEMM forward tiles,
//     resist derivative/gate/descent, max reductions). These produce
//     bit-identical results on every backend.
//   * approximate ops — lane-parallel sum reductions (dot_f32,
//     loss_grad_f64, sq_diff_sum_f64), the vectorized exp inside
//     sigmoid_affine_f64, and the vectorized sincos inside cis_f64. These
//     differ from generic by O(1 ulp)-level rounding. Each backend's lane
//     order and the tail boundary past which exp/sincos fall back to libm
//     are its own contract: tests pin every op's output bits per backend
//     and generic-vs-SIMD tolerances.
#pragma once

#include <complex>
#include <cstddef>
#include <string>
#include <string_view>

namespace ldmo::kernels {

using Complex = std::complex<double>;

enum class Backend { kGeneric = 0, kAvx2 = 1, kAvx512 = 2, kNeon = 3 };

/// Lowercase stable name: "generic", "avx2", "avx512", "neon".
const char* to_string(Backend backend);

/// Parses a backend name (or "auto"). Returns false on unknown names;
/// "auto" sets `is_auto` and leaves `out` untouched.
bool parse_backend(std::string_view name, Backend& out, bool& is_auto);

/// The dispatch table. One instance per compiled backend; immutable after
/// static initialization and safe to read from any thread.
struct KernelTable {
  Backend backend;
  const char* name;

  // ---- f32 dense algebra (nn: GEMM + im2col conv) ----
  /// Rows [i_begin, i_end) of row-major C[m x n] += A[m x k] * B[k x n],
  /// cache-blocked internally. Accumulation over p runs in serial order per
  /// C element (lanes span j), so results are exact.
  void (*gemm_rows_f32)(const float* a, const float* b, float* c,
                        int i_begin, int i_end, int k, int n);
  /// y[0:n) += alpha * x[0:n). Exact.
  void (*axpy_f32)(float alpha, const float* x, float* y, int n);
  /// sum_i x[i] * y[i]. Lane-parallel accumulation: approximate class.
  float (*dot_f32)(const float* x, const float* y, int n);

  // ---- f64 elementwise (litho resist + ILT gradient algebra) ----
  /// out[i] = 1 / (1 + exp(-scale * (x[i] - shift))). Generic uses libm
  /// exp; SIMD backends use a vectorized polynomial exp: approximate class.
  void (*sigmoid_affine_f64)(const double* x, double* out, std::size_t n,
                             double scale, double shift);
  /// out[i] = cos(phase[i]) + i sin(phase[i]) — the unit phasor e^{i phi}
  /// (pupil defocus phases, any batched trig). Generic uses libm cos/sin;
  /// SIMD backends use a vectorized Cody-Waite pi/2 reduction + Taylor
  /// sincos: approximate class (~1e-13 abs vs libm for |phase| < 1e6).
  void (*cis_f64)(const double* phase, Complex* out, std::size_t n);
  /// out[i] = theta * t[i] * (1 - t[i]). Exact.
  void (*resist_deriv_f64)(const double* t, double* out, std::size_t n,
                           double theta);
  /// out[i] = min(a[i] + b[i], 1). Exact.
  void (*add_clamp1_f64)(const double* a, const double* b, double* out,
                         std::size_t n);
  /// out[i] += a[i]. Exact.
  void (*add_f64)(const double* a, double* out, std::size_t n);
  /// a[i] = min(a[i], hi). Exact.
  void (*clamp_max_f64)(double* a, std::size_t n, double hi);
  /// out[i] = (a[i] + b[i] < 1) ? 1 : 0. Exact.
  void (*gate_lt1_f64)(const double* a, const double* b, double* out,
                       std::size_t n);
  /// dldt[i] = 2 w_i (t[i] - target[i]); returns sum_i w_i (t-target)^2
  /// with w_i = weights ? weights[i] : 1. Gradient exact; returned loss is
  /// a lane-parallel reduction: approximate class.
  double (*loss_grad_f64)(const double* t, const double* target,
                          const double* weights, double* dldt, std::size_t n);
  /// max_i |x[i]|. Exact (max is associative).
  double (*max_abs_f64)(const double* x, std::size_t n);
  /// p[i] -= scale * g[i]. Exact.
  void (*descend_f64)(double* p, const double* g, double scale,
                      std::size_t n);
  /// g[i] *= theta * m[i] * (1 - m[i]) — the mask-sigmoid chain rule.
  /// Exact.
  void (*sigmoid_chain_f64)(double* g, const double* m, double theta,
                            std::size_t n);
  /// sum_i (a[i] - b[i])^2. Lane-parallel reduction: approximate class.
  double (*sq_diff_sum_f64)(const double* a, const double* b, std::size_t n);

  // ---- complex<double> spectrum ops (fft / litho aerial) ----
  /// a[i] *= b[i]. Exact (textbook complex product, no FMA).
  void (*cmul_f64)(Complex* a, const Complex* b, std::size_t n);
  /// out[i] = a[i] * b[i]. Exact.
  void (*cmul_to_f64)(const Complex* a, const Complex* b, Complex* out,
                      std::size_t n);
  /// acc[i] += (w * a[i]) * conj(b[i]). Exact.
  void (*cmul_conj_accum_f64)(Complex* acc, const Complex* a,
                              const Complex* b, double w, std::size_t n);
  /// out[i] += w * |a[i]|^2 (norm = re^2 + im^2). Exact.
  void (*norm_weighted_accum_f64)(double* out, const Complex* a, double w,
                                  std::size_t n);
  /// out[i] = r[i] * a[i] (real field times complex field). Exact.
  void (*real_mul_f64)(const double* r, const Complex* a, Complex* out,
                       std::size_t n);
  /// out[i] = s * a[i].real(). Exact.
  void (*scaled_real_f64)(const Complex* a, double s, double* out,
                          std::size_t n);
  /// a[i] *= s. Exact.
  void (*scale_complex_f64)(Complex* a, double s, std::size_t n);

  // ---- FFT radix-2 butterfly stage ----
  /// One Cooley-Tukey stage of span `len` over `size` bit-reversed points:
  /// for every block start and k in [0, len/2):
  ///   t = twiddle[k] * data[start+k+len/2];
  ///   data[start+k+len/2] = data[start+k] - t; data[start+k] += t.
  /// `twiddle` holds len/2 contiguous entries for this stage. Exact.
  void (*fft_pass_f64)(Complex* data, const Complex* twiddle, int size,
                       int len);

  // ---- metrology ----
  /// out[i] = bilinear(grid, x0 + i*dx, y0 + i*dy) for i in [0, count),
  /// with the pixel-center clamped sampling of litho::sample_bilinear.
  /// Exact (per-sample arithmetic identical across backends).
  void (*bilinear_line_f64)(const double* grid, int h, int w, double x0,
                            double y0, double dx, double dy, int count,
                            double* out);
};

/// The active table. First call resolves the backend: LDMO_BACKEND env var
/// if set (error on unsupported values), otherwise the best backend the
/// CPU supports. Subsequent calls are one atomic acquire-load. Thread-safe.
const KernelTable& table();

/// Active backend (resolves on first use, like table()).
Backend active();

/// True if `backend` was compiled into this binary.
bool compiled(Backend backend);

/// True if `backend` is compiled in AND the running CPU can execute it.
bool supported(Backend backend);

/// Best supported backend for this CPU (what "auto" resolves to).
Backend detect_best();

/// Selects a backend explicitly; throws ldmo::Error with the supported
/// list if it is not usable on this host. Intended for startup/tests —
/// switching mid-run changes kernel rounding classes between iterations.
void select(Backend backend);

/// Parses "generic" / "avx2" / "avx512" / "neon" / "auto" and selects.
/// Throws ldmo::Error on unknown or unsupported names.
void select_by_name(std::string_view name);

/// Space-separated detected CPU SIMD features ("sse2 avx avx2 avx512f ...").
std::string cpu_features();

/// Comma-separated list of backends usable on this host.
std::string supported_names();

/// Parses "--backend NAME" / "--backend=NAME" out of argv (same contract
/// as runtime::apply_threads_flag: applies the selection, compacts argv).
/// Returns the name of the backend in effect afterwards.
const char* apply_backend_flag(int& argc, char** argv);

namespace detail {
/// Per-backend tables (null when not compiled in). Exposed for tests that
/// sweep every compiled backend against the generic reference.
const KernelTable* table_for(Backend backend);
/// Test-only: clears the resolved selection so the next table() call
/// re-runs startup resolution (env var + auto-detection).
void reset_for_tests();
}  // namespace detail

}  // namespace ldmo::kernels
