// AVX-512 kernel backend (512-bit: 8 doubles / 16 floats / 4 complex<double>).
//
// Compiled with -mavx512f -mavx512dq -ffp-contract=off in its own
// translation unit. Requires AVX512F (core ops) + AVX512DQ (512-bit FP
// logical ops) at runtime. Remainders use AVX-512 write-masks instead of
// scalar tails wherever the op is elementwise-exact, so the whole array
// takes one code path.
//
// Exactness matches the AVX2 backend: everything except the vectorized exp
// and the lane-parallel sum reductions is a bit-identical mul/add/sub
// sequence per element (no FMA — vfmaddsub and friends are never used).
#include "kernels/kernels.h"

#ifdef LDMO_KERNELS_AVX512

#include <immintrin.h>

#include <algorithm>
#include <cstddef>

#include "kernels/generic_ops.h"

namespace ldmo::kernels {
namespace {

using generic::bilinear_one;

inline __mmask8 tail_mask8(std::size_t rem) {
  return static_cast<__mmask8>((1u << rem) - 1u);
}

// ---- vector exp for x <= 0: same reduction/polynomial as the AVX2 TU ----
inline __m512d exp_le0_pd(__m512d x) {
  const __m512d kLog2e = _mm512_set1_pd(1.4426950408889634074);
  const __m512d kLn2Hi = _mm512_set1_pd(6.93147180369123816490e-01);
  const __m512d kLn2Lo = _mm512_set1_pd(1.90821492927058770002e-10);
  __m512d n = _mm512_roundscale_pd(
      _mm512_mul_pd(x, kLog2e),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m512d r = _mm512_sub_pd(x, _mm512_mul_pd(n, kLn2Hi));
  r = _mm512_sub_pd(r, _mm512_mul_pd(n, kLn2Lo));
  __m512d p = _mm512_set1_pd(2.08767569878680989792e-09);  // 1/12!
  p = _mm512_add_pd(_mm512_mul_pd(p, r),
                    _mm512_set1_pd(2.50521083854417187751e-08));
  p = _mm512_add_pd(_mm512_mul_pd(p, r),
                    _mm512_set1_pd(2.75573192239858906526e-07));
  p = _mm512_add_pd(_mm512_mul_pd(p, r),
                    _mm512_set1_pd(2.75573192239858925110e-06));
  p = _mm512_add_pd(_mm512_mul_pd(p, r),
                    _mm512_set1_pd(2.48015873015873015873e-05));
  p = _mm512_add_pd(_mm512_mul_pd(p, r),
                    _mm512_set1_pd(1.98412698412698412698e-04));
  p = _mm512_add_pd(_mm512_mul_pd(p, r),
                    _mm512_set1_pd(1.38888888888888888889e-03));
  p = _mm512_add_pd(_mm512_mul_pd(p, r),
                    _mm512_set1_pd(8.33333333333333333333e-03));
  p = _mm512_add_pd(_mm512_mul_pd(p, r),
                    _mm512_set1_pd(4.16666666666666666667e-02));
  p = _mm512_add_pd(_mm512_mul_pd(p, r),
                    _mm512_set1_pd(1.66666666666666666667e-01));
  p = _mm512_add_pd(_mm512_mul_pd(p, r), _mm512_set1_pd(0.5));
  p = _mm512_add_pd(_mm512_mul_pd(p, r), _mm512_set1_pd(1.0));
  p = _mm512_add_pd(_mm512_mul_pd(p, r), _mm512_set1_pd(1.0));
  const __m256i n32 = _mm512_cvtpd_epi32(n);
  const __m512i n64 = _mm512_cvtepi32_epi64(n32);
  const __m512i bits =
      _mm512_slli_epi64(_mm512_add_epi64(n64, _mm512_set1_epi64(1023)), 52);
  const __m512d result = _mm512_mul_pd(p, _mm512_castsi512_pd(bits));
  const __mmask8 ok =
      _mm512_cmp_pd_mask(x, _mm512_set1_pd(-708.0), _CMP_GT_OQ);
  return _mm512_maskz_mov_pd(ok, result);
}

// ---- vector sincos: same reduction/polynomials as the AVX2 TU ----
inline void sincos_pd(__m512d x, __m512d* s_out, __m512d* c_out) {
  const __m512d kTwoOverPi = _mm512_set1_pd(6.36619772367581382433e-01);
  const __m512d kPio2Hi = _mm512_set1_pd(1.57079632673412561417e+00);
  const __m512d kPio2Mid = _mm512_set1_pd(6.07710050630396597660e-11);
  const __m512d kPio2Lo = _mm512_set1_pd(2.02226624871116645580e-21);
  const __m512d n = _mm512_roundscale_pd(
      _mm512_mul_pd(x, kTwoOverPi),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m512d r = _mm512_sub_pd(x, _mm512_mul_pd(n, kPio2Hi));
  r = _mm512_sub_pd(r, _mm512_mul_pd(n, kPio2Mid));
  r = _mm512_sub_pd(r, _mm512_mul_pd(n, kPio2Lo));
  const __m512d r2 = _mm512_mul_pd(r, r);
  __m512d ps = _mm512_set1_pd(-7.64716373181981647590e-13);       // -1/15!
  ps = _mm512_add_pd(_mm512_mul_pd(ps, r2),
                     _mm512_set1_pd(1.60590438368216145994e-10));  // 1/13!
  ps = _mm512_add_pd(_mm512_mul_pd(ps, r2),
                     _mm512_set1_pd(-2.50521083854417187751e-08));  // -1/11!
  ps = _mm512_add_pd(_mm512_mul_pd(ps, r2),
                     _mm512_set1_pd(2.75573192239858906526e-06));  // 1/9!
  ps = _mm512_add_pd(_mm512_mul_pd(ps, r2),
                     _mm512_set1_pd(-1.98412698412698412698e-04));  // -1/7!
  ps = _mm512_add_pd(_mm512_mul_pd(ps, r2),
                     _mm512_set1_pd(8.33333333333333333333e-03));  // 1/5!
  ps = _mm512_add_pd(_mm512_mul_pd(ps, r2),
                     _mm512_set1_pd(-1.66666666666666666667e-01));  // -1/3!
  const __m512d sin_r =
      _mm512_add_pd(r, _mm512_mul_pd(_mm512_mul_pd(r2, r), ps));
  __m512d pc = _mm512_set1_pd(-1.14707455977297247139e-11);       // -1/14!
  pc = _mm512_add_pd(_mm512_mul_pd(pc, r2),
                     _mm512_set1_pd(2.08767569878680989792e-09));  // 1/12!
  pc = _mm512_add_pd(_mm512_mul_pd(pc, r2),
                     _mm512_set1_pd(-2.75573192239858906526e-07));  // -1/10!
  pc = _mm512_add_pd(_mm512_mul_pd(pc, r2),
                     _mm512_set1_pd(2.48015873015873015873e-05));  // 1/8!
  pc = _mm512_add_pd(_mm512_mul_pd(pc, r2),
                     _mm512_set1_pd(-1.38888888888888888889e-03));  // -1/6!
  pc = _mm512_add_pd(_mm512_mul_pd(pc, r2),
                     _mm512_set1_pd(4.16666666666666666667e-02));  // 1/4!
  const __m512d cos_r = _mm512_add_pd(
      _mm512_sub_pd(_mm512_set1_pd(1.0),
                    _mm512_mul_pd(r2, _mm512_set1_pd(0.5))),
      _mm512_mul_pd(_mm512_mul_pd(r2, r2), pc));
  // Quadrant fixup from q = n mod 4:
  //   sin(x) = [ s,  c, -s, -c][q]    cos(x) = [ c, -s, -c,  s][q]
  const __m512i q = _mm512_cvtepi32_epi64(_mm512_cvtpd_epi32(n));
  const __m512i one = _mm512_set1_epi64(1);
  const __m512i two = _mm512_set1_epi64(2);
  const __mmask8 swap = _mm512_test_epi64_mask(q, one);
  const __m512d sin_sign = _mm512_castsi512_pd(
      _mm512_slli_epi64(_mm512_and_epi64(q, two), 62));
  const __m512d cos_sign = _mm512_castsi512_pd(_mm512_slli_epi64(
      _mm512_and_epi64(_mm512_add_epi64(q, one), two), 62));
  *s_out =
      _mm512_xor_pd(_mm512_mask_blend_pd(swap, sin_r, cos_r), sin_sign);
  *c_out =
      _mm512_xor_pd(_mm512_mask_blend_pd(swap, cos_r, sin_r), cos_sign);
}

// Packed complex product: lanes hold [re0, im0, re1, im1, ...].
// AVX-512 has no vaddsubpd; the masked subtract on even (real) lanes is
// the same add/sub per lane, just differently encoded.
inline __m512d cmul_pd(__m512d a, __m512d b) {
  const __m512d ar = _mm512_movedup_pd(a);
  const __m512d ai = _mm512_permute_pd(a, 0xFF);
  const __m512d bs = _mm512_permute_pd(b, 0x55);
  const __m512d t1 = _mm512_mul_pd(ar, b);
  const __m512d t2 = _mm512_mul_pd(ai, bs);
  return _mm512_mask_sub_pd(_mm512_add_pd(t1, t2), 0x55, t1, t2);
}

constexpr int kBlock = 64;  // same cache blocking as the generic backend

// One 16-lane column tile (lanes past `m` masked off) of `Rows`
// consecutive C rows over the p-block. Each row keeps its own accumulator,
// so the rows' add chains overlap; per element the adds still run
// p-ascending, as in the generic loop.
template <int Rows>
inline void gemm_tile16(const float* a, const float* b, float* c, int i,
                        int j, __mmask16 m, int p0, int p1, int k, int n) {
  // Fully unrolled over the rows so the accumulators stay in registers.
  __m512 acc[Rows];
#pragma GCC unroll 8
  for (int r = 0; r < Rows; ++r)
    acc[r] = _mm512_maskz_loadu_ps(
        m, c + static_cast<std::size_t>(i + r) * n + j);
  for (int p = p0; p < p1; ++p) {
    const __m512 bv =
        _mm512_maskz_loadu_ps(m, b + static_cast<std::size_t>(p) * n + j);
#pragma GCC unroll 8
    for (int r = 0; r < Rows; ++r)
      acc[r] = _mm512_add_ps(
          acc[r],
          _mm512_mul_ps(
              _mm512_set1_ps(a[static_cast<std::size_t>(i + r) * k + p]),
              bv));
  }
#pragma GCC unroll 8
  for (int r = 0; r < Rows; ++r)
    _mm512_mask_storeu_ps(c + static_cast<std::size_t>(i + r) * n + j, m,
                          acc[r]);
}

void gemm_rows_f32(const float* a, const float* b, float* c, int i_begin,
                   int i_end, int k, int n) {
  for (int i0 = i_begin; i0 < i_end; i0 += kBlock) {
    const int i1 = std::min(i0 + kBlock, i_end);
    for (int p0 = 0; p0 < k; p0 += kBlock) {
      const int p1 = std::min(p0 + kBlock, k);
      for (int j0 = 0; j0 < n; j0 += kBlock) {
        const int j1 = std::min(j0 + kBlock, n);
        const int j_wide = j0 + (j1 - j0) / 64 * 64;
        for (int i = i0; i < i1; ++i) {
          const float* arow = a + static_cast<std::size_t>(i) * k;
          float* crow = c + static_cast<std::size_t>(i) * n;
          // 64-wide register tile covers a whole kBlock row in 4 zmm;
          // accumulation over p stays serial per element (bit-identical
          // to the generic p-ascending order).
          for (int j = j0; j < j_wide; j += 64) {
            __m512 acc0 = _mm512_loadu_ps(crow + j);
            __m512 acc1 = _mm512_loadu_ps(crow + j + 16);
            __m512 acc2 = _mm512_loadu_ps(crow + j + 32);
            __m512 acc3 = _mm512_loadu_ps(crow + j + 48);
            for (int p = p0; p < p1; ++p) {
              const __m512 av = _mm512_set1_ps(arow[p]);
              const float* brow = b + static_cast<std::size_t>(p) * n + j;
              acc0 = _mm512_add_ps(acc0,
                                   _mm512_mul_ps(av, _mm512_loadu_ps(brow)));
              acc1 = _mm512_add_ps(
                  acc1, _mm512_mul_ps(av, _mm512_loadu_ps(brow + 16)));
              acc2 = _mm512_add_ps(
                  acc2, _mm512_mul_ps(av, _mm512_loadu_ps(brow + 32)));
              acc3 = _mm512_add_ps(
                  acc3, _mm512_mul_ps(av, _mm512_loadu_ps(brow + 48)));
            }
            _mm512_storeu_ps(crow + j, acc0);
            _mm512_storeu_ps(crow + j + 16, acc1);
            _mm512_storeu_ps(crow + j + 32, acc2);
            _mm512_storeu_ps(crow + j + 48, acc3);
          }
        }
        // Narrower columns (the small spatial maps of deep conv layers)
        // give one accumulator per row, so rows go eight at a time.
        for (int j = j_wide; j < j1; j += 16) {
          const int width = std::min(16, j1 - j);
          const __mmask16 m =
              static_cast<__mmask16>((1u << width) - 1u);
          int i = i0;
          for (; i + 8 <= i1; i += 8)
            gemm_tile16<8>(a, b, c, i, j, m, p0, p1, k, n);
          for (; i < i1; ++i) gemm_tile16<1>(a, b, c, i, j, m, p0, p1, k, n);
        }
      }
    }
  }
}

void axpy_f32(float alpha, const float* x, float* y, int n) {
  const __m512 va = _mm512_set1_ps(alpha);
  int i = 0;
  for (; i + 16 <= n; i += 16)
    _mm512_storeu_ps(
        y + i, _mm512_add_ps(_mm512_loadu_ps(y + i),
                             _mm512_mul_ps(va, _mm512_loadu_ps(x + i))));
  if (i < n) {
    const __mmask16 m = static_cast<__mmask16>((1u << (n - i)) - 1u);
    _mm512_mask_storeu_ps(
        y + i, m,
        _mm512_add_ps(_mm512_maskz_loadu_ps(m, y + i),
                      _mm512_mul_ps(va, _mm512_maskz_loadu_ps(m, x + i))));
  }
}

float dot_f32(const float* x, const float* y, int n) {
  __m512 acc = _mm512_setzero_ps();
  int i = 0;
  for (; i + 16 <= n; i += 16)
    acc = _mm512_add_ps(
        acc, _mm512_mul_ps(_mm512_loadu_ps(x + i), _mm512_loadu_ps(y + i)));
  if (i < n) {
    const __mmask16 m = static_cast<__mmask16>((1u << (n - i)) - 1u);
    acc = _mm512_add_ps(acc,
                        _mm512_mul_ps(_mm512_maskz_loadu_ps(m, x + i),
                                      _mm512_maskz_loadu_ps(m, y + i)));
  }
  alignas(64) float lanes[16];
  _mm512_store_ps(lanes, acc);
  // Below 16 elements the lanes past n hold +0. The running sum starts at
  // +0 and so is never -0, and adding +0 to anything else changes nothing:
  // those adds can be skipped without changing a bit.
  const int used = n < 16 ? n : 16;
  float sum = 0.0f;
  for (int l = 0; l < used; ++l) sum += lanes[l];
  return sum;
}

void sigmoid_affine_f64(const double* x, double* out, std::size_t n,
                        double scale, double shift) {
  const __m512d vscale = _mm512_set1_pd(scale);
  const __m512d vshift = _mm512_set1_pd(shift);
  const __m512d kOne = _mm512_set1_pd(1.0);
  const __m512d kSign = _mm512_set1_pd(-0.0);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d z = _mm512_mul_pd(
        vscale, _mm512_sub_pd(_mm512_loadu_pd(x + i), vshift));
    const __m512d e = exp_le0_pd(_mm512_or_pd(z, kSign));  // exp(-|z|)
    const __m512d denom = _mm512_add_pd(kOne, e);
    const __m512d pos = _mm512_div_pd(kOne, denom);
    const __m512d neg = _mm512_div_pd(e, denom);
    const __mmask8 take_pos =
        _mm512_cmp_pd_mask(z, _mm512_setzero_pd(), _CMP_GE_OQ);
    _mm512_storeu_pd(out + i, _mm512_mask_blend_pd(take_pos, neg, pos));
  }
  if (i < n) generic::sigmoid_affine_f64(x + i, out + i, n - i, scale, shift);
}

void cis_f64(const double* phase, Complex* out, std::size_t n) {
  const __m512i idx_lo = _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11);
  const __m512i idx_hi = _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15);
  double* op = reinterpret_cast<double*>(out);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8, op += 16) {
    __m512d s, c;
    sincos_pd(_mm512_loadu_pd(phase + i), &s, &c);
    _mm512_storeu_pd(op, _mm512_permutex2var_pd(c, idx_lo, s));
    _mm512_storeu_pd(op + 8, _mm512_permutex2var_pd(c, idx_hi, s));
  }
  if (i < n) generic::cis_f64(phase + i, out + i, n - i);
}

void resist_deriv_f64(const double* t, double* out, std::size_t n,
                      double theta) {
  const __m512d vt = _mm512_set1_pd(theta);
  const __m512d kOne = _mm512_set1_pd(1.0);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d v = _mm512_loadu_pd(t + i);
    _mm512_storeu_pd(out + i, _mm512_mul_pd(_mm512_mul_pd(vt, v),
                                            _mm512_sub_pd(kOne, v)));
  }
  if (i < n) {
    const __mmask8 m = tail_mask8(n - i);
    const __m512d v = _mm512_maskz_loadu_pd(m, t + i);
    _mm512_mask_storeu_pd(
        out + i, m,
        _mm512_mul_pd(_mm512_mul_pd(vt, v), _mm512_sub_pd(kOne, v)));
  }
}

void add_clamp1_f64(const double* a, const double* b, double* out,
                    std::size_t n) {
  const __m512d kOne = _mm512_set1_pd(1.0);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm512_storeu_pd(out + i,
                     _mm512_min_pd(_mm512_add_pd(_mm512_loadu_pd(a + i),
                                                 _mm512_loadu_pd(b + i)),
                                   kOne));
  if (i < n) {
    const __mmask8 m = tail_mask8(n - i);
    _mm512_mask_storeu_pd(
        out + i, m,
        _mm512_min_pd(_mm512_add_pd(_mm512_maskz_loadu_pd(m, a + i),
                                    _mm512_maskz_loadu_pd(m, b + i)),
                      kOne));
  }
}

void add_f64(const double* a, double* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm512_storeu_pd(out + i, _mm512_add_pd(_mm512_loadu_pd(out + i),
                                            _mm512_loadu_pd(a + i)));
  if (i < n) {
    const __mmask8 m = tail_mask8(n - i);
    _mm512_mask_storeu_pd(
        out + i, m,
        _mm512_add_pd(_mm512_maskz_loadu_pd(m, out + i),
                      _mm512_maskz_loadu_pd(m, a + i)));
  }
}

void clamp_max_f64(double* a, std::size_t n, double hi) {
  const __m512d vhi = _mm512_set1_pd(hi);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm512_storeu_pd(a + i, _mm512_min_pd(_mm512_loadu_pd(a + i), vhi));
  if (i < n) {
    const __mmask8 m = tail_mask8(n - i);
    _mm512_mask_storeu_pd(
        a + i, m, _mm512_min_pd(_mm512_maskz_loadu_pd(m, a + i), vhi));
  }
}

void gate_lt1_f64(const double* a, const double* b, double* out,
                  std::size_t n) {
  const __m512d kOne = _mm512_set1_pd(1.0);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d sum =
        _mm512_add_pd(_mm512_loadu_pd(a + i), _mm512_loadu_pd(b + i));
    const __mmask8 lt = _mm512_cmp_pd_mask(sum, kOne, _CMP_LT_OQ);
    _mm512_storeu_pd(out + i, _mm512_maskz_mov_pd(lt, kOne));
  }
  for (; i < n; ++i) out[i] = (a[i] + b[i] < 1.0) ? 1.0 : 0.0;
}

double loss_grad_f64(const double* t, const double* target,
                     const double* weights, double* dldt, std::size_t n) {
  const __m512d kTwo = _mm512_set1_pd(2.0);
  const __m512d kOne = _mm512_set1_pd(1.0);
  __m512d acc = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d d =
        _mm512_sub_pd(_mm512_loadu_pd(t + i), _mm512_loadu_pd(target + i));
    const __m512d w = weights ? _mm512_loadu_pd(weights + i) : kOne;
    const __m512d wd = _mm512_mul_pd(w, d);
    acc = _mm512_add_pd(acc, _mm512_mul_pd(wd, d));
    _mm512_storeu_pd(dldt + i, _mm512_mul_pd(_mm512_mul_pd(kTwo, w), d));
  }
  alignas(64) double lanes[8];
  _mm512_store_pd(lanes, acc);
  double loss = 0.0;
  for (int l = 0; l < 8; ++l) loss += lanes[l];
  for (; i < n; ++i) {
    const double w = weights ? weights[i] : 1.0;
    const double d = t[i] - target[i];
    loss += w * d * d;
    dldt[i] = 2.0 * w * d;
  }
  return loss;
}

double max_abs_f64(const double* x, std::size_t n) {
  __m512d acc = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    acc = _mm512_max_pd(acc, _mm512_abs_pd(_mm512_loadu_pd(x + i)));
  alignas(64) double lanes[8];
  _mm512_store_pd(lanes, acc);
  double m = lanes[0];
  for (int l = 1; l < 8; ++l) m = std::max(m, lanes[l]);
  for (; i < n; ++i) m = std::max(m, std::abs(x[i]));
  return m;
}

void descend_f64(double* p, const double* g, double scale, std::size_t n) {
  const __m512d vs = _mm512_set1_pd(scale);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm512_storeu_pd(
        p + i, _mm512_sub_pd(_mm512_loadu_pd(p + i),
                             _mm512_mul_pd(vs, _mm512_loadu_pd(g + i))));
  if (i < n) {
    const __mmask8 m = tail_mask8(n - i);
    _mm512_mask_storeu_pd(
        p + i, m,
        _mm512_sub_pd(_mm512_maskz_loadu_pd(m, p + i),
                      _mm512_mul_pd(vs, _mm512_maskz_loadu_pd(m, g + i))));
  }
}

void sigmoid_chain_f64(double* g, const double* m, double theta,
                       std::size_t n) {
  const __m512d vt = _mm512_set1_pd(theta);
  const __m512d kOne = _mm512_set1_pd(1.0);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d mv = _mm512_loadu_pd(m + i);
    const __m512d factor = _mm512_mul_pd(_mm512_mul_pd(vt, mv),
                                         _mm512_sub_pd(kOne, mv));
    _mm512_storeu_pd(g + i, _mm512_mul_pd(_mm512_loadu_pd(g + i), factor));
  }
  for (; i < n; ++i) g[i] *= theta * m[i] * (1.0 - m[i]);
}

double sq_diff_sum_f64(const double* a, const double* b, std::size_t n) {
  __m512d acc = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d d =
        _mm512_sub_pd(_mm512_loadu_pd(a + i), _mm512_loadu_pd(b + i));
    acc = _mm512_add_pd(acc, _mm512_mul_pd(d, d));
  }
  alignas(64) double lanes[8];
  _mm512_store_pd(lanes, acc);
  double sum = 0.0;
  for (int l = 0; l < 8; ++l) sum += lanes[l];
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

void cmul_f64(Complex* a, const Complex* b, std::size_t n) {
  double* ap = reinterpret_cast<double*>(a);
  const double* bp = reinterpret_cast<const double*>(b);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4, ap += 8, bp += 8)
    _mm512_storeu_pd(ap,
                     cmul_pd(_mm512_loadu_pd(ap), _mm512_loadu_pd(bp)));
  if (i < n) generic::cmul_f64(a + i, b + i, n - i);
}

void cmul_to_f64(const Complex* a, const Complex* b, Complex* out,
                 std::size_t n) {
  const double* ap = reinterpret_cast<const double*>(a);
  const double* bp = reinterpret_cast<const double*>(b);
  double* op = reinterpret_cast<double*>(out);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4, ap += 8, bp += 8, op += 8)
    _mm512_storeu_pd(op,
                     cmul_pd(_mm512_loadu_pd(ap), _mm512_loadu_pd(bp)));
  if (i < n) generic::cmul_to_f64(a + i, b + i, out + i, n - i);
}

void cmul_conj_accum_f64(Complex* acc, const Complex* a, const Complex* b,
                         double w, std::size_t n) {
  const __m512d vw = _mm512_set1_pd(w);
  const __m512d conj_mask = _mm512_set_pd(-0.0, 0.0, -0.0, 0.0,  //
                                          -0.0, 0.0, -0.0, 0.0);
  double* cp = reinterpret_cast<double*>(acc);
  const double* ap = reinterpret_cast<const double*>(a);
  const double* bp = reinterpret_cast<const double*>(b);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4, cp += 8, ap += 8, bp += 8) {
    const __m512d wa = _mm512_mul_pd(vw, _mm512_loadu_pd(ap));
    const __m512d bc = _mm512_xor_pd(_mm512_loadu_pd(bp), conj_mask);
    _mm512_storeu_pd(cp,
                     _mm512_add_pd(_mm512_loadu_pd(cp), cmul_pd(wa, bc)));
  }
  if (i < n) generic::cmul_conj_accum_f64(acc + i, a + i, b + i, w, n - i);
}

void norm_weighted_accum_f64(double* out, const Complex* a, double w,
                             std::size_t n) {
  const __m512d vw = _mm512_set1_pd(w);
  // Even (re^2 + im^2) lanes of the pair-sum, gathered from two inputs.
  const __m512i even_idx =
      _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
  const double* ap = reinterpret_cast<const double*>(a);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8, ap += 16) {
    const __m512d v0 = _mm512_loadu_pd(ap);
    const __m512d v1 = _mm512_loadu_pd(ap + 8);
    const __m512d sq0 = _mm512_mul_pd(v0, v0);
    const __m512d sq1 = _mm512_mul_pd(v1, v1);
    // Even lanes of sq + swapped-sq hold re^2 + im^2 in that order.
    const __m512d p0 = _mm512_add_pd(sq0, _mm512_permute_pd(sq0, 0x55));
    const __m512d p1 = _mm512_add_pd(sq1, _mm512_permute_pd(sq1, 0x55));
    const __m512d norms = _mm512_permutex2var_pd(p0, even_idx, p1);
    _mm512_storeu_pd(out + i, _mm512_add_pd(_mm512_loadu_pd(out + i),
                                            _mm512_mul_pd(vw, norms)));
  }
  if (i < n) generic::norm_weighted_accum_f64(out + i, a + i, w, n - i);
}

void real_mul_f64(const double* r, const Complex* a, Complex* out,
                  std::size_t n) {
  const __m512i dup_lo = _mm512_setr_epi64(0, 0, 1, 1, 2, 2, 3, 3);
  const __m512i dup_hi = _mm512_setr_epi64(4, 4, 5, 5, 6, 6, 7, 7);
  const double* ap = reinterpret_cast<const double*>(a);
  double* op = reinterpret_cast<double*>(out);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8, ap += 16, op += 16) {
    const __m512d rv = _mm512_loadu_pd(r + i);
    _mm512_storeu_pd(op, _mm512_mul_pd(_mm512_permutexvar_pd(dup_lo, rv),
                                       _mm512_loadu_pd(ap)));
    _mm512_storeu_pd(op + 8,
                     _mm512_mul_pd(_mm512_permutexvar_pd(dup_hi, rv),
                                   _mm512_loadu_pd(ap + 8)));
  }
  if (i < n) generic::real_mul_f64(r + i, a + i, out + i, n - i);
}

void scaled_real_f64(const Complex* a, double s, double* out,
                     std::size_t n) {
  const __m512d vs = _mm512_set1_pd(s);
  const __m512i even_idx =
      _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
  const double* ap = reinterpret_cast<const double*>(a);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8, ap += 16) {
    const __m512d v0 = _mm512_loadu_pd(ap);
    const __m512d v1 = _mm512_loadu_pd(ap + 8);
    const __m512d reals = _mm512_permutex2var_pd(v0, even_idx, v1);
    _mm512_storeu_pd(out + i, _mm512_mul_pd(vs, reals));
  }
  if (i < n) generic::scaled_real_f64(a + i, s, out + i, n - i);
}

void scale_complex_f64(Complex* a, double s, std::size_t n) {
  const __m512d vs = _mm512_set1_pd(s);
  double* ap = reinterpret_cast<double*>(a);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4, ap += 8)
    _mm512_storeu_pd(ap, _mm512_mul_pd(vs, _mm512_loadu_pd(ap)));
  if (i < n) generic::scale_complex_f64(a + i, s, n - i);
}

void fft_pass_f64(Complex* data, const Complex* twiddle, int size, int len) {
  double* dp = reinterpret_cast<double*>(data);
  const int half = len >> 1;
  if (half == 1) {
    for (int s = 0; s < 2 * size; s += 4) {
      const __m128d a = _mm_loadu_pd(dp + s);
      const __m128d b = _mm_loadu_pd(dp + s + 2);
      _mm_storeu_pd(dp + s, _mm_add_pd(a, b));
      _mm_storeu_pd(dp + s + 2, _mm_sub_pd(a, b));
    }
    return;
  }
  const double* tp = reinterpret_cast<const double*>(twiddle);
  if (half == 2) {
    // One 256-bit butterfly pair per block (AVX2 path; -mavx512f implies
    // AVX2 availability at compile time and AVX512 CPUs can execute it).
    const __m256d w = _mm256_loadu_pd(tp);
    const __m256d w_ar = _mm256_movedup_pd(w);
    const __m256d w_ai = _mm256_permute_pd(w, 0xF);
    for (int start = 0; start < size; start += len) {
      double* ap = dp + 2 * start;
      const __m256d va = _mm256_loadu_pd(ap);
      const __m256d vb = _mm256_loadu_pd(ap + 4);
      const __m256d bs = _mm256_permute_pd(vb, 0x5);
      const __m256d t = _mm256_addsub_pd(_mm256_mul_pd(w_ar, vb),
                                         _mm256_mul_pd(w_ai, bs));
      _mm256_storeu_pd(ap + 4, _mm256_sub_pd(va, t));
      _mm256_storeu_pd(ap, _mm256_add_pd(va, t));
    }
    return;
  }
  for (int start = 0; start < size; start += len) {
    double* ap = dp + 2 * start;
    double* bp = ap + 2 * half;
    for (int k = 0; k + 4 <= half; k += 4) {
      const __m512d w = _mm512_loadu_pd(tp + 2 * k);
      const __m512d va = _mm512_loadu_pd(ap + 2 * k);
      const __m512d vb = _mm512_loadu_pd(bp + 2 * k);
      const __m512d t = cmul_pd(w, vb);
      _mm512_storeu_pd(bp + 2 * k, _mm512_sub_pd(va, t));
      _mm512_storeu_pd(ap + 2 * k, _mm512_add_pd(va, t));
    }
    // half >= 4 is a multiple of 4 for radix-2 sizes: no tail.
  }
}

void bilinear_line_f64(const double* grid, int h, int w, double x0,
                       double y0, double dx, double dy, int count,
                       double* out) {
  const __m512d vdx = _mm512_set1_pd(dx);
  const __m512d vdy = _mm512_set1_pd(dy);
  const __m512d vx0 = _mm512_set1_pd(x0);
  const __m512d vy0 = _mm512_set1_pd(y0);
  const __m512d kHalf = _mm512_set1_pd(0.5);
  const __m512d kOne = _mm512_set1_pd(1.0);
  const __m512d kZero = _mm512_setzero_pd();
  const __m512d fxmax = _mm512_set1_pd(static_cast<double>(w - 1));
  const __m512d fymax = _mm512_set1_pd(static_cast<double>(h - 1));
  const __m256i ixmax = _mm256_set1_epi32(w - 1);
  const __m256i iymax = _mm256_set1_epi32(h - 1);
  const __m256i iw = _mm256_set1_epi32(w);
  const __m256i ione = _mm256_set1_epi32(1);
  int i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m512d iv =
        _mm512_set_pd(i + 7, i + 6, i + 5, i + 4, i + 3, i + 2, i + 1, i);
    const __m512d px = _mm512_add_pd(vx0, _mm512_mul_pd(iv, vdx));
    const __m512d py = _mm512_add_pd(vy0, _mm512_mul_pd(iv, vdy));
    const __m512d fx = _mm512_max_pd(
        kZero, _mm512_min_pd(_mm512_sub_pd(px, kHalf), fxmax));
    const __m512d fy = _mm512_max_pd(
        kZero, _mm512_min_pd(_mm512_sub_pd(py, kHalf), fymax));
    const __m256i x0i = _mm256_min_epi32(_mm512_cvttpd_epi32(fx), ixmax);
    const __m256i y0i = _mm256_min_epi32(_mm512_cvttpd_epi32(fy), iymax);
    const __m256i x1i =
        _mm256_min_epi32(_mm256_add_epi32(x0i, ione), ixmax);
    const __m256i y1i =
        _mm256_min_epi32(_mm256_add_epi32(y0i, ione), iymax);
    const __m512d tx = _mm512_sub_pd(fx, _mm512_cvtepi32_pd(x0i));
    const __m512d ty = _mm512_sub_pd(fy, _mm512_cvtepi32_pd(y0i));
    const __m256i row0 = _mm256_mullo_epi32(y0i, iw);
    const __m256i row1 = _mm256_mullo_epi32(y1i, iw);
    const __m512d g00 =
        _mm512_i32gather_pd(_mm256_add_epi32(row0, x0i), grid, 8);
    const __m512d g01 =
        _mm512_i32gather_pd(_mm256_add_epi32(row0, x1i), grid, 8);
    const __m512d g10 =
        _mm512_i32gather_pd(_mm256_add_epi32(row1, x0i), grid, 8);
    const __m512d g11 =
        _mm512_i32gather_pd(_mm256_add_epi32(row1, x1i), grid, 8);
    const __m512d one_tx = _mm512_sub_pd(kOne, tx);
    const __m512d bottom = _mm512_add_pd(_mm512_mul_pd(g00, one_tx),
                                         _mm512_mul_pd(g01, tx));
    const __m512d top = _mm512_add_pd(_mm512_mul_pd(g10, one_tx),
                                      _mm512_mul_pd(g11, tx));
    _mm512_storeu_pd(
        out + i, _mm512_add_pd(_mm512_mul_pd(bottom, _mm512_sub_pd(kOne, ty)),
                               _mm512_mul_pd(top, ty)));
  }
  for (; i < count; ++i)
    out[i] = bilinear_one(grid, h, w, x0 + i * dx, y0 + i * dy);
}

}  // namespace

namespace detail {

const KernelTable& avx512_table() {
  static const KernelTable t = {
      Backend::kAvx512,
      "avx512",
      &gemm_rows_f32,
      &axpy_f32,
      &dot_f32,
      &sigmoid_affine_f64,
      &cis_f64,
      &resist_deriv_f64,
      &add_clamp1_f64,
      &add_f64,
      &clamp_max_f64,
      &gate_lt1_f64,
      &loss_grad_f64,
      &max_abs_f64,
      &descend_f64,
      &sigmoid_chain_f64,
      &sq_diff_sum_f64,
      &cmul_f64,
      &cmul_to_f64,
      &cmul_conj_accum_f64,
      &norm_weighted_accum_f64,
      &real_mul_f64,
      &scaled_real_f64,
      &scale_complex_f64,
      &fft_pass_f64,
      &bilinear_line_f64,
  };
  return t;
}

}  // namespace detail
}  // namespace ldmo::kernels

#endif  // LDMO_KERNELS_AVX512
