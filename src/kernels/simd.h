// Width-generic SIMD kernels: one source for the AVX2 and AVX-512 tables.
//
// Every op of KernelTable (kernels.h) is written once, as a static member
// of `Simd<S>`, against an ISA struct `S` that supplies only what depends
// on the vector width: full and masked loads and stores, set1, round and
// trunc, min and max, compares with select and keep, the int64 conversion
// and odd-lane test behind the 2^n scale and the sincos quadrant, the
// gather, the complex lane shuffles and the horizontal reductions.
// Arithmetic is GCC's native vector operators, which is exactly what the
// add/sub/mul/div intrinsics expand to.
//
// table_avx2.cpp and table_avx512.cpp instantiate it, each with its own
// -march flags and -ffp-contract=off, so `p * r + c` never becomes an FMA.
// Everything here has internal linkage and calls no std:: template: no
// function compiled for one ISA can be picked by the linker for another
// table or for baseline code, at any optimization level (DESIGN.md §14).
//
// Bits: the exact ops match the generic backend. Each backend keeps two
// contracts of its own, which give the approximate ops per-backend bits:
// the lane order of its reductions (S::sum, S::max_lanes, and whether
// dot_f32 folds its tail into the lanes), and the tail boundary of
// sigmoid_affine_f64 and cis_f64, whose remainder after the last full
// vector runs the generic libm loop.
#pragma once

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "kernels/generic_ops.h"
#include "kernels/kernels.h"

namespace ldmo::kernels {
namespace {

// Scalar min/max with std::min/std::max's semantics (SIMD code calls no
// std:: template: at -O0 each would be a weak symbol built for this ISA).
inline double max_of(double a, double b) { return a < b ? b : a; }
inline int min_of(int a, int b) { return b < a ? b : a; }

#ifdef __AVX2__
struct Avx2 {
  static constexpr Backend kBackend = Backend::kAvx2;
  static constexpr const char* kName = "avx2";
  static constexpr int kD = 4, kF = 8;  // doubles, floats per vector
  // dot_f32 adds its scalar tail after the lanes.
  static constexpr bool kDotFoldsTail = false;
  using D = __m256d;
  using F = __m256;
  using Cmp = __m256d;    // compare result
  using DMask = __m256i;  // tail masks
  using FMask = __m256i;
  typedef std::uint64_t U __attribute__((vector_size(32)));  // bits of a D
  typedef int I32 __attribute__((vector_size(16)));  // an int per D lane

  static D load(const double* p) { return _mm256_loadu_pd(p); }
  static D load(const double* p, DMask m) { return _mm256_maskload_pd(p, m); }
  static void store(double* p, D v) { _mm256_storeu_pd(p, v); }
  static void store(double* p, D v, DMask m) { _mm256_maskstore_pd(p, m, v); }
  static F load(const float* p) { return _mm256_loadu_ps(p); }
  static F load(const float* p, FMask m) { return _mm256_maskload_ps(p, m); }
  static void store(float* p, F v) { _mm256_storeu_ps(p, v); }
  static void store(float* p, F v, FMask m) { _mm256_maskstore_ps(p, m, v); }
  static DMask tail_d(std::size_t rem) {
    return _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(rem)),
                              _mm256_setr_epi64x(0, 1, 2, 3));
  }
  static FMask tail_f(int rem) {
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(rem),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }

  static D set1(double x) { return _mm256_set1_pd(x); }
  static F set1(float x) { return _mm256_set1_ps(x); }
  static I32 set1(int x) { return (I32)_mm_set1_epi32(x); }
  static D round(D v) {
    return _mm256_round_pd(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  }
  static I32 trunc(D v) { return (I32)_mm256_cvttpd_epi32(v); }
  static D to_d(I32 v) { return _mm256_cvtepi32_pd((__m128i)v); }
  static D min(D a, D b) { return _mm256_min_pd(a, b); }
  static D max(D a, D b) { return _mm256_max_pd(a, b); }
  static I32 min(I32 a, I32 b) {
    return (I32)_mm_min_epi32((__m128i)a, (__m128i)b);
  }
  static Cmp lt(D a, D b) { return _mm256_cmp_pd(a, b, _CMP_LT_OQ); }
  static Cmp gt(D a, D b) { return _mm256_cmp_pd(a, b, _CMP_GT_OQ); }
  static Cmp ge(D a, D b) { return _mm256_cmp_pd(a, b, _CMP_GE_OQ); }
  static D select(Cmp m, D t, D f) { return _mm256_blendv_pd(f, t, m); }
  static D keep(Cmp m, D v) { return _mm256_and_pd(v, m); }
  // Integral-valued lanes to int64, through int32 as the 2^n scale needs.
  static U to_u64(D n) {
    return (U)_mm256_cvtepi32_epi64(_mm256_cvtpd_epi32(n));
  }
  static Cmp odd(U q) {
    const __m256i one = _mm256_set1_epi64x(1);
    return _mm256_castsi256_pd(_mm256_cmpeq_epi64((__m256i)q & one, one));
  }
  static D gather(const double* base, I32 idx) {
    return _mm256_i32gather_pd(base, (__m128i)idx, 8);
  }

  // Complex lanes [re0 im0 re1 im1].
  static D dup_re(D a) { return _mm256_movedup_pd(a); }
  static D dup_im(D a) { return _mm256_permute_pd(a, 0xF); }
  static D swap_pairs(D a) { return _mm256_permute_pd(a, 0x5); }
  static D addsub(D a, D b) { return _mm256_addsub_pd(a, b); }
  // [c0 s0 c1 s1], [c2 s2 c3 s3] from [c0..c3], [s0..s3].
  static void interleave(D c, D s, D& lo, D& hi) {
    const D l = _mm256_unpacklo_pd(c, s), h = _mm256_unpackhi_pd(c, s);
    lo = _mm256_permute2f128_pd(l, h, 0x20);
    hi = _mm256_permute2f128_pd(l, h, 0x31);
  }
  // [a0 a2 b0 b2]: the real parts of two complex vectors.
  static D even(D a, D b) {
    return _mm256_permute4x64_pd(_mm256_unpacklo_pd(a, b),
                                 _MM_SHUFFLE(3, 1, 2, 0));
  }
  // [r0 r0 r1 r1], [r2 r2 r3 r3].
  static void dup_pairs(D r, D& lo, D& hi) {
    lo = _mm256_permute4x64_pd(r, _MM_SHUFFLE(1, 1, 0, 0));
    hi = _mm256_permute4x64_pd(r, _MM_SHUFFLE(3, 3, 2, 2));
  }

  // Pairwise lane reductions.
  static double sum(D v) { return (v[0] + v[1]) + (v[2] + v[3]); }
  static float sum(F v) {
    return ((v[0] + v[1]) + (v[2] + v[3])) + ((v[4] + v[5]) + (v[6] + v[7]));
  }
  static double max_lanes(D v) {
    return max_of(max_of(v[0], v[1]), max_of(v[2], v[3]));
  }
};
#endif  // __AVX2__

#ifdef __AVX512F__
struct Avx512 {
  static constexpr Backend kBackend = Backend::kAvx512;
  static constexpr const char* kName = "avx512";
  static constexpr int kD = 8, kF = 16;
  // dot_f32 folds its tail into the lanes under a mask.
  static constexpr bool kDotFoldsTail = true;
  using Half = Avx2;  // for FFT stages narrower than one vector
  using D = __m512d;
  using F = __m512;
  using Cmp = __mmask8;
  using DMask = __mmask8;
  using FMask = __mmask16;
  typedef std::uint64_t U __attribute__((vector_size(64)));
  typedef int I32 __attribute__((vector_size(32)));

  static D load(const double* p) { return _mm512_loadu_pd(p); }
  static D load(const double* p, DMask m) {
    return _mm512_maskz_loadu_pd(m, p);
  }
  static void store(double* p, D v) { _mm512_storeu_pd(p, v); }
  static void store(double* p, D v, DMask m) { _mm512_mask_storeu_pd(p, m, v); }
  static F load(const float* p) { return _mm512_loadu_ps(p); }
  static F load(const float* p, FMask m) { return _mm512_maskz_loadu_ps(m, p); }
  static void store(float* p, F v) { _mm512_storeu_ps(p, v); }
  static void store(float* p, F v, FMask m) { _mm512_mask_storeu_ps(p, m, v); }
  static DMask tail_d(std::size_t rem) {
    return static_cast<DMask>((1u << rem) - 1u);
  }
  static FMask tail_f(int rem) { return static_cast<FMask>((1u << rem) - 1u); }

  static D set1(double x) { return _mm512_set1_pd(x); }
  static F set1(float x) { return _mm512_set1_ps(x); }
  static I32 set1(int x) { return (I32)_mm256_set1_epi32(x); }
  static D round(D v) {
    return _mm512_roundscale_pd(v,
                                _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  }
  static I32 trunc(D v) { return (I32)_mm512_cvttpd_epi32(v); }
  static D to_d(I32 v) { return _mm512_cvtepi32_pd((__m256i)v); }
  static D min(D a, D b) { return _mm512_min_pd(a, b); }
  static D max(D a, D b) { return _mm512_max_pd(a, b); }
  static I32 min(I32 a, I32 b) {
    return (I32)_mm256_min_epi32((__m256i)a, (__m256i)b);
  }
  static Cmp lt(D a, D b) { return _mm512_cmp_pd_mask(a, b, _CMP_LT_OQ); }
  static Cmp gt(D a, D b) { return _mm512_cmp_pd_mask(a, b, _CMP_GT_OQ); }
  static Cmp ge(D a, D b) { return _mm512_cmp_pd_mask(a, b, _CMP_GE_OQ); }
  static D select(Cmp m, D t, D f) { return _mm512_mask_blend_pd(m, f, t); }
  static D keep(Cmp m, D v) { return _mm512_maskz_mov_pd(m, v); }
  static U to_u64(D n) {
    return (U)_mm512_cvtepi32_epi64(_mm512_cvtpd_epi32(n));
  }
  static Cmp odd(U q) {
    return _mm512_test_epi64_mask((__m512i)q, _mm512_set1_epi64(1));
  }
  static D gather(const double* base, I32 idx) {
    return _mm512_i32gather_pd((__m256i)idx, base, 8);
  }

  static D dup_re(D a) { return _mm512_movedup_pd(a); }
  static D dup_im(D a) { return _mm512_permute_pd(a, 0xFF); }
  static D swap_pairs(D a) { return _mm512_permute_pd(a, 0x55); }
  // No vaddsubpd at 512 bits: the same add/sub per lane, under a mask.
  static D addsub(D a, D b) { return _mm512_mask_sub_pd(a + b, 0x55, a, b); }
  static void interleave(D c, D s, D& lo, D& hi) {
    lo = _mm512_permutex2var_pd(
        c, _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11), s);
    hi = _mm512_permutex2var_pd(
        c, _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15), s);
  }
  static D even(D a, D b) {
    return _mm512_permutex2var_pd(
        a, _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14), b);
  }
  static void dup_pairs(D r, D& lo, D& hi) {
    lo = _mm512_permutexvar_pd(_mm512_setr_epi64(0, 0, 1, 1, 2, 2, 3, 3), r);
    hi = _mm512_permutexvar_pd(_mm512_setr_epi64(4, 4, 5, 5, 6, 6, 7, 7), r);
  }

  // Lane reductions in lane order, from +0, over the first `lanes` lanes.
  template <class V>
  static auto sum(V v, int lanes) {
    decltype(v[0] + 0) s = 0;
    for (int l = 0; l < lanes; ++l) s += v[l];
    return s;
  }
  static double sum(D v) { return sum(v, kD); }
  static double max_lanes(D v) {
    double m = v[0];
    for (int l = 1; l < kD; ++l) m = max_of(m, v[l]);
    return m;
  }
};
#endif  // __AVX512F__

// Taylor coefficients (+-1/k!) of the Horner steps, highest power first;
// each polynomial's top coefficient seeds its recurrence.
constexpr double kExpCoeffs[] = {
    2.50521083854417187751e-08, 2.75573192239858906526e-07,  // 1/11!, 1/10!
    2.75573192239858925110e-06, 2.48015873015873015873e-05,  // 1/9!, 1/8!
    1.98412698412698412698e-04, 1.38888888888888888889e-03,  // 1/7!, 1/6!
    8.33333333333333333333e-03, 4.16666666666666666667e-02,  // 1/5!, 1/4!
    1.66666666666666666667e-01, 0.5, 1.0, 1.0};
constexpr double kSinCoeffs[] = {
    1.60590438368216145994e-10, -2.50521083854417187751e-08,  // 1/13!, -1/11!
    2.75573192239858906526e-06, -1.98412698412698412698e-04,  // 1/9!, -1/7!
    8.33333333333333333333e-03, -1.66666666666666666667e-01};  // 1/5!, -1/3!
constexpr double kCosCoeffs[] = {
    2.08767569878680989792e-09, -2.75573192239858906526e-07,  // 1/12!, -1/10!
    2.48015873015873015873e-05, -1.38888888888888888889e-03,  // 1/8!, -1/6!
    4.16666666666666666667e-02};                               // 1/4!

template <class S>
struct Simd {
  using D = typename S::D;
  using F = typename S::F;
  using U = typename S::U;
  using I32 = typename S::I32;
  static constexpr int kD = S::kD;
  static constexpr int kC = S::kD / 2;  // complex<double> per vector
  static constexpr int kF = S::kF;
  static constexpr std::uint64_t kSign = 0x8000000000000000ull;

  static U bits(D v) { return (U)v; }
  static D from_bits(U u) { return (D)u; }

  // f(i) on every full vector of W lanes in [0, n), then f(i, mask) on the
  // remainder, if any.
  template <int W, class N, class Fn>
  static void each(N n, Fn f) {
    N i = 0;
    for (; i + W <= n; i += W) f(i);
    if (i == n) return;
    if constexpr (W == kD)
      f(i, S::tail_d(n - i));
    else
      f(i, S::tail_f(n - i));
  }

  template <int N>
  static D horner(D p, D x, const double (&coeffs)[N]) {
#pragma GCC unroll 16
    for (double c : coeffs) p = p * x + c;
    return p;
  }

  // exp(x) for x <= 0: Cody-Waite reduction by ln 2, degree-12 Taylor.
  // Max observed relative error vs libm exp is ~2 ulp on [-708, 0]; inputs
  // below -708 flush to 0 (the sigmoid saturation regime).
  static D exp_le0(D x) {
    const D n = S::round(x * 1.4426950408889634074);
    D r = x - n * 6.93147180369123816490e-01;
    r = r - n * 1.90821492927058770002e-10;
    const D p = horner(S::set1(2.08767569878680989792e-09), r, kExpCoeffs);
    // Scale by 2^n through the exponent bits (n in [-1074, 0] here; lanes
    // whose n underflows the exponent field are flushed below anyway).
    const D scaled = p * from_bits((S::to_u64(n) + 1023) << 52);
    return S::keep(S::gt(x, S::set1(-708.0)), scaled);
  }

  // sincos: three-part Cody-Waite pi/2 reduction (accurate to ~1e-21 * n,
  // so ~1e-14 absolute vs libm for |x| < 1e6) and Taylor on [-pi/4, pi/4].
  static void sincos(D x, D& s, D& c) {
    const D n = S::round(x * 6.36619772367581382433e-01);
    D r = x - n * 1.57079632673412561417e+00;
    r = r - n * 6.07710050630396597660e-11;
    r = r - n * 2.02226624871116645580e-21;
    const D r2 = r * r;
    // sin(r) = r + r^3 P(r^2) through r^15; cos(r) = 1 - r^2/2 + r^4 Q(r^2)
    // through r^14.
    const D ps = horner(S::set1(-7.64716373181981647590e-13), r2, kSinCoeffs);
    const D pc = horner(S::set1(-1.14707455977297247139e-11), r2, kCosCoeffs);
    const D sin_r = r + (r2 * r) * ps;
    const D cos_r = (1.0 - r2 * 0.5) + (r2 * r2) * pc;
    // Quadrant q = n mod 4 (the low bits of two's complement give the
    // positive residue for negative n too):
    //   sin(x) = [ s,  c, -s, -c][q]    cos(x) = [ c, -s, -c,  s][q]
    const U q = S::to_u64(n);
    const typename S::Cmp swap = S::odd(q);
    s = from_bits(bits(S::select(swap, cos_r, sin_r)) ^ ((q & 2) << 62));
    c = from_bits(bits(S::select(swap, sin_r, cos_r)) ^
                  (((q + 1) & 2) << 62));
  }

  // Packed complex product, lanes [re0 im0 re1 im1 ...]; no FMA.
  static D cmul(D a, D b) {
    return S::addsub(S::dup_re(a) * b, S::dup_im(a) * S::swap_pairs(b));
  }

  // ---- f32 dense algebra ----

  static constexpr int kBlock = 64;  // same cache blocking as generic

  // A Rows x Cols-vector register tile of C over the p-block [p0, p1),
  // lanes outside the optional mask `m` off. Each C element still adds its
  // products p-ascending, as in the generic loop. Forced inline: left to
  // itself GCC calls the wide tile once per 4-vector column block.
  template <int Rows, int Cols, class... M>
  [[gnu::always_inline]] static void gemm_tile(const float* a, const float* b,
                                               float* c, int i, int j, int p0,
                                               int p1, int k, int n, M... m) {
    F acc[Rows][Cols];
#pragma GCC unroll 8
    for (int r = 0; r < Rows; ++r)
#pragma GCC unroll 4
      for (int q = 0; q < Cols; ++q)
        acc[r][q] = S::load(
            c + static_cast<std::size_t>(i + r) * n + j + q * kF, m...);
    for (int p = p0; p < p1; ++p) {
      const float* brow = b + static_cast<std::size_t>(p) * n + j;
      F bv[Cols];
#pragma GCC unroll 4
      for (int q = 0; q < Cols; ++q) bv[q] = S::load(brow + q * kF, m...);
#pragma GCC unroll 8
      for (int r = 0; r < Rows; ++r) {
        const F av = S::set1(a[static_cast<std::size_t>(i + r) * k + p]);
#pragma GCC unroll 4
        for (int q = 0; q < Cols; ++q) acc[r][q] = acc[r][q] + av * bv[q];
      }
    }
#pragma GCC unroll 8
    for (int r = 0; r < Rows; ++r)
#pragma GCC unroll 4
      for (int q = 0; q < Cols; ++q)
        S::store(c + static_cast<std::size_t>(i + r) * n + j + q * kF,
                 acc[r][q], m...);
  }

  static void gemm_rows_f32(const float* a, const float* b, float* c,
                            int i_begin, int i_end, int k, int n) {
    constexpr int kWide = 4 * kF;
    for (int i0 = i_begin; i0 < i_end; i0 += kBlock) {
      const int i1 = min_of(i0 + kBlock, i_end);
      for (int p0 = 0; p0 < k; p0 += kBlock) {
        const int p1 = min_of(p0 + kBlock, k);
        for (int j0 = 0; j0 < n; j0 += kBlock) {
          const int j1 = min_of(j0 + kBlock, n);
          const int j_wide = j0 + (j1 - j0) / kWide * kWide;
          for (int i = i0; i < i1; ++i)
            for (int j = j0; j < j_wide; j += kWide)
              gemm_tile<1, 4>(a, b, c, i, j, p0, p1, k, n);
          // Narrower columns (the small spatial maps of deep conv layers)
          // give one accumulator per row, so rows go eight at a time.
          for (int j = j_wide; j < j1; j += kF) {
            const typename S::FMask m = S::tail_f(min_of(kF, j1 - j));
            int i = i0;
            for (; i + 8 <= i1; i += 8)
              gemm_tile<8, 1>(a, b, c, i, j, p0, p1, k, n, m);
            for (; i < i1; ++i) gemm_tile<1, 1>(a, b, c, i, j, p0, p1, k, n, m);
          }
        }
      }
    }
  }

  static void axpy_f32(float alpha, const float* x, float* y, int n) {
    each<kF>(n, [&](int i, auto... m) {
      S::store(y + i, S::load(y + i, m...) + alpha * S::load(x + i, m...),
               m...);
    });
  }

  static float dot_f32(const float* x, const float* y, int n) {
    F acc = S::set1(0.0f);
    int i = 0;
    for (; i + kF <= n; i += kF) acc = acc + S::load(x + i) * S::load(y + i);
    if constexpr (S::kDotFoldsTail) {
      if (i < n) {
        const typename S::FMask m = S::tail_f(n - i);
        acc = acc + S::load(x + i, m) * S::load(y + i, m);
      }
      // Below kF elements the lanes past n hold +0. The sum starts at +0
      // and so is never -0, and adding +0 to anything else changes
      // nothing: those adds are skipped without changing a bit.
      return S::sum(acc, min_of(n, kF));
    } else {
      float sum = S::sum(acc);
      for (; i < n; ++i) sum += x[i] * y[i];
      return sum;
    }
  }

  // ---- f64 elementwise ----

  static void sigmoid_affine_f64(const double* x, double* out, std::size_t n,
                                 double scale, double shift) {
    std::size_t i = 0;
    for (; i + kD <= n; i += kD) {
      const D z = scale * (S::load(x + i) - shift);
      const D e = exp_le0(from_bits(bits(z) | kSign));  // exp(-|z|)
      const D denom = 1.0 + e;
      // 1 / denom for z >= 0, e / denom for z < 0.
      S::store(out + i, S::select(S::ge(z, D{}), 1.0 / denom, e / denom));
    }
    if (i < n) generic::sigmoid_affine_f64(x + i, out + i, n - i, scale, shift);
  }

  static void cis_f64(const double* phase, Complex* out, std::size_t n) {
    double* op = reinterpret_cast<double*>(out);
    std::size_t i = 0;
    for (; i + kD <= n; i += kD) {
      D s, c, lo, hi;
      sincos(S::load(phase + i), s, c);
      S::interleave(c, s, lo, hi);
      S::store(op + 2 * i, lo);
      S::store(op + 2 * i + kD, hi);
    }
    if (i < n) generic::cis_f64(phase + i, out + i, n - i);
  }

  static void resist_deriv_f64(const double* t, double* out, std::size_t n,
                               double theta) {
    each<kD>(n, [&](std::size_t i, auto... m) {
      const D v = S::load(t + i, m...);
      S::store(out + i, (theta * v) * (1.0 - v), m...);
    });
  }

  static void add_clamp1_f64(const double* a, const double* b, double* out,
                             std::size_t n) {
    each<kD>(n, [&](std::size_t i, auto... m) {
      S::store(out + i,
               S::min(S::load(a + i, m...) + S::load(b + i, m...),
                      S::set1(1.0)),
               m...);
    });
  }

  static void add_f64(const double* a, double* out, std::size_t n) {
    each<kD>(n, [&](std::size_t i, auto... m) {
      S::store(out + i, S::load(out + i, m...) + S::load(a + i, m...), m...);
    });
  }

  static void clamp_max_f64(double* a, std::size_t n, double hi) {
    each<kD>(n, [&](std::size_t i, auto... m) {
      S::store(a + i, S::min(S::load(a + i, m...), S::set1(hi)), m...);
    });
  }

  static void gate_lt1_f64(const double* a, const double* b, double* out,
                           std::size_t n) {
    const D one = S::set1(1.0);
    each<kD>(n, [&](std::size_t i, auto... m) {
      const D sum = S::load(a + i, m...) + S::load(b + i, m...);
      S::store(out + i, S::keep(S::lt(sum, one), one), m...);
    });
  }

  static double loss_grad_f64(const double* t, const double* target,
                              const double* weights, double* dldt,
                              std::size_t n) {
    D acc = D{};
    std::size_t i = 0;
    for (; i + kD <= n; i += kD) {
      const D d = S::load(t + i) - S::load(target + i);
      const D w = weights ? S::load(weights + i) : S::set1(1.0);
      acc = acc + (w * d) * d;
      S::store(dldt + i, (2.0 * w) * d);
    }
    double loss = S::sum(acc);
    for (; i < n; ++i) {
      const double w = weights ? weights[i] : 1.0;
      const double d = t[i] - target[i];
      loss += w * d * d;
      dldt[i] = 2.0 * w * d;
    }
    return loss;
  }

  static double max_abs_f64(const double* x, std::size_t n) {
    D acc = D{};
    std::size_t i = 0;
    for (; i + kD <= n; i += kD)
      acc = S::max(acc, from_bits(bits(S::load(x + i)) & ~kSign));
    double m = S::max_lanes(acc);
    for (; i < n; ++i) m = max_of(m, __builtin_fabs(x[i]));
    return m;
  }

  static void descend_f64(double* p, const double* g, double scale,
                          std::size_t n) {
    each<kD>(n, [&](std::size_t i, auto... m) {
      S::store(p + i, S::load(p + i, m...) - scale * S::load(g + i, m...),
               m...);
    });
  }

  static void sigmoid_chain_f64(double* g, const double* m, double theta,
                                std::size_t n) {
    each<kD>(n, [&](std::size_t i, auto... mask) {
      const D mv = S::load(m + i, mask...);
      S::store(g + i, S::load(g + i, mask...) * ((theta * mv) * (1.0 - mv)),
               mask...);
    });
  }

  static double sq_diff_sum_f64(const double* a, const double* b,
                                std::size_t n) {
    D acc = D{};
    std::size_t i = 0;
    for (; i + kD <= n; i += kD) {
      const D d = S::load(a + i) - S::load(b + i);
      acc = acc + d * d;
    }
    double sum = S::sum(acc);
    for (; i < n; ++i) {
      const double d = a[i] - b[i];
      sum += d * d;
    }
    return sum;
  }

  // ---- complex<double> spectrum ops (as interleaved doubles) ----

  static void cmul_f64(Complex* a, const Complex* b, std::size_t n) {
    double* ap = reinterpret_cast<double*>(a);
    const double* bp = reinterpret_cast<const double*>(b);
    each<kD>(2 * n, [&](std::size_t i, auto... m) {
      S::store(ap + i, cmul(S::load(ap + i, m...), S::load(bp + i, m...)),
               m...);
    });
  }

  static void cmul_to_f64(const Complex* a, const Complex* b, Complex* out,
                          std::size_t n) {
    const double* ap = reinterpret_cast<const double*>(a);
    const double* bp = reinterpret_cast<const double*>(b);
    double* op = reinterpret_cast<double*>(out);
    each<kD>(2 * n, [&](std::size_t i, auto... m) {
      S::store(op + i, cmul(S::load(ap + i, m...), S::load(bp + i, m...)),
               m...);
    });
  }

  static void cmul_conj_accum_f64(Complex* acc, const Complex* a,
                                  const Complex* b, double w, std::size_t n) {
    U conj = U{};  // flips the sign of the imaginary lanes
    for (int l = 1; l < kD; l += 2) conj[l] = kSign;
    double* cp = reinterpret_cast<double*>(acc);
    const double* ap = reinterpret_cast<const double*>(a);
    const double* bp = reinterpret_cast<const double*>(b);
    each<kD>(2 * n, [&](std::size_t i, auto... m) {
      const D wa = w * S::load(ap + i, m...);
      const D bc = from_bits(bits(S::load(bp + i, m...)) ^ conj);
      S::store(cp + i, S::load(cp + i, m...) + cmul(wa, bc), m...);
    });
  }

  static void norm_weighted_accum_f64(double* out, const Complex* a, double w,
                                      std::size_t n) {
    const double* ap = reinterpret_cast<const double*>(a);
    std::size_t i = 0;
    for (; i + kD <= n; i += kD) {
      const D v0 = S::load(ap + 2 * i), v1 = S::load(ap + 2 * i + kD);
      const D sq0 = v0 * v0, sq1 = v1 * v1;
      // Even lanes of sq + swapped sq hold re^2 + im^2, in that order.
      const D norms =
          S::even(sq0 + S::swap_pairs(sq0), sq1 + S::swap_pairs(sq1));
      S::store(out + i, S::load(out + i) + w * norms);
    }
    if (i < n) generic::norm_weighted_accum_f64(out + i, a + i, w, n - i);
  }

  static void real_mul_f64(const double* r, const Complex* a, Complex* out,
                           std::size_t n) {
    const double* ap = reinterpret_cast<const double*>(a);
    double* op = reinterpret_cast<double*>(out);
    std::size_t i = 0;
    for (; i + kD <= n; i += kD) {
      D lo, hi;
      S::dup_pairs(S::load(r + i), lo, hi);
      S::store(op + 2 * i, lo * S::load(ap + 2 * i));
      S::store(op + 2 * i + kD, hi * S::load(ap + 2 * i + kD));
    }
    if (i < n) generic::real_mul_f64(r + i, a + i, out + i, n - i);
  }

  static void scaled_real_f64(const Complex* a, double s, double* out,
                              std::size_t n) {
    const double* ap = reinterpret_cast<const double*>(a);
    std::size_t i = 0;
    for (; i + kD <= n; i += kD)
      S::store(out + i,
               s * S::even(S::load(ap + 2 * i), S::load(ap + 2 * i + kD)));
    if (i < n) generic::scaled_real_f64(a + i, s, out + i, n - i);
  }

  static void scale_complex_f64(Complex* a, double s, std::size_t n) {
    double* ap = reinterpret_cast<double*>(a);
    each<kD>(2 * n, [&](std::size_t i, auto... m) {
      S::store(ap + i, s * S::load(ap + i, m...), m...);
    });
  }

  // ---- FFT radix-2 butterfly stage ----

  // kC butterflies t = w * b; b = a - t; a = a + t, with w given as its
  // duplicated real and imaginary parts.
  static void butterfly(double* ap, double* bp, D wr, D wi) {
    const D va = S::load(ap), vb = S::load(bp);
    const D t = S::addsub(wr * vb, wi * S::swap_pairs(vb));
    S::store(bp, va - t);
    S::store(ap, va + t);
  }

  static void fft_pass_f64(Complex* data, const Complex* twiddle, int size,
                           int len) {
    const int half = len >> 1;
    if constexpr (kC > 2) {
      if (half < kC)
        return Simd<typename S::Half>::fft_pass_f64(data, twiddle, size, len);
    }
    double* dp = reinterpret_cast<double*>(data);
    const double* tp = reinterpret_cast<const double*>(twiddle);
    if (half == 1) {
      // The twiddle is 1+0i: a direct add/sub, whose sign of zero differs
      // from a multiply by 1+0i.
      for (int s = 0; s < 2 * size; s += 4) {
        const __m128d a = _mm_loadu_pd(dp + s), b = _mm_loadu_pd(dp + s + 2);
        _mm_storeu_pd(dp + s, a + b);
        _mm_storeu_pd(dp + s + 2, a - b);
      }
    } else if (half == kC) {
      // The stage's twiddles fill one vector: load them once, not per block
      // (the data stores may alias them, so the compiler would reload).
      const D w = S::load(tp);
      const D wr = S::dup_re(w), wi = S::dup_im(w);
      for (int start = 0; start < size; start += len)
        butterfly(dp + 2 * start, dp + 2 * (start + half), wr, wi);
    } else {
      // half is a multiple of kC for radix-2 sizes: no tail.
      for (int start = 0; start < size; start += len) {
        double* ap = dp + 2 * start;
        double* bp = ap + 2 * half;
        for (int k = 0; k < half; k += kC) {
          const D w = S::load(tp + 2 * k);
          butterfly(ap + 2 * k, bp + 2 * k, S::dup_re(w), S::dup_im(w));
        }
      }
    }
  }

  // ---- metrology ----

  static void bilinear_line_f64(const double* grid, int h, int w, double x0,
                                double y0, double dx, double dy, int count,
                                double* out) {
    const D zero = D{}, one = S::set1(1.0);
    const D fxmax = S::set1(static_cast<double>(w - 1));
    const D fymax = S::set1(static_cast<double>(h - 1));
    const I32 ixmax = S::set1(w - 1), iymax = S::set1(h - 1);
    D lane = D{};
    for (int l = 0; l < kD; ++l) lane[l] = l;
    int i = 0;
    for (; i + kD <= count; i += kD) {
      const D iv = lane + static_cast<double>(i);
      const D fx = S::max(zero, S::min((x0 + iv * dx) - 0.5, fxmax));
      const D fy = S::max(zero, S::min((y0 + iv * dy) - 0.5, fymax));
      const I32 xi0 = S::min(S::trunc(fx), ixmax);
      const I32 yi0 = S::min(S::trunc(fy), iymax);
      const I32 xi1 = S::min(xi0 + 1, ixmax);
      const I32 yi1 = S::min(yi0 + 1, iymax);
      const D tx = fx - S::to_d(xi0), ty = fy - S::to_d(yi0);
      const I32 row0 = yi0 * w, row1 = yi1 * w;
      const D one_tx = one - tx;
      const D bottom = S::gather(grid, row0 + xi0) * one_tx +
                       S::gather(grid, row0 + xi1) * tx;
      const D top = S::gather(grid, row1 + xi0) * one_tx +
                    S::gather(grid, row1 + xi1) * tx;
      S::store(out + i, bottom * (one - ty) + top * ty);
    }
    for (; i < count; ++i)
      out[i] = generic::bilinear_one(grid, h, w, x0 + i * dx, y0 + i * dy);
  }
};

template <class S>
constexpr KernelTable make_table() {
  using K = Simd<S>;
  // Entries in KernelTable's declaration order.
  return {S::kBackend, S::kName, &K::gemm_rows_f32, &K::axpy_f32,
          &K::dot_f32, &K::sigmoid_affine_f64, &K::cis_f64,
          &K::resist_deriv_f64, &K::add_clamp1_f64, &K::add_f64,
          &K::clamp_max_f64, &K::gate_lt1_f64, &K::loss_grad_f64,
          &K::max_abs_f64, &K::descend_f64, &K::sigmoid_chain_f64,
          &K::sq_diff_sum_f64, &K::cmul_f64, &K::cmul_to_f64,
          &K::cmul_conj_accum_f64, &K::norm_weighted_accum_f64,
          &K::real_mul_f64, &K::scaled_real_f64, &K::scale_complex_f64,
          &K::fft_pass_f64, &K::bilinear_line_f64};
}

}  // namespace
}  // namespace ldmo::kernels
