// Tests for the runtime-dispatched SIMD kernel layer: bit-equality sweeps
// of every exact-class op against the generic reference on each backend the
// host can run, tolerance sweeps for the approximate-class reductions,
// pinned goldens for GEMM/FFT/resist, dispatch and --backend flag
// semantics, and the SOCS kernel-truncation error bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "backend_sweep.h"
#include "common/error.h"
#include "common/hash.h"
#include "common/rng.h"
#include "fft/fft.h"
#include "kernels/kernels.h"
#include "litho/aerial.h"
#include "litho/config.h"
#include "litho/kernels.h"
#include "litho/resist.h"

namespace ldmo::kernels {
namespace {

using testutil::BackendGuard;

std::vector<const KernelTable*> usable_tables() {
  std::vector<const KernelTable*> out;
  for (Backend b : testutil::usable_backends())
    out.push_back(detail::table_for(b));
  return out;
}

std::vector<double> random_f64(Rng& rng, std::size_t n, double lo = -2.0,
                               double hi = 2.0) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(lo, hi);
  return v;
}

std::vector<float> random_f32(Rng& rng, std::size_t n) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

std::vector<Complex> random_c128(Rng& rng, std::size_t n) {
  std::vector<Complex> v(n);
  for (Complex& z : v) z = Complex(rng.uniform(-2.0, 2.0),
                                   rng.uniform(-2.0, 2.0));
  return v;
}

bool bits_equal(const double* a, const double* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}

bool bits_equal(const Complex* a, const Complex* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(Complex)) == 0;
}

bool bits_equal(const float* a, const float* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

// ---------------------------------------------------------------------------
// Dispatch semantics.

TEST(KernelDispatchTest, GenericAlwaysUsable) {
  EXPECT_TRUE(compiled(Backend::kGeneric));
  EXPECT_TRUE(supported(Backend::kGeneric));
  const KernelTable* generic = detail::table_for(Backend::kGeneric);
  ASSERT_NE(generic, nullptr);
  EXPECT_STREQ(generic->name, "generic");
  EXPECT_TRUE(supported(detect_best()));
  // The active table is one of the usable ones.
  const KernelTable& active_table = table();
  EXPECT_TRUE(supported(active_table.backend));
}

TEST(KernelDispatchTest, ParseBackendNames) {
  Backend b = Backend::kGeneric;
  bool is_auto = false;
  EXPECT_TRUE(parse_backend("avx2", b, is_auto));
  EXPECT_EQ(b, Backend::kAvx2);
  EXPECT_FALSE(is_auto);
  EXPECT_TRUE(parse_backend("auto", b, is_auto));
  EXPECT_TRUE(is_auto);
  EXPECT_FALSE(parse_backend("sse9", b, is_auto));
  EXPECT_EQ(std::string(to_string(Backend::kAvx512)), "avx512");
}

TEST(KernelDispatchTest, UnsupportedSelectionThrows) {
  BackendGuard guard;
  EXPECT_THROW(select_by_name("bogus"), Error);
  for (Backend b : {Backend::kAvx2, Backend::kAvx512, Backend::kNeon}) {
    if (!supported(b)) {
      EXPECT_THROW(select(b), Error);
    }
  }
  // Every advertised-supported backend selects cleanly.
  for (const KernelTable* t : usable_tables()) {
    select_by_name(t->name);
    EXPECT_EQ(&table(), t);
  }
}

TEST(KernelDispatchTest, ApplyBackendFlagCompactsArgv) {
  BackendGuard guard;
  char prog[] = "prog", flag[] = "--backend", name[] = "generic",
       file[] = "clip.layout";
  char* argv[] = {prog, flag, name, file, nullptr};
  int argc = 4;
  const char* selected = apply_backend_flag(argc, argv);
  EXPECT_STREQ(selected, "generic");
  EXPECT_EQ(active(), Backend::kGeneric);
  ASSERT_EQ(argc, 2);
  EXPECT_STREQ(argv[0], "prog");
  EXPECT_STREQ(argv[1], "clip.layout");

  char eq_flag[] = "--backend=generic";
  char* argv2[] = {prog, eq_flag, file, nullptr};
  int argc2 = 3;
  apply_backend_flag(argc2, argv2);
  ASSERT_EQ(argc2, 2);
  EXPECT_STREQ(argv2[1], "clip.layout");

  char bad[] = "--backend=sse9";
  char* argv3[] = {prog, bad, nullptr};
  int argc3 = 2;
  EXPECT_THROW(apply_backend_flag(argc3, argv3), Error);
}

TEST(KernelDispatchTest, EnvOverrideHonored) {
  BackendGuard guard;
  setenv("LDMO_BACKEND", "generic", 1);
  detail::reset_for_tests();
  EXPECT_EQ(table().backend, Backend::kGeneric);
  setenv("LDMO_BACKEND", "not-a-backend", 1);
  detail::reset_for_tests();
  EXPECT_THROW(table(), Error);
  unsetenv("LDMO_BACKEND");
  detail::reset_for_tests();
  EXPECT_EQ(table().backend, detect_best());
}

// One-time init must be race-free: many threads hitting the unresolved
// table concurrently all observe the same table (TSan payload).
TEST(KernelDispatchTest, ConcurrentFirstUseResolvesOnce) {
  BackendGuard guard;
  detail::reset_for_tests();
  constexpr int kThreads = 8;
  std::vector<const KernelTable*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back([i, &seen] { seen[static_cast<std::size_t>(i)] =
                                          &table(); });
  for (std::thread& t : threads) t.join();
  for (int i = 1; i < kThreads; ++i) EXPECT_EQ(seen[0], seen[i]);
  EXPECT_NE(seen[0], nullptr);
}

TEST(KernelDispatchTest, CpuFeaturesNonEmpty) {
  EXPECT_FALSE(cpu_features().empty());
  EXPECT_NE(supported_names().find("generic"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Exact-class ops: bit-identical across every usable backend.

TEST(KernelExactOpsTest, ElementwiseF64BitIdentical) {
  Rng rng(7);
  constexpr std::size_t n = 1037;  // odd: exercises every tail path
  const std::vector<double> a = random_f64(rng, n);
  const std::vector<double> b = random_f64(rng, n, -0.2, 1.2);
  const KernelTable& g = *detail::table_for(Backend::kGeneric);

  std::vector<double> ref(n), out(n);
  for (const KernelTable* t : usable_tables()) {
    SCOPED_TRACE(t->name);

    g.resist_deriv_f64(a.data(), ref.data(), n, 120.0);
    t->resist_deriv_f64(a.data(), out.data(), n, 120.0);
    EXPECT_TRUE(bits_equal(ref.data(), out.data(), n));

    g.add_clamp1_f64(a.data(), b.data(), ref.data(), n);
    t->add_clamp1_f64(a.data(), b.data(), out.data(), n);
    EXPECT_TRUE(bits_equal(ref.data(), out.data(), n));

    ref = a; out = a;
    g.add_f64(b.data(), ref.data(), n);
    t->add_f64(b.data(), out.data(), n);
    EXPECT_TRUE(bits_equal(ref.data(), out.data(), n));

    g.clamp_max_f64(ref.data(), n, 1.0);
    t->clamp_max_f64(out.data(), n, 1.0);
    EXPECT_TRUE(bits_equal(ref.data(), out.data(), n));

    g.gate_lt1_f64(a.data(), b.data(), ref.data(), n);
    t->gate_lt1_f64(a.data(), b.data(), out.data(), n);
    EXPECT_TRUE(bits_equal(ref.data(), out.data(), n));

    EXPECT_EQ(g.max_abs_f64(a.data(), n), t->max_abs_f64(a.data(), n));

    ref = a; out = a;
    g.descend_f64(ref.data(), b.data(), 0.37, n);
    t->descend_f64(out.data(), b.data(), 0.37, n);
    EXPECT_TRUE(bits_equal(ref.data(), out.data(), n));

    ref = a; out = a;
    g.sigmoid_chain_f64(ref.data(), b.data(), 4.0, n);
    t->sigmoid_chain_f64(out.data(), b.data(), 4.0, n);
    EXPECT_TRUE(bits_equal(ref.data(), out.data(), n));
  }
}

TEST(KernelExactOpsTest, ComplexOpsBitIdentical) {
  Rng rng(11);
  constexpr std::size_t n = 517;
  const std::vector<Complex> a = random_c128(rng, n);
  const std::vector<Complex> b = random_c128(rng, n);
  const std::vector<double> r = random_f64(rng, n);
  const KernelTable& g = *detail::table_for(Backend::kGeneric);

  std::vector<Complex> cref(n), cout_(n);
  std::vector<double> dref(n), dout(n);
  for (const KernelTable* t : usable_tables()) {
    SCOPED_TRACE(t->name);

    cref = a; cout_ = a;
    g.cmul_f64(cref.data(), b.data(), n);
    t->cmul_f64(cout_.data(), b.data(), n);
    EXPECT_TRUE(bits_equal(cref.data(), cout_.data(), n));

    g.cmul_to_f64(a.data(), b.data(), cref.data(), n);
    t->cmul_to_f64(a.data(), b.data(), cout_.data(), n);
    EXPECT_TRUE(bits_equal(cref.data(), cout_.data(), n));

    cref = b; cout_ = b;
    g.cmul_conj_accum_f64(cref.data(), a.data(), b.data(), 0.83, n);
    t->cmul_conj_accum_f64(cout_.data(), a.data(), b.data(), 0.83, n);
    EXPECT_TRUE(bits_equal(cref.data(), cout_.data(), n));

    dref = r; dout = r;
    g.norm_weighted_accum_f64(dref.data(), a.data(), 0.29, n);
    t->norm_weighted_accum_f64(dout.data(), a.data(), 0.29, n);
    EXPECT_TRUE(bits_equal(dref.data(), dout.data(), n));

    g.real_mul_f64(r.data(), a.data(), cref.data(), n);
    t->real_mul_f64(r.data(), a.data(), cout_.data(), n);
    EXPECT_TRUE(bits_equal(cref.data(), cout_.data(), n));

    g.scaled_real_f64(a.data(), 2.0, dref.data(), n);
    t->scaled_real_f64(a.data(), 2.0, dout.data(), n);
    EXPECT_TRUE(bits_equal(dref.data(), dout.data(), n));

    cref = a; cout_ = a;
    g.scale_complex_f64(cref.data(), 1.0 / 64.0, n);
    t->scale_complex_f64(cout_.data(), 1.0 / 64.0, n);
    EXPECT_TRUE(bits_equal(cref.data(), cout_.data(), n));
  }
}

TEST(KernelExactOpsTest, FftPassBitIdentical) {
  Rng rng(13);
  constexpr int size = 64;
  const std::vector<Complex> data = random_c128(rng, size);
  const KernelTable& g = *detail::table_for(Backend::kGeneric);
  for (int len = 2; len <= size; len <<= 1) {
    const int half = len / 2;
    std::vector<Complex> twiddle(static_cast<std::size_t>(half));
    for (int k = 0; k < half; ++k) {
      const double angle = -2.0 * M_PI * k / len;
      twiddle[static_cast<std::size_t>(k)] =
          Complex(std::cos(angle), std::sin(angle));
    }
    std::vector<Complex> ref = data;
    g.fft_pass_f64(ref.data(), twiddle.data(), size, len);
    for (const KernelTable* t : usable_tables()) {
      SCOPED_TRACE(std::string(t->name) + " len=" + std::to_string(len));
      std::vector<Complex> out = data;
      t->fft_pass_f64(out.data(), twiddle.data(), size, len);
      // Values must match exactly; the half==1 direct add/sub stage may
      // differ from generic only in the sign of zero imaginary parts.
      for (int i = 0; i < size; ++i) {
        EXPECT_EQ(ref[static_cast<std::size_t>(i)].real(),
                  out[static_cast<std::size_t>(i)].real());
        EXPECT_EQ(ref[static_cast<std::size_t>(i)].imag(),
                  out[static_cast<std::size_t>(i)].imag());
      }
    }
  }
}

TEST(KernelExactOpsTest, GemmAndAxpyBitIdentical) {
  Rng rng(17);
  constexpr int m = 37, k = 29, n = 41;
  const std::vector<float> a = random_f32(rng, static_cast<std::size_t>(m * k));
  const std::vector<float> b = random_f32(rng, static_cast<std::size_t>(k * n));
  const KernelTable& g = *detail::table_for(Backend::kGeneric);

  std::vector<float> cref(static_cast<std::size_t>(m * n), 0.0f);
  g.gemm_rows_f32(a.data(), b.data(), cref.data(), 0, m, k, n);
  for (const KernelTable* t : usable_tables()) {
    SCOPED_TRACE(t->name);
    std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
    // Split the row range to exercise partial i ranges too.
    t->gemm_rows_f32(a.data(), b.data(), c.data(), 0, 13, k, n);
    t->gemm_rows_f32(a.data(), b.data(), c.data(), 13, m, k, n);
    EXPECT_TRUE(bits_equal(cref.data(), c.data(), cref.size()));

    std::vector<float> yref(b.begin(), b.begin() + 123);
    std::vector<float> y = yref;
    g.axpy_f32(0.71f, a.data(), yref.data(), 123);
    t->axpy_f32(0.71f, a.data(), y.data(), 123);
    EXPECT_TRUE(bits_equal(yref.data(), y.data(), y.size()));
  }
}

TEST(KernelExactOpsTest, BilinearLineBitIdentical) {
  Rng rng(19);
  constexpr int h = 16, w = 16;
  const std::vector<double> grid = random_f64(rng, h * w, 0.0, 1.0);
  const KernelTable& g = *detail::table_for(Backend::kGeneric);
  // The line starts out of bounds and walks across the grid, exercising
  // both clamped and interior samples.
  constexpr int count = 61;
  std::vector<double> ref(count), out(count);
  g.bilinear_line_f64(grid.data(), h, w, -2.5, 3.1, 0.37, 0.11, count,
                      ref.data());
  for (const KernelTable* t : usable_tables()) {
    SCOPED_TRACE(t->name);
    t->bilinear_line_f64(grid.data(), h, w, -2.5, 3.1, 0.37, 0.11, count,
                         out.data());
    EXPECT_TRUE(bits_equal(ref.data(), out.data(), count));
  }
}

// ---------------------------------------------------------------------------
// Approximate-class ops: per-backend deterministic, tolerance vs generic.

TEST(KernelApproxOpsTest, SigmoidToleranceAndDeterminism) {
  Rng rng(23);
  constexpr std::size_t n = 2003;
  std::vector<double> x = random_f64(rng, n, -800.0, 800.0);
  x[0] = 0.0; x[1] = -0.0; x[2] = -708.5; x[3] = 708.5;  // edge cases
  const KernelTable& g = *detail::table_for(Backend::kGeneric);
  std::vector<double> ref(n), out(n), out2(n);
  g.sigmoid_affine_f64(x.data(), ref.data(), n, 0.05, 1.3);
  for (std::size_t i = 0; i < n; ++i) {
    // The generic backend is the libm two-branch sigmoid, bit for bit.
    const double z = 0.05 * (x[i] - 1.3);
    const double expect = z >= 0.0 ? 1.0 / (1.0 + std::exp(-z))
                                   : std::exp(z) / (1.0 + std::exp(z));
    EXPECT_EQ(ref[i], expect);
  }
  for (const KernelTable* t : usable_tables()) {
    SCOPED_TRACE(t->name);
    t->sigmoid_affine_f64(x.data(), out.data(), n, 0.05, 1.3);
    t->sigmoid_affine_f64(x.data(), out2.data(), n, 0.05, 1.3);
    EXPECT_TRUE(bits_equal(out.data(), out2.data(), n));  // deterministic
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(out[i], ref[i], 1e-12) << "i=" << i << " x=" << x[i];
      EXPECT_GE(out[i], 0.0);
      EXPECT_LE(out[i], 1.0);
    }
  }
}

TEST(KernelApproxOpsTest, CisToleranceAndDeterminism) {
  Rng rng(41);
  constexpr std::size_t n = 1021;  // odd: exercises every tail path
  std::vector<double> x = random_f64(rng, n, -2000.0, 2000.0);
  // Edge cases: signed zero, quadrant boundaries and interiors, large
  // arguments that stress the three-part pi/2 reduction.
  x[0] = 0.0;
  x[1] = -0.0;
  x[2] = M_PI_2;
  x[3] = -M_PI_2;
  x[4] = M_PI;
  x[5] = -M_PI;
  x[6] = 2.0 * M_PI;
  x[7] = 0.75 * M_PI;
  x[8] = -0.75 * M_PI;
  x[9] = 1e5;
  x[10] = -1e5;
  const KernelTable& g = *detail::table_for(Backend::kGeneric);
  std::vector<Complex> ref(n), out(n), out2(n);
  g.cis_f64(x.data(), ref.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    // The generic backend is libm cos/sin, bit for bit.
    EXPECT_EQ(ref[i].real(), std::cos(x[i]));
    EXPECT_EQ(ref[i].imag(), std::sin(x[i]));
  }
  for (const KernelTable* t : usable_tables()) {
    SCOPED_TRACE(t->name);
    t->cis_f64(x.data(), out.data(), n);
    t->cis_f64(x.data(), out2.data(), n);
    EXPECT_TRUE(bits_equal(out.data(), out2.data(), n));  // deterministic
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(out[i].real(), ref[i].real(), 1e-12)
          << "i=" << i << " x=" << x[i];
      EXPECT_NEAR(out[i].imag(), ref[i].imag(), 1e-12)
          << "i=" << i << " x=" << x[i];
      EXPECT_NEAR(std::abs(out[i]), 1.0, 1e-12);  // unit phasor
    }
  }
  // cis(0) is exactly 1 + 0i on every backend.
  for (const KernelTable* t : usable_tables()) {
    std::vector<double> zeros(8, 0.0);
    std::vector<Complex> z(8);
    t->cis_f64(zeros.data(), z.data(), 8);
    for (const Complex& v : z) {
      EXPECT_EQ(v.real(), 1.0);
      EXPECT_EQ(v.imag(), 0.0);
    }
  }
}

TEST(KernelApproxOpsTest, ReductionTolerances) {
  Rng rng(29);
  constexpr std::size_t n = 1531;
  const std::vector<double> a = random_f64(rng, n);
  const std::vector<double> b = random_f64(rng, n);
  const std::vector<double> w = random_f64(rng, n, 0.5, 2.0);
  const std::vector<float> xf = random_f32(rng, n);
  const std::vector<float> yf = random_f32(rng, n);
  const KernelTable& g = *detail::table_for(Backend::kGeneric);

  const double sq_ref = g.sq_diff_sum_f64(a.data(), b.data(), n);
  std::vector<double> dldt_ref(n), dldt_u_ref(n), dldt(n);
  const double loss_ref =
      g.loss_grad_f64(a.data(), b.data(), w.data(), dldt_ref.data(), n);
  const double lu_ref =
      g.loss_grad_f64(a.data(), b.data(), nullptr, dldt_u_ref.data(), n);
  const float dot_ref = g.dot_f32(xf.data(), yf.data(), static_cast<int>(n));

  for (const KernelTable* t : usable_tables()) {
    SCOPED_TRACE(t->name);
    EXPECT_NEAR(t->sq_diff_sum_f64(a.data(), b.data(), n), sq_ref,
                1e-10 * sq_ref);
    const double loss =
        t->loss_grad_f64(a.data(), b.data(), w.data(), dldt.data(), n);
    EXPECT_NEAR(loss, loss_ref, 1e-10 * loss_ref);
    // The written gradient is elementwise: exact across backends.
    EXPECT_TRUE(bits_equal(dldt_ref.data(), dldt.data(), n));
    // Unweighted path (weights == nullptr).
    const double lu =
        t->loss_grad_f64(a.data(), b.data(), nullptr, dldt.data(), n);
    EXPECT_NEAR(lu, lu_ref, 1e-10 * lu_ref);
    EXPECT_TRUE(bits_equal(dldt_u_ref.data(), dldt.data(), n));
    EXPECT_NEAR(t->dot_f32(xf.data(), yf.data(), static_cast<int>(n)),
                dot_ref, 1e-3);
  }
}

// ---------------------------------------------------------------------------
// Per-op digest pins: an FNV-1a digest of every output bit of each op, per
// backend. The lengths reach the main loop and every tail of 2-, 4-, 8- and
// 16-lane loops, each from an aligned start and from one element past it.
// Reduction order and tail boundary are each backend's own contract, so the
// approximate ops pin a digest per backend, not just a tolerance.

constexpr std::size_t kSweepLengths[] = {
    0,  1,  2,  3,  4,  5,  6,  7,   8,   9,   10,  11,  12,  13,  14,
    15, 16, 17, 23, 31, 32, 33, 63, 64, 65, 127, 128, 129, 1037};

/// n elements starting `offset` elements past a 64-byte boundary, filled
/// with uniform draws in [lo, hi).
template <class T>
class Aligned {
 public:
  Aligned(Rng& rng, std::size_t n, std::size_t offset, double lo = -2.0,
          double hi = 2.0)
      : store_(n + offset + 64 / sizeof(T)) {
    const auto addr = reinterpret_cast<std::uintptr_t>(store_.data());
    data_ = store_.data() + (64 - addr % 64) % 64 / sizeof(T) + offset;
    for (std::size_t i = 0; i < n; ++i) {
      if constexpr (std::is_same_v<T, Complex>)
        data_[i] = Complex(rng.uniform(lo, hi), rng.uniform(lo, hi));
      else
        data_[i] = static_cast<T>(rng.uniform(lo, hi));
    }
  }
  T* get() { return data_; }

 private:
  std::vector<T> store_;
  T* data_;
};

/// Calls body(n, offset, rng) for every sweep length and both starts. The
/// Rng is seeded from (n, offset), so every backend sees the same inputs.
template <class Body>
void sweep(Body&& body) {
  for (std::size_t n : kSweepLengths)
    for (std::size_t offset : {0u, 1u}) {
      Rng rng(1000 * n + offset + 1);
      body(n, offset, rng);
    }
}

template <class T>
void hash_out(common::Fnv1a& h, const T* p, std::size_t n) {
  h.bytes(p, n * sizeof(T));
}

/// Writes `edges` over the first and last elements of x[0:n).
void place_edges(double* x, std::size_t n,
                 std::initializer_list<double> edges) {
  std::size_t j = 0;
  for (double e : edges) {
    if (j < n) x[j] = x[n - 1 - j] = e;
    ++j;
  }
}

void digest_gemm(const KernelTable& t, common::Fnv1a& h) {
  // Wide tiles (n >= 64), masked narrow columns, 8-row groups, leftover
  // rows, several p- and j-blocks, and a row range split in three.
  struct Shape {
    int m, k, n;
  };
  for (const Shape& s : {Shape{1, 1, 1}, Shape{5, 7, 6}, Shape{8, 16, 16},
                         Shape{37, 29, 41}, Shape{9, 70, 130},
                         Shape{17, 5, 64}, Shape{70, 3, 7},
                         Shape{13, 65, 100}, Shape{19, 131, 33}}) {
    Rng rng(static_cast<std::uint64_t>(s.m * 10007 + s.k * 101 + s.n));
    const std::size_t mk = static_cast<std::size_t>(s.m) * s.k;
    const std::size_t kn = static_cast<std::size_t>(s.k) * s.n;
    const std::size_t mn = static_cast<std::size_t>(s.m) * s.n;
    Aligned<float> a(rng, mk, 0, -1.0, 1.0), b(rng, kn, 0, -1.0, 1.0);
    Aligned<float> c(rng, mn, 0, -1.0, 1.0);
    const int split1 = s.m / 3, split2 = 2 * s.m / 3 + 1;
    t.gemm_rows_f32(a.get(), b.get(), c.get(), 0, split1, s.k, s.n);
    t.gemm_rows_f32(a.get(), b.get(), c.get(), split1,
                    std::min(split2, s.m), s.k, s.n);
    t.gemm_rows_f32(a.get(), b.get(), c.get(), std::min(split2, s.m), s.m,
                    s.k, s.n);
    hash_out(h, c.get(), mn);
  }
}

void digest_fft(const KernelTable& t, common::Fnv1a& h) {
  for (int size = 2; size <= 256; size <<= 1) {
    for (bool neg_zero_imag : {false, true}) {
      Rng rng(static_cast<std::uint64_t>(size));
      Aligned<Complex> data(rng, static_cast<std::size_t>(size), 0);
      // Real input with -0 imaginary parts: the SIMD len == 2 stage's
      // direct add/sub gives a different sign of zero than generic's
      // multiply by the first twiddle.
      if (neg_zero_imag)
        for (int i = 0; i < size; ++i) data.get()[i].imag(-0.0);
      for (int len = 2; len <= size; len <<= 1) {
        std::vector<Complex> twiddle(static_cast<std::size_t>(len / 2));
        for (int k = 0; k < len / 2; ++k) {
          const double angle = -2.0 * M_PI * k / len;
          twiddle[static_cast<std::size_t>(k)] =
              Complex(std::cos(angle), std::sin(angle));
        }
        t.fft_pass_f64(data.get(), twiddle.data(), size, len);
        hash_out(h, data.get(), static_cast<std::size_t>(size));
      }
    }
  }
}

void digest_bilinear(const KernelTable& t, common::Fnv1a& h) {
  struct Grid {
    int h, w;
  };
  for (const Grid& g : {Grid{16, 16}, Grid{7, 5}, Grid{1, 9}}) {
    Rng rng(static_cast<std::uint64_t>(g.h * 100 + g.w));
    Aligned<double> grid(rng, static_cast<std::size_t>(g.h) * g.w, 0, 0.0,
                         1.0);
    std::vector<double> out(41);
    for (int count = 0; count <= 41; ++count) {
      // One line enters from outside the low corner, one walks back out
      // past the high corner: clamped and interior samples both.
      t.bilinear_line_f64(grid.get(), g.h, g.w, -2.5, 3.1, 0.37, 0.11, count,
                          out.data());
      hash_out(h, out.data(), static_cast<std::size_t>(count));
      t.bilinear_line_f64(grid.get(), g.h, g.w, g.w - 1.2, g.h + 0.3, 0.53,
                          -0.29, count, out.data());
      hash_out(h, out.data(), static_cast<std::size_t>(count));
    }
  }
}

struct DigestCase {
  const char* op;
  void (*run)(const KernelTable& t, common::Fnv1a& h);
  std::uint64_t generic, avx2, avx512;
};

// Digests per backend: generic, avx2, avx512. A mismatch means an op's
// output bits changed on that backend; re-record only for a deliberate
// change of its arithmetic.
const DigestCase kDigestCases[] = {
    {"gemm_rows_f32", digest_gemm,
     0x22aae2b36c2df30ull, 0x22aae2b36c2df30ull, 0x22aae2b36c2df30ull},
    {"axpy_f32",
     [](const KernelTable& t, common::Fnv1a& h) {
       sweep([&](std::size_t n, std::size_t off, Rng& rng) {
         Aligned<float> x(rng, n, off), y(rng, n, off);
         t.axpy_f32(0.71f, x.get(), y.get(), static_cast<int>(n));
         hash_out(h, y.get(), n);
       });
     },
     0x6664a9210dedfbabull, 0x6664a9210dedfbabull, 0x6664a9210dedfbabull},
    {"dot_f32",
     [](const KernelTable& t, common::Fnv1a& h) {
       sweep([&](std::size_t n, std::size_t off, Rng& rng) {
         Aligned<float> x(rng, n, off), y(rng, n, off);
         const float d = t.dot_f32(x.get(), y.get(), static_cast<int>(n));
         hash_out(h, &d, 1);
       });
     },
     0x94f3df439ae28ea1ull, 0x13d9764c1ddf6d10ull, 0x1abe84de97d3e4full},
    {"sigmoid_affine_f64",
     [](const KernelTable& t, common::Fnv1a& h) {
       sweep([&](std::size_t n, std::size_t off, Rng& rng) {
         Aligned<double> x(rng, n, off, -800.0, 800.0), out(rng, n, off);
         place_edges(x.get(), n, {0.0, -0.0, -708.5, 708.5});
         t.sigmoid_affine_f64(x.get(), out.get(), n, 0.05, 1.3);
         hash_out(h, out.get(), n);
         t.sigmoid_affine_f64(x.get(), out.get(), n, 1.0, 0.0);
         hash_out(h, out.get(), n);
       });
     },
     0x929e5abb8d322039ull, 0x6b9e1ee258ffc575ull, 0x4d8c304da06f230dull},
    {"cis_f64",
     [](const KernelTable& t, common::Fnv1a& h) {
       sweep([&](std::size_t n, std::size_t off, Rng& rng) {
         Aligned<double> x(rng, n, off, -2000.0, 2000.0);
         Aligned<Complex> out(rng, n, off);
         place_edges(x.get(), n,
                     {0.0, -0.0, M_PI_2, -M_PI_2, M_PI, -M_PI, 2.0 * M_PI,
                      0.75 * M_PI, -0.75 * M_PI, 1e5, -1e5});
         t.cis_f64(x.get(), out.get(), n);
         hash_out(h, out.get(), n);
       });
     },
     0xaa0c1d8a79454cf2ull, 0xa0908675fa330542ull, 0xa0ec6d860fcb3e6eull},
    {"resist_deriv_f64",
     [](const KernelTable& t, common::Fnv1a& h) {
       sweep([&](std::size_t n, std::size_t off, Rng& rng) {
         Aligned<double> x(rng, n, off, -0.2, 1.2), out(rng, n, off);
         t.resist_deriv_f64(x.get(), out.get(), n, 120.0);
         hash_out(h, out.get(), n);
       });
     },
     0x55f61cf16ed70150ull, 0x55f61cf16ed70150ull, 0x55f61cf16ed70150ull},
    {"add_clamp1_f64",
     [](const KernelTable& t, common::Fnv1a& h) {
       sweep([&](std::size_t n, std::size_t off, Rng& rng) {
         Aligned<double> a(rng, n, off), b(rng, n, off, -0.2, 1.2);
         Aligned<double> out(rng, n, off);
         t.add_clamp1_f64(a.get(), b.get(), out.get(), n);
         hash_out(h, out.get(), n);
       });
     },
     0x1412f202042a143ull, 0x1412f202042a143ull, 0x1412f202042a143ull},
    {"add_f64",
     [](const KernelTable& t, common::Fnv1a& h) {
       sweep([&](std::size_t n, std::size_t off, Rng& rng) {
         Aligned<double> a(rng, n, off), out(rng, n, off);
         t.add_f64(a.get(), out.get(), n);
         hash_out(h, out.get(), n);
       });
     },
     0x85e3a536069caefull, 0x85e3a536069caefull, 0x85e3a536069caefull},
    {"clamp_max_f64",
     [](const KernelTable& t, common::Fnv1a& h) {
       sweep([&](std::size_t n, std::size_t off, Rng& rng) {
         Aligned<double> a(rng, n, off);
         t.clamp_max_f64(a.get(), n, 1.0);
         hash_out(h, a.get(), n);
       });
     },
     0x8f73b3294a226dbaull, 0x8f73b3294a226dbaull, 0x8f73b3294a226dbaull},
    {"gate_lt1_f64",
     [](const KernelTable& t, common::Fnv1a& h) {
       sweep([&](std::size_t n, std::size_t off, Rng& rng) {
         Aligned<double> a(rng, n, off, -0.2, 1.2);
         Aligned<double> b(rng, n, off, -0.2, 1.2);
         Aligned<double> out(rng, n, off);
         t.gate_lt1_f64(a.get(), b.get(), out.get(), n);
         hash_out(h, out.get(), n);
       });
     },
     0x2fd4520de512ddc5ull, 0x2fd4520de512ddc5ull, 0x2fd4520de512ddc5ull},
    {"loss_grad_f64",
     [](const KernelTable& t, common::Fnv1a& h) {
       sweep([&](std::size_t n, std::size_t off, Rng& rng) {
         Aligned<double> a(rng, n, off), b(rng, n, off);
         Aligned<double> w(rng, n, off, 0.5, 2.0), dldt(rng, n, off);
         const double* weights_or_null[] = {w.get(), nullptr};
         for (const double* weights : weights_or_null) {
           const double loss =
               t.loss_grad_f64(a.get(), b.get(), weights, dldt.get(), n);
           hash_out(h, &loss, 1);
           hash_out(h, dldt.get(), n);
         }
       });
     },
     0xa21d3b91d693999aull, 0xcf86ab70b202f607ull, 0x7c2bab828be761f2ull},
    {"max_abs_f64",
     [](const KernelTable& t, common::Fnv1a& h) {
       sweep([&](std::size_t n, std::size_t off, Rng& rng) {
         Aligned<double> a(rng, n, off);
         const double m = t.max_abs_f64(a.get(), n);
         hash_out(h, &m, 1);
       });
     },
     0xcbaa93bfa779766cull, 0xcbaa93bfa779766cull, 0xcbaa93bfa779766cull},
    {"descend_f64",
     [](const KernelTable& t, common::Fnv1a& h) {
       sweep([&](std::size_t n, std::size_t off, Rng& rng) {
         Aligned<double> p(rng, n, off), g(rng, n, off);
         t.descend_f64(p.get(), g.get(), 0.37, n);
         hash_out(h, p.get(), n);
       });
     },
     0xd0205a83a1f9552eull, 0xd0205a83a1f9552eull, 0xd0205a83a1f9552eull},
    {"sigmoid_chain_f64",
     [](const KernelTable& t, common::Fnv1a& h) {
       sweep([&](std::size_t n, std::size_t off, Rng& rng) {
         Aligned<double> g(rng, n, off), m(rng, n, off, -0.2, 1.2);
         t.sigmoid_chain_f64(g.get(), m.get(), 4.0, n);
         hash_out(h, g.get(), n);
       });
     },
     0xdd51b949ef4a191dull, 0xdd51b949ef4a191dull, 0xdd51b949ef4a191dull},
    {"sq_diff_sum_f64",
     [](const KernelTable& t, common::Fnv1a& h) {
       sweep([&](std::size_t n, std::size_t off, Rng& rng) {
         Aligned<double> a(rng, n, off), b(rng, n, off);
         const double s = t.sq_diff_sum_f64(a.get(), b.get(), n);
         hash_out(h, &s, 1);
       });
     },
     0x499219553e0e4781ull, 0x4be77bef61a72231ull, 0x63bf9094c6078ac2ull},
    {"cmul_f64",
     [](const KernelTable& t, common::Fnv1a& h) {
       sweep([&](std::size_t n, std::size_t off, Rng& rng) {
         Aligned<Complex> a(rng, n, off), b(rng, n, off);
         t.cmul_f64(a.get(), b.get(), n);
         hash_out(h, a.get(), n);
       });
     },
     0x7daad20e88fc1511ull, 0x7daad20e88fc1511ull, 0x7daad20e88fc1511ull},
    {"cmul_to_f64",
     [](const KernelTable& t, common::Fnv1a& h) {
       sweep([&](std::size_t n, std::size_t off, Rng& rng) {
         Aligned<Complex> a(rng, n, off), b(rng, n, off), out(rng, n, off);
         t.cmul_to_f64(a.get(), b.get(), out.get(), n);
         hash_out(h, out.get(), n);
       });
     },
     0x7daad20e88fc1511ull, 0x7daad20e88fc1511ull, 0x7daad20e88fc1511ull},
    {"cmul_conj_accum_f64",
     [](const KernelTable& t, common::Fnv1a& h) {
       sweep([&](std::size_t n, std::size_t off, Rng& rng) {
         Aligned<Complex> acc(rng, n, off), a(rng, n, off), b(rng, n, off);
         t.cmul_conj_accum_f64(acc.get(), a.get(), b.get(), 0.83, n);
         hash_out(h, acc.get(), n);
       });
     },
     0xbb1aa22f7a828725ull, 0xbb1aa22f7a828725ull, 0xbb1aa22f7a828725ull},
    {"norm_weighted_accum_f64",
     [](const KernelTable& t, common::Fnv1a& h) {
       sweep([&](std::size_t n, std::size_t off, Rng& rng) {
         Aligned<double> out(rng, n, off);
         Aligned<Complex> a(rng, n, off);
         t.norm_weighted_accum_f64(out.get(), a.get(), 0.29, n);
         hash_out(h, out.get(), n);
       });
     },
     0x4b88cb46f0a495e6ull, 0x4b88cb46f0a495e6ull, 0x4b88cb46f0a495e6ull},
    {"real_mul_f64",
     [](const KernelTable& t, common::Fnv1a& h) {
       sweep([&](std::size_t n, std::size_t off, Rng& rng) {
         Aligned<double> r(rng, n, off);
         Aligned<Complex> a(rng, n, off), out(rng, n, off);
         t.real_mul_f64(r.get(), a.get(), out.get(), n);
         hash_out(h, out.get(), n);
       });
     },
     0xef1edd9121012ef5ull, 0xef1edd9121012ef5ull, 0xef1edd9121012ef5ull},
    {"scaled_real_f64",
     [](const KernelTable& t, common::Fnv1a& h) {
       sweep([&](std::size_t n, std::size_t off, Rng& rng) {
         Aligned<Complex> a(rng, n, off);
         Aligned<double> out(rng, n, off);
         t.scaled_real_f64(a.get(), 1.0 / 3.0, out.get(), n);
         hash_out(h, out.get(), n);
       });
     },
     0x563bb585a00e4cd2ull, 0x563bb585a00e4cd2ull, 0x563bb585a00e4cd2ull},
    {"scale_complex_f64",
     [](const KernelTable& t, common::Fnv1a& h) {
       sweep([&](std::size_t n, std::size_t off, Rng& rng) {
         Aligned<Complex> a(rng, n, off);
         t.scale_complex_f64(a.get(), 1.0 / 3.0, n);
         hash_out(h, a.get(), n);
       });
     },
     0x48791a657b194201ull, 0x48791a657b194201ull, 0x48791a657b194201ull},
    {"fft_pass_f64", digest_fft,
     0x79d0b3a03f0a4699ull, 0x17463927383ed019ull, 0x17463927383ed019ull},
    {"bilinear_line_f64", digest_bilinear,
     0xed94197f63c77ea0ull, 0xed94197f63c77ea0ull, 0xed94197f63c77ea0ull},
};

TEST(KernelDigestTest, EveryOpMatchesItsPinnedDigestPerBackend) {
  for (Backend backend : testutil::usable_backends()) {
    if (backend == Backend::kNeon) continue;  // no digests recorded
    const KernelTable& t = *detail::table_for(backend);
    for (const DigestCase& c : kDigestCases) {
      common::Fnv1a h;
      c.run(t, h);
      const std::uint64_t expect = backend == Backend::kGeneric ? c.generic
                                   : backend == Backend::kAvx2  ? c.avx2
                                                                : c.avx512;
      EXPECT_EQ(h.digest(), expect)
          << t.name << " " << c.op << " 0x" << std::hex << h.digest();
    }
  }
}

// ---------------------------------------------------------------------------
// Pinned goldens, swept per backend through the real entry points.

TEST(KernelGoldenTest, GemmIntegerGolden) {
  // Integer-valued floats multiply exactly, so every backend must hit the
  // analytic product dead on.
  constexpr int m = 5, k = 7, n = 6;
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  for (int i = 0; i < m * k; ++i)
    a[static_cast<std::size_t>(i)] = static_cast<float>((i % 11) - 5);
  for (int i = 0; i < k * n; ++i)
    b[static_cast<std::size_t>(i)] = static_cast<float>((i % 7) - 3);
  for (const KernelTable* t : usable_tables()) {
    SCOPED_TRACE(t->name);
    std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
    t->gemm_rows_f32(a.data(), b.data(), c.data(), 0, m, k, n);
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < n; ++j) {
        double expect = 0.0;
        for (int p = 0; p < k; ++p)
          expect += static_cast<double>(a[static_cast<std::size_t>(i * k + p)]) *
                    static_cast<double>(b[static_cast<std::size_t>(p * n + j)]);
        EXPECT_EQ(static_cast<double>(c[static_cast<std::size_t>(i * n + j)]),
                  expect);
      }
    }
  }
}

TEST(KernelGoldenTest, FftImpulseGoldenPerBackend) {
  BackendGuard guard;
  for (const KernelTable* t : usable_tables()) {
    SCOPED_TRACE(t->name);
    select(t->backend);
    fft::FftPlan plan(8);
    std::vector<Complex> data(8, Complex(0.0, 0.0));
    data[0] = Complex(1.0, 0.0);
    plan.forward(data.data());
    for (int i = 0; i < 8; ++i) {
      EXPECT_DOUBLE_EQ(data[static_cast<std::size_t>(i)].real(), 1.0);
      EXPECT_DOUBLE_EQ(data[static_cast<std::size_t>(i)].imag(), 0.0);
    }
    // Constant input: all energy in the DC bin.
    std::vector<Complex> ones(8, Complex(1.0, 0.0));
    plan.forward(ones.data());
    EXPECT_NEAR(ones[0].real(), 8.0, 1e-12);
    for (int i = 1; i < 8; ++i)
      EXPECT_NEAR(std::abs(ones[static_cast<std::size_t>(i)]), 0.0, 1e-12);
    // Round trip restores the impulse.
    plan.inverse(data.data());
    EXPECT_NEAR(data[0].real(), 1.0, 1e-15);
    for (int i = 1; i < 8; ++i)
      EXPECT_NEAR(std::abs(data[static_cast<std::size_t>(i)]), 0.0, 1e-15);
  }
}

TEST(KernelGoldenTest, ResistGoldenPerBackend) {
  BackendGuard guard;
  litho::LithoConfig cfg;
  GridF intensity(2, 3);
  const double values[] = {0.0, 0.039, 0.078, 0.02, 0.35, 1.0};
  for (std::size_t i = 0; i < 6; ++i) intensity[i] = values[i];
  for (const KernelTable* t : usable_tables()) {
    SCOPED_TRACE(t->name);
    select(t->backend);
    const GridF r = litho::resist_response(intensity, cfg);
    for (std::size_t i = 0; i < 6; ++i)
      EXPECT_NEAR(r[i], litho::sigmoid(cfg.theta_z *
                                       (values[i] - cfg.intensity_threshold)),
                  1e-12);
    EXPECT_NEAR(r[1], 0.5, 1e-12);  // exactly at threshold
  }
}

// ---------------------------------------------------------------------------
// Real-input 2-D FFT.

TEST(RealFftTest, ForwardRealMatchesComplexForward) {
  Rng rng(31);
  constexpr int n = 32;
  GridF real(n, n);
  for (std::size_t i = 0; i < real.size(); ++i) real[i] = rng.uniform();
  fft::Fft2DPlan plan(n, n);
  fft::GridC full = fft::to_complex(real);
  plan.forward(full);
  fft::GridC half;
  plan.forward_real(real, half);
  for (std::size_t i = 0; i < full.size(); ++i)
    EXPECT_NEAR(std::abs(full[i] - half[i]), 0.0, 1e-9) << "i=" << i;
}

TEST(RealFftTest, DegenerateSingleRow) {
  GridF real(1, 8);
  for (std::size_t i = 0; i < 8; ++i) real[i] = static_cast<double>(i);
  fft::Fft2DPlan plan(1, 8);
  fft::GridC full = fft::to_complex(real);
  plan.forward(full);
  fft::GridC half;
  plan.forward_real(real, half);
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_NEAR(std::abs(full[i] - half[i]), 0.0, 1e-12);
}

// ---------------------------------------------------------------------------
// SOCS kernel truncation: the configured knob and its provable bound.

litho::LithoConfig socs_config() {
  litho::LithoConfig cfg;
  cfg.grid_size = 64;
  cfg.pixel_nm = 16.0;
  cfg.kernel_count = 6;
  return cfg;
}

TEST(SocsTruncationTest, KeepEnergyDropsTrailingKernels) {
  const litho::SocsKernels full = litho::build_socs_kernels(socs_config());
  ASSERT_GE(full.kernel_count(), 3);
  EXPECT_EQ(full.dropped_kernel_count, 0);
  EXPECT_EQ(full.truncation_error_bound, 0.0);
  EXPECT_EQ(full.kernel_l1_norms.size(), full.weights.size());

  litho::LithoConfig truncated_cfg = socs_config();
  truncated_cfg.kernel_keep_energy = 0.5;
  EXPECT_NE(truncated_cfg.kernel_cache_key(),
            socs_config().kernel_cache_key());
  const litho::SocsKernels trunc = litho::build_socs_kernels(truncated_cfg);
  EXPECT_LT(trunc.kernel_count(), full.kernel_count());
  EXPECT_GE(trunc.dropped_kernel_count, 1);
  EXPECT_GT(trunc.truncation_error_bound, 0.0);
  EXPECT_LE(trunc.captured_energy, full.captured_energy);

  litho::LithoConfig bad = socs_config();
  bad.kernel_keep_energy = 0.0;
  EXPECT_THROW(bad.validate(), Error);
}

TEST(SocsTruncationTest, IntensityErrorWithinProvableBound) {
  // Drop the two weakest kernels of the calibrated model by hand and check
  // the pointwise intensity deviation against sum_dropped w_k ||h_k||_1^2
  // on random binary masks — the bound the knob reports.
  const litho::SocsKernels full = litho::build_socs_kernels(socs_config());
  ASSERT_GE(full.kernel_count(), 3);
  litho::SocsKernels trunc = full;
  const std::size_t keep = full.weights.size() - 2;
  double bound = 0.0;
  for (std::size_t k = keep; k < full.weights.size(); ++k)
    bound += full.weights[k] * full.kernel_l1_norms[k] *
             full.kernel_l1_norms[k];
  trunc.kernel_ffts.resize(keep);
  trunc.weights.resize(keep);
  trunc.kernel_l1_norms.resize(keep);
  ASSERT_GT(bound, 0.0);

  const litho::AerialSimulator full_sim(full);
  const litho::AerialSimulator trunc_sim(trunc);
  Rng rng(37);
  const int n = socs_config().grid_size;
  for (int trial = 0; trial < 3; ++trial) {
    GridF mask(n, n);
    for (std::size_t i = 0; i < mask.size(); ++i)
      mask[i] = rng.uniform() < 0.5 ? 1.0 : 0.0;
    const GridF i_full = full_sim.intensity(mask);
    const GridF i_trunc = trunc_sim.intensity(mask);
    for (std::size_t i = 0; i < i_full.size(); ++i) {
      const double diff = i_full[i] - i_trunc[i];
      // Dropping nonnegative-weight kernels only removes intensity.
      EXPECT_GE(diff, -1e-12);
      EXPECT_LE(diff, bound + 1e-12);
    }
  }
}

}  // namespace
}  // namespace ldmo::kernels
