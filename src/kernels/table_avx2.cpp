// AVX2 kernel backend: the width-generic kernels of simd.h at 256 bits
// (4 doubles / 8 floats / 2 complex<double> per vector).
//
// Built with -mavx2 -ffp-contract=off in its own translation unit; the
// table is registered only when the running CPU reports AVX2.
#include "kernels/kernels.h"

#ifdef LDMO_KERNELS_AVX2

#include "kernels/simd.h"

namespace ldmo::kernels::detail {

const KernelTable& avx2_table() {
  static constexpr KernelTable t = make_table<Avx2>();
  return t;
}

}  // namespace ldmo::kernels::detail

#endif  // LDMO_KERNELS_AVX2
