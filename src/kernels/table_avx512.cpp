// AVX-512 kernel backend: the width-generic kernels of simd.h at 512 bits
// (8 doubles / 16 floats / 4 complex<double> per vector).
//
// Built with -mavx512f -mavx512dq -ffp-contract=off in its own translation
// unit; the table is registered only when the running CPU reports
// AVX512F and AVX512DQ.
#include "kernels/kernels.h"

#ifdef LDMO_KERNELS_AVX512

#include "kernels/simd.h"

namespace ldmo::kernels::detail {

const KernelTable& avx512_table() {
  static constexpr KernelTable t = make_table<Avx512>();
  return t;
}

}  // namespace ldmo::kernels::detail

#endif  // LDMO_KERNELS_AVX512
