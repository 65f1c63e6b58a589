#include "nn/gemm.h"

#include <algorithm>
#include <cstring>

#include "kernels/kernels.h"
#include "runtime/parallel_for.h"

namespace ldmo::nn {
namespace {
constexpr int kBlock = 64;  // fits three blocks in L1/L2 comfortably

// Below this many multiply-adds the task setup costs more than the loop;
// measured crossover is ~64^3 on the bench machine, we gate conservatively.
constexpr long long kParallelFlops = 1LL << 18;

// Rows shorter than this are cheaper inline than through the kernel table.
constexpr int kShortRow = 16;

}  // namespace

void gemm_accumulate(const float* a, const float* b, float* c, int m, int k,
                     int n) {
  // Row ranges partition C, so every C element is written by exactly one
  // chunk and the per-element accumulation order is the serial order:
  // parallel results are bit-identical to serial at any thread count. The
  // blocked inner tiles come from the dispatched kernel table (SIMD lanes
  // span j, so accumulation over p stays serial per element).
  const kernels::KernelTable& kt = kernels::table();
  const long long flops =
      static_cast<long long>(m) * k * n;
  if (flops >= kParallelFlops && runtime::parallel_enabled() && m > kBlock) {
    // Chunk over whole kBlock row groups to keep the blocked loop intact.
    const std::size_t row_blocks =
        static_cast<std::size_t>((m + kBlock - 1) / kBlock);
    runtime::parallel_for_chunks(
        row_blocks, 1, [&](std::size_t blk_begin, std::size_t blk_end) {
          const int i_begin = static_cast<int>(blk_begin) * kBlock;
          const int i_end = std::min(static_cast<int>(blk_end) * kBlock, m);
          kt.gemm_rows_f32(a, b, c, i_begin, i_end, k, n);
        });
    return;
  }
  kt.gemm_rows_f32(a, b, c, 0, m, k, n);
}

void gemm(const float* a, const float* b, float* c, int m, int k, int n) {
  std::memset(c, 0, static_cast<std::size_t>(m) * n * sizeof(float));
  gemm_accumulate(a, b, c, m, k, n);
}

void gemm_at_b_accumulate(const float* a, const float* b, float* c, int m,
                          int k, int n) {
  // C[i][j] += sum_p A[p][i] * B[p][j]. Short rows (the small maps of deep
  // conv layers) skip the kernel call: its multiply-then-add per element
  // is the same arithmetic as the inline loop.
  const kernels::KernelTable& kt = kernels::table();
  for (int p = 0; p < k; ++p) {
    const float* arow = a + static_cast<std::size_t>(p) * m;
    const float* brow = b + static_cast<std::size_t>(p) * n;
    for (int i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = c + static_cast<std::size_t>(i) * n;
      if (n < kShortRow) {
        for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
      } else {
        kt.axpy_f32(av, brow, crow, n);
      }
    }
  }
}

void gemm_a_bt_accumulate(const float* a, const float* b, float* c, int m,
                          int k, int n) {
  // C[i][j] += sum_p A[i][p] * B[j][p]. Rows of C are independent dot
  // products, so row chunks parallelize with per-backend-deterministic
  // results (the dot reduction is lane-parallel in SIMD backends).
  const kernels::KernelTable& kt = kernels::table();
  const auto rows = [&](int i_begin, int i_end) {
    for (int i = i_begin; i < i_end; ++i) {
      const float* arow = a + static_cast<std::size_t>(i) * k;
      float* crow = c + static_cast<std::size_t>(i) * n;
      for (int j = 0; j < n; ++j) {
        const float* brow = b + static_cast<std::size_t>(j) * k;
        crow[j] += kt.dot_f32(arow, brow, k);
      }
    }
  };
  const long long flops = static_cast<long long>(m) * k * n;
  if (flops >= kParallelFlops && runtime::parallel_enabled() && m > 1) {
    runtime::parallel_for_chunks(
        static_cast<std::size_t>(m), 1,
        [&](std::size_t begin, std::size_t end) {
          rows(static_cast<int>(begin), static_cast<int>(end));
        });
    return;
  }
  rows(0, m);
}

}  // namespace ldmo::nn
