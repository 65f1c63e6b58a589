#include "litho/aerial.h"

#include <algorithm>
#include <vector>

#include "common/error.h"
#include "kernels/kernels.h"
#include "runtime/parallel_for.h"
#include "runtime/workspace.h"

namespace ldmo::litho {

using runtime::Workspace;

namespace {

// Columns per block of the forward pass's column stage, and blocks per
// task: 32-column tasks keep a 128 px forward pass to 4 tasks, fewer than
// the one-per-kernel tasks of a full-grid pass, since each task dispatch
// costs about as much as a few column FFTs.
constexpr int kColBlock = 8;
constexpr std::size_t kBlocksPerTask = 4;

// Writes a column-major block (`block` columns of height n) into columns
// [x0, x0 + block) of a row-major n x n grid.
template <typename T>
void scatter_columns(const T* cols, int n, int x0, int block, T* grid) {
  for (int y = 0; y < n; ++y) {
    T* row = grid + static_cast<std::size_t>(y) * n + x0;
    for (int b = 0; b < block; ++b)
      row[b] = cols[static_cast<std::size_t>(b) * n + y];
  }
}

}  // namespace

AerialSimulator::AerialSimulator(const SocsKernels& kernels)
    : kernels_(kernels),
      plan_(fft::plan_for(kernels.config.grid_size,
                          kernels.config.grid_size)),
      band_(kernels.band) {
  require(!kernels.kernel_ffts.empty(), "AerialSimulator: no kernels");
  require(band_ >= 0, "AerialSimulator: kernel band not recorded");
  const fft::BandAxis axis(kernels.config.grid_size, band_);
  box_ = static_cast<std::size_t>(axis.size) * axis.size;
  kernel_boxes_.resize(kernels.kernel_ffts.size() * box_);
  for (std::size_t k = 0; k < kernels.kernel_ffts.size(); ++k)
    plan_.gather_band(kernels.kernel_ffts[k].data(),
                      kernel_boxes_.data() + k * box_, band_);
}

AerialFields AerialSimulator::intensity_with_fields(const GridF& mask) const {
  AerialFields out;
  intensity_with_fields(mask, out);
  return out;
}

void AerialSimulator::intensity_with_fields(const GridF& mask,
                                            AerialFields& out) const {
  forward(mask, &out.fields, out.intensity);
}

GridF AerialSimulator::intensity(const GridF& mask) const {
  GridF out;
  intensity(mask, out);
  return out;
}

void AerialSimulator::intensity(const GridF& mask, GridF& out) const {
  forward(mask, nullptr, out);
}

void AerialSimulator::forward(const GridF& mask,
                              std::vector<fft::GridC>* fields,
                              GridF& intensity) const {
  const int n = grid_size();
  require(mask.height() == n && mask.width() == n,
          "AerialSimulator: mask shape mismatch");
  const std::size_t kernel_count = kernels_.kernel_ffts.size();
  const std::size_t rows_per_kernel =
      static_cast<std::size_t>(fft::BandAxis(n, band_).size) * n;
  Workspace& ws = Workspace::this_thread();
  const kernels::KernelTable& kt = kernels::table();

  // Masks are real: the Hermitian path transforms half the row pairs'
  // butterflies, and only columns 0..b.
  runtime::PooledVector<fft::Complex> mask_box = ws.vec_c128_uninit(box_);
  plan_.forward_real_band(mask.data(), mask_box.data(), band_);

  // Row stage: each kernel's product with the mask spectrum on the box,
  // inverse-transformed along the in-band rows. Serial: it is a few dozen
  // row FFTs in all.
  runtime::PooledVector<fft::Complex> product = ws.vec_c128_uninit(box_);
  runtime::PooledVector<fft::Complex> rows =
      ws.vec_c128_uninit(kernel_count * rows_per_kernel);
  for (std::size_t k = 0; k < kernel_count; ++k) {
    kt.cmul_to_f64(mask_box.data(), kernel_boxes_.data() + k * box_,
                   product.data(), box_);
    plan_.inverse_band_rows(product.data(),
                            rows.data() + k * rows_per_kernel, band_);
  }

  if (fields != nullptr) {
    fields->resize(kernel_count);  // keeps warm grids across refills
    for (fft::GridC& field : *fields) field.resize(n, n);
  }
  intensity.resize(n, n);
  // Column stage, kBlocksPerTask blocks of kColBlock columns per task.
  // Per block, each kernel's field columns in turn are folded into the
  // block's intensity in kernel order — the same per-pixel arithmetic as
  // a serial fold over whole fields.
  const std::size_t blocks =
      static_cast<std::size_t>((n + kColBlock - 1) / kColBlock);
  const std::size_t block_cells = static_cast<std::size_t>(kColBlock) * n;
  auto column_blocks = [&](std::size_t first, std::size_t last) {
    Workspace& task_ws = Workspace::this_thread();
    runtime::PooledVector<fft::Complex> cols =
        task_ws.vec_c128_uninit(block_cells);
    runtime::PooledVector<double> sum = task_ws.vec_f64_uninit(block_cells);
    for (std::size_t b = first; b < last; ++b) {
      const int x0 = static_cast<int>(b) * kColBlock;
      const int block = std::min(kColBlock, n - x0);
      const std::size_t cells = static_cast<std::size_t>(block) * n;
      std::fill(sum.data(), sum.data() + cells, 0.0);
      for (std::size_t k = 0; k < kernel_count; ++k) {
        plan_.inverse_band_cols(rows.data() + k * rows_per_kernel, x0,
                                x0 + block, cols.data(), band_);
        kt.norm_weighted_accum_f64(sum.data(), cols.data(),
                                   kernels_.weights[k], cells);
        if (fields != nullptr)
          scatter_columns(cols.data(), n, x0, block, (*fields)[k].data());
      }
      scatter_columns(sum.data(), n, x0, block, intensity.data());
    }
  };
  runtime::parallel_for_chunks(blocks, kBlocksPerTask, column_blocks);
}

GridF AerialSimulator::backpropagate(const GridF& dldi,
                                     const AerialFields& fields) const {
  GridF grad;
  backpropagate(dldi, fields, grad);
  return grad;
}

void AerialSimulator::backpropagate(const GridF& dldi,
                                    const AerialFields& fields,
                                    GridF& grad_out) const {
  const int n = grid_size();
  require(dldi.height() == n && dldi.width() == n,
          "backpropagate: gradient shape mismatch");
  require(fields.fields.size() == kernels_.kernel_ffts.size(),
          "backpropagate: field count mismatch");
  const std::size_t pixels =
      static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
  const std::size_t kernel_count = fields.fields.size();

  // dL/dM(x') = sum_k 2 w_k Re[ sum_x G(x) E_k(x) conj(h_k(x - x')) ], i.e.
  // the correlation of G * E_k with conj(h_k(-x)), whose spectrum is
  // conj(h_hat). Accumulate sum_k w_k FFT(G * E_k) * conj(h_hat_k) on the
  // band box — h_hat_k is zero elsewhere — then one inverse FFT.
  // Per-kernel box spectra are independent slices of one pooled stack;
  // each is fully overwritten in parallel, then folded into `accum`
  // serially in kernel order.
  Workspace& ws = Workspace::this_thread();
  const kernels::KernelTable& kt = kernels::table();
  runtime::PooledVector<fft::Complex> spectra =
      ws.vec_c128_uninit(kernel_count * box_);
  runtime::parallel_for(kernel_count, [&](std::size_t k) {
    runtime::PooledGrid<fft::Complex> product =
        Workspace::this_thread().grid_c_uninit(n, n);
    kt.real_mul_f64(dldi.data(), fields.fields[k].data(), product->data(),
                    pixels);
    plan_.forward_band(product->data(), spectra.data() + k * box_, band_);
  });
  runtime::PooledVector<fft::Complex> accum = ws.vec_c128(box_);
  for (std::size_t k = 0; k < kernel_count; ++k) {
    kt.cmul_conj_accum_f64(accum.data(), spectra.data() + k * box_,
                           kernel_boxes_.data() + k * box_,
                           kernels_.weights[k], box_);
  }
  runtime::PooledGrid<fft::Complex> spatial = ws.grid_c_uninit(n, n);
  plan_.inverse_band(accum.data(), spatial->data(), band_);
  grad_out.resize(n, n);
  kt.scaled_real_f64(spatial->data(), 2.0, grad_out.data(), pixels);
}

}  // namespace ldmo::litho
