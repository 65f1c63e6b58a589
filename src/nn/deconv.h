// 2-D transposed convolution (a.k.a. deconvolution) for decoder paths.
#pragma once

#include "nn/layers.h"

namespace ldmo::nn {

/// ConvTranspose2d with square kernels, stride and zero padding — the
/// learnable-upsampling counterpart of Conv2d. Forward scatters each input
/// pixel through the kernel (the exact adjoint of Conv2d's gather), so a
/// ConvTranspose2d(k=2, s=2) doubles spatial resolution. Weights are
/// Kaiming-He initialized; weight layout is [in_c, out_c * k * k] — the
/// transpose of Conv2d's — so forward/backward reuse the same GEMM trio.
class ConvTranspose2d : public Layer {
 public:
  ConvTranspose2d(int in_channels, int out_channels, int kernel_size,
                  int stride, int padding, bool bias, Rng& rng);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;
  std::string name() const override { return "conv_transpose2d"; }

  SampleShape eval_shape(const SampleShape& in) const override;
  /// The column matrix: [out_c * k * k, in_h * in_w].
  std::size_t eval_scratch(const SampleShape& in) const override;
  void eval_sample(const float* in, const SampleShape& in_shape, float* out,
                   float* scratch) const override;

  int in_channels() const { return in_channels_; }
  int out_channels() const { return out_channels_; }

  /// Output spatial size for a given input size.
  int output_size(int input_size) const {
    return (input_size - 1) * stride_ - 2 * padding_ + kernel_size_;
  }

  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }

 private:
  // Both helpers use the same column layout as Conv2d's im2col —
  // columns[(oc * k + ky) * k + kx][iy * in_w + ix] — with the deconv
  // coordinate map oy = iy * stride - padding + ky, over one sample's
  // [out_c, out_h, out_w] planes. scatter_columns adds columns into the
  // (larger) output planes; gather_columns reads the upstream gradient
  // back into columns (zeroing out-of-bounds taps).
  void scatter_columns(const float* columns, int in_h, int in_w, int out_h,
                       int out_w, float* planes) const;
  void gather_columns(const float* planes, int in_h, int in_w, int out_h,
                      int out_w, float* columns) const;

  int in_channels_;
  int out_channels_;
  int kernel_size_;
  int stride_;
  int padding_;
  bool has_bias_;
  Parameter weight_;  ///< [in_c, out_c * k * k]
  Parameter bias_;    ///< [out_c] (empty when bias disabled)

  Tensor cached_input_;  ///< last training-mode input
};

}  // namespace ldmo::nn
