// 2-D convolution via im2col + GEMM.
#pragma once

#include "nn/layers.h"

namespace ldmo::nn {

/// Conv2d with square kernels, stride and zero padding. Weights are
/// Kaiming-He initialized; bias optional (ResNet convs are bias-free since
/// batch norm follows).
class Conv2d : public Layer {
 public:
  Conv2d(int in_channels, int out_channels, int kernel_size, int stride,
         int padding, bool bias, Rng& rng);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;
  std::string name() const override { return "conv2d"; }

  SampleShape eval_shape(const SampleShape& in) const override;
  /// The im2col column matrix: [in_c * k * k, out_h * out_w].
  std::size_t eval_scratch(const SampleShape& in) const override;
  void eval_sample(const float* in, const SampleShape& in_shape, float* out,
                   float* scratch) const override;

  int in_channels() const { return in_channels_; }
  int out_channels() const { return out_channels_; }

  /// Output spatial size for a given input size.
  int output_size(int input_size) const {
    return (input_size + 2 * padding_ - kernel_size_) / stride_ + 1;
  }

  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }

 private:
  /// Valid output columns [lo, hi) of kernel tap `kx` for input width
  /// `width`: exactly the ox with 0 <= ox * stride - padding + kx < width.
  void tap_range(int kx, int width, int out_width, int& lo, int& hi) const;
  /// One sample's [in_c, H, W] planes -> columns [in_c * k * k, oh * ow].
  void im2col(const float* planes, int height, int width, int out_h,
              int out_w, float* columns) const;
  /// Adjoint of im2col: accumulates columns into [in_c, H, W] planes.
  void col2im(const float* columns, int height, int width, int out_h,
              int out_w, float* planes) const;

  int in_channels_;
  int out_channels_;
  int kernel_size_;
  int stride_;
  int padding_;
  bool has_bias_;
  Parameter weight_;  ///< [out_c, in_c * k * k]
  Parameter bias_;    ///< [out_c] (empty when bias disabled)

  Tensor cached_input_;  ///< last training-mode input
};

}  // namespace ldmo::nn
