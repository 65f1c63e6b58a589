// Spatial pooling layers: max pooling and global average pooling.
#pragma once

#include "nn/layers.h"

namespace ldmo::nn {

/// MaxPool2d with square window, stride and zero padding (padding cells
/// never win the max since they are treated as -inf).
class MaxPool2d : public Layer {
 public:
  MaxPool2d(int kernel_size, int stride, int padding);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "maxpool2d"; }

  SampleShape eval_shape(const SampleShape& in) const override;
  void eval_sample(const float* in, const SampleShape& in_shape, float* out,
                   float* scratch) const override;

  int output_size(int input_size) const {
    return (input_size + 2 * padding_ - kernel_size_) / stride_ + 1;
  }

 private:
  /// Pools one [height, width] plane into [out_h, out_w]. With `argmax`,
  /// also records each window's winner as `base` + its index in the plane
  /// (-1 for a window that lies entirely in the padding).
  void pool_plane(const float* in, int height, int width, int out_h,
                  int out_w, float* out, int* argmax, int base) const;

  int kernel_size_;
  int stride_;
  int padding_;
  std::vector<int> argmax_;  ///< winning flat input index per output cell
  std::vector<int> input_shape_;
};

/// Global average pooling: [N, C, H, W] -> [N, C].
class GlobalAvgPool : public Layer {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "gap"; }

  SampleShape eval_shape(const SampleShape& in) const override;
  void eval_sample(const float* in, const SampleShape& in_shape, float* out,
                   float* scratch) const override;

 private:
  std::vector<int> input_shape_;
};

}  // namespace ldmo::nn
