// Per-channel batch normalization for NCHW tensors.
#pragma once

#include "nn/layers.h"

namespace ldmo::nn {

/// BatchNorm2d: training mode normalizes with batch statistics and updates
/// running estimates; eval mode uses the running estimates.
class BatchNorm2d : public Layer {
 public:
  BatchNorm2d(int channels, float momentum = 0.1f, float epsilon = 1e-5f);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;
  std::string name() const override { return "batchnorm2d"; }

  SampleShape eval_shape(const SampleShape& in) const override;
  bool eval_in_place() const override { return true; }
  /// g * (x - running_mean) * inv_std + b per element, inv_std from the
  /// running variance.
  void eval_sample(const float* in, const SampleShape& in_shape, float* out,
                   float* scratch) const override;

  int channels() const { return channels_; }
  Parameter& gamma() { return gamma_; }
  Parameter& beta() { return beta_; }
  Tensor& running_mean() { return running_mean_; }
  Tensor& running_var() { return running_var_; }

 private:
  int channels_;
  float momentum_;
  float epsilon_;
  Parameter gamma_;  ///< scale, initialized to 1
  Parameter beta_;   ///< shift, initialized to 0
  Tensor running_mean_;
  Tensor running_var_;

  // Cached by the last training-mode forward for backward.
  Tensor cached_normalized_;
  std::vector<float> cached_inv_std_;
};

}  // namespace ldmo::nn
