// Fully connected layer.
#pragma once

#include "nn/layers.h"

namespace ldmo::nn {

/// Linear: y = x W^T + b over [N, in] -> [N, out].
class Linear : public Layer {
 public:
  Linear(int in_features, int out_features, Rng& rng);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;
  std::string name() const override { return "linear"; }

  SampleShape eval_shape(const SampleShape& in) const override;
  void eval_sample(const float* in, const SampleShape& in_shape, float* out,
                   float* scratch) const override;

  int in_features() const { return in_features_; }
  int out_features() const { return out_features_; }
  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }

 private:
  int in_features_;
  int out_features_;
  Parameter weight_;  ///< [out, in]
  Parameter bias_;    ///< [out]
  Tensor cached_input_;  ///< last training-mode input
};

}  // namespace ldmo::nn
