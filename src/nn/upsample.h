// Parameter-free decoder plumbing: nearest-neighbour 2x upsampling and
// channel concatenation for UNet-style skip connections.
#pragma once

#include "nn/layers.h"

namespace ldmo::nn {

/// [N, C, H, W] -> [N, C, 2H, 2W] by pixel replication. The cheap
/// alternative to ConvTranspose2d when the following conv supplies the
/// learnable mixing. backward() sums each 2x2 replicated block.
class Upsample2x : public Layer {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "upsample2x"; }

  SampleShape eval_shape(const SampleShape& in) const override;
  void eval_sample(const float* in, const SampleShape& in_shape, float* out,
                   float* scratch) const override;

 private:
  std::vector<int> input_shape_;
};

/// Concatenates two activations along the channel axis:
/// [N, Ca, H, W] + [N, Cb, H, W] -> [N, Ca + Cb, H, W].
Tensor concat_channels(const Tensor& a, const Tensor& b);

/// Adjoint of concat_channels: splits the upstream gradient back into the
/// two branch gradients (`a_channels` leading channels go to `grad_a`).
void split_channels(const Tensor& grad, int a_channels, Tensor& grad_a,
                    Tensor& grad_b);

}  // namespace ldmo::nn
