#include "nn/linear.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "nn/gemm.h"

namespace ldmo::nn {

Linear::Linear(int in_features, int out_features, Rng& rng)
    : in_features_(in_features),
      out_features_(out_features),
      weight_({out_features, in_features}),
      bias_({out_features}) {
  require(in_features > 0 && out_features > 0, "Linear: invalid sizes");
  const float stddev = std::sqrt(2.0f / static_cast<float>(in_features));
  for (std::size_t i = 0; i < weight_.value.size(); ++i)
    weight_.value[i] = static_cast<float>(rng.normal(0.0, stddev));
}

SampleShape Linear::eval_shape(const SampleShape& in) const {
  require(in.flat && in.c == in_features_, "Linear::forward: bad input shape");
  return {out_features_, 1, 1, true};
}

void Linear::eval_sample(const float* in, const SampleShape& /*in_shape*/,
                         float* out, float* /*scratch*/) const {
  // y = x W^T + b: one row of gemm_a_bt with A = x [1 x in], B = W.
  std::fill(out, out + out_features_, 0.0f);
  gemm_a_bt_accumulate(in, weight_.value.data(), out, 1, in_features_,
                       out_features_);
  for (int f = 0; f < out_features_; ++f)
    out[f] += bias_.value[static_cast<std::size_t>(f)];
}

Tensor Linear::forward(const Tensor& input, bool training) {
  Tensor output = forward_eval(input);
  if (training) cached_input_ = input;
  return output;
}

Tensor Linear::backward(const Tensor& grad_output) {
  require(cached_input_.rank() == 2,
          "Linear::backward: no training-mode forward to differentiate");
  const int N = cached_input_.dim(0);
  require(grad_output.rank() == 2 && grad_output.dim(0) == N &&
              grad_output.dim(1) == out_features_,
          "Linear::backward: bad gradient shape");
  // dW += dY^T X  (dY [N x out], X [N x in] -> [out x in])
  gemm_at_b_accumulate(grad_output.data(), cached_input_.data(),
                       weight_.grad.data(), out_features_, N, in_features_);
  // db += column sums of dY
  for (int n = 0; n < N; ++n)
    for (int f = 0; f < out_features_; ++f)
      bias_.grad[static_cast<std::size_t>(f)] += grad_output.at2(n, f);
  // dX = dY W
  Tensor grad_input({N, in_features_});
  gemm_accumulate(grad_output.data(), weight_.value.data(), grad_input.data(),
                  N, out_features_, in_features_);
  return grad_input;
}

std::vector<Parameter*> Linear::parameters() { return {&weight_, &bias_}; }

}  // namespace ldmo::nn
