#include "nn/batchnorm.h"

#include <cmath>

#include "common/error.h"

namespace ldmo::nn {

BatchNorm2d::BatchNorm2d(int channels, float momentum, float epsilon)
    : channels_(channels),
      momentum_(momentum),
      epsilon_(epsilon),
      gamma_({channels}),
      beta_({channels}),
      running_mean_({channels}),
      running_var_({channels}) {
  require(channels > 0, "BatchNorm2d: channels must be positive");
  gamma_.value.fill(1.0f);
  running_var_.fill(1.0f);
}

SampleShape BatchNorm2d::eval_shape(const SampleShape& in) const {
  require(!in.flat && in.c == channels_, "BatchNorm2d: bad input shape");
  return in;
}

void BatchNorm2d::eval_sample(const float* in, const SampleShape& in_shape,
                              float* out, float* /*scratch*/) const {
  const std::size_t plane = in_shape.plane();
  for (int c = 0; c < channels_; ++c) {
    const std::size_t ch = static_cast<std::size_t>(c);
    const float inv_std = 1.0f / std::sqrt(running_var_[ch] + epsilon_);
    const float mean = running_mean_[ch];
    const float g = gamma_.value[ch];
    const float b = beta_.value[ch];
    const float* x = in + ch * plane;
    float* y = out + ch * plane;
    for (std::size_t i = 0; i < plane; ++i)
      y[i] = g * (x[i] - mean) * inv_std + b;
  }
}

Tensor BatchNorm2d::forward(const Tensor& input, bool training) {
  if (!training) return forward_eval(input);
  require(input.rank() == 4 && input.dim(1) == channels_,
          "BatchNorm2d: bad input shape");
  const int N = input.dim(0);
  const std::size_t plane =
      static_cast<std::size_t>(input.dim(2)) * input.dim(3);
  const std::size_t per_channel = static_cast<std::size_t>(N) * plane;
  const auto offset = [&](int n, int c) {
    return (static_cast<std::size_t>(n) * channels_ + c) * plane;
  };

  Tensor output(input.shape());
  cached_normalized_ = Tensor(input.shape());
  cached_inv_std_.assign(static_cast<std::size_t>(channels_), 0.0f);
  for (int c = 0; c < channels_; ++c) {
    double sum = 0.0, sq = 0.0;
    for (int n = 0; n < N; ++n) {
      const float* x = input.data() + offset(n, c);
      for (std::size_t i = 0; i < plane; ++i) {
        const float v = x[i];
        sum += v;
        sq += static_cast<double>(v) * v;
      }
    }
    const float mean = static_cast<float>(sum / per_channel);
    const float var = static_cast<float>(sq / per_channel) - mean * mean;
    const float inv_std = 1.0f / std::sqrt(var + epsilon_);
    const std::size_t ch = static_cast<std::size_t>(c);
    cached_inv_std_[ch] = inv_std;

    running_mean_[ch] =
        (1.0f - momentum_) * running_mean_[ch] + momentum_ * mean;
    running_var_[ch] = (1.0f - momentum_) * running_var_[ch] + momentum_ * var;

    const float g = gamma_.value[ch];
    const float b = beta_.value[ch];
    for (int n = 0; n < N; ++n) {
      const float* x = input.data() + offset(n, c);
      float* xn = cached_normalized_.data() + offset(n, c);
      float* y = output.data() + offset(n, c);
      for (std::size_t i = 0; i < plane; ++i) {
        xn[i] = (x[i] - mean) * inv_std;
        y[i] = g * xn[i] + b;
      }
    }
  }
  return output;
}

Tensor BatchNorm2d::backward(const Tensor& grad_output) {
  require(!cached_normalized_.empty(),
          "BatchNorm2d::backward: no training-mode forward to differentiate");
  require(grad_output.same_shape(cached_normalized_),
          "BatchNorm2d::backward: shape mismatch");
  const int N = grad_output.dim(0);
  const std::size_t plane =
      static_cast<std::size_t>(grad_output.dim(2)) * grad_output.dim(3);
  const double m = static_cast<double>(N) * static_cast<double>(plane);
  const auto offset = [&](int n, int c) {
    return (static_cast<std::size_t>(n) * channels_ + c) * plane;
  };

  Tensor grad_input(grad_output.shape());
  for (int c = 0; c < channels_; ++c) {
    // Accumulate the three reductions of the standard BN backward.
    double sum_dy = 0.0, sum_dy_xn = 0.0;
    for (int n = 0; n < N; ++n) {
      const float* dy = grad_output.data() + offset(n, c);
      const float* xn = cached_normalized_.data() + offset(n, c);
      for (std::size_t i = 0; i < plane; ++i) {
        sum_dy += dy[i];
        sum_dy_xn += static_cast<double>(dy[i]) * xn[i];
      }
    }
    const std::size_t ch = static_cast<std::size_t>(c);
    gamma_.grad[ch] += static_cast<float>(sum_dy_xn);
    beta_.grad[ch] += static_cast<float>(sum_dy);

    const float g = gamma_.value[ch];
    const float inv_std = cached_inv_std_[ch];
    const float k1 = static_cast<float>(sum_dy / m);
    const float k2 = static_cast<float>(sum_dy_xn / m);
    for (int n = 0; n < N; ++n) {
      const float* dy = grad_output.data() + offset(n, c);
      const float* xn = cached_normalized_.data() + offset(n, c);
      float* dx = grad_input.data() + offset(n, c);
      for (std::size_t i = 0; i < plane; ++i)
        dx[i] = g * inv_std * (dy[i] - k1 - xn[i] * k2);
    }
  }
  return grad_input;
}

std::vector<Parameter*> BatchNorm2d::parameters() { return {&gamma_, &beta_}; }

}  // namespace ldmo::nn
